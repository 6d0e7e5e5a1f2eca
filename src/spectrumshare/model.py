"""Physical and economic model of the shared-spectrum allocation game.

Users split a fixed power budget across frequency bands, drawing per-band
power from a finite quantization set.  Every joint choice of bundles (one
bundle per user) is a "profile"; profiles are enumerated once and addressed
by a catalog index so that users can talk about them by number.  Index 0 is
reserved for "no feasible allocation".

All powers, gains and taxes are exact rationals (`fractions.Fraction`);
floating point enters only when a logarithmic utility is evaluated.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import ConfigError

PowerBundle = tuple[Fraction, ...]

# Catalog indices must stay addressable as signed 64-bit integers; anything
# larger is out of desk scale and almost certainly a misconfiguration.
MAX_CATALOG_SIZE = 2**63 - 1

# Evaluating utilities builds one value per user and profile up front, and
# `enumerate --table` lists every profile, so catalogs beyond this many
# profiles are refused there; `outcome` and a bare `enumerate` still accept
# them.
MAX_VALUED_PROFILES = 10**6

# Float utilities count as strictly better only beyond this combined
# tolerance: relative to the larger magnitude compared, floored near zero.
FLOAT_REL_TOL = 1e-12
FLOAT_ABS_TOL = 1e-18


# Exact inputs give exact outputs, which the commands print through
# int -> str; Python refuses that beyond 4,300 digits.  A printed number is
# a reduced fraction made from a few inputs by a few products.  The longest
# are a cubic_tax user's gains, which cube a tax of three messages: about 11
# times the digits of one input.  A Lindahl rebuild's solved prices sum over
# the users: about half an input's digits per user, for at most 63 users in
# a catalog of two or more bundles.  So every number read from input may
# carry at most MAX_DIGITS digits, counted on its literal before it is
# built: its characters before any exponent plus the exponent's size.
MAX_DIGITS = 100


def _too_long(text: str) -> ConfigError:
    shown = text if len(text) <= 24 else f"{text[:20]}..."
    return ConfigError(f"number {shown} exceeds {MAX_DIGITS} digits")


def parse_integer(text: str) -> int:
    """An integer literal of at most MAX_DIGITS digits."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise _too_long(text)
    return int(text)


# Every ASCII digit byte as "0" and every other byte as a space, so that one
# substring search finds a run of more than MAX_DIGITS digits.
_DIGIT_MASK = bytes(48 if 48 <= b <= 57 else 32 for b in range(256))


def check_digit_runs(document: bytes) -> None:
    """Refuse an ASCII-compatible document with more than MAX_DIGITS digits
    in a row, so that none of its integer literals is longer."""
    start = document.translate(_DIGIT_MASK).find(b"0" * (MAX_DIGITS + 1))
    if start >= 0:
        raise _too_long(document[start : start + MAX_DIGITS + 1].decode())


def parse_decimal(text: str) -> Fraction:
    """`Fraction(text)`, refused before it is built when its characters
    before any exponent plus the exponent's size exceed MAX_DIGITS."""
    mantissa, _, exponent = text.lower().partition("e")
    if len(exponent) > 9 or len(mantissa) + abs(int(exponent or 0)) > MAX_DIGITS:
        raise _too_long(text)
    return Fraction(text)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, decimal or "p/q" strings to an exact rational.

    A string of ASCII digits, "/", ASCII digits is split into two integers;
    every other string goes through `parse_decimal`.  Strings are input, so
    both are held to MAX_DIGITS.  Floats are converted through their
    shortest decimal representation, so a literal 0.1 means 1/10 rather than
    the underlying binary float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            numerator, slash, denominator = value.partition("/")
            if slash and value.isascii() and numerator.isdigit() and denominator.isdigit():
                if len(value) > MAX_DIGITS:
                    raise _too_long(value)
                return Fraction(int(numerator), int(denominator))
            return parse_decimal(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {value!r}")
        return Fraction(repr(value))
    raise ConfigError(f"expected a rational number, got {value!r}")


def _validate_quant_levels(quant_levels) -> tuple[Fraction, ...]:
    levels = tuple(as_fraction(q) for q in quant_levels)
    if not levels:
        raise ConfigError("quantization set must not be empty")
    if levels[0] != 0:
        raise ConfigError("quantization set must start with the zero level")
    for lo, hi in zip(levels, levels[1:]):
        if hi <= lo:
            raise ConfigError("quantization levels must be strictly increasing")
    return levels


def enumerate_bundles(quant_levels, num_bands: int, power_budget) -> tuple[PowerBundle, ...]:
    """All per-user power bundles: vectors in Q^num_bands with sum <= budget.

    Bundles are ordered lexicographically with the quantization levels
    ascending, which fixes the catalog ordering once and for all.
    """
    levels = _validate_quant_levels(quant_levels)
    if num_bands < 1:
        raise ConfigError("num_bands must be at least 1")
    if len(levels) ** num_bands > MAX_CATALOG_SIZE:
        raise ConfigError(
            f"bundle space {len(levels)}^{num_bands} exceeds the supported "
            f"enumeration bound {MAX_CATALOG_SIZE}"
        )
    budget = as_fraction(power_budget)
    if budget < 0:
        raise ConfigError("power budget must be non-negative")
    return tuple(b for b in product(levels, repeat=num_bands) if sum(b) <= budget)


class ProfileCatalog(namedtuple("ProfileCatalog", "bundles num_users")):
    """The profiles of indices {1..size}, decoded on demand.

    A profile assigns one bundle to each user.  Profiles are ordered
    lexicographically by per-user bundle position (user 0 most significant),
    so decoding an index is O(num_users) mixed-radix arithmetic.  Index 0
    never decodes: it denotes "no feasible allocation".
    """

    __slots__ = ()

    def __new__(cls, bundles: tuple[PowerBundle, ...], num_users: int):
        if not bundles:
            raise ConfigError("catalog needs at least one bundle")
        if num_users < 1:
            raise ConfigError("catalog needs at least one user")
        size = len(bundles) ** num_users
        if size > MAX_CATALOG_SIZE:
            raise ConfigError(
                f"catalog would hold {len(bundles)}^{num_users} = {size} "
                f"profiles; indices are limited to {MAX_CATALOG_SIZE}"
            )
        return super().__new__(cls, bundles, num_users)

    @property
    def size(self) -> int:
        """Number of feasible profiles (the largest valid index)."""
        return len(self.bundles) ** self.num_users

    def profile_of(self, index: int) -> tuple[PowerBundle, ...]:
        """Decode a 1-based catalog index into a per-user bundle tuple."""
        if not 1 <= index <= self.size:
            raise ValueError(f"catalog index {index} outside 1..{self.size}")
        base = len(self.bundles)
        rest = index - 1
        digits = []
        for _ in range(self.num_users):
            rest, digit = divmod(rest, base)
            digits.append(digit)
        return tuple(self.bundles[d] for d in reversed(digits))


def build_catalog(num_users: int, bundles: Sequence[PowerBundle]) -> ProfileCatalog:
    """Build the shared profile catalog for `num_users` over `bundles`."""
    return ProfileCatalog(tuple(tuple(b) for b in bundles), num_users)


_EXACT_TYPES = (int, Fraction)


def _table_values(values) -> tuple[int | Fraction, ...]:
    """A value table kept exact, with ints and Fractions as they are and
    anything else through `as_fraction`, after checking its null entry and
    its signs."""
    values = tuple(v if type(v) in _EXACT_TYPES else as_fraction(v) for v in values)
    if not values or values[0] != 0:
        raise ConfigError("utility table must start with value 0 for the null allocation")
    if any(v.numerator < 0 for v in values):
        raise ConfigError("utility table values must be non-negative")
    return values


class TableUtility(namedtuple("TableUtility", "values")):
    """Quasi-linear utility from a value table: V(k, t) = values[k] - t.

    `values` has one entry per catalog index, 0 through catalog size; entry 0
    is the no-allocation value and is normalized to zero.
    """

    __slots__ = ()
    quasi_linear = True

    def __new__(cls, values: tuple[int | Fraction, ...]):
        return super().__new__(cls, _table_values(values))

    def value_vector(self, config: "ScenarioConfig") -> tuple[int | Fraction, ...]:
        return self.values

    @staticmethod
    def tax_cost(tax: Fraction) -> Fraction:
        return tax

    @staticmethod
    def line_heights(
        config: "ScenarioConfig", user: int, slope: int, offset: int, denominator: int
    ) -> list[int]:
        """Per index k, V(k, (k * slope - offset) / denominator) times
        scale * denominator, less the constant scale * offset: integers in
        the same order."""
        scaling = config.integer_scalings[user]
        step = scaling.scale * slope
        return [height * denominator - k * step for k, height in enumerate(scaling.heights)]


class SirLogUtility(namedtuple("SirLogUtility", "user weights")):
    """Rate-style utility: V(k, t) = sum_b weights[b] * log(1 + SIR_b) - t.

    The signal-to-interference ratios depend on which user is evaluating, so
    the spec carries its owner's index.  Every weight is below
    10**MAX_DIGITS, the bound of every input number, so it fits a float.
    """

    __slots__ = ()
    quasi_linear = True

    def __new__(cls, user: int, weights: tuple[Fraction, ...]):
        weights = tuple(as_fraction(w) for w in weights)
        if any(w < 0 for w in weights):
            raise ConfigError("SIR utility weights must be non-negative")
        if any(w >= 10**MAX_DIGITS for w in weights):
            raise ConfigError(f"SIR utility weights must be below 10**{MAX_DIGITS}")
        return super().__new__(cls, user, weights)

    def value_vector(self, config: "ScenarioConfig") -> array:
        """Catalog walk in index order without decoding a profile.

        Per band, one pass over the users in column-code order builds every
        column's total received power (noise included) and this user's own
        signal as integers (`ScenarioConfig.integer_channels`), so its SIR
        is signal / (total - signal).  The term weight * log1p(SIR) of each
        column is read off by each profile's code
        (`ScenarioConfig.band_columns`); terms are summed in band order into
        an `array('d')`, 8 bytes a value against 32 in a tuple of floats.
        """
        levels, channels = config.integer_channels
        values = None
        for band, (used, codes) in enumerate(config.band_columns):
            noise, *gains = channels[self.user][band]
            total, own, silent = [noise], [0], (0,) * len(used)
            for tx, gain in enumerate(gains):
                powers = [gain * levels[level] for level in used]
                total = [t + p for t in total for p in powers]
                own = [s + p for s in own for p in (powers if tx == self.user else silent)]
            weight = float(self.weights[band])
            terms = [weight * math.log1p(s / (t - s)) for s, t in zip(own, total)]
            band_terms = map(terms.__getitem__, codes)
            values = band_terms if values is None else map(operator.add, values, band_terms)
        vector = array("d", [0.0])
        vector.extend(values)
        return vector

    @staticmethod
    def tax_cost(tax: Fraction) -> float:
        return float(tax)

    @staticmethod
    def line_heights(
        config: "ScenarioConfig", user: int, slope: int, offset: int, denominator: int
    ) -> list[float]:
        """Per index k, V(k, (k * slope - offset) / denominator) as a float.

        Integer true division rounds correctly, so each tax is the same float
        as `float(Fraction(k * slope - offset, denominator))`.
        """
        values = config.value_vectors[user]
        return [value - (k * slope - offset) / denominator for k, value in enumerate(values)]


class CubicTaxUtility(namedtuple("CubicTaxUtility", "values beta")):
    """Non-quasi-linear utility: V(k, t) = values[k] - beta * t**3, beta > 0."""

    __slots__ = ()
    quasi_linear = False

    def __new__(cls, values: tuple[int | Fraction, ...], beta: Fraction):
        values = _table_values(values)
        beta = as_fraction(beta)
        if beta <= 0:
            raise ConfigError("beta must be strictly positive")
        return super().__new__(cls, values, beta)

    def value_vector(self, config: "ScenarioConfig") -> tuple[int | Fraction, ...]:
        return self.values

    def tax_cost(self, tax: Fraction) -> Fraction:
        return self.beta * tax**3

    def line_heights(
        self, config: "ScenarioConfig", user: int, slope: int, offset: int, denominator: int
    ) -> list[int]:
        """Per index k, V(k, (k * slope - offset) / denominator) times
        scale * denominator**3 * beta.denominator: integers in the same order."""
        scaling = config.integer_scalings[user]
        cube = denominator**3 * self.beta.denominator
        coefficient = scaling.scale * self.beta.numerator
        return [
            height * cube - coefficient * (k * slope - offset) ** 3
            for k, height in enumerate(scaling.heights)
        ]


UtilitySpec = TableUtility | SirLogUtility | CubicTaxUtility


class IntegerScaling(namedtuple("IntegerScaling", "scale heights")):
    """Exact values as integers over one positive scale: V(k) = heights[k] / scale."""

    __slots__ = ()


def integer_scaling(values: Sequence) -> IntegerScaling:
    """Scale exact values (floats converted exactly) by their common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(denominator for _, denominator in ratios))
    return IntegerScaling(
        scale, tuple(numerator * (scale // denominator) for numerator, denominator in ratios)
    )


class ScenarioConfig(
    namedtuple(
        "ScenarioConfig",
        "num_users num_bands quant_levels power_budget noise_half_density gains utilities",
    )
):
    """Immutable description of one allocation session.

    `gains[tx][rx][band]` is the channel gain from user tx's transmitter to
    user rx's receiver on that band.  At least three users are required: the
    price charged to a user is built from the two users after it in the
    cycle, and with fewer than three users a user would end up controlling
    its own price.  No `__slots__`: the cached properties live in the
    instance `__dict__`.
    """

    def __new__(
        cls,
        num_users: int,
        num_bands: int,
        quant_levels: tuple[Fraction, ...],
        power_budget: Fraction,
        noise_half_density: Fraction,
        gains: tuple[tuple[tuple[Fraction, ...], ...], ...],
        utilities: tuple[UtilitySpec, ...],
    ):
        if num_users < 3:
            raise ConfigError(
                f"at least 3 users are required, got {num_users}: the cyclic "
                "price structure degenerates below that"
            )
        quant_levels = _validate_quant_levels(quant_levels)
        power_budget = as_fraction(power_budget)
        noise_half_density = as_fraction(noise_half_density)
        if noise_half_density <= 0:
            raise ConfigError("noise_half_density must be strictly positive")

        gains = tuple(tuple(tuple(as_fraction(g) for g in row) for row in plane) for plane in gains)
        if len(gains) != num_users or any(len(plane) != num_users for plane in gains):
            raise ConfigError("gains tensor must be num_users x num_users x num_bands")
        for plane in gains:
            for row in plane:
                if len(row) != num_bands:
                    raise ConfigError("gains tensor must be num_users x num_users x num_bands")
                if any(g < 0 for g in row):
                    raise ConfigError("channel gains must be non-negative")

        utilities = tuple(utilities)
        if len(utilities) != num_users:
            raise ConfigError(
                f"expected one utility per user ({num_users}), got {len(utilities)}"
            )
        self = super().__new__(
            cls,
            num_users,
            num_bands,
            quant_levels,
            power_budget,
            noise_half_density,
            gains,
            utilities,
        )
        size = self.catalog.size
        for user, spec in enumerate(self.utilities):
            if isinstance(spec, (TableUtility, CubicTaxUtility)):
                if len(spec.values) != size + 1:
                    raise ConfigError(
                        f"utilities[{user}]: table needs {size + 1} entries "
                        f"(indices 0..{size}), got {len(spec.values)}"
                    )
            elif isinstance(spec, SirLogUtility):
                if spec.user != user:
                    raise ConfigError(
                        f"utilities[{user}]: SIR utility is owned by user {spec.user}"
                    )
                if len(spec.weights) != self.num_bands:
                    raise ConfigError(
                        f"utilities[{user}]: need {self.num_bands} band weights, "
                        f"got {len(spec.weights)}"
                    )
            else:
                raise ConfigError(f"utilities[{user}]: unknown utility spec {spec!r}")
        return self

    @cached_property
    def bundles(self) -> tuple[PowerBundle, ...]:
        return enumerate_bundles(self.quant_levels, self.num_bands, self.power_budget)

    @cached_property
    def catalog(self) -> ProfileCatalog:
        return build_catalog(self.num_users, self.bundles)

    @cached_property
    def value_vectors(self) -> tuple[Sequence, ...]:
        """Per user, the value V_i(k) of every catalog index k = 0..size before taxes.

        Built on first use, so commands that never evaluate a utility never
        pay for it; entry 0 is the null allocation, worth 0.  A table user's
        vector is its exact tuple, a `sir_log` user's an `array('d')`.
        Catalogs over `MAX_VALUED_PROFILES` raise `ConfigError`.
        """
        self.check_profile_cap("evaluating utilities")
        return tuple(spec.value_vector(self) for spec in self.utilities)

    def check_profile_cap(self, work: str) -> None:
        """Raise `ConfigError` naming `scenario.num_users` when the catalog
        has more than `MAX_VALUED_PROFILES` profiles for `work` to visit."""
        size = self.catalog.size
        if size > MAX_VALUED_PROFILES:
            raise ConfigError(
                f"scenario.num_users: {self.num_users} users over {len(self.bundles)} "
                f"bundles give {size} profiles; {work} is limited to "
                f"{MAX_VALUED_PROFILES} profiles (lower num_users, num_bands, "
                "quant_levels or power_budget)"
            )

    @cached_property
    def band_columns(self) -> tuple[tuple[tuple[int, ...], list[int]], ...]:
        """Per band, the level indices some bundle uses there, and every
        profile's column code in catalog order.

        A column code reads the users' positions in that tuple of level
        indices as a mixed-radix number, user 0 most significant, so lists
        built by nesting over the users in order, user 0 outermost, hold
        one entry per column in code order.
        """
        level_of = {level: i for i, level in enumerate(self.quant_levels)}
        columns = []
        for band in range(self.num_bands):
            used = sorted({level_of[bundle[band]] for bundle in self.bundles})
            position = {level: i for i, level in enumerate(used)}
            digits = [position[level_of[bundle[band]]] for bundle in self.bundles]
            codes = [0]
            for _ in range(self.num_users):
                codes = [code * len(used) + digit for code in codes for digit in digits]
            columns.append((tuple(used), codes))
        return tuple(columns)

    @cached_property
    def integer_channels(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
        """The SIR inputs as integers: the quantization levels over their
        common denominator, and per receiver and band (noise, gain from user
        0, ..., gain from user N - 1) over another, the noise also times the
        levels' denominator."""
        levels = integer_scaling(self.quant_levels)
        noise = self.noise_half_density * levels.scale
        channels = tuple(
            tuple(
                integer_scaling((noise, *(plane[rx][band] for plane in self.gains))).heights
                for band in range(self.num_bands)
            )
            for rx in range(self.num_users)
        )
        return levels.heights, channels

    @cached_property
    def integer_scalings(self) -> tuple[IntegerScaling, ...]:
        """Per user, the value vector as integers over one scale, for the
        `table` and `cubic_tax` line scans; `lindahl_census` builds its own
        per user and drops them, so a `sir_log` game never caches these."""
        return tuple(integer_scaling(values) for values in self.value_vectors)


def utility_eval(config: ScenarioConfig, user: int, allocation: int, tax):
    """User's utility at (allocation index, tax): V(k) - g(t).

    V is the user's value vector in `config.value_vectors` and g the tax
    cost of its spec: t for the tables, beta * t**3 for the cubic variant,
    float(t) for the SIR variant, which returns a float.  Every g is
    non-decreasing, so every utility is non-increasing in tax.  A spec's
    `quasi_linear` flag says whether g is the tax itself (the tables and the
    SIR variant).  Allocation 0 always means "no allocation", worth 0
    before taxes.
    """
    size = config.catalog.size
    if not 0 <= allocation <= size:
        raise ValueError(f"allocation index {allocation} outside 0..{size}")
    spec = config.utilities[user]
    return config.value_vectors[user][allocation] - spec.tax_cost(as_fraction(tax))


def improves(spec: UtilitySpec, candidate, incumbent) -> bool:
    """Whether utility `candidate` is strictly better than `incumbent`.

    Exact for the rational variants.  The float-valued SIR variant needs a
    gain above max(FLOAT_REL_TOL * max(|candidate|, |incumbent|),
    FLOAT_ABS_TOL), so rounding noise is no gain and the verdict does not
    depend on the units of utility.
    """
    if not isinstance(spec, SirLogUtility):
        return candidate > incumbent
    magnitude = max(abs(candidate), abs(incumbent))
    return candidate - incumbent > max(FLOAT_REL_TOL * magnitude, FLOAT_ABS_TOL)
