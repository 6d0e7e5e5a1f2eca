"""Physical and economic model of the shared-spectrum allocation game.

Users split a fixed power budget across frequency bands, drawing per-band
power from a finite quantization set.  Every joint choice of bundles (one
bundle per user) is a "profile"; profiles are counted, not listed, and
addressed by a catalog index so that users can talk about them by number.
A bundle is a tuple of level indices, built only where it is read.  Index 0
is reserved for "no feasible allocation".

All powers, gains, values and taxes are exact.  A utility spec's values,
`spec.values(config)`, hold V(k) as integer heights over one scale
(`IntegerScaling`) and state the utility V(k, t) = V(k) - g(t) once, as an
integer numerator (`value`) over one per-user `unit`, for taxes t over a
given denominator; so every comparison of utilities is exact and integer.
The tax cost g is t for the quasi-linear variants (`table`, `sir_log`;
their `quasi_linear` flag) and beta * t**3 for `cubic_tax`.  Every g is
non-decreasing and 0 at t = 0, so every utility is non-increasing in tax,
and allocation 0 ("no allocation", worth 0 before taxes) at tax 0 is worth
exactly 0.  Floating point enters only in a logarithmic utility's per-band
column terms w_b * log1p(SIR), each converted to an integer height exactly
before any sum.  Callers read values through `ScenarioConfig.user_values`,
which owns the evaluation bound and holds every `sir_log` user's or none
(its docstring states the rule).  A game in which every user's values are
0 on the whole catalog is refused: its null allocation would be an
equilibrium.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .errors import ConfigError

# Catalog indices must stay addressable as signed 64-bit integers; anything
# larger is out of desk scale and almost certainly a misconfiguration.
MAX_CATALOG_SIZE = 2**63 - 1

# Evaluating a user's utility builds one value per profile up front, and
# `enumerate --table` lists every profile, so catalogs beyond this many
# profiles are refused there; `outcome` and a bare `enumerate` still accept
# them.
MAX_VALUED_PROFILES = 10**6

# No catalog of 3 or more users over more bundles than the integer cube root
# of MAX_CATALOG_SIZE can index its profiles, so bundle counting stops
# there.
MAX_BUNDLES = 2**21 - 1


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


def as_ratio(value) -> tuple[int, int]:
    """An input number (int, Fraction, decimal or "p/q" string) as exact
    (numerator, denominator > 0): the one reading of every input number.

    A string of ASCII digits, "/", ASCII digits is split into two integers,
    not reduced; every other string goes through `parse_decimal`.  Strings
    are input, so both are held to MAX_DIGITS.  Floats are read through
    their shortest decimal representation, so a literal 0.1 means 1/10
    rather than the underlying binary float.
    """
    # strings first: a table's many "p/q" entries skip the slow isinstance
    # test against Fraction, an abstract base class
    if isinstance(value, str):
        numerator, slash, denominator = value.partition("/")
        if slash and value.isascii() and numerator.isdigit() and denominator.isdigit():
            if len(value) > MAX_DIGITS:
                raise _too_long(value)
            denominator = int(denominator)
            if denominator:
                return int(numerator), denominator
            raise ConfigError(f"cannot parse rational from {value!r}")
        try:
            return parse_decimal(value).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, bool):
        raise ConfigError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {value!r}")
        return Fraction(repr(value)).as_integer_ratio()
    raise ConfigError(f"expected a rational number, got {value!r}")


def as_fraction(value) -> Fraction:
    """An input number as an exact rational, read by `as_ratio`; a Fraction
    is returned as it is."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*as_ratio(value))


def count_bundles(quant_levels, num_bands: int, power_budget) -> int:
    """How many level vectors over `num_bands` bands sum to at most the
    budget, after checking the inputs: counted, none built, by how many
    vectors reach each partial sum, band by band, on the levels and budget
    as integers over one scale.  More than `MAX_BUNDLES` are refused."""
    levels = tuple(as_fraction(q) for q in quant_levels)
    if not levels:
        raise ConfigError("quantization set must not be empty")
    if levels[0] != 0:
        raise ConfigError("quantization set must start with the zero level")
    if any(hi <= lo for lo, hi in zip(levels, levels[1:])):
        raise ConfigError("quantization levels must be strictly increasing")
    if num_bands < 1:
        raise ConfigError("num_bands must be at least 1")
    budget = as_fraction(power_budget)
    if budget < 0:
        raise ConfigError("power budget must be non-negative")
    _, (cap, *heights) = integer_scaling((budget, *levels))
    counts = {0: 1}
    for _ in range(num_bands):
        grown = {}
        for total, count in counts.items():
            for height in heights:
                if total + height <= cap:
                    grown[total + height] = grown.get(total + height, 0) + count
        counts = grown
        # level 0 always fits, so a count never falls from band to band
        if sum(counts.values()) > MAX_BUNDLES:
            raise ConfigError(
                f"more than {MAX_BUNDLES} bundles fit the power budget, more than a "
                "catalog of 3 users can index (lower num_bands, quant_levels or power_budget)",
                "num_bands",
            )
    return sum(counts.values())


def enumerate_bundles(quant_levels, num_bands: int, power_budget) -> tuple[tuple[int, ...], ...]:
    """Every power bundle as a tuple of level indices, one per band, in the
    lexicographic order that fixes the catalog's: counted first, so that too
    many are refused before any is built, then grown band by band, keeping
    only partial sums within the budget."""
    count_bundles(quant_levels, num_bands, power_budget)
    _, (cap, *heights) = integer_scaling([as_fraction(v) for v in (power_budget, *quant_levels)])
    grown = [((), 0)]
    for _ in range(num_bands):
        grown = [
            (bundle + (level,), total + height)
            for bundle, total in grown
            for level, height in enumerate(heights)
            if total + height <= cap
        ]
    return tuple(bundle for bundle, _ in grown)


class ProfileCatalog(namedtuple("ProfileCatalog", "bundle_count num_users")):
    """The profiles of indices {1..size}, decoded on demand.

    A profile assigns one of `bundle_count` bundles to each user.  Profiles
    are ordered lexicographically by per-user bundle position (user 0 most
    significant), so decoding an index is O(num_users) mixed-radix
    arithmetic.  Index 0 never decodes: it denotes "no feasible allocation".
    """

    __slots__ = ()

    def __new__(cls, bundle_count: int, num_users: int):
        if bundle_count < 1:
            raise ConfigError("catalog needs at least one bundle")
        if num_users < 1:
            raise ConfigError("catalog needs at least one user")
        size = bundle_count**num_users
        if size > MAX_CATALOG_SIZE:
            raise ConfigError(
                f"catalog would hold {bundle_count}^{num_users} = {size} "
                f"profiles; indices are limited to {MAX_CATALOG_SIZE}"
            )
        return super().__new__(cls, bundle_count, num_users)

    @property
    def size(self) -> int:
        """Number of feasible profiles (the largest valid index)."""
        return self.bundle_count**self.num_users

    def profile_of(self, index: int) -> tuple[int, ...]:
        """Decode a 1-based catalog index into each user's bundle position."""
        if not 1 <= index <= self.size:
            raise ValueError(f"catalog index {index} outside 1..{self.size}")
        rest, digits = index - 1, []
        for _ in range(self.num_users):
            rest, digit = divmod(rest, self.bundle_count)
            digits.append(digit)
        return tuple(reversed(digits))


class IntegerScaling(namedtuple("IntegerScaling", "scale heights")):
    """Exact values as integers over one positive scale: V(k) = heights[k] / scale."""

    __slots__ = ()


def integer_scaling(values: Sequence) -> IntegerScaling:
    """Scale exact values (floats converted exactly) by their common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    # values share few distinct denominators, so their lcm takes few gcds
    scale = math.lcm(*{denominator for _, denominator in ratios})
    return IntegerScaling(
        scale, tuple([numerator * (scale // denominator) for numerator, denominator in ratios])
    )


def read_table(values: Sequence) -> IntegerScaling:
    """Input numbers as their exact `IntegerScaling` over the least scale,
    with no `Fraction` per entry.  A table of ints is its own heights over
    scale 1.  Otherwise one pass keeps ints as they are and reads every
    other entry with `as_ratio`; the heights over the lcm of those
    denominators are divided, with it, by their gcd, so "2/4" reads as "1/2"."""
    if set(map(type, values)) <= {int}:
        return IntegerScaling(1, tuple(values))
    ratios = [value if type(value) is int else as_ratio(value) for value in values]
    denominators = {ratio[1] for ratio in ratios if type(ratio) is tuple}
    scale = math.lcm(*denominators)
    heights = [
        ratio * scale if type(ratio) is int else ratio[0] * (scale // ratio[1])
        for ratio in ratios
    ]
    divisor = math.gcd(scale, *heights)
    if divisor > 1:
        scale //= divisor
        heights = [height // divisor for height in heights]
    return IntegerScaling(scale, tuple(heights))


def _table_scaling(values) -> IntegerScaling:
    """A value table as its exact `IntegerScaling`, after checking its null
    entry and its signs.  Input numbers are read by `read_table`; an
    `IntegerScaling` (a table spec's own field, so that the spec rebuilds
    from its fields) is checked as it is."""
    scaling = values if isinstance(values, IntegerScaling) else read_table(values)
    scale, heights = scaling
    if not heights or heights[0] != 0:
        raise ConfigError("utility table must start with value 0 for the null allocation")
    if scale < 1 or min(heights) < 0:
        raise ConfigError("utility table values must be non-negative")
    return scaling


class TableUtility(namedtuple("TableUtility", "scaling")):
    """Quasi-linear utility from a value table: V(k, t) = V(k) - t.

    Built from one value per catalog index, 0 through catalog size; entry 0
    is the no-allocation value and must be zero.  The table is held only as
    its exact `scaling`, V(k) = heights[k] / scale, into which `read_table`
    reads the values with no `Fraction` per entry.  For taxes over D its
    `value` is over the unit scale * D.
    """

    __slots__ = ()
    quasi_linear = True

    def __new__(cls, scaling: Sequence | IntegerScaling):
        return super().__new__(cls, _table_scaling(scaling))

    def values(self, config: "ScenarioConfig") -> "TableUtility":
        return self

    def unit(self, denominator: int) -> int:
        return self.scaling.scale * denominator

    def value(self, allocation: int, tax: int, denominator: int) -> int:
        """V(allocation, tax / denominator) over `unit`: the one statement
        of this utility."""
        return self.scaling.heights[allocation] * denominator - self.scaling.scale * tax

    def line_heights(self, slope: int, offset: int, denominator: int) -> Sequence[int]:
        """Per index k, `value` at tax (k * slope - offset) / denominator,
        less the constant scale * offset: integers in the same order.  At
        slope 0 every tax is the same, so the value heights themselves are
        in that order."""
        scale, heights = self.scaling
        if not slope:
            return heights
        step = scale * slope
        return [height * denominator - k * step for k, height in enumerate(heights)]


def _sir_terms(weight: Fraction, own: Sequence[int], total: Sequence[int]) -> list[float]:
    """A `sir_log` band's column terms float(weight) * log1p(SIR), the SIR
    of each column own / (total - own), from its integer powers."""
    weight = float(weight)
    return [weight * math.log1p(s / (t - s)) for s, t in zip(own, total)]


class SirLogUtility(namedtuple("SirLogUtility", "user weights")):
    """Rate-style utility: V(k, t) = sum_b weights[b] * log(1 + SIR_b) - t,
    each band's term rounded once to a float and the terms summed exactly.

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

    def values(self, config: "ScenarioConfig") -> TableUtility:
        """The `TableUtility` of this user's value heights, which is exactly
        this utility, by a catalog walk in index order without decoding a
        profile.

        Per band, one pass over the users in column-code order builds every
        column's total received power (noise included) and this user's own
        signal as integers (`ScenarioConfig.integer_channels`), so its SIR
        is signal / (total - signal).  The float term weight * log1p(SIR) of
        each column of every band becomes an integer height over one common
        scale (`integer_scaling`, exact); a profile's height is the sum of
        its columns' heights, read off by its code in each band
        (`ScenarioConfig.band_columns`), into one list of ints.  The heights
        start at 0 and no term is negative, so the table is built without
        `_table_scaling`'s O(size) checks.
        """
        levels, channels = config.integer_channels
        terms = []
        for band in range(config.num_bands):
            noise, *gains = channels[self.user][band]
            total, own, silent = [noise], [0], (0,) * len(levels)
            for tx, gain in enumerate(gains):
                powers = [gain * level for level in levels]
                total = [t + p for t in total for p in powers]
                own = [s + p for s in own for p in (powers if tx == self.user else silent)]
            terms.append(_sir_terms(self.weights[band], own, total))
        scaling = integer_scaling([term for band_terms in terms for term in band_terms])
        columns, start, values = list(scaling.heights), 0, None
        for band_terms, codes in zip(terms, config.band_columns):
            # list slices: `list.__getitem__` maps much faster than a tuple's
            column = columns[start : start + len(band_terms)]
            start += len(band_terms)
            band_heights = map(column.__getitem__, codes)
            values = band_heights if values is None else map(operator.add, values, band_heights)
        heights = [0]
        heights.extend(values)
        return TableUtility._make((IntegerScaling(scaling.scale, heights),))


class CubicTaxUtility(namedtuple("CubicTaxUtility", "scaling beta")):
    """Non-quasi-linear utility: V(k, t) = V(k) - beta * t**3, beta > 0,
    its value table held as its exact `scaling`, as `TableUtility`'s.  For
    taxes over D its `value` is over the unit scale * D**3 * beta's
    denominator."""

    __slots__ = ()
    quasi_linear = False

    def __new__(cls, scaling: Sequence | IntegerScaling, beta: Fraction):
        scaling = _table_scaling(scaling)
        beta = as_fraction(beta)
        if beta <= 0:
            raise ConfigError("beta must be strictly positive")
        return super().__new__(cls, scaling, beta)

    def values(self, config: "ScenarioConfig") -> "CubicTaxUtility":
        return self

    def unit(self, denominator: int) -> int:
        return self.scaling.scale * denominator**3 * self.beta.denominator

    def value(self, allocation: int, tax: int, denominator: int) -> int:
        """V(allocation, tax / denominator) over `unit`: the one statement
        of this utility."""
        scale, heights = self.scaling
        cube = denominator**3 * self.beta.denominator
        return heights[allocation] * cube - scale * self.beta.numerator * tax**3

    def line_heights(self, slope: int, offset: int, denominator: int) -> list[int]:
        """Per index k, `value` at tax (k * slope - offset) / denominator."""
        value = self.value
        return [
            value(k, k * slope - offset, denominator) for k in range(len(self.scaling.heights))
        ]


UtilitySpec = TableUtility | SirLogUtility | CubicTaxUtility


def _some_value_positive(spec: UtilitySpec, config: "ScenarioConfig") -> bool:
    """Whether the user's V(k) is positive at some profile k, decided
    without building a `sir_log` user's values.  A table's heights say it.
    A `sir_log` band's terms are never negative, and its largest is the
    term of the column where the user alone transmits, at the highest level
    within the budget (which fits alone in any band): that SIR is the
    largest, and the rounded division, log1p and product keep the order.
    So some V(k) is positive exactly when one band's such term is."""
    if not isinstance(spec, SirLogUtility):
        return any(spec.scaling.heights)
    levels, channels = config.integer_channels
    for weight, (noise, *gains) in zip(spec.weights, channels[spec.user]):
        signal = gains[spec.user] * levels[-1]
        if _sir_terms(weight, [signal], [noise + signal])[0] > 0:
            return True
    return False


def _need(items, length: int, field: str) -> None:
    """Refuse `items`, the record's field `field`, unless it holds `length`
    entries."""
    if len(items) != length:
        raise ConfigError(f"need {length} entries, got {len(items)}", field)


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
        quant_levels = tuple(as_fraction(q) for q in quant_levels)
        power_budget = as_fraction(power_budget)
        noise_half_density = as_fraction(noise_half_density)
        if noise_half_density <= 0:
            raise ConfigError("noise_half_density must be strictly positive")

        gains = tuple(tuple(tuple(as_fraction(g) for g in row) for row in plane) for plane in gains)
        _need(gains, num_users, "gains")
        for tx, plane in enumerate(gains):
            _need(plane, num_users, f"gains[{tx}]")
            for rx, row in enumerate(plane):
                _need(row, num_bands, f"gains[{tx}][{rx}]")
                if any(g.numerator < 0 for g in row):
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
            field = f"utilities[{user}]"
            if isinstance(spec, (TableUtility, CubicTaxUtility)):
                _need(spec.scaling.heights, size + 1, f"{field}.values")
            elif isinstance(spec, SirLogUtility):
                if spec.user != user:
                    raise ConfigError(f"SIR utility is owned by user {spec.user}", field)
                _need(spec.weights, self.num_bands, f"{field}.weights")
            else:
                raise ConfigError(f"unknown utility spec {spec!r}", field)
        if not any(_some_value_positive(spec, self) for spec in self.utilities):
            raise ConfigError(
                "every user's values are 0 on the whole catalog, so no profile is worth "
                "more than no allocation and the null allocation is an equilibrium",
                "utilities",
            )
        return self

    @cached_property
    def catalog(self) -> ProfileCatalog:
        count = count_bundles(self.quant_levels, self.num_bands, self.power_budget)
        return ProfileCatalog(count, self.num_users)

    @cached_property
    def bundles(self) -> tuple[tuple[int, ...], ...]:
        return enumerate_bundles(self.quant_levels, self.num_bands, self.power_budget)

    @cached_property
    def held_values(self) -> dict[int, TableUtility]:
        """The `sir_log` users' values that `user_values` holds, by user."""
        return {}

    def user_values(self, user: int) -> TableUtility | CubicTaxUtility:
        """User's values, `spec.values(self)`, the one way to read them.

        Catalogs over `MAX_VALUED_PROFILES` profiles raise `ConfigError`,
        for every variant.  A `table` or `cubic_tax` spec is its own values.
        `sir_log` values are held all or none, decided by the config alone:
        when the `sir_log` users times the catalog size is at most
        `MAX_VALUED_PROFILES`, each user's are built on its first request
        and held in `held_values` for every later request on this config;
        otherwise none is held and every request builds, as at the cap."""
        self.check_profile_cap("evaluating utilities")
        spec = self.utilities[user]
        if not isinstance(spec, SirLogUtility):
            return spec
        values = self.held_values.get(user)
        if values is None:
            values = spec.values(self)
            sir_users = sum(isinstance(s, SirLogUtility) for s in self.utilities)
            if sir_users * self.catalog.size <= MAX_VALUED_PROFILES:
                self.held_values[user] = values
        return values

    def check_profile_cap(self, work: str) -> None:
        """Raise `ConfigError` naming `scenario.num_users` when the catalog
        has more than `MAX_VALUED_PROFILES` profiles for `work` to visit."""
        size = self.catalog.size
        if size > MAX_VALUED_PROFILES:
            raise ConfigError(
                f"scenario.num_users: {self.num_users} users over {self.catalog.bundle_count} "
                f"bundles give {size} profiles; {work} is limited to "
                f"{MAX_VALUED_PROFILES} profiles (lower num_users, num_bands, "
                "quant_levels or power_budget)"
            )

    @cached_property
    def band_columns(self) -> tuple[list[int], ...]:
        """Per band, every profile's column code in catalog order.

        Every band uses the same levels: the m within the budget
        (`integer_channels`), as any one of them fits alone in any band and
        no larger one fits anywhere.  A column code reads the users' level
        indices as a base-m number, user 0 most significant, so lists built
        by nesting over the users in order, user 0 outermost, hold one entry
        per column in code order.
        """
        radix = len(self.integer_channels[0])
        columns = []
        for band in range(self.num_bands):
            digits = [bundle[band] for bundle in self.bundles]
            codes = [0]
            for _ in range(self.num_users):
                codes = [code * radix + digit for code in codes for digit in digits]
            columns.append(codes)
        return tuple(columns)

    @cached_property
    def integer_channels(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
        """The SIR inputs as integers: the quantization levels within the
        budget over their common denominator, and per receiver and band
        (noise, gain from user 0, ..., gain from user N - 1) over another,
        the noise also times the levels' denominator.  An SIR is a ratio of
        these integers, so neither scale changes it."""
        levels = integer_scaling([q for q in self.quant_levels if q <= self.power_budget])
        noise = self.noise_half_density * levels.scale
        channels = tuple(
            tuple(
                integer_scaling((noise, *(plane[rx][band] for plane in self.gains))).heights
                for band in range(self.num_bands)
            )
            for rx in range(self.num_users)
        )
        return levels.heights, channels

