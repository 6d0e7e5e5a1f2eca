"""Reference implementations of the slow paths the library replaced.

- Nash checks by scanning a finite `MessageGrid`, which the exact price-line
  kernel in `spectrumshare.equilibrium` replaced.  They try every grid
  message of one user against the others held fixed, evaluating the utility
  point by point, so they only see deviations that land on the grid.
- The alternative-by-alternative Lindahl check, which the price-line scans
  of `build_report` replaced.
- The unanimity scan and the O(N * size^2) price-interval scan, which the
  Lindahl census replaced as the way to find equilibria.
- The census's hull pass as it was when it returned one dict of interval
  ends per user, and its loop that ran the integer balance test on every
  allocation on every user's hull, which two bisections replaced.
- The price-line loop over `Fraction` values and taxes, which the integer
  kernel `price_line_optimum` replaced; `Fraction(v)` for every value in
  `integer_scaling`.  It states each variant's tax cost itself.
- `fraction_report`, the certificate as it was before `build_report` read
  every verdict off integer numerators: `Fraction` prices, taxes and
  utilities throughout.
- A value table read through one `Fraction` per entry (`as_fraction`, then
  `integer_scaling`), which the one-pass `read_table` replaced.
- Two earlier builds of the `sir_log` values: the per-index `Fraction` SIR
  loop, and the per-column integer SIR ratio walk that replaced it before
  the column power sums.  Both round each band's term to a float, as the
  library does, and sum the terms exactly as `Fraction(term)`.
- The paper's three-term tax, which `outcome` computes as integer
  numerators over one denominator.  User i (the cycle wraps around) pays,
  at a rounded average k that names a profile,

      k * (pi_{i+1} - pi_{i+2}) / N        allocation charge
    + (n_i - n_{i+1})^2 * pi_i             own mismatch penalty
    - (n_{i+1} - n_{i+2})^2 * pi_{i+1}     credit: the next user's penalty

  and nothing at all when k leaves the catalog.  `fraction_outcome` sums
  it, with the allocation, in place of `outcome`.
- The paper's utility V(k) - g(t) on `exact_values` (`utility_of`) and its
  personal price (pi_{i+1} - pi_{i+2}) / N (`personal_price`), which the
  library states as integer numerators, in each user's `value` over its
  `unit` and in `tax_terms`.  No oracle here calls either.
- The catalog encoder `index_of`, the inverse of
  `ProfileCatalog.profile_of`: bundle positions read as a mixed-radix
  number, user 0 most significant, plus one.
- The bundle builder as it was before bundles became level indices,
  `fraction_bundles`: every bundle as a tuple of `Fraction` powers, and
  `fraction_profile`, the decoding of an index into those bundles.
- The cyclic price solve seeded by the caller's price[0], with the least
  seed read off its most negative price, which the closed-form inverse
  `message_prices` replaced.

The differential tests compare the library against them.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

from spectrumshare import Deviation, EquilibriumReport, Message, build_report
from spectrumshare.mechanism import MessageProfile, nearest_integer
from spectrumshare.model import (
    IntegerScaling,
    ProfileCatalog,
    ScenarioConfig,
    SirLogUtility,
    UtilitySpec,
    as_fraction,
    integer_scaling,
)


def utility_of(config: ScenarioConfig, user: int):
    """User's exact utility (allocation, tax) -> `fraction_utility` on its
    `exact_values`, with no call to the library's value build or `value`."""
    spec = config.utilities[user]
    values = exact_values(spec, config)
    return lambda allocation, tax: fraction_utility(spec, values[allocation], tax)


def personal_price(profile: MessageProfile, user: int) -> Fraction:
    """The paper's personal price of `user`, (pi_{i+1} - pi_{i+2}) / N,
    the cycle wrapping around."""
    n = len(profile)
    return (profile[(user + 1) % n].price - profile[(user + 2) % n].price) / n


def tax_components(
    profile: MessageProfile, user: int, catalog_size: int
) -> tuple[Fraction, Fraction, Fraction]:
    """(charge, penalty, credit) of `user`'s tax, in `Fraction` arithmetic;
    their sum is the tax."""
    n = len(profile)
    average = nearest_integer(sum(m.proposal for m in profile), n)
    if not 1 <= average <= catalog_size:
        return Fraction(0), Fraction(0), Fraction(0)
    own, after, after2 = (profile[(user + step) % n] for step in range(3))
    charge = average * (after.price - after2.price) / n
    penalty = (own.proposal - after.proposal) ** 2 * own.price
    credit = -((after.proposal - after2.proposal) ** 2) * after.price
    return charge, penalty, credit


def fraction_outcome(profile: MessageProfile, catalog_size: int) -> tuple[int, tuple]:
    """`outcome`'s (allocation, taxes) in `Fraction` arithmetic: the rounded
    average when it names a profile, else 0, and each tax summed from
    `tax_components`."""
    n = len(profile)
    average = nearest_integer(sum(m.proposal for m in profile), n)
    taxes = tuple(sum(tax_components(profile, user, catalog_size)) for user in range(n))
    return (average if 1 <= average <= catalog_size else 0), taxes


def seeded_message_prices(personal_prices, seed) -> tuple[list[Fraction], Fraction]:
    """The cyclic system p_i = (pi_{i+1} - pi_{i+2}) / N solved one price at
    a time from pi_0 = seed: the solved prices and the least seed that keeps
    every one of them non-negative."""
    n = len(personal_prices)
    solved = [Fraction(seed)]
    for j in range(1, n):
        solved.append(solved[j - 1] - n * personal_prices[(j - 2) % n])
    return solved, seed - min(solved)


def index_of(catalog: ProfileCatalog, positions) -> int:
    """The 1-based catalog index of per-user bundle positions."""
    if len(positions) != catalog.num_users:
        raise ValueError(
            f"profile has {len(positions)} bundles, catalog expects {catalog.num_users}"
        )
    index = 0
    for position in positions:
        index = index * catalog.bundle_count + position
    return index + 1


@functools.cache
def fraction_bundles(quant_levels, num_bands: int, power_budget) -> tuple[tuple[Fraction, ...], ...]:
    """Every bundle as a tuple of `Fraction` powers, lexicographic with the
    levels ascending: grown one band at a time, keeping only partial sums
    within the budget, in `Fraction` arithmetic."""
    levels = [as_fraction(level) for level in quant_levels]
    budget = as_fraction(power_budget)
    grown = [()]
    for _ in range(num_bands):
        grown = [
            bundle + (level,) for bundle in grown for level in levels if sum(bundle) + level <= budget
        ]
    return tuple(grown)


def fraction_index(config: ScenarioConfig, profile) -> int:
    """The 1-based catalog index of a profile of per-user `Fraction`
    bundles: the inverse of `fraction_profile`."""
    bundles = fraction_bundles(config.quant_levels, config.num_bands, config.power_budget)
    return index_of(config.catalog, [bundles.index(tuple(bundle)) for bundle in profile])


def fraction_profile(config: ScenarioConfig, index: int) -> tuple[tuple[Fraction, ...], ...]:
    """The `Fraction` bundles of the profile at a 1-based catalog index:
    the index less one read as a mixed-radix number over `fraction_bundles`,
    user 0 most significant."""
    bundles = fraction_bundles(config.quant_levels, config.num_bands, config.power_budget)
    if not 1 <= index <= len(bundles) ** config.num_users:
        raise ValueError(f"catalog index {index} outside the catalog")
    rest, profile = index - 1, []
    for _ in range(config.num_users):
        rest, position = divmod(rest, len(bundles))
        profile.insert(0, bundles[position])
    return tuple(profile)


# A finite slice of the message space: every proposal in `n_values`, every
# price in `pi_values`.
MessageGrid = namedtuple("MessageGrid", "n_values pi_values")


def standard_grid(size: int, users: int) -> MessageGrid:
    """Proposals -1, 0, every catalog index, and the escape value
    users * (size + 2), which puts the rounded average past the catalog
    against every grid choice of the others; prices 0 to 3 in steps of 1/4."""
    proposals = (-1, *range(size + 1), users * (size + 2))
    return MessageGrid(proposals, tuple(Fraction(k, 4) for k in range(13)))


def grid_deviations(
    user: int, profile: MessageProfile, grid: MessageGrid, config: ScenarioConfig
) -> Iterator[tuple[Message, Fraction]]:
    """Yield (message, utility) over user's grid messages, others held fixed.

    When the price cannot influence the outcome (infeasible average, or no
    proposal mismatch with the next user) the message is yielded once with
    the smallest grid price; any other price gives the identical outcome.
    """
    size = config.catalog.size
    n_users = len(profile)
    after = profile[(user + 1) % n_users]
    after2 = profile[(user + 2) % n_users]
    others_sum = sum(m.proposal for m in profile) - profile[user].proposal
    unit_price = Fraction(after.price - after2.price, n_users)
    credit = (after.proposal - after2.proposal) ** 2 * after.price
    pi_low = grid.pi_values[0]
    utility = utility_of(config, user)
    opt_out_utility = utility(0, Fraction(0))
    for proposal in grid.n_values:
        average = nearest_integer(others_sum + proposal, n_users)
        if not 1 <= average <= size:
            yield Message(proposal, pi_low), opt_out_utility
            continue
        mismatch = (proposal - after.proposal) ** 2
        base_tax = average * unit_price - credit
        if mismatch == 0:
            yield Message(proposal, pi_low), utility(average, base_tax)
            continue
        for price in grid.pi_values:
            value = utility(average, base_tax + mismatch * price)
            yield Message(proposal, price), value


def grid_verify(
    candidate: MessageProfile, grid: MessageGrid, config: ScenarioConfig
) -> tuple[bool, Optional[Deviation]]:
    """(is_ne, best_deviation): no user has a strictly improving unilateral
    grid deviation, and the most profitable one when some user has."""
    allocation, taxes = fraction_outcome(candidate, config.catalog.size)
    best: Optional[Deviation] = None
    for user in range(len(candidate)):
        held = utility_of(config, user)(allocation, taxes[user])
        for message, value in grid_deviations(user, candidate, grid, config):
            gain = value - held
            if gain > 0 and (best is None or gain > best.gain):
                best = Deviation(user, message, gain)
    return best is None, best


def user_best_nonneg_tax(
    candidate: MessageProfile, config: ScenarioConfig
) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(user_best, user_best_nonneg_tax): per user, best on its personal
    price line among all taxes, and among non-negative taxes.

    The alternative-by-alternative loop that the Lindahl certificate used to
    run, evaluating every catalog index at tax index * personal price.  Like
    `fraction_report`, it takes no tax or price from the library.
    """
    allocation, taxes = fraction_outcome(candidate, config.catalog.size)
    best, best_nonneg = [], []
    for user in range(len(candidate)):
        price = personal_price(candidate, user)
        charged = taxes[user]
        ok = allocation != 0 and charged == allocation * price
        ok_nonneg = ok and charged >= 0
        utility = utility_of(config, user)
        held = utility(allocation, charged)
        for alternative in range(1, config.catalog.size + 1):
            value = utility(alternative, alternative * price)
            if value > held:
                ok = False
                if alternative * price >= 0:
                    ok_nonneg = False
        best.append(ok)
        best_nonneg.append(ok_nonneg)
    return tuple(best), tuple(best_nonneg)


def unanimity_scan(price, config: ScenarioConfig) -> list[EquilibriumReport]:
    """Report on every unanimity candidate (k, price, ..., price), k over the catalog.

    Equal prices make every personal price zero, so this finds exactly the
    allocations that are every user's top choice.
    """
    price = as_fraction(price)
    return [
        build_report(tuple(Message(k, price) for _ in range(config.num_users)), config)
        for k in range(1, config.catalog.size + 1)
    ]


def interval_oracle(values) -> tuple[tuple[Optional[Fraction], Fraction], ...]:
    """Every index's price interval, empty ones included, by scanning every
    pair of catalog indices; `price_intervals` keeps the non-empty ones."""
    exact = [Fraction(v) for v in values]
    intervals = []
    for k in range(1, len(exact)):
        slopes = [(exact[j] - exact[k]) / (j - k) for j in range(len(exact)) if j != k]
        right = slopes[k:]
        intervals.append((max(right) if right else None, min(slopes[:k])))
    return tuple(intervals)


def census_oracle(config: ScenarioConfig) -> dict[int, tuple]:
    """Allocation -> per-user price intervals, for every allocation at which
    the intervals admit personal prices summing to zero.

    A user whose utility is not quasi-linear is held to price 0, so it
    admits only its weak top choices.
    """
    per_user = []
    for spec in config.utilities:
        values = exact_values(spec, config)
        if spec.quasi_linear:
            per_user.append(interval_oracle(values))
        else:
            zero = (Fraction(0), Fraction(0))
            per_user.append(tuple(zero if v == max(values) else None for v in values[1:]))
    found = {}
    for allocation, intervals in enumerate(zip(*per_user), start=1):
        if any(iv is None or (iv[0] is not None and iv[0] > iv[1]) for iv in intervals):
            continue
        lowers = [lower for lower, _ in intervals]
        below = None in lowers or sum(lowers) <= 0
        if below and sum(upper for _, upper in intervals) >= 0:
            found[allocation] = intervals
    return found


def dict_price_intervals(scaling: IntegerScaling) -> dict[int, tuple]:
    """{k: (lower, upper)} for every point k >= 1 of the upper concave hull
    of (j, heights[j] / scale), each end the integer slope (rise, run) of a
    hull edge, lower None (minus infinity) at the last index: the dict form
    of `price_intervals`, by the same left-to-right pass."""
    heights, scale = scaling.heights, scaling.scale
    hull = [0]
    for k, height in enumerate(heights[1:], start=1):
        while len(hull) >= 2:
            left, middle = hull[-2], hull[-1]
            rise = (heights[middle] - heights[left]) * (k - left)
            if rise >= (height - heights[left]) * (middle - left):
                break
            hull.pop()
        hull.append(k)
    slopes = [
        (heights[right] - heights[left], (right - left) * scale)
        for left, right in zip(hull, hull[1:])
    ]
    slopes.append(None)
    return {k: (slopes[i], slopes[i - 1]) for i, k in enumerate(hull) if i}


def sign_balances(edges) -> bool:
    """Whether intervals given by integer slope ends admit personal prices
    summing to zero: the upper ends sum to at least 0 and the lower ends to
    at most 0 (or one is minus infinity), each sum's sign from
    cross-multiplied runs."""

    def sum_sign(slopes) -> int:
        rise, run = 0, 1
        for slope_rise, slope_run in slopes:
            rise, run = rise * slope_run + slope_rise * run, run * slope_run
        return rise

    lowers = [lower for lower, _ in edges]
    return sum_sign(upper for _, upper in edges) >= 0 and (None in lowers or sum_sign(lowers) <= 0)


def loop_census(config: ScenarioConfig) -> dict[int, tuple]:
    """Allocation -> per-user `Fraction` intervals for every allocation the
    census keeps, by testing every allocation that every user admits with
    `sign_balances`, in ascending order.  A user whose utility is not
    quasi-linear admits its weak top choices with the interval [0, 0]."""
    zero = ((0, 1), (0, 1))
    per_user = []
    for spec in config.utilities:
        scaling = spec.values(config).scaling
        if spec.quasi_linear:
            per_user.append(dict_price_intervals(scaling))
        else:
            top = max(scaling.heights)
            per_user.append({k: zero for k, h in enumerate(scaling.heights) if k and h == top})
    found = {}
    for allocation in sorted(set(per_user[0]).intersection(*per_user[1:])):
        edges = [user_edges[allocation] for user_edges in per_user]
        if sign_balances(edges):
            found[allocation] = tuple(
                (None if lower is None else Fraction(*lower), Fraction(*upper))
                for lower, upper in edges
            )
    return found


def fraction_utility(spec: UtilitySpec, value: Fraction, tax: Fraction) -> Fraction:
    """V(k) - g(t) in `Fraction` arithmetic, from the value V(k): the tax
    cost g is t for the quasi-linear variants and beta * t**3 for
    `cubic_tax`."""
    return value - (tax if spec.quasi_linear else spec.beta * tax**3)


def fraction_line(spec: UtilitySpec, values, price, credit) -> tuple[int, Fraction]:
    """The best index k >= 1 and its utility on the line of taxes
    k * price - credit, over the `Fraction` values V(0..size); ties resolve
    to the smallest k."""
    best_index, best_value = 1, fraction_utility(spec, values[1], price - credit)
    for index in range(2, len(values)):
        value = fraction_utility(spec, values[index], index * price - credit)
        if value > best_value:
            best_index, best_value = index, value
    return best_index, best_value


def price_line_oracle(user: int, price, credit, config: ScenarioConfig):
    """`price_line_optimum` by evaluating every index's utility on
    `exact_values` with `Fraction` taxes."""
    spec = config.utilities[user]
    return fraction_line(spec, exact_values(spec, config), price, credit)


def fraction_report(candidate: MessageProfile, config: ScenarioConfig) -> EquilibriumReport:
    """`build_report` as it was before it certified on integers: every
    price, tax and utility a `Fraction`, each user's line scanned by
    `fraction_line` on its `exact_values`.  The reply line of user i has
    its personal price and the credit c_i, the next user's mismatch
    penalty; it is scanned again at credit 0 only for a user on its price
    line (tax = allocation * personal price) whose c_i is not 0.  It shares
    no `outcome` or `tax_terms` with the library: its allocation and taxes
    are `fraction_outcome`'s and its prices `personal_price`'s."""
    n = len(candidate)
    total = sum(m.proposal for m in candidate)
    allocation, taxes = fraction_outcome(candidate, config.catalog.size)
    prices = tuple(personal_price(candidate, user) for user in range(n))
    penalties = [
        (message.proposal - candidate[(i + 1) % n].proposal) ** 2 * message.price
        for i, message in enumerate(candidate)
    ]
    best: Optional[Deviation] = None
    rational, user_best = [], []
    for user, spec in enumerate(config.utilities):
        values = exact_values(spec, config)
        credit = penalties[(user + 1) % n]
        index, line_best = fraction_line(spec, values, prices[user], credit)
        held = fraction_utility(spec, values[allocation], taxes[user])
        gain = max(line_best, 0) - held
        if gain > 0 and (best is None or gain > best.gain):
            others = total - candidate[user].proposal
            proposal = -others if line_best < 0 else n * index - others
            best = Deviation(user, Message(proposal, Fraction(0)), gain)
        rational.append(held >= 0)
        ok = allocation != 0 and taxes[user] == allocation * prices[user]
        if ok and credit != 0:
            _, line_best = fraction_line(spec, values, prices[user], Fraction(0))
        user_best.append(ok and line_best <= held)
    vanish = not any(penalties)
    return EquilibriumReport(
        tuple(candidate), allocation, taxes, prices, best, vanish, tuple(rational), tuple(user_best)
    )


def fraction_sir(index: int, user: int, band: int, config: ScenarioConfig) -> Fraction:
    """Signal-to-interference ratio of `user` on `band` under the profile at
    `index`, in `Fraction` arithmetic on the decoded profile's powers:

        gain[user][user][band] * p_user
        -------------------------------------------------
        noise_half_density + sum_{j != user} gain[j][user][band] * p_j

    Undefined for index 0 (nobody transmits under the null allocation).
    """
    powers = [bundle[band] for bundle in fraction_profile(config, index)]
    signal = config.gains[user][user][band] * powers[user]
    interference = config.noise_half_density
    for j, power in enumerate(powers):
        if j != user:
            interference += config.gains[j][user][band] * power
    return signal / interference


def sir_value_oracle(spec: SirLogUtility, config: ScenarioConfig) -> tuple[Fraction, ...]:
    """The values `SirLogUtility.values` builds, by a `Fraction` SIR on
    every index and band, each band's float term summed as `Fraction(term)`."""
    weights = [float(w) for w in spec.weights]
    values = [Fraction(0)]
    for index in range(1, config.catalog.size + 1):
        total = Fraction(0)
        for band, weight in enumerate(weights):
            sir = float(fraction_sir(index, spec.user, band, config))
            total += Fraction(weight * math.log1p(sir))
        values.append(total)
    return tuple(values)


# the grid oracles ask for the same user's values once per candidate
@functools.lru_cache(maxsize=64)
def exact_values(spec: UtilitySpec, config: ScenarioConfig) -> tuple[Fraction, ...]:
    """A user's values V(0..size): a table's from the exact scaling it holds
    since construction, a `sir_log` user's by `sir_value_oracle`, without
    the library's build."""
    if isinstance(spec, SirLogUtility):
        return sir_value_oracle(spec, config)
    scale, heights = spec.scaling
    return tuple(Fraction(height, scale) for height in heights)


def column_sir_ratio(
    config: ScenarioConfig, user: int, band: int, column: Sequence[int]
) -> tuple[int, int]:
    """Integers (signal, interference) whose quotient is the SIR of `user` on
    `band` when every user j transmits at level index column[j]: both sides
    of `fraction_sir`'s ratio times one positive integer."""
    levels, channels = config.integer_channels
    noise, *gains = channels[user][band]
    received = [gain * levels[level] for gain, level in zip(gains, column)]
    signal = received[user]
    return signal, noise + sum(received) - signal


def column_value_oracle(spec: SirLogUtility, config: ScenarioConfig) -> tuple[Fraction, ...]:
    """The values `SirLogUtility.values` builds, by one `column_sir_ratio`
    call per (band, column), each float term as `Fraction(term)`, read off
    by each profile's column code."""
    values = None
    used = range(len(config.integer_channels[0]))
    for band, codes in enumerate(config.band_columns):
        weight = float(spec.weights[band])
        terms = [
            Fraction(weight * math.log1p(signal / interference))
            for signal, interference in (
                column_sir_ratio(config, spec.user, band, column)
                for column in product(used, repeat=config.num_users)
            )
        ]
        band_terms = [terms[code] for code in codes]
        values = band_terms if values is None else [a + b for a, b in zip(values, band_terms)]
    return (Fraction(0), *values)


def integer_scaling_oracle(values) -> tuple[int, tuple[int, ...]]:
    """`integer_scaling` through `Fraction(v)` for every value: (scale, heights)."""
    exact = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in exact))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in exact)


def table_scaling_oracle(values) -> IntegerScaling:
    """A value table's `IntegerScaling` through one `Fraction` per entry:
    `as_fraction` on each, then `integer_scaling`."""
    return integer_scaling([as_fraction(v) for v in values])
