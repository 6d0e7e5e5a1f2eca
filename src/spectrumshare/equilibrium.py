"""Equilibrium machinery: the one-pass certificate of a candidate, the
census of every equilibrium allocation, and the two-way bridge between Nash
equilibria of the game and Lindahl allocations.

Every question here reduces to one price-line kernel, `price_line_optimum`:
user i's best catalog index k when its tax is k * p - c.  It rests on one
premise: every utility variant is non-increasing in tax.  Against fixed
others (S the sum of their proposals, p_i = (pi_{i+1} - pi_{i+2}) / N the
personal price, c_i = (n_{i+1} - n_{i+2})^2 * pi_{i+1} the next user's
mismatch penalty, rebated to user i; both read off `mechanism.tax_terms`),
any message of user i either makes the rounded average leave the catalog
(the opt-out: no allocation, no tax, worth exactly 0 in every variant) or
lands on some index k with a tax of at least k * p_i - c_i, which price 0
attains.  So user i's best reply over the whole message space is either the
opt-out (-S, 0) or (N * k - S, 0) for the best k on the line, and a profile
is a Nash equilibrium (NE) exactly when no user gains from it.  With c_i = 0
the same kernel is the Lindahl check "best on the personal price line".

The kernel works on integers: the line is the integer numerators
k * A - C of `tax_terms` over their one denominator D, and it returns the
best index and its value, the integer numerator `value` over the `unit` of
the user's values (`config.user_values`).  `build_report` certifies a
candidate in one pass on those integers: one outcome, which carries its
`tax_terms`, and per user its values, one reply scan and one held utility,
from which it reads the NE verdict and best deviation, individual
rationality, the reduced tax form and the Lindahl verdicts.  Only a user
whose tax is on its price line but whose scanned line carries a credit
c_i != 0 is scanned again, at credit 0, on the same values.  Which values
the config holds, and the bound on evaluating them, are
`ScenarioConfig.user_values`' to decide.

Finding equilibria needs no search.  Every NE gives a Lindahl allocation and
every Lindahl allocation rebuilds into an NE, so `lindahl_census` reads the
equilibrium allocations off per-user intervals of personal prices, whose
ends are integer hull slopes.  It keeps an allocation only when an integer
sign test shows the intervals admit prices summing to zero, and certifies
each survivor with `build_report`.  It need not test every allocation on
every user's hull: each hull is concave, so its slopes never rise from left
to right, and for two such allocations k < k' every user's upper end at k'
is at most its lower end at k.  Both sums of ends then fall from left to
right, the upper test passes on a prefix and the lower test on a suffix,
and two bisections find the balanced run with O(N log C) sign tests.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import ConfigError, ContractError
from .mechanism import Message, MessageProfile, message_prices, outcome, tax_terms
from .model import (
    CubicTaxUtility,
    IntegerScaling,
    ProfileCatalog,
    ScenarioConfig,
    TableUtility,
    as_fraction,
)


def price_line_optimum(
    values: TableUtility | CubicTaxUtility, slope: int, offset: int, denominator: int
) -> tuple[int, int]:
    """A user's best catalog index k >= 1 when its tax is the integer
    numerator k * slope - offset over `denominator`, given its `values`
    (`config.user_values(user)`).

    Returns (k, V(k, tax)) with the value as the integer numerator of the
    values' `value` over their `unit`; ties resolve to the smallest k.
    Their `line_heights` ranks the indices exactly on integers.
    """
    heights = values.line_heights(slope, offset, denominator)
    best = heights.index(max(heights[1:]), 1)
    return best, values.value(best, best * slope - offset, denominator)


def _reply(user: int, profile: MessageProfile, index: int, value: int) -> Message:
    """User's best message over the whole message space, given the best
    `index` on its reply line and its `value` there: the opt-out (-S, 0),
    worth 0, only when strictly better, otherwise (N * index - S, 0), which
    puts the average exactly on `index`.

    The reply line is the user's price line, its price the personal price
    and its credit c_i the next user's mismatch penalty (`tax_terms`)."""
    others_sum = sum(m.proposal for m in profile) - profile[user].proposal
    proposal = -others_sum if value < 0 else len(profile) * index - others_sum
    return Message(proposal, Fraction(0))


class Deviation(namedtuple("Deviation", "user message gain")):
    """A unilateral move and the utility it would gain over the candidate."""

    __slots__ = ()


def best_response(
    user: int, profile: MessageProfile, values: TableUtility | CubicTaxUtility
) -> Message:
    """Message maximizing user's utility against the rest of `profile`, on
    its `values` (`config.user_values(user)`).

    `profile[user]` is ignored.  The reply has price 0 and a proposal that
    puts the rounded average exactly on the best catalog index (the smallest
    one on ties), or the opt-out proposal when that is strictly better.
    """
    prices, penalties, denominator = tax_terms(profile)
    credit = penalties[(user + 1) % len(profile)]
    line = price_line_optimum(values, prices[user], credit, denominator)
    return _reply(user, profile, *line)


class LindahlAllocation(namedtuple("LindahlAllocation", "allocation taxes prices")):
    """Allocation index, tax vector, and personalized price vector."""

    __slots__ = ()

    def __new__(cls, allocation: int, taxes: tuple[Fraction, ...], prices: tuple[Fraction, ...]):
        taxes = tuple(as_fraction(t) for t in taxes)
        prices = tuple(as_fraction(p) for p in prices)
        if len(taxes) != len(prices):
            raise ValueError("taxes and prices must have one entry per user")
        return super().__new__(cls, allocation, taxes, prices)


def lindahl_to_ne(psi: LindahlAllocation, seed_price, catalog: ProfileCatalog) -> MessageProfile:
    """Message profile whose outcome reproduces the Lindahl allocation `psi`.

    Every user proposes the allocation index; the prices are the least
    solution `message_prices` of the cyclic price system, all raised by one
    constant so that price[0] = seed_price.  Personal prices that do not sum
    to zero raise `ValueError`; a seed price below the least one, which
    would make a price negative, raises `ConfigError` naming that least one.
    """
    n = len(psi.prices)
    if n != catalog.num_users:
        raise ValueError(f"allocation is for {n} users, catalog expects {catalog.num_users}")
    if not 0 <= psi.allocation <= catalog.size:
        raise ValueError(f"allocation {psi.allocation} outside 0..{catalog.size}")
    least = message_prices(psi.prices)
    seed = as_fraction(seed_price)
    if seed < least[0]:
        raise ConfigError(
            f"seed price {seed} makes a solved price negative; "
            f"the smallest feasible seed price is {least[0]}"
        )
    return tuple(Message(psi.allocation, price + seed - least[0]) for price in least)


class EquilibriumReport(
    namedtuple(
        "EquilibriumReport",
        "candidate allocation taxes prices best_deviation mismatch_penalties_vanish"
        " individual_rationality user_best",
    )
):
    """All per-candidate verdicts of one `build_report` pass.

    `prices` are the personal prices.  `best_deviation` is the most
    profitable unilateral `Deviation`, None exactly when the candidate is an
    NE.  `user_best` holds, per user, whether (allocation, tax) maximizes
    utility over every catalog profile priced at its personal price line.
    When `is_ne` holds, every structural flag must hold too, and so must
    every user's `user_best`: at an NE the mismatch penalties vanish, so
    c_i = 0 and the NE check and the Lindahl check scan the same line.
    `soundness_violations` lists any that do not (there must never be any).
    """

    __slots__ = ()

    @property
    def is_ne(self) -> bool:
        return self.best_deviation is None

    @property
    def feasible(self) -> bool:
        return self.allocation != 0

    @property
    def prices_balance(self) -> bool:
        return sum(self.prices) == 0

    @property
    def taxes_balance(self) -> bool:
        return sum(self.taxes) == 0

    @property
    def user_best_nonneg_tax(self) -> tuple[bool, ...]:
        """`user_best` with alternatives restricted to non-negative taxes,
        which is `user_best` with a non-negative personal price; kept apart
        from `user_best` because equilibrium subsidies make negative taxes
        legitimate."""
        return tuple(ok and price >= 0 for ok, price in zip(self.user_best, self.prices))

    def soundness_violations(self) -> tuple[str, ...]:
        if not self.is_ne:
            return ()
        # the reduced tax form is the vanishing-penalty verdict: `build_report`
        # raises when the penalties vanish and a tax is off its line
        checks = (
            (self.mismatch_penalties_vanish, "NE with a non-vanishing mismatch penalty"),
            (self.feasible, "NE with a null allocation"),
            (all(self.individual_rationality), "NE a user would rather opt out of"),
            (self.prices_balance, "NE whose personal prices do not sum to zero"),
            (self.taxes_balance, "NE whose taxes do not sum to zero"),
            (all(self.user_best), "NE off a user's personal price line optimum"),
        )
        return tuple(problem for holds, problem in checks if not holds)


def build_report(candidate: MessageProfile, config: ScenarioConfig) -> EquilibriumReport:
    """Certify a candidate in one pass over the users, on integers.

    One outcome, whose `tax_terms` give the denominator D every tax and
    price line shares; per user its values (`config.user_values`), one reply
    scan and one held utility, integer numerators over the values' `unit`.
    The reply gives the deviation gain (exact over the whole message space;
    gains over different units are compared by cross-multiplying); the
    opt-out is worth 0, so individual rationality is a held utility of at
    least 0.  A user is on its price line when the allocation is 0 or
    P_i = P_{i+1}, its own mismatch penalty and the next user's; the Lindahl
    verdict compares its held utility with the best on that line at credit
    0, which is the scanned line unless c_i = P_{i+1} != 0, and only then is
    the line scanned again, on the same values.  With vanishing penalties
    every tax must be allocation * personal price (the reduced tax form);
    one that is not raises `ContractError`.  `Fraction`s are built only for
    the report's prices, taxes and best deviation's gain.  Catalogs over
    `MAX_VALUED_PROFILES` raise `ConfigError` (`config.user_values`).
    """
    allocation, taxes, terms = outcome(candidate, config.catalog)
    price_numerators, penalties, denominator = terms
    n_users = len(candidate)
    vanish = not any(penalties)
    best = None  # (gain, unit, user, index, line value) of the best deviation
    rational, user_best = [], []
    for user in range(n_users):
        values = config.user_values(user)
        slope, credit = price_numerators[user], penalties[(user + 1) % n_users]
        tax = taxes[user].numerator * (denominator // taxes[user].denominator)
        if vanish and tax != allocation * slope:
            reduced = tuple(Fraction(allocation * p, denominator) for p in price_numerators)
            raise ContractError(f"reduced taxes {reduced} disagree with the tax rule {taxes}")
        index, line_best = price_line_optimum(values, slope, credit, denominator)
        held = values.value(allocation, tax, denominator)
        gain, unit = max(line_best, 0) - held, values.unit(denominator)
        if gain > 0 and (best is None or gain * best[1] > best[0] * unit):
            best = (gain, unit, user, index, line_best)
        rational.append(held >= 0)
        ok = allocation != 0 and penalties[user] == credit
        if ok and credit:
            _, line_best = price_line_optimum(values, slope, 0, denominator)
        user_best.append(ok and line_best <= held)
    if best is not None:
        gain, unit, user, index, line_best = best
        best = Deviation(user, _reply(user, candidate, index, line_best), Fraction(gain, unit))
    prices = tuple(Fraction(price, denominator) for price in price_numerators)
    return EquilibriumReport(
        tuple(candidate), allocation, taxes, prices, best, vanish, tuple(rational), tuple(user_best)
    )


# Personal prices [lower, upper] at which one allocation is a user's best
# point on its price line; lower None stands for minus infinity.
PriceInterval = tuple[Fraction | None, Fraction]
# The exact slope rise / run of one hull edge as integers, run > 0.
Slope = tuple[int, int]


def price_intervals(scaling: IntegerScaling) -> tuple[list[int], list[Slope | None]]:
    """The personal prices p at which catalog index k >= 1 maximizes
    V(j) - j * p over j = 0..size, V = heights / scale, for every k that is
    best at some price: those k ascending, and the integer slopes of the
    hull edges that bound their intervals.

    Those k are the points of the upper concave hull of (j, V(j)), collinear
    points included; every other index lies strictly below a chord and is
    never best.  The k at position n of the first list has the interval
    [slopes[n + 1], slopes[n]]: from the slope of the hull edge on its right
    (None, minus infinity, at the last index) to the slope of the edge on
    its left, whose left end may be j = 0, which carries individual
    rationality.  An edge from l to r has slope
    (heights[r] - heights[l], (r - l) * scale).  One left-to-right pass over
    the integer heights builds the hull.
    """
    heights, scale = scaling.heights, scaling.scale
    hull = [0]
    for k, height in enumerate(heights[1:], start=1):
        # Pop the last vertex only while it lies strictly below the chord
        # from the vertex before it to k, so collinear vertices stay.
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
    return hull[1:], slopes


def _sum_sign(slopes) -> int:
    """An integer with the sign of a sum of integer slopes: the numerator of
    the sum over the product of the runs, which are positive."""
    rise, run = 0, 1
    for slope_rise, slope_run in slopes:
        rise, run = rise * slope_run + slope_rise * run, run * slope_run
    return rise


def balanced_prices(
    intervals: Sequence[PriceInterval | None],
) -> tuple[Fraction, ...] | None:
    """A personal price vector summing to zero inside every interval, or None.

    None when some interval is missing or empty, or when no such vector
    exists (sum of lowers > 0 or sum of uppers < 0).  The rule picks one
    vector deterministically: every user starts at its upper bound, then
    users in index order are lowered, each as far as its lower bound allows,
    until the prices sum to zero.
    """
    if any(iv is None or (iv[0] is not None and iv[0] > iv[1]) for iv in intervals):
        return None
    excess = sum((upper for _, upper in intervals), Fraction(0))
    if excess < 0:
        return None
    prices = []
    for lower, upper in intervals:
        cut = excess if lower is None else min(excess, upper - lower)
        prices.append(upper - cut)
        excess -= cut
    return tuple(prices) if excess == 0 else None


class CensusEntry(namedtuple("CensusEntry", "price_intervals report")):
    """One equilibrium allocation of the census.

    `price_intervals` holds each user's interval at this allocation;
    `report` certifies the messages rebuilt from one balanced price vector.
    """

    __slots__ = ()


class LindahlCensus(namedtuple("LindahlCensus", "complete equilibria")):
    """The equilibria found among every catalog allocation.

    `complete` holds when every utility is quasi-linear: the entries are
    then exactly the NE allocations of the game.  Otherwise the entries are
    the zero-price equilibria only (see `lindahl_census`).
    """

    __slots__ = ()


def _hull(values: TableUtility | CubicTaxUtility) -> tuple[list[int], list[Slope | None]]:
    """A user's allocations and interval ends: `price_intervals` of
    quasi-linear values; otherwise its weak top choices, each with [0, 0]."""
    if values.quasi_linear:
        return price_intervals(values.scaling)
    heights = values.scaling.heights
    top = max(heights)
    tops = [k for k in range(1, len(heights)) if heights[k] == top]
    return tops, [(0, 1)] * (len(tops) + 1)


def _balanced_intervals(config: ScenarioConfig):
    """(allocation, per-user `Fraction` intervals) for every allocation that
    every user admits and whose intervals admit prices summing to zero, in
    ascending order.  See `lindahl_census` for the two bisections."""
    hulls = [_hull(config.user_values(user)) for user in range(config.num_users)]
    candidates = sorted(set(hulls[0][0]).intersection(*(vertices for vertices, _ in hulls[1:])))

    def edges(allocation: int) -> list[tuple[Slope | None, Slope]]:
        ends = []
        for vertices, slopes in hulls:
            n = bisect_left(vertices, allocation)
            ends.append((slopes[n + 1], slopes[n]))
        return ends

    def lowers_fit(allocation: int) -> bool:
        lowers = [lower for lower, _ in edges(allocation)]
        return None in lowers or _sum_sign(lowers) <= 0

    def uppers_short(allocation: int) -> bool:
        return _sum_sign(upper for _, upper in edges(allocation)) < 0

    start = bisect_left(candidates, True, key=lowers_fit)
    stop = bisect_left(candidates, True, lo=start, key=uppers_short)
    for allocation in candidates[start:stop]:
        yield allocation, tuple(
            (None if lower is None else Fraction(*lower), Fraction(*upper))
            for lower, upper in edges(allocation)
        )


def lindahl_census(config: ScenarioConfig) -> LindahlCensus:
    """Find every equilibrium allocation from per-user price intervals.

    Every NE gives a Lindahl allocation and every Lindahl allocation rebuilds
    into an NE, so with quasi-linear utilities allocation k is an NE
    allocation exactly when every user's `price_intervals` has k and those
    intervals [L_i(k), U_i(k)] admit personal prices summing to zero, which,
    as hull intervals are never empty, is sum U_i >= 0 and (some L_i is
    minus infinity or sum L_i <= 0).  A user
    whose utility is not quasi-linear contributes the interval [0, 0] where
    k is its weak top choice and rules k out elsewhere; the census is then
    incomplete: it lists the zero-price equilibria and misses any that need
    that user to face a non-zero price.

    The allocations every user admits need not be tested one by one.  Each
    user's hull is concave, so its edge slopes never rise from left to
    right: for two such allocations k < k', the edge left of k' starts at or
    after k, so U_i(k') <= L_i(k) <= U_i(k), and [0, 0] keeps that too.  So
    sum U_i and sum L_i both fall over the ascending allocations, and
    L_i = minus infinity only at user i's last hull point, after which no
    allocation is admitted.  The upper test therefore passes on a prefix and
    the lower test on a suffix, and the balanced allocations are one run
    found by two bisections: O(N log C) integer sign tests for C admitted
    allocations, each sum's sign from cross-multiplied runs, a user's edges
    found by bisecting its hull points.  Only the allocations in the run get
    `Fraction` intervals.

    Each entry's messages propose the allocation at the least message prices
    (`message_prices`) of one zero-sum vector from `balanced_prices`, and
    are certified by `build_report`.  An entry that fails certification
    raises `ContractError`.
    """
    entries = []
    for allocation, intervals in _balanced_intervals(config):
        prices = message_prices(balanced_prices(intervals))
        report = build_report(tuple(Message(allocation, price) for price in prices), config)
        problems = report.soundness_violations() if report.is_ne else ("messages are not an NE",)
        if problems:
            raise ContractError(f"census allocation {allocation}: {'; '.join(problems)}")
        entries.append(CensusEntry(intervals, report))
    complete = all(spec.quasi_linear for spec in config.utilities)
    return LindahlCensus(complete, tuple(entries))
