"""Equilibrium machinery: the one-pass certificate of a candidate, the
census of every equilibrium allocation, and the two-way bridge between Nash
equilibria of the game and Lindahl allocations.

Every question here reduces to one price-line kernel, `price_line_optimum`:
user i's best catalog index k when its tax is k * p - c.  It rests on one
premise: every utility variant is non-increasing in tax.  Against fixed
others (S the sum of their proposals, p_i = (pi_{i+1} - pi_{i+2}) / N the
personal price, c_i = (n_{i+1} - n_{i+2})^2 * pi_{i+1} the next user's
mismatch penalty, rebated to user i), any message of user i either makes the
rounded average leave the catalog (the opt-out, worth V_i(0, 0)) or lands on
some index k with a tax of at least k * p_i - c_i, which price 0 attains.  So
user i's best reply over the whole message space is either the opt-out
(-S, 0) or (N * k - S, 0) for the best k on the line, and a profile is a
Nash equilibrium (NE) exactly when no user gains from it.  With c_i = 0 the
same kernel is the Lindahl check "best on the personal price line".

`build_report` certifies a candidate in one pass: one outcome, and per user
one reply scan and one held utility, from which it reads the NE verdict and
best deviation, individual rationality, the reduced tax form and the Lindahl
certificate.  Only a user whose tax is on its price line but whose scanned
line carries a credit c_i != 0 is scanned again, at credit 0.

Finding equilibria needs no search.  Every NE gives a Lindahl allocation and
every Lindahl allocation rebuilds into an NE, so `lindahl_census` reads the
equilibrium allocations off per-user intervals of personal prices, whose
ends are integer hull slopes.  It keeps an allocation only when an integer
sign test shows the intervals admit prices summing to zero, and certifies
each survivor with `build_report`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .errors import ContractError, PriceScaleError, PriceSystemError
from .mechanism import (
    Message,
    MessageProfile,
    lindahl_price,
    outcome,
)
from .model import (
    IntegerScaling,
    ProfileCatalog,
    ScenarioConfig,
    as_fraction,
    improves,
    integer_scaling,
    utility_eval,
)


def price_line_optimum(
    user: int, price: Fraction, credit: Fraction, config: ScenarioConfig
) -> tuple[int, Fraction | float]:
    """User's best catalog index k >= 1 when its tax is k * price - credit.

    Returns (k, V_user(k, k * price - credit)); ties resolve to the smallest k.
    Every tax on the line is the integer numerator k * A - C over one
    denominator D.  The spec's `line_heights` ranks the indices from those
    integers: exactly for the rational variants, and for the SIR variant
    with the same floats that `utility_eval` computes.
    """
    spec = config.utilities[user]
    denominator = lcm(price.denominator, credit.denominator)
    slope = price.numerator * (denominator // price.denominator)
    offset = credit.numerator * (denominator // credit.denominator)
    heights = spec.line_heights(config, user, slope, offset, denominator)
    best = heights.index(max(heights[1:]), 1)
    return best, config.value_vectors[user][best] - spec.tax_cost(best * price - credit)


def _reply(user: int, profile: MessageProfile, config: ScenarioConfig):
    """User's best message over the whole message space, the credit c_i of
    the price line scanned, the best utility on that line, and the opt-out
    utility V_i(0, 0); the message is worth the larger of the two utilities.

    The opt-out (-S, 0) is chosen only when strictly better than every
    catalog index; otherwise (N * k - S, 0) puts the average exactly on k.
    """
    n_users = len(profile)
    others_sum = sum(m.proposal for m in profile) - profile[user].proposal
    after = profile[(user + 1) % n_users]
    after2 = profile[(user + 2) % n_users]
    credit = (after.proposal - after2.proposal) ** 2 * after.price
    index, value = price_line_optimum(user, lindahl_price(profile, user), credit, config)
    opt_out = utility_eval(config, user, 0, Fraction(0))
    proposal = -others_sum if opt_out > value else n_users * index - others_sum
    return Message(proposal, Fraction(0)), credit, value, opt_out


class Deviation(namedtuple("Deviation", "user message gain")):
    """A unilateral move and the utility it would gain over the candidate."""

    __slots__ = ()


def best_response(user: int, profile: MessageProfile, config: ScenarioConfig) -> Message:
    """Message maximizing user's utility against the rest of `profile`.

    `profile[user]` is ignored.  The reply has price 0 and a proposal that
    puts the rounded average exactly on the best catalog index (the smallest
    one on ties), or the opt-out proposal when that is strictly better.
    """
    return _reply(user, profile, config)[0]


def mismatch_penalties_vanish(profile: MessageProfile) -> bool:
    """True iff every user's (proposal gap to the next user)^2 * price is zero.

    This holds at every NE: a user facing a positive own penalty could drop
    its price to zero and strictly lower its tax.
    """
    n = len(profile)
    return all(
        (profile[i].proposal - profile[(i + 1) % n].proposal) ** 2 * profile[i].price == 0
        for i in range(n)
    )


class LindahlAllocation(namedtuple("LindahlAllocation", "allocation taxes prices")):
    """Allocation index, tax vector, and personalized price vector."""

    __slots__ = ()

    def __new__(cls, allocation: int, taxes: tuple[Fraction, ...], prices: tuple[Fraction, ...]):
        taxes = tuple(as_fraction(t) for t in taxes)
        prices = tuple(as_fraction(p) for p in prices)
        if len(taxes) != len(prices):
            raise ValueError("taxes and prices must have one entry per user")
        return super().__new__(cls, allocation, taxes, prices)


class LindahlCertificate(
    namedtuple(
        "LindahlCertificate",
        "allocation prices_balance taxes_balance user_best user_best_nonneg_tax",
    )
):
    """A candidate `LindahlAllocation` with its three condition verdicts.

    prices_balance: the personalized prices sum to zero (exact).
    taxes_balance: the taxes sum to zero (exact).
    user_best: per user, (allocation, tax) maximizes utility over every
        catalog profile priced at its personal price line.
    user_best_nonneg_tax: same check with alternatives restricted to
        non-negative taxes, which is `user_best` with a non-negative
        personal price; recorded separately because equilibrium subsidies
        make negative taxes legitimate.
    """

    __slots__ = ()

    @property
    def best_on_price_line(self) -> bool:
        return all(self.user_best)


def lindahl_to_ne(psi: LindahlAllocation, seed_price, catalog: ProfileCatalog) -> MessageProfile:
    """Message profile whose outcome reproduces the Lindahl allocation `psi`.

    Every user proposes the allocation index; the prices solve the cyclic
    system personal_price[i] = (price[i+1] - price[i+2]) / N exactly, seeded
    by price[0] = seed_price.  The system is consistent only when the
    personal prices sum to zero, and seed_price must be large enough to keep
    every solved price non-negative.
    """
    n = len(psi.prices)
    if n != catalog.num_users:
        raise ValueError(f"allocation is for {n} users, catalog expects {catalog.num_users}")
    if not 0 <= psi.allocation <= catalog.size:
        raise ValueError(f"allocation {psi.allocation} outside 0..{catalog.size}")
    if sum(psi.prices, Fraction(0)) != 0:
        raise PriceSystemError(
            f"personal prices must sum to zero, got {sum(psi.prices, Fraction(0))}"
        )
    seed = as_fraction(seed_price)
    solved = [seed]
    for j in range(1, n):
        previous_personal = psi.prices[(j - 2) % n]
        solved.append(solved[j - 1] - n * previous_personal)
    lowest = min(solved)
    if lowest < 0:
        minimum = seed - lowest
        raise PriceScaleError(
            f"seed price {seed} makes a solved price negative; "
            f"the smallest feasible seed price is {minimum}",
            minimum,
        )
    return tuple(Message(psi.allocation, price) for price in solved)


class EquilibriumReport(
    namedtuple(
        "EquilibriumReport",
        "candidate allocation taxes is_ne best_deviation mismatch_penalties_vanish feasible"
        " individual_rationality tax_form_matches lindahl",
    )
):
    """All per-candidate verdicts of one `build_report` pass.

    `best_deviation` is the most profitable unilateral `Deviation`, None
    exactly when `is_ne` holds.  When `is_ne` holds, every structural flag
    below must hold too, and so must every user's best-on-price-line verdict
    in `lindahl`: at an NE the mismatch penalties vanish, so c_i = 0 and the
    NE check and the Lindahl check scan the same line.
    `soundness_violations` lists any that do not (there must never be any).
    """

    __slots__ = ()

    def soundness_violations(self) -> tuple[str, ...]:
        if not self.is_ne:
            return ()
        problems = []
        if not self.mismatch_penalties_vanish:
            problems.append("NE with a non-vanishing mismatch penalty")
        if not self.feasible:
            problems.append("NE with a null allocation")
        if not all(self.individual_rationality):
            problems.append("NE a user would rather opt out of")
        if not self.tax_form_matches:
            problems.append("NE whose taxes break the reduced form")
        if not self.lindahl.prices_balance:
            problems.append("NE whose personal prices do not sum to zero")
        if not self.lindahl.taxes_balance:
            problems.append("NE whose taxes do not sum to zero")
        if not self.lindahl.best_on_price_line:
            problems.append("NE off a user's personal price line optimum")
        return tuple(problems)


def build_report(candidate: MessageProfile, config: ScenarioConfig) -> EquilibriumReport:
    """Certify a candidate in one pass over the users.

    One outcome; per user one `_reply` scan and one held utility.  The reply
    gives the deviation gain (exact over the whole message space; judged by
    `improves`, so exact for rational utilities and with a tolerance for
    float-valued ones), and its opt-out utility gives individual rationality.
    A user is on its price line when its tax is allocation * personal price;
    the Lindahl verdict compares its held utility with the best on that line
    at credit 0, which is the scanned line unless c_i != 0, and only then is
    the line scanned again.  With vanishing mismatch penalties every user
    must be on its line (the reduced tax form); a tax that is not raises
    `ContractError`.
    """
    allocation, taxes = outcome(candidate, config.catalog)
    prices = tuple(lindahl_price(candidate, user) for user in range(len(candidate)))
    vanish = mismatch_penalties_vanish(candidate)
    best: Deviation | None = None
    rational, on_line, user_best = [], [], []
    for user, spec in enumerate(config.utilities):
        message, credit, line_best, opt_out = _reply(user, candidate, config)
        held = utility_eval(config, user, allocation, taxes[user])
        value = max(line_best, opt_out)
        gain = value - held
        if improves(spec, value, held) and (best is None or gain > best.gain):
            best = Deviation(user, message, gain)
        rational.append(not improves(spec, opt_out, held))
        on_line.append(taxes[user] == allocation * prices[user])
        ok = allocation != 0 and on_line[user]
        if ok and credit != 0:
            _, line_best = price_line_optimum(user, prices[user], Fraction(0), config)
        user_best.append(ok and not improves(spec, line_best, held))
    if vanish and not all(on_line):
        reduced = tuple(allocation * price for price in prices)
        raise ContractError(f"reduced taxes {reduced} disagree with the tax rule {taxes}")
    lindahl = LindahlCertificate(
        LindahlAllocation(allocation, taxes, prices),
        sum(prices, Fraction(0)) == 0,
        sum(taxes, Fraction(0)) == 0,
        tuple(user_best),
        tuple(ok and price >= 0 for ok, price in zip(user_best, prices)),
    )
    return EquilibriumReport(
        candidate=tuple(candidate),
        allocation=allocation,
        taxes=taxes,
        is_ne=best is None,
        best_deviation=best,
        mismatch_penalties_vanish=vanish,
        feasible=allocation != 0,
        individual_rationality=tuple(rational),
        tax_form_matches=vanish,
        lindahl=lindahl,
    )


# Personal prices [lower, upper] at which one allocation is a user's best
# point on its price line; lower None stands for minus infinity.
PriceInterval = tuple[Fraction | None, Fraction]
# The exact slope rise / run of one hull edge as integers, run > 0.
Slope = tuple[int, int]


def price_intervals(scaling: IntegerScaling) -> dict[int, tuple[Slope | None, Slope]]:
    """The personal prices p at which catalog index k >= 1 maximizes
    V(j) - j * p over j = 0..size, V = heights / scale, for every k that is
    best at some price, as the integer slopes of the interval's ends.

    Those k are the points of the upper concave hull of (j, V(j)), collinear
    points included; every other index lies strictly below a chord and is
    never best.  k's interval runs from the slope of the hull edge on its
    right (None, minus infinity, at the last index) to the slope of the edge
    on its left, whose left end may be j = 0, which carries individual
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
    return {k: (slopes[i], slopes[i - 1]) for i, k in enumerate(hull) if i}


def _balances(edges: Sequence[tuple[Slope | None, Slope]]) -> bool:
    """Whether intervals given by integer slopes admit personal prices
    summing to zero.  Hull intervals are never empty, so they do exactly when
    the upper ends sum to at least 0 and the lower ends to at most 0 (or one
    is minus infinity); each sum's sign comes from cross-multiplied runs."""

    def sum_sign(slopes) -> int:
        rise, run = 0, 1
        for slope_rise, slope_run in slopes:
            rise, run = rise * slope_run + slope_rise * run, run * slope_run
        return rise

    lowers = [lower for lower, _ in edges]
    return sum_sign(upper for _, upper in edges) >= 0 and (None in lowers or sum_sign(lowers) <= 0)


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


class LindahlCensus(namedtuple("LindahlCensus", "complete allocations_tested equilibria")):
    """Every allocation tested, and the equilibria found among them.

    `complete` holds when every utility is quasi-linear: the entries are
    then exactly the NE allocations of the game.  Otherwise the entries are
    the zero-price equilibria only (see `lindahl_census`).
    """

    __slots__ = ()


def _certified_equilibrium(allocation: int, prices, config: ScenarioConfig) -> EquilibriumReport:
    psi = LindahlAllocation(allocation, tuple(allocation * p for p in prices), prices)
    try:
        candidate = lindahl_to_ne(psi, 0, config.catalog)
    except PriceScaleError as exc:
        candidate = lindahl_to_ne(psi, exc.min_seed_price, config.catalog)
    report = build_report(candidate, config)
    problems = report.soundness_violations() if report.is_ne else ("messages are not an NE",)
    if problems:
        raise ContractError(f"census allocation {allocation}: {'; '.join(problems)}")
    return report


def lindahl_census(config: ScenarioConfig) -> LindahlCensus:
    """Find every equilibrium allocation from per-user price intervals.

    Every NE gives a Lindahl allocation and every Lindahl allocation rebuilds
    into an NE, so with quasi-linear utilities allocation k is an NE
    allocation exactly when every user's `price_intervals` has k and those
    intervals admit personal prices summing to zero.  A user whose utility is
    not quasi-linear contributes the interval [0, 0] where k is its weak top
    choice and rules k out elsewhere; the census is then incomplete: it lists
    the zero-price equilibria and misses any that need that user to face a
    non-zero price.  Allocations that every user admits are tested in
    ascending order by an integer sign test on the interval ends; only those
    that pass get `Fraction` intervals.

    Each entry's messages come from `balanced_prices` and `lindahl_to_ne` at
    the smallest feasible seed price, and are certified by `build_report`.
    An entry that fails certification raises `ContractError`.
    """
    zero = ((0, 1), (0, 1))
    per_user = []
    for spec, values in zip(config.utilities, config.value_vectors):
        if spec.quasi_linear:
            # Built here and dropped after the hull, not read from the cached
            # `config.integer_scalings`: at the profile cap one user's
            # heights take tens of MB.
            per_user.append(price_intervals(integer_scaling(values)))
        else:
            top = max(values)
            per_user.append({k: zero for k in range(1, len(values)) if values[k] == top})
    entries = []
    for allocation in sorted(set(per_user[0]).intersection(*per_user[1:])):
        edges = [user_intervals[allocation] for user_intervals in per_user]
        if _balances(edges):
            intervals = tuple(
                (None if lower is None else Fraction(*lower), Fraction(*upper))
                for lower, upper in edges
            )
            report = _certified_equilibrium(allocation, balanced_prices(intervals), config)
            entries.append(CensusEntry(intervals, report))
    complete = all(spec.quasi_linear for spec in config.utilities)
    return LindahlCensus(complete, config.catalog.size, tuple(entries))
