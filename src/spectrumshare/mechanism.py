"""The allocation game form: messages, outcome rule, the cyclic tax, and the
cyclic personal price in both directions (`tax_terms`, `message_prices`).

Each user submits a message (proposal, price): an integer catalog index it
proposes, and a non-negative price per unit of profile index it is willing
to pay.  The outcome is the catalog entry nearest to the average proposal
(0 when the average falls outside the catalog) plus one tax or subsidy per
user.  The tax of user i only involves its own message and the messages of
the two users after it in the cycle, which is what makes the budget balance
exactly, on and off equilibrium.  `tax_terms` states its two terms, the
personal price and the mismatch penalty, once for every caller.

Everything here is exact rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .errors import ContractError
from .model import ProfileCatalog, as_fraction


class Message(namedtuple("Message", "proposal price")):
    """One user's message: a proposed catalog index and a unit price."""

    __slots__ = ()

    def __new__(cls, proposal: int, price: Fraction):
        if not isinstance(proposal, int) or isinstance(proposal, bool):
            raise ValueError(f"proposal must be an integer, got {proposal!r}")
        price = as_fraction(price)
        if price < 0:
            raise ValueError(f"price must be non-negative, got {price}")
        return super().__new__(cls, proposal, price)


MessageProfile = tuple[Message, ...]


def nearest_integer(total: int, count: int) -> int:
    """Integer nearest to total/count; exact halves round away from zero."""
    quotient, remainder = divmod(total, count)
    doubled = 2 * remainder
    if doubled > count:
        return quotient + 1
    if doubled < count:
        return quotient
    return quotient + 1 if quotient >= 0 else quotient


def tax_terms(profile: MessageProfile) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Every user's personal price and own mismatch penalty, as integer
    numerators over one shared denominator N * lcm(price denominators).

    The personal price of user i is p_i = (pi_{i+1} - pi_{i+2}) / N, and its
    penalty is P_i = (n_i - n_{i+1})^2 * pi_i.  At an allocation k that names
    a profile user i pays k * p_i + P_i - P_{i+1}, which sums to zero.
    """
    n = len(profile)
    scale = lcm(*(m.price.denominator for m in profile))
    scaled = [m.price.numerator * (scale // m.price.denominator) for m in profile]
    prices = tuple(scaled[(i + 1) % n] - scaled[(i + 2) % n] for i in range(n))
    penalties = tuple(
        n * (message.proposal - profile[(i + 1) % n].proposal) ** 2 * scaled[i]
        for i, message in enumerate(profile)
    )
    return prices, penalties, n * scale


def message_prices(personal_prices: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The inverse of `tax_terms`' personal prices: the least non-negative
    message prices whose personal prices are `personal_prices`, the lowest
    of them 0.

    The cyclic system p_i = (pi_{i+1} - pi_{i+2}) / N has a solution only
    when the p_i sum to zero (else `ValueError`), and then its solutions
    differ by one constant; pi_0 = 0 gives one, which is then shifted.
    """
    total = sum(personal_prices, Fraction(0))
    if total != 0:
        raise ValueError(f"personal prices must sum to zero, got {total}")
    n = len(personal_prices)
    prices = [Fraction(0)]
    for j in range(1, n):
        prices.append(prices[-1] - n * personal_prices[(j - 2) % n])
    lowest = min(prices)
    return tuple(price - lowest for price in prices)


class Outcome(namedtuple("Outcome", "allocation taxes terms")):
    """Allocation index (0 = none), exact tax vector, and its `tax_terms`."""

    __slots__ = ()


def outcome(profile: MessageProfile, catalog: ProfileCatalog) -> Outcome:
    """Apply the game form to a full message profile.

    The allocation is the rounded average proposal when it names a catalog
    profile, else 0 with every tax 0; the profile's `tax_terms` are returned
    either way.  Raises `ContractError` when the taxes do not sum to zero,
    decided on the integer numerators before any `Fraction` is built.
    """
    n = len(profile)
    if n != catalog.num_users:
        raise ValueError(f"profile has {n} messages, catalog expects {catalog.num_users}")
    terms = prices, penalties, denominator = tax_terms(profile)
    average = nearest_integer(sum(m.proposal for m in profile), n)
    if not 1 <= average <= catalog.size:
        return Outcome(0, (Fraction(0),) * n, terms)
    numerators = [average * prices[i] + penalties[i] - penalties[(i + 1) % n] for i in range(n)]
    if sum(numerators) != 0:
        raise ContractError(f"taxes must sum to zero, got {numerators} over {denominator}")
    return Outcome(average, tuple(Fraction(t, denominator) for t in numerators), terms)
