"""The allocation game form: messages, outcome rule, and the cyclic tax.

Each user submits a message (proposal, price): an integer catalog index it
proposes, and a non-negative price per unit of profile index it is willing
to pay.  The outcome is the catalog entry nearest to the average proposal
(clipped to 0 when the average falls outside the catalog) plus one tax or
subsidy per user.  The tax of user i only involves its own message and the
messages of the two users after it in the cycle, which is what makes the
budget balance exactly, on and off equilibrium.

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


def rounded_average(proposals: Sequence[int]) -> int:
    """Integer nearest to the exact mean of the proposals."""
    if not proposals:
        raise ValueError("need at least one proposal")
    return nearest_integer(sum(proposals), len(proposals))


def clip_allocation(value: int, catalog_size: int) -> int:
    """Map an integer onto the catalog: itself when valid, else 0."""
    if catalog_size < 1:
        raise ValueError("catalog_size must be at least 1")
    return value if 1 <= value <= catalog_size else 0


def _tax_numerators(
    profile: MessageProfile, average: int, catalog_size: int
) -> tuple[list[int], int]:
    """Every user's tax at the profile's rounded average, as integer numerators
    over one shared denominator n * lcm(price denominators).

    User i pays the allocation charge, plus its own mismatch penalty, minus
    the penalty of user i+1; all zero when the average names no profile.
    """
    n = len(profile)
    if not 1 <= average <= catalog_size:
        return [0] * n, 1
    scale = lcm(*(m.price.denominator for m in profile))
    scaled = [m.price.numerator * (scale // m.price.denominator) for m in profile]
    penalties = [
        n * (message.proposal - profile[(i + 1) % n].proposal) ** 2 * scaled[i]
        for i, message in enumerate(profile)
    ]
    numerators = [
        average * (scaled[(i + 1) % n] - scaled[(i + 2) % n])
        + penalties[i]
        - penalties[(i + 1) % n]
        for i in range(n)
    ]
    return numerators, n * scale


def lindahl_price(profile: MessageProfile, user: int) -> Fraction:
    """Personalized price per unit of allocation index faced by `user`."""
    n = len(profile)
    if not 0 <= user < n:
        raise ValueError(f"user {user} outside 0..{n - 1}")
    return (profile[(user + 1) % n].price - profile[(user + 2) % n].price) / n


class Outcome(namedtuple("Outcome", "allocation taxes")):
    """Allocation index (0 = none) plus the exact tax vector."""

    __slots__ = ()


def outcome(profile: MessageProfile, catalog: ProfileCatalog) -> Outcome:
    """Apply the game form to a full message profile.

    Raises `ContractError` when the taxes do not sum to zero, or when a null
    allocation carries a tax; both are decided on the integer numerators,
    before any `Fraction` is built.
    """
    if len(profile) != catalog.num_users:
        raise ValueError(
            f"profile has {len(profile)} messages, catalog expects {catalog.num_users}"
        )
    average = rounded_average([m.proposal for m in profile])
    numerators, denominator = _tax_numerators(profile, average, catalog.size)
    allocation = clip_allocation(average, catalog.size)
    if sum(numerators) != 0:
        raise ContractError(f"taxes must sum to zero, got {numerators} over {denominator}")
    if allocation == 0 and any(numerators):
        raise ContractError("a null allocation must carry zero taxes")
    return Outcome(
        allocation, tuple(Fraction(numerator, denominator) for numerator in numerators)
    )
