"""Reference implementation: Nash checks by scanning a finite message grid.

This is the slow path that the exact price-line kernel in
`spectrumshare.equilibrium` replaced.  It tries every grid message of one
user against the others held fixed, evaluating the utility point by point,
so it can only see deviations that land on the grid.  The differential
tests compare the kernel against it.
"""

from fractions import Fraction
from typing import Iterator, Optional

from spectrumshare import Deviation, Message, MessageGrid, NEVerification, outcome
from spectrumshare.mechanism import MessageProfile, lindahl_price, nearest_integer
from spectrumshare.model import ScenarioConfig, utility_eval, utility_tolerance


def grid_deviations(
    user: int, profile: MessageProfile, grid: MessageGrid, config: ScenarioConfig
) -> Iterator[tuple[Message, Fraction | float]]:
    """Yield (message, utility) over user's grid messages, others held fixed.

    When the price cannot influence the outcome (infeasible average, or no
    proposal mismatch with the next user) the message is yielded once with
    the smallest grid price; any other price gives the identical outcome.
    """
    size = config.catalog.size
    n_users = len(profile)
    spec = config.utilities[user]
    after = profile[(user + 1) % n_users]
    after2 = profile[(user + 2) % n_users]
    others_sum = sum(m.proposal for m in profile) - profile[user].proposal
    unit_price = Fraction(after.price - after2.price, n_users)
    credit = (after.proposal - after2.proposal) ** 2 * after.price
    pi_low = grid.pi_values[0]
    opt_out_utility = utility_eval(spec, 0, Fraction(0), config)
    for proposal in grid.n_values:
        average = nearest_integer(others_sum + proposal, n_users)
        if not 1 <= average <= size:
            yield Message(proposal, pi_low), opt_out_utility
            continue
        mismatch = (proposal - after.proposal) ** 2
        base_tax = average * unit_price - credit
        if mismatch == 0:
            yield Message(proposal, pi_low), utility_eval(spec, average, base_tax, config)
            continue
        for price in grid.pi_values:
            value = utility_eval(spec, average, base_tax + mismatch * price, config)
            yield Message(proposal, price), value


def grid_verify(
    candidate: MessageProfile, grid: MessageGrid, config: ScenarioConfig
) -> NEVerification:
    """No user has a strictly improving unilateral grid deviation."""
    base = outcome(candidate, config.catalog)
    best: Optional[Deviation] = None
    for user in range(len(candidate)):
        spec = config.utilities[user]
        slack = utility_tolerance(spec)
        held = utility_eval(spec, base.allocation, base.taxes[user], config)
        for message, value in grid_deviations(user, candidate, grid, config):
            gain = value - held
            if gain > slack and (best is None or gain > best.gain):
                best = Deviation(user, message, gain)
    return NEVerification(best is None, best)


def user_best_nonneg_tax(candidate: MessageProfile, config: ScenarioConfig) -> tuple[bool, ...]:
    """Per user: best on its personal price line among non-negative taxes.

    The alternative-by-alternative loop that `ne_to_lindahl` used to run.
    """
    result = outcome(candidate, config.catalog)
    flags = []
    for user, spec in enumerate(config.utilities):
        slack = utility_tolerance(spec)
        price = lindahl_price(candidate, user)
        charged = result.taxes[user]
        ok = result.allocation != 0 and charged == result.allocation * price and charged >= 0
        held = utility_eval(spec, result.allocation, charged, config)
        for alternative in range(1, config.catalog.size + 1):
            value = utility_eval(spec, alternative, alternative * price, config)
            if value > held + slack and alternative * price >= 0:
                ok = False
        flags.append(ok)
    return tuple(flags)
