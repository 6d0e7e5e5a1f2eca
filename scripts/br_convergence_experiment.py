#!/usr/bin/env python3
"""How often do random-start best-response dynamics reach a verified NE?

The game comes with no convergence guarantee for any adjustment process, so
this is an empirical census, not an assertion: run K seeded random starts,
count trajectories that converge, that end at a verified NE (checked exactly
over the whole message space), and that end at a unanimity profile, and
histogram the fixed points with the personal prices each one charges.
Starts are drawn from the scenario's message grid.
`br_dynamics` below runs the dynamics on the library's exact `best_response`.
Best response is not how equilibria are found (`spectrumshare find-ne` lists
them all); this script studies the dynamics.
"""

import argparse
import collections
import random
import time
from fractions import Fraction

from spectrumshare import Message, best_response, build_report, outcome
from spectrumshare.scenario import load_scenario


def utility_at(user, profile, config, values):
    """User's exact utility at the outcome of `profile`: the integer `value`
    of its `values` over their `unit`."""
    result = outcome(profile, config.catalog)
    tax = result.taxes[user]
    return Fraction(
        values.value(result.allocation, tax.numerator, tax.denominator),
        values.unit(tax.denominator),
    )


def br_dynamics(start, config, max_rounds=50):
    """Round-robin best responses from `start`: (converged, rounds, profile).

    `converged` means a full round changed nothing.  A user only moves when
    its best reply is strictly better than keeping its message (utilities
    are exact), so every NE is an immediate fixed point instead of drifting
    along utility ties.  Non-convergence after `max_rounds` is a result, not
    an error.  Each reply reads its user's values through
    `config.user_values`, which raises `ConfigError` on catalogs over
    `MAX_VALUED_PROFILES` and holds every `sir_log` user's or none: when
    they do not all fit that bound, as at the 10**6-profile cap, each reply
    builds its user's values again (about 0.2 s each there).
    """
    profile = tuple(start)
    for rounds in range(1, max_rounds + 1):
        changed = False
        for user in range(config.num_users):
            values = config.user_values(user)
            reply = best_response(user, profile, values)
            moved = profile[:user] + (reply,) + profile[user + 1 :]
            held = utility_at(user, profile, config, values)
            if utility_at(user, moved, config, values) > held:
                profile, changed = moved, True
        if not changed:
            return True, rounds, profile
    return False, max_rounds, profile


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="scenarios/desk.json")
    parser.add_argument("--starts", type=int, default=100)
    parser.add_argument("--max-rounds", type=int, default=50)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    config = scenario.config
    size = config.catalog.size
    # Proposals -1, 0, every catalog index, and an escape value that puts the
    # rounded average past the catalog against any grid choice of the others.
    proposals = (-1, *range(size + 1), config.num_users * (size + 2))
    prices = tuple(
        k * scenario.pi_step for k in range(int(scenario.pi_max / scenario.pi_step) + 1)
    )
    seed = scenario.seed if args.seed is None else args.seed
    rng = random.Random(seed)

    converged = 0
    verified_ne = 0
    unanimity = 0
    rounds = []
    fixed_points = collections.Counter()
    personal_prices = {}
    allocations = collections.Counter()
    started = time.perf_counter()
    for _ in range(args.starts):
        start = tuple(
            Message(rng.choice(proposals), rng.choice(prices)) for _ in range(config.num_users)
        )
        done, taken, profile = br_dynamics(start, config, max_rounds=args.max_rounds)
        if not done:
            continue
        converged += 1
        rounds.append(taken)
        if build_report(profile, config).is_ne:
            verified_ne += 1
        if len({m.proposal for m in profile}) == 1:
            unanimity += 1
        key = tuple((m.proposal, str(m.price)) for m in profile)
        fixed_points[key] += 1
        result = outcome(profile, config.catalog)
        prices, _, denominator = result.terms
        personal_prices[key] = [str(Fraction(p, denominator)) for p in prices]
        allocations[result.allocation] += 1
    elapsed = time.perf_counter() - started

    print(f"scenario={args.scenario} seed={seed} starts={args.starts}")
    print(f"converged: {converged}/{args.starts}")
    print(f"verified NE: {verified_ne}/{args.starts}")
    print(f"unanimity fixed points: {unanimity}/{args.starts}")
    if rounds:
        print(f"rounds to converge: min={min(rounds)} mean={sum(rounds)/len(rounds):.1f} "
              f"max={max(rounds)}")
    print(f"elapsed: {elapsed:.1f}s")
    print("allocations reached:")
    for allocation, count in allocations.most_common():
        print(f"  {count:>4}x  profile {allocation}")
    print("fixed points by frequency:")
    for profile, count in fixed_points.most_common(10):
        print(f"  {count:>4}x  {profile}  personal prices {personal_prices[profile]}")


if __name__ == "__main__":
    main()
