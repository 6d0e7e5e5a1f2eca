#!/usr/bin/env python3
"""How often do random-start best-response dynamics reach a verified NE?

The game comes with no convergence guarantee for any adjustment process, so
this is an empirical census, not an assertion: run K seeded random starts,
count trajectories that converge, that end at a verified NE (checked exactly
over the whole message space), and that end at a unanimity profile, and
histogram the fixed points.  Starts are drawn from the scenario's message grid.
Best response is not how equilibria are found (`spectrumshare find-ne` lists
them all); this script studies the dynamics.
"""

import argparse
import collections
import random
import time

from spectrumshare import Message, MessageGrid, br_dynamics, outcome
from spectrumshare.scenario import load_scenario


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="scenarios/desk.json")
    parser.add_argument("--starts", type=int, default=100)
    parser.add_argument("--max-rounds", type=int, default=50)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    config = scenario.config
    grid = MessageGrid.standard(
        config.catalog.size, config.num_users, pi_step=scenario.pi_step, pi_max=scenario.pi_max
    )
    seed = scenario.seed if args.seed is None else args.seed
    rng = random.Random(seed)

    converged = 0
    verified_ne = 0
    unanimity = 0
    rounds = []
    fixed_points = collections.Counter()
    allocations = collections.Counter()
    started = time.perf_counter()
    for _ in range(args.starts):
        start = tuple(
            Message(rng.choice(grid.n_values), rng.choice(grid.pi_values))
            for _ in range(config.num_users)
        )
        result = br_dynamics(start, config, max_rounds=args.max_rounds)
        if not result.converged:
            continue
        converged += 1
        rounds.append(result.rounds)
        if result.verification.is_ne:
            verified_ne += 1
        proposals = {m.proposal for m in result.profile}
        if len(proposals) == 1:
            unanimity += 1
        fixed_points[tuple((m.proposal, str(m.price)) for m in result.profile)] += 1
        allocations[outcome(result.profile, config.catalog).allocation] += 1
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
        print(f"  {count:>4}x  {profile}")


if __name__ == "__main__":
    main()
