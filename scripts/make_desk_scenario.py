#!/usr/bin/env python3
"""Write the canonical desk scenario (3 users, 2 bands, 216 profiles) to JSON."""

import argparse

from spectrumshare.presets import desk_scenario
from spectrumshare.scenario import write_scenario


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="scenarios/desk.json")
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args(argv)
    scenario = desk_scenario(seed=args.seed)
    write_scenario(scenario, args.out)
    print(f"wrote {args.out} (catalog size {scenario.config.catalog.size})")


if __name__ == "__main__":
    main()
