#!/usr/bin/env python3
"""Write the canonical desk scenario (3 users, 2 bands, 216 profiles) to JSON.

The test suite builds the same scenario from `desk_config` and
`desk_scenario` here, and checks that this script reproduces
`scenarios/desk.json` byte for byte.
"""

import argparse
from fractions import Fraction

from spectrumshare.measurement import Honest
from spectrumshare.model import ScenarioConfig, TableUtility
from spectrumshare.scenario import Scenario, write_scenario

DESK_PEAK_INDEX = 108


def single_peak_table(size: int, peak: int, scale) -> TableUtility:
    """Value table with a unique maximum at `peak`, strictly decreasing away.

    Entry 0 is the null allocation, worth nothing.  The slope never reaches
    zero, so every profile one step closer to the peak is strictly better.
    """
    scale = Fraction(scale)
    if not 1 <= peak <= size:
        raise ValueError(f"peak {peak} outside 1..{size}")
    values = [Fraction(0)]
    for index in range(1, size + 1):
        values.append(scale * (size + 24 - abs(index - peak)))
    return TableUtility(tuple(values))


def desk_gains(num_users: int, num_bands: int):
    """Deterministic strictly positive gain tensor with unit direct gains."""
    gains = []
    for tx in range(num_users):
        plane = []
        for rx in range(num_users):
            row = []
            for band in range(num_bands):
                if tx == rx:
                    row.append(Fraction(1))
                else:
                    row.append(Fraction(1, 2 + (tx + 2 * rx + band) % 3))
            plane.append(tuple(row))
        gains.append(tuple(plane))
    return tuple(gains)


def desk_config() -> ScenarioConfig:
    """Three users, two bands, levels {0,1,2}, budget 2: a 216-profile catalog.

    All three value tables share the peak profile, with different scales, so
    the game has a clean equilibrium target to find and cross-check.
    """
    num_users, num_bands = 3, 2
    config = ScenarioConfig(
        num_users=num_users,
        num_bands=num_bands,
        quant_levels=(Fraction(0), Fraction(1), Fraction(2)),
        power_budget=Fraction(2),
        noise_half_density=Fraction(1),
        gains=desk_gains(num_users, num_bands),
        utilities=tuple(
            single_peak_table(216, DESK_PEAK_INDEX, scale)
            for scale in (Fraction(1), Fraction(3, 2), Fraction(2))
        ),
    )
    assert config.catalog.size == 216
    return config


def desk_scenario(seed: int = 20260810) -> Scenario:
    config = desk_config()
    return Scenario(
        config=config,
        pi_step=Fraction(1, 4),
        pi_max=Fraction(3),
        pilot_power=Fraction(1),
        behaviors=tuple(Honest() for _ in range(config.num_users)),
        seed=seed,
        digest="",
    )


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
