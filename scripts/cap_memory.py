#!/usr/bin/env python3
"""Wall time and peak memory of one command on a scenario at the profile cap.

The scenario has 6 `sir_log` users and 3 bands, Q = {0, 1, 2} and budget 2:
10 bundles and 10**6 profiles, the most that `MAX_VALUED_PROFILES` lets a
command evaluate, and no equilibrium for seeds 1-4.  Channel gains and band
weights are drawn from SEED.  `find-ne` runs the census; `verify` certifies
one profile of messages drawn from SEED.  The command runs once, in this
process, with its output discarded; the script prints its wall seconds and
the process's peak resident set (`ru_maxrss`) in MiB:

    PYTHONPATH=src python scripts/cap_memory.py SEED {find-ne,verify}

Run one process per measurement: `ru_maxrss` never goes down.
"""

import argparse
import contextlib
import json
import os
import random
import resource
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from spectrumshare import cli
from spectrumshare.scenario import load_scenario


def _number(value):
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else str(value)


def cap_document(seed: int, users: int = 6, bands: int = 3) -> dict:
    """A scenario document of `users` `sir_log` users over `bands` bands,
    Q = {0, 1, 2} and budget 2, its gains and weights drawn from `seed`."""
    rng = random.Random(seed)
    direct = (1, Fraction(3, 2), 2)
    cross = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    gains = [
        [
            [_number(rng.choice(direct if tx == rx else cross)) for _ in range(bands)]
            for rx in range(users)
        ]
        for tx in range(users)
    ]
    weights = (Fraction(1, 2), 1, Fraction(3, 2), 2)
    utilities = [
        {"variant": "sir_log", "weights": [_number(rng.choice(weights)) for _ in range(bands)]}
        for _ in range(users)
    ]
    return {
        "num_users": users,
        "num_bands": bands,
        "quant_levels": [0, 1, 2],
        "power_budget": 2,
        "noise_half_density": 1,
        "gains": gains,
        "utilities": utilities,
        "grid": {"pi_step": "1/4", "pi_max": 3},
        "measurement": {"pilot_power": 1, "behaviors": [{"variant": "honest"}] * users},
        "seed": seed,
    }


def measure(document: dict, command: str, seed: int) -> tuple[float, float]:
    """(wall seconds, peak RSS in MiB) of one `command` on `document`; a
    `verify` certifies messages drawn from `seed`."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "cap.json"
        path.write_text(json.dumps(document))
        argv = [command, "--scenario", str(path)]
        if command == "verify":
            rng = random.Random(seed)
            size = load_scenario(path).config.catalog.size
            messages = [
                [rng.randint(1, size), _number(Fraction(rng.randint(0, 12), 4))]
                for _ in range(document["num_users"])
            ]
            argv += ["--messages", json.dumps(messages)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{command} exited {code}")
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seed", type=int)
    parser.add_argument("command", choices=("find-ne", "verify"))
    args = parser.parse_args(argv)
    seconds, mib = measure(cap_document(args.seed), args.command, args.seed)
    print(f"{seconds:.2f} s {mib:.1f} MiB")


if __name__ == "__main__":
    main()
