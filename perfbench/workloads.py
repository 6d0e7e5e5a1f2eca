"""Seeded inputs, command lists and output checks for the benchmark workloads.

A workload is a scenario file plus a "rep": one pass of CLI commands that a
fresh worker process runs.  The benchmark seed fixes the scenario; the seed
and the rep number fix every candidate, search seed and Lindahl allocation
the rep sends.  The program only ever sees the generated scenario files and
the command-line arguments.

Output checks test only facts that do not depend on how an answer is
searched or certified: exit code 0, exactly balanced taxes, the desk
equilibrium allocation, and that constructed equilibria are confirmed.  The
verdict on a random candidate is never checked, and timing fields are
ignored.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

DESK_PEAK = 108
QUANT_LEVELS = (0, 1, 2)
POWER_BUDGET = 2
PI_STEP = Fraction(1, 4)
PI_MAX = Fraction(3)
GRID_PRICES = tuple(k * PI_STEP for k in range(int(PI_MAX / PI_STEP) + 1))
DIRECT_GAINS = (Fraction(1), Fraction(3, 2), Fraction(2))
CROSS_GAINS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
SIR_WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
TABLE_SCALES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
LINDAHL_PRICES = tuple(Fraction(k, 4) for k in range(-3, 4))


def rational(value) -> int | str:
    """Scenario-file form of an exact rational: int when whole, else "p/q"."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else str(value)


def _catalog_size(users: int, bands: int) -> int:
    bundles = sum(1 for b in product(QUANT_LEVELS, repeat=bands) if sum(b) <= POWER_BUDGET)
    return bundles**users


def _scenario_doc(rng: random.Random, users: int, bands: int, utilities: list) -> dict:
    gains = [
        [
            [rational(rng.choice(DIRECT_GAINS if tx == rx else CROSS_GAINS)) for _ in range(bands)]
            for rx in range(users)
        ]
        for tx in range(users)
    ]
    return {
        "num_users": users,
        "num_bands": bands,
        "quant_levels": list(QUANT_LEVELS),
        "power_budget": POWER_BUDGET,
        "noise_half_density": 1,
        "gains": gains,
        "utilities": utilities,
        "grid": {"pi_step": rational(PI_STEP), "pi_max": rational(PI_MAX)},
        # Honest users only: a cheating pair would leave fewer than three
        # players in a reduced game and turn the workload into an error path.
        "measurement": {"pilot_power": 1, "behaviors": [{"variant": "honest"}] * users},
        "seed": rng.randrange(2**32),
    }


def _sir_scenario(rng: random.Random) -> tuple[dict, dict]:
    users, bands = 4, 2
    utilities = [
        {"variant": "sir_log", "weights": [rational(rng.choice(SIR_WEIGHTS)) for _ in range(bands)]}
        for _ in range(users)
    ]
    facts = {"users": users, "size": _catalog_size(users, bands)}
    return _scenario_doc(rng, users, bands, utilities), facts


def _table_scenario(rng: random.Random) -> tuple[dict, dict]:
    users, bands = 3, 3
    size = _catalog_size(users, bands)
    peak = rng.randint(1, size)
    utilities = []
    for _ in range(users):
        # Single-peaked with slope scale >= 1 per index step, so the shared
        # peak stays every user's best point on any price line with |p| < 1.
        scale = rng.choice(TABLE_SCALES)
        values = [0] + [rational(scale * (size + 24 - abs(k - peak))) for k in range(1, size + 1)]
        utilities.append({"variant": "table", "values": values})
    facts = {"users": users, "size": size, "peak": peak}
    return _scenario_doc(rng, users, bands, utilities), facts


def prepare(name: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's scenario into `workdir` and return its plan."""
    rng = random.Random(f"{name}:{seed}")
    if name == "desk-search":
        return {"workload": name, "seed": seed, "size": 216,
                "scenario": str(root / "scenarios" / "desk.json")}
    doc, facts = _sir_scenario(rng) if name == "sir-verify" else _table_scenario(rng)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return {"workload": name, "seed": seed, "scenario": str(path), **facts}


def _walk(doc):
    """Every dict nested anywhere in a JSON document."""
    if isinstance(doc, dict):
        yield doc
        for value in doc.values():
            yield from _walk(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _walk(value)


def taxes_balance(doc) -> bool:
    """Every tax vector in the document sums to exactly zero."""
    return all(
        sum((Fraction(str(t)) for t in d["taxes"]), Fraction(0)) == 0
        for d in _walk(doc)
        if isinstance(d.get("taxes"), list)
    )


def _is_ne(report: dict) -> bool:
    # Accept the plain key as well, for a report that certifies exactly
    # rather than over the grid.
    return report.get("is_ne_on_grid", report.get("is_ne")) is True


def reported_equilibria(doc) -> list[dict]:
    """Reports flagged as equilibria anywhere in a find-ne document."""
    return [d for d in _walk(doc) if "candidate" in d and "allocation" in d and _is_ne(d)]


def _messages(candidate) -> str:
    return json.dumps([[m["proposal"], m["price"]] for m in candidate])


def _unanimity(rng: random.Random, users: int, index: int) -> str:
    price = rational(rng.choice(GRID_PRICES))
    return json.dumps([[index, price]] * users)


def _mixed(rng: random.Random, users: int, size: int) -> str:
    return json.dumps(
        [[rng.randint(1, size), rational(rng.choice(GRID_PRICES))] for _ in range(users)]
    )


def _lindahl_allocation(rng: random.Random, users: int, peak: int) -> tuple[dict, Fraction]:
    """The shared peak with personal prices summing to 0, each |p_i| < 1.

    Returns the allocation and the smallest seed price that keeps the solved
    message prices non-negative, plus one.
    """
    while True:
        prices = [rng.choice(LINDAHL_PRICES) for _ in range(users - 1)]
        last = -sum(prices, Fraction(0))
        if abs(last) < 1:
            prices.append(last)
            break
    solved = [Fraction(0)]
    for j in range(1, users):
        solved.append(solved[-1] - users * prices[(j - 2) % users])
    psi = {
        "allocation": peak,
        "taxes": [rational(peak * p) for p in prices],
        "prices": [rational(p) for p in prices],
    }
    return psi, 1 - min(solved)


def _only_desk_peak(doc) -> bool:
    found = reported_equilibria(doc)
    return bool(found) and all(e["allocation"] == DESK_PEAK for e in found)


def _desk_rep(ctx, plan: dict, rng: random.Random) -> None:
    # The search driver and the deviation scan's Fraction arithmetic do the
    # work; utility evaluation is a table lookup.  The default method keeps
    # the workload valid whatever search find-ne uses.
    doc = ctx.run("find_ne", ["find-ne", *ctx.common, "--seed", str(rng.randrange(2**32))],
                  check=_only_desk_peak)
    if doc is None:
        return
    seen = set()
    for report in reported_equilibria(doc):
        messages = _messages(report["candidate"])
        if messages not in seen:
            seen.add(messages)
            ctx.run("verify", ["verify", *ctx.common, "--messages", messages],
                    check=lambda d: _is_ne(d["report"]))


def _sir_rep(ctx, plan: dict, rng: random.Random) -> None:
    # Utility evaluation dominates: catalog decode plus exact SIR on every
    # call, and floats through the tolerance path.  No search runs.
    users, size = plan["users"], plan["size"]
    ctx.run("verify", ["verify", *ctx.common, "--messages",
                       _unanimity(rng, users, rng.randint(1, size))])
    ctx.run("verify", ["verify", *ctx.common, "--messages", _mixed(rng, users, size)])


def _table_rep(ctx, plan: dict, rng: random.Random) -> None:
    # The equilibrium layer's own time dominates: few full-length scans over
    # a catalog 4.6x the desk one, a 1000-alternative Lindahl scan, and the
    # largest scenario file.  Utility evaluation is a lookup.
    users, size, peak = plan["users"], plan["size"], plan["peak"]
    ctx.run("verify", ["verify", *ctx.common, "--messages", _unanimity(rng, users, peak)],
            check=lambda d: _is_ne(d["report"]))
    ctx.run("verify", ["verify", *ctx.common, "--messages", _mixed(rng, users, size)])
    psi, pi1 = _lindahl_allocation(rng, users, peak)
    psi_path = ctx.workdir / f"psi-{ctx.rep}.json"
    psi_path.write_text(json.dumps(psi))
    ctx.run(
        "roundtrip",
        ["lindahl-roundtrip", *ctx.common, "--psi", str(psi_path), "--pi1", str(rational(pi1))],
        check=lambda d: all(d["roundtrip"].values()) and _is_ne(d),
    )


REPS = {"desk-search": _desk_rep, "sir-verify": _sir_rep, "table-certify": _table_rep}
