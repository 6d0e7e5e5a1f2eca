#!/usr/bin/env python3
"""Benchmark: seeded spectrumshare workloads through the CLI, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-search --seed 1 --seconds 30 --trace 0

Set-up is the wall time of `spectrumshare enumerate` on the workload's
scenario in fresh processes, sampled before and after the reps.  Reps of
the workload run until --seconds have passed, each rep in a fresh
single-threaded worker process.  With --trace 1 every rep runs twice on the
same inputs, once plain and once with spans around the layers' public
functions, and per-layer metrics are reported instead of end-to-end ones.
Every command's output is checked.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_BATCH = 5
CHILD_TIMEOUT_S = 150

# End-to-end metrics of the result line (name, unit): every workload has
# them, and they are steady enough to bound.  find_ne_s, verify_s,
# roundtrip_s and fail_ratio are printed only: the first and last exist on
# one workload each, fail_ratio is 0 when nothing fails, and verify_s on
# desk-search comes from a few short bursts per run and spreads too widely.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# Per-layer metrics of the result line: no time among them is structurally
# zero on any workload.
PER_LAYER = (
    ("scenario.load_scenario.busy_s", "s"),
    ("model.build_catalog.busy_s", "s"),
    ("model.utility_eval.calls", "count"),
    ("model.utility_eval.busy_s", "s"),
    ("model.sir.calls", "count"),
    ("model.profile_of.calls", "count"),
    ("mechanism.outcome.calls", "count"),
    ("mechanism.outcome.busy_s", "s"),
    ("mechanism.tax.calls", "count"),
    ("equilibrium.verify_ne.calls", "count"),
    ("equilibrium.verify_ne.self_s", "s"),
    ("equilibrium.utility_evals_per_verify", "evals/verify"),
    ("equilibrium.unanimity_scan.calls", "count"),
    ("equilibrium.unanimity.ne_ratio", "1"),
    ("equilibrium.br_dynamics.calls", "count"),
    ("equilibrium.br.rounds", "count"),
    ("equilibrium.br.converged_ratio", "1"),
    ("equilibrium.ne_to_lindahl.calls", "count"),
    ("equilibrium.ne_to_lindahl.self_s", "s"),
    ("equilibrium.lindahl_to_ne.calls", "count"),
    ("equilibrium.build_report.self_s", "s"),
    ("measurement.run_measurement.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)
# Busy times of functions that only some workloads call: printed, but kept
# out of the result line because they read exactly 0 on the others.
PER_LAYER_PRINTED = (
    ("model.sir.busy_s", "s"),
    ("equilibrium.unanimity_scan.busy_s", "s"),
    ("equilibrium.br_dynamics.busy_s", "s"),
    ("equilibrium.lindahl_to_ne.busy_s", "s"),
    ("measurement.run_measurement.busy_s", "s"),
)


class BenchmarkError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def _median(values):
    return statistics.median(values) if values else None


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _setup_samples(plan: dict, env: dict, records: list, warm: bool) -> list[float]:
    """Fresh-process wall times of `enumerate`; a warm-up run is not kept."""
    argv = [sys.executable, "-m", "spectrumshare", "enumerate",
            "--scenario", plan["scenario"], "--format", "json"]
    samples = []
    for attempt in range(SETUP_BATCH + warm):
        started = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - started
        ok = proc.returncode == 0
        if ok:
            try:
                ok = json.loads(proc.stdout)["profile_count"] == plan["size"]
            except (ValueError, KeyError):
                ok = False
        if not ok:
            print(f"enumerate failed ({proc.returncode}): {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
        records.append({"kind": "enumerate", "seconds": seconds, "ok": ok})
        if ok and attempt >= warm:
            samples.append(seconds)
    return samples


def _run_rep(plan_path: Path, rep: int, env: dict, spans: Path | None) -> dict:
    result_path = plan_path.parent / f"result-{rep}-{'traced' if spans else 'plain'}.json"
    argv = [sys.executable, str(WORKER), str(plan_path), str(rep), str(result_path)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for rep {rep} exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def _layer_values(traced: dict, plain: dict) -> dict:
    """Per-layer metrics of one traced rep (absent functions read 0)."""
    functions = traced["trace"]["functions"]
    counters = traced["trace"]["counters"]

    def stat(name, key):
        entry = functions.get(name)
        return 0 if entry is None else entry[key]

    values = {}
    for name, _ in PER_LAYER + PER_LAYER_PRINTED:
        function, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s") and function in functions:
            values[name] = stat(function, key)
    values.update({
        "equilibrium.utility_evals_per_verify": _ratio(
            counters["utility_evals_in_verify"], stat("equilibrium.verify_ne", "calls")),
        "equilibrium.unanimity.ne_ratio": _ratio(
            counters.get("unanimity.ne", 0), counters.get("unanimity.tested", 0)),
        "equilibrium.br.rounds": counters.get("br.rounds", 0),
        "equilibrium.br.converged_ratio": _ratio(
            counters.get("br.converged", 0), stat("equilibrium.br_dynamics", "calls")),
        "cli.self_s": stat("cli.main", "self_s"),
        "trace.overhead_s": traced["run_s"] - plain["run_s"],
    })
    return values


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _print_row(name: str, value, unit: str, note: str) -> None:
    shown = "n/a" if value is None else f"{value:.6g} {unit}"
    print(f"  {name:<38} {shown:<22} {note}")


def run(args) -> dict:
    if not (ROOT / "src" / "spectrumshare" / "cli.py").is_file():
        raise BenchmarkError(f"no spectrumshare sources under {ROOT / 'src'}")
    if args.workload == "desk-search" and not (ROOT / "scenarios" / "desk.json").is_file():
        raise BenchmarkError("scenarios/desk.json is missing")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    records: list[dict] = []
    plain_reps: list[dict] = []
    layer_reps: list[dict] = []
    absent: set[str] = set()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        plan = workloads.prepare(args.workload, args.seed, ROOT, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        # Set-up is sampled in two batches, before and after the reps, so
        # its median spans the run instead of one moment of it.
        setup = [] if args.trace else _setup_samples(plan, env, records, warm=True)
        spans = ROOT / ".perfbench-out" / f"spans-{args.workload}"
        if args.trace:
            spans.parent.mkdir(exist_ok=True)
        started = time.perf_counter()
        rep = 0
        while rep == 0 or time.perf_counter() - started < args.seconds:
            if args.trace:
                # Alternate which side runs first so drift cancels in the overhead.
                first_traced = rep % 2 == 1
                first = _run_rep(plan_path, rep, env, spans if first_traced else None)
                second = _run_rep(plan_path, rep, env, None if first_traced else spans)
                traced, plain = (first, second) if first_traced else (second, first)
                records.extend(traced["commands"])
                absent.update(n for n, e in traced["trace"]["functions"].items() if e is None)
                layer_reps.append(_layer_values(traced, plain))
            else:
                plain = _run_rep(plan_path, rep, env, None)
            records.extend(plain["commands"])
            plain_reps.append(plain)
            rep += 1
        if not args.trace:
            setup += _setup_samples(plan, env, records, warm=False)

    # A failed command did not do the work it times, so timings cover only
    # passing commands and reps; the failures are counted below.
    passing_reps = [r for r in plain_reps if all(c["ok"] for c in r["commands"])]
    commands = [c for r in plain_reps for c in r["commands"] if c["ok"]]
    times = {kind: [c["seconds"] for c in commands if c["kind"] == kind]
             for kind in ("find_ne", "verify", "roundtrip")}
    e2e = {
        "setup_s": (_median(setup), "s", f"median of {len(setup)} fresh processes"
                    if setup else "not measured in traced runs"),
        "run_s": (_median([r["run_s"] for r in passing_reps]), "s",
                  f"median of {len(passing_reps)} passing reps of {len(plain_reps)}"),
        "find_ne_s": (_median(times["find_ne"]), "s", f"median of {len(times['find_ne'])} calls"),
        "verify_s": (_median(times["verify"]), "s", f"median of {len(times['verify'])} calls"),
        "roundtrip_s": (_median(times["roundtrip"]), "s",
                        f"median of {len(times['roundtrip'])} calls"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain_reps]), "MB",
                        f"median of {len(plain_reps)} worker processes"),
    }
    failed = sum(1 for c in records if not c["ok"])
    e2e["fail_ratio"] = (_ratio(failed, len(records)), "1", f"{failed} of {len(records)} commands")

    layers = {name: _median([v[name] for v in layer_reps]) for name, _ in PER_LAYER + PER_LAYER_PRINTED}
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {len(plain_reps)} reps  {mode}")
    for name, (value, unit, note) in e2e.items():
        _print_row(name, value, unit, note)
    if args.trace:
        for name, unit in PER_LAYER + PER_LAYER_PRINTED:
            _print_row(name, layers[name], unit, f"median of {len(layer_reps)} traced reps")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "src_lines": _src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": {name: note for name, (_, _, note) in e2e.items()},
        "absent_functions": sorted(absent),
    }
    print("meta " + json.dumps(meta))

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
