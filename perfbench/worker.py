"""One workload rep in a fresh process: run its CLI commands and time them.

Usage: python3 perfbench/worker.py PLAN_JSON REP RESULT_JSON [--spans PREFIX]

Every command goes through `spectrumshare.cli.main(argv)` in this process,
with its standard output captured and parsed.  The result file holds each
command's wall time and check verdict, the rep's wall time and the peak
resident memory.  With --spans the rep runs traced: per-layer statistics
are added to the result and the raw spans are written to PREFIX.bin/.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer


class Rep:
    """Runs CLI commands for one rep and records what each did."""

    def __init__(self, cli, plan: dict, rep: int, workdir: Path):
        self.cli = cli
        self.rep = rep
        self.workdir = workdir
        self.common = ["--scenario", plan["scenario"], "--format", "json"]
        self.records: list[dict] = []

    def run(self, kind: str, argv: list[str], check=None):
        """Run one command; return its JSON document, or None if it failed."""
        out = io.StringIO()
        err = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - started
        problem = None
        doc = None
        if code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[-500:]}"
        else:
            try:
                doc = json.loads(out.getvalue())
                if not workloads.taxes_balance(doc):
                    problem = "a tax vector does not sum to zero"
                elif check is not None and not check(doc):
                    problem = "output check failed"
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            print(f"{kind} {' '.join(argv)}: {problem}", file=sys.stderr)
        self.records.append({"kind": kind, "seconds": seconds, "ok": problem is None})
        return doc if problem is None else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", type=Path)
    parser.add_argument("rep", type=int)
    parser.add_argument("result", type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    plan = json.loads(args.plan.read_text())
    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        tracer.install()
    from spectrumshare import cli

    rep = Rep(cli, plan, args.rep, args.plan.parent)
    rng = random.Random(f"{plan['workload']}:{plan['seed']}:{args.rep}")
    started = time.perf_counter()
    workloads.REPS[plan["workload"]](rep, plan, rng)
    run_s = time.perf_counter() - started

    result = {
        "run_s": run_s,
        "commands": rep.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
