"""The golden CLI cases, without pytest: each case's argv, its scenario,
and its stdout with the timing fields blanked.

Each case is replayed twice: once right after `load_scenario`'s memo is
cleared, so that the scenario is parsed, and once more on the memo's copy,
which must build no `sir_log` user's values: the memo's config holds them.
`tests/test_golden.py` checks them under pytest.  Run this file to replay
every case on any interpreter, pytest or not:

    PYTHONPATH=src python tests/golden_cases.py

It prints every case whose stdout, on either replay, differs from
`tests/golden/<case>` and exits 1 if any does.
"""

import contextlib
import io
import re
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from spectrumshare.cli import main
from spectrumshare.model import SirLogUtility
from spectrumshare.scenario import _scenario_of

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DESK = str(ROOT / "scenarios" / "desk.json")
# three table users and one cubic_tax user: an incomplete census whose
# equilibrium gives the cubic_tax user the interval [0, 0]
MIXED = str(GOLDEN / "mixed-cubic.scenario.json")
# three table users with equilibria at 6, 7 and 8; at the last index every
# lower bound is minus infinity (null)
SEVERAL = str(GOLDEN / "several-equilibria.scenario.json")
# three sir_log users over two bands, each with one band of zero weight:
# zero-price equilibria at 39 and 40
SIR_LOG = str(GOLDEN / "sir-log.scenario.json")
PSI = '{"allocation": 108, "taxes": [-108, -108, 216], "prices": [-1, -1, 2]}\n'

# case -> argv after the scenario (the desk unless the case names another);
# "{psi}" stands for a file holding PSI.
CASES = {
    "find-ne.json": ["find-ne", "--format", "json"],
    "find-ne.txt": ["find-ne"],
    # the desk equilibrium: personal prices -1, -1, 2 at the peak 108
    "verify-ne.json": ["verify", "--format", "json", "--messages", "[[108,6],[108,0],[108,3]]"],
    # user 2 deviates and gains 778/3
    "verify-deviation.json": ["verify", "--format", "json", "--messages", "[[1,1],[2,2],[3,3]]"],
    "lindahl-roundtrip.json": ["lindahl-roundtrip", "--format", "json", "--pi1", "6", "--psi", "{psi}"],
    "find-ne-mixed-cubic.json": ["find-ne", "--format", "json"],
    "find-ne-several-equilibria.json": ["find-ne", "--format", "json"],
    "find-ne-sir-log.json": ["find-ne", "--format", "json"],
    # every user proposes 64; user 0 gains by opting out
    "verify-sir-log-unanimity.json": [
        "verify", "--format", "json", "--messages", '[[64, "1/2"], [64, 1], [64, "1/4"]]'
    ],
    "verify-sir-log-mixed.json": [
        "verify", "--format", "json", "--messages", '[[9, "1/20"], [30, "1/10"], [40, "1/30"]]'
    ],
    # every command in every format it renders differently
    "enumerate.txt": ["enumerate"],
    "enumerate.json": ["enumerate", "--format", "json"],
    "enumerate-table.json": ["enumerate", "--table", "--format", "json"],
    "enumerate-table.txt": ["enumerate", "--table"],
    "enumerate-table.csv": ["enumerate", "--table", "--format", "csv"],
    "outcome.txt": ["outcome", "--messages", "[[1,1],[2,2],[3,3]]"],
    "outcome.json": ["outcome", "--format", "json", "--messages", "[[1,1],[2,2],[3,3]]"],
    "verify-deviation.txt": ["verify", "--messages", "[[1,1],[2,2],[3,3]]"],
    "lindahl-roundtrip.txt": ["lindahl-roundtrip", "--pi1", "6", "--psi", "{psi}"],
    "find-ne.csv": ["find-ne", "--format", "csv"],
    "measure.txt": ["measure"],
    "measure.json": ["measure", "--format", "json"],
}
SCENARIOS = {
    "find-ne-mixed-cubic.json": MIXED,
    "find-ne-several-equilibria.json": SEVERAL,
    "find-ne-sir-log.json": SIR_LOG,
    "verify-sir-log-unanimity.json": SIR_LOG,
    "verify-sir-log-mixed.json": SIR_LOG,
}

# the census time, in the JSON document and in the table
TIMING = re.compile(r'("timing_seconds": \{\s*"census": |\ntiming_seconds:\n  census: )[^\s}]+')


def stdout_of(case: str, workdir: Path, *extra: str) -> bytes:
    """Stdout of one case, with `extra` arguments appended, timing blanked."""
    psi = workdir / "psi.json"
    psi.write_text(PSI)
    argv = [arg.replace("{psi}", str(psi)) for arg in CASES[case]]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([argv[0], "--scenario", SCENARIOS.get(case, DESK), *argv[1:], *extra])
    assert code == 0, case
    return blank_timing(buffer.getvalue())


Build = namedtuple("Build", "user held values")


@contextlib.contextmanager
def counted_builds():
    """Every `SirLogUtility.values` build run in the block, in order: its
    user, how many users' values its config held just before it, and the
    values it built."""
    builds, build = [], SirLogUtility.values

    def counted(spec, config):
        held = len(vars(config).get("held_values", ()))
        builds.append(Build(spec.user, held, build(spec, config)))
        return builds[-1].values

    SirLogUtility.values = counted
    try:
        yield builds
    finally:
        SirLogUtility.values = build


def replays(case: str, workdir: Path) -> list[bytes]:
    """Stdout of one case on a memo miss, the memo cleared first, then on a
    memo hit, which builds no values."""
    _scenario_of.cache_clear()
    miss = stdout_of(case, workdir)
    hits = _scenario_of.cache_info().hits
    with counted_builds() as builds:
        hit = stdout_of(case, workdir)
    assert _scenario_of.cache_info().hits == hits + 1, case
    assert builds == [], case
    return [miss, hit]


def blank_timing(text: str) -> bytes:
    return TIMING.sub(r"\1null", text).encode()


def differing_cases() -> list[str]:
    """Every case whose stdout, on a memo miss or a memo hit, is not its
    golden file byte for byte, or whose command fails."""
    differ = []
    with tempfile.TemporaryDirectory() as workdir:
        for case in sorted(CASES):
            try:
                golden = (GOLDEN / case).read_bytes()
                same = replays(case, Path(workdir)) == [golden, golden]
            except AssertionError:
                same = False
            if not same:
                differ.append(case)
    return differ


if __name__ == "__main__":
    differ = differing_cases()
    for case in differ:
        print(f"differs: {case}")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} cases match on Python {sys.version.split()[0]}")
    sys.exit(1 if differ else 0)
