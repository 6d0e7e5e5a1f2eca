"""Golden CLI output on the committed desk scenario and on three small
scenarios under `tests/golden/` that reach the census branches and the
`sir_log` values the desk does not.

Each case's stdout must match `tests/golden/<case>` byte for byte once the
timing fields are blanked.  To regenerate after an intended output change:
`PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"`.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from spectrumshare.cli import main

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
}
SCENARIOS = {
    "find-ne-mixed-cubic.json": MIXED,
    "find-ne-several-equilibria.json": SEVERAL,
    "find-ne-sir-log.json": SIR_LOG,
    "verify-sir-log-unanimity.json": SIR_LOG,
    "verify-sir-log-mixed.json": SIR_LOG,
}

TIMING = re.compile(r'("timing_seconds": \{\s*"census": )[^\s}]+')


def stdout_of(case: str, workdir: Path) -> bytes:
    psi = workdir / "psi.json"
    psi.write_text(PSI)
    argv = [arg.replace("{psi}", str(psi)) for arg in CASES[case]]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([argv[0], "--scenario", SCENARIOS.get(case, DESK), *argv[1:]])
    assert code == 0, case
    return TIMING.sub(r"\1null", buffer.getvalue()).encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, tmp_path):
    assert stdout_of(case, tmp_path) == (GOLDEN / case).read_bytes()


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            (GOLDEN / case).write_bytes(stdout_of(case, Path(workdir)))
