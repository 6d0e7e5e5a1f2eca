"""Golden CLI output on the committed desk scenario.

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
PSI = '{"allocation": 108, "taxes": [-108, -108, 216], "prices": [-1, -1, 2]}\n'

# case -> argv after the scenario; "{psi}" stands for a file holding PSI.
CASES = {
    "find-ne.json": ["find-ne", "--format", "json"],
    "find-ne.txt": ["find-ne"],
    # the desk equilibrium: personal prices -1, -1, 2 at the peak 108
    "verify-ne.json": ["verify", "--format", "json", "--messages", "[[108,6],[108,0],[108,3]]"],
    # user 2 deviates and gains 778/3
    "verify-deviation.json": ["verify", "--format", "json", "--messages", "[[1,1],[2,2],[3,3]]"],
    "lindahl-roundtrip.json": ["lindahl-roundtrip", "--format", "json", "--pi1", "6", "--psi", "{psi}"],
}

TIMING = re.compile(r'("timing_seconds": \{\s*"census": )[^\s}]+')


def stdout_of(case: str, workdir: Path) -> bytes:
    psi = workdir / "psi.json"
    psi.write_text(PSI)
    argv = [arg.replace("{psi}", str(psi)) for arg in CASES[case]]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([argv[0], "--scenario", DESK, *argv[1:]])
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
