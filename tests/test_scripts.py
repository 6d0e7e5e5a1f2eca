"""Smoke tests for the runnable experiments under scripts/."""

import importlib.util
import re
from pathlib import Path

from spectrumshare.scenario import write_scenario

from conftest import small_scenario

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_br_convergence_experiment_summary(capsys, tmp_path):
    path = tmp_path / "small.json"
    write_scenario(small_scenario(), path)
    script = load_script("br_convergence_experiment")
    script.main(["--scenario", str(path), "--starts", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert f"scenario={path} seed=5 starts=3" in out
    converged = int(re.search(r"^converged: (\d+)/3$", out, re.M).group(1))
    # a fixed point of exact best responses is an equilibrium
    assert re.search(rf"^verified NE: {converged}/3$", out, re.M)
    assert re.search(r"^unanimity fixed points: \d+/3$", out, re.M)
    assert "allocations reached:" in out
    assert "fixed points by frequency:" in out
    if converged:
        assert re.search(r"^rounds to converge: min=\d+ mean=[\d.]+ max=\d+$", out, re.M)
        # the shared peak of the small scenario is its only equilibrium allocation
        assert re.search(rf"^ +{converged}x  profile 4$", out, re.M)
