"""The runnable scripts under scripts/: the best-response dynamics, the
experiment built on them, and the desk scenario writer."""

import random
import re
from fractions import Fraction

from spectrumshare import Message, build_report
from spectrumshare.scenario import write_scenario

from conftest import SCRIPTS, load_script, small_scenario

experiment = load_script("br_convergence_experiment")
br_dynamics = experiment.br_dynamics


def unanimity(index, price, num_users=3):
    return tuple(Message(index, Fraction(price)) for _ in range(num_users))


class TestBrDynamics:
    def test_verified_ne_is_immediate_fixed_point(self, small):
        start = unanimity(4, 1)
        converged, rounds, profile = br_dynamics(start, small)
        assert converged
        assert rounds == 1
        assert profile == start
        assert build_report(profile, small).is_ne

    def test_bounded_termination_reports_non_convergence(self, small):
        start = unanimity(8, 0)
        converged, rounds, profile = br_dynamics(start, small, max_rounds=1)
        assert (converged, rounds) == (False, 1)
        # the first round already reached the fixed point; the second confirms it
        assert br_dynamics(start, small) == (True, 2, profile)

    def test_fixed_points_pass_verify(self, small, small_grid):
        rng = random.Random(11)
        for _ in range(12):
            start = tuple(
                Message(rng.choice(small_grid.n_values), rng.choice(small_grid.pi_values))
                for _ in range(3)
            )
            converged, _, profile = br_dynamics(start, small, max_rounds=30)
            if converged:
                assert build_report(profile, small).is_ne


def test_br_convergence_experiment_summary(capsys, tmp_path):
    path = tmp_path / "small.json"
    write_scenario(small_scenario(), path)
    experiment.main(["--scenario", str(path), "--starts", "3", "--seed", "5"])
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
        # each fixed point with the personal prices it charges
        assert re.search(r"^ +\d+x  \(.*\)  personal prices \['.*', '.*', '.*'\]$", out, re.M)


def test_make_desk_scenario_reproduces_the_committed_file(capsys, tmp_path):
    out = tmp_path / "desk.json"
    load_script("make_desk_scenario").main(["--out", str(out)])
    assert f"wrote {out} (catalog size 216)" in capsys.readouterr().out
    assert out.read_bytes() == (SCRIPTS.parent / "scenarios" / "desk.json").read_bytes()


def test_cap_memory_measures_a_small_document():
    cap_memory = load_script("cap_memory")
    document = cap_memory.cap_document(seed=1, users=3, bands=1)
    assert document["num_users"] == 3 and len(document["gains"][0][0]) == 1
    for command in ("find-ne", "verify"):
        seconds, mib = cap_memory.measure(document, command, seed=1)
        assert seconds > 0 and mib > 0
