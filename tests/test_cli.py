"""End-to-end command checks: output content, formats, exit codes."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrumshare import cli
from spectrumshare.cli import build_parser, main
from spectrumshare.measurement import Honest, ReportCheat
from spectrumshare.equilibrium import build_report
from spectrumshare.scenario import (
    _scenario_of,
    load_scenario,
    parse_scenario,
    read_messages,
    scenario_to_jsonable,
    write_scenario,
)

from spectrumshare import (
    CubicTaxUtility,
    Deviation,
    Message,
    ProfileCatalog,
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
)
from spectrumshare.model import MAX_DIGITS, MAX_VALUED_PROFILES, count_bundles
from conftest import (
    desk_scenario,
    load_script,
    peak_table,
    peak_values,
    small_config,
    small_scenario,
    uniform_gains,
)
from grid_oracle import sir_value_oracle

ROOT = Path(__file__).resolve().parents[1]
COMMITTED_DESK = ROOT / "scenarios" / "desk.json"


@pytest.fixture(scope="module")
def small_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenarios") / "small.json"
    write_scenario(small_scenario(), path)
    return str(path)


@pytest.fixture(scope="module")
def desk_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenarios") / "desk.json"
    write_scenario(desk_scenario(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# Every flag of every command, near misses of them, and values that argparse
# reads in its own ways: empty, dash-led, signed, padded, underscored,
# @-prefixed, an invalid choice, and one holding a space
_FLAGS = ["--" + name for name in cli._OPTIONS]
_NOISE_FLAGS = ["--bogus", "-h", "--", "--scen", "--format=json"]
_VALUES = ["", "-", "-1", "-x", "+3", " 5", "1_0", "@m.json", "yaml", "a b", "json", "csv", "7"]


@st.composite
def _argvs(draw):
    """A command (or a bogus one), then most of its own flags in any order,
    each with a value that is often one the flag accepts, and now and then
    one or two stray tokens spliced in anywhere."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus", "-h"]))
    names = cli._COMMANDS[command][2].split() if command in cli._COMMANDS else []
    argv = [command]
    for name in draw(st.permutations(names)):
        accepted = cli._OPTIONS[name].get("choices", ["7"])
        if draw(st.integers(0, 4)):
            argv += ["--" + name, draw(st.sampled_from(_VALUES) | st.sampled_from(accepted))]
    strays = st.lists(st.sampled_from(_FLAGS + _NOISE_FLAGS + _VALUES), min_size=1, max_size=2)
    for stray in draw(strays) if draw(st.integers(0, 2)) == 0 else []:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
@example(["verify", "--scenario", "s.json", "--messages", "[]"])
@example(["find-ne", "--seed", " 5", "--scenario", "a b", "--format", "csv"])
@example(["enumerate", "--out", "", "--scenario", "@m.json"])
@example(["lindahl-roundtrip", "--pi1", "+3", "--psi", "p", "--scenario", "s"])
def test_plain_args_match_argparse(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        plain = cli._plain_args(argv)
    assert out.getvalue() == err.getvalue() == ""
    if plain is not None:
        assert vars(plain) == vars(build_parser().parse_args(argv))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _WorkloadRep:
    """Runs one benchmark rep through `main`, recording every argv it sends."""

    def __init__(self, plan, workdir):
        self.common = ["--scenario", plan["scenario"], "--format", "json"]
        self.workdir, self.rep, self.sent = workdir, 0, []

    def run(self, kind, argv, check=None):
        self.sent.append((kind, argv))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        document = json.loads(out.getvalue())
        assert check is None or check(document)
        return document


@pytest.mark.parametrize(
    "workload, kinds",
    [
        ("desk-search", {"find_ne", "verify"}),
        ("sir-verify", {"verify"}),
        ("table-certify", {"verify", "roundtrip"}),
    ],
)
def test_benchmark_argvs_are_plain(tmp_path, workload, kinds):
    workloads = _load_workloads()
    plan = workloads.prepare(workload, 7, ROOT, tmp_path)
    rep = _WorkloadRep(plan, tmp_path)
    workloads.REPS[workload](rep, plan, random.Random(f"{workload}:7:0"))
    assert {kind for kind, _ in rep.sent} == kinds
    for _, argv in rep.sent:
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(build_parser().parse_args(argv))


def test_closed_stdout_exits_141_quietly(tmp_path):
    # 9,261 table lines cannot all fit the pipe, so writing them outlasts
    # the reader, which closes the pipe after two lines
    size = 21**3
    config = ScenarioConfig(
        num_users=3,
        num_bands=1,
        quant_levels=range(21),
        power_budget=20,
        noise_half_density=1,
        gains=uniform_gains(3, 1),
        utilities=tuple(TableUtility([0] + [1] * size) for _ in range(3)),
    )
    path = tmp_path / "long-table.json"
    write_scenario(small_scenario(config), path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "spectrumshare", "enumerate", "--scenario", str(path), "--table"]
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as process:
        assert process.stdout.readline() == "command: enumerate\n"
        process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read()
        code = process.wait(timeout=60)
    assert (code, err) == (141, "")


def test_plain_command_never_imports_argparse():
    """The gain of the plain path: a plain argv runs without argparse, and
    help still comes from argparse.  A command that prints no CSV never
    imports `csv` either."""
    script = f"""
import contextlib, io, sys
from spectrumshare.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--scenario", {str(COMMITTED_DESK)!r}, "--format", "json",
                 "--messages", "[[108,6],[108,0],[108,3]]"])
assert code == 0 and "argparse" not in sys.modules and "csv" not in sys.modules, code
main(["verify", "--help"])
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: spectrumshare verify")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--messages", "[[4,1],[4,1],[4,1]]"],
        ["find-ne"],
        ["lindahl-roundtrip", "--psi", "{psi}"],
    ],
    ids=["verify", "find-ne", "lindahl-roundtrip"],
)
def test_json_builds_no_table_or_csv_view(capsys, small_path, tmp_path, monkeypatch, argv):
    from spectrumshare import cli

    def explode(*args):
        raise AssertionError("a table or CSV view was built for --format json")

    def explode_when_iterated(*args):
        yield explode()

    # _compact and _text spell every value of the table and CSV views, and
    # the JSON path never calls them; the two views are generators, so they
    # may be called but not iterated
    monkeypatch.setattr(cli, "_compact", explode)
    monkeypatch.setattr(cli, "_text", explode)
    monkeypatch.setattr(cli, "_table_lines", explode_when_iterated)
    monkeypatch.setattr(cli, "_csv_rows", explode_when_iterated)
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"allocation": 4, "taxes": [0, 0, 0], "prices": [0, 0, 0]}))
    argv = [arg.replace("{psi}", str(psi)) for arg in argv]
    code, out, err = run(capsys, argv[0], "--scenario", small_path, *argv[1:], "--format", "json")
    assert code == 0, err
    assert json.loads(out)["command"] == argv[0]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_out_dumps_the_document_once(capsys, small_path, tmp_path, monkeypatch, fmt):
    from spectrumshare import cli

    calls = []
    writer = cli.json_text
    monkeypatch.setattr(cli, "json_text", lambda *a: calls.append(a) or writer(*a))
    out_path = tmp_path / "out.json"
    argv = ["find-ne", "--scenario", small_path, "--format", fmt, "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert len(calls) == 1
    if fmt == "json":
        assert out_path.read_text() == out


def test_unwritable_out_names_it_and_prints_nothing(capsys, small_path, tmp_path):
    out_path = tmp_path / "missing" / "out.json"
    argv = ["find-ne", "--scenario", small_path, "--format", "json", "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --out: ")
    assert not out_path.parent.exists()


class TestEnumerate:
    def test_summary(self, capsys, desk_path):
        code, out, _ = run(capsys, "enumerate", "--scenario", desk_path)
        assert code == 0
        assert "\nbundle_count: 6\n" in out
        assert "\nprofile_count: 216\n" in out

    def test_json_format(self, capsys, small_path):
        code, out, _ = run(capsys, "enumerate", "--scenario", small_path, "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["bundle_count"] == 2
        assert document["profile_count"] == 8

    def test_full_table(self, capsys, small_path):
        code, out, _ = run(capsys, "enumerate", "--scenario", small_path, "--table")
        assert code == 0
        rows = out.split("\nprofiles:\n")[1].splitlines()
        assert rows[0].split() == ["index", "bundles"]
        assert [int(row.split()[0]) for row in rows[1:]] == list(range(1, 9))

    def test_csv_table(self, capsys, small_path):
        code, out, _ = run(
            capsys, "enumerate", "--scenario", small_path, "--table", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,")
        assert len(lines) == 9

    def test_zero_level_catalog(self, capsys, tmp_path):
        config = ScenarioConfig(
            num_users=3,
            num_bands=1,
            quant_levels=(Fraction(0),),
            power_budget=Fraction(1),
            noise_half_density=Fraction(1),
            gains=uniform_gains(3, 1),
            utilities=tuple(peak_table(1, 1) for _ in range(3)),
        )
        path = tmp_path / "lone.json"
        write_scenario(small_scenario(config), path)
        code, out, _ = run(capsys, "enumerate", "--scenario", str(path))
        assert code == 0
        assert "\nbundle_count: 1\nprofile_count: 1\n" in out

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_users": 3, "mystery_key": 1}))
        code, _, err = run(capsys, "enumerate", "--scenario", str(path))
        assert code == 2
        assert "mystery_key" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "enumerate", "--scenario", str(tmp_path / "nope.json"))
        assert code == 2

    def test_forty_bands_enumerate_fast(self, capsys, tmp_path):
        # 41 bundles fit a budget of one level-1 band out of 40; the catalog
        # is built without walking the 2^40 level vectors
        document = scenario_to_jsonable(small_scenario())
        document["num_bands"] = 40
        document["gains"] = [[[1] * 40 for _ in range(3)] for _ in range(3)]
        document["utilities"] = [{"variant": "sir_log", "weights": [1] * 40}] * 3
        path = tmp_path / "forty-bands.json"
        path.write_text(json.dumps(document))
        started = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--scenario", str(path))
        elapsed = time.perf_counter() - started
        assert code == 0, err
        assert "\nbundle_count: 41\nprofile_count: 68921\n" in out
        assert elapsed < 1, f"enumerate took {elapsed:.1f} s"

    def test_eighteen_bands_are_counted_not_built(self, capsys, tmp_path, monkeypatch):
        # 2^18 bundles of levels [0, 1] fit a budget of 18, and 3 users give
        # 2^54 profiles: both are counted, and no bundle is built
        from spectrumshare import model

        def never(*args):
            raise AssertionError("no bundle may be built")

        monkeypatch.setattr(model, "enumerate_bundles", never)
        document = scenario_to_jsonable(small_scenario())
        document.update(num_bands=18, quant_levels=[0, 1], power_budget=18)
        document["gains"] = [[[1] * 18 for _ in range(3)] for _ in range(3)]
        document["utilities"] = [{"variant": "sir_log", "weights": [1] * 18}] * 3
        path = tmp_path / "eighteen-bands.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "enumerate", "--scenario", str(path), "--format", "json")
        assert code == 0, err
        document = json.loads(out)
        assert document["bundle_count"] == 262144 == 2**18
        assert document["profile_count"] == 18014398509481984 == 2**54

    def test_too_many_bundles_refused_before_any_is_built(self, tmp_path):
        # 2^21 level vectors of 24 bands fit a budget of 24 by the 21st band;
        # counting them first refuses long before the bundle tuples could be
        # built, so a fresh process exits within the timeout
        document = scenario_to_jsonable(small_scenario())
        document.update(num_bands=24, quant_levels=[0, 1], power_budget=24)
        document["gains"] = [[[1] * 24 for _ in range(3)] for _ in range(3)]
        document["utilities"] = [{"variant": "sir_log", "weights": [1] * 24}] * 3
        path = tmp_path / "many-bands.json"
        path.write_text(json.dumps(document))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        argv = [sys.executable, "-m", "spectrumshare", "enumerate", "--scenario", str(path)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=2)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(
            "error: scenario.num_bands: more than 2097151 bundles fit the power budget"
        )

    def test_too_many_bundles_exit_2_naming_num_bands(self, capsys, small_path, monkeypatch):
        from spectrumshare import model

        monkeypatch.setattr(model, "MAX_BUNDLES", 1)
        code, _, err = run(capsys, "enumerate", "--scenario", small_path)
        assert code == 2
        assert err.startswith("error: scenario.num_bands: more than 1 bundles fit the power")

    def test_oversized_grid_exits_2(self, capsys, tmp_path):
        document = scenario_to_jsonable(small_scenario())
        document["grid"]["pi_step"] = "1/1000000000"
        path = tmp_path / "fine-grid.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "enumerate", "--scenario", str(path))
        assert code == 2
        assert "scenario.grid.pi_step" in err


class TestValueBudget:
    """A catalog over the value budget: no command builds it, and every
    command that would evaluate utilities or list every profile exits 2
    naming the field."""

    USERS = MAX_VALUED_PROFILES.bit_length()

    @pytest.fixture(scope="class")
    def big_path(self, tmp_path_factory):
        users = self.USERS
        config = ScenarioConfig(
            num_users=users,
            num_bands=1,
            quant_levels=(0, 1),
            power_budget=1,
            noise_half_density=1,
            gains=uniform_gains(users, 1),
            utilities=tuple(SirLogUtility(user=u, weights=(1,)) for u in range(users)),
        )
        path = tmp_path_factory.mktemp("scenarios") / "big.json"
        write_scenario(small_scenario(config), path)
        return str(path)

    def test_enumerate_and_outcome_still_work(self, capsys, big_path):
        code, out, _ = run(capsys, "enumerate", "--scenario", big_path, "--format", "json")
        assert code == 0
        assert json.loads(out)["profile_count"] == 2**self.USERS > MAX_VALUED_PROFILES
        messages = json.dumps([[2**self.USERS, 0]] * self.USERS)
        code, out, _ = run(capsys, "outcome", "--scenario", big_path, "--messages", messages)
        assert code == 0
        assert f"allocation: {2**self.USERS}" in out

    def test_enumerate_table_exits_2(self, capsys, big_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no profile may be decoded")

        monkeypatch.setattr(ProfileCatalog, "profile_of", never)
        code, out, err = run(capsys, "enumerate", "--scenario", big_path, "--table")
        assert code == 2
        assert out == ""
        assert "scenario.num_users" in err
        assert str(MAX_VALUED_PROFILES) in err

    @pytest.mark.parametrize("command", ["verify", "find-ne"])
    def test_evaluation_exits_2(self, capsys, big_path, command):
        argv = [command, "--scenario", big_path]
        if command == "verify":
            argv += ["--messages", json.dumps([[1, 0]] * self.USERS)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "scenario.num_users" in err
        assert str(MAX_VALUED_PROFILES) in err


class TestOutcome:
    def test_hand_computed_case(self, capsys, desk_path):
        code, out, _ = run(
            capsys,
            "outcome",
            "--scenario",
            desk_path,
            "--messages",
            '[[1, 1], [2, 2], [3, 3]]',
        )
        assert code == 0
        assert "-5/3" in out and "-26/3" in out and "31/3" in out
        assert "\ntax_sum: 0\n" in out

    @pytest.mark.parametrize(
        "messages", ["[[1, 1], [2, 2], [3, 3]]", "[[-500, 1], [0, 2], [0, 0]]"]
    )
    def test_tax_terms_run_once(self, capsys, desk_path, tax_terms_calls, messages):
        code, _, _ = run(capsys, "outcome", "--scenario", desk_path, "--messages", messages)
        assert code == 0
        assert len(tax_terms_calls) == 1

    def test_unanimity(self, capsys, desk_path):
        code, out, _ = run(
            capsys,
            "outcome",
            "--scenario",
            desk_path,
            "--messages",
            '[[9, "1/2"], [9, "1/2"], [9, "1/2"]]',
        )
        assert code == 0
        assert "allocation: 9" in out
        assert "\ntax_sum: 0\n" in out

    def test_messages_from_file(self, capsys, desk_path, tmp_path):
        messages = tmp_path / "messages.json"
        messages.write_text('[{"proposal": 1, "price": 1}, {"proposal": 2, "price": 2}, {"proposal": 3, "price": 3}]')
        code, out, _ = run(
            capsys, "outcome", "--scenario", desk_path, "--messages", f"@{messages}"
        )
        assert code == 0
        assert "31/3" in out

    def test_json_taxes_are_ratio_strings(self, capsys, desk_path):
        code, out, _ = run(
            capsys,
            "outcome",
            "--scenario",
            desk_path,
            "--messages",
            '[[1, 1], [2, 2], [3, 3]]',
            "--format",
            "json",
        )
        document = json.loads(out)
        assert document["taxes"] == ["-5/3", "-26/3", "31/3"]
        assert document["tax_sum"] == 0

    def test_bad_messages_exit_2(self, capsys, desk_path):
        code, _, err = run(
            capsys, "outcome", "--scenario", desk_path, "--messages", "[[1, 1]]"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "messages, refusal",
        [
            ("5", "messages: expected a list, got int"),
            ('{"proposal": 1}', "messages: expected a list, got dict"),
            ("[[1, 1], [1, 1]]", "messages: need 3 entries, got 2"),
            ("[[1, 1], null, [1, 1]]", "messages[1]: expected a list, got NoneType"),
            ('[[1, 1], "ab", [1, 1]]', "messages[1]: expected a list, got str"),
            ("[[1, 1], [1, 1, 1], [1, 1]]", "messages[1]: need 2 entries, got 3"),
            ('[[1, 1], [1, 1], {"proposal": 1}]', "messages[2]: missing key 'price'"),
            ('[[1, 1], [1, 1], {"price": 1, "n": 1}]', "messages[2]: unknown key 'n'"),
            ('[["a", 1], [1, 1], [1, 1]]', "messages[0]: proposal must be an integer, got 'a'"),
            ("[[1, -1], [1, 1], [1, 1]]", "messages[0]: price must be non-negative, got -1"),
            ("[[1, [1]], [1, 1], [1, 1]]", "messages[0]: expected a rational number, got [1]"),
        ],
    )
    def test_wrong_typed_messages_name_their_path(self, capsys, desk_path, messages, refusal):
        for command in ("outcome", "verify"):
            code, out, err = run(capsys, command, "--scenario", desk_path, "--messages", messages)
            assert (code, out, err) == (2, "", f"error: {refusal}\n")


def census_of(out):
    return json.loads(out)["census"]


class TestFindNe:
    def test_table_output(self, capsys, small_path):
        code, out, _ = run(capsys, "find-ne", "--scenario", small_path)
        assert code == 0
        assert "\ncensus:\n  complete: true\n  equilibria:\n" in out
        rows = out.split("\n  equilibria:\n")[1].split("\ntiming_seconds:")[0].splitlines()
        assert len(rows) == 2 and rows[0].split()[0] == "candidate"
        assert rows[1].split()[-1] == "[[-1,1],[-2,2],[-3,3]]"

    def test_json_document(self, capsys, small_path, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "find-ne",
            "--scenario",
            small_path,
            "--format",
            "json",
            "--out",
            str(out_path),
        )
        assert code == 0
        document = json.loads(out)
        assert document["catalog"] == {"bundle_count": 2, "profile_count": 8}
        assert "measurement" not in document
        census = document["census"]
        assert census["complete"] is True
        assert set(census) == {"complete", "equilibria"}
        found = census["equilibria"]
        assert [e["allocation"] for e in found] == [4]
        assert found[0]["is_ne"] is True
        messages = json.dumps([[m["proposal"], m["price"]] for m in found[0]["candidate"]])
        report = build_report(read_messages(messages, 3), load_scenario(small_path).config)
        assert report.prices_balance and report.taxes_balance
        assert set(found[0]["lindahl"]) == {
            "prices", "best_on_price_line", "best_on_price_line_nonneg_tax"
        }
        assert found[0]["price_intervals"] == [[-1, 1], [-2, 2], [-3, 3]]
        assert json.loads(out_path.read_text()) == document

    def test_seed_determinism(self, capsys, small_path):
        _, first, _ = run(
            capsys, "find-ne", "--scenario", small_path, "--seed", "3", "--format", "json",
        )
        _, second, _ = run(
            capsys, "find-ne", "--scenario", small_path, "--seed", "3", "--format", "json",
        )
        first, second = json.loads(first), json.loads(second)
        assert first["seed"] == 3
        del first["timing_seconds"], second["timing_seconds"]
        assert first == second

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, capsys, small_path, seed):
        code, out, err = run(capsys, "find-ne", "--scenario", small_path, "--seed", seed)
        assert (code, out) == (2, "")
        assert err == "error: --seed must fit in an unsigned 64-bit integer\n"

    def test_seed_is_a_find_ne_option_only(self, capsys, small_path):
        with pytest.raises(SystemExit) as exited:
            main(["enumerate", "--scenario", small_path, "--seed", "3"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_no_ne_is_still_success(self, capsys, tmp_path):
        # user 0's convex values make the last index its only possible best
        # point, where users 1 and 2 both want subsidies it cannot fund
        convex = TableUtility(tuple(Fraction(k * k) for k in range(9)))
        config = small_config(utilities=(convex, peak_table(8, 1, 10), peak_table(8, 1, 1)))
        path = tmp_path / "no-ne.json"
        write_scenario(small_scenario(config), path)
        code, out, _ = run(capsys, "find-ne", "--scenario", str(path))
        assert code == 0
        assert "\ncensus:\n  complete: true\n  equilibria: []\n" in out

    def test_csv_format(self, capsys, small_path):
        code, out, _ = run(capsys, "find-ne", "--scenario", small_path, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "candidate,allocation,taxes,is_ne,mismatch_penalties_vanish,feasible,"
            "individual_rationality,lindahl.prices,lindahl.best_on_price_line,"
            "lindahl.best_on_price_line_nonneg_tax,price_intervals"
        )
        assert len(lines) == 2

    def test_search_never_reports_a_null_allocation(self, capsys):
        # this seed once led the best-response search to a null-allocation
        # profile that the check passed as an equilibrium
        for extra in ([], ["--seed", "1785467774"]):
            code, out, err = run(
                capsys, "find-ne", "--scenario", str(COMMITTED_DESK), "--format", "json", *extra
            )
            assert code == 0, err
            census = census_of(out)
            assert census["complete"] is True
            assert [e["allocation"] for e in census["equilibria"]] == [108]
            assert census["equilibria"][0]["lindahl"]["prices"] == [-1, -1, 2]

    def test_cubic_tax_census_is_incomplete(self, capsys, tmp_path):
        config = small_config(
            utilities=tuple(
                CubicTaxUtility(peak_values(8, 4, s), beta=Fraction(1, 2))
                for s in (1, 2, 3)
            )
        )
        path = tmp_path / "cubic.json"
        write_scenario(small_scenario(config), path)
        code, out, err = run(capsys, "find-ne", "--scenario", str(path), "--format", "json")
        assert code == 0, err
        census = census_of(out)
        assert census["complete"] is False
        assert [e["allocation"] for e in census["equilibria"]] == [4]
        assert census["equilibria"][0]["price_intervals"] == [[0, 0]] * 3

    def test_uncertified_census_entry_exits_3(self, capsys, small_path, monkeypatch):
        from spectrumshare import equilibrium

        certify = equilibrium.build_report
        monkeypatch.setattr(
            equilibrium,
            "build_report",
            lambda candidate, config: certify(candidate, config)._replace(
                best_deviation=Deviation(0, Message(0, Fraction(0)), 1)
            ),
        )
        code, _, err = run(capsys, "find-ne", "--scenario", small_path)
        assert code == 3
        assert "census allocation 4" in err


class TestVerify:
    def test_ne_report(self, capsys, small_path):
        code, out, _ = run(
            capsys, "verify", "--scenario", small_path, "--messages", "[[4,1],[4,1],[4,1]]"
        )
        assert code == 0
        assert "\n  is_ne: true\n" in out

    def test_whole_gain_is_a_json_number(self, capsys):
        argv = ["verify", "--scenario", str(COMMITTED_DESK), "--format", "json"]
        code, out, err = run(capsys, *argv, "--messages", "[[1,0],[1,0],[1,0]]")
        assert (code, err) == (0, "")
        gain = json.loads(out)["best_deviation"]["gain"]
        assert (type(gain), gain) == (int, 214)

    def test_non_ne_reports_deviation(self, capsys, small_path):
        code, out, _ = run(
            capsys,
            "verify",
            "--scenario",
            small_path,
            "--messages",
            "[[2,1],[2,1],[2,1]]",
            "--format",
            "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["report"]["is_ne"] is False
        assert document["best_deviation"]["gain"]

    def test_soundness_violation_prints_then_exits_3(self, capsys, small_path, monkeypatch):
        from spectrumshare.equilibrium import EquilibriumReport

        monkeypatch.setattr(EquilibriumReport, "soundness_violations", lambda self: ("forced",))
        code, out, err = run(
            capsys,
            "verify",
            "--scenario",
            small_path,
            "--messages",
            "[[4,1],[4,1],[4,1]]",
            "--format",
            "json",
        )
        assert code == 3
        document = json.loads(out)
        assert document["command"] == "verify"
        assert document["report"]["is_ne"] is True
        assert document["best_deviation"] is None
        assert err == "internal contract violated: forced\n"

    @pytest.mark.parametrize("index", [4, 2])
    def test_unanimity_scans_each_price_line_once(self, capsys, small_path, monkeypatch, index):
        from spectrumshare import equilibrium

        scans = []
        kernel = equilibrium.price_line_optimum

        def counted(values, *line):
            scans.append((values, *line))
            return kernel(values, *line)

        monkeypatch.setattr(equilibrium, "price_line_optimum", counted)
        messages = json.dumps([[index, 1]] * 3)
        code, out, _ = run(capsys, "verify", "--scenario", small_path, "--messages", messages)
        assert code == 0
        assert f"\n  is_ne: {str(index == 4).lower()}\n" in out
        assert len(scans) == 3
        utilities = load_scenario(small_path).config.utilities
        assert sorted(utilities.index(spec) for spec, *_ in scans) == [0, 1, 2]

    @pytest.mark.parametrize(
        "messages, is_ne",
        [('[[108,"1/3"],[108,"1/3"],[108,"1/3"]]', True), ("[[500,1],[108,1],[108,1]]", False)],
        ids=["off-grid-price", "off-grid-proposal"],
    )
    def test_off_grid_messages_are_verified(self, capsys, desk_path, messages, is_ne):
        code, out, err = run(
            capsys, "verify", "--scenario", desk_path, "--messages", messages, "--format", "json"
        )
        assert code == 0, err
        assert json.loads(out)["report"]["is_ne"] is is_ne


class TestLindahlRoundtrip:
    def test_zero_price_roundtrip(self, capsys, small_path, tmp_path):
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"allocation": 4, "taxes": [0, 0, 0], "prices": [0, 0, 0]}))
        code, out, _ = run(
            capsys,
            "lindahl-roundtrip",
            "--scenario",
            small_path,
            "--psi",
            str(psi),
            "--pi1",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["is_ne"] is True
        assert document["roundtrip"] == {
            "allocation_match": True,
            "taxes_match": True,
            "prices_match": True,
        }

    def test_seed_price_too_small_exits_2(self, capsys, small_path, tmp_path):
        psi = tmp_path / "psi.json"
        psi.write_text(
            json.dumps(
                {
                    "allocation": 2,
                    "taxes": ["-2/3", "-2/3", "4/3"],
                    "prices": ["-1/3", "-1/3", "2/3"],
                }
            )
        )
        code, _, err = run(
            capsys,
            "lindahl-roundtrip",
            "--scenario",
            small_path,
            "--psi",
            str(psi),
            "--pi1",
            "0",
        )
        assert code == 2
        assert err.startswith("error: --pi1: ")
        assert "smallest feasible seed price is 2" in err

    @pytest.mark.parametrize(
        "psi, field",
        [
            ({"allocation": True, "taxes": [0, 0, 0], "prices": [0, 0, 0]}, "psi.allocation"),
            ({"allocation": 4, "taxes": 5, "prices": [0, 0, 0]}, "psi.taxes"),
            ({"allocation": 4, "taxes": [0, 0, 0], "prices": None}, "psi.prices"),
            ({"allocation": 4, "taxes": [0, "x", 0], "prices": [0, 0, 0]}, "psi.taxes"),
            ({"allocation": 100000, "taxes": [0, 0, 0], "prices": [0, 0, 0]}, "psi.allocation"),
            ({"allocation": -1, "taxes": [0, 0, 0], "prices": [0, 0, 0]}, "psi.allocation"),
            ({"allocation": 4, "taxes": [0, 0, 0], "prices": [1, 0, 0]}, "psi.prices"),
        ],
        ids=[
            "bool-allocation",
            "scalar-taxes",
            "null-prices",
            "bad-tax-entry",
            "too-large-allocation",
            "negative-allocation",
            "unbalanced-prices",
        ],
    )
    def test_malformed_psi_names_the_field(self, capsys, small_path, tmp_path, psi, field):
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(psi))
        code, out, err = run(
            capsys, "lindahl-roundtrip", "--scenario", small_path, "--psi", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize(
    "content",
    [
        b'[1, "\xff"]',
        b"[" + b"9" * 5001 + b"]",
        None,
        "directory",
        b"[" * 100000 + b"]" * 100000,
    ],
    ids=["invalid-utf8", "over-4300-digit-int", "missing-file", "directory", "nested-too-deep"],
)
@pytest.mark.parametrize("field", ["scenario", "messages", "psi"])
def test_undecodable_input_names_it(capsys, small_path, tmp_path, field, content):
    bad = tmp_path / "bad.json"
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    argv = {
        "scenario": ["enumerate", "--scenario", str(bad)],
        "messages": ["verify", "--scenario", small_path, "--messages", f"@{bad}"],
        "psi": ["lindahl-roundtrip", "--scenario", small_path, "--psi", str(bad)],
    }[field]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: ")


class TestLoadMemo:
    """`load_scenario` reads the file on every call and validates only bytes
    other than the last ones it validated."""

    MESSAGES = "[[4, 0], [4, 0], [4, 0]]"

    @pytest.fixture()
    def parses(self, monkeypatch):
        """The digest of every document `parse_scenario` validates."""
        from spectrumshare import scenario

        digests = []

        def counted(data, digest):
            digests.append(digest)
            return parse_scenario(data, digest)

        monkeypatch.setattr(scenario, "parse_scenario", counted)
        return digests

    @staticmethod
    def write(path, peak: int, seed: int) -> str:
        """Write a small scenario whose users peak at `peak`; its digest."""
        write_scenario(small_scenario(small_config(peaks=(peak,) * 3), seed=seed), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def verify(self, capsys, path):
        argv = ["verify", "--scenario", str(path), "--format", "json", "--messages", self.MESSAGES]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        return out

    def test_three_commands_parse_once(self, capsys, tmp_path, parses):
        path = tmp_path / "small.json"
        digest = self.write(path, 4, 1)
        for argv in (["enumerate"], ["find-ne"], ["verify", "--messages", self.MESSAGES]):
            code, out, _ = run(capsys, argv[0], "--scenario", str(path), *argv[1:])
            assert code == 0 and out
        assert parses == [digest]

    def test_rewritten_file_gives_its_new_scenario(self, capsys, tmp_path, parses):
        path = tmp_path / "small.json"
        self.write(path, 4, 1)
        old = self.verify(capsys, path)
        digest = self.write(path, 5, 2)
        new = self.verify(capsys, path)
        assert json.loads(new)["scenario_digest"] == digest != json.loads(old)["scenario_digest"]
        assert new != old
        _scenario_of.cache_clear()
        assert self.verify(capsys, path) == new

    def test_refusal_is_refused_on_every_call(self, capsys, tmp_path, parses):
        document = scenario_to_jsonable(small_scenario())
        document["extra"] = 1
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(document))
        runs = [run(capsys, "enumerate", "--scenario", str(path)) for _ in range(3)]
        assert runs == [(2, "", "error: scenario: unknown key 'extra'\n")] * 3
        assert len(parses) == 3

    def test_alternating_files_keep_their_own_scenario(self, capsys, tmp_path, parses):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        digests = {first: self.write(first, 4, 1), second: self.write(second, 5, 2)}
        outputs = {}
        for path in (first, second, first, second):
            out = self.verify(capsys, path)
            assert json.loads(out)["scenario_digest"] == digests[path]
            assert outputs.setdefault(path, out) == out
        assert outputs[first] != outputs[second]
        assert parses == [digests[first], digests[second]] * 2


@pytest.mark.parametrize(
    "field, key, argv",
    [
        ("scenario", "seed", ["enumerate", "--scenario", "{top}"]),
        ("scenario", "variant", ["enumerate", "--scenario", "{nested}"]),
        (
            "messages",
            "proposal",
            ["verify", "--messages", '[{"proposal": 1, "proposal": 4, "price": 0}, [4, 0], [4, 0]]'],
        ),
        ("psi", "allocation", ["lindahl-roundtrip", "--psi", "{psi}"]),
    ],
    ids=["scenario-top-level", "scenario-utilities-0", "messages", "psi"],
)
def test_duplicate_key_names_document_and_key(capsys, small_path, tmp_path, field, key, argv):
    """An object that names a key twice is refused, where `json.loads`
    would keep the last value."""
    text = Path(small_path).read_text()
    files = {
        "{top}": text.replace('"seed": ', '"seed": 1, "seed": ', 1),
        "{nested}": text.replace('"variant": "table"', '"variant": "sir_log", "variant": "table"', 1),
        "{psi}": '{"allocation": 9, "allocation": 4, "taxes": [0, 0, 0], "prices": [0, 0, 0]}',
    }
    for name, content in files.items():
        (tmp_path / name.strip("{}")).write_text(content)
    argv = [str(tmp_path / arg.strip("{}")) if arg in files else arg for arg in argv]
    if "--scenario" not in argv:
        argv[1:1] = ["--scenario", small_path]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {field}: duplicate key '{key}'\n"


BIG = "1" + "0" * 4000
PSI_108 = {"allocation": 108, "taxes": [-108, -108, 216], "prices": [-1, -1, 2]}


@pytest.mark.parametrize(
    "field, argv",
    [
        ("messages", ["verify", "--messages", "[[1, 1e5000], [1, 1], [1, 1]]"]),
        ("messages[0]", ["verify", "--messages", '[[1, "1e5000"], [1, 1], [1, 1]]']),
        ("messages", ["verify", "--messages", "[[1, 1e3000000], [1, 1], [1, 1]]"]),
        ("messages", ["verify", "--messages", f"[[{BIG}, 1], [-{BIG}, 1], [3, 1]]"]),
        ("messages", ["verify", "--messages", f'[[1, "{BIG}/3"], [1, 1], [1, 1]]']),
        ("messages", ["outcome", "--messages", "[[1, 1e-5000], [1, 1], [1, 1]]"]),
        ("--pi1", ["lindahl-roundtrip", "--psi", "{psi}", "--pi1", "1e5000"]),
        ("psi", ["lindahl-roundtrip", "--psi", "{big_psi}"]),
        ("messages", ["verify", "--messages", f"[[-{'9' * (MAX_DIGITS + 1)}, 1], [1, 1], [1, 1]]"]),
        ("psi", ["lindahl-roundtrip", "--psi", "{utf16_psi}"]),
    ],
    ids=[
        "json-decimal",
        "string-decimal",
        "huge-exponent",
        "4001-digit-proposals",
        "long-ratio-string",
        "negative-exponent",
        "pi1",
        "psi-integer",
        "negative-101-digit-proposal",
        "101-digit-tax-in-utf16-psi",
    ],
)
def test_oversized_numbers_name_their_input(capsys, desk_path, tmp_path, field, argv):
    psi, big_psi = tmp_path / "psi.json", tmp_path / "big_psi.json"
    psi.write_text(json.dumps(PSI_108))
    big_psi.write_text(json.dumps({**PSI_108, "taxes": [-108, -108, int(BIG)]}))
    utf16_psi = tmp_path / "utf16_psi.json"
    long_tax = {**PSI_108, "taxes": [-108, -108, 10**MAX_DIGITS]}
    utf16_psi.write_bytes(json.dumps(long_tax).encode("utf-16"))
    files = {"{psi}": psi, "{big_psi}": big_psi, "{utf16_psi}": utf16_psi}
    argv = [str(files.get(a, a)) for a in argv]
    code, out, err = run(capsys, argv[0], "--scenario", desk_path, *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: number ")
    assert f"exceeds {MAX_DIGITS} digits" in err


@pytest.mark.parametrize(
    "messages",
    ['[[1, "\udc80"], [1, 1], [1, 1]]', "[[1, 1], [1, 1], [1, 1]]\udc80"],
    ids=["in-string", "outside-string"],
)
def test_lone_surrogate_in_messages_names_it(capsys, desk_path, messages):
    """A `--messages` argument that UTF-8 cannot encode (a lone surrogate,
    as Python decodes an invalid byte in argv) exits 2 naming it."""
    code, out, err = run(capsys, "verify", "--scenario", desk_path, "--messages", messages)
    assert (code, out) == (2, "")
    assert err.startswith("error: messages")


def test_oversized_scenario_decimal_names_the_scenario(capsys, small_path, tmp_path):
    document = json.loads(Path(small_path).read_text())
    path = tmp_path / "huge.json"
    text = json.dumps(document).replace('"noise_half_density": 1', '"noise_half_density": 1e5000')
    path.write_text(text)
    code, _, err = run(capsys, "enumerate", "--scenario", str(path))
    assert code == 2
    assert err.startswith("error: scenario: number 1e5000 exceeds")


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-32-le"])
@pytest.mark.parametrize(
    "user, entry, shown",
    [
        # a weight too large for a float
        (0, {"variant": "sir_log", "weights": [10**400]}, "1" + "0" * 19),
        # a value that loads under Python's 4,300-digit limit but cannot print
        (
            0,
            {"variant": "table", "values": [0, int("9" * 4299), 1, 1, 1, 1, 1, 1, 1]},
            "9" * 20,
        ),
        # one digit over the bound, in a user after the first
        (2, {"variant": "table", "values": [0, 10**MAX_DIGITS, *range(1, 8)]}, "1" + "0" * 19),
    ],
    ids=["sir-weight-10^400", "4299-digit-value", "value-of-101-digits"],
)
def test_long_scenario_integers_name_the_scenario(capsys, tmp_path, user, entry, shown, encoding):
    golden = Path(__file__).resolve().parent / "golden" / "several-equilibria.scenario.json"
    document = json.loads(golden.read_text())
    document["utilities"][user] = entry
    path = tmp_path / "long.json"
    path.write_bytes(json.dumps(document).encode(encoding))
    for argv in (
        ["find-ne"],
        ["verify", "--messages", '[[3, "1/3"], [2, "1/7"], [4, 1]]'],
    ):
        code, out, err = run(capsys, argv[0], "--scenario", str(path), *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err == f"error: scenario: number {shown}... exceeds {MAX_DIGITS} digits\n"


def test_exponent_is_refused_before_the_number_is_built(capsys, desk_path):
    started = time.perf_counter()
    messages = "[[1, 1e100000000], [1, 1], [1, 1]]"
    code, _, err = run(capsys, "verify", "--scenario", desk_path, "--messages", messages)
    elapsed = time.perf_counter() - started
    assert code == 2
    assert err.startswith("error: messages: number 1e100000000 exceeds")
    assert elapsed < 1, f"refusing 1e100000000 took {elapsed:.2f} s"


def test_pi1_parse_error_names_the_flag(capsys, small_path, tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"allocation": 4, "taxes": [0, 0, 0], "prices": [0, 0, 0]}))
    code, out, err = run(
        capsys, "lindahl-roundtrip", "--scenario", small_path, "--psi", str(path), "--pi1", "abc"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --pi1: cannot parse rational from 'abc'\n"


def test_numbers_at_the_bound_print(capsys, tmp_path):
    # Every number at MAX_DIGITS: two cubic_tax users (cubed taxes) and a
    # table user, prices as "p/q" literals of MAX_DIGITS characters and
    # proposals of MAX_DIGITS digits whose rounded average is still a
    # profile.  Every command that prints them must exit 0.
    half = MAX_DIGITS // 2
    top = 10**half - 1

    def ratio(k):
        return f"{top - k}/{10 ** (MAX_DIGITS - half - 2) + k}"

    values = tuple([0] + [10 ** (MAX_DIGITS - 1) + 7 * k for k in range(1, 9)])
    scenario = small_scenario()._replace(
        config=small_config(
            utilities=(
                CubicTaxUtility(values, Fraction(ratio(1))),
                CubicTaxUtility((0, *reversed(values[1:])), Fraction(ratio(2))),
                TableUtility(tuple([Fraction(0)] + [Fraction(ratio(k)) for k in range(3, 11)])),
            )
        )
    )
    path = tmp_path / "bound.json"
    write_scenario(scenario, path)
    proposal = "9" * MAX_DIGITS
    messages = json.dumps(
        [[int(proposal), ratio(11)], [-int(proposal) + 2, ratio(12)], [3, ratio(13)]]
    )
    assert len(json.loads(messages)[0][1]) == MAX_DIGITS
    longest = 0
    for argv in (
        ["verify", "--messages", messages],
        ["verify", "--messages", messages, "--format", "json"],
        ["outcome", "--messages", messages, "--format", "json"],
        ["find-ne", "--format", "json"],
    ):
        code, out, err = run(capsys, argv[0], "--scenario", str(path), *argv[1:])
        assert (code, err) == (0, ""), argv
        longest = max(longest, max(map(len, re.findall(r"\d+", out))))
    # cubed taxes print numbers more than ten times as long as any input
    assert longest > 10 * MAX_DIGITS, longest


def test_sir_log_terms_over_hundreds_of_binades(capsys, tmp_path):
    # Weights near 10**99 and 10**-99 on small gains: a user's column terms
    # run from about 2**319 down to about 2**-339, so its heights share a
    # scale of 2**390, and still equal the exact sums of its terms.
    config = ScenarioConfig(
        num_users=3,
        num_bands=2,
        quant_levels=(0, 1),
        power_budget=2,
        noise_half_density=1,
        gains=uniform_gains(3, 2, direct=Fraction(1, 1000), cross=Fraction(1, 2000)),
        utilities=tuple(SirLogUtility(user=u, weights=(1, 1)) for u in range(3)),
    )
    document = scenario_to_jsonable(small_scenario(config))
    for utility, weights in zip(document["utilities"], ([10**99, 1e-99], [1e-99, 10**99], [1, 1])):
        utility["weights"] = weights
    path = tmp_path / "binades.json"
    path.write_text(json.dumps(document))
    assert '"weights": [1000000' in path.read_text() and "1e-99" in path.read_text()
    config = load_scenario(path).config
    for spec in config.utilities:
        scale, heights = spec.values(config).scaling
        assert tuple(Fraction(height, scale) for height in heights) == sir_value_oracle(spec, config)
    scale, heights = config.utilities[0].values(config).scaling
    assert scale == 2**390 and max(heights) > 2**600 * min(filter(None, heights))
    for argv in (["verify", "--messages", "[[1,0],[1,0],[1,0]]"], ["find-ne"]):
        for fmt in ("json", "table"):
            code, out, err = run(capsys, *argv, "--scenario", str(path), "--format", fmt)
            assert (code, err) == (0, ""), argv
            assert out


def four_user_sir_scenario():
    """4 sir_log users over 2 bands, levels {0, 1, 2}, budget 2: 1,296
    profiles, with seeded gains and each user's weight on one band, which
    give equilibria at 438, 444 and 450."""
    rng = random.Random(32)

    def rational():
        return Fraction(rng.randint(0, 12), rng.randint(1, 5))

    config = ScenarioConfig(
        num_users=4,
        num_bands=2,
        quant_levels=(0, 1, 2),
        power_budget=2,
        noise_half_density=Fraction(3, 4),
        gains=tuple(tuple((rational(), rational()) for _ in range(4)) for _ in range(4)),
        utilities=tuple(
            SirLogUtility(user=u, weights=(rational(), 0) if u % 2 else (0, rational()))
            for u in range(4)
        ),
    )
    return small_scenario(config)


SIR_LOG_GOLDEN = ROOT / "tests" / "golden" / "sir-log.scenario.json"
# scenario -> the --messages of its two verify runs: a unanimity candidate
# (an equilibrium of the 4-user game) and a mixed one
RESCALED_GAMES = {
    "sir-log-golden": (
        lambda: load_scenario(SIR_LOG_GOLDEN),
        ('[[64, "1/2"], [64, 1], [64, "1/4"]]', '[[9, "1/20"], [30, "1/10"], [40, "1/30"]]'),
    ),
    "sir-log-4x2": (
        four_user_sir_scenario,
        ('[[438, 0], [438, 0], [438, 0], [438, 0]]', '[[9, 1], [300, 0], [1000, 2], [7, 3]]'),
    ),
}


def rescale_powers(config, c):
    """Every power and the noise times c: each SIR stays the same."""
    return config._replace(
        quant_levels=tuple(c * q for q in config.quant_levels),
        power_budget=c * config.power_budget,
        noise_half_density=c * config.noise_half_density,
    )


def rescale_gains(config, c):
    """Every gain and the noise times c: each SIR stays the same."""
    gains = tuple(tuple(tuple(c * g for g in row) for row in plane) for plane in config.gains)
    return config._replace(gains=gains, noise_half_density=c * config.noise_half_density)


@pytest.mark.parametrize("rescale", [rescale_powers, rescale_gains])
@pytest.mark.parametrize("game", RESCALED_GAMES)
def test_rescaling_physics_keeps_the_output(capsys, tmp_path, game, rescale):
    """Multiplying by c either all gains and the noise, or the quant levels,
    power budget and noise, leaves every SIR and so every `sir_log` height
    as it was: `find-ne` and `verify` print the same JSON apart from the
    scenario digest and the timing."""
    build, candidates = RESCALED_GAMES[game]
    scenario = build()
    commands = [["find-ne"]] + [["verify", "--messages", m] for m in candidates]

    def outputs(config, name):
        path = tmp_path / name
        write_scenario(scenario._replace(config=ScenarioConfig(*config)), path)
        documents = []
        for argv in commands:
            code, out, err = run(capsys, *argv, "--scenario", str(path), "--format", "json")
            assert (code, err) == (0, ""), argv
            document = json.loads(out)
            del document["scenario_digest"]
            document.pop("timing_seconds", None)
            documents.append(document)
        return documents

    expected = outputs(scenario.config, "base.json")
    for c in (Fraction(3, 2), Fraction(7), Fraction(1, 5), Fraction(2), Fraction(10, 3)):
        assert outputs(rescale(scenario.config, c), f"{c}.json".replace("/", "_")) == expected, c


class TestMeasure:
    def test_honest_run(self, capsys, desk_path):
        code, out, _ = run(capsys, "measure", "--scenario", desk_path)
        assert code == 0
        assert "\nexcluded_users: []\n" in out

    def test_cheat_run_lists_pairs(self, capsys, tmp_path):
        scenario = small_scenario()
        scenario = type(scenario)(
            config=scenario.config,
            pi_step=scenario.pi_step,
            pi_max=scenario.pi_max,
            pilot_power=scenario.pilot_power,
            behaviors=(Honest(), Honest(), ReportCheat("multiplicative", (Fraction(2),))),
            seed=scenario.seed,
            digest="",
        )
        path = tmp_path / "cheat.json"
        write_scenario(scenario, path)
        code, out, _ = run(capsys, "measure", "--scenario", str(path), "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert sorted(document["excluded_users"]) == [0, 1, 2]
        assert ["0", "2"] not in document["mismatched_pairs"]
        assert [0, 2] in document["mismatched_pairs"]


class TestValueSpellings:
    """A table's values written as JSON ints, as unreduced "2k/2" strings or
    as JSON decimals load to the same game and give the same answers."""

    SPELLINGS = {"ints": int, "halves": lambda v: f"{2 * v}/2", "decimals": float}

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("spellings")
        paths = {}
        for name, spell in self.SPELLINGS.items():
            document = scenario_to_jsonable(small_scenario())
            for utility in document["utilities"]:
                assert all(type(v) is int for v in utility["values"])
                utility["values"] = [spell(v) for v in utility["values"]]
            paths[name] = directory / f"{name}.json"
            paths[name].write_text(json.dumps(document))
        assert '"values": ["0/2", "' in paths["halves"].read_text()
        assert '"values": [0.0, ' in paths["decimals"].read_text()
        return paths

    def test_same_integer_scalings(self, paths):
        scalings = [
            [spec.scaling for spec in load_scenario(p).config.utilities] for p in paths.values()
        ]
        assert scalings[0] == scalings[1] == scalings[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["find-ne"],
            ["verify", "--messages", "[[4,1],[4,1],[4,1]]"],
            ["verify", "--messages", '[[2,1],[4,"1/2"],[6,1]]'],
            ["lindahl-roundtrip", "--pi1", "1"],
        ],
        ids=["find-ne", "verify-ne", "verify-deviation", "lindahl-roundtrip"],
    )
    def test_same_json(self, capsys, paths, tmp_path, argv):
        if argv[0] == "lindahl-roundtrip":
            psi = tmp_path / "psi.json"
            psi.write_text(json.dumps({"allocation": 4, "taxes": [0, 0, 0], "prices": [0, 0, 0]}))
            argv = [*argv, "--psi", str(psi)]
        documents = []
        for path in paths.values():
            code, out, err = run(capsys, *argv, "--scenario", str(path), "--format", "json")
            assert code == 0, err
            document = json.loads(out)
            document.pop("scenario_digest")
            document.pop("timing_seconds", None)
            documents.append(document)
        assert documents[0] == documents[1] == documents[2]


class TestHeldValues:
    """A `sir_log` user's values are built once per scenario: every command
    a process runs on one file reads them from the memo's config."""

    def test_two_verifies_build_each_user_once(self, capsys, tmp_path, sir_builds):
        # 4 users over 2 bands: the 1296-profile sir-verify shape; 8 builds
        # when every certificate built its own
        path = tmp_path / "sir.json"
        path.write_text(json.dumps(load_script("cap_memory").cap_document(3, users=4, bands=2)))
        for messages in ("[[7, 0], [7, 1], [7, 2], [7, 3]]", "[[5, 1], [900, 0], [1, 2], [64, 0]]"):
            code, out, err = run(capsys, "verify", "--scenario", str(path), "--messages", messages)
            assert (code, err) == (0, "") and out
        assert sorted(build.user for build in sir_builds) == [0, 1, 2, 3]

    def test_census_builds_each_user_once(self, capsys, sir_builds):
        # two equilibria: 9 builds when each entry's certificate built its own
        sir_log = ROOT / "tests" / "golden" / "sir-log.scenario.json"
        code, out, _ = run(capsys, "find-ne", "--scenario", str(sir_log), "--format", "json")
        assert code == 0
        assert len(json.loads(out)["census"]["equilibria"]) == 2
        assert sorted(build.user for build in sir_builds) == [0, 1, 2]


def zero_game(utilities, gains=None, levels=(0, 1), budget=1, noise=1) -> dict:
    """A 3-user, 1-band scenario document: 2 bundles when the budget fits
    the levels, 8 profiles."""
    return {
        "num_users": 3,
        "num_bands": 1,
        "quant_levels": list(levels),
        "power_budget": budget,
        "noise_half_density": noise,
        "gains": gains or [[[1 if tx == rx else "1/2"] for rx in range(3)] for tx in range(3)],
        "utilities": utilities,
        "grid": {"pi_step": "1/4", "pi_max": 3},
        "measurement": {"pilot_power": 1, "behaviors": [{"variant": "honest"}] * 3},
        "seed": 1,
    }


ZERO = [0] * 9


def faint_game(utilities) -> dict:
    """Direct gains and the one power level 1e-99, no cross gain, noise
    1e99: every SIR is 1e-297, and a weight of 1e-99 makes its term
    underflow to 0.0."""
    gains = [[["1e-99" if tx == rx else 0] for rx in range(3)] for tx in range(3)]
    return zero_game(utilities, gains, levels=(0, "1e-99"), budget="1e-99", noise="1e99")


ALL_ZERO_GAMES = {
    "table": zero_game([{"variant": "table", "values": ZERO}] * 3),
    "cubic_tax": zero_game([{"variant": "cubic_tax", "values": ZERO, "beta": 1}] * 3),
    "mixed": zero_game(
        [
            {"variant": "table", "values": ZERO},
            {"variant": "sir_log", "weights": [0]},
            {"variant": "cubic_tax", "values": ZERO, "beta": "1/2"},
        ]
    ),
    "sir_log-no-direct-gain": zero_game(
        [{"variant": "sir_log", "weights": [1]}] * 3,
        gains=[[[0 if tx == rx else 1] for rx in range(3)] for tx in range(3)],
    ),
    "sir_log-no-power": zero_game([{"variant": "sir_log", "weights": [1]}] * 3, budget="1/2"),
    "sir_log-underflow": faint_game([{"variant": "sir_log", "weights": ["1e-99"]}] * 3),
}


@pytest.mark.parametrize("game", sorted(ALL_ZERO_GAMES))
@pytest.mark.parametrize(
    "argv", [["verify", "--messages", "[[-1,0],[-1,0],[-1,0]]"], ["find-ne"], ["enumerate"]]
)
def test_all_zero_game_exits_2_naming_utilities(capsys, tmp_path, game, argv):
    """A game in which every user's values are 0 on the whole catalog has
    null-allocation equilibria, which `verify` reported with exit 3: it is
    refused at load, with empty stdout."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ALL_ZERO_GAMES[game]))
    code, out, err = run(capsys, argv[0], "--scenario", str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: scenario.utilities: every user's values are 0")


@pytest.mark.parametrize("weight", ["1e-99", "1e-20"])
def test_one_positive_value_is_a_game(capsys, tmp_path, weight):
    """One user whose values are not all 0 makes a game, however small the
    value: weight 1e-20 leaves a positive subnormal term where 1e-99
    underflows.  The decision agrees with the values built."""
    utilities = [{"variant": "table", "values": ZERO}] * 2
    utilities.append({"variant": "sir_log", "weights": [weight]})
    path = tmp_path / "faint.json"
    path.write_text(json.dumps(faint_game(utilities)))
    code, out, _ = run(capsys, "find-ne", "--scenario", str(path), "--format", "json")
    if weight == "1e-99":
        assert (code, out) == (2, "")
        return
    assert code == 0
    config = load_scenario(path).config
    scale, heights = config.utilities[2].values(config).scaling
    assert max(heights) > 0 and scale >= 2**1074


# (users, bands, levels, budget) of the drawn whole scenarios: 2 to 6
# bundles, at most 256 profiles
DRAWN_SHAPES = [
    (users, bands, levels, budget)
    for users in (3, 4)
    for bands in (1, 2)
    for levels, budget in (((0, 1), 1), ((0, 1), 2), ((0, "1/2", 1), 1))
    if count_bundles([Fraction(q) for q in levels], bands, budget) ** users <= 256
]
# non-negative numbers as a scenario spells them: ints and "p/q" strings
drawn_numbers = st.sampled_from([1, 2, 5, "1/2", "3/4", "7/3"])


def drawn_heights(draw, size: int) -> list:
    """A value list of `size` + 1 entries, entry 0 the null allocation's 0:
    all zero, flat, sparse or random."""
    kind = draw(st.sampled_from(["zero", "flat", "sparse", "random"]))
    if kind == "zero":
        return [0] * (size + 1)
    if kind == "flat":
        return [0] + [draw(drawn_numbers)] * size
    entry = st.sampled_from([0, 0, 0, 0, 0, 1, "1/2"]) if kind == "sparse" else drawn_numbers
    return [0, *draw(st.lists(entry, min_size=size, max_size=size))]


@st.composite
def drawn_scenarios(draw):
    """A whole scenario document of `table`, `sir_log` and `cubic_tax` users,
    degenerate draws included (all-zero, flat and sparse values, zero
    weights, zero cross gains), and two `--messages` for it: proposals whose
    average may leave the catalog, and prices that may be negative, which
    are refused."""
    users, bands, levels, budget = draw(st.sampled_from(DRAWN_SHAPES))
    size = count_bundles([Fraction(q) for q in levels], bands, budget) ** users
    utilities = []
    for _ in range(users):
        variant = draw(st.sampled_from(["table", "sir_log", "cubic_tax"]))
        if variant == "sir_log":
            weight = st.sampled_from([0, 1, "1/2", 2])
            weights = draw(st.lists(weight, min_size=bands, max_size=bands))
            utilities.append({"variant": variant, "weights": weights})
        else:
            utilities.append({"variant": variant, "values": drawn_heights(draw, size)})
            if variant == "cubic_tax":
                utilities[-1]["beta"] = draw(st.sampled_from([1, "1/2", 3]))
    cross = st.just(0) if draw(st.booleans()) else st.sampled_from([0, "1/2", "1/3", 1])
    direct = st.sampled_from([0, 1, "3/2", 2])
    gains = [
        [[draw(direct if tx == rx else cross) for _ in range(bands)] for rx in range(users)]
        for tx in range(users)
    ]
    document = {
        "num_users": users,
        "num_bands": bands,
        "quant_levels": list(levels),
        "power_budget": budget,
        "noise_half_density": draw(st.sampled_from([1, "1/2", 3])),
        "gains": gains,
        "utilities": utilities,
        "grid": {"pi_step": "1/4", "pi_max": 3},
        "measurement": {"pilot_power": 1, "behaviors": [{"variant": "honest"}] * users},
        "seed": 1,
    }
    message = st.tuples(
        st.integers(min_value=-size, max_value=2 * size), st.sampled_from([0, 1, "1/2", 3, -1])
    )
    profiles = st.lists(message, min_size=users, max_size=users).map(json.dumps)
    return document, draw(st.lists(profiles, min_size=2, max_size=2))


@pytest.fixture(scope="module")
def drawn_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "scenario.json"


def run_command(*argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one `cli.main` run, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(drawn=drawn_scenarios())
@settings(max_examples=200, deadline=None)
def test_every_command_on_drawn_scenarios(drawn_path, drawn):
    """Every command on a drawn whole scenario exits 0 or 2, never 1 or 3.
    Exit 2 prints nothing on stdout and names the refused field on stderr;
    exit 0 prints a JSON document; every equilibrium `find-ne` lists is
    certified again by `verify`."""
    document, messages = drawn
    drawn_path.write_text(json.dumps(document))
    null = json.dumps([[-1, 0]] * document["num_users"])
    commands = [["enumerate"], ["measure"], ["find-ne"], ["verify", "--messages", null]]
    for profile in messages:
        commands += [["outcome", "--messages", profile], ["verify", "--messages", profile]]
    listed = []
    for command, *rest in commands:
        code, out, err = run_command(
            command, "--scenario", str(drawn_path), *rest, "--format", "json"
        )
        assert code in (0, 2), (command, rest, code, err)
        if code == 2:
            assert out == ""
            assert re.match(r"error: (scenario|messages)[\w.\[\]]*: ", err), err
            continue
        output = json.loads(out)
        if command == "find-ne":
            listed = output["census"]["equilibria"]
    for entry in listed:
        candidate = [[m["proposal"], m["price"]] for m in entry["candidate"]]
        code, out, err = run_command(
            "verify", "--scenario", str(drawn_path), "--messages", json.dumps(candidate),
            "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["is_ne"] is True
