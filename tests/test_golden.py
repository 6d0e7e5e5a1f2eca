"""Golden CLI output on the committed desk scenario and on three small
scenarios under `tests/golden/` that reach the census branches and the
`sir_log` values the desk does not.

Each case's stdout must match `tests/golden/<case>` byte for byte once the
timing fields are blanked, whether its scenario is parsed or reused from
`load_scenario`'s memo (whose config holds the `sir_log` values, so that
the reuse builds none), and each table and CSV golden must be the
generic view of its JSON sibling.  The argument parser's help and usage errors at
80 columns, for the top level and every command, must match
`tests/golden/cli-help.txt`.  To regenerate after an intended output change:
`PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"`.
"""

import contextlib
import csv
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from spectrumshare import cli, model
from spectrumshare.cli import main

from golden_cases import CASES, GOLDEN, blank_timing, replays, stdout_of


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, tmp_path):
    """On a memo miss and on a memo hit alike; the hit builds no values."""
    golden = (GOLDEN / case).read_bytes()
    assert replays(case, tmp_path) == [golden, golden]


@pytest.mark.parametrize(
    "case", ["enumerate.txt", "outcome.txt", "find-ne.txt", "verify-deviation.txt"]
)
def test_desk_commands_build_no_bundle(case, tmp_path, monkeypatch):
    """The catalog is counted: a bare `enumerate`, `outcome`, `find-ne` and
    `verify` on the desk print their golden output with the bundle builder
    refusing to run."""

    def never(*args):
        raise AssertionError("no bundle may be built")

    monkeypatch.setattr(model, "enumerate_bundles", never)
    assert stdout_of(case, tmp_path) == (GOLDEN / case).read_bytes()


# every table and CSV case -> its JSON sibling and, for CSV, the keys of the
# command's one list of records in that document
VIEWS = {
    "enumerate.txt": ("enumerate.json", None),
    "enumerate-table.txt": ("enumerate-table.json", None),
    "enumerate-table.csv": ("enumerate-table.json", ["profiles"]),
    "outcome.txt": ("outcome.json", None),
    "find-ne.txt": ("find-ne.json", None),
    "find-ne.csv": ("find-ne.json", ["census", "equilibria"]),
    "verify-deviation.txt": ("verify-deviation.json", None),
    "lindahl-roundtrip.txt": ("lindahl-roundtrip.json", None),
    "measure.txt": ("measure.json", None),
}


def test_every_table_and_csv_case_has_a_json_sibling():
    assert set(VIEWS) == {case for case in CASES if not case.endswith(".json")}


@pytest.mark.parametrize("case", sorted(VIEWS))
def test_view_is_rendered_from_the_json_golden(case):
    """The table and the CSV say nothing the JSON document does not: each
    is the generic view of the document, with no hand-written view."""
    sibling, records_keys = VIEWS[case]
    document = json.loads((GOLDEN / sibling).read_bytes())
    buffer = io.StringIO()
    if records_keys is None:
        buffer.writelines(line + "\n" for line in cli._table_lines(document))
    else:
        records = document
        for key in records_keys:
            records = records[key]
        csv.writer(buffer).writerows(cli._csv_rows(records))
    assert buffer.getvalue().encode() == (GOLDEN / case).read_bytes()


# one JSON case per command
JSON_CASES = (
    "enumerate.json",
    "outcome.json",
    "find-ne.json",
    "verify-deviation.json",
    "lindahl-roundtrip.json",
    "measure.json",
)


@pytest.mark.parametrize("stdout_format", ["json", "table"])
@pytest.mark.parametrize("case", JSON_CASES)
def test_out_file_is_the_json_document(case, stdout_format, tmp_path):
    """`--out` writes the bytes `--format json` prints, whatever stdout shows."""
    out = tmp_path / "out.json"
    stdout_of(case, tmp_path, "--format", stdout_format, "--out", str(out))
    assert blank_timing(out.read_text()) == (GOLDEN / case).read_bytes()


# command -> the arguments it needs besides --scenario, for a parse that
# fails only on an unknown flag
COMMANDS = {
    "enumerate": [],
    "outcome": ["--messages", "[]"],
    "find-ne": [],
    "verify": ["--messages", "[]"],
    "lindahl-roundtrip": ["--psi", "psi.json"],
    "measure": [],
}


def parser_argvs() -> list[list[str]]:
    """Per level (the top level, then each command): --help, the bare
    command (a required argument missing) and an unknown flag."""
    argvs = [["--help"], [], ["--bogus", "enumerate", "--scenario", "s.json"]]
    for command, needed in COMMANDS.items():
        argvs += [
            [command, "--help"],
            [command],
            [command, "--scenario", "s.json", *needed, "--bogus"],
        ]
    return argvs


def parser_transcript() -> bytes:
    """Exit code, stdout and stderr of every `parser_argvs` run, at 80 columns."""
    sections = []
    for argv in parser_argvs():
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with pytest.raises(SystemExit) as exited:
                    main(argv)
        sections.append(
            f"$ {' '.join(['spectrumshare', *argv])}\nexit {exited.value.code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
    return "\n".join(sections).encode()


def test_parser_help_and_errors_match_golden():
    assert parser_transcript() == (GOLDEN / "cli-help.txt").read_bytes()


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            (GOLDEN / case).write_bytes(stdout_of(case, Path(workdir)))
    (GOLDEN / "cli-help.txt").write_bytes(parser_transcript())
