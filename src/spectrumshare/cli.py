"""Command-line front end: load a scenario, run a command, emit a report.

Commands: enumerate, outcome, find-ne, verify, lindahl-roundtrip, measure.
`main` loads the scenario once; each command builds its JSON document of
exact values, the one statement of its output, and hands it to `_render`,
the one output path, which spells every rational.  Every command prints a
table by default, rendered from the document by `_table_lines`; --format
json emits the document itself (a rational as an integer when whole, else
a lossless "p/q" string); --format csv emits `_csv_rows` of the command's one
list of records (find-ne's equilibria, enumerate --table's profiles) and
otherwise falls back to the table.  --out writes the JSON document to a file
regardless of the stdout format.

Each command's options are declared once, in `_OPTIONS` and `_COMMANDS`.
A plain command line (the command, then its flags in full, each once with a
value that does not start with "-") is read directly by `_plain_args`, so a
command run never imports argparse; argparse prints help and usage errors
and reads every other command line.

Exit codes: 0 success (including "no equilibrium found"), 2 configuration
error, 3 violated internal identity (must never happen), 141 (128 + SIGPIPE)
when standard output closes before the output is written.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .equilibrium import (
    EquilibriumReport,
    build_report,
    lindahl_census,
    lindahl_to_ne,
)
from .errors import ConfigError, ContractError
from .measurement import run_measurement
from .mechanism import Message, outcome
from .model import as_fraction
from .scenario import json_text, load_scenario, rational_to_json, read_file, read_messages, read_psi


def _messages(args, scenario) -> tuple[Message, ...]:
    """`--messages`, given inline or as @file."""
    spec = args.messages
    document = read_file(spec[1:], "messages") if spec.startswith("@") else spec
    return read_messages(document, scenario.config.num_users)


def _report_json(report: EquilibriumReport) -> dict:
    return {
        "candidate": [m._asdict() for m in report.candidate],
        "allocation": report.allocation,
        "taxes": list(report.taxes),
        "is_ne": report.is_ne,
        "mismatch_penalties_vanish": report.mismatch_penalties_vanish,
        "feasible": report.feasible,
        "individual_rationality": list(report.individual_rationality),
        "lindahl": {
            "prices": list(report.prices),
            "best_on_price_line": list(report.user_best),
            "best_on_price_line_nonneg_tax": list(report.user_best_nonneg_tax),
        },
    }


def _flat(record: dict, prefix: str = ""):
    """(key, value) pairs of a record, nested keys joined with dots."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


# compact JSON text, from one encoder rather than a `json.dumps` per value;
# as in `_render`, `rational_to_json` spells its rationals
_encode_compact = json.JSONEncoder(separators=(",", ":"), default=rational_to_json).encode


def _compact(value) -> str:
    """A JSON value as compact JSON text, a string or a rational bare (a
    `Fraction` prints as `rational_to_json` spells it: 5 or 1/3)."""
    if isinstance(value, (str, Fraction)):
        return str(value)
    return _encode_compact(value)


def _text(value) -> str:
    """A JSON value as the table spells it: a list of scalars inline,
    anything else as `_compact` does."""
    if isinstance(value, list) and not any(isinstance(v, (dict, list)) for v in value):
        return "[" + ", ".join(map(_compact, value)) + "]"
    return _compact(value)


def _table_lines(document: dict, indent: str = ""):
    """The table view of a JSON document: a nested key as an indented
    `key:` block, a list of records as aligned rows under a header of their
    flattened keys, and every other value as a `key: value` line."""
    for key, value in document.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _table_lines(value, indent + "  ")
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            yield f"{indent}{key}:"
            rows = [[k for k, _ in _flat(value[0])]]
            rows += [[_text(v) for _, v in _flat(record)] for record in value]
            widths = [max(map(len, column)) for column in zip(*rows)]
            for row in rows:
                yield indent + "  " + "  ".join(map(str.ljust, row, widths)).rstrip()
        else:
            yield f"{indent}{key}: {_text(value)}"


def _csv_rows(records: list):
    """The CSV view of a list of records: their flattened keys as the
    header, then one row per record (nothing at all for no records)."""
    for number, record in enumerate(records):
        keys, values = zip(*_flat(record))
        if number == 0:
            yield keys
        yield map(_compact, values)


def _render(args, scenario, document: dict, records: list | None = None) -> None:
    """The one output path of every command.

    `document` holds exact values: ints, `Fraction`s, bools, None, strings,
    and lists and dicts of them.  Stamps the command and the scenario digest
    ahead of its keys, then prints it as JSON, as CSV rows of `records` (the
    command's one list of records, if it has one) or as the table; the
    table and CSV views are built only when their format is chosen.  Every
    rational is spelled here, by `json_text` (the one JSON writer) for the
    JSON text and by `_compact` for the views.  `--out` gets the JSON
    document whatever the format, written before anything is printed, so
    that a file it cannot write leaves stdout empty; the text is built once.
    """
    document = {"command": args.subcommand, "scenario_digest": scenario.digest, **document}
    text = None
    if args.format == "json" or args.out:
        text = json_text(document)
    if args.out:
        try:
            with open(args.out, "w") as file:
                file.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from None
    if args.format == "json":
        print(text)
    elif args.format == "csv" and records is not None:
        import csv

        csv.writer(sys.stdout).writerows(_csv_rows(records))
    else:
        for line in _table_lines(document):
            print(line)


def cmd_enumerate(args, scenario) -> None:
    config = scenario.config
    catalog = config.catalog
    document = {"bundle_count": catalog.bundle_count, "profile_count": catalog.size}
    if args.table:
        config.check_profile_cap("listing the profile table")
        spelled = [" ".join(str(config.quant_levels[i]) for i in b) for b in config.bundles]
        document["profiles"] = [
            {"index": index, "bundles": [spelled[b] for b in catalog.profile_of(index)]}
            for index in range(1, catalog.size + 1)
        ]
    _render(args, scenario, document, document.get("profiles"))


def cmd_outcome(args, scenario) -> None:
    messages = _messages(args, scenario)
    allocation, taxes, (prices, _, denominator) = outcome(messages, scenario.config.catalog)
    document = {
        "messages": [m._asdict() for m in messages],
        "allocation": allocation,
        "taxes": list(taxes),
        "tax_sum": sum(taxes),
        "personal_prices": [Fraction(p, denominator) for p in prices],
    }
    _render(args, scenario, document)


def cmd_find_ne(args, scenario) -> None:
    seed = scenario.seed if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        raise ConfigError("--seed must fit in an unsigned 64-bit integer")
    catalog = scenario.config.catalog
    started = time.perf_counter()
    census = lindahl_census(scenario.config)
    elapsed = time.perf_counter() - started
    equilibria = [
        {
            **_report_json(entry.report),
            "price_intervals": list(map(list, entry.price_intervals)),
        }
        for entry in census.equilibria
    ]
    document = {
        "seed": seed,
        "catalog": {"bundle_count": catalog.bundle_count, "profile_count": catalog.size},
        "census": {"complete": census.complete, "equilibria": equilibria},
        "timing_seconds": {"census": round(elapsed, 4)},
    }
    _render(args, scenario, document, equilibria)


def cmd_verify(args, scenario) -> None:
    messages = _messages(args, scenario)
    report = build_report(messages, scenario.config)
    deviation = report.best_deviation
    document = {"report": _report_json(report), "best_deviation": None}
    if deviation is not None:
        document["best_deviation"] = {
            "user": deviation.user,
            "message": deviation.message._asdict(),
            "gain": deviation.gain,
        }
    _render(args, scenario, document)
    violations = report.soundness_violations()
    if violations:
        raise ContractError("; ".join(violations))


def cmd_lindahl_roundtrip(args, scenario) -> None:
    catalog = scenario.config.catalog
    psi = read_psi(read_file(args.psi, "psi"), scenario.config.num_users, catalog.size)
    try:
        messages = lindahl_to_ne(psi, as_fraction(args.pi1), catalog)
    except ConfigError as exc:
        raise ConfigError(f"--pi1: {exc}") from None
    report = build_report(messages, scenario.config)
    document = {
        "messages": [m._asdict() for m in messages],
        "is_ne": report.is_ne,
        "allocation": report.allocation,
        "taxes": list(report.taxes),
        "personal_prices": list(report.prices),
        "roundtrip": {
            "allocation_match": report.allocation == psi.allocation,
            "taxes_match": report.taxes == psi.taxes,
            "prices_match": report.prices == psi.prices,
        },
    }
    _render(args, scenario, document)


def cmd_measure(args, scenario) -> None:
    result = run_measurement(scenario.behaviors, scenario.pilot_power, scenario.config)
    document = {
        "pilot_power": scenario.pilot_power,
        "excluded_users": sorted(result.excluded),
        "mismatched_pairs": list(map(list, result.mismatched_pairs)),
        "estimated_gains": [list(map(list, plane)) for plane in result.estimated_gains],
        "reports": [{**r._asdict(), "consistent": r.consistent} for r in result.reports],
    }
    _render(args, scenario, document)


# Every option: name -> the `add_argument` keywords of its flag "--name".  An
# optional flag states its default, which `_plain_args` fills in when absent.
_OPTIONS = {
    "scenario": {"required": True, "help": "scenario JSON file"},
    "seed": {"type": int, "default": None, "help": "override the scenario seed"},
    "format": {"choices": ("json", "table", "csv"), "default": "table"},
    "out": {"default": None, "help": "also write the JSON document here"},
    "table": {"action": "store_true", "default": False, "help": "print the full index table"},
    "messages": {"required": True, "help": "JSON [[n, price], ...] or @file"},
    "psi": {"required": True, "help": "JSON file with allocation, taxes, prices"},
    "pi1": {"default": "1", "help": "seed price for the cyclic solve"},
}
# Every command: name -> (help, handler, its flags in help order).  With
# `_OPTIONS` it is the one declaration that `build_parser` and `_plain_args`
# both read.
_COMMANDS = {
    "enumerate": ("catalog summary", cmd_enumerate, "scenario format out table"),
    "outcome": ("apply the game form to messages", cmd_outcome, "scenario format out messages"),
    "find-ne": ("list every equilibrium allocation", cmd_find_ne, "scenario seed format out"),
    "verify": ("full report for one candidate", cmd_verify, "scenario format out messages"),
    "lindahl-roundtrip": (
        "rebuild messages from an allocation", cmd_lindahl_roundtrip, "scenario format out psi pi1"
    ),
    "measure": ("run the gain measurement protocol", cmd_measure, "scenario format out"),
}


def _plain_args(argv) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read without
    argparse, for a plain `argv`: a command, then some of its flags, each in
    full, at most once and followed by a value that does not start with "-",
    with every required flag given and every value one its flag accepts.
    None for any other argv (help, usage errors, abbreviations, "--flag=value",
    repeated flags), which argparse then reads.  Never prints or exits."""
    command, *rest = argv or [""]
    if command not in _COMMANDS:
        return None
    _, func, names = _COMMANDS[command]
    given = dict(zip(rest[::2], rest[1::2]))
    if 2 * len(given) != len(rest):  # a flag without a value, or one given twice
        return None
    args = {"subcommand": command, "func": func}
    for name in names.split():
        option = _OPTIONS[name]
        value = given.pop("--" + name, None)
        if value is None and not option.get("required"):
            value = option["default"]
        elif value is None or value[:1] == "-" or "action" in option:
            return None
        elif value not in option.get("choices", [value]):
            return None
        else:
            try:
                value = option.get("type", str)(value)
            except ValueError:
                return None
        args[name] = value
    return None if given else SimpleNamespace(**args)


@functools.cache
def build_parser():
    """The argparse tree of every command, for help, usage errors and every
    argv that `_plain_args` does not read."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="spectrumshare",
        description="Allocation game form for shared spectrum: enumerate, play, verify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (summary, func, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in names.split():
            p.add_argument("--" + name, **_OPTIONS[name])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        args.func(args, load_scenario(args.scenario))
        return 0
    except BrokenPipeError:
        # stdout closed early: stop quietly, with nothing left to flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"internal contract violated: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
