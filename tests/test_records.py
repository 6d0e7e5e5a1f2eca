"""Immutable records: value semantics of every record class, and a cold
import that loads neither `dataclasses`, `inspect` nor `typing`."""

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spectrumshare import (
    CensusEntry,
    CubicTaxUtility,
    Deviation,
    EquilibriumReport,
    GainReport,
    Honest,
    LindahlAllocation,
    LindahlCensus,
    MeasurementResult,
    Message,
    Outcome,
    PilotCheat,
    ProfileCatalog,
    ReportCheat,
    Scenario,
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
    build_report,
)
from spectrumshare.model import IntegerScaling

from conftest import small_config, small_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

HALF = Fraction(1, 2)


def _report():
    return build_report((Message(4, 1),) * 3, small_config())


# (factory, field names in order): each factory builds a fresh, equal record.
RECORDS = {
    "Message": (lambda: Message(3, HALF), ("proposal", "price")),
    "Outcome": (
        lambda: Outcome(2, (HALF, -HALF, Fraction(0)), ((-1, 2, -1), (0, 0, 0), 6)),
        ("allocation", "taxes", "terms"),
    ),
    "Honest": (Honest, ()),
    "PilotCheat": (lambda: PilotCheat((1, HALF)), ("scale",)),
    "ReportCheat": (lambda: ReportCheat("additive", (HALF,)), ("mode", "amount")),
    "GainReport": (
        lambda: GainReport(0, 1, 0, Fraction(2), HALF),
        ("transmitter", "receiver", "band", "reported_by_tx", "reported_by_rx"),
    ),
    "MeasurementResult": (
        lambda: MeasurementResult(
            (((Fraction(1),),),), frozenset({0, 1}), ((0, 1),), (GainReport(0, 1, 0, 1, 2),)
        ),
        ("estimated_gains", "excluded", "mismatched_pairs", "reports"),
    ),
    "ProfileCatalog": (
        lambda: ProfileCatalog(2, 3),
        ("bundle_count", "num_users"),
    ),
    "TableUtility": (lambda: TableUtility((0, 1, HALF)), ("scaling",)),
    "SirLogUtility": (lambda: SirLogUtility(1, (1, HALF)), ("user", "weights")),
    "CubicTaxUtility": (lambda: CubicTaxUtility((0, 2), HALF), ("scaling", "beta")),
    "IntegerScaling": (lambda: IntegerScaling(2, (0, 1, 4)), ("scale", "heights")),
    "ScenarioConfig": (
        small_config,
        (
            "num_users",
            "num_bands",
            "quant_levels",
            "power_budget",
            "noise_half_density",
            "gains",
            "utilities",
        ),
    ),
    "Scenario": (
        small_scenario,
        ("config", "pi_step", "pi_max", "pilot_power", "behaviors", "seed", "digest"),
    ),
    "Deviation": (lambda: Deviation(1, Message(0, 0), HALF), ("user", "message", "gain")),
    "LindahlAllocation": (
        lambda: LindahlAllocation(4, (0, 0, 0), (HALF, -HALF, 0)),
        ("allocation", "taxes", "prices"),
    ),
    "EquilibriumReport": (
        _report,
        (
            "candidate",
            "allocation",
            "taxes",
            "prices",
            "best_deviation",
            "mismatch_penalties_vanish",
            "individual_rationality",
            "user_best",
        ),
    ),
    "CensusEntry": (
        lambda: CensusEntry(((None, HALF), (-HALF, HALF), (0, 0)), _report()),
        ("price_intervals", "report"),
    ),
    "LindahlCensus": (
        lambda: LindahlCensus(True, ()),
        ("complete", "equilibria"),
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    factory, fields = RECORDS[request.param]
    return request.param, factory, fields


def test_every_record_is_covered():
    import spectrumshare

    records = {
        name
        for module in ("equilibrium", "measurement", "mechanism", "model", "scenario")
        for name, value in vars(getattr(spectrumshare, module)).items()
        if isinstance(value, type)
        and issubclass(value, tuple)
        and value.__module__ == f"spectrumshare.{module}"
        and not name.startswith("_")
    }
    assert records == set(RECORDS)


def test_repr_names_every_field(record):
    name, factory, fields = record
    value = factory()
    assert type(value).__name__ == name
    expected = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
    assert repr(value) == f"{name}({expected})"


def test_repr_spelling():
    assert repr(Message(3, HALF)) == "Message(proposal=3, price=Fraction(1, 2))"
    assert repr(Honest()) == "Honest()"
    assert repr(TableUtility((0, 1))) == (
        "TableUtility(scaling=IntegerScaling(scale=1, heights=(0, 1)))"
    )


def test_equal_and_hashed_by_value(record):
    _, factory, fields = record
    first, second = factory(), factory()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_every_field_takes_part_in_equality(record):
    _, factory, fields = record
    value = factory()
    for field in fields:
        assert value._replace(**{field: object()}) != value


def test_fields_cannot_be_assigned(record):
    _, factory, fields = record
    value = factory()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_keyword_construction_matches_positional(record):
    _, factory, fields = record
    value = factory()
    assert type(value)(**{field: getattr(value, field) for field in fields}) == value


def test_utility_flags_are_class_attributes():
    assert TableUtility.quasi_linear and SirLogUtility.quasi_linear
    assert not CubicTaxUtility.quasi_linear
    assert "quasi_linear" not in TableUtility._fields


def cold_imports(*names: str) -> str:
    """Which of `names` a fresh `python -S` (no site hooks) holds in
    `sys.modules` after importing `spectrumshare.cli`, as a sorted list."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = f"import sys, spectrumshare.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout.strip()


def test_cold_import_loads_no_dataclasses_inspect_or_typing():
    """Under `-S` none of the package's stdlib dependencies load these
    three, so the package must not either."""
    assert cold_imports("dataclasses", "inspect", "typing") == "[]"


def test_cold_import_loads_no_openssl():
    """The scenario digest comes from the builtin SHA-256 module (`_sha2`
    since CPython 3.12, `_sha256` before), so under `-S` importing the
    package loads neither `hashlib` nor its OpenSSL backend `_hashlib`."""
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no builtin SHA-256 module")
    assert cold_imports("hashlib", "_hashlib") == "[]"


def test_cold_import_loads_no_pathlib():
    """`--out` and `write_scenario` write with `open`, so under `-S`
    importing the package loads no `pathlib`."""
    assert cold_imports("pathlib") == "[]"
