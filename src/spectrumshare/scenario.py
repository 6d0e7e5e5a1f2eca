"""Scenario files: strict JSON schema, exact-rational parsing, round-trip.

A scenario file carries everything one run needs: the model (users, bands,
levels, budget, noise, gains, utilities), the price grid of the
best-response script (step and cap), the measurement setup (pilot power,
per-user behaviors), and the seed.
Unknown keys are rejected and every violation names the offending field
path.  Numeric literals are parsed as exact rationals; "p/q" and decimal
strings are accepted wherever a number is.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

# CPython's builtin SHA-256 gives the same digest as `hashlib`'s without
# loading OpenSSL, which would add about 3.6 MiB to the peak memory of every
# command for one hash of the scenario file.
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import ConfigError
from .measurement import AgentBehavior, Honest, PilotCheat, ReportCheat
from .model import (
    CubicTaxUtility,
    IntegerScaling,
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
    UtilitySpec,
    as_fraction,
    check_digit_runs,
    parse_decimal,
    read_table,
)

# The best-response script materializes the price grid to draw its random
# starts from, so its size is capped: floor(pi_max / pi_step) + 1 prices.
MAX_GRID_PRICES = 10**6

_TOP_KEYS = (
    "num_users",
    "num_bands",
    "quant_levels",
    "power_budget",
    "noise_half_density",
    "gains",
    "utilities",
    "grid",
    "measurement",
    "seed",
)


class Scenario(
    namedtuple("Scenario", "config pi_step pi_max pilot_power behaviors seed digest")
):
    """A fully validated scenario plus its run parameters: the
    `ScenarioConfig`, the price grid step and cap, the pilot power, one
    behavior per user, the seed, and the SHA-256 digest of the document."""

    __slots__ = ()


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _require_keys(mapping, required, path: str):
    if not isinstance(mapping, dict):
        _fail(path, f"expected an object, got {type(mapping).__name__}")
    for key in mapping:
        if key not in required:
            _fail(path, f"unknown key '{key}'")
    for key in required:
        if key not in mapping:
            _fail(path, f"missing key '{key}'")


def _rational(value, path: str) -> Fraction:
    try:
        return as_fraction(value)
    except ConfigError as exc:
        _fail(path, str(exc))


def _table(values, path: str) -> IntegerScaling:
    """A value list read straight into integer heights (`read_table`)."""
    try:
        return read_table(values)
    except ConfigError as exc:
        _fail(path, str(exc))


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _parse_utility(entry, user: int, num_bands: int, path: str) -> UtilitySpec:
    if not isinstance(entry, dict) or "variant" not in entry:
        _fail(path, "expected an object with a 'variant' key")
    variant = entry["variant"]
    try:
        if variant == "table":
            _require_keys(entry, ("variant", "values"), path)
            return TableUtility(_table(entry["values"], f"{path}.values"))
        if variant == "sir_log":
            _require_keys(entry, ("variant", "weights"), path)
            weights = tuple(_rational(w, f"{path}.weights") for w in entry["weights"])
            if len(weights) != num_bands:
                _fail(path, f"need {num_bands} band weights, got {len(weights)}")
            return SirLogUtility(user=user, weights=weights)
        if variant == "cubic_tax":
            _require_keys(entry, ("variant", "values", "beta"), path)
            return CubicTaxUtility(
                _table(entry["values"], f"{path}.values"),
                _rational(entry["beta"], f"{path}.beta"),
            )
    except ConfigError as exc:
        if str(exc).startswith(path):
            raise
        _fail(path, str(exc))
    _fail(path, f"unknown utility variant {variant!r}")


def _parse_behavior(entry, num_bands: int, path: str) -> AgentBehavior:
    if not isinstance(entry, dict) or "variant" not in entry:
        _fail(path, "expected an object with a 'variant' key")
    variant = entry["variant"]
    if variant == "honest":
        _require_keys(entry, ("variant",), path)
        return Honest()
    if variant == "pilot_cheat":
        _require_keys(entry, ("variant", "scale"), path)
        scale = tuple(_rational(s, f"{path}.scale") for s in entry["scale"])
        if len(scale) != num_bands:
            _fail(path, f"need {num_bands} per-band scale factors, got {len(scale)}")
        return PilotCheat(scale)
    if variant == "report_cheat":
        _require_keys(entry, ("variant", "mode", "amount"), path)
        amount = tuple(_rational(a, f"{path}.amount") for a in entry["amount"])
        if len(amount) != num_bands:
            _fail(path, f"need {num_bands} per-band amounts, got {len(amount)}")
        mode = entry["mode"]
        if mode not in ("additive", "multiplicative"):
            _fail(f"{path}.mode", f"expected additive|multiplicative, got {mode!r}")
        return ReportCheat(mode, amount)
    _fail(path, f"unknown behavior variant {variant!r}")


def parse_scenario(data: dict, digest: str) -> Scenario:
    """Validate a decoded scenario document and build the typed scenario,
    which carries `digest`: the SHA-256 of the file's bytes."""
    _require_keys(data, _TOP_KEYS, "scenario")

    num_users = _integer(data["num_users"], "scenario.num_users")
    num_bands = _integer(data["num_bands"], "scenario.num_bands")

    if not isinstance(data["quant_levels"], list):
        _fail("scenario.quant_levels", "expected a list of levels")
    if not isinstance(data["gains"], list):
        _fail("scenario.gains", "expected a 3-d array [tx][rx][band]")
    if not isinstance(data["utilities"], list):
        _fail("scenario.utilities", "expected a list of utility objects")
    if len(data["utilities"]) != num_users:
        _fail("scenario.utilities", f"need {num_users} entries, got {len(data['utilities'])}")
    utilities = tuple(
        _parse_utility(entry, user, num_bands, f"scenario.utilities[{user}]")
        for user, entry in enumerate(data["utilities"])
    )

    try:
        config = ScenarioConfig(
            num_users=num_users,
            num_bands=num_bands,
            quant_levels=tuple(
                _rational(q, "scenario.quant_levels") for q in data["quant_levels"]
            ),
            power_budget=_rational(data["power_budget"], "scenario.power_budget"),
            noise_half_density=_rational(
                data["noise_half_density"], "scenario.noise_half_density"
            ),
            gains=data["gains"],
            utilities=utilities,
        )
    except ConfigError as exc:
        if str(exc).startswith("scenario"):
            raise
        raise ConfigError(f"scenario: {exc}") from None

    grid = data["grid"]
    _require_keys(grid, ("pi_step", "pi_max"), "scenario.grid")
    pi_step = _rational(grid["pi_step"], "scenario.grid.pi_step")
    pi_max = _rational(grid["pi_max"], "scenario.grid.pi_max")
    if pi_step <= 0:
        _fail("scenario.grid.pi_step", "must be strictly positive")
    if pi_max < pi_step:
        _fail("scenario.grid.pi_max", "must be at least pi_step")
    prices = int(pi_max / pi_step) + 1
    if prices > MAX_GRID_PRICES:
        _fail(
            "scenario.grid.pi_step",
            f"pi_max / pi_step gives {prices} grid prices; the limit is {MAX_GRID_PRICES}",
        )

    measurement = data["measurement"]
    _require_keys(measurement, ("pilot_power", "behaviors"), "scenario.measurement")
    pilot_power = _rational(measurement["pilot_power"], "scenario.measurement.pilot_power")
    if pilot_power <= 0:
        _fail("scenario.measurement.pilot_power", "must be strictly positive")
    if not isinstance(measurement["behaviors"], list) or len(measurement["behaviors"]) != num_users:
        _fail("scenario.measurement.behaviors", f"need {num_users} entries")
    behaviors = tuple(
        _parse_behavior(entry, num_bands, f"scenario.measurement.behaviors[{user}]")
        for user, entry in enumerate(measurement["behaviors"])
    )

    seed = _integer(data["seed"], "scenario.seed")
    if not 0 <= seed < 2**64:
        _fail("scenario.seed", "must fit in an unsigned 64-bit integer")

    return Scenario(config, pi_step, pi_max, pilot_power, behaviors, seed, digest)


def read_json(document, field: str, parse_int=None):
    """Decode a JSON document whose decimals become `Fraction`s through
    `parse_decimal`; `parse_int` reads its integers (`int` when None).
    Every error exits as a `ConfigError` that names `field`."""
    try:
        return json.loads(document, parse_float=parse_decimal, parse_int=parse_int)
    except ValueError as exc:
        raise ConfigError(f"{field}: not valid JSON ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file.  Its integers are held to
    MAX_DIGITS digits by one scan of the document (as UTF-8) for longer
    runs of digits, before it is decoded."""
    raw = Path(path).read_bytes()
    encoding = json.detect_encoding(raw)
    utf8 = raw if encoding.startswith("utf-8") else raw.decode(encoding, "replace").encode()
    try:
        check_digit_runs(utf8)
    except ConfigError as exc:
        raise ConfigError(f"scenario: {exc}") from None
    data = read_json(raw, "scenario")
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    return parse_scenario(data, digest=sha256(raw).hexdigest())


def rational_to_json(value: Fraction):
    """Lossless JSON value for a rational: int when whole, else 'p/q'."""
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return str(value)


def _utility_to_json(spec: UtilitySpec) -> dict:
    if isinstance(spec, SirLogUtility):
        return {"variant": "sir_log", "weights": [rational_to_json(w) for w in spec.weights]}
    if not isinstance(spec, (TableUtility, CubicTaxUtility)):
        raise ConfigError(f"unknown utility spec {spec!r}")
    scale, heights = spec.scaling
    values = [rational_to_json(Fraction(height, scale)) for height in heights]
    if isinstance(spec, TableUtility):
        return {"variant": "table", "values": values}
    return {"variant": "cubic_tax", "values": values, "beta": rational_to_json(spec.beta)}


def _behavior_to_json(behavior: AgentBehavior) -> dict:
    if isinstance(behavior, Honest):
        return {"variant": "honest"}
    if isinstance(behavior, PilotCheat):
        return {"variant": "pilot_cheat", "scale": [rational_to_json(s) for s in behavior.scale]}
    if isinstance(behavior, ReportCheat):
        return {
            "variant": "report_cheat",
            "mode": behavior.mode,
            "amount": [rational_to_json(a) for a in behavior.amount],
        }
    raise ConfigError(f"unknown behavior {behavior!r}")


def scenario_to_jsonable(scenario: Scenario) -> dict:
    """Inverse of `parse_scenario`: a document that loads back equal."""
    config = scenario.config
    return {
        "num_users": config.num_users,
        "num_bands": config.num_bands,
        "quant_levels": [rational_to_json(q) for q in config.quant_levels],
        "power_budget": rational_to_json(config.power_budget),
        "noise_half_density": rational_to_json(config.noise_half_density),
        "gains": [
            [[rational_to_json(g) for g in row] for row in plane] for plane in config.gains
        ],
        "utilities": [_utility_to_json(spec) for spec in config.utilities],
        "grid": {
            "pi_step": rational_to_json(scenario.pi_step),
            "pi_max": rational_to_json(scenario.pi_max),
        },
        "measurement": {
            "pilot_power": rational_to_json(scenario.pilot_power),
            "behaviors": [_behavior_to_json(b) for b in scenario.behaviors],
        },
        "seed": scenario.seed,
    }


def write_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_jsonable(scenario), indent=2) + "\n")
