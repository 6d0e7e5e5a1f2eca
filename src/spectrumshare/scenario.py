"""Input documents: the scenario file (strict JSON schema, exact-rational
parsing, round-trip), the `--messages` list and the `--psi` file.

A scenario file carries everything one run needs: the model (users, bands,
levels, budget, noise, gains, utilities), the price grid of the
best-response script (step and cap), the measurement setup (pilot power,
per-user behaviors), and the seed.
Every document is decoded by one bounded reader, `read_json`, and read
through one set of path-naming readers (`_read`, `_list`, `_integer`,
`_require_keys`), so unknown keys, wrong-typed fields and refusals of the
record constructors all name the offending field path or the object or
list that holds it.  Numeric literals are parsed as exact rationals; "p/q"
and decimal strings are accepted wherever a number is.  `rational_to_json`
is the JSON spelling of every rational the program writes, and `json_text`
the one writer of every JSON document.

`load_scenario` reads the scenario file on every call, so a missing or
rewritten file behaves as on the first call.  It keeps one validated
`Scenario`, that of the last bytes it parsed, and gives it back while the
file's bytes stay equal to them: a process that runs several commands on
one scenario decodes, hashes and validates it once.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

# CPython's builtin SHA-256 (`_sha2` since 3.12, `_sha256` before) gives the
# digest of `hashlib` without loading OpenSSL, which would add about 3.6 MiB
# to the peak memory of every command for one hash of the scenario file.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .equilibrium import LindahlAllocation
from .errors import ConfigError
from .measurement import AgentBehavior, Honest, PilotCheat, ReportCheat
from .mechanism import Message, message_prices
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


def _read(path: str, build, *args):
    """`build(*args)`, a reader or record constructor, with its refusal
    (`ConfigError`, or `ValueError` from `Message` or `message_prices`)
    prefixed with `path`, joined onto the refused field's path when the
    refusal names one."""
    try:
        return build(*args)
    except (ConfigError, ValueError) as exc:
        if getattr(exc, "field", ""):
            _fail(f"{path}.{exc.field}", exc.reason)
        _fail(path, str(exc))


def _list(value, path: str, length: int | None = None) -> list:
    """A JSON list, of `length` entries where given."""
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        _fail(path, f"need {length} entries, got {len(value)}")
    return value


def _rationals(value, path: str, length: int | None = None) -> tuple[Fraction, ...]:
    """A JSON list of input numbers as exact rationals."""
    return _read(path, lambda items: tuple(map(as_fraction, items)), _list(value, path, length))


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _variant(entry, path: str):
    if not isinstance(entry, dict) or "variant" not in entry:
        _fail(path, "expected an object with a 'variant' key")
    return entry["variant"]


def _values(entry, path: str) -> IntegerScaling:
    """A value list read straight into integer heights (`read_table`)."""
    path = f"{path}.values"
    return _read(path, read_table, _list(entry["values"], path))


def _parse_utility(entry, user: int, path: str) -> UtilitySpec:
    variant = _variant(entry, path)
    if variant == "table":
        _require_keys(entry, ("variant", "values"), path)
        return _read(path, TableUtility, _values(entry, path))
    if variant == "sir_log":
        _require_keys(entry, ("variant", "weights"), path)
        weights = f"{path}.weights"
        return _read(weights, SirLogUtility, user, _list(entry["weights"], weights))
    if variant == "cubic_tax":
        _require_keys(entry, ("variant", "values", "beta"), path)
        return _read(path, CubicTaxUtility, _values(entry, path), entry["beta"])
    _fail(path, f"unknown utility variant {variant!r}")


def _parse_behavior(entry, num_bands: int, path: str) -> AgentBehavior:
    variant = _variant(entry, path)
    if variant == "honest":
        _require_keys(entry, ("variant",), path)
        return Honest()
    if variant == "pilot_cheat":
        _require_keys(entry, ("variant", "scale"), path)
        scale = f"{path}.scale"
        return _read(scale, PilotCheat, _list(entry["scale"], scale, num_bands))
    if variant == "report_cheat":
        _require_keys(entry, ("variant", "mode", "amount"), path)
        amount = _list(entry["amount"], f"{path}.amount", num_bands)
        return _read(path, ReportCheat, entry["mode"], amount)
    _fail(path, f"unknown behavior variant {variant!r}")


def parse_scenario(data: dict, digest: str) -> Scenario:
    """Validate a decoded scenario document and build the typed scenario,
    which carries `digest`: the SHA-256 of the file's bytes."""
    _require_keys(data, _TOP_KEYS, "scenario")

    num_users = _integer(data["num_users"], "scenario.num_users")
    num_bands = _integer(data["num_bands"], "scenario.num_bands")
    gains = tuple(
        tuple(
            _rationals(row, f"scenario.gains[{tx}][{rx}]")
            for rx, row in enumerate(_list(plane, f"scenario.gains[{tx}]"))
        )
        for tx, plane in enumerate(_list(data["gains"], "scenario.gains"))
    )
    utilities = tuple(
        _parse_utility(entry, user, f"scenario.utilities[{user}]")
        for user, entry in enumerate(_list(data["utilities"], "scenario.utilities", num_users))
    )
    config = _read(
        "scenario",
        ScenarioConfig,
        num_users,
        num_bands,
        _rationals(data["quant_levels"], "scenario.quant_levels"),
        _read("scenario.power_budget", as_fraction, data["power_budget"]),
        _read("scenario.noise_half_density", as_fraction, data["noise_half_density"]),
        gains,
        utilities,
    )

    grid = data["grid"]
    _require_keys(grid, ("pi_step", "pi_max"), "scenario.grid")
    pi_step = _read("scenario.grid.pi_step", as_fraction, grid["pi_step"])
    pi_max = _read("scenario.grid.pi_max", as_fraction, grid["pi_max"])
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
    pilot_power = _read(
        "scenario.measurement.pilot_power", as_fraction, measurement["pilot_power"]
    )
    if pilot_power <= 0:
        _fail("scenario.measurement.pilot_power", "must be strictly positive")
    path = "scenario.measurement.behaviors"
    behaviors = tuple(
        _parse_behavior(entry, num_bands, f"{path}[{user}]")
        for user, entry in enumerate(_list(measurement["behaviors"], path, num_users))
    )

    seed = _integer(data["seed"], "scenario.seed")
    if not 0 <= seed < 2**64:
        _fail("scenario.seed", "must fit in an unsigned 64-bit integer")

    return Scenario(config, pi_step, pi_max, pilot_power, behaviors, seed, digest)


def read_file(path, field: str) -> bytes:
    """The bytes of the file at `path`; a file that cannot be read exits as
    a `ConfigError` that names `field`."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object, refused when it names one key twice (where
    `json.loads` would keep the last value)."""
    mapping = dict(pairs)
    if len(mapping) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"duplicate key '{key}'")
            seen.add(key)
    return mapping


def read_json(document, field: str):
    """Decode a JSON document, given as bytes or str: the one reader of
    every input document.  Its integers are held to MAX_DIGITS digits by one
    scan of the document (as UTF-8) for longer runs of digits, before it is
    decoded; its decimals become `Fraction`s through `parse_decimal`, and an
    object that repeats a key is refused.  Every error exits as a
    `ConfigError` that names `field`."""
    try:
        raw = document.encode() if isinstance(document, str) else document
        encoding = json.detect_encoding(raw)
        utf8 = raw if encoding.startswith("utf-8") else raw.decode(encoding, "replace").encode()
        check_digit_runs(utf8)
        return json.loads(document, parse_float=parse_decimal, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{field}: not valid JSON ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def read_messages(document, num_users: int) -> tuple[Message, ...]:
    """Decode `--messages`: one [proposal, price] pair or {"proposal": ...,
    "price": ...} object per user."""
    data = _list(read_json(document, "messages"), "messages", num_users)
    messages = []
    for user, entry in enumerate(data):
        path = f"messages[{user}]"
        if isinstance(entry, dict):
            _require_keys(entry, ("proposal", "price"), path)
            entry = [entry["proposal"], entry["price"]]
        messages.append(_read(path, Message, *_list(entry, path, 2)))
    return tuple(messages)


def read_psi(document, num_users: int, size: int) -> LindahlAllocation:
    """Decode a `--psi` file: an allocation index in 0..size and one tax and
    one personal price per user, the prices summing to zero (which
    `message_prices` decides)."""
    data = read_json(document, "psi")
    _require_keys(data, ("allocation", "taxes", "prices"), "psi")
    allocation = _integer(data["allocation"], "psi.allocation")
    if not 0 <= allocation <= size:
        _fail("psi.allocation", f"{allocation} is outside 0..{size}")
    taxes = _rationals(data["taxes"], "psi.taxes", num_users)
    prices = _rationals(data["prices"], "psi.prices", num_users)
    _read("psi.prices", message_prices, prices)
    return LindahlAllocation(allocation, taxes, prices)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file.  The file is read on every
    call; bytes equal to those of the last document validated in this
    process give back that document's `Scenario`, which is immutable, so its
    catalog and other cached properties are built once per content."""
    return _scenario_of(read_file(path, "scenario"))


@lru_cache(maxsize=1)
def _scenario_of(raw: bytes) -> Scenario:
    """The validated scenario of a scenario file's bytes, kept for the last
    bytes only; a refusal raises and is not kept."""
    return parse_scenario(read_json(raw, "scenario"), digest=sha256(raw).hexdigest())


def rational_to_json(value: Fraction):
    """Lossless JSON value for a rational (a `Fraction` or an int): int when
    whole, else 'p/q'."""
    return value.numerator if value.denominator == 1 else str(value)


def json_text(value, indent: str = "\n") -> str:
    """The text of `json.dumps(value, indent=2, default=rational_to_json)`,
    which runs the stdlib's pure-Python encoder: the one writer of every
    JSON document.  `value` holds dicts with string keys, lists, tuples,
    strings, ints, bools, None, finite floats and rationals; `indent` is the
    line break and indentation before its closing bracket."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [json_text(item, inner) for item in value]
        return f"[{inner}{f',{inner}'.join(items)}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{f',{inner}'.join(items)}{indent}}}"
    return json_text(rational_to_json(value), indent)


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
    with open(path, "w") as file:
        file.write(json_text(scenario_to_jsonable(scenario)) + "\n")
