"""Scenario file schema: strictness, exact parsing, write/load round-trip."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrumshare import ConfigError, Honest, PilotCheat, ReportCheat, ScenarioConfig, SirLogUtility
from spectrumshare.cli import main
from spectrumshare.scenario import (
    MAX_GRID_PRICES,
    json_text,
    load_scenario,
    parse_scenario,
    rational_to_json,
    scenario_to_jsonable,
    write_scenario,
)

from conftest import desk_scenario, peak_table, small_config, small_scenario

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def document():
    return scenario_to_jsonable(small_scenario())


def load_document(tmp_path, document):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    return load_scenario(path)


class TestRoundTrip:
    def test_small_scenario(self, tmp_path):
        scenario = small_scenario()
        path = tmp_path / "small.json"
        write_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.config == scenario.config
        assert loaded.pi_step == scenario.pi_step
        assert loaded.pi_max == scenario.pi_max
        assert loaded.pilot_power == scenario.pilot_power
        assert loaded.behaviors == scenario.behaviors
        assert loaded.seed == scenario.seed
        assert loaded.digest

    def test_desk_scenario(self, tmp_path):
        scenario = desk_scenario()
        path = tmp_path / "desk.json"
        write_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.config == scenario.config
        assert loaded.config.catalog.size == 216

    def test_digest_tracks_file_content(self, tmp_path):
        first = load_document(tmp_path, scenario_to_jsonable(small_scenario(seed=1)))
        second = load_document(tmp_path, scenario_to_jsonable(small_scenario(seed=2)))
        assert first.digest != second.digest

    @pytest.mark.parametrize(
        "path",
        [ROOT / "scenarios" / "desk.json", *sorted((ROOT / "tests" / "golden").glob("*.scenario.json"))],
        ids=lambda path: path.name,
    )
    def test_digest_is_sha256_of_the_file(self, path):
        assert load_scenario(path).digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_behavior_variants_roundtrip(self, tmp_path):
        scenario = small_scenario()
        behaviors = (
            Honest(),
            PilotCheat((Fraction(2),)),
            ReportCheat("additive", (Fraction(1, 2),)),
        )
        doc = scenario_to_jsonable(
            type(scenario)(
                config=scenario.config,
                pi_step=scenario.pi_step,
                pi_max=scenario.pi_max,
                pilot_power=scenario.pilot_power,
                behaviors=behaviors,
                seed=scenario.seed,
                digest="",
            )
        )
        loaded = load_document(tmp_path, doc)
        assert loaded.behaviors == behaviors


class TestSchemaErrors:
    def test_unknown_top_level_key_named(self, tmp_path, document):
        document["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            load_document(tmp_path, document)

    def test_missing_key_named(self, tmp_path, document):
        del document["gains"]
        with pytest.raises(ConfigError, match="gains"):
            load_document(tmp_path, document)

    def test_unknown_grid_key_named(self, tmp_path, document):
        document["grid"]["pi_min"] = 0
        with pytest.raises(ConfigError, match="pi_min"):
            load_document(tmp_path, document)

    def test_two_users_rejected(self, tmp_path, document):
        document["num_users"] = 2
        document["gains"] = [[[1], [1]], [[1], [1]]]
        document["utilities"] = document["utilities"][:2]
        document["measurement"]["behaviors"] = document["measurement"]["behaviors"][:2]
        with pytest.raises(ConfigError, match="3 users"):
            load_document(tmp_path, document)

    def test_utility_count_mismatch(self, tmp_path, document):
        document["utilities"] = document["utilities"][:2]
        with pytest.raises(ConfigError, match="utilities"):
            load_document(tmp_path, document)

    def test_table_must_open_with_zero(self, tmp_path, document):
        document["utilities"][0]["values"][0] = 1
        with pytest.raises(ConfigError, match=r"utilities\[0\]"):
            load_document(tmp_path, document)

    def test_bad_variant_named(self, tmp_path, document):
        document["utilities"][1]["variant"] = "mystery"
        with pytest.raises(ConfigError, match="mystery"):
            load_document(tmp_path, document)

    def test_bad_behavior_mode(self, tmp_path, document):
        document["measurement"]["behaviors"][0] = {
            "variant": "report_cheat",
            "mode": "sideways",
            "amount": [1],
        }
        with pytest.raises(ConfigError, match="sideways"):
            load_document(tmp_path, document)
        with pytest.raises(ConfigError, match="sideways"):
            ReportCheat("sideways", (Fraction(1),))
        with pytest.raises(ConfigError, match="sideways"):
            ReportCheat(mode="sideways", amount=(Fraction(1),))

    def test_negative_gain_rejected(self, tmp_path, document):
        document["gains"][0][1][0] = -1
        with pytest.raises(ConfigError, match="gain"):
            load_document(tmp_path, document)

    def test_seed_must_fit_u64(self, tmp_path, document):
        document["seed"] = 2**64
        with pytest.raises(ConfigError, match="seed"):
            load_document(tmp_path, document)

    def test_oversized_grid_names_pi_step(self, tmp_path, document):
        document["grid"]["pi_step"] = "1/1000000000"
        with pytest.raises(ConfigError, match=r"scenario\.grid\.pi_step") as excinfo:
            load_document(tmp_path, document)
        assert str(MAX_GRID_PRICES) in str(excinfo.value)

    def test_grid_at_the_cap_accepted(self, tmp_path, document):
        document["grid"] = {"pi_step": 1, "pi_max": MAX_GRID_PRICES - 1}
        assert load_document(tmp_path, document).pi_max == MAX_GRID_PRICES - 1
        document["grid"]["pi_max"] = MAX_GRID_PRICES
        with pytest.raises(ConfigError, match=r"scenario\.grid\.pi_step"):
            load_document(tmp_path, document)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_table_value_named(self, tmp_path, document, flag):
        document["utilities"][0]["values"][3] = flag
        with pytest.raises(ConfigError, match=r"scenario\.utilities\[0\]\.values"):
            load_document(tmp_path, document)

    TABLE_REFUSALS = {
        "true": (True, ".values: expected a rational number, got True"),
        "zero-denominator": ("1/0", ".values: cannot parse rational from '1/0'"),
        "101-character ratio": (
            "1" * 50 + "/" + "1" * 50,
            ".values: number 11111111111111111111... exceeds 100 digits",
        ),
        "word": ("abc", ".values: cannot parse rational from 'abc'"),
        "null": (None, ".values: expected a rational number, got None"),
        "nested list": ([1, 2], ".values: expected a rational number, got [1, 2]"),
        "negative": ("-1/2", ": utility table values must be non-negative"),
    }

    @pytest.mark.parametrize("variant", ["table", "cubic_tax"])
    @pytest.mark.parametrize("value, message", TABLE_REFUSALS.values(), ids=TABLE_REFUSALS)
    def test_table_value_refusal_message(self, tmp_path, document, variant, value, message):
        utility = {"variant": variant, "values": document["utilities"][0]["values"]}
        if variant == "cubic_tax":
            utility["beta"] = "1/2"
        utility["values"][3] = value
        document["utilities"][0] = utility
        with pytest.raises(ConfigError) as excinfo:
            load_document(tmp_path, document)
        assert str(excinfo.value) == "scenario.utilities[0]" + message

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(path)


def mixed_document():
    """A valid document with every utility and behavior variant."""
    document = scenario_to_jsonable(small_scenario())
    utilities, behaviors = document["utilities"], document["measurement"]["behaviors"]
    utilities[1] = {"variant": "cubic_tax", "values": utilities[1]["values"], "beta": "1/2"}
    utilities[2] = {"variant": "sir_log", "weights": [1]}
    behaviors[1] = {"variant": "pilot_cheat", "scale": [2]}
    behaviors[2] = {"variant": "report_cheat", "mode": "additive", "amount": ["1/2"]}
    return document


def render(path) -> str:
    return "scenario" + "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)


def fields(node, path=()):
    """(path, kind) of every field below `node`, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        if isinstance(value, dict):
            kind = "object"
        elif isinstance(value, list):
            kind = "list"
        elif key in ("variant", "mode"):
            kind = "text"
        elif key in ("num_users", "num_bands", "seed"):
            kind = "integer"
        else:
            kind = "number"
        yield path + (key,), kind
        yield from fields(value, path + (key,))


SCALARS = {
    "int": st.integers(-3, 3),
    "null": st.none(),
    "string": st.text(alphabet="abxyz", max_size=3),
    "object": st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
    "list": st.lists(st.integers(0, 3), max_size=3),
}
# the JSON types that each kind of field refuses
WRONG = {
    "object": ("int", "null", "string", "list"),
    "list": ("int", "null", "string", "object"),
    "text": ("int", "null", "object", "list"),
    "integer": ("null", "string", "object", "list"),
    "number": ("null", "string", "object", "list"),
}
FIELDS = list(fields(mixed_document()))


@st.composite
def wrong_fields(draw):
    path, kind = draw(st.sampled_from(FIELDS))
    return path, draw(st.one_of(*(SCALARS[name] for name in WRONG[kind])))


def with_field(document, path, value):
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


# the list fields where a number or null once raised TypeError, and a
# string or an object was iterated by character or by key
LIST_FIELDS = {
    "gains[tx]": ("gains", 0),
    "gains[tx][rx]": ("gains", 0, 0),
    "table values": ("utilities", 0, "values"),
    "cubic_tax values": ("utilities", 1, "values"),
    "weights": ("utilities", 2, "weights"),
    "pilot_cheat scale": ("measurement", "behaviors", 1, "scale"),
    "report_cheat amount": ("measurement", "behaviors", 2, "amount"),
}


class TestWrongTypedFields:
    def test_mixed_document_loads(self, tmp_path):
        load_document(tmp_path, mixed_document())

    @given(wrong=wrong_fields())
    @example(wrong=(("gains", 0), 5))
    @example(wrong=(("gains", 0, 0), 5))
    @example(wrong=(("utilities", 0, "values"), 5))
    @example(wrong=(("utilities", 0, "values"), None))
    @example(wrong=(("utilities", 1, "values"), 5))
    @example(wrong=(("utilities", 1, "values"), None))
    @example(wrong=(("utilities", 2, "weights"), 5))
    @example(wrong=(("measurement", "behaviors", 1, "scale"), 5))
    @example(wrong=(("measurement", "behaviors", 2, "amount"), 5))
    @settings(max_examples=60, deadline=None)
    def test_wrong_typed_field_names_its_path(self, tmp_path_factory, wrong):
        path, value = wrong
        document = with_field(mixed_document(), path, value)
        with pytest.raises(ConfigError) as excinfo:
            load_document(tmp_path_factory.mktemp("wrong"), document)
        message = str(excinfo.value)
        # the field's own path or that of an object or list holding it
        holders = [render(path[:depth]) for depth in range(1, len(path) + 1)]
        assert any(message.startswith(f"{holder}: ") for holder in holders), (holders, message)

    @pytest.mark.parametrize(
        "value", [5, None, "ab", {"a": 1}], ids=["int", "null", "string", "object"]
    )
    @pytest.mark.parametrize("path", LIST_FIELDS.values(), ids=LIST_FIELDS)
    def test_wrong_typed_list_exits_2_naming_it(self, capsys, tmp_path, path, value):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(with_field(mixed_document(), path, value)))
        assert main(["enumerate", "--scenario", str(scenario)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {render(path)}: expected a list, got ")



# (resized field, its new value, the refusal): each names the field's path
SHAPE_REFUSALS = {
    "gains row": (("gains", 0, 1), [1, 1], "scenario.gains[0][1]: need 1 entries, got 2"),
    "gains planes": (("gains",), [[[1]] * 3] * 2, "scenario.gains: need 3 entries, got 2"),
    "gains rows": (("gains", 1), [[1]] * 2, "scenario.gains[1]: need 3 entries, got 2"),
    "table values": (
        ("utilities", 0, "values"),
        list(range(10)),
        "scenario.utilities[0].values: need 9 entries, got 10",
    ),
    "cubic_tax values": (
        ("utilities", 1, "values"),
        list(range(8)),
        "scenario.utilities[1].values: need 9 entries, got 8",
    ),
    "weights": (
        ("utilities", 2, "weights"),
        [1, 1],
        "scenario.utilities[2].weights: need 1 entries, got 2",
    ),
}


class TestShapeRefusals:
    @pytest.mark.parametrize("path, value, refusal", SHAPE_REFUSALS.values(), ids=SHAPE_REFUSALS)
    def test_wrong_length_exits_2_naming_it(self, capsys, tmp_path, path, value, refusal):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(with_field(mixed_document(), path, value)))
        assert main(["enumerate", "--scenario", str(scenario)]) == 2
        assert capsys.readouterr() == ("", f"error: {refusal}\n")

    def test_desk_table_of_218_entries(self, capsys, tmp_path):
        document = json.loads((ROOT / "scenarios" / "desk.json").read_text())
        document["utilities"][0]["values"].append(1)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(document))
        assert main(["enumerate", "--scenario", str(scenario)]) == 2
        assert capsys.readouterr().err == (
            "error: scenario.utilities[0].values: need 217 entries, got 218\n"
        )

    def test_config_built_in_python_refuses_them(self):
        config = small_config()
        fields = config._asdict()
        with pytest.raises(ConfigError) as excinfo:
            ScenarioConfig(**{**fields, "gains": ((((1,),) * 3,) * 2)})
        assert (excinfo.value.field, excinfo.value.reason) == ("gains", "need 3 entries, got 2")
        with pytest.raises(ConfigError, match=r"^gains\[0\]\[1\]: need 1 entries, got 2$"):
            ScenarioConfig(**{**fields, "gains": (((1,), (1, 1), (1,)),) + config.gains[1:]})
        with pytest.raises(ConfigError, match=r"^utilities\[1\]\.values: need 9 entries, got 8$"):
            short = (config.utilities[0], peak_table(7, 4), config.utilities[2])
            ScenarioConfig(**{**fields, "utilities": short})
        with pytest.raises(ConfigError, match=r"^utilities\[2\]\.weights: need 1 entries, got 2$"):
            sir = (*config.utilities[:2], SirLogUtility(2, (1, 1)))
            ScenarioConfig(**{**fields, "utilities": sir})


class TestRationalParsing:
    def test_float_literals_parse_as_decimals(self, tmp_path, document):
        path = tmp_path / "scenario.json"
        text = json.dumps(document).replace('"pi_step": "1/4"', '"pi_step": 0.25')
        path.write_text(text)
        assert load_scenario(path).pi_step == Fraction(1, 4)

    def test_ratio_strings_parse(self, tmp_path, document):
        document["grid"]["pi_step"] = "1/3"
        loaded = load_document(tmp_path, document)
        assert loaded.pi_step == Fraction(1, 3)

    def test_table_ints_parse_exactly(self, tmp_path, document):
        document["utilities"][0]["values"] = [0, 7, "5/2", 0.5, 2**70, 1, 1, 1, 1]
        scale, heights = load_document(tmp_path, document).config.utilities[0].scaling
        assert scale == 2
        assert heights == (0, 14, 5, 1, 2**71, 2, 2, 2, 2)
        assert all(type(height) is int for height in heights)

    def test_rational_to_json_lossless(self):
        assert rational_to_json(Fraction(5)) == 5
        assert rational_to_json(Fraction(-5, 3)) == "-5/3"


def test_parse_scenario_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_scenario(["not", "an", "object"], "")


# Text with quotes, backslashes, control characters, non-ASCII and astral
# characters, and lone surrogates, all of which the writer escapes.
json_strings = st.text() | st.text(
    alphabet=st.sampled_from('"\\/\n\t\x00\x1f\x7fé☃\U0001f600\ud800 a')
)
json_scalars = st.one_of(
    json_strings,
    st.integers(),
    st.integers(min_value=-(10**90), max_value=10**90),
    st.booleans(),
    st.none(),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=40,
)


class TestJsonText:
    """The one JSON writer against the stdlib encoder it replaced."""

    @given(json_documents)
    @example({"a": [], "b": {}, "c": ({"d": (1, Fraction(1, 3), Fraction(4, 2))},)})
    @example([1e16, -0.0, 2.5e-300, True, False, None, 10**80])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_stdlib_encoder(self, document):
        assert json_text(document) == json.dumps(document, indent=2, default=rational_to_json)
