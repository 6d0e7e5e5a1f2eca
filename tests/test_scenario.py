"""Scenario file schema: strictness, exact parsing, write/load round-trip."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from spectrumshare import ConfigError, Honest, PilotCheat, ReportCheat
from spectrumshare.scenario import (
    MAX_GRID_PRICES,
    load_scenario,
    parse_scenario,
    rational_to_json,
    scenario_to_jsonable,
    write_scenario,
)

from conftest import desk_scenario, small_scenario

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
