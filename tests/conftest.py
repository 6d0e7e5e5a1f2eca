"""Shared builders: a tiny 8-profile scenario for fast checks, plus the desk
one, and a loader for the runnable scripts."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import reject
from hypothesis import strategies as st

from spectrumshare import (
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
    enumerate_bundles,
)
from spectrumshare.errors import ConfigError
from spectrumshare.measurement import Honest
from spectrumshare.scenario import Scenario, _scenario_of

from golden_cases import counted_builds
from grid_oracle import standard_grid

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """Import `scripts/<name>.py` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The desk scenario comes from the script that writes scenarios/desk.json.
_desk = load_script("make_desk_scenario")
DESK_PEAK_INDEX = _desk.DESK_PEAK_INDEX
desk_config = _desk.desk_config
desk_scenario = _desk.desk_scenario


def peak_values(size: int, peak: int, scale=1) -> tuple[Fraction, ...]:
    """Strictly single-peaked values; entry 0 is the null allocation."""
    values = [Fraction(0)]
    for index in range(1, size + 1):
        values.append(Fraction(scale) * (size + 24 - abs(index - peak)))
    return tuple(values)


def peak_table(size: int, peak: int, scale=1) -> TableUtility:
    """A `TableUtility` of `peak_values`."""
    return TableUtility(peak_values(size, peak, scale))


def uniform_gains(num_users: int, num_bands: int, direct=Fraction(1), cross=Fraction(1, 2)):
    return tuple(
        tuple(
            tuple(direct if tx == rx else cross for _ in range(num_bands))
            for rx in range(num_users)
        )
        for tx in range(num_users)
    )


def drawn_game(config_of, *args, **kwargs) -> ScenarioConfig:
    """`config_of(*args, **kwargs)`, a config built from a hypothesis draw,
    the draw rejected when every user's values are 0 on the whole catalog:
    a game that `ScenarioConfig` refuses, naming `utilities`."""
    try:
        return config_of(*args, **kwargs)
    except ConfigError as exc:
        if exc.field != "utilities":
            raise
        reject()


def small_config(peaks=(4, 4, 4), scales=(1, 2, 3), utilities=None) -> ScenarioConfig:
    """Three users, one band, levels {0,1}: a 2-bundle, 8-profile catalog."""
    if utilities is None:
        utilities = tuple(peak_table(8, p, s) for p, s in zip(peaks, scales))
    return ScenarioConfig(
        num_users=3,
        num_bands=1,
        quant_levels=(Fraction(0), Fraction(1)),
        power_budget=Fraction(1),
        noise_half_density=Fraction(1),
        gains=uniform_gains(3, 1),
        utilities=utilities,
    )


# (bands, levels, budget) of the generated SIR configs, with bundle counts
# from 2 to 8; three bands with budget 2 or 3 let several bands carry power
# at once, so a profile's value sums more than one non-zero term.
SIR_SHAPES = (
    (1, (0, 1), 1),
    (1, (0, 1, 2), 2),
    (1, (0, Fraction(1, 2), Fraction(3, 2)), Fraction(3, 2)),
    (2, (0, 1), 2),
    (2, (0, 1, 2), 2),
    (2, (0, Fraction(1, 2), Fraction(3, 2)), 2),
    (3, (0, 1), 2),
    (3, (0, 1), 3),
)


@st.composite
def sir_configs(draw, user_counts=(3, 4), shapes=SIR_SHAPES, max_profiles=600):
    """`sir_log` configs of one of `shapes` with random gains, noise and
    weights (zero included) and at most `max_profiles` profiles, in which
    some user's values are not all 0."""
    fitting = [
        (users, shape)
        for shape in shapes
        for users in user_counts
        if len(enumerate_bundles(shape[1], shape[0], shape[2])) ** users <= max_profiles
    ]
    users, (bands, levels, budget) = draw(st.sampled_from(fitting))
    rationals = st.fractions(min_value=0, max_value=3, max_denominator=5)
    row = st.lists(rationals, min_size=bands, max_size=bands)
    plane = st.lists(row, min_size=users, max_size=users)
    weights = st.lists(
        st.fractions(min_value=0, max_value=3, max_denominator=4), min_size=bands, max_size=bands
    )
    return drawn_game(
        ScenarioConfig,
        num_users=users,
        num_bands=bands,
        quant_levels=levels,
        power_budget=budget,
        noise_half_density=draw(st.fractions(min_value="1/10", max_value=2, max_denominator=10)),
        gains=draw(st.lists(plane, min_size=users, max_size=users)),
        utilities=tuple(SirLogUtility(user=u, weights=tuple(draw(weights))) for u in range(users)),
    )


def small_scenario(config: ScenarioConfig | None = None, seed: int = 7) -> Scenario:
    config = config if config is not None else small_config()
    return Scenario(
        config=config,
        pi_step=Fraction(1, 4),
        pi_max=Fraction(3),
        pilot_power=Fraction(1),
        behaviors=tuple(Honest() for _ in range(config.num_users)),
        seed=seed,
        digest="",
    )


@pytest.fixture(autouse=True)
def fresh_scenario_memo():
    """Clear `load_scenario`'s memo before each test, so that no test reuses
    a scenario, and the catalog cached on it, that an earlier test loaded:
    a test that patches a limit such as `model.MAX_BUNDLES` must see the
    document validated again."""
    _scenario_of.cache_clear()


def replace_tax_terms(monkeypatch, wrap) -> None:
    """Bind `wrap(tax_terms)` wherever a `spectrumshare` module binds
    `mechanism.tax_terms`."""
    from spectrumshare import mechanism

    original = mechanism.tax_terms
    replacement = wrap(original)
    for name, module in list(sys.modules.items()):
        if name.startswith("spectrumshare") and vars(module).get("tax_terms") is original:
            monkeypatch.setattr(module, "tax_terms", replacement)


@pytest.fixture
def tax_terms_calls(monkeypatch):
    """The profiles `mechanism.tax_terms` runs on, counted wherever a
    `spectrumshare` module binds it."""
    calls = []

    def counting(original):
        def counted(profile):
            calls.append(profile)
            return original(profile)

        return counted

    replace_tax_terms(monkeypatch, counting)
    return calls


@pytest.fixture
def sir_builds():
    """Every `SirLogUtility.values` build the test runs (`counted_builds`)."""
    with counted_builds() as builds:
        yield builds


@pytest.fixture(scope="session")
def small():
    return small_config()


@pytest.fixture(scope="session")
def small_grid(small):
    return standard_grid(small.catalog.size, small.num_users)


@pytest.fixture(scope="session")
def desk():
    return desk_config()


@pytest.fixture(scope="session")
def desk_scn():
    return desk_scenario()
