"""Bundles, catalog bijection, SIR, and utility evaluation."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    ConfigError,
    CubicTaxUtility,
    Message,
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
    ProfileCatalog,
    as_fraction,
    build_report,
    enumerate_bundles,
    integer_scaling,
)
from spectrumshare.model import (
    MAX_BUNDLES,
    MAX_CATALOG_SIZE,
    MAX_DIGITS,
    MAX_VALUED_PROFILES,
    IntegerScaling,
    count_bundles,
    parse_decimal,
    read_table,
)

from conftest import (
    SIR_SHAPES,
    load_script,
    peak_table,
    peak_values,
    sir_configs,
    small_config,
    uniform_gains,
)
from grid_oracle import (
    column_sir_ratio,
    column_value_oracle,
    fraction_bundles,
    fraction_index,
    fraction_profile,
    fraction_sir,
    index_of,
    integer_scaling_oracle,
    sir_value_oracle,
    table_scaling_oracle,
)


def oracle_bundles(levels, bands, budget):
    """Independent enumeration: depth-first over bands with budget pruning."""
    found = []

    def descend(prefix, remaining):
        if len(prefix) == bands:
            found.append(tuple(prefix))
            return
        for level in levels:
            if level <= remaining:
                descend(prefix + [level], remaining - level)

    descend([], budget)
    return found


def powers(levels, bundles):
    """Level-index bundles as tuples of their levels."""
    return [tuple(levels[i] for i in bundle) for bundle in bundles]


class TestEnumerateBundles:
    def test_zero_only_level(self):
        assert enumerate_bundles((0,), 2, 5) == ((0, 0),)

    def test_desk_bundles_match_oracle(self):
        levels = (Fraction(0), Fraction(1), Fraction(2))
        got = enumerate_bundles(levels, 2, 2)
        assert got == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))
        assert powers(levels, got) == oracle_bundles(levels, 2, Fraction(2))

    def test_bundles_are_level_indices(self):
        levels = (0, Fraction(1, 2), Fraction(3, 2))
        assert enumerate_bundles(levels, 2, 2) == (
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)
        )

    def test_zero_budget_forces_zero_bundle(self):
        assert enumerate_bundles((0, 1), 1, 0) == ((0,),)

    @given(
        extra_levels=st.lists(
            st.fractions(min_value="1/4", max_value=4, max_denominator=8),
            min_size=0,
            max_size=3,
            unique=True,
        ),
        bands=st.integers(min_value=1, max_value=3),
        budget=st.fractions(min_value=0, max_value=6, max_denominator=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, extra_levels, bands, budget, data):
        """Level-index bundles, mapped through the levels, are the `Fraction`
        bundles of the builder they replaced, in order, and as many as
        `count_bundles` counts; `profile_of` decodes an index into the
        positions of the bundles the oracle decodes it into."""
        levels = tuple([Fraction(0)] + sorted(extra_levels))
        bundles = enumerate_bundles(levels, bands, budget)
        expected = fraction_bundles(levels, bands, budget)
        assert powers(levels, bundles) == list(expected) == oracle_bundles(levels, bands, budget)
        assert count_bundles(levels, bands, budget) == len(bundles)
        config = ScenarioConfig(
            num_users=3,
            num_bands=bands,
            quant_levels=levels,
            power_budget=budget,
            noise_half_density=1,
            gains=uniform_gains(3, bands),
            utilities=tuple(SirLogUtility(user, (1,) * bands) for user in range(3)),
        )
        assert config.bundles == bundles
        index = data.draw(st.integers(min_value=1, max_value=config.catalog.size))
        profile = [expected[position] for position in config.catalog.profile_of(index)]
        assert tuple(profile) == fraction_profile(config, index)

    def test_many_bands_within_budget(self):
        # 41 of the 2^40 level vectors fit, in lexicographic order
        got = enumerate_bundles((0, 1), 40, 1)
        assert list(got) == oracle_bundles((0, 1), 40, 1)
        assert len(got) == 41 and got[0] == (0,) * 40 and got[-1] == (1,) + (0,) * 39
        assert all(type(level) is int for bundle in got for level in bundle)

    def test_bound_is_the_cube_root_of_the_catalog_bound(self):
        assert MAX_BUNDLES**3 <= MAX_CATALOG_SIZE < (MAX_BUNDLES + 1) ** 3

    def test_refuses_past_the_bundle_bound_naming_num_bands(self, monkeypatch):
        from spectrumshare import model

        monkeypatch.setattr(model, "MAX_BUNDLES", 5)
        assert len(enumerate_bundles((0, 1), 2, 2)) == 4
        with pytest.raises(ConfigError) as err:
            enumerate_bundles((0, 1), 3, 3)
        assert err.value.field == "num_bands"

    def test_bound_admits_exactly_its_count(self, monkeypatch):
        from spectrumshare import model

        # levels 0, 1, 2 over 2 bands within budget 2: six bundles
        monkeypatch.setattr(model, "MAX_BUNDLES", 6)
        assert len(enumerate_bundles((0, 1, 2), 2, 2)) == 6
        monkeypatch.setattr(model, "MAX_BUNDLES", 5)
        with pytest.raises(ConfigError):
            enumerate_bundles((0, 1, 2), 2, 2)

    def test_rejects_empty_levels(self):
        with pytest.raises(ConfigError):
            enumerate_bundles((), 2, 1)

    def test_rejects_zero_bands(self):
        with pytest.raises(ConfigError):
            enumerate_bundles((0, 1), 0, 1)

    def test_rejects_missing_zero_level(self):
        with pytest.raises(ConfigError):
            enumerate_bundles((1, 2), 1, 2)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ConfigError):
            enumerate_bundles((0, 2, 1), 1, 2)


class TestCatalog:
    def test_single_bundle(self):
        catalog = ProfileCatalog(1, 3)
        assert catalog.size == 1
        assert catalog.profile_of(1) == (0, 0, 0)

    def test_desk_size_matches_counting_oracle(self):
        bundles = enumerate_bundles((0, 1, 2), 2, 2)
        catalog = ProfileCatalog(len(bundles), 3)
        assert catalog.size == len(list(product(range(len(bundles)), repeat=3))) == 216

    def test_config_counts_without_building(self, monkeypatch):
        from spectrumshare import model

        def never(*args):
            raise AssertionError("no bundle may be built")

        monkeypatch.setattr(model, "enumerate_bundles", never)
        assert small_config().catalog == ProfileCatalog(2, 3)

    def test_roundtrip_exhaustive(self):
        catalog = ProfileCatalog(4, 3)
        seen = set()
        for index in range(1, catalog.size + 1):
            profile = catalog.profile_of(index)
            assert index_of(catalog, profile) == index
            seen.add(profile)
        assert len(seen) == catalog.size

    def test_order_is_lexicographic_in_bundle_position(self):
        catalog = ProfileCatalog(2, 3)
        profiles = [catalog.profile_of(index) for index in range(1, catalog.size + 1)]
        assert profiles == list(product(range(2), repeat=3))

    @given(st.integers(min_value=1, max_value=216))
    def test_roundtrip_property(self, index):
        catalog = ProfileCatalog(6, 3)
        assert index_of(catalog, catalog.profile_of(index)) == index

    def test_index_zero_never_decodes(self):
        catalog = ProfileCatalog(2, 3)
        with pytest.raises(ValueError):
            catalog.profile_of(0)

    def test_overflow_reports_bound(self):
        with pytest.raises(ConfigError) as err:
            ProfileCatalog(10, 40)
        assert str(MAX_CATALOG_SIZE) in str(err.value)


def sir_probe_config(gains):
    size = 8
    return ScenarioConfig(
        num_users=3,
        num_bands=1,
        quant_levels=(0, 1),
        power_budget=1,
        noise_half_density=1,
        gains=gains,
        utilities=tuple(peak_table(size, 4) for _ in range(3)),
    )


class TestSir:
    def test_lone_transmitter(self):
        config = small_config()
        # user 0 at power 1, users 1 and 2 silent
        index = fraction_index(config, ((Fraction(1),), (Fraction(0),), (Fraction(0),)))
        assert fraction_sir(index, 0, 0, config) == 1

    def test_single_interferer(self):
        gains = uniform_gains(3, 1)
        config = sir_probe_config(gains)
        # interferer (user 1) at power 2 is out of reach here (levels {0,1});
        # cross gain 1/2 and power 1 gives interference 1/2
        index = fraction_index(config, ((Fraction(1),), (Fraction(1),), (Fraction(0),)))
        assert fraction_sir(index, 0, 0, config) == Fraction(1, 1 + Fraction(1, 2)) * 1
        assert fraction_sir(index, 0, 0, config) == Fraction(2, 3)

    def test_interferer_at_power_two(self):
        # direct gain 1, own power 1, noise 1, one interferer at gain 1/2, power 2
        config = ScenarioConfig(
            num_users=3,
            num_bands=1,
            quant_levels=(0, 1, 2),
            power_budget=2,
            noise_half_density=1,
            gains=uniform_gains(3, 1),
            utilities=tuple(peak_table(27, 1) for _ in range(3)),
        )
        index = fraction_index(config, ((Fraction(1),), (Fraction(2),), (Fraction(0),)))
        assert fraction_sir(index, 0, 0, config) == Fraction(1, 2)

    def test_zero_power_zero_sir(self):
        config = small_config()
        index = fraction_index(config, ((Fraction(0),), (Fraction(1),), (Fraction(0),)))
        assert fraction_sir(index, 0, 0, config) == 0

    def test_undefined_for_null_allocation(self):
        config = small_config()
        with pytest.raises(ValueError):
            fraction_sir(0, 0, 0, config)
        with pytest.raises(ValueError):
            fraction_sir(config.catalog.size + 1, 0, 0, config)

    @given(
        scale=st.fractions(min_value="1/8", max_value=16, max_denominator=16),
        index=st.integers(min_value=1, max_value=8),
        user=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneous_degree_zero(self, scale, index, user):
        base = small_config()
        scaled = ScenarioConfig(
            num_users=3,
            num_bands=1,
            quant_levels=base.quant_levels,
            power_budget=base.power_budget,
            noise_half_density=base.noise_half_density * scale,
            gains=tuple(
                tuple(tuple(g * scale for g in row) for row in plane) for plane in base.gains
            ),
            utilities=base.utilities,
        )
        difference = fraction_sir(index, user, 0, base) - fraction_sir(index, user, 0, scaled)
        assert difference == 0
        assert abs(float(difference)) < 1e-12
        # the integer column sums scale by one factor, so every term is the
        # same float and every value the same height
        spec = SirLogUtility(user=user, weights=(Fraction(3, 2),))
        assert spec.values(base) == spec.values(scaled)

    @pytest.mark.parametrize("shape", SIR_SHAPES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_value_vector_matches_per_index_loop(self, shape, data):
        config = data.draw(sir_configs(shapes=(shape,)))
        assert_matches_oracle(config)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_fraction_formula(self, data):
        config = data.draw(sir_configs())
        index = data.draw(st.integers(min_value=1, max_value=config.catalog.size))
        profile = [config.bundles[b] for b in config.catalog.profile_of(index)]
        for user in range(config.num_users):
            for band in range(config.num_bands):
                column = [bundle[band] for bundle in profile]
                ratio = Fraction(*column_sir_ratio(config, user, band, column))
                assert ratio == fraction_sir(index, user, band, config)

    def test_benchmark_shape(self):
        # 4 users, 2 bands, Q = {0, 1, 2}, budget 2: 6 bundles, 1296 profiles.
        gains = tuple(
            tuple(
                tuple(Fraction(3 + tx + band, 2) if tx == rx else Fraction(1, 2 + rx + band)
                      for band in range(2))
                for rx in range(4)
            )
            for tx in range(4)
        )
        config = sir_config(gains, (0, 1, 2), 2, noise=Fraction(7, 10))
        assert config.catalog.size == 1296
        assert_matches_oracle(config)

    def test_unreachable_level_columns(self):
        # Levels 2 and 7/2 exceed the budget and level 3/2 fits one band at
        # a time, so each band uses only some of the quantization levels.
        levels = (0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 2))
        config = sir_config(uniform_gains(3, 2, cross=Fraction(2, 3)), levels, Fraction(3, 2))
        codes = config.band_columns[0]
        assert len(config.integer_channels[0]) == 4
        assert len(codes) == config.catalog.size and max(codes) == 4**3 - 1
        assert_matches_oracle(config)

    def test_zero_interferer_gains(self):
        gains = uniform_gains(3, 2, direct=Fraction(5, 3), cross=Fraction(0))
        config = sir_config(gains, (0, 1, 2), 2, noise=Fraction(1, 3))
        assert_matches_oracle(config)
        index = fraction_index(config, ((Fraction(2), Fraction(0)),) * 3)
        assert fraction_sir(index, 1, 0, config) == 10


def sir_config(gains, levels, budget, noise=Fraction(1)) -> ScenarioConfig:
    users, bands = len(gains), len(gains[0][0])
    weights = [tuple(Fraction(u + b + 1, 2) for b in range(bands)) for u in range(users)]
    return ScenarioConfig(
        num_users=users,
        num_bands=bands,
        quant_levels=levels,
        power_budget=budget,
        noise_half_density=noise,
        gains=gains,
        utilities=tuple(SirLogUtility(user=u, weights=weights[u]) for u in range(users)),
    )


def assert_matches_oracle(config: ScenarioConfig) -> None:
    """Every `sir_log` value equals the `Fraction` SIR loop's and the
    per-column ratio walk's exactly, and is held as an int height in a list
    of a table that `TableUtility`'s own checks rebuild unchanged."""
    for spec in config.utilities:
        values = spec.values(config)
        assert type(values) is TableUtility and TableUtility(values.scaling) == values
        scale, heights = values.scaling
        assert type(heights) is list and all(type(height) is int for height in heights)
        expected = sir_value_oracle(spec, config)
        assert tuple(Fraction(height, scale) for height in heights) == expected
        assert column_value_oracle(spec, config) == expected


class TestIntegerScaling:
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**70), max_value=2**70),
                st.fractions(max_denominator=10**6),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_of_every_value(self, values):
        scaling = integer_scaling(values)
        assert (scaling.scale, scaling.heights) == integer_scaling_oracle(values)

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=2**70),
                st.fractions(min_value=0, max_denominator=10**6),
                st.decimals(min_value=0, max_value=10**6, places=4).map(str),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_table_specs_hold_every_value_exactly(self, values):
        values = [0, *values]
        for spec in (TableUtility(values), CubicTaxUtility(values, beta=1)):
            scale, heights = spec.scaling
            assert [Fraction(height, scale) for height in heights] == [Fraction(v) for v in values]

    @given(
        st.lists(
            st.one_of(
                # JSON ints, up to the digit bound of a scenario file
                st.integers(min_value=-(10**MAX_DIGITS) + 1, max_value=10**MAX_DIGITS - 1),
                st.integers(min_value=0, max_value=10**6),
                # reduced and unreduced "p/q" strings, a zero denominator among them
                st.fractions(min_value=0, max_denominator=10**6).map(str),
                st.tuples(st.integers(0, 10**6), st.integers(0, 10**3)).map("{0[0]}/{0[1]}".format),
                # "p/q" strings of 99 to 102 characters, around MAX_DIGITS
                st.tuples(st.integers(1, MAX_DIGITS), st.integers(MAX_DIGITS - 1, MAX_DIGITS + 2))
                .filter(lambda lengths: lengths[1] - lengths[0] >= 2)
                .map(lambda lengths: f"{'7' * lengths[0]}/{'3' * (lengths[1] - lengths[0] - 1)}"),
                # decimal strings, over-long ones among them, and JSON
                # decimals (parsed into Fractions) short enough to be read
                st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str),
                st.decimals(min_value=-(10**90), max_value=10**90, places=4).map(
                    lambda d: parse_decimal(str(d))
                ),
            ),
            max_size=12,
        )
    )
    # a 101-character decimal literal, one over MAX_DIGITS
    @example(["1" + "0" * 90 + "40265.3183"])
    @settings(max_examples=300, deadline=None)
    def test_read_table_matches_fraction_per_entry(self, values):
        try:
            expected = table_scaling_oracle(values)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as excinfo:
                read_table(values)
            assert str(excinfo.value) == str(exc)
            return
        scaling = read_table(values)
        assert scaling == expected
        assert type(scaling.heights) is tuple
        assert all(type(height) is int for height in scaling.heights)

    def test_spec_rebuilt_from_its_scaling_keeps_it(self):
        spec = TableUtility([0, "2/4", 3, Fraction(1, 3)])
        assert spec.scaling == IntegerScaling(6, (0, 3, 18, 2))
        assert TableUtility(scaling=spec.scaling).scaling is spec.scaling
        assert CubicTaxUtility(spec.scaling, beta=1).scaling is spec.scaling
        for scaling in (IntegerScaling(-1, (0, 1)), IntegerScaling(1, (0, -1))):
            with pytest.raises(ConfigError, match="non-negative"):
                TableUtility(scaling)
        with pytest.raises(ConfigError, match="start with value 0"):
            TableUtility(IntegerScaling(1, (1, 1)))


def with_user_zero(spec) -> ScenarioConfig:
    """`small_config` with `spec` as user 0's utility."""
    return small_config(utilities=(spec, *small_config().utilities[1:]))


VARIANTS = {
    "table": lambda: small_config().utilities[0],
    "cubic": lambda: CubicTaxUtility(peak_values(8, 4), beta=Fraction(1, 2)),
    "sir": lambda: SirLogUtility(user=0, weights=(Fraction(1),)),
}


def user_zero_values(spec):
    """`spec`'s values as user 0 of `small_config`, and that config."""
    config = with_user_zero(spec)
    return config.utilities[0].values(config), config


def over_one_denominator(*taxes):
    """Rational taxes as integer numerators over their least common
    denominator, and that denominator."""
    denominator = math.lcm(*(Fraction(tax).denominator for tax in taxes))
    return [int(tax * denominator) for tax in taxes], denominator


class TestUtilityEval:
    """Each variant's integer `value` over its `unit`, the one statement of
    its utility, read directly."""

    def test_table_subtracts_tax(self):
        values, _ = user_zero_values(TableUtility((Fraction(0),) + (Fraction(7),) * 8))
        assert values.value(3, 2, 1) == 5 * values.unit(1)

    def test_null_allocation_zero_at_zero_tax(self):
        config = small_config()
        for spec in config.utilities:
            values = spec.values(config)
            assert all(values.value(0, 0, denominator) == 0 for denominator in (1, 3))

    def test_cubic_tax_negative_tax_pays_out(self):
        values, _ = user_zero_values(CubicTaxUtility((Fraction(0),) + (Fraction(1),) * 8, beta=1))
        # V = 1 and -beta * (-1)**3 = 1
        assert values.value(2, -1, 1) == 2 * values.unit(1)

    def test_sir_log_weights(self):
        values, config = user_zero_values(SirLogUtility(user=0, weights=(Fraction(2),)))
        index = fraction_index(config, ((Fraction(1),), (Fraction(0),), (Fraction(0),)))
        # SIR 1 and weight 2: one float term, held exactly
        assert Fraction(values.value(index, 1, 2), values.unit(2)) == Fraction(
            2.0 * math.log1p(1.0)
        ) - Fraction(1, 2)

    def test_sir_log_weight_bound(self):
        with pytest.raises(ConfigError, match="weights"):
            SirLogUtility(user=0, weights=(Fraction(10**MAX_DIGITS),))
        config = with_user_zero(SirLogUtility(user=0, weights=(10**MAX_DIGITS - 1,)))
        scale, heights = config.utilities[0].values(config).scaling
        assert max(heights) > 10**(MAX_DIGITS - 1) * scale
        assert all(type(height) is int for height in heights)

    def test_value_budget_names_the_field(self):
        users = 1
        while 2**users <= MAX_VALUED_PROFILES:
            users += 1
        config = ScenarioConfig(
            num_users=users,
            num_bands=1,
            quant_levels=(0, 1),
            power_budget=1,
            noise_half_density=1,
            gains=uniform_gains(users, 1),
            utilities=tuple(SirLogUtility(user=u, weights=(1,)) for u in range(users)),
        )
        assert config.catalog.size == 2**users
        candidate = (Message(1, Fraction(0)),) * users
        with pytest.raises(ConfigError, match=r"scenario\.num_users"):
            build_report(candidate, config)
        # the best-response dynamics refuse where they build the values
        br_dynamics = load_script("br_convergence_experiment").br_dynamics
        with pytest.raises(ConfigError, match=str(MAX_VALUED_PROFILES)):
            br_dynamics(candidate, config)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @given(
        allocation=st.integers(min_value=1, max_value=8),
        tax=st.fractions(min_value=-4, max_value=4, max_denominator=8),
        bump=st.fractions(min_value="1/8", max_value=3, max_denominator=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_in_tax(self, variant, allocation, tax, bump):
        """The kernel's premise: over one denominator, and so one unit, a
        higher tax never gives a higher value."""
        values, _ = user_zero_values(VARIANTS[variant]())
        (low, high), denominator = over_one_denominator(tax, tax + bump)
        lower = values.value(allocation, high, denominator)
        higher = values.value(allocation, low, denominator)
        assert lower <= higher
        if variant in ("table", "sir"):
            assert lower < higher

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @given(
        allocation=st.integers(min_value=1, max_value=8),
        tax=st.fractions(min_value=-4, max_value=4, max_denominator=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_allocation_beats_null(self, variant, allocation, tax):
        values, _ = user_zero_values(VARIANTS[variant]())
        (numerator,), denominator = over_one_denominator(tax)
        assert values.value(allocation, numerator, denominator) >= values.value(
            0, numerator, denominator
        )


class TestScenarioConfig:
    def test_rejects_two_users(self):
        with pytest.raises(ConfigError, match="at least 3 users"):
            ScenarioConfig(
                num_users=2,
                num_bands=1,
                quant_levels=(0, 1),
                power_budget=1,
                noise_half_density=1,
                gains=uniform_gains(2, 1),
                utilities=(peak_table(4, 1), peak_table(4, 1)),
            )
        with pytest.raises(ConfigError, match="at least 3 users"):
            ScenarioConfig(2, 1, (0, 1), 1, 1, uniform_gains(2, 1), (peak_table(4, 1),) * 2)

    def test_rejects_wrong_table_length(self):
        with pytest.raises(ConfigError):
            small_config(utilities=(peak_table(7, 1), peak_table(8, 1), peak_table(8, 1)))

    def test_rejects_negative_gain(self):
        gains = [[[Fraction(1)] for _ in range(3)] for _ in range(3)]
        gains[0][1][0] = Fraction(-1)
        with pytest.raises(ConfigError):
            small_config_with_gains(gains)

    def test_rejects_zero_noise(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                num_users=3,
                num_bands=1,
                quant_levels=(0, 1),
                power_budget=1,
                noise_half_density=0,
                gains=uniform_gains(3, 1),
                utilities=tuple(peak_table(8, 4) for _ in range(3)),
            )

    def test_table_must_be_nonnegative_and_zero_based(self):
        with pytest.raises(ConfigError):
            TableUtility((Fraction(1),) + (Fraction(1),) * 8)
        with pytest.raises(ConfigError):
            TableUtility((Fraction(0), Fraction(-1)))
        for values in [(0, -1), (0, "-1/2"), (0, -0.5), (0, 2**70, -(2**70))]:
            with pytest.raises(ConfigError, match="non-negative"):
                TableUtility(values)
            with pytest.raises(ConfigError, match="non-negative"):
                CubicTaxUtility(values, 1)


def small_config_with_gains(gains):
    return ScenarioConfig(
        num_users=3,
        num_bands=1,
        quant_levels=(0, 1),
        power_budget=1,
        noise_half_density=1,
        gains=gains,
        utilities=tuple(peak_table(8, 4) for _ in range(3)),
    )


def fraction_or_none(text: str) -> Fraction | None:
    """The reference parse: `Fraction(str)`, or None where it raises or
    where the literal is over the input bound: its characters before any
    exponent plus the exponent's size exceed MAX_DIGITS, or its exponent has
    more than nine characters."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        size = len(mantissa) + (abs(int(exponent or 0)) if len(exponent) <= 9 else MAX_DIGITS + 1)
    except ValueError:
        size = len(mantissa)
    if size > MAX_DIGITS:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


# Digit runs with the spellings around them that `Fraction(str)` treats
# specially: signs, spaces, underscores, non-ASCII digits, leading zeros.
RATIO_PARTS = st.one_of(
    st.integers(0, 10**40).map(str),
    st.text(alphabet="0123456789", min_size=0, max_size=8),
    st.text(alphabet="0123456789_ +-.e\u00b2\u0663\u0664\uff15", max_size=6),
)
RATIO_STRINGS = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", RATIO_PARTS, RATIO_PARTS),
    st.builds(lambda *parts: "/".join(parts), RATIO_PARTS, RATIO_PARTS, RATIO_PARTS),
    RATIO_PARTS,
    st.text(max_size=12),
)


class TestAsFraction:
    @settings(max_examples=400, deadline=None)
    @given(RATIO_STRINGS)
    @example("6/4")
    @example("007/010")
    @example("5/0")
    @example("0/0")
    @example(" 5/2")
    @example("+5/2")
    @example("-5/2")
    @example("5/2/3")
    @example("1_0/2")
    @example("\u00b2/3")
    @example("\u0663/\u0664")
    @example("5/-2")
    @example("5/ 2")
    @example("7" * 5000 + "/3")
    @example("1" * MAX_DIGITS)
    @example("1" * (MAX_DIGITS + 1))
    @example("1e0000000001")
    @example("0e100")
    def test_string_parse_matches_fraction(self, text):
        expected = fraction_or_none(text)
        if expected is None:
            with pytest.raises(ConfigError):
                as_fraction(text)
        else:
            parsed = as_fraction(text)
            assert type(parsed) is Fraction
            assert (parsed.numerator, parsed.denominator) == (
                expected.numerator,
                expected.denominator,
            )

    def test_accepts_ratio_and_decimal_strings(self):
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction("0.1") == Fraction(1, 10)

    def test_float_uses_decimal_repr(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            as_fraction("one third")
        with pytest.raises(ConfigError):
            as_fraction(True)
