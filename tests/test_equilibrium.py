"""Exact NE certification, the Lindahl census, best response, and the Lindahl
bridge."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    ConfigError,
    ContractError,
    CubicTaxUtility,
    Deviation,
    LindahlAllocation,
    Message,
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
    balanced_prices,
    best_response,
    build_report,
    integer_scaling,
    lindahl_census,
    lindahl_to_ne,
    message_prices,
    outcome,
    price_intervals,
    tax_terms,
)
from spectrumshare.equilibrium import _balanced_intervals, price_line_optimum
from spectrumshare.mechanism import nearest_integer
from spectrumshare.model import IntegerScaling, ProfileCatalog

from conftest import (
    SIR_SHAPES,
    drawn_game,
    peak_table,
    peak_values,
    replace_tax_terms,
    sir_configs,
    small_config,
    uniform_gains,
)
from grid_oracle import (
    census_oracle,
    dict_price_intervals,
    exact_values,
    fraction_report,
    grid_deviations,
    grid_verify,
    interval_oracle,
    loop_census,
    personal_price,
    price_line_oracle,
    seeded_message_prices,
    sign_balances,
    standard_grid,
    tax_components,
    unanimity_scan,
    user_best_nonneg_tax,
    utility_of,
)

prices = st.fractions(min_value=0, max_value=3, max_denominator=4)
proposals = st.integers(min_value=-20, max_value=60)


def reply_of(user, profile, config):
    """`best_response` on the user's values, built for this one reply."""
    return best_response(user, profile, config.utilities[user].values(config))


def unanimity(index, price, num_users=3):
    return tuple(Message(index, Fraction(price)) for _ in range(num_users))


class TestMessageGrid:
    def test_standard_contents(self, small):
        grid = standard_grid(small.catalog.size, 3)
        assert set(range(small.catalog.size + 1)) <= set(grid.n_values)
        assert -1 in grid.n_values
        assert Fraction(0) in grid.pi_values
        assert grid.pi_values == tuple(Fraction(k, 4) for k in range(13))

    def test_escape_forces_infeasible_against_grid_minimum(self, small, small_grid):
        escape = small_grid.n_values[-1]
        others_minimum = 2 * small_grid.n_values[0]
        assert nearest_integer(others_minimum + escape, 3) > small.catalog.size

    @given(others=st.tuples(st.sampled_from(range(-1, 9)), st.sampled_from(range(-1, 9))))
    def test_escape_forces_infeasible_against_any_grid_others(self, others, small, small_grid):
        escape = small_grid.n_values[-1]
        total = sum(others) + escape
        average = nearest_integer(total, 3)
        assert not 1 <= average <= small.catalog.size


class TestVerifyNe:
    def test_common_peak_unanimity_is_ne(self, small):
        result = build_report(unanimity(4, 1), small)
        assert result.is_ne
        assert result.best_deviation is None

    @pytest.mark.parametrize("index", [1, 2, 3, 5, 6, 7, 8])
    def test_off_peak_unanimity_is_refuted(self, index, small):
        result = build_report(unanimity(index, 1), small)
        assert not result.is_ne
        deviation = result.best_deviation
        assert deviation is not None and deviation.gain > 0

    def test_reported_deviation_achieves_its_gain(self, small):
        candidate = unanimity(2, 1)
        result = build_report(candidate, small)
        deviation = result.best_deviation
        perturbed = list(candidate)
        perturbed[deviation.user] = deviation.message
        perturbed = tuple(perturbed)
        base = outcome(candidate, small.catalog)
        after = outcome(perturbed, small.catalog)
        user = deviation.user
        utility = utility_of(small, user)
        held = utility(base.allocation, base.taxes[user])
        moved = utility(after.allocation, after.taxes[user])
        assert moved - held == deviation.gain

    def test_priced_mismatch_is_never_ne(self, small):
        candidate = (
            Message(1, Fraction(1)),
            Message(2, Fraction(0)),
            Message(3, Fraction(0)),
        )
        result = build_report(candidate, small)
        assert not result.is_ne

    def test_off_grid_candidate_certified(self, small):
        assert build_report(unanimity(4, Fraction(1, 3)), small).is_ne
        far = (Message(500, Fraction(1)), Message(4, Fraction(1)), Message(4, Fraction(1)))
        result = build_report(far, small)
        assert not result.is_ne
        assert result.best_deviation.message.price == 0

    def test_null_allocation_is_never_ne(self, small, small_grid):
        # Two users on the escape proposal: no grid deviation reaches the
        # catalog, so the grid check passes a null allocation; the exact check
        # lets a user pull the average back.
        escape = Message(small_grid.n_values[-1], Fraction(0))
        candidate = (escape, escape, Message(4, Fraction(0)))
        assert grid_verify(candidate, small_grid, small)[0]
        result = build_report(candidate, small)
        assert not result.is_ne
        moved = outcome(
            candidate[: result.best_deviation.user]
            + (result.best_deviation.message,)
            + candidate[result.best_deviation.user + 1 :],
            small.catalog,
        )
        assert moved.allocation != 0


class TestBestResponse:
    def test_against_common_peak_unanimity(self, small):
        # proposal N*k - S = 3*4 - 8 puts the average exactly on the peak 4;
        # the reply always carries price 0
        reply = reply_of(0, unanimity(4, 1), small)
        assert reply == Message(4, Fraction(0))

    def test_reply_attains_the_maximum(self, small):
        profile = unanimity(4, 1)
        reply = reply_of(0, profile, small)
        moved = outcome((reply,) + profile[1:], small.catalog)
        value = utility_of(small, 0)(moved.allocation, moved.taxes[0])
        assert value == peak_values(8, 4, 1)[4]

    def test_price_zero_chosen_on_mismatch(self, small):
        profile = (Message(0, Fraction(1)), Message(8, Fraction(2)), Message(5, Fraction(1)))
        assert reply_of(0, profile, small).price == 0

    def test_opt_out_when_every_index_costs_too_much(self):
        # user 0's personal price (pi_1 - pi_2)/3 = 100 outweighs any value
        config = small_config()
        profile = (Message(4, Fraction(0)), Message(4, Fraction(300)), Message(4, Fraction(0)))
        reply = reply_of(0, profile, config)
        assert reply == Message(-8, Fraction(0))
        assert outcome((reply,) + profile[1:], config.catalog).allocation == 0


def census_allocations(config):
    return [entry.report.allocation for entry in lindahl_census(config).equilibria]


def scan_allocations(price, config):
    return [r.allocation for r in unanimity_scan(price, config) if r.is_ne]


class TestUnanimityScan:
    """The census against the zero-price unanimity scan it replaced."""

    def test_common_peak_finds_exactly_the_peak(self, small):
        assert scan_allocations(1, small) == [4]
        census = lindahl_census(small)
        assert census.complete
        assert [e.report.allocation for e in census.equilibria] == [4]

    def test_conflicting_peaks_find_nothing(self):
        # no allocation is everyone's top choice, so the zero-price scan finds
        # nothing; the census finds the peak of the middle user, with user 2
        # paying for the move user 1 wants and user 0 subsidized against it
        config = small_config(peaks=(1, 8, 4))
        assert scan_allocations(1, config) == []
        (entry,) = lindahl_census(config).equilibria
        assert entry.report.allocation == 4
        assert entry.price_intervals == ((-1, -1), (2, 2), (-3, 3))
        assert entry.report.prices == (-1, 2, -1)

    def test_single_profile_catalog_is_ne(self):
        config = ScenarioConfig(
            num_users=3,
            num_bands=1,
            quant_levels=(Fraction(0),),
            power_budget=Fraction(1),
            noise_half_density=Fraction(1),
            gains=uniform_gains(3, 1),
            utilities=tuple(peak_table(1, 1, s) for s in (1, 2, 3)),
        )
        assert config.catalog.size == 1
        (entry,) = lindahl_census(config).equilibria
        assert entry.report.allocation == 1
        assert entry.price_intervals == ((None, 25), (None, 50), (None, 75))
        assert entry.report.soundness_violations() == ()
        assert scan_allocations(1, config) == [1]

    def test_off_grid_price_scanned(self, small):
        assert scan_allocations(Fraction(1, 3), small) == census_allocations(small)

    def test_soundness_chain_over_scan(self, small):
        for config in (small, small_config(peaks=(1, 8, 4))):
            for entry in lindahl_census(config).equilibria:
                assert entry.report.is_ne
                assert entry.report.soundness_violations() == ()

    def test_soundness_chain_with_sir_utilities(self):
        config = small_config(
            utilities=tuple(SirLogUtility(user=u, weights=(Fraction(1),)) for u in range(3))
        )
        census = lindahl_census(config)
        assert census.complete
        assert set(scan_allocations(1, config)) <= set(census_allocations(config))
        for entry in census.equilibria:
            assert entry.report.soundness_violations() == ()

    def test_cubic_tax_utilities_share_the_peak(self):
        config = small_config(
            utilities=tuple(
                CubicTaxUtility(peak_values(8, 4, s), beta=Fraction(1, 2))
                for s in (1, 2, 3)
            )
        )
        census = lindahl_census(config)
        assert not census.complete
        (entry,) = census.equilibria
        assert entry.report.allocation == 4
        assert entry.price_intervals == ((0, 0),) * 3
        assert entry.report.soundness_violations() == ()
        assert scan_allocations(1, config) == [4]


class TestLindahlCensus:
    def test_desk_finds_only_the_peak(self, desk):
        census = lindahl_census(desk)
        assert census.complete
        (entry,) = census.equilibria
        assert entry.report.allocation == 108
        assert entry.report.prices == (-1, -1, 2)

    def test_desk_balances_prices_only_at_the_peak(self, desk, monkeypatch):
        # All 216 allocations are on every user's hull; the integer sign test
        # leaves `balanced_prices` only the equilibrium's intervals.
        from spectrumshare import equilibrium

        every_index = list(range(1, 217))
        assert all(price_intervals(spec.scaling)[0] == every_index for spec in desk.utilities)
        calls = []
        solve = equilibrium.balanced_prices
        monkeypatch.setattr(
            equilibrium,
            "balanced_prices",
            lambda intervals: calls.append(intervals) or solve(intervals),
        )
        (entry,) = lindahl_census(desk).equilibria
        assert entry.report.allocation == 108
        assert calls == [entry.price_intervals]

    def test_desk_census_bisects_for_the_balanced_run(self, desk, monkeypatch):
        # All 216 allocations are on every user's hull; two bisections make
        # at most ceil(log2 216) + 1 sign tests each, not one per allocation.
        from spectrumshare import equilibrium

        calls = []
        sign = equilibrium._sum_sign
        monkeypatch.setattr(
            equilibrium, "_sum_sign", lambda slopes: calls.append(slopes) or sign(slopes)
        )
        (entry,) = lindahl_census(desk).equilibria
        assert entry.report.allocation == 108
        assert 0 < len(calls) <= 2 * (math.ceil(math.log2(216)) + 1)

    @pytest.mark.parametrize(
        "last",
        [SirLogUtility(user=2, weights=(0,)), CubicTaxUtility((0,) + (1,) * 8, beta=1)],
        ids=["sir_log", "cubic_tax"],
    )
    def test_values_built_once_per_user_per_certificate(self, monkeypatch, last, sir_builds):
        # A sir_log user's values are built on the first request, once per
        # user and config, and held on the config for every later
        # certificate; a table's are built once, at construction.
        from spectrumshare import equilibrium, model

        config = small_config(
            utilities=(SirLogUtility(user=0, weights=(1,)), TableUtility((0,) + (1,) * 8), last)
        )
        sir_users = [0, 2] if isinstance(last, SirLogUtility) else [0]
        tables, scans = [], []
        table_scaling = model._table_scaling
        kernel = equilibrium.price_line_optimum
        monkeypatch.setattr(
            model, "_table_scaling", lambda values: tables.append(values) or table_scaling(values)
        )
        monkeypatch.setattr(
            equilibrium,
            "price_line_optimum",
            lambda values, *line: scans.append(values) or kernel(values, *line),
        )
        # User 0 pays exactly allocation * personal price, but its reply scan
        # runs with the credit 9 * 4 rebated, so its line is scanned again at
        # credit 0, on the same values.
        build_report((Message(4, 4), Message(1, 4), Message(4, 1)), config)
        assert sum(values is sir_builds[0].values for values in scans) == 2
        assert [build.user for build in sir_builds] == sir_users
        # the census's hulls and the certificate of each entry reuse them
        census = lindahl_census(config)
        assert census.equilibria
        assert [build.user for build in sir_builds] == sir_users
        assert sorted(config.held_values) == sir_users
        assert set(vars(config)) <= {
            "bundles", "catalog", "band_columns", "integer_channels", "held_values"
        }
        # a census alone builds each user's once, not once per entry too
        assert lindahl_census(ScenarioConfig(*config)) == census
        assert [build.user for build in sir_builds] == sir_users * 2
        assert tables == []

    def test_entry_rebuilt_at_smallest_seed_price(self):
        (entry,) = lindahl_census(small_config(peaks=(1, 8, 4))).equilibria
        prices = [m.price for m in entry.report.candidate]
        assert min(prices) == 0
        assert {m.proposal for m in entry.report.candidate} == {4}

    def test_no_equilibrium_when_prices_cannot_balance(self):
        # user 0's values are convex, so only the last index can be its best
        # point; there users 1 and 2 both want a subsidy it cannot fund
        convex = TableUtility(tuple(Fraction(k * k) for k in range(9)))
        config = small_config(
            utilities=(convex, peak_table(8, 1, 10), peak_table(8, 1, 1))
        )
        census = lindahl_census(config)
        assert census.complete
        assert census.equilibria == ()
        assert census_oracle(config) == {}

    def test_uncertified_entry_is_a_contract_violation(self, small, monkeypatch):
        from spectrumshare import equilibrium

        certify = equilibrium.build_report
        monkeypatch.setattr(
            equilibrium,
            "build_report",
            lambda candidate, config: certify(candidate, config)._replace(
                best_deviation=Deviation(0, Message(0, Fraction(0)), 1)
            ),
        )
        with pytest.raises(ContractError, match="census allocation 4"):
            lindahl_census(small)

    def test_flat_tables_list_every_allocation(self):
        # Every allocation of flat tables is an equilibrium at zero prices, so
        # all 1000 entries are certified, each with six full price-line scans.
        config = ScenarioConfig(
            num_users=3,
            num_bands=3,
            quant_levels=(0, 1, 2),
            power_budget=2,
            noise_half_density=1,
            gains=uniform_gains(3, 3),
            utilities=tuple(TableUtility((0,) + (scale,) * 1000) for scale in (1, 2, 3)),
        )
        started = time.perf_counter()
        census = lindahl_census(config)
        elapsed = time.perf_counter() - started
        assert [e.report.allocation for e in census.equilibria] == list(range(1, 1001))
        assert elapsed < 10, f"census of 1000 equilibria took {elapsed:.1f} s"

    def test_balanced_prices_rule(self):
        intervals = ((Fraction(-1), Fraction(1)), (Fraction(-2), Fraction(2)), (None, Fraction(3)))
        assert balanced_prices(intervals) == (-1, -2, 3)
        assert balanced_prices(intervals[:2]) == (-1, 1)
        assert balanced_prices(((None, Fraction(3)), (Fraction(-1), Fraction(1)))) == (-1, 1)
        assert balanced_prices(((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))) is None
        assert balanced_prices(((Fraction(-2), Fraction(-1)), (Fraction(0), Fraction(0)))) is None
        assert balanced_prices(((Fraction(1), Fraction(0)), (Fraction(-5), Fraction(5)))) is None
        assert balanced_prices(((Fraction(0), Fraction(0)), None)) is None

    def test_integer_balance_by_hand(self):
        # 1/3 - 1/3 = 0 balances at both ends
        assert sign_balances((((1, 3), (1, 3)), ((-1, 3), (-1, 3))))
        # uppers 1/2 - 2/3 < 0
        assert not sign_balances((((0, 1), (1, 2)), ((-1, 1), (-2, 3))))
        # lowers 1/2 - 1/3 > 0, unless one of them is minus infinity
        assert not sign_balances((((1, 2), (1, 1)), ((-1, 3), (0, 1))))
        assert sign_balances((((1, 2), (1, 1)), (None, (0, 1))))
        # large runs, as from a sir_log user's power-of-two scale
        assert not sign_balances((((0, 1), (1, 2**60)), ((0, 1), (-1, 2**60 - 1))))

    def test_price_intervals_by_hand(self):
        # points (0,0) (1,3) (2,4) (3,4): concave, so every index has an
        # interval: index 1 [1, 3], index 2 [0, 1], index 3 [-inf, 0]
        points = integer_scaling((0, 3, 4, 4))
        assert price_intervals(points) == ([1, 2, 3], [(3, 1), (1, 1), (0, 1), None])
        assert dict_price_intervals(points) == {
            1: ((1, 1), (3, 1)),
            2: ((0, 1), (1, 1)),
            3: (None, (0, 1)),
        }
        # (1,1) lies below the chord from (0,0) to (2,4): it is never best;
        # the slope of the edge from 0 to 2 keeps its run 2 * scale
        assert price_intervals(integer_scaling((0, 1, 4))) == ([2], [(4, 2), None])
        assert dict_price_intervals(integer_scaling((0, 1, 4))) == {2: (None, (4, 2))}
        assert price_intervals(integer_scaling((0, Fraction(1, 3)))) == ([1], [(1, 3), None])


class TestMismatchPenalties:
    def test_unanimity_vanishes(self):
        assert not any(tax_terms(unanimity(3, 2))[1])

    def test_zero_prices_vanish(self):
        profile = tuple(Message(n, Fraction(0)) for n in (1, 2, 3))
        assert not any(tax_terms(profile)[1])

    def test_priced_disagreement_detected(self):
        profile = (Message(1, Fraction(1)), Message(2, Fraction(0)), Message(3, Fraction(0)))
        assert tax_terms(profile)[1] == (3, 0, 0)


def aligned_profiles():
    """Profiles where every priced user agrees with the next one in the cycle."""

    def build(pairs):
        messages = []
        n = len(pairs)
        for i, (proposal, price) in enumerate(pairs):
            next_proposal = pairs[(i + 1) % n][0]
            messages.append(
                Message(proposal, price if proposal == next_proposal else Fraction(0))
            )
        return tuple(messages)

    return st.lists(st.tuples(proposals, prices), min_size=3, max_size=3).map(build)


class TestEquilibriumTaxForm:
    def test_unanimity_with_distinct_prices(self, small):
        profile = tuple(Message(5, Fraction(p)) for p in (3, 1, 2))
        report = build_report(profile, small)
        assert report.mismatch_penalties_vanish
        assert report.taxes == tuple(sum(tax_components(profile, u, 8)) for u in range(3))
        assert report.taxes == tuple(5 * personal_price(profile, u) for u in range(3))

    def test_equal_prices_give_zero(self, small):
        # at 50 the average leaves the catalog: every tax is 0 = 0 * price
        for index in (5, 50):
            report = build_report(unanimity(index, 2), small)
            assert report.mismatch_penalties_vanish
            assert report.taxes == (0, 0, 0)

    def test_precondition_enforced(self, small):
        profile = (Message(1, Fraction(1)), Message(2, Fraction(0)), Message(3, Fraction(0)))
        report = build_report(profile, small)
        assert not report.mismatch_penalties_vanish

    def test_broken_tax_rule_is_a_contract_violation(self, small, monkeypatch):
        from spectrumshare import equilibrium

        def swapped(profile, catalog):
            result = outcome(profile, catalog)
            return result._replace(taxes=result.taxes[::-1])

        monkeypatch.setattr(equilibrium, "outcome", swapped)
        profile = tuple(Message(5, Fraction(p)) for p in (3, 1, 2))
        with pytest.raises(ContractError, match="disagree with the tax rule"):
            build_report(profile, small)

    @given(aligned_profiles())
    @settings(max_examples=150, deadline=None)
    def test_reduced_form_equivalence(self, profile):
        catalog = ProfileCatalog(3, 3)
        result = outcome(profile, catalog)
        for u in range(3):
            reduced = result.allocation * personal_price(profile, u)
            assert result.taxes[u] == sum(tax_components(profile, u, catalog.size)) == reduced


class TestIndividualRationality:
    def test_unanimity_ne_is_rational_for_all(self, small):
        assert build_report(unanimity(4, 1), small).individual_rationality == (True, True, True)

    def test_flat_low_value_with_heavy_tax_fails(self):
        flat = tuple([Fraction(0)] + [Fraction(1)] * 8)
        config = small_config(utilities=tuple(TableUtility(flat) for _ in range(3)))
        profile = tuple(Message(n, Fraction(p)) for n, p in ((1, 1), (2, 2), (3, 3)))
        flags = build_report(profile, config).individual_rationality
        assert not all(flags)


class TestNeToLindahl:
    def test_unanimity_ne_at_equal_prices(self, small):
        report = build_report(unanimity(4, 1), small)
        assert report.prices == (0, 0, 0)
        assert report.prices_balance
        assert report.taxes_balance
        assert report.user_best == (True, True, True)
        assert report.user_best_nonneg_tax == (True, True, True)

    def test_off_peak_candidate_fails_price_line_check(self, small):
        report = build_report(unanimity(2, 1), small)
        assert report.prices_balance and report.taxes_balance
        assert not all(report.user_best)

    @given(pairs=st.lists(st.tuples(proposals, prices), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_balance_conditions_hold_for_any_profile(self, pairs, small):
        profile = tuple(Message(n, p) for n, p in pairs)
        report = build_report(profile, small)
        assert report.prices_balance
        assert report.taxes_balance


class TestLindahlToNe:
    def test_zero_prices_unanimity(self, small):
        psi = LindahlAllocation(4, (0, 0, 0), (0, 0, 0))
        messages = lindahl_to_ne(psi, 2, small.catalog)
        assert messages == unanimity(4, 2)

    def test_hand_computed_price_system(self, small):
        psi = LindahlAllocation(
            2,
            (Fraction(-2, 3), Fraction(-2, 3), Fraction(4, 3)),
            (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)),
        )
        messages = lindahl_to_ne(psi, 3, small.catalog)
        assert tuple(m.price for m in messages) == (3, 1, 2)
        assert tuple(m.proposal for m in messages) == (2, 2, 2)
        assert tuple(personal_price(messages, u) for u in range(3)) == psi.prices
        result = outcome(messages, small.catalog)
        assert result.allocation == psi.allocation
        assert result.taxes == psi.taxes

    def test_inconsistent_prices_rejected(self, small):
        psi = LindahlAllocation(1, (0, 0, 0), (Fraction(1), Fraction(0), Fraction(0)))
        with pytest.raises(ValueError, match="sum to zero"):
            lindahl_to_ne(psi, 10, small.catalog)

    def test_too_small_seed_price_reports_minimum(self, small):
        psi = LindahlAllocation(
            2,
            (Fraction(-2, 3), Fraction(-2, 3), Fraction(4, 3)),
            (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)),
        )
        with pytest.raises(ConfigError, match="the smallest feasible seed price is 2$"):
            lindahl_to_ne(psi, 0, small.catalog)
        assert min(m.price for m in lindahl_to_ne(psi, 2, small.catalog)) == 0

    @given(
        # zero-sum "p/q" personal prices of 3 to 8 users
        personal=st.lists(st.fractions(-5, 5, max_denominator=12), min_size=2, max_size=7)
        .map(lambda prices: [*prices, -sum(prices, Fraction(0))])
        .flatmap(st.permutations)
        .map(tuple),
        lift=st.fractions(min_value=0, max_value=5, max_denominator=12),
        drop=st.fractions(min_value=0, max_value=5, max_denominator=12).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_inverse_matches_seeded_solve(self, personal, lift, drop):
        least = message_prices(personal)
        minimum = seeded_message_prices(personal, 0)[1]
        assert list(least) == seeded_message_prices(personal, minimum)[0]
        assert min(least) == 0
        rebuilt = tuple(Message(1, price) for price in least)
        assert tuple(personal_price(rebuilt, u) for u in range(len(personal))) == personal
        catalog = ProfileCatalog(2, len(personal))
        psi = LindahlAllocation(1, personal, personal)
        seed = minimum + lift
        solved = seeded_message_prices(personal, seed)[0]
        assert [m.price for m in lindahl_to_ne(psi, seed, catalog)] == solved
        with pytest.raises(ConfigError, match=f"smallest feasible seed price is {minimum}$"):
            lindahl_to_ne(psi, minimum - drop, catalog)

    def test_roundtrip_from_found_ne(self):
        # the priced equilibrium of conflicting peaks, rebuilt at another seed price
        config = small_config(peaks=(1, 8, 4))
        reports = [entry.report for entry in lindahl_census(config).equilibria]
        assert reports
        for report in reports:
            assert report.soundness_violations() == ()
            psi = LindahlAllocation(report.allocation, report.taxes, report.prices)
            rebuilt = lindahl_to_ne(psi, 10, config.catalog)
            assert build_report(rebuilt, config).is_ne
            result = outcome(rebuilt, config.catalog)
            assert result.allocation == psi.allocation
            assert result.taxes == psi.taxes
            assert tuple(personal_price(rebuilt, u) for u in range(3)) == psi.prices


class TestReports:
    def test_report_fields_for_ne(self, small):
        report = build_report(unanimity(4, 1), small)
        assert report.is_ne
        assert report.allocation == 4
        assert report.feasible
        assert report.mismatch_penalties_vanish
        assert all(report.individual_rationality)
        assert report.user_best == (True, True, True)
        assert report.soundness_violations() == ()

    def test_lindahl_certified_for_non_ne(self, small):
        report = build_report(unanimity(2, 1), small)
        assert not report.is_ne
        assert (report.allocation, report.taxes, report.prices) == (2, (0, 0, 0), (0, 0, 0))
        assert report.user_best == (False, False, False)

    def test_ne_off_the_price_line_is_a_violation(self, small):
        report = build_report(unanimity(4, 1), small)
        off_line = report._replace(user_best=(True, False, True))
        assert report.soundness_violations() == ()
        assert off_line.soundness_violations() == (
            "NE off a user's personal price line optimum",
        )

    def test_off_line_users_are_not_scanned(self, small, monkeypatch):
        from spectrumshare import equilibrium

        scans = []
        kernel = equilibrium.price_line_optimum

        def counted(values, *line):
            scans.append(small.utilities.index(values))
            return kernel(values, *line)

        monkeypatch.setattr(equilibrium, "price_line_optimum", counted)
        # Infeasible average: a null allocation is never best on a price
        # line, so only the reply scans run, user 2's with credit 2500.
        report = build_report((Message(-50, 1), Message(0, 2), Message(0, 0)), small)
        assert report.user_best == (False, False, False)
        assert sorted(scans) == [0, 1, 2]

    def test_tax_terms_run_once_per_report(self, small, tax_terms_calls):
        candidates = [
            unanimity(4, 1),
            (Message(-50, 1), Message(0, 2), Message(0, 0)),
            (Message(4, 4), Message(1, 4), Message(4, 1)),
        ]
        for candidate in candidates:
            build_report(candidate, small)
        assert tax_terms_calls == candidates

    def test_lent_scan_with_credit_is_not_reused(self, small, monkeypatch):
        # User 0 pays exactly allocation * personal price, but its reply scan
        # runs with the credit c_0 = 9 * 4 rebated; only its Lindahl verdict
        # needs the line at credit 0.
        from spectrumshare import equilibrium

        scans = []
        kernel = equilibrium.price_line_optimum

        def counted(values, slope, offset, denominator):
            scans.append((small.utilities.index(values), Fraction(offset, denominator)))
            return kernel(values, slope, offset, denominator)

        monkeypatch.setattr(equilibrium, "price_line_optimum", counted)
        candidate = (Message(4, 4), Message(1, 4), Message(4, 1))
        report = build_report(candidate, small)
        assert [credit for user, credit in scans if user == 0] == [36, 0]
        assert report.user_best == (True, False, False)

    def test_exact_ne_is_best_on_price_line(self, small):
        for price in (0, Fraction(1, 3), 1):
            for report in unanimity_scan(price, small):
                if report.is_ne:
                    assert report.user_best == (True, True, True)


ORACLE_CONFIGS = {
    "table": small_config(),
    "sir_log": small_config(
        utilities=tuple(SirLogUtility(user=u, weights=(Fraction(u + 1),)) for u in range(3))
    ),
    "cubic_tax": small_config(
        utilities=tuple(
            CubicTaxUtility(peak_values(8, p, s), beta=Fraction(1, 2))
            for p, s in ((4, 1), (3, 2), (5, 3))
        )
    ),
}
ORACLE_GRID = standard_grid(8, 3)
grid_messages = st.builds(
    Message, st.sampled_from(ORACLE_GRID.n_values), st.sampled_from(ORACLE_GRID.pi_values)
)
candidates = st.one_of(
    st.tuples(grid_messages, grid_messages, grid_messages),
    st.builds(unanimity, st.integers(min_value=1, max_value=8), prices),
    st.lists(st.tuples(proposals, prices), min_size=3, max_size=3).map(
        lambda pairs: tuple(Message(n, p) for n, p in pairs)
    ),
)


def best_gain(deviation):
    return 0 if deviation is None else deviation.gain


def realized_gain(candidate, user, message, config):
    moved = candidate[:user] + (message,) + candidate[user + 1 :]
    before = outcome(candidate, config.catalog)
    after = outcome(moved, config.catalog)
    utility = utility_of(config, user)
    held = utility(before.allocation, before.taxes[user])
    return utility(after.allocation, after.taxes[user]) - held


@pytest.mark.parametrize("variant", sorted(ORACLE_CONFIGS))
class TestExactAgainstGridOracle:
    """The price-line kernel against the grid scan it replaced."""

    @given(candidate=candidates)
    @settings(max_examples=80, deadline=None)
    def test_exact_ne_implies_grid_ne(self, variant, candidate):
        config = ORACLE_CONFIGS[variant]
        if build_report(candidate, config).is_ne:
            assert grid_verify(candidate, ORACLE_GRID, config)[0]

    @given(candidate=candidates)
    @settings(max_examples=80, deadline=None)
    def test_exact_gain_dominates_grid_gain(self, variant, candidate):
        config = ORACLE_CONFIGS[variant]
        exact = best_gain(build_report(candidate, config).best_deviation)
        assert exact >= best_gain(grid_verify(candidate, ORACLE_GRID, config)[1])

    @given(candidate=candidates)
    @settings(max_examples=80, deadline=None)
    def test_reported_deviation_achieves_its_gain(self, variant, candidate):
        config = ORACLE_CONFIGS[variant]
        deviation = build_report(candidate, config).best_deviation
        if deviation is not None:
            gain = realized_gain(candidate, deviation.user, deviation.message, config)
            assert gain == deviation.gain

    @given(candidate=candidates, user=st.integers(min_value=0, max_value=2))
    @settings(max_examples=80, deadline=None)
    def test_best_response_dominates_every_grid_reply(self, variant, candidate, user):
        config = ORACLE_CONFIGS[variant]
        reply = reply_of(user, candidate, config)
        value = realized_gain(candidate, user, reply, config)
        for message, _ in grid_deviations(user, candidate, ORACLE_GRID, config):
            assert value >= realized_gain(candidate, user, message, config)

    @given(candidate=candidates)
    @settings(max_examples=80, deadline=None)
    def test_nonneg_tax_verdict_matches_loop(self, variant, candidate):
        config = ORACLE_CONFIGS[variant]
        report = build_report(candidate, config)
        expected = user_best_nonneg_tax(candidate, config)
        assert (report.user_best, report.user_best_nonneg_tax) == expected


# Arbitrary tables rarely share an equilibrium; single-peaked ones with
# nearby peaks often do.
values_tables = st.one_of(
    st.lists(st.fractions(min_value=0, max_value=12, max_denominator=3), min_size=8, max_size=8),
    st.builds(
        lambda peak, scale: list(peak_values(8, peak, scale)[1:]),
        st.integers(min_value=3, max_value=5),
        st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
    ),
).map(lambda values: (Fraction(0), *values))


def user_utilities(user):
    return st.one_of(
        values_tables.map(TableUtility),
        st.builds(
            lambda weights: SirLogUtility(user=user, weights=(weights,)),
            st.fractions(min_value=0, max_value=3, max_denominator=4),
        ),
        st.builds(
            CubicTaxUtility,
            values_tables,
            st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4),
        ),
    )


census_configs = st.tuples(user_utilities(0), user_utilities(1), user_utilities(2)).map(
    lambda utilities: drawn_game(small_config, utilities=utilities)
)
grid_prices = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def fraction_interval(ends):
    """One hull point's (lower, upper) ends, integer slopes whose runs must
    be positive, as a `Fraction` interval."""
    lower, upper = ends
    assert all(run > 0 for _, run in filter(None, ends))
    return (None if lower is None else Fraction(*lower), Fraction(*upper))


def hull_edges(hull):
    """`price_intervals`' two lists as {k: (lower, upper)} slope ends."""
    vertices, slopes = hull
    assert len(slopes) == len(vertices) + 1 and slopes[-1] is None
    return {k: (slopes[n + 1], slopes[n]) for n, k in enumerate(vertices)}


def fraction_intervals(hull):
    return {k: fraction_interval(ends) for k, ends in hull_edges(hull).items()}


def nonempty_oracle_intervals(values):
    """The oracle's intervals as {k: interval} at the indices where they are
    non-empty, which are exactly the points of the upper hull."""
    return {
        k: (lower, upper)
        for k, (lower, upper) in enumerate(interval_oracle(values), start=1)
        if lower is None or lower <= upper
    }


# Users of the generated 3-user, 1-band games, by the shape of their table:
# concave ones whose slopes come from a few small integers, so that sums of
# slopes often tie at 0; rising concave ones, whose last index has no lower
# end; flat, linear up and linear down ones, with every index on the hull;
# arbitrary ones; and cubic_tax users with several top indices.
GAME_KINDS = ("concave", "rising", "flat", "up", "down", "random", "cubic")


def game_heights(kind, size, rng):
    if kind == "flat":
        return [0] + [rng.randint(1, 5)] * size
    if kind == "up":
        return list(range(size + 1))
    if kind == "down":
        return [0, *range(size, 0, -1)]
    if kind in ("random", "cubic"):
        return [0] + [rng.randint(0, 2 if kind == "cubic" else 20) for _ in range(size)]
    low = 1 if kind == "rising" else -2
    steps = sorted((rng.randint(low, 2) for _ in range(size)), reverse=True)
    heights = [0]
    for step in steps:
        heights.append(heights[-1] + step)
    # lifting every index but 0 steepens only the first edge: still concave
    lift = max(0, -min(heights))
    return [0] + [height + lift for height in heights[1:]]


def large_game(levels, kinds, seed):
    """Three users of `kinds` over one band with levels 0..levels, so
    (levels + 1)^3 profiles.  Tables other than flat and linear ones are
    divided by a denominator of their own."""
    rng = random.Random(seed)
    size = (levels + 1) ** 3
    utilities = []
    for kind in kinds:
        denominator = 1 if kind in ("flat", "up", "down") else rng.choice((1, 2, 3, 7))
        values = [Fraction(height, denominator) for height in game_heights(kind, size, rng)]
        if kind == "cubic":
            utilities.append(CubicTaxUtility(values, beta=Fraction(1, 2)))
        else:
            utilities.append(TableUtility(values))
    return ScenarioConfig(
        num_users=3,
        num_bands=1,
        quant_levels=range(levels + 1),
        power_budget=levels,
        noise_half_density=1,
        gains=uniform_gains(3, 1),
        utilities=tuple(utilities),
    )


# from 1,000 to 4,096 profiles
large_games = st.builds(
    large_game,
    st.integers(min_value=9, max_value=15),
    st.tuples(*[st.sampled_from(GAME_KINDS)] * 3),
    st.integers(min_value=0, max_value=2**32),
)


class TestCensusAgainstOracles:
    """The hull census against the O(N * size^2) interval scan, the exact NE
    check, the Lindahl rebuild, and the unanimity scan."""

    @given(
        values=st.one_of(
            st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
            st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=40),
            st.lists(st.fractions(min_value=0, max_value=50, max_denominator=7), max_size=40),
        )
    )
    # (0,0) (1,1) (2,2) (3,3) is one collinear run: 1 and 2 get [1, 1]
    @example(values=[1, 2, 3, 3, Fraction(5, 2)])
    @settings(max_examples=200, deadline=None)
    def test_hull_intervals_match_oracle(self, values):
        values = [0, *values]
        intervals = fraction_intervals(price_intervals(integer_scaling(values)))
        assert intervals == nonempty_oracle_intervals(values)

    @given(config=census_configs)
    @settings(max_examples=100, deadline=None)
    def test_census_matches_oracle(self, config):
        census = lindahl_census(config)
        assert census.complete == all(spec.quasi_linear for spec in config.utilities)
        found = {e.report.allocation: e.price_intervals for e in census.equilibria}
        assert found == census_oracle(config)
        for spec in config.utilities:
            if spec.quasi_linear:
                intervals = fraction_intervals(price_intervals(spec.values(config).scaling))
                assert intervals == nonempty_oracle_intervals(exact_values(spec, config))

    # the SIR shapes of at most 64 profiles at three users, where the
    # O(N * size^2) oracle stays cheap; two bands sum two float terms
    @given(config=sir_configs(user_counts=(3,), shapes=SIR_SHAPES[:4]))
    @settings(max_examples=40, deadline=None)
    def test_census_matches_oracle_on_multiband_sir(self, config):
        found = {e.report.allocation: e.price_intervals for e in lindahl_census(config).equilibria}
        assert found == census_oracle(config)

    @given(
        heights=st.lists(
            st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=2**70),
            max_size=60,
        ),
        scale=st.integers(min_value=1, max_value=2**64),
    )
    @settings(max_examples=200, deadline=None)
    def test_list_hull_matches_dict_oracle(self, heights, scale):
        scaling = IntegerScaling(scale, (0, *heights))
        assert hull_edges(price_intervals(scaling)) == dict_price_intervals(scaling)

    @given(game=large_games)
    @example(game=large_game(9, ("flat", "flat", "flat"), 0))
    @example(game=large_game(9, ("up", "down", "flat"), 0))
    @example(game=large_game(9, ("rising", "rising", "rising"), 0))
    @example(game=large_game(9, ("concave", "cubic", "concave"), 0))
    @settings(max_examples=40, deadline=None)
    def test_bisected_census_matches_loop(self, game):
        assert dict(_balanced_intervals(game)) == loop_census(game)
        for spec in game.utilities:
            if spec.quasi_linear:
                scaling = spec.values(game).scaling
                assert hull_edges(price_intervals(scaling)) == dict_price_intervals(scaling)

    def test_bisection_edge_cases(self):
        everything = list(range(1, 1001))
        # flat tables: every allocation balances
        flat = large_game(9, ("flat", "flat", "flat"), 0)
        assert [k for k, _ in _balanced_intervals(flat)] == everything
        # slopes 1, -1 and 0 past index 1: sum U_i = sum L_i = 0 at 2..999
        ties = dict(_balanced_intervals(large_game(9, ("up", "down", "flat"), 0)))
        assert list(ties) == everything
        assert all(sum(upper for _, upper in ties[k]) == 0 for k in range(2, 1000))
        # rising tables: only the last index, where every lower end is None
        rising = dict(_balanced_intervals(large_game(9, ("rising", "rising", "rising"), 0)))
        assert list(rising) == [1000]
        assert [lower for lower, _ in rising[1000]] == [None] * 3

    @given(config=census_configs)
    @settings(max_examples=100, deadline=None)
    def test_integer_balance_matches_balanced_prices(self, config):
        per_user = [dict_price_intervals(spec.values(config).scaling) for spec in config.utilities]
        for allocation in set(per_user[0]).intersection(*per_user[1:]):
            edges = [user_edges[allocation] for user_edges in per_user]
            intervals = [fraction_interval(ends) for ends in edges]
            assert sign_balances(edges) == (balanced_prices(intervals) is not None)

    @given(config=census_configs)
    @settings(max_examples=100, deadline=None)
    def test_every_entry_passes_verify_ne(self, config):
        for entry in lindahl_census(config).equilibria:
            report = entry.report
            assert report.is_ne
            assert grid_verify(report.candidate, ORACLE_GRID, config)[0]
            prices = report.prices
            assert sum(prices) == 0
            for price, (lower, upper) in zip(prices, entry.price_intervals):
                assert (lower is None or lower <= price) and price <= upper

    @given(config=census_configs, prices=st.tuples(grid_prices, grid_prices))
    @settings(max_examples=100, deadline=None)
    def test_rebuilt_lindahl_ne_is_in_census(self, config, prices):
        prices = (*prices, -sum(prices))
        found = census_allocations(config)
        # an incomplete census lists only equilibria where the users without
        # quasi-linear utility face price 0
        if any(p != 0 and not spec.quasi_linear for p, spec in zip(prices, config.utilities)):
            return
        for allocation in range(1, config.catalog.size + 1):
            candidate = tuple(Message(allocation, price) for price in message_prices(prices))
            if build_report(candidate, config).is_ne:
                assert allocation in found

    @given(config=census_configs, price=prices)
    @settings(max_examples=100, deadline=None)
    def test_census_contains_unanimity_scan(self, config, price):
        assert set(scan_allocations(price, config)) <= set(census_allocations(config))


def peak_biased_tables(size: int):
    """Value tables of `size` profiles, half of them single-peaked near the
    middle so that games of such tables often hold an equilibrium."""
    return st.one_of(
        st.lists(
            st.fractions(min_value=0, max_value=12, max_denominator=3),
            min_size=size,
            max_size=size,
        ).map(lambda values: (Fraction(0), *values)),
        st.builds(
            peak_values,
            st.just(size),
            st.integers(min_value=size // 2 - 1, max_value=size // 2 + 1),
            st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
        ),
    )


@st.composite
def table_games(draw):
    """(tables, permutation): one table per user of a 3- or 4-user game over
    one band with levels {0, 1}, and a permutation of the users."""
    num_users = draw(st.sampled_from((3, 4)))
    tables = peak_biased_tables(2**num_users)
    tables = draw(st.lists(tables, min_size=num_users, max_size=num_users))
    return tables, draw(st.permutations(range(num_users)))


def table_census(tables) -> dict:
    """Allocation -> per-user price intervals of the census of a game whose
    users hold `tables`, over one band with levels {0, 1}."""
    config = drawn_game(
        ScenarioConfig,
        num_users=len(tables),
        num_bands=1,
        quant_levels=(Fraction(0), Fraction(1)),
        power_budget=Fraction(1),
        noise_half_density=Fraction(1),
        gains=uniform_gains(len(tables), 1),
        utilities=tuple(TableUtility(values) for values in tables),
    )
    return {e.report.allocation: e.price_intervals for e in lindahl_census(config).equilibria}


class TestMetamorphic:
    """Relations between the census of a game and of a transformed one, which
    need no oracle."""

    @given(
        tables=st.tuples(values_tables, values_tables, values_tables),
        c=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12),
    )
    # a priced equilibrium: peaks at 1, 8 and 4
    @example(
        tables=tuple(peak_values(8, peak, scale) for peak, scale in ((1, 1), (8, 2), (4, 3))),
        c=Fraction(7, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_money_rescaling_scales_prices(self, tables, c):
        """Every table times c > 0 keeps the census allocations and scales
        every interval end and every rebuilt message price by c."""

        def census(scale):
            utilities = tuple(TableUtility([scale * v for v in values]) for values in tables)
            return lindahl_census(drawn_game(small_config, utilities=utilities)).equilibria

        base, scaled = census(1), census(c)
        assert [e.report.allocation for e in scaled] == [e.report.allocation for e in base]
        for entry, rescaled in zip(base, scaled):
            assert rescaled.price_intervals == tuple(
                (None if lower is None else c * lower, c * upper)
                for lower, upper in entry.price_intervals
            )
            prices = [c * m.price for m in entry.report.candidate]
            assert [m.price for m in rescaled.report.candidate] == prices

    @given(game=table_games())
    # a priced equilibrium: peaks at 1, 8 and 4
    @example(
        game=([peak_values(8, peak, scale) for peak, scale in ((1, 1), (8, 2), (4, 3))], (2, 0, 1))
    )
    @settings(max_examples=100, deadline=None)
    def test_permuting_tables_permutes_intervals(self, game):
        """Handing user i the table of user perm[i], on the same catalog
        indices, keeps the census allocations and moves each entry's
        intervals with their tables.  (Relabelling the users in the catalog
        too does not: it reorders the indices, and with them the price
        lines, since a personal price is charged per unit of index.)"""
        tables, perm = game
        base = table_census(tables)
        moved = {k: tuple(intervals[j] for j in perm) for k, intervals in base.items()}
        assert table_census([tables[j] for j in perm]) == moved

    @given(config=sir_configs(max_profiles=1296), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_physics_rescaling_keeps_reports_and_census(self, config, data):
        """Every gain and the noise times c > 0 leaves every SIR, and so
        every `sir_log` height, as it was: `build_report` on drawn
        candidates and `lindahl_census` read the same on both configs, for
        powers of two and other c."""
        size, users = config.catalog.size, config.num_users
        candidates = data.draw(st.lists(report_candidates(size, users), min_size=1, max_size=3))

        def results(config):
            return [build_report(c, config) for c in candidates], lindahl_census(config)

        expected = results(config)
        for c in (Fraction(2), Fraction(1, 8), Fraction(3, 2), Fraction(1, 5), Fraction(10, 3)):
            gains = tuple(
                tuple(tuple(c * g for g in row) for row in plane) for plane in config.gains
            )
            noise = c * config.noise_half_density
            scaled = ScenarioConfig(
                **{**config._asdict(), "gains": gains, "noise_half_density": noise}
            )
            assert results(scaled) == expected, c


# Every message of a small grid over an 8-profile catalog: proposals -1,
# every index and one index past the catalog, prices 0, 1/2 and 1.
THEOREM_PRICES = (Fraction(0), Fraction(1, 2), Fraction(1))
THEOREM_MESSAGES = tuple(
    Message(proposal, price) for proposal in (-1, *range(1, 10)) for price in THEOREM_PRICES
)


class TestTheoremOverMessageGrids:
    """The paper's claims judged at every profile of a whole message grid by
    `build_report`, which shares no code with the census's hulls."""

    @given(tables=st.lists(peak_biased_tables(8), min_size=3, max_size=3))
    # slopes 1/6, -1/6 and 0 past index 1: every lower end sums to 0 at 2..7,
    # and message prices (1/2, 1/2, 0) give personal prices on those slopes
    @example(
        tables=[
            tuple(Fraction(k, 6) for k in range(9)),
            (0, *(Fraction(9 - k, 6) for k in range(1, 9))),
            (0, *[1] * 8),
        ]
    )
    @settings(max_examples=2, deadline=None)
    def test_grid_equilibria_are_the_census_allocations(self, tables):
        """Every grid profile balances its budget; every grid NE is
        individually rational and its allocation is in the census; and
        every census entry gives a grid NE at every grid price vector whose
        personal prices lie in its intervals.  Three all-zero tables, the
        one game with a null-allocation NE, are refused (see below)."""
        config = drawn_game(
            small_config, utilities=tuple(TableUtility(values) for values in tables)
        )
        census = {e.report.allocation: e.price_intervals for e in lindahl_census(config).equilibria}
        equilibria = set()
        for profile in product(THEOREM_MESSAGES, repeat=3):
            report = build_report(profile, config)
            assert report.taxes_balance, profile
            if report.is_ne:
                assert all(report.individual_rationality), profile
                assert report.allocation in census, profile
                equilibria.add(profile)
        for allocation, intervals in census.items():
            for prices in product(THEOREM_PRICES, repeat=3):
                candidate = tuple(Message(allocation, price) for price in prices)
                personal = [personal_price(candidate, user) for user in range(3)]
                if all(
                    (lower is None or lower <= price) and price <= upper
                    for price, (lower, upper) in zip(personal, intervals)
                ):
                    assert candidate in equilibria, candidate

    def test_all_zero_tables_have_a_null_allocation_equilibrium(self):
        """Why such a game is refused: nobody can gain, so the null
        allocation is an NE, which the census (indices 1..size) cannot list
        and its report says must never be.  So `ScenarioConfig` refuses
        it, naming `utilities`; checked here on a copy built past that
        check."""
        fields = small_config()._replace(utilities=(TableUtility((0,) * 9),) * 3)
        with pytest.raises(ConfigError, match="every user's values are 0") as refused:
            ScenarioConfig(*fields)
        assert refused.value.field == "utilities"
        report = build_report((Message(-1, 0),) * 3, fields)
        assert report.is_ne and report.allocation == 0
        assert "NE with a null allocation" in report.soundness_violations()
        assert 0 not in census_allocations(fields)


signed_prices = st.fractions(min_value=-3, max_value=3, max_denominator=12)
# A credit near k * price for some index k keeps the taxes around k small,
# where the values and the cost trade off; the wide credits reach the rest.
lines = st.one_of(
    st.tuples(signed_prices, st.fractions(min_value=-40, max_value=40, max_denominator=12)),
    st.tuples(
        signed_prices,
        st.integers(min_value=0, max_value=9),
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
    ).map(lambda t: (t[0], t[1] * t[0] + t[2])),
)


def kernel_on_fractions(values, price, credit):
    """`price_line_optimum` on the line of taxes k * price - credit, given
    as `Fraction`s, with its value as a `Fraction`."""
    denominator = math.lcm(price.denominator, credit.denominator)
    slope = price.numerator * (denominator // price.denominator)
    offset = credit.numerator * (denominator // credit.denominator)
    index, value = price_line_optimum(values, slope, offset, denominator)
    return index, Fraction(value, values.unit(denominator))


class TestKernelAgainstOracle:
    """The integer price-line kernel against the `Fraction` loop it replaced."""

    @given(config=census_configs, user=st.integers(min_value=0, max_value=2), line=lines)
    @example(config=ORACLE_CONFIGS["cubic_tax"], user=1, line=(Fraction(1, 6), Fraction(1, 4)))
    @example(config=ORACLE_CONFIGS["sir_log"], user=2, line=(Fraction(-5, 4), Fraction(7, 6)))
    @example(config=ORACLE_CONFIGS["table"], user=0, line=(Fraction(0), Fraction(0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_loop(self, config, user, line):
        price, credit = line
        got = kernel_on_fractions(config.utilities[user].values(config), price, credit)
        assert got == price_line_oracle(user, price, credit, config)

    @given(config=sir_configs(), line=lines, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_loop_on_multiband_sir(self, config, line, data):
        price, credit = line
        user = data.draw(st.integers(min_value=0, max_value=config.num_users - 1))
        got = kernel_on_fractions(config.utilities[user].values(config), price, credit)
        assert got == price_line_oracle(user, price, credit, config)


# Prices of unequal denominators, zero included.
report_prices = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=0, max_value=3, max_denominator=12)
)


def report_candidates(size, users=3):
    """Candidates of `users` messages for a catalog of `size` profiles:
    proposals whose average may leave the catalog, and unanimous proposals
    at unequal prices, whose mismatch penalties vanish while the personal
    prices do not."""
    proposals = st.integers(min_value=-2 * size, max_value=3 * size)
    message = st.builds(Message, proposals, report_prices)
    agreeing = st.tuples(
        st.integers(min_value=1, max_value=size),
        st.lists(report_prices, min_size=users, max_size=users),
    )
    return st.one_of(
        st.tuples(*[message] * users),
        agreeing.map(lambda t: tuple(Message(t[0], price) for price in t[1])),
    )


class TestReportAgainstFractionReport:
    """The integer certificate against the `Fraction` one it replaced,
    every verdict and the best deviation included."""

    @given(config=census_configs, candidate=report_candidates(8))
    @example(ORACLE_CONFIGS["cubic_tax"], (Message(4, 1), Message(4, 3), Message(4, 2)))
    @example(ORACLE_CONFIGS["table"], (Message(-20, 0), Message(1, 3), Message(2, 0)))
    @settings(max_examples=300, deadline=None)
    def test_matches_on_small_games(self, config, candidate):
        report = build_report(candidate, config)
        assert report == fraction_report(candidate, config)
        if report.best_deviation is not None:
            assert type(report.best_deviation.gain) is Fraction

    @given(config=census_configs)
    @settings(max_examples=60, deadline=None)
    def test_matches_on_census_entries(self, config):
        for entry in lindahl_census(config).equilibria:
            assert entry.report == fraction_report(entry.report.candidate, config)

    @given(candidate=report_candidates(216))
    @settings(max_examples=40, deadline=None)
    def test_matches_on_the_desk(self, desk, candidate):
        assert build_report(candidate, desk) == fraction_report(candidate, desk)

    @given(config=sir_configs(user_counts=(3,)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_on_multiband_sir(self, config, data):
        candidate = data.draw(report_candidates(config.catalog.size))
        assert build_report(candidate, config) == fraction_report(candidate, config)


def negated_prices(tax_terms):
    """`tax_terms` with every personal price numerator negated: the prices
    still sum to zero, so every budget still balances."""

    def negated(profile):
        prices, penalties, denominator = tax_terms(profile)
        return tuple(-price for price in prices), penalties, denominator

    return negated


@pytest.mark.parametrize("variant", sorted(ORACLE_CONFIGS))
def test_nonneg_tax_oracle_reads_no_library_price(variant, monkeypatch):
    """The loop of `user_best_nonneg_tax` states the personal price and the
    taxes itself: a mutant `tax_terms` that keeps the budget balanced moves
    the library's verdict and leaves the loop's as it was."""
    config = ORACLE_CONFIGS[variant]
    # unanimity at 2 with personal prices (-1, 2/3, 1/3)
    candidate = (Message(2, 1), Message(2, 0), Message(2, 3))
    expected = user_best_nonneg_tax(candidate, config)
    report = build_report(candidate, config)
    assert (report.user_best, report.user_best_nonneg_tax) == expected
    replace_tax_terms(monkeypatch, negated_prices)
    assert user_best_nonneg_tax(candidate, config) == expected
    assert build_report(candidate, config).user_best_nonneg_tax != expected[1]


def scaled_sir(config, factor):
    """The config with every `sir_log` weight multiplied by `factor`."""
    utilities = tuple(
        SirLogUtility(user=spec.user, weights=tuple(w * factor for w in spec.weights))
        for spec in config.utilities
    )
    return ScenarioConfig(**{**config._asdict(), "utilities": utilities})


def verdicts(candidate, config):
    report = build_report(candidate, config)
    deviation = report.best_deviation
    return (
        report.is_ne,
        None if deviation is None else (deviation.user, deviation.message.proposal),
        report.individual_rationality,
        report.user_best,
        report.user_best_nonneg_tax,
    )


class TestExactOrderScales:
    @given(config=sir_configs(user_counts=(3,)), candidate=candidates)
    @settings(max_examples=80, deadline=None)
    def test_verdicts_do_not_depend_on_units(self, config, candidate):
        # A power of two scales every float term, and so every exact utility
        # and gain, exactly; no float underflows at these exponents.
        expected = verdicts(candidate, config)
        for exponent in (-200, -70, -40, -20, 20, 40, 70, 200):
            factor = Fraction(2) ** exponent
            scaled = tuple(Message(m.proposal, m.price * factor) for m in candidate)
            assert verdicts(scaled, scaled_sir(config, factor)) == expected, exponent


def uncached_values(config, user):
    """The uncached build, `spec.values(config)`: the oracle of
    `ScenarioConfig.user_values`."""
    return config.utilities[user].values(config)


class TestHeldValues:
    """`config.user_values` holds each `sir_log` user's values on the config,
    within `MAX_VALUED_PROFILES` profiles' values in all."""

    @given(config=st.one_of(sir_configs(user_counts=(3,)), census_configs), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_warm_cold_and_dropped_match_uncached(self, config, data):
        """A certificate and a census read the same on a cold config, on
        the same config warm, and on one whose bound has room for one
        user's values (so it holds a lone `sir_log` user's and otherwise
        none), as on the uncached build."""
        from unittest import mock

        from spectrumshare import model

        candidate = data.draw(report_candidates(config.catalog.size))

        def results(config):
            return build_report(candidate, config), lindahl_census(config)

        with mock.patch.object(ScenarioConfig, "user_values", uncached_values):
            expected = results(config)
        cached = ScenarioConfig(*config)
        assert results(cached) == expected
        assert results(cached) == expected
        with mock.patch.object(model, "MAX_VALUED_PROFILES", config.catalog.size):
            dropping = ScenarioConfig(*config)
            assert results(dropping) == expected
            assert results(dropping) == expected
            assert len(dropping.held_values) <= 1

    @pytest.mark.parametrize("users_held", [1, 2])
    def test_held_values_never_pass_the_bound(self, monkeypatch, users_held, sir_builds):
        """With `MAX_VALUED_PROFILES` lowered to the profiles of one user's
        values (the cap's case) or two, no more are ever held, and builds
        go back to one per request of a user not held."""
        from spectrumshare import model

        config = ScenarioConfig(*ORACLE_CONFIGS["sir_log"])
        monkeypatch.setattr(model, "MAX_VALUED_PROFILES", users_held * config.catalog.size)
        candidate = (Message(4, 1), Message(4, 0), Message(4, 2))
        reports = [build_report(candidate, config) for _ in range(2)]
        assert reports[0] == reports[1]
        # three users in turn: every request misses, with room for one or two
        assert len(sir_builds) == 6
        assert max(build.held for build in sir_builds) < users_held
        assert len(config.held_values) <= users_held
        lindahl_census(config)
        assert max(build.held for build in sir_builds) < users_held
        assert len(config.held_values) <= users_held

    @pytest.mark.parametrize(
        "sir_users, room, builds, held",
        [((1,), 1, [1], [1]), ((1,), 2, [1], [1]), ((0, 2), 1, [0, 2, 0, 2], [])],
        ids=["lone-sir_log-room-1", "lone-sir_log-room-2", "two-sir_log-room-1"],
    )
    def test_held_all_or_none(self, monkeypatch, sir_users, room, builds, held, sir_builds):
        """With room for `room` users' values, the `sir_log` users' are
        held only when all of them fit, whatever the `table` users: a lone
        `sir_log` user among three is built once for two certificates, and
        of two with room for one, none is held and every request builds."""
        from spectrumshare import model

        config = small_config(
            utilities=tuple(
                SirLogUtility(user=u, weights=(u + 1,)) if u in sir_users else peak_table(8, 4)
                for u in range(3)
            )
        )
        monkeypatch.setattr(model, "MAX_VALUED_PROFILES", room * config.catalog.size)
        candidate = (Message(4, 1), Message(4, 0), Message(4, 2))
        assert build_report(candidate, config) == build_report(candidate, config)
        assert [build.user for build in sir_builds] == builds
        assert sorted(config.held_values) == held
