"""Exact NE certification, the Lindahl census, best response, and the Lindahl
bridge."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrumshare import (
    ContractError,
    CubicTaxUtility,
    LindahlAllocation,
    Message,
    PriceScaleError,
    PriceSystemError,
    ScenarioConfig,
    SirLogUtility,
    TableUtility,
    balanced_prices,
    best_response,
    build_catalog,
    build_report,
    enumerate_bundles,
    integer_scaling,
    lindahl_census,
    lindahl_price,
    lindahl_to_ne,
    mismatch_penalties_vanish,
    outcome,
    price_intervals,
    utility_eval,
)
from spectrumshare.equilibrium import _balances, price_line_optimum
from spectrumshare.mechanism import Outcome, nearest_integer

from conftest import peak_table, sir_configs, small_config, uniform_gains
from grid_oracle import (
    census_oracle,
    grid_deviations,
    grid_verify,
    interval_oracle,
    price_line_oracle,
    standard_grid,
    tax_components,
    unanimity_scan,
    user_best_nonneg_tax,
)

prices = st.fractions(min_value=0, max_value=3, max_denominator=4)
proposals = st.integers(min_value=-20, max_value=60)


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
        held = utility_eval(small, user, base.allocation, base.taxes[user])
        moved = utility_eval(small, user, after.allocation, after.taxes[user])
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
        reply = best_response(0, unanimity(4, 1), small)
        assert reply == Message(4, Fraction(0))

    def test_reply_attains_the_maximum(self, small):
        profile = unanimity(4, 1)
        reply = best_response(0, profile, small)
        moved = outcome((reply,) + profile[1:], small.catalog)
        value = utility_eval(small, 0, moved.allocation, moved.taxes[0])
        assert value == small.utilities[0].values[4]

    def test_price_zero_chosen_on_mismatch(self, small):
        profile = (Message(0, Fraction(1)), Message(8, Fraction(2)), Message(5, Fraction(1)))
        assert best_response(0, profile, small).price == 0

    def test_opt_out_when_every_index_costs_too_much(self):
        # user 0's personal price (pi_1 - pi_2)/3 = 100 outweighs any value
        config = small_config()
        profile = (Message(4, Fraction(0)), Message(4, Fraction(300)), Message(4, Fraction(0)))
        reply = best_response(0, profile, config)
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
        assert census.allocations_tested == 8
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
        assert entry.report.lindahl.allocation.prices == (-1, 2, -1)

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
                CubicTaxUtility(peak_table(8, 4, s).values, beta=Fraction(1, 2))
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
        assert census.allocations_tested == 216
        (entry,) = census.equilibria
        assert entry.report.allocation == 108
        assert entry.report.lindahl.allocation.prices == (-1, -1, 2)

    def test_desk_balances_prices_only_at_the_peak(self, desk, monkeypatch):
        # All 216 allocations are on every user's hull; the integer sign test
        # leaves `balanced_prices` only the equilibrium's intervals.
        from spectrumshare import equilibrium

        assert all(len(price_intervals(s)) == 216 for s in desk.integer_scalings)
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

    @given(config=sir_configs())
    @settings(max_examples=10, deadline=None)
    def test_sir_log_census_caches_no_heights(self, config):
        # The census builds each user's integer heights and drops them after
        # its hull; the sir_log certification scans floats only.
        lindahl_census(config)
        assert "integer_scalings" not in vars(config)

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
            lambda candidate, config: certify(candidate, config)._replace(is_ne=False),
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
        assert _balances((((1, 3), (1, 3)), ((-1, 3), (-1, 3))))
        # uppers 1/2 - 2/3 < 0
        assert not _balances((((0, 1), (1, 2)), ((-1, 1), (-2, 3))))
        # lowers 1/2 - 1/3 > 0, unless one of them is minus infinity
        assert not _balances((((1, 2), (1, 1)), ((-1, 3), (0, 1))))
        assert _balances((((1, 2), (1, 1)), (None, (0, 1))))
        # large runs, as from a float value vector's scale
        assert not _balances((((0, 1), (1, 2**60)), ((0, 1), (-1, 2**60 - 1))))

    def test_price_intervals_by_hand(self):
        # points (0,0) (1,3) (2,4) (3,4): concave, so every index has an interval
        assert price_intervals(integer_scaling((0, 3, 4, 4))) == {
            1: ((1, 1), (3, 1)),
            2: ((0, 1), (1, 1)),
            3: (None, (0, 1)),
        }
        # (1,1) lies below the chord from (0,0) to (2,4): it is never best;
        # the slope of the edge from 0 to 2 keeps its run 2 * scale
        assert price_intervals(integer_scaling((0, 1, 4))) == {2: (None, (4, 2))}
        assert price_intervals(integer_scaling((0, Fraction(1, 3)))) == {1: (None, (1, 3))}


class TestMismatchPenalties:
    def test_unanimity_vanishes(self):
        assert mismatch_penalties_vanish(unanimity(3, 2))

    def test_zero_prices_vanish(self):
        profile = tuple(Message(n, Fraction(0)) for n in (1, 2, 3))
        assert mismatch_penalties_vanish(profile)

    def test_priced_disagreement_detected(self):
        profile = (Message(1, Fraction(1)), Message(2, Fraction(0)), Message(3, Fraction(0)))
        assert not mismatch_penalties_vanish(profile)


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
        assert report.tax_form_matches
        assert report.taxes == tuple(sum(tax_components(profile, u, 8)) for u in range(3))
        assert report.taxes == tuple(5 * lindahl_price(profile, u) for u in range(3))

    def test_equal_prices_give_zero(self, small):
        # at 50 the average leaves the catalog: every tax is 0 = 0 * price
        for index in (5, 50):
            report = build_report(unanimity(index, 2), small)
            assert report.tax_form_matches
            assert report.taxes == (0, 0, 0)

    def test_precondition_enforced(self, small):
        profile = (Message(1, Fraction(1)), Message(2, Fraction(0)), Message(3, Fraction(0)))
        report = build_report(profile, small)
        assert not report.mismatch_penalties_vanish
        assert not report.tax_form_matches

    def test_broken_tax_rule_is_a_contract_violation(self, small, monkeypatch):
        from spectrumshare import equilibrium

        def swapped(profile, catalog):
            allocation, taxes = outcome(profile, catalog)
            return Outcome(allocation, taxes[::-1])

        monkeypatch.setattr(equilibrium, "outcome", swapped)
        profile = tuple(Message(5, Fraction(p)) for p in (3, 1, 2))
        with pytest.raises(ContractError, match="disagree with the tax rule"):
            build_report(profile, small)

    @given(aligned_profiles())
    @settings(max_examples=150, deadline=None)
    def test_reduced_form_equivalence(self, profile):
        catalog = build_catalog(3, enumerate_bundles((0, 1, 2), 1, 2))
        result = outcome(profile, catalog)
        for u in range(3):
            reduced = result.allocation * lindahl_price(profile, u)
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
        certificate = build_report(unanimity(4, 1), small).lindahl
        assert certificate.allocation.prices == (0, 0, 0)
        assert certificate.prices_balance
        assert certificate.taxes_balance
        assert certificate.user_best == (True, True, True)
        assert certificate.user_best_nonneg_tax == (True, True, True)

    def test_off_peak_candidate_fails_price_line_check(self, small):
        certificate = build_report(unanimity(2, 1), small).lindahl
        assert certificate.prices_balance and certificate.taxes_balance
        assert not certificate.best_on_price_line

    @given(pairs=st.lists(st.tuples(proposals, prices), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_balance_conditions_hold_for_any_profile(self, pairs, small):
        profile = tuple(Message(n, p) for n, p in pairs)
        certificate = build_report(profile, small).lindahl
        assert certificate.prices_balance
        assert certificate.taxes_balance


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
        assert tuple(lindahl_price(messages, u) for u in range(3)) == psi.prices
        result = outcome(messages, small.catalog)
        assert result.allocation == psi.allocation
        assert result.taxes == psi.taxes

    def test_inconsistent_prices_rejected(self, small):
        psi = LindahlAllocation(1, (0, 0, 0), (Fraction(1), Fraction(0), Fraction(0)))
        with pytest.raises(PriceSystemError):
            lindahl_to_ne(psi, 10, small.catalog)

    def test_too_small_seed_price_reports_minimum(self, small):
        psi = LindahlAllocation(
            2,
            (Fraction(-2, 3), Fraction(-2, 3), Fraction(4, 3)),
            (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)),
        )
        with pytest.raises(PriceScaleError) as err:
            lindahl_to_ne(psi, 0, small.catalog)
        assert err.value.min_seed_price == 2
        lindahl_to_ne(psi, err.value.min_seed_price, small.catalog)

    def test_roundtrip_from_found_ne(self):
        # the priced equilibrium of conflicting peaks, rebuilt at another seed price
        config = small_config(peaks=(1, 8, 4))
        reports = [entry.report for entry in lindahl_census(config).equilibria]
        assert reports
        for report in reports:
            assert report.soundness_violations() == ()
            psi = report.lindahl.allocation
            rebuilt = lindahl_to_ne(psi, 10, config.catalog)
            assert build_report(rebuilt, config).is_ne
            result = outcome(rebuilt, config.catalog)
            assert result.allocation == psi.allocation
            assert result.taxes == psi.taxes
            assert tuple(lindahl_price(rebuilt, u) for u in range(3)) == psi.prices


class TestReports:
    def test_report_fields_for_ne(self, small):
        report = build_report(unanimity(4, 1), small)
        assert report.is_ne
        assert report.allocation == 4
        assert report.feasible
        assert report.mismatch_penalties_vanish
        assert report.tax_form_matches
        assert all(report.individual_rationality)
        assert report.lindahl is not None
        assert report.soundness_violations() == ()

    def test_lindahl_certified_for_non_ne(self, small):
        report = build_report(unanimity(2, 1), small)
        assert not report.is_ne
        assert report.lindahl.allocation == LindahlAllocation(2, (0, 0, 0), (0, 0, 0))
        assert report.lindahl.user_best == (False, False, False)

    def test_ne_off_the_price_line_is_a_violation(self, small):
        report = build_report(unanimity(4, 1), small)
        off_line = report.lindahl._replace(user_best=(True, False, True))
        assert report.soundness_violations() == ()
        assert report._replace(lindahl=off_line).soundness_violations() == (
            "NE off a user's personal price line optimum",
        )

    def test_off_line_users_are_not_scanned(self, small, monkeypatch):
        from spectrumshare import equilibrium

        scans = []
        kernel = equilibrium.price_line_optimum

        def counted(user, price, credit, config):
            scans.append(user)
            return kernel(user, price, credit, config)

        monkeypatch.setattr(equilibrium, "price_line_optimum", counted)
        # Infeasible average: a null allocation is never best on a price
        # line, so only the reply scans run, user 2's with credit 2500.
        report = build_report((Message(-50, 1), Message(0, 2), Message(0, 0)), small)
        assert report.lindahl.user_best == (False, False, False)
        assert sorted(scans) == [0, 1, 2]

    def test_lent_scan_with_credit_is_not_reused(self, small, monkeypatch):
        # User 0 pays exactly allocation * personal price, but its reply scan
        # runs with the credit c_0 = 9 * 4 rebated; only its Lindahl verdict
        # needs the line at credit 0.
        from spectrumshare import equilibrium

        scans = []
        kernel = equilibrium.price_line_optimum

        def counted(user, price, credit, config):
            scans.append((user, credit))
            return kernel(user, price, credit, config)

        monkeypatch.setattr(equilibrium, "price_line_optimum", counted)
        candidate = (Message(4, 4), Message(1, 4), Message(4, 1))
        report = build_report(candidate, small)
        assert [credit for user, credit in scans if user == 0] == [36, 0]
        assert report.lindahl.user_best == (True, False, False)

    def test_exact_ne_is_best_on_price_line(self, small):
        for price in (0, Fraction(1, 3), 1):
            for report in unanimity_scan(price, small):
                if report.is_ne:
                    assert report.lindahl.user_best == (True, True, True)


ORACLE_CONFIGS = {
    "table": small_config(),
    "sir_log": small_config(
        utilities=tuple(SirLogUtility(user=u, weights=(Fraction(u + 1),)) for u in range(3))
    ),
    "cubic_tax": small_config(
        utilities=tuple(
            CubicTaxUtility(peak_table(8, p, s).values, beta=Fraction(1, 2))
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
    held = utility_eval(config, user, before.allocation, before.taxes[user])
    return utility_eval(config, user, after.allocation, after.taxes[user]) - held


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
        reply = best_response(user, candidate, config)
        value = realized_gain(candidate, user, reply, config)
        for message, _ in grid_deviations(user, candidate, ORACLE_GRID, config):
            assert value >= realized_gain(candidate, user, message, config)

    @given(candidate=candidates)
    @settings(max_examples=80, deadline=None)
    def test_nonneg_tax_verdict_matches_loop(self, variant, candidate):
        config = ORACLE_CONFIGS[variant]
        certificate = build_report(candidate, config).lindahl
        expected = user_best_nonneg_tax(candidate, config)
        assert (certificate.user_best, certificate.user_best_nonneg_tax) == expected


# Arbitrary tables rarely share an equilibrium; single-peaked ones with
# nearby peaks often do.
values_tables = st.one_of(
    st.lists(st.fractions(min_value=0, max_value=12, max_denominator=3), min_size=8, max_size=8),
    st.builds(
        lambda peak, scale: list(peak_table(8, peak, scale).values[1:]),
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
    lambda utilities: small_config(utilities=utilities)
)
grid_prices = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def fraction_interval(ends):
    """One `price_intervals` entry, integer slopes whose runs must be
    positive, as a `Fraction` interval."""
    lower, upper = ends
    assert all(run > 0 for _, run in filter(None, ends))
    return (None if lower is None else Fraction(*lower), Fraction(*upper))


def fraction_intervals(edges):
    return {k: fraction_interval(ends) for k, ends in edges.items()}


def nonempty_oracle_intervals(values):
    """The oracle's intervals as {k: interval} at the indices where they are
    non-empty, which are exactly the points of the upper hull."""
    return {
        k: (lower, upper)
        for k, (lower, upper) in enumerate(interval_oracle(values), start=1)
        if lower is None or lower <= upper
    }


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
        for spec, values, scaling in zip(
            config.utilities, config.value_vectors, config.integer_scalings
        ):
            if spec.quasi_linear:
                intervals = fraction_intervals(price_intervals(scaling))
                assert intervals == nonempty_oracle_intervals(values)

    @given(config=census_configs)
    @settings(max_examples=100, deadline=None)
    def test_integer_balance_matches_balanced_prices(self, config):
        per_user = [price_intervals(scaling) for scaling in config.integer_scalings]
        for allocation in set(per_user[0]).intersection(*per_user[1:]):
            edges = [user_edges[allocation] for user_edges in per_user]
            intervals = [fraction_interval(ends) for ends in edges]
            assert _balances(edges) == (balanced_prices(intervals) is not None)

    @given(config=census_configs)
    @settings(max_examples=100, deadline=None)
    def test_every_entry_passes_verify_ne(self, config):
        for entry in lindahl_census(config).equilibria:
            report = entry.report
            assert report.is_ne
            assert grid_verify(report.candidate, ORACLE_GRID, config)[0]
            prices = report.lindahl.allocation.prices
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
            psi = LindahlAllocation(allocation, tuple(allocation * p for p in prices), prices)
            try:
                candidate = lindahl_to_ne(psi, 0, config.catalog)
            except PriceScaleError as exc:
                candidate = lindahl_to_ne(psi, exc.min_seed_price, config.catalog)
            if build_report(candidate, config).is_ne:
                assert allocation in found

    @given(config=census_configs, price=prices)
    @settings(max_examples=100, deadline=None)
    def test_census_contains_unanimity_scan(self, config, price):
        assert set(scan_allocations(price, config)) <= set(census_allocations(config))


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


class TestKernelAgainstOracle:
    """The integer price-line kernel against the `Fraction` loop it replaced."""

    @given(config=census_configs, user=st.integers(min_value=0, max_value=2), line=lines)
    @example(config=ORACLE_CONFIGS["cubic_tax"], user=1, line=(Fraction(1, 6), Fraction(1, 4)))
    @example(config=ORACLE_CONFIGS["sir_log"], user=2, line=(Fraction(-5, 4), Fraction(7, 6)))
    @example(config=ORACLE_CONFIGS["table"], user=0, line=(Fraction(0), Fraction(0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_loop(self, config, user, line):
        price, credit = line
        got = price_line_optimum(user, price, credit, config)
        expected = price_line_oracle(user, price, credit, config)
        assert got == expected
        assert type(got[1]) is type(expected[1])

    @given(config=sir_configs(), line=lines, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_loop_on_multiband_sir(self, config, line, data):
        price, credit = line
        user = data.draw(st.integers(min_value=0, max_value=config.num_users - 1))
        got = price_line_optimum(user, price, credit, config)
        expected = price_line_oracle(user, price, credit, config)
        assert got == expected
        assert type(got[1]) is type(expected[1]) is float


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
        report.lindahl.user_best,
        report.lindahl.user_best_nonneg_tax,
    )


class TestFloatTolerance:
    @given(config=sir_configs(user_counts=(3,)), candidate=candidates)
    @settings(max_examples=80, deadline=None)
    def test_verdicts_do_not_depend_on_units(self, config, candidate):
        # A power of two scales every float utility and gain exactly.
        expected = verdicts(candidate, config)
        for exponent in (-40, -20, 20, 40):
            factor = Fraction(2) ** exponent
            scaled = tuple(Message(m.proposal, m.price * factor) for m in candidate)
            assert verdicts(scaled, scaled_sir(config, factor)) == expected, exponent
