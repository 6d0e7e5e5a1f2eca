"""Acceptance gate: every top-level property, one labelled pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The desk
workload is the scenario from `scripts/make_desk_scenario.py`: 3 users, 2 bands,
levels {0,1,2}, budget 2 (6 bundles, 216 profiles), quasi-linear tables with
a shared peak.  Identities are exact unless a tolerance is stated.
"""

import functools
import json
import random
import time
from fractions import Fraction

import pytest

from spectrumshare import (
    ConfigError,
    Honest,
    LindahlAllocation,
    Message,
    ReportCheat,
    ScenarioConfig,
    build_report,
    lindahl_census,
    lindahl_to_ne,
    outcome,
    run_measurement,
)
from spectrumshare.scenario import parse_scenario, scenario_to_jsonable

from conftest import (
    DESK_PEAK_INDEX,
    desk_config,
    load_script,
    peak_table,
    small_scenario,
    uniform_gains,
)
from grid_oracle import personal_price, standard_grid


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")
            return result

        return inner

    return wrap


@pytest.fixture(scope="module")
def desk():
    return desk_config()


@pytest.fixture(scope="module")
def grid(desk):
    return standard_grid(desk.catalog.size, desk.num_users)


@pytest.fixture(scope="module")
def found_equilibria(desk, grid):
    """The census's equilibria plus the NE that best response reaches from
    random starts; shared by criteria 3 and 4."""
    started = time.perf_counter()
    census = lindahl_census(desk)
    census_seconds = time.perf_counter() - started
    assert census.complete
    equilibria = [entry.report for entry in census.equilibria]
    census_allocations = {r.allocation for r in equilibria}

    br_dynamics = load_script("br_convergence_experiment").br_dynamics
    rng = random.Random(20260810)
    for _ in range(8):
        start = tuple(
            Message(rng.choice(grid.n_values), rng.choice(grid.pi_values)) for _ in range(3)
        )
        converged, _, profile = br_dynamics(start, desk, max_rounds=40)
        if not converged:
            continue
        report = build_report(profile, desk)
        if report.is_ne:
            # the census is complete: best response cannot find another allocation
            assert report.allocation in census_allocations
            if report.candidate not in {r.candidate for r in equilibria}:
                equilibria.append(report)
    return equilibria, census_seconds


@criterion("1 budget balance, 100000 random grid profiles, exact")
def test_budget_balance_always(desk, grid):
    rng = random.Random(95014)
    started = time.perf_counter()
    for _ in range(100_000):
        profile = tuple(
            Message(rng.choice(grid.n_values), rng.choice(grid.pi_values)) for _ in range(3)
        )
        assert sum(outcome(profile, desk.catalog).taxes) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget sweep took {elapsed:.2f}s"


@criterion("2 hand-derived tax vector, exact")
def test_derived_tax_vector(desk):
    profile = tuple(Message(n, Fraction(p)) for n, p in ((1, 1), (2, 2), (3, 3)))
    taxes = outcome(profile, desk.catalog).taxes
    assert taxes == (Fraction(-5, 3), Fraction(-26, 3), Fraction(31, 3))
    assert sum(taxes) == 0


@criterion("3 equilibrium property chain on every found NE, exact")
def test_equilibrium_property_chain(found_equilibria):
    equilibria, census_seconds = found_equilibria
    assert census_seconds < 60.0, f"equilibrium census took {census_seconds:.2f}s"
    assert equilibria, "the desk scenario must yield at least one NE"
    assert any(r.allocation == DESK_PEAK_INDEX for r in equilibria)
    for report in equilibria:
        assert report.mismatch_penalties_vanish
        assert report.allocation != 0
        assert all(report.individual_rationality)
        assert report.taxes == tuple(report.allocation * p for p in report.prices)
        assert report.soundness_violations() == ()


@criterion("4 every NE induces a Lindahl allocation (exhaustive check)")
def test_ne_induces_lindahl_allocation(found_equilibria):
    equilibria, _ = found_equilibria
    assert equilibria
    for report in equilibria:
        assert report.prices_balance
        assert report.taxes_balance
        assert report.user_best == (True, True, True)
        # the sign-constrained verdict is recorded alongside, not enforced
        assert len(report.user_best_nonneg_tax) == 3
        assert all(isinstance(flag, bool) for flag in report.user_best_nonneg_tax)


@criterion("5 Lindahl allocation rebuilds to an NE and back, exact")
def test_lindahl_roundtrip_at_common_peak(desk):
    zero = Fraction(0)
    psi = LindahlAllocation(DESK_PEAK_INDEX, (zero,) * 3, (zero,) * 3)
    messages = lindahl_to_ne(psi, 1, desk.catalog)
    assert build_report(messages, desk).is_ne
    result = outcome(messages, desk.catalog)
    assert result.allocation == psi.allocation
    assert result.taxes == psi.taxes
    assert tuple(personal_price(messages, user) for user in range(3)) == psi.prices


@criterion("6 cyclic price system solve and inversion, exact")
def test_price_system_solve(desk):
    prices = (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3))
    taxes = tuple(2 * p for p in prices)
    psi = LindahlAllocation(2, taxes, prices)
    messages = lindahl_to_ne(psi, 3, desk.catalog)
    assert tuple(m.price for m in messages) == (3, 1, 2)
    assert tuple(personal_price(messages, user) for user in range(3)) == prices


@criterion("7 measurement: honest recovery exact, one-sided cheat excluded")
def test_measurement_protocol(desk):
    started = time.perf_counter()
    honest = run_measurement((Honest(),) * 3, 1, desk)
    assert honest.estimated_gains == desk.gains
    assert honest.excluded == frozenset()

    for cheater in range(3):
        behaviors = tuple(
            ReportCheat("multiplicative", (Fraction(2), Fraction(1))) if u == cheater else Honest()
            for u in range(3)
        )
        result = run_measurement(behaviors, 1, desk)
        expected_pairs = {(cheater, other) for other in range(3) if other != cheater}
        expected_pairs |= {(other, cheater) for other in range(3) if other != cheater}
        assert set(result.mismatched_pairs) == expected_pairs
        assert result.excluded == frozenset({0, 1, 2})
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"measurement runs took {elapsed:.2f}s"


@criterion("8 degenerate guards: 2 users rejected, 1-profile catalog is NE")
def test_degenerate_guards():
    document = scenario_to_jsonable(small_scenario())
    document["num_users"] = 2
    document["gains"] = [[[1], [1]], [[1], [1]]]
    document["utilities"] = document["utilities"][:2]
    document["measurement"]["behaviors"] = document["measurement"]["behaviors"][:2]
    with pytest.raises(ConfigError):
        parse_scenario(json.loads(json.dumps(document)), "")

    lone = ScenarioConfig(
        num_users=3,
        num_bands=1,
        quant_levels=(Fraction(0),),
        power_budget=Fraction(1),
        noise_half_density=Fraction(1),
        gains=uniform_gains(3, 1),
        utilities=tuple(peak_table(1, 1, s) for s in (1, 2, 3)),
    )
    assert lone.catalog.size == 1
    census = lindahl_census(lone)
    assert census.complete
    assert [e.report.allocation for e in census.equilibria] == [1]
    assert census.equilibria[0].report.soundness_violations() == ()
