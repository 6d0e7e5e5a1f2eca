"""Pilot exchange, report cross-check, exclusion rule."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrumshare import (
    ConfigError,
    Honest,
    PilotCheat,
    ReportCheat,
    ScenarioConfig,
    run_measurement,
)

from conftest import peak_table, uniform_gains


def honest(n):
    return tuple(Honest() for _ in range(n))


def four_user_config():
    return ScenarioConfig(
        num_users=4,
        num_bands=1,
        quant_levels=(0, 1),
        power_budget=1,
        noise_half_density=1,
        gains=uniform_gains(4, 1, cross=Fraction(1, 3)),
        utilities=tuple(peak_table(16, 5, s) for s in (1, 1, 2, 3)),
    )


class TestRunMeasurement:
    def test_all_honest_recovers_gains_exactly(self, small):
        result = run_measurement(honest(3), Fraction(2), small)
        assert result.estimated_gains == small.gains
        assert result.excluded == frozenset()
        assert result.mismatched_pairs == ()

    def test_log_order_pairs_then_bands(self, desk):
        result = run_measurement(honest(3), 1, desk)
        order = [(r.transmitter, r.receiver, r.band) for r in result.reports]
        expected = [
            (tx, rx, band)
            for tx in range(3)
            for rx in range(3)
            if rx != tx
            for band in range(2)
        ]
        assert order == expected

    def test_report_cheat_excludes_every_pair_with_the_cheat(self, small):
        behaviors = (Honest(), Honest(), ReportCheat("multiplicative", (Fraction(2),)))
        result = run_measurement(behaviors, 1, small)
        assert result.excluded == frozenset({0, 1, 2})
        assert set(result.mismatched_pairs) == {(0, 2), (2, 0), (1, 2), (2, 1)}

    def test_pilot_cheat_detected_both_directions(self):
        config = four_user_config()
        behaviors = (Honest(), PilotCheat((Fraction(3),)), Honest(), Honest())
        result = run_measurement(behaviors, 1, config)
        assert set(result.mismatched_pairs) == {
            (0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1),
        }
        assert result.excluded == frozenset({0, 1, 2, 3})

    def test_symmetric_collusion_goes_undetected(self, small):
        cheat = ReportCheat("multiplicative", (Fraction(2),))
        behaviors = (cheat, cheat, Honest())
        result = run_measurement(behaviors, 1, small)
        # the pair (0, 1) distorts identically in both directions: no mismatch
        assert (0, 1) not in result.mismatched_pairs
        assert (1, 0) not in result.mismatched_pairs
        assert result.estimated_gains[0][1][0] == 2 * small.gains[0][1][0]
        # but each colluder still trips over the honest user 2
        assert result.excluded == frozenset({0, 1, 2})

    def test_zero_pilot_power_rejected(self, small):
        with pytest.raises(ConfigError):
            run_measurement(honest(3), 0, small)

    def test_wrong_behavior_count_rejected(self, small):
        with pytest.raises(ConfigError):
            run_measurement(honest(2), 1, small)

    @given(
        cheater=st.integers(min_value=0, max_value=2),
        kind=st.sampled_from(["pilot", "add", "mul"]),
        amount=st.fractions(min_value="1/8", max_value=4, max_denominator=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_one_sided_distortion_is_caught(self, cheater, kind, amount, small):
        if kind == "pilot":
            distortion = PilotCheat((amount,))
            changes_something = amount != 1
        elif kind == "add":
            distortion = ReportCheat("additive", (amount,))
            changes_something = amount != 0
        else:
            distortion = ReportCheat("multiplicative", (amount,))
            changes_something = amount != 1
        behaviors = tuple(
            distortion if user == cheater else Honest() for user in range(3)
        )
        result = run_measurement(behaviors, 1, small)
        if changes_something:
            expected = {(cheater, other) for other in range(3) if other != cheater}
            expected |= {(other, cheater) for other in range(3) if other != cheater}
            assert set(result.mismatched_pairs) == expected
        else:
            assert result.mismatched_pairs == ()

