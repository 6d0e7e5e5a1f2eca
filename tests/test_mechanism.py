"""Outcome rule and tax schedule: all identities are exact, no tolerances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrumshare import (
    ContractError,
    Message,
    clip_allocation,
    lindahl_price,
    outcome,
    rounded_average,
)
from spectrumshare.model import build_catalog, enumerate_bundles

from grid_oracle import tax_components

# The desk catalog: 3 users over 6 bundles, 216 profiles.
DESK = build_catalog(3, enumerate_bundles((0, 1, 2), 2, 2))
# 5 users over 2 bundles: 32 profiles.
FIVE = build_catalog(5, enumerate_bundles((0, 1), 1, 1))

prices = st.fractions(min_value=0, max_value=5, max_denominator=8)
proposals = st.integers(min_value=-50, max_value=400)


def profiles(num_users=3):
    return st.lists(
        st.tuples(proposals, prices), min_size=num_users, max_size=num_users
    ).map(lambda pairs: tuple(Message(n, p) for n, p in pairs))


def oracle_nearest(total: int, count: int) -> int:
    """Nearest integer via explicit distance comparison, ties away from zero."""
    mean = Fraction(total, count)
    floor = total // count
    candidates = (floor, floor + 1)
    below, above = (abs(mean - c) for c in candidates)
    if below < above:
        return candidates[0]
    if above < below:
        return candidates[1]
    return candidates[1] if mean > 0 else candidates[0]


class TestRoundedAverage:
    def test_integer_mean(self):
        assert rounded_average((2, 2, 2)) == 2

    def test_nearest_rounding(self):
        assert rounded_average((1, 2, 2)) == 2  # mean 5/3

    def test_tie_rounds_away_from_zero(self):
        assert rounded_average((1, 1, 1, 2, 2, 2)) == 2  # mean 3/2
        assert rounded_average((-1, -1, -1, -2, -2, -2)) == -2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rounded_average(())

    @given(st.lists(proposals, min_size=1, max_size=7))
    def test_matches_distance_oracle(self, values):
        assert rounded_average(values) == oracle_nearest(sum(values), len(values))


class TestClipAllocation:
    def test_in_range(self):
        assert clip_allocation(2, 216) == 2

    def test_zero_clips(self):
        assert clip_allocation(0, 216) == 0

    def test_above_range_clips(self):
        assert clip_allocation(217, 216) == 0

    def test_negative_clips(self):
        assert clip_allocation(-3, 216) == 0


def taxes(profile, catalog=DESK):
    return outcome(profile, catalog).taxes


class TestTax:
    def test_unanimity_is_free(self):
        profile = tuple(Message(5, Fraction(2)) for _ in range(3))
        assert taxes(profile) == (0, 0, 0)

    def test_hand_computed_vector(self):
        profile = tuple(Message(n, Fraction(p)) for n, p in ((1, 1), (2, 2), (3, 3)))
        assert taxes(profile) == (Fraction(-5, 3), Fraction(-26, 3), Fraction(31, 3))
        assert sum(taxes(profile)) == 0

    def test_infeasible_average_zeroes_everything(self):
        profile = tuple(Message(300, Fraction(u + 1)) for u in range(3))
        assert taxes(profile) == (0, 0, 0)

    def test_indicator_uses_unclipped_average(self):
        # proposals averaging exactly to the top index stay feasible
        profile = tuple(Message(216, Fraction(1, 4) * (u + 1)) for u in range(3))
        assert outcome(profile, DESK).allocation == 216
        assert any(tax != 0 for tax in taxes(profile))

    @given(profiles())
    @settings(max_examples=300, deadline=None)
    def test_budget_identity(self, profile):
        assert sum(taxes(profile)) == 0

    @given(profiles(num_users=5))
    @settings(max_examples=150, deadline=None)
    def test_budget_identity_five_users(self, profile):
        assert sum(taxes(profile, FIVE)) == 0

    @given(profiles())
    @settings(max_examples=150, deadline=None)
    def test_components_sum_to_tax(self, profile):
        totals = tuple(sum(tax_components(profile, user, 216)) for user in range(3))
        assert totals == taxes(profile)
        assert sum(totals) == 0

    @given(profiles(), prices)
    @settings(max_examples=150, deadline=None)
    def test_own_price_inert_when_matching_next_proposal(self, profile, new_price):
        # align user 0 with user 1, then user 0's price cannot move its own tax
        aligned = (Message(profile[1].proposal, profile[0].price),) + profile[1:]
        changed = (Message(profile[1].proposal, new_price),) + profile[1:]
        assert taxes(aligned)[0] == taxes(changed)[0]

    @given(profiles())
    @settings(max_examples=150, deadline=None)
    def test_cyclic_relabeling_rotates_taxes_and_prices(self, profile):
        rotated = profile[1:] + profile[:1]
        assert taxes(rotated) == taxes(profile)[1:] + taxes(profile)[:1]
        for user in range(3):
            assert lindahl_price(rotated, user) == lindahl_price(profile, (user + 1) % 3)

    @given(profiles())
    @settings(max_examples=150, deadline=None)
    def test_all_taxes_zeroed_iff_allocation_clips(self, profile):
        feasible = 1 <= rounded_average([m.proposal for m in profile]) <= 216
        result = outcome(profile, DESK)
        assert feasible == (result.allocation != 0)
        if not feasible:
            assert result.taxes == (0, 0, 0)


class TestLindahlPrice:
    def test_equal_prices_vanish(self):
        profile = tuple(Message(1, Fraction(3)) for _ in range(3))
        assert [lindahl_price(profile, u) for u in range(3)] == [0, 0, 0]

    def test_hand_computed_prices(self):
        profile = tuple(Message(1, Fraction(p)) for p in (3, 1, 2))
        got = [lindahl_price(profile, u) for u in range(3)]
        assert got == [Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)]

    @given(profiles())
    @settings(max_examples=150, deadline=None)
    def test_prices_always_sum_to_zero(self, profile):
        assert sum(lindahl_price(profile, u) for u in range(3)) == 0


class TestOutcome:

    def test_unanimity(self):
        profile = tuple(Message(7, Fraction(1)) for _ in range(3))
        result = outcome(profile, DESK)
        assert result.allocation == 7
        assert result.taxes == (0, 0, 0)

    def test_hand_computed_case(self):
        profile = tuple(Message(n, Fraction(p)) for n, p in ((1, 1), (2, 2), (3, 3)))
        result = outcome(profile, DESK)
        assert result.allocation == 2
        assert result.taxes == (Fraction(-5, 3), Fraction(-26, 3), Fraction(31, 3))

    def test_zero_proposals(self):
        profile = tuple(Message(0, Fraction(2)) for _ in range(3))
        result = outcome(profile, DESK)
        assert result.allocation == 0
        assert result.taxes == (0, 0, 0)

    def test_wrong_profile_length(self):
        with pytest.raises(ValueError):
            outcome((Message(1, Fraction(0)),), DESK)

    def test_invariants_enforced_by_outcome(self, monkeypatch):
        from spectrumshare import mechanism

        cases = [
            (1, [1, 0, 0], "sum to zero"),
            (1, [3, -1, -1], "sum to zero"),
            (0, [1, -1, 0], "null allocation"),
        ]
        for proposal, numerators, message in cases:
            monkeypatch.setattr(mechanism, "_tax_numerators", lambda *_: (numerators, 3))
            profile = tuple(Message(proposal, Fraction(1)) for _ in range(3))
            with pytest.raises(ContractError, match=message):
                outcome(profile, DESK)


class TestMessage:
    def test_rejects_negative_price(self):
        with pytest.raises(ValueError):
            Message(1, Fraction(-1))

    def test_rejects_non_integer_proposal(self):
        with pytest.raises(ValueError):
            Message(1.5, Fraction(1))
        with pytest.raises(ValueError, match="True"):
            Message(True, Fraction(1))
        with pytest.raises(ValueError, match="True"):
            Message(proposal=True, price=Fraction(1))

    def test_price_normalized_to_fraction(self):
        message = Message(price="3/6", proposal=2)
        assert message == Message(2, Fraction(1, 2))
        assert type(message.price) is Fraction
