"""Channel-gain determination run by the neutral accounting agent.

Before the allocation game starts, every transmitter/receiver pair exchanges
pilot signals at an agreed power, both sides report the power they received,
and the accountant cross-checks the two reports.  Physical reciprocity makes
the two directions of one pair see the same gain, so honest reports always
match; if the reports of a pair differ on any band, both members of the pair
are marked for exclusion.  The marks are reported, not applied: the game is
still played by every user on the scenario's true gains.  The cross-check
catches any one-sided deviation but is intentionally blind to a pair
distorting symmetrically; that limit is part of the protocol, not a bug here.

The simulation is sequential and deterministic: pairs in lexicographic
order, bands inner-most, exactly one report record per (pair, band).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import ConfigError
from .model import ScenarioConfig, as_fraction


class Honest(namedtuple("Honest", "")):
    """Sends the agreed pilot and reports measurements unchanged."""

    __slots__ = ()


class PilotCheat(namedtuple("PilotCheat", "scale")):
    """Scales the transmitted pilot per band; reports honestly."""

    __slots__ = ()

    def __new__(cls, scale: tuple[Fraction, ...]):
        scale = tuple(as_fraction(s) for s in scale)
        if any(s < 0 for s in scale):
            raise ConfigError("pilot scale factors must be non-negative")
        return super().__new__(cls, scale)


class ReportCheat(namedtuple("ReportCheat", "mode amount")):
    """Distorts the reported received power per band; pilots are honest.

    `mode` is "additive" or "multiplicative".
    """

    __slots__ = ()

    def __new__(cls, mode: str, amount: tuple[Fraction, ...]):
        if mode not in ("additive", "multiplicative"):
            raise ConfigError(f"report cheat mode must be additive|multiplicative, got {mode!r}")
        return super().__new__(cls, mode, tuple(as_fraction(a) for a in amount))


AgentBehavior = Honest | PilotCheat | ReportCheat


class GainReport(
    namedtuple("GainReport", "transmitter receiver band reported_by_tx reported_by_rx")
):
    """Both sides' received-power reports for one pair and band."""

    __slots__ = ()

    def __new__(
        cls,
        transmitter: int,
        receiver: int,
        band: int,
        reported_by_tx: Fraction,
        reported_by_rx: Fraction,
    ):
        if transmitter == receiver:
            raise ValueError("a pair needs two distinct users")
        return super().__new__(cls, transmitter, receiver, band, reported_by_tx, reported_by_rx)

    @property
    def consistent(self) -> bool:
        return self.reported_by_tx == self.reported_by_rx


class MeasurementResult(
    namedtuple("MeasurementResult", "estimated_gains excluded mismatched_pairs reports")
):
    """Estimated gains[tx][rx][band], the excluded users, the mismatched
    (tx, rx) pairs, and every `GainReport` in protocol order."""

    __slots__ = ()


def _pilot_scale(behavior: AgentBehavior, band: int) -> Fraction:
    if isinstance(behavior, PilotCheat):
        return behavior.scale[band]
    return Fraction(1)


def _reported(behavior: AgentBehavior, band: int, measured: Fraction) -> Fraction:
    if isinstance(behavior, ReportCheat):
        if behavior.mode == "additive":
            return measured + behavior.amount[band]
        return measured * behavior.amount[band]
    return measured


def run_measurement(
    behaviors: Sequence[AgentBehavior], pilot_power, config: ScenarioConfig
) -> MeasurementResult:
    """Simulate the pilot/report protocol and mark the users it excludes.

    `config.gains[tx][rx][band]` is the ground-truth gain; by reciprocity
    the reverse pilot of a pair travels through the same gain.  Estimated
    cross gains come from the receiving side's report divided by the agreed
    pilot power; own-pair gains are each user's own measurement and are taken
    as the true diagonal.  The cross-check is exact: a pair is consistent
    only when both reports are equal on every band.
    """
    users = config.num_users
    bands = config.num_bands
    pilot = as_fraction(pilot_power)
    if pilot <= 0:
        raise ConfigError("pilot power must be strictly positive")
    if len(behaviors) != users:
        raise ConfigError(f"need one behavior per user ({users}), got {len(behaviors)}")
    gains = config.gains

    estimated = [[[Fraction(0)] * bands for _ in range(users)] for _ in range(users)]
    for user in range(users):
        for band in range(bands):
            estimated[user][user][band] = gains[user][user][band]

    reports: list[GainReport] = []
    mismatched: list[tuple[int, int]] = []
    excluded: set[int] = set()
    for tx in range(users):
        for rx in range(users):
            if rx == tx:
                continue
            gain_row = gains[tx][rx]
            pair_consistent = True
            for band in range(bands):
                forward = gain_row[band] * _pilot_scale(behaviors[tx], band) * pilot
                by_rx = _reported(behaviors[rx], band, forward)
                reverse = gain_row[band] * _pilot_scale(behaviors[rx], band) * pilot
                by_tx = _reported(behaviors[tx], band, reverse)
                report = GainReport(tx, rx, band, by_tx, by_rx)
                reports.append(report)
                estimated[tx][rx][band] = by_rx / pilot
                pair_consistent = pair_consistent and report.consistent
            if not pair_consistent:
                mismatched.append((tx, rx))
                excluded.update((tx, rx))

    frozen = tuple(tuple(tuple(row) for row in plane) for plane in estimated)
    return MeasurementResult(frozen, frozenset(excluded), tuple(mismatched), tuple(reports))
