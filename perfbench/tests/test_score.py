"""The precision/recall scorer and the incident-latency attribution."""

from dataclasses import dataclass, field
from typing import List

import pytest

from score import (
    Speed,
    covered,
    incident_latency,
    percentile,
    score_incidents,
    unattributed_share,
)


@dataclass
class Ep:
    truth: List[str]
    start_tick: int
    end_tick: int
    tenant: str = ""
    kind: str = "x"
    recipe: tuple = field(default_factory=tuple)


def inc(tick, faulty, tenant=""):
    return {"violation_tick": tick, "faulty": faulty, "tenant": tenant}


def test_exact_verdicts_score_perfectly():
    episodes = [Ep(["db"], 0, 100), Ep(["app1", "app2"], 100, 200)]
    result = score_incidents(episodes, [inc(50, ["db"]), inc(150, ["app1", "app2"])])
    assert (result.tp, result.fp, result.fn) == (3, 0, 0)
    assert result.precision == 1.0 and result.recall == 1.0
    assert result.matched == [(0, 0), (1, 1)]


def test_wrong_and_partial_verdicts():
    episodes = [Ep(["db"], 0, 100), Ep(["app1", "app2"], 100, 200)]
    result = score_incidents(episodes, [inc(50, ["web"]), inc(150, ["app1"])])
    assert (result.tp, result.fp, result.fn) == (1, 1, 2)
    assert result.precision == pytest.approx(0.5)
    assert result.recall == pytest.approx(1 / 3)


def test_missed_episode_counts_its_truth_as_false_negatives():
    episodes = [Ep(["db"], 0, 100), Ep(["app1", "app2"], 100, 200)]
    result = score_incidents(episodes, [inc(50, ["db"])])
    assert result.missed_episodes == 1
    assert (result.tp, result.fp, result.fn) == (1, 0, 2)


def test_spurious_incident_counts_its_components_as_false_positives():
    episodes = [Ep(["db"], 0, 100)]
    result = score_incidents(episodes, [inc(50, ["db"]), inc(300, ["web", "db"])])
    assert result.spurious_incidents == 1
    assert (result.tp, result.fp, result.fn) == (1, 2, 0)


def test_second_incident_in_one_episode_is_spurious():
    episodes = [Ep(["db"], 0, 100)]
    result = score_incidents(episodes, [inc(80, ["web"]), inc(40, ["db"])])
    # The earliest incident is the episode's verdict.
    assert result.matched == [(0, 1)]
    assert result.spurious_incidents == 1
    assert (result.tp, result.fp, result.fn) == (1, 1, 0)


def test_incidents_match_only_their_own_tenant():
    episodes = [Ep(["db"], 0, 100, tenant="t-1")]
    result = score_incidents(episodes, [inc(50, ["db"], tenant="t-2")])
    assert result.missed_episodes == 1 and result.spurious_incidents == 1
    assert (result.tp, result.fp, result.fn) == (0, 1, 1)


def test_latency_starts_at_the_push_carrying_violation_plus_grace():
    # Three pushes of 5 ticks: [0..4], [5..9], [10..14].
    push_of_tick = {("", t): t // 5 for t in range(15)}
    scheduled = [10.0, 10.2, 10.4]
    # Violation at 3, grace 8 -> tick 11 -> third push.
    latency, index = incident_latency(inc(3, ["db"]), 10.9, push_of_tick, scheduled, 8)
    assert index == 2
    assert latency == pytest.approx(0.5)


def test_latency_excludes_the_grace_wait():
    push_of_tick = {("", t): t for t in range(40)}
    scheduled = [float(t) for t in range(40)]  # one tick per second
    latency, index = incident_latency(inc(10, ["db"]), 18.25, push_of_tick, scheduled, 8)
    # Timed from tick 18's push, not tick 10's: the 8 s grace is excluded.
    assert index == 18
    assert latency == pytest.approx(0.25)


def test_latency_is_none_outside_the_timed_phase():
    assert incident_latency(inc(30, []), 1.0, {("", 1): 0}, [0.0], 8) is None


def test_latency_uses_the_incident_tenant():
    push_of_tick = {("a", 18): 0, ("b", 18): 1}
    latency, index = incident_latency(inc(10, [], tenant="b"), 3.0, push_of_tick, [1.0, 2.0], 8)
    assert index == 1 and latency == pytest.approx(1.0)


def test_percentile_interpolates_like_numpy():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 99) == pytest.approx(3.97)
    assert percentile([7.0], 95) == 7.0


def test_unattributed_share_counts_overlaps_once():
    spans = [(0.0, 4.0), (2.0, 6.0), (8.0, 9.0)]
    assert covered(spans, 0.0, 10.0) == pytest.approx(7.0)
    assert unattributed_share((0.0, 10.0), spans) == pytest.approx(0.3)
    assert unattributed_share((5.0, 7.0), spans) == pytest.approx(0.5)


def test_speed_factor_uses_readings_near_the_interval():
    readings = [(0.0, 1.0), (0.1, 1.0), (0.2, 1.0), (5.0, 3.0), (5.1, 3.0), (5.2, 3.0)]
    speed = Speed(readings, reference=2.0)
    assert speed.factor(0.05, 0.15) == pytest.approx(0.5)
    assert speed.factor(5.1) == pytest.approx(1.5)
    # Whole-pass factor: the median of every reading.
    assert speed.factor() == pytest.approx(1.0)


def test_speed_factor_widens_until_it_has_enough_readings():
    speed = Speed([(0.0, 1.0), (1.0, 1.0), (2.0, 4.0)], reference=1.0, pad=0.1)
    # Only one reading within 0.1 s of t=2; the pad widens to take all three.
    assert speed.factor(2.0) == pytest.approx(1.0)
    assert Speed([], reference=1.0).factor(3.0) == 1.0
