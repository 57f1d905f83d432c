"""Pure scoring helpers: accuracy against ground truth, latency
attribution, percentiles and span self-time accounting.

Kept free of I/O so the benchmark's own tests can pin each rule on
hand-built inputs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (rank - lo))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Speed:
    """CPU-speed factors from timestamped probe readings.

    ``factor(lo, hi)`` is the median probe reading taken within ``pad``
    seconds of the interval ``[lo, hi]``, over ``reference``: 1.2 means
    the SUT's cores ran 20 % slower than the reference around that
    interval. With fewer than ``min_readings`` nearby readings the pad
    widens; without readings at all the factor is 1.
    """

    def __init__(self, readings, reference: float, pad: float = 0.3, min_readings: int = 3):
        pairs = sorted((float(t), float(v)) for t, v in readings)
        self.times = [t for t, _ in pairs]
        self.values = [v for _, v in pairs]
        self.reference = reference
        self.pad = pad
        self.min_readings = min_readings

    def factor(self, lo: Optional[float] = None, hi: Optional[float] = None) -> float:
        if not self.values:
            return 1.0
        if lo is None:
            return median(self.values) / self.reference
        hi = lo if hi is None else hi
        pad = self.pad
        while True:
            a = bisect.bisect_left(self.times, lo - pad)
            b = bisect.bisect_right(self.times, hi + pad)
            if b - a >= self.min_readings or (a == 0 and b == len(self.times)):
                return median(self.values[a:b] or self.values) / self.reference
            pad *= 2


# ----------------------------------------------------------------------
# Accuracy
# ----------------------------------------------------------------------
@dataclass
class Accuracy:
    """Per-component confusion counts over all episodes (paper Eq. 1)."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    missed_episodes: int = 0
    spurious_incidents: int = 0
    matched: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0


def score_incidents(episodes: Sequence, incidents: Sequence[Dict]) -> Accuracy:
    """Score incidents against episodes.

    ``episodes`` carry ``tenant``, ``truth``, ``start_tick`` and
    ``end_tick``; ``incidents`` are dicts with ``tenant``,
    ``violation_tick`` and ``faulty``. An incident belongs to the
    episode of its tenant whose segment holds its violation tick. The
    earliest incident of an episode is scored against the ground truth;
    a second one in the same episode, or one in no episode, is spurious
    and all its components are false positives. An episode without an
    incident contributes its whole ground truth as false negatives.
    ``matched`` lists ``(episode index, incident index)`` pairs.
    """
    result = Accuracy()
    by_episode: Dict[int, List[int]] = {}
    for k, incident in enumerate(incidents):
        owner = None
        for index, episode in enumerate(episodes):
            if (
                episode.tenant == incident.get("tenant", "")
                and episode.start_tick <= incident["violation_tick"] < episode.end_tick
            ):
                owner = index
                break
        if owner is None:
            result.spurious_incidents += 1
            result.fp += len(set(incident["faulty"]))
        else:
            by_episode.setdefault(owner, []).append(k)
    for index, episode in enumerate(episodes):
        truth = set(episode.truth)
        mine = sorted(
            by_episode.get(index, ()), key=lambda k: incidents[k]["violation_tick"]
        )
        if not mine:
            result.missed_episodes += 1
            result.fn += len(truth)
            continue
        first, extra = mine[0], mine[1:]
        pinned = set(incidents[first]["faulty"])
        result.tp += len(pinned & truth)
        result.fp += len(pinned - truth)
        result.fn += len(truth - pinned)
        result.matched.append((index, first))
        for k in extra:
            result.spurious_incidents += 1
            result.fp += len(set(incidents[k]["faulty"]))
    return result


# ----------------------------------------------------------------------
# Incident latency
# ----------------------------------------------------------------------
def incident_latency(
    incident: Dict,
    arrival: float,
    push_of_tick: Dict[Tuple[str, int], int],
    scheduled: Sequence[float],
    grace: int,
) -> Optional[Tuple[float, int]]:
    """Latency of one incident, timed from the push the diagnosis waited on.

    The diagnosis of a violation at tick ``v`` reads data up to tick
    ``v + grace``; the clock starts at the *scheduled* send time of the
    timed push carrying that tick and stops at the webhook ``arrival``
    (same monotonic clock). Returns ``(seconds, push index)``, or None
    when that tick was not pushed in the timed phase.
    """
    key = (incident.get("tenant", ""), int(incident["violation_tick"]) + grace)
    index = push_of_tick.get(key)
    if index is None:
        return None
    return arrival - scheduled[index], index


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total, cursor = 0.0, lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def unattributed_share(
    window: Tuple[float, float], spans: Iterable[Tuple[float, float]]
) -> float:
    """Share of ``window`` that none of ``spans`` covers."""
    lo, hi = window
    if hi <= lo:
        return 0.0
    return 1.0 - covered(spans, lo, hi) / (hi - lo)
