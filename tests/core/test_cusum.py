"""Tests for CUSUM + bootstrap change point detection."""

import numpy as np
import pytest

from repro.common.rng import spawn_rng
from repro.common.timeseries import TimeSeries
from repro.core import cusum
from repro.core.cusum import _bootstrap_confidence, detect_change_points


def series(values, start=0):
    return TimeSeries(np.asarray(values, dtype=float), start=start)


class TestDetection:
    def test_clean_step_found(self):
        values = [10.0] * 50 + [20.0] * 50
        points = detect_change_points(series(values), seed=1)
        assert any(abs(p.time - 50) <= 2 for p in points)

    def test_step_direction_and_magnitude(self):
        values = [10.0] * 50 + [20.0] * 50
        points = detect_change_points(series(values), seed=1)
        main = max(points, key=lambda p: p.magnitude)
        assert main.direction == 1
        assert main.magnitude == pytest.approx(10.0, rel=0.2)

    def test_downward_step(self):
        values = [20.0] * 50 + [5.0] * 50
        points = detect_change_points(series(values), seed=1)
        main = max(points, key=lambda p: p.magnitude)
        assert main.direction == -1

    def test_no_change_in_flat_series(self):
        values = [7.0] * 100
        assert detect_change_points(series(values), seed=1) == []

    def test_pure_noise_rarely_fires(self):
        rng = spawn_rng("noise")
        fired = 0
        for i in range(10):
            values = rng.normal(10, 1, 80)
            fired += len(detect_change_points(series(values), seed=i))
        assert fired <= 6  # occasional false alarms are expected, not many

    def test_multiple_steps(self):
        values = [10.0] * 40 + [20.0] * 40 + [5.0] * 40
        points = detect_change_points(series(values), seed=2)
        times = [p.time for p in points]
        assert any(abs(t - 40) <= 3 for t in times)
        assert any(abs(t - 80) <= 3 for t in times)

    def test_fluctuating_series_many_points(self):
        """The paper's Fig. 3 premise: dynamic metrics yield many points."""
        rng = spawn_rng("fig3")
        t = np.arange(300)
        values = 50 + 20 * np.sin(t / 15) + rng.normal(0, 6, 300)
        values[::37] *= 2.0  # spiky texture
        points = detect_change_points(series(values), seed=3)
        assert len(points) >= 4

    def test_times_absolute(self):
        values = [1.0] * 30 + [9.0] * 30
        points = detect_change_points(series(values, start=500), seed=1)
        assert all(p.time >= 500 for p in points)
        assert any(abs(p.time - 530) <= 2 for p in points)

    def test_min_segment_respected(self):
        values = [1.0] * 30 + [9.0] * 30
        points = detect_change_points(series(values), min_segment=8, seed=1)
        for p in points:
            assert 8 <= p.index <= len(values) - 8

    def test_sorted_by_time(self):
        values = [10.0] * 40 + [20.0] * 40 + [5.0] * 40
        points = detect_change_points(series(values), seed=2)
        times = [p.time for p in points]
        assert times == sorted(times)

    def test_short_series_no_points(self):
        assert detect_change_points(series([1.0, 2.0, 3.0]), seed=1) == []

    def test_deterministic_given_seed(self):
        rng = spawn_rng("det")
        values = rng.normal(10, 2, 120)
        values[60:] += 8
        a = detect_change_points(series(values), seed="s")
        b = detect_change_points(series(values), seed="s")
        assert a == b

    def test_confidence_at_least_requested(self):
        values = [10.0] * 50 + [20.0] * 50
        points = detect_change_points(series(values), confidence=0.95, seed=1)
        assert all(p.confidence >= 0.95 for p in points)


def _sequential_bootstrap_confidence(values, spread, bootstraps, rng):
    """Frozen reference: ``bootstraps`` sequential in-place shuffles.

    This is the original permutation test, kept only here as the oracle
    for the one-call ``rng.permuted`` + prefix-scan implementation.
    """
    if spread == 0.0:
        return 0.0
    work = values.copy()
    permutations = np.empty((bootstraps, len(values)))
    for i in range(bootstraps):
        rng.shuffle(work)
        permutations[i] = work
    deviations = permutations - permutations.mean(axis=1, keepdims=True)
    tracks = np.cumsum(deviations, axis=1)
    spreads = tracks.max(axis=1) - tracks.min(axis=1)
    return int(np.count_nonzero(spreads < spread)) / bootstraps


class TestBootstrapStream:
    """The batched permutation draw must replay the sequential stream."""

    @pytest.mark.parametrize("n", [10, 11, 37, 100, 250])
    @pytest.mark.parametrize("bootstraps", [1, 2, 7, 120, 121])
    def test_matches_sequential_shuffles(self, n, bootstraps):
        values = spawn_rng("golden", n).normal(10, 3, n)
        values[n // 2 :] += 2.0
        deviations = np.cumsum(values - values.mean())
        # Several spreads, so confidences other than 0 and 1 are covered.
        for spread in (float(np.ptp(deviations)), 1.0, 1e-3):
            oracle_rng = np.random.default_rng([n, bootstraps])
            batched_rng = np.random.default_rng([n, bootstraps])
            expected = _sequential_bootstrap_confidence(
                values, spread, bootstraps, oracle_rng
            )
            actual = _bootstrap_confidence(
                values, spread, bootstraps, batched_rng
            )
            assert actual == expected
            assert (
                batched_rng.bit_generator.state
                == oracle_rng.bit_generator.state
            )

    def test_zero_spread_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert _bootstrap_confidence(np.ones(20), 0.0, 120, rng) == 0.0
        assert rng.bit_generator.state == before

    def test_detector_points_identical_on_fluctuating_series(
        self, monkeypatch
    ):
        rng = spawn_rng("golden-fig3")
        t = np.arange(300)
        values = 50 + 20 * np.sin(t / 15) + rng.normal(0, 6, 300)
        values[::37] *= 2.0
        batched = detect_change_points(series(values), seed=3)
        monkeypatch.setattr(
            cusum, "_bootstrap_confidence", _sequential_bootstrap_confidence
        )
        sequential = detect_change_points(series(values), seed=3)
        assert len(sequential) >= 4
        assert batched == sequential
