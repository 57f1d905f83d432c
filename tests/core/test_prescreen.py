"""Exactness of the prediction-error pre-screen ahead of CUSUM.

``FChainSlave`` skips change point detection for a window when
:func:`~repro.core.selection.selection_ruled_out` says no candidate could
pass the margin test. The screen may only say so where the full
selection returns ``[]``. Every screened window of the stores below is
audited twice: the selection is re-run with CUSUM forced, and the margin
test is evaluated for a candidate of either direction at *every* index
of the window — whatever change points detection could report.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.apps.mesh import MeshApplication
from repro.common.timeseries import TimeSeries
from repro.common.types import Metric
from repro.core import fchain as fchain_module
from repro.core.burst import expected_prediction_errors
from repro.core.config import FChainConfig
from repro.core.fchain import FChain, FChainSlave
from repro.core.selection import (
    actual_prediction_error,
    history_error_reference,
    history_error_references,
    select_abnormal_changes,
    selection_ruled_out,
)
from repro.eval.bench import synthetic_store
from repro.faults.library import BottleneckFault
from repro.monitoring.io import load_store_csv
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import MetricStore
from repro.obs.trace import STAGE_CUSUM, STAGE_METRIC

TRACE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "traces"
    / "rubis_cpuhog_metrics.csv"
)

CONFIG = FChainConfig()


def _margin_rejects_everywhere(raw, errors, references, full, config):
    """The margin test rejects a candidate at every index, both ways."""
    thresholds = expected_prediction_errors(
        full,
        list(raw.times),
        burst_window=config.burst_window,
        high_frequency_fraction=config.high_frequency_fraction,
        percentile=config.burst_percentile,
    )
    for time, threshold in zip(raw.times, thresholds):
        for direction in (1, -1):
            actual = actual_prediction_error(
                errors, raw, int(time), direction=direction
            )
            expected = max(float(threshold), references[direction])
            if not actual <= config.prediction_error_margin * expected:
                return False
    return True


class ScreenAudit:
    """Wraps ``FChainSlave._select_cached`` to audit every screen verdict."""

    def __init__(self, monkeypatch):
        self.screened = 0
        self.kept = 0
        self.short_history = 0
        original = FChainSlave._select_cached

        def audited(slave, component, metric, full, raw, history, errors,
                    split, revision=0, span=None):
            config = slave.config
            window_errors = errors[split:]
            references = history_error_references(
                errors[:split], config.history_error_percentile
            )
            if selection_ruled_out(
                raw, window_errors, references, config, full
            ):
                self.screened += 1
                if min(references.values()) == 0.0:
                    self.short_history += 1
                forced = select_abnormal_changes(
                    raw,
                    history,
                    metric,
                    config,
                    seed=(slave.seed, component),
                    errors=window_errors,
                    history_errors=errors[:split],
                    full_series=full,
                )
                assert forced == [], (component, metric, raw.start)
                assert _margin_rejects_everywhere(
                    raw, window_errors, references, full, config
                ), (component, metric, raw.start)
            else:
                self.kept += 1
            return original(
                slave, component, metric, full, raw, history, errors,
                split, revision, span,
            )

        monkeypatch.setattr(FChainSlave, "_select_cached", audited)

    def sweep(self, store, violations, config=CONFIG, seed=3):
        slave = FChainSlave(config, seed=seed)
        return [
            slave.analyze(store, component, violation)
            for violation in violations
            for component in store.components
        ]

    def assert_both_outcomes(self):
        assert self.screened > 0
        assert self.kept > 0


def _violations(store, first, stride):
    last = store.end - CONFIG.analysis_grace - 1
    return list(range(store.start + first, last, stride)) + [last]


@pytest.fixture(scope="module")
def mesh_store():
    app = MeshApplication(seed=11, services=8, duration=700)
    target = app.default_fault_target()
    app.inject(BottleneckFault(450, target, cap=app.bottleneck_cap(target)))
    app.run(560)
    return app.store


def _degraded_store():
    """A policy store fed the synthetic series with gaps.

    Short gaps land in the look-back windows (filled by the policy); a
    long gap early in the history stays missing, so the analysis clips
    the series past it.
    """
    clean = synthetic_store(samples=600, components=3, metrics=2, seed=5)
    store = MetricStore(policy=DataQualityPolicy(max_gap=3))
    rng = np.random.default_rng(5)
    for component in clean.components:
        for metric in clean.metrics_for(component):
            values = clean.series(component, metric).values
            dropped = set(range(60, 80))
            dropped |= set(int(t) for t in rng.choice(
                np.arange(100, 600), size=40, replace=False
            ))
            for t, value in enumerate(values):
                if t not in dropped:
                    store.ingest(component, metric, t, float(value))
    store.advance_to(600)
    return store


class TestEveryScreenedWindowSelectsNothing:
    def test_synthetic_store(self, monkeypatch):
        store = synthetic_store(samples=900, components=4, metrics=2, seed=7)
        audit = ScreenAudit(monkeypatch)
        audit.sweep(store, _violations(store, 105, 37))
        audit.assert_both_outcomes()

    def test_short_history_has_zero_reference(self, monkeypatch):
        """Fewer than 20 same-direction history errors: reference 0.0.

        Against a zero reference only a window without any non-zero
        error may be screened; these windows (even the flat series'
        cold Markov model errs) must all run the full selection.
        """
        noisy = 30.0 + np.random.default_rng(9).normal(0.0, 2.0, 300)
        store = MetricStore.from_arrays({
            "flat": {Metric.CPU_USAGE: np.full(300, 30.0)},
            "noisy": {Metric.CPU_USAGE: noisy},
        })
        audit = ScreenAudit(monkeypatch)
        window = CONFIG.look_back_window
        audit.sweep(store, [window + 2, window + 8, window + 15])
        assert audit.screened == 0
        assert audit.kept == 6

    def test_bundled_rubis_trace(self, monkeypatch):
        store = load_store_csv(TRACE)
        audit = ScreenAudit(monkeypatch)
        audit.sweep(store, _violations(store, 150, 61))
        audit.assert_both_outcomes()

    def test_seeded_mesh_store(self, monkeypatch, mesh_store):
        audit = ScreenAudit(monkeypatch)
        audit.sweep(mesh_store, _violations(mesh_store, 150, 41))
        audit.assert_both_outcomes()

    def test_degraded_series(self, monkeypatch):
        store = _degraded_store()
        audit = ScreenAudit(monkeypatch)
        reports = audit.sweep(store, _violations(store, 110, 29))
        audit.assert_both_outcomes()
        assert any(r.quality.samples_filled for r in reports if not r.skipped)


def _step_window(length=240, split=140, seed=0):
    rng = np.random.default_rng(seed)
    values = 30.0 + rng.normal(0.0, 1.0, length)
    values[split + 50 :] += 15.0
    full = TimeSeries(values, start=0)
    raw = full.window(split, length)
    return full, raw


class TestScreenConditions:
    def test_all_nan_window_errors_are_screened(self):
        full, raw = _step_window()
        errors = np.full(len(raw), np.nan)
        history_errors = np.random.default_rng(1).normal(0.0, 1.0, 140)
        references = history_error_references(history_errors, 99.7)
        assert selection_ruled_out(raw, errors, references, CONFIG, full)
        history = full.window(full.start, raw.start)
        assert select_abnormal_changes(
            raw, history, Metric.CPU_USAGE, CONFIG,
            errors=errors, history_errors=history_errors, full_series=full,
        ) == []
        assert _margin_rejects_everywhere(raw, errors, references, full, CONFIG)

    def test_short_history_screens_only_zero_errors(self):
        full, raw = _step_window()
        history_errors = np.array([1.0] * 19 + [-1.0] * 19)
        references = history_error_references(history_errors, 99.7)
        assert references == {1: 0.0, -1: 0.0}
        zeros = np.zeros(len(raw))
        assert selection_ruled_out(raw, zeros, references, CONFIG, full)
        tiny = zeros.copy()
        tiny[-1] = 1e-9
        assert not selection_ruled_out(raw, tiny, references, CONFIG, full)

    def test_errors_above_the_smaller_reference_are_kept(self):
        full, raw = _step_window()
        history_errors = np.concatenate([np.full(50, 4.0), np.full(50, -1.0)])
        references = history_error_references(history_errors, 99.7)
        margin = CONFIG.prediction_error_margin
        below = np.full(len(raw), margin * 1.0)
        above = np.full(len(raw), margin * 1.0 + 1e-6)
        assert selection_ruled_out(raw, below, references, CONFIG, full)
        assert not selection_ruled_out(raw, above, references, CONFIG, full)

    def test_non_finite_burst_input_disables_the_screen(self):
        full, raw = _step_window()
        references = {1: 5.0, -1: 5.0}
        errors = np.zeros(len(raw))
        assert selection_ruled_out(raw, errors, references, CONFIG, full)
        poisoned = full.values.copy()
        # Just outside the window, but inside a burst window's reach.
        poisoned[raw.start - CONFIG.burst_window] = np.nan
        bad = TimeSeries(poisoned, start=full.start)
        assert not selection_ruled_out(raw, errors, references, CONFIG, bad)
        huge = full.values.copy()
        huge[-1] = 1e200
        big = TimeSeries(huge, start=full.start)
        assert not selection_ruled_out(raw, errors, references, CONFIG, big)

    def test_negative_margin_disables_the_screen(self):
        full, raw = _step_window()
        config = FChainConfig(prediction_error_margin=-1.0)
        errors = np.zeros(len(raw))
        assert not selection_ruled_out(
            raw, errors, {1: 0.0, -1: 0.0}, config, full
        )

    def test_references_match_per_direction_reference(self):
        errors = np.random.default_rng(4).standard_t(3, 500)
        errors[::17] = np.nan
        pair = history_error_references(errors, 99.7)
        for direction in (1, -1):
            assert pair[direction] == history_error_reference(
                errors, direction, 99.7
            )

    def test_precomputed_references_give_identical_selection(self):
        store = synthetic_store(samples=600, components=1, metrics=1, seed=2)
        component = store.components[0]
        metric = store.metrics_for(component)[0]
        full = store.series(component, metric)
        raw = full.window(full.end - 100, full.end)
        history = full.window(full.start, raw.start)
        errors = np.random.default_rng(6).normal(0.0, 0.5, len(full))
        errors[-60:] *= 40.0
        split = raw.start - full.start
        kwargs = dict(
            errors=errors[split:], history_errors=errors[:split],
            full_series=full, seed=1,
        )
        inline = select_abnormal_changes(raw, history, metric, CONFIG, **kwargs)
        passed = select_abnormal_changes(
            raw, history, metric, CONFIG,
            history_references=history_error_references(
                errors[:split], CONFIG.history_error_percentile
            ),
            **kwargs,
        )
        assert inline
        assert passed == inline


def _reports(diagnosis):
    return diagnosis.result.reports, diagnosis.result.faulty


class TestEnginesAgree:
    @pytest.fixture
    def store(self):
        return synthetic_store(samples=900, components=4, metrics=2, seed=7)

    def _localize(self, store, **kwargs):
        violation = store.end - CONFIG.analysis_grace - 1
        with FChain(CONFIG, seed=2, **kwargs) as fchain:
            return fchain.localize(store, violation_time=violation)

    def test_screen_matches_unscreened_selection(self, store, monkeypatch):
        screened = self._localize(store)
        monkeypatch.setattr(
            fchain_module, "selection_ruled_out", lambda *args: False
        )
        unscreened = self._localize(store)
        assert screened.result.faulty
        assert _reports(screened) == _reports(unscreened)

    def test_replay_engine_matches_warm_engine(self, store):
        warm = self._localize(store)
        replay = self._localize(store, incremental=False)
        assert _reports(replay) == _reports(warm)

    def test_process_executor_matches_serial(self, store):
        violation = store.end - CONFIG.analysis_grace - 1
        config = FChainConfig(executor="process")
        with FChain(config, seed=2, jobs=2) as fchain:
            processed = fchain.localize(store, violation_time=violation)
        serial = self._localize(store)
        assert _reports(processed) == _reports(serial)


def test_screened_windows_are_counted_on_the_metric_span():
    store = synthetic_store(samples=900, components=4, metrics=2, seed=7)
    config = FChainConfig(telemetry="full")
    violation = store.end - config.analysis_grace - 1
    diagnosis = FChain(config, seed=2).localize(store, violation_time=violation)
    trace = diagnosis.trace
    screened = trace.counter_total("cusum_screened")
    detected = len(trace.find_all(STAGE_CUSUM))
    assert screened > 0
    assert detected > 0
    assert screened + detected == len(trace.find_all(STAGE_METRIC))
