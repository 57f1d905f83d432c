"""In-memory span recorder wrapped around the serving path's public calls.

:func:`install` replaces the layer-boundary functions named in
``WRAPPED`` — at their defining module and at every import site that
binds them by name — with recorders. A span holds its name, start, end,
self time (duration minus the time its child spans on the same thread
cover), its parent's name and an id: the tick, the violation tick or the
tenant, so the spans of one incident share an id. High-rate leaf calls
(``AGGREGATED``) are folded into per-(name, parent) totals instead of
kept one by one. :meth:`Recorder.dump` writes everything as JSON.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), the
clock the load generator schedules pushes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Leaf calls too frequent to keep one by one.
AGGREGATED = {
    "MarkovPredictor.update_many",
    "MetricStore.ingest",
    "SLODetector.observe",
    "FChainSlave.sync_with_store",
    "detect_change_points",
    "expected_prediction_errors",
    "smooth_series",
    "outlier_change_points",
    "rollback_onset",
}


class _Frame:
    __slots__ = ("name", "child", "ident", "tenant")

    def __init__(self, name, ident, tenant) -> None:
        self.name = name
        self.child = 0.0
        self.ident = ident
        self.tenant = tenant


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.aggregates: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.counters: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.server = None

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        ident: Optional[Callable] = None,
        tenant: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        aggregated = name in AGGREGATED
        local = self._local
        spans = self.spans
        recorder = self

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = _Frame(
                name,
                ident(args, kwargs) if ident else (parent.ident if parent else None),
                tenant(args, kwargs) if tenant else (parent.tenant if parent else None),
            )
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child += duration
                parent_name = parent.name if parent else None
                if aggregated:
                    key = (name, parent_name)
                    with recorder._lock:
                        slot = recorder.aggregates.get(key)
                        if slot is None:
                            slot = recorder.aggregates[key] = [0, 0.0, 0.0]
                        slot[0] += 1
                        slot[1] += duration
                        slot[2] += duration - frame.child
            if after is not None:
                after(recorder, frame, args, result)
            if not aggregated:
                spans.append(
                    (name, start, end, duration - frame.child, parent_name,
                     frame.ident, frame.tenant)
                )
            return result

        recorded.__wrapped_by_perfbench__ = True
        return recorded

    def dump(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "self", "parent", "id", "tenant"],
            "spans": self.spans,
            "aggregates": [
                {"name": n, "parent": p, "count": c, "total": t, "self": s}
                for (n, p), (c, t, s) in self.aggregates.items()
            ],
            "counters": self.counters,
            "fleet": _fleet_stats(self.server),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _fleet_stats(server) -> Dict:
    supervisor = getattr(server, "supervisor", None)
    if supervisor is None:
        return {}
    shards = supervisor.shard_stats
    return {
        "diagnosis_shed": sum(s.get("shed_total", 0) for s in shards.values()),
        "ingest_dropped": sum(supervisor.ingest_dropped.values()),
        "ticks": sum(
            t.get("ticks", 0) for s in shards.values() for t in s.get("tenants", {}).values()
        ),
    }


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _arg(position: int, keyword: str):
    def get(args, kwargs):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else None

    return get


def _batch_tick(position: int):
    def get(args, kwargs):
        batch = args[position] if len(args) > position else kwargs.get("batch")
        return int(batch.time)

    return get


def _decode_id(recorder, frame, args, push) -> None:
    # The push's ticks are known only after decoding.
    frame.ident = (push.batches[0].time, push.batches[-1].time) if push.batches else None
    frame.tenant = push.tenant or None


def _count_detected(recorder, frame, args, points) -> None:
    recorder.count("change_points_detected", len(points))


def _count_kept(recorder, frame, args, changes) -> None:
    recorder.count("abnormal_changes_kept", len(changes))


def _count_markov(recorder, frame, args, errors) -> None:
    recorder.count("markov_samples", len(errors))


def _violation_of(args, kwargs):
    return int(kwargs["violation_time"]) if "violation_time" in kwargs else int(args[3])


#: (module, attribute path, span name, id, tenant, after, import sites)
WRAPPED = [
    ("repro.edge.ingest", "decode_push", "edge.decode_push", None, None, _decode_id,
     ["repro.edge.server"]),
    ("repro.edge.store", "IncidentStore.append", "IncidentStore.append",
     lambda a, k: int(a[1].violation_tick), lambda a, k: k.get("tenant") or None,
     None, []),
    ("repro.edge.store", "SqliteIncidentStore.query", "IncidentStore.query", None, None, None, []),
    ("repro.edge.store", "MemoryIncidentStore.query", "IncidentStore.query", None, None, None, []),
    ("repro.monitoring.store", "MetricStore.ingest", "MetricStore.ingest", None, None, None, []),
    ("repro.monitoring.slo", "SLODetector.observe", "SLODetector.observe", None, None, None, []),
    ("repro.service.pipeline", "OnlinePipeline.process", "OnlinePipeline.process",
     _batch_tick(1), None, None, []),
    ("repro.core.fchain", "FChainSlave.sync_with_store", "FChainSlave.sync_with_store",
     None, None, None, []),
    ("repro.core.fchain", "FChainSlave.analyze", "FChainSlave.analyze",
     _violation_of, None, None, []),
    ("repro.core.fchain", "FChain.localize", "FChain.localize",
     lambda a, k: int(k["violation_time"]), None, None, []),
    ("repro.core.cusum", "detect_change_points", "detect_change_points", None, None,
     _count_detected, ["repro.core.selection"]),
    ("repro.core.burst", "expected_prediction_errors", "expected_prediction_errors",
     None, None, None, ["repro.core.selection"]),
    ("repro.core.smoothing", "smooth_series", "smooth_series", None, None, None,
     ["repro.core.selection"]),
    ("repro.core.outliers", "outlier_change_points", "outlier_change_points", None, None,
     None, ["repro.core.selection"]),
    # Called by name inside its own module, so wrapping the module
    # attribute is enough.
    ("repro.core.selection", "rollback_onset", "rollback_onset", None, None, None, []),
    ("repro.core.selection", "select_abnormal_changes", "select_abnormal_changes",
     None, None, _count_kept, ["repro.core.fchain"]),
    ("repro.core.pinpoint", "pinpoint_faulty_components", "pinpoint_faulty_components",
     None, None, None, ["repro.core.fchain"]),
    ("repro.core.prediction", "MarkovPredictor.update_many", "MarkovPredictor.update_many",
     None, None, _count_markov, []),
    ("repro.fleet.supervisor", "FleetSupervisor.ingest", "FleetSupervisor.ingest",
     _batch_tick(2), _arg(1, "tenant"), None, []),
    ("repro.fleet.tenant", "TenantRuntime.process", "TenantRuntime.process",
     _batch_tick(1), lambda a, k: a[0].spec.tenant, None, []),
    ("repro.fleet.tenant", "TenantRuntime.diagnose", "TenantRuntime.diagnose",
     lambda a, k: int(a[1].violation_tick), lambda a, k: a[0].spec.tenant, None, []),
]


def install() -> Recorder:
    """Wrap every function in ``WRAPPED``; returns the live recorder."""
    recorder = Recorder()
    for module_name, path, name, ident, tenant, after, sites in WRAPPED:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapped = recorder.wrap(original, name, ident, tenant, after)
        setattr(owner, attr, wrapped)
        for site in sites:
            site_module = importlib.import_module(site)
            if getattr(site_module, attr, None) is original:
                setattr(site_module, attr, wrapped)
            else:
                raise RuntimeError(f"{site}.{attr} is not {module_name}.{attr}")

    from repro.edge.server import EdgeServer

    start = EdgeServer.start

    def capture(self, *args, **kwargs):
        recorder.server = self
        return start(self, *args, **kwargs)

    EdgeServer.start = capture
    return recorder
