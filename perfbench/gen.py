"""Seeded input generator: simulated fault episodes, stitched and pre-encoded.

Every workload is a stream of 1 Hz ticks built from ``repro.apps``
simulations with ``repro.faults`` injected. One *episode* is one fault:
a fork of a warmed-up application runs a drawn offset, the fault is
injected, and the fork runs until its own SLO detector declares the
violation. The episode's *segment* is the fork's ticks from ``LEAD``
before the injection to ``POST`` after the violation; segments are
re-timestamped and concatenated into one stream behind a healthy
lead-in. ``LEAD`` keeps every seam out of the look-back window of the
episode that follows it, and makes consecutive violations lie more than
``service_cooldown`` apart, so each episode yields one trigger.

The system under test only ever sees the bytes built here: CSV push
bodies in the repository's long format (``time,component,metric,value``
with ``@performance`` rows for the SLO signal), encoded before any
timing starts.

The fault schedule of a workload is fixed (drawn from SCHEDULE_SEED);
``--seed`` draws the open-loop arrival process: each push's gap is the
workload's mean interval times U(0.5, 1.5). Localization verdicts are a
deterministic function of the pushed data, and with ~10-30 episodes per
run, per-seed schedules moved precision and recall by 17-74 % (IQR over
median) between seeds -- no usable regression bound. The episode stream
is cached on disk by ``(workload, seconds)`` and generator source.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np


#: SUT settings every workload shares (look-back 100, grace 8, sustain 10).
ANALYSIS_GRACE = 8

#: Healthy ticks before each injection; > look-back window minus the
#: fastest violation delay, plus margin.
LEAD = 110
#: Ticks kept after each violation (covers the analysis grace).
POST = ANALYSIS_GRACE + 12
#: Fork offsets are drawn from [0, OFFSET_SPAN).
OFFSET_SPAN = 200
#: Ticks a fork may run after the injection before the episode is
#: redrawn as a non-violating one.
MAX_DELAY = 300

#: Workload-trace ticks generated past an application's run-up.
TRACE_SPARE = 3000

CSV_HEADER = b"time,component,metric,value\n"


@dataclass
class Push:
    """One ``POST /v1/ingest`` body and what it carries."""

    tenant: str
    first_tick: int
    chunks: List[bytes]  # one CSV chunk per tick, in tick order
    samples: int

    @property
    def ticks(self) -> int:
        return len(self.chunks)

    @property
    def last_tick(self) -> int:
        return self.first_tick + len(self.chunks) - 1

    def body(self, skip: int = 0) -> bytes:
        return CSV_HEADER + b"".join(self.chunks[skip:])

    def samples_from(self, skip: int) -> int:
        return self.samples * (len(self.chunks) - skip) // len(self.chunks)


@dataclass
class Episode:
    """One injected fault and where it sits in the stream."""

    tenant: str
    kind: str
    truth: List[str]
    start_tick: int  # first stream tick of the segment
    end_tick: int  # one past the last stream tick of the segment
    inject_tick: int
    violation_tick: int  # as declared by the simulation's own detector
    #: How to re-create the fork offline:
    #: (app family, base seed, run-up ticks, fault kind or target, offset).
    recipe: Tuple = ()


@dataclass
class Inputs:
    workload: str
    seconds: int
    mode: str  # "pipeline" or "fleet"
    rate: float  # mean open-loop pushes per second
    warmup: List[Push]
    timed: List[Push]
    tail: List[Push]
    episodes: List[Episode]
    sut_args: List[str]
    tenants: List[str] = field(default_factory=list)
    #: Fleet drain probes: single-tick pushes past the tail, alternating
    #: between one tenant of each shard.
    probes: List[Push] = field(default_factory=list)
    #: Set by :func:`load_inputs` from ``--seed``.
    seed: int = 0
    #: Gap before each timed push after the first, in seconds.
    gaps: List[float] = field(default_factory=list)

    def schedule(self, t0: float) -> List[float]:
        """Scheduled send times of the timed pushes, from ``t0``."""
        times, t = [], t0
        for k in range(len(self.timed)):
            if k:
                t += self.gaps[k - 1]
            times.append(t)
        return times

    def push_of_tick(self) -> Dict[Tuple[str, int], int]:
        """(tenant, tick) -> index of the timed push that carries it."""
        index: Dict[Tuple[str, int], int] = {}
        for k, push in enumerate(self.timed):
            for tick in range(push.first_tick, push.last_tick + 1):
                index[(push.tenant, tick)] = k
        return index


# ----------------------------------------------------------------------
# Simulation helpers
# ----------------------------------------------------------------------
def _tick_table(app, lo: int, hi: int):
    """Per-tick (rows, performance) of an app's own ticks [lo, hi)."""
    store = app.store
    columns = []
    for component in store.components:
        for metric in store.metrics_for(component):
            series = store.series(component, metric)
            values = series.values[lo - series.start : hi - series.start]
            columns.append((component, metric.value, values))
    perf = app.slo.performance_series()
    performance = perf.values[lo - perf.start : hi - perf.start]
    return columns, performance


def _encode(columns, performance, first_stream_tick: int) -> List[bytes]:
    """CSV chunks (one per tick) re-timestamped from first_stream_tick."""
    chunks = []
    for i in range(len(performance)):
        t = first_stream_tick + i
        lines = [
            f"{t},{component},{metric},{float(values[i])!r}\n"
            for component, metric, values in columns
        ]
        lines.append(f"{t},@performance,latency,{float(performance[i])!r}\n")
        chunks.append("".join(lines).encode())
    return chunks


def _run_episode(base, make_fault, offset: int):
    """Fork ``base``, run ``offset``, inject, run until violation.

    Returns ``(fork, fault, inject, violation)`` in the fork's own ticks,
    or ``None`` when the fault does not violate within MAX_DELAY.
    """
    fork = copy.deepcopy(base)
    fork.run(offset)
    inject = fork.time
    fault = make_fault(inject, fork)
    fork.inject(fault)
    for _ in range(MAX_DELAY // 10):
        fork.run(10)
        violation = fork.slo.first_violation_after(inject)
        if violation is not None:
            fork.run(max(0, violation + POST - fork.time))
            return fork, fault, inject, violation
    return None


class _Stream:
    """Accumulates one tenant's stitched per-tick CSV chunks."""

    def __init__(self, tenant: str = "") -> None:
        self.tenant = tenant
        self.chunks: List[bytes] = []
        self.episodes: List[Episode] = []

    @property
    def end(self) -> int:
        return len(self.chunks)

    def append_healthy(self, app, lo: int, hi: int) -> None:
        columns, performance = _tick_table(app, lo, hi)
        self.chunks.extend(_encode(columns, performance, self.end))

    def append_episode(
        self, fork, fault, inject, violation, recipe, lead: int = LEAD
    ) -> None:
        lo, hi = inject - lead, violation + POST
        start = self.end
        columns, performance = _tick_table(fork, lo, hi)
        self.chunks.extend(_encode(columns, performance, start))
        self.episodes.append(
            Episode(
                tenant=self.tenant,
                kind=fault.kind,
                truth=sorted(fault.ground_truth),
                start_tick=start,
                end_tick=self.end,
                inject_tick=start + (inject - lo),
                violation_tick=start + (violation - lo),
                recipe=recipe,
            )
        )


def _pushes(stream: _Stream, lo: int, hi: int, per_push: int, samples: int):
    return [
        Push(
            stream.tenant,
            t,
            stream.chunks[t : min(t + per_push, hi)],
            samples * (min(t + per_push, hi) - t),
        )
        for t in range(lo, hi, per_push)
    ]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
RUBIS_FAULTS = ("cpuhog", "memleak", "nethog", "offload_bug", "lb_bug")
#: Seeds of the fixed deployments and fault schedule (see the module
#: docstring for why ``--seed`` does not move them).
SCHEDULE_SEED = 2026
RUBIS_BASE_SEED = ("perfbench-rubis", 0)


def rubis_fault(kind: str):
    """Factory ``(t, app) -> Fault`` for the paper's RUBiS faults."""
    from repro.apps.rubis import DB, WEB
    from repro.faults import library

    return {
        "cpuhog": lambda t, app: library.CpuHogFault(t, DB),
        "memleak": lambda t, app: library.MemLeakFault(t, DB),
        "nethog": lambda t, app: library.NetHogFault(t, WEB),
        "offload_bug": lambda t, app: library.OffloadBugFault(t),
        "lb_bug": lambda t, app: library.LBBugFault(t),
    }[kind]


def rubis_base(seed, warm: int):
    from repro.apps.rubis import RubisApplication

    app = RubisApplication(seed=seed, duration=warm + TRACE_SPARE)
    app.run(warm)
    return app


def mesh_base(seed, warm: int, services: int):
    from repro.apps.mesh import MeshApplication

    app = MeshApplication(
        seed=seed,
        services=services,
        duration=warm + TRACE_SPARE,
    )
    app.run(warm)
    return app


def mesh_fault(target: str):
    from repro.faults.library import BottleneckFault

    return lambda t, app: BottleneckFault(t, target, cap=app.bottleneck_cap(target))


def _episodes_until(stream, rng, base, draw, limit_ticks: int) -> None:
    """Append episodes from ``draw(rng) -> (make_fault, recipe)`` until
    the stream holds ``limit_ticks`` ticks."""
    while stream.end < limit_ticks:
        make_fault, recipe = draw(rng)
        offset = int(rng.integers(0, OFFSET_SPAN))
        outcome = _run_episode(base, make_fault, offset)
        if outcome is None:
            continue
        stream.append_episode(*outcome, recipe=recipe + (offset,))


@dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload (rates, sizes, SUT flags)."""

    name: str
    mode: str
    ticks_per_push: int
    pushes_per_second: float
    warmup_ticks: int
    tail_ticks: int


RUBIS = Spec("rubis-stream", "pipeline", 2, 125.0, 300, 6000)
MESH = Spec("mesh-fanout", "pipeline", 1, 40.0, 200, 600)
FLEET = Spec("fleet-tenants", "fleet", 3, 160.0, 100, 80)
#: Distinct healthy simulations the non-faulty fleet tenants share.
FLEET_HEALTHY_SIMS = 8
FLEET_SHARDS = 2
#: Ticks past the tail that each probe tenant holds for drain probes.
PROBE_TICKS = 300
MESH_SERVICES = 30
MESH_LAYOUT_SEED = ("perfbench-mesh", 0)
FLEET_TENANTS = 64
FLEET_FAULTY = 16
FLEET_FAULTS = ("cpuhog", "nethog", "offload_bug", "lb_bug")


def build_rubis(seconds: int) -> Inputs:
    spec = RUBIS
    rng = np.random.default_rng([SCHEDULE_SEED, 1])
    warm = 600
    base = rubis_base(RUBIS_BASE_SEED, warm)
    stream = _Stream()
    stream.append_healthy(base, warm - spec.warmup_ticks, warm)
    kinds = itertools.cycle(RUBIS_FAULTS)

    def draw(rng):
        kind = next(kinds)
        return rubis_fault(kind), ("rubis", RUBIS_BASE_SEED, warm, kind)

    timed_ticks = int(spec.ticks_per_push * spec.pushes_per_second * seconds)
    _episodes_until(stream, rng, base, draw, spec.warmup_ticks + timed_ticks)
    return _pipeline_inputs(spec, seconds, stream, base, [], 24)


def build_mesh(seconds: int) -> Inputs:
    spec = MESH
    rng = np.random.default_rng([SCHEDULE_SEED, 2])
    warm = 400
    base = mesh_base(MESH_LAYOUT_SEED, warm, MESH_SERVICES)
    stream = _Stream()
    stream.append_healthy(base, warm - spec.warmup_ticks, warm)

    layers = itertools.cycle((1, 2, 3))

    def draw(rng):
        target = base.service_in_layer(next(layers), int(rng.integers(0, 8)))
        return mesh_fault(target), ("mesh", MESH_LAYOUT_SEED, warm, target)

    timed_ticks = int(spec.ticks_per_push * spec.pushes_per_second * seconds)
    _episodes_until(stream, rng, base, draw, spec.warmup_ticks + timed_ticks)
    sut = ["--threshold", repr(float(base.slo_threshold))]
    return _pipeline_inputs(spec, seconds, stream, base, sut, MESH_SERVICES * 6)


def _pipeline_inputs(spec, seconds, stream, base, sut_args, per_tick) -> Inputs:
    # Violation-free tail for the capacity phase: the base app's healthy
    # continuation, appended behind the last episode.
    tail_app = copy.deepcopy(base)
    tail_app.run(spec.tail_ticks)
    lo = tail_app.time - spec.tail_ticks
    timed_end = stream.end
    stream.append_healthy(tail_app, lo, tail_app.time)
    per_push = spec.ticks_per_push
    return Inputs(
        workload=spec.name,
        seconds=seconds,
        mode=spec.mode,
        rate=spec.pushes_per_second,
        warmup=_pushes(stream, 0, spec.warmup_ticks, 10, per_tick),
        timed=_pushes(stream, spec.warmup_ticks, timed_end, per_push, per_tick),
        tail=_pushes(stream, timed_end, stream.end, 10, per_tick),
        episodes=stream.episodes,
        sut_args=sut_args,
    )


def fleet_tenants() -> List[str]:
    return [f"t-{i:04d}" for i in range(FLEET_TENANTS)]


def _fleet_episode(base, rank: int, slot: int, latest: int):
    """A fault injected at the end of ``base``'s run-up whose violation
    lands on stream tick ``slot`` — or later, when the fault violates
    too fast for a LEAD-tick run-up — but no later than ``latest``. The
    run-up before the injection is taken as the stream's lead. Tries the
    tenant's assigned fault kind first, then the others.

    Returns ``(fork, fault, inject, violation, lead)`` or None.
    """
    for step in range(len(FLEET_FAULTS)):
        kind = FLEET_FAULTS[(rank + step) % len(FLEET_FAULTS)]
        outcome = _run_episode(base, rubis_fault(kind), 0)
        if outcome is None:
            continue
        fork, fault, inject, violation = outcome
        lead = max(LEAD, slot - (violation - inject))
        if lead + (violation - inject) <= latest and lead <= inject:
            return fork, fault, inject, violation, lead
    return None


def build_fleet(seconds: int) -> Inputs:
    """64 RUBiS-shaped tenants; FLEET_FAULTY of them fault once each, on
    violation slots spaced evenly across the timed phase.

    Each faulty tenant's stream is one continuous fork (healthy run-up,
    injection, violation on its slot) followed by a healthy
    continuation. The other tenants replay one of FLEET_HEALTHY_SIMS
    healthy simulations.
    """
    spec = FLEET
    rng = np.random.default_rng([SCHEDULE_SEED, 3])
    tenants = fleet_tenants()
    warmup = spec.warmup_ticks
    rounds = int(spec.pushes_per_second * seconds / len(tenants))
    timed_ticks = rounds * spec.ticks_per_push
    total = warmup + timed_ticks + spec.tail_ticks
    streamed = total + PROBE_TICKS
    faulty = sorted(rng.choice(len(tenants), FLEET_FAULTY, replace=False).tolist())
    earliest = max(warmup + 10, LEAD + 20)
    latest = max(earliest, warmup + timed_ticks - POST - 20)
    slots = np.linspace(earliest, latest, FLEET_FAULTY).astype(int)
    rng.shuffle(slots)
    # Faults are injected at the end of a run-up long enough to place
    # the latest violation; healthy tenants start after the same run-up.
    warm = latest

    healthy_sims = []
    for index in range(FLEET_HEALTHY_SIMS):
        app = rubis_base(("perfbench-fleet", "healthy", index), warm)
        app.run(streamed)
        healthy_sims.append(app)

    streams: List[_Stream] = []
    for index, tenant in enumerate(tenants):
        stream = _Stream(tenant)
        if index in faulty:
            slot = int(slots[faulty.index(index)])
            base = rubis_base(("perfbench-fleet", index), warm)
            outcome = _fleet_episode(base, faulty.index(index), slot, latest)
            if outcome is None:
                raise RuntimeError(f"no fleet episode for {tenant} violates in time")
            fork, fault, inject, violation, lead = outcome
            stream.append_episode(
                fork, fault, inject, violation,
                recipe=("rubis", ("perfbench-fleet", index), warm, fault.kind, 0), lead=lead,
            )
            rest = streamed - stream.end
            app = healthy_sims[index % FLEET_HEALTHY_SIMS]
            stream.append_healthy(app, warm, warm + rest)
        else:
            app = healthy_sims[index % FLEET_HEALTHY_SIMS]
            stream.append_healthy(app, warm, warm + streamed)
        streams.append(stream)

    def interleave(lo: int, hi: int, per_push: int) -> List[Push]:
        pushes: List[Push] = []
        for t in range(lo, hi, per_push):
            for stream in streams:
                pushes.extend(_pushes(stream, t, min(t + per_push, hi), per_push, 24))
        return pushes

    from repro.fleet.ring import HashRing

    ring = HashRing(range(FLEET_SHARDS))
    probe_tenants: Dict[int, int] = {}
    for index, tenant in enumerate(tenants):
        probe_tenants.setdefault(ring.shard_for(tenant), index)
    probes = [
        push
        for t in range(total, streamed)
        for index in sorted(probe_tenants.values())
        for push in _pushes(streams[index], t, t + 1, 1, 24)
    ]
    return Inputs(
        workload=spec.name,
        seconds=seconds,
        mode=spec.mode,
        rate=spec.pushes_per_second,
        warmup=interleave(0, warmup, 10),
        timed=interleave(warmup, warmup + timed_ticks, spec.ticks_per_push),
        tail=interleave(warmup + timed_ticks, total, 10),
        episodes=[e for s in streams for e in s.episodes],
        sut_args=[],
        tenants=tenants,
        probes=probes,
    )


WORKLOADS = {"rubis-stream": build_rubis, "mesh-fanout": build_mesh, "fleet-tenants": build_fleet}


def arrival_gaps(seed: int, count: int, rate: float) -> List[float]:
    """Seeded open-loop gaps: the mean interval times U(0.5, 1.5)."""
    rng = np.random.default_rng([seed, 7])
    return (rng.uniform(0.5, 1.5, max(0, count - 1)) / rate).tolist()


def load_inputs(workload: str, seed: int, seconds: int, cache_dir: Optional[Path]) -> Inputs:
    """Build (or load from ``cache_dir``) the inputs of one run."""
    path = None
    if cache_dir is not None:
        # Keyed by this module's source too, so editing the generator
        # invalidates every cached input.
        digest = hashlib.sha1(Path(__file__).read_bytes()).hexdigest()[:12]
        path = cache_dir / f"{workload}-{seconds}-{digest}.pkl"
    if path is not None and path.exists():
        with path.open("rb") as handle:
            inputs = pickle.load(handle)
    else:
        inputs = WORKLOADS[workload](seconds)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{seed}.tmp")
            with tmp.open("wb") as handle:
                pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
    inputs.seed = seed
    inputs.gaps = arrival_gaps(seed, len(inputs.timed), inputs.rate)
    return inputs
