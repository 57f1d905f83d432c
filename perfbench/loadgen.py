"""One pass of a workload against a freshly started SUT.

Phases, all driven from one asyncio event loop:

1. **set-up** — spawn ``repro edge`` ``setups`` times, timing each to its
   first ``/readyz`` 200; every spawn but the last is shut down again;
2. **warm-up** — push the healthy lead-in closed-loop (untimed);
3. **open loop** — push the timed stream at the workload's fixed rate on
   connection A while connection B sends ``GET /v1/incidents?limit=20``
   at a fixed rate and samples ``/v1/stats``, ``/readyz`` and (fleet)
   ``/v1/metrics``; the SUT's webhooks arrive at the generator's
   listener. The phase ends when every episode's incident has arrived;
4. **capacity tail** — push violation-free ticks closed-loop and time
   the SUT until its backlog has drained;
5. **shutdown** — read the final REST state, stop the SUT, read the
   durable store.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from client import (
    PYTHON,
    HttpConnection,
    Sut,
    CpuProbe,
    WebhookListener,
    cpu_split,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    python_env,
    spawn_sut,
)
from gen import Inputs, Push

#: Queries per second on connection B during the open-loop phase.
QUERY_RATE = 40.0
#: Every Nth query slot also samples /v1/stats and checks /readyz.
STATS_EVERY = 10
#: Every Nth query slot in fleet mode also scrapes /v1/metrics (the
#: Prometheus render holds the SUT's event loop for milliseconds).
METRICS_EVERY = 40
#: Fixed pause before re-sending a push answered with 429.
RETRY_PAUSE_S = 0.005
#: The capacity tail is timed in this many chunks; the median is reported.
CAPACITY_CHUNKS = 10
#: A push still refused after this many attempts counts as failed.
MAX_ATTEMPTS = 2000
#: Seconds to wait for the incidents of the open-loop phase.
INCIDENT_TIMEOUT_S = 60.0

FLEET_MANIFEST = Path(__file__).resolve().parent / "fleet_manifest.json"
#: (generator CPUs, SUT CPUs), taken before the generator pins itself.
CPU_SPLIT = cpu_split()
_GAUGE = re.compile(r'^fchain_fleet_shard_queue_depth\{shard="(\d+)"\} (\S+)$', re.M)
_STOPPED = re.compile(r"stopped after (\d+) batches \((\d+) shed\), (\d+) incident")


@dataclass
class PassResult:
    setup_s: List[float] = field(default_factory=list)
    setup_windows: List[tuple] = field(default_factory=list)
    push_latency_s: List[float] = field(default_factory=list)
    push_done: List[float] = field(default_factory=list)
    scheduled: List[float] = field(default_factory=list)
    gen_lag_s: List[float] = field(default_factory=list)
    pushes: int = 0  # distinct pushes sent
    pushes_attempted: int = 0  # including 429 retries
    pushes_shed: int = 0
    open_loop_attempts: int = 0
    open_loop_shed: int = 0
    pushes_failed: int = 0
    samples_sent: int = 0
    query_latency_s: List[float] = field(default_factory=list)
    query_done: List[float] = field(default_factory=list)
    queue_depths: List[int] = field(default_factory=list)
    shard_depths: List[float] = field(default_factory=list)
    readyz_failures: int = 0
    pipeline_errors: List[str] = field(default_factory=list)
    arrivals: list = field(default_factory=list)
    records: List[Dict] = field(default_factory=list)
    final_stats: Dict = field(default_factory=dict)
    open_loop_cpu_s: float = 0.0
    open_loop_samples: int = 0
    #: (samples, start, drained) per closed-loop tail chunk.
    capacity_chunks: List[tuple] = field(default_factory=list)
    open_loop_window: tuple = (0.0, 0.0)
    cpu_probe: List[List[float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    stopped: Optional[tuple] = None
    durable_count: Optional[int] = None
    pushed_ticks: int = 0
    incidents_complete: bool = False
    spans_path: Optional[Path] = None
    exit_code: Optional[int] = None
    errors: List[str] = field(default_factory=list)

    @property
    def capacity_sps(self) -> float:
        """Median raw samples/s over the capacity chunks."""
        rates = sorted(n / (b - a) for n, a, b in self.capacity_chunks)
        return rates[len(rates) // 2]


class Pass:
    def __init__(self, inputs: Inputs, root: Path, work: Path, *, traced: bool, setups: int):
        self.inputs = inputs
        self.root = root
        self.work = work
        self.traced = traced
        self.setups = setups
        self.result = PassResult()
        self.fleet = inputs.mode == "fleet"

    # -- SUT ------------------------------------------------------------
    def _argv(self, index: int, webhook: str) -> List[str]:
        inputs = self.inputs
        args = ["edge", "--port", "0", "--seed", "42", "--webhook", webhook]
        if inputs.workload == "mesh-fanout":
            args += ["--store", "memory"]
        else:
            args += ["--store", "sqlite", "--store-path", str(self._store_path(index))]
        if self.fleet:
            args += ["--manifest", str(FLEET_MANIFEST)]
        args += inputs.sut_args
        if self.traced:
            self.result.spans_path = self.work / "spans.json"
            return [PYTHON, "-u", str(Path(__file__).resolve().parent / "launch_traced.py"),
                    str(self.result.spans_path)] + args
        return [PYTHON, "-u", "-m", "repro"] + args

    def _store_path(self, index: int) -> Path:
        return self.work / f"incidents-{index}.sqlite"

    async def _start(self, webhook: str) -> Sut:
        env = python_env(self.root)
        if CPU_SPLIT is not None:
            os.sched_setaffinity(0, CPU_SPLIT[0])
        sut = None
        for index in range(self.setups):
            if sut is not None:
                await sut.stop()
            sut = await spawn_sut(
                self._argv(index, webhook), env, self.root, self.work / f"sut-{index}.log",
                cpus=CPU_SPLIT[1] if CPU_SPLIT else None,
            )
            self.result.setup_s.append(sut.setup_s)
            self.result.setup_windows.append((sut.started, sut.started + sut.setup_s))
        return sut

    # -- pushing --------------------------------------------------------
    async def _send(self, conn: HttpConnection, push: Push) -> int:
        """Send one push, retrying 429s after a fixed pause; in fleet mode
        a retry carries only the ticks not yet accepted. Returns the
        final status."""
        skip = 0
        self.result.pushes += 1
        path = f"/v1/ingest?tenant={push.tenant}" if push.tenant else "/v1/ingest"
        for _ in range(MAX_ATTEMPTS):
            self.result.pushes_attempted += 1
            self.result.samples_sent += push.samples_from(skip)
            status, payload = await conn.request("POST", path, push.body(skip), "text/csv")
            if status == 202:
                return status
            if status != 429:
                self.result.errors.append(f"push at tick {push.first_tick}: HTTP {status} {payload[:200]!r}")
                return status
            self.result.pushes_shed += 1
            if self.fleet:
                skip += int(json.loads(payload).get("accepted_batches", 0))
            await asyncio.sleep(RETRY_PAUSE_S)
        return 429

    async def _closed_loop(self, conn: HttpConnection, pushes: List[Push]) -> None:
        for push in pushes:
            if await self._send(conn, push) != 202:
                self.result.pushes_failed += 1
            else:
                self.result.pushed_ticks += push.ticks

    async def _open_loop(self, conn: HttpConnection, t0: float, done: asyncio.Event) -> None:
        result = self.result
        previous_done = t0
        attempts_before, shed_before = result.pushes_attempted, result.pushes_shed
        result.scheduled = self.inputs.schedule(t0)
        for push, scheduled in zip(self.inputs.timed, result.scheduled):
            now = time.perf_counter()
            if now < scheduled:
                await asyncio.sleep(scheduled - now)
            woke = time.perf_counter()
            result.gen_lag_s.append(max(0.0, woke - max(scheduled, previous_done)))
            status = await self._send(conn, push)
            previous_done = time.perf_counter()
            result.push_latency_s.append(previous_done - scheduled)
            result.push_done.append(previous_done)
            if status != 202:
                result.pushes_failed += 1
            else:
                result.pushed_ticks += push.ticks
                result.open_loop_samples += push.samples
        result.open_loop_attempts = result.pushes_attempted - attempts_before
        result.open_loop_shed = result.pushes_shed - shed_before
        done.set()

    async def _observer(self, conn: HttpConnection, t0: float, done: asyncio.Event) -> None:
        result = self.result
        interval = 1.0 / QUERY_RATE
        slot = 0
        while not done.is_set():
            scheduled = t0 + slot * interval
            now = time.perf_counter()
            if now < scheduled:
                try:
                    await asyncio.wait_for(done.wait(), scheduled - now)
                    break
                except asyncio.TimeoutError:
                    pass
            status, _ = await conn.request("GET", "/v1/incidents?limit=20")
            now = time.perf_counter()
            result.query_latency_s.append(now - scheduled)
            result.query_done.append(now)
            if status != 200:
                result.errors.append(f"incident query: HTTP {status}")
            if slot % STATS_EVERY == 0:
                await self._sample_stats(conn, metrics=slot % METRICS_EVERY == 0)
                status, _ = await conn.request("GET", "/readyz")
                if status != 200:
                    result.readyz_failures += 1
            slot += 1

    async def _sample_stats(self, conn: HttpConnection, metrics: bool = True) -> Dict:
        status, stats = await conn.get_json("/v1/stats")
        self.result.queue_depths.append(int(stats.get("queue_depth", 0)))
        error = (stats.get("pipeline") or {}).get("error")
        if error:
            self.result.pipeline_errors.append(error)
        if self.fleet and metrics:
            depths = await self._shard_depths(conn)
            if depths:
                self.result.shard_depths.append(max(depths.values()))
        return stats

    async def _shard_depths(self, conn: HttpConnection) -> Dict[int, float]:
        _, text = await conn.request("GET", "/v1/metrics")
        return {int(s): float(v) for s, v in _GAUGE.findall(text.decode())}

    async def _capacity(self, push_conn, query_conn) -> None:
        """Push the tail closed-loop in CAPACITY_CHUNKS chunks, each timed
        from its first push until the backlog drained."""
        tail = self.inputs.tail
        size = -(-len(tail) // CAPACITY_CHUNKS)
        probes = list(self.inputs.probes)
        for lo in range(0, len(tail), size):
            chunk = tail[lo : lo + size]
            started = time.perf_counter()
            await self._closed_loop(push_conn, chunk)
            if self.fleet:
                drained, probes = await self._drain_fleet(push_conn, query_conn, probes)
            else:
                drained = await self._drain_pipeline(query_conn)
            self.result.capacity_chunks.append(
                (sum(p.samples for p in chunk), started, drained)
            )

    # -- drain ----------------------------------------------------------
    async def _drain_pipeline(self, conn: HttpConnection, timeout: float = 60.0) -> float:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            _, stats = await conn.get_json("/v1/stats")
            if (stats.get("pipeline") or {}).get("ticks", -1) >= self.result.pushed_ticks:
                return time.perf_counter()
            await asyncio.sleep(0.005)
        self.result.errors.append("pipeline backlog did not drain")
        return time.perf_counter()

    async def _drain_fleet(self, push_conn, conn, probes: List[Push], timeout: float = 60.0):
        """Push one probe tick per shard until every shard queue gauge,
        set by the SUT at routing time, reads 0. Returns that moment and
        the probes not yet used."""
        deadline = time.perf_counter() + timeout
        for step in range(0, len(probes), 2):
            sent = time.perf_counter()
            for push in probes[step : step + 2]:
                if await self._send(push_conn, push) == 202:
                    self.result.pushed_ticks += push.ticks
                else:
                    self.result.pushes_failed += 1
            depths = await self._shard_depths(conn)
            if depths and all(v == 0 for v in depths.values()):
                return sent, probes[step + 2 :]
            if time.perf_counter() > deadline:
                break
            await asyncio.sleep(0.005)
        self.result.errors.append("fleet backlog did not drain within the probe budget")
        return time.perf_counter(), []

    # -- the pass -------------------------------------------------------
    async def run(self) -> PassResult:
        result = self.result
        inputs = self.inputs
        listener = await WebhookListener().start()
        probe = await CpuProbe(CPU_SPLIT[1] if CPU_SPLIT else None).start()
        try:
            sut = await self._start(listener.url)
        except BaseException:
            await probe.stop()
            raise
        pid = sut.pid
        push_conn = await HttpConnection("127.0.0.1", sut.port).open()
        query_conn = await HttpConnection("127.0.0.1", sut.port).open()
        try:
            await self._closed_loop(push_conn, inputs.warmup)
            if inputs.warmup and not self.fleet:
                await self._drain_pipeline(query_conn)
            elif inputs.warmup:
                await self._settle(pid)

            cpu0 = proc_cpu_seconds(pid)
            done = asyncio.Event()
            t0 = time.perf_counter() + 0.05
            await asyncio.gather(
                self._open_loop(push_conn, t0, done),
                self._observer(query_conn, t0, done),
            )
            result.incidents_complete = await listener.wait_for(
                len(inputs.episodes), INCIDENT_TIMEOUT_S
            )
            if not self.fleet:
                await self._drain_pipeline(query_conn)
            result.open_loop_cpu_s = proc_cpu_seconds(pid) - cpu0
            result.open_loop_window = (t0, time.perf_counter())

            await self._capacity(push_conn, query_conn)

            result.final_stats = await self._sample_stats(query_conn)
            _, listing = await query_conn.get_json("/v1/incidents?limit=100000")
            result.records = listing.get("incidents", [])
            result.peak_rss_mb = proc_peak_rss_mb(pid)
        finally:
            result.cpu_probe = await probe.stop()
            await push_conn.close()
            await query_conn.close()
            result.exit_code = await sut.stop()
            await listener.close()
        result.arrivals = list(listener.arrivals)
        for line in sut.stdout_lines:
            match = _STOPPED.search(line)
            if match:
                result.stopped = tuple(int(g) for g in match.groups())
        if inputs.workload != "mesh-fanout":
            result.durable_count = _sqlite_count(self._store_path(self.setups - 1))
        return result

    async def _settle(self, pid: int, quiet_s: float = 0.2, timeout: float = 60.0) -> None:
        """Wait until the SUT is idle: under 5% of a core over quiet_s."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            before = proc_cpu_seconds(pid)
            await asyncio.sleep(quiet_s)
            if proc_cpu_seconds(pid) - before < 0.05 * quiet_s:
                return


def _sqlite_count(path: Path) -> Optional[int]:
    if not path.exists():
        return None
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return int(connection.execute("SELECT COUNT(*) FROM incidents").fetchone()[0])
    finally:
        connection.close()


def run_pass(inputs: Inputs, root: Path, work: Path, *, traced: bool, setups: int) -> PassResult:
    work.mkdir(parents=True, exist_ok=True)
    return asyncio.run(Pass(inputs, root, work, traced=traced, setups=setups).run())
