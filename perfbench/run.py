"""FChain repository benchmark: sample-to-incident over the HTTP edge.

Usage::

    python3 perfbench/run.py --workload rubis-stream --seed 1 --seconds 20 --trace 0

Run from the repository root. Starts ``python -m repro edge`` as its own
process, drives it over loopback HTTP from one asyncio process, scores
every incident against the injected ground truth and prints one JSON
object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
inputs twice, untraced then traced (see ``launch_traced.py``), and
reports the per-layer metrics plus the tracing overhead. See README.md
for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import gen
from loadgen import run_pass
from gen import ANALYSIS_GRACE
from score import (
    Speed,
    incident_latency,
    median,
    percentile,
    score_incidents,
    unattributed_share,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Set-up spawns per untraced run; setup_s is their median.
SETUPS = 3
#: Generator lateness bound: a run whose p99 lag exceeds it is invalid.
GEN_LAG_BOUND_MS = 25.0
#: Median reading of ``calibrate.py`` that timings are normalized to.
REFERENCE_PROBE_S = 0.0027
#: Units scaled by the CPU-speed factor: times shrink, rates grow.
_TIME_UNITS = {"s", "ms", "us", "ns"}
_RATE_UNITS = {"samples/s"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def _incidents(result) -> List[Dict]:
    return [arrival.payload for arrival in result.arrivals]


def _latencies(inputs, result, push_of_tick) -> List[Tuple[float, Dict, object]]:
    out = []
    for arrival in result.arrivals:
        timed = incident_latency(
            arrival.payload, arrival.perf, push_of_tick, result.scheduled, ANALYSIS_GRACE
        )
        if timed is not None:
            out.append((timed[0], arrival.payload, arrival))
    return out


def speed_factor(result) -> float:
    """How much slower than the reference the SUT's CPUs ran over a
    whole pass: the median probe reading over ``REFERENCE_PROBE_S``."""
    return Speed(result.cpu_probe, REFERENCE_PROBE_S).factor()


def normalized(metrics: Dict, factor: float, raw=("gen.lag_p99_ms",)) -> Dict:
    """Scale every timing of a pass to the reference CPU speed.

    The benchmark host is shared: the same CPU-bound loop takes anywhere
    from 1x to 2x as long from one second to the next, and drift over a
    set of runs moved every wall-clock metric by 20-80 %. Dividing times
    (and multiplying rates) by the probe's speed factor removes the part
    of that drift the SUT's cores share with ``calibrate.py``; counts,
    ratios and memory stay as measured. The end-to-end metrics apply the
    factor per sample instead (``end_to_end``).
    """
    out = {}
    for name, metric in metrics.items():
        value, unit = metric["value"], metric["unit"]
        if name not in raw and unit in _TIME_UNITS:
            value = value / factor
        elif unit in _RATE_UNITS:
            value = value * factor
        out[name] = _metric(value, unit)
    return out


def check(inputs, result) -> List[str]:
    """The run's correctness checks; returns the failures."""
    problems = list(result.errors)
    stats = result.final_stats
    if inputs.mode == "pipeline":
        consumed = (stats.get("pipeline") or {}).get("ticks")
    else:
        consumed = stats.get("enqueued_batches")
        if (stats.get("fleet") or {}).get("ingest_dropped", 0):
            problems.append("fleet shed tick batches at routing")
    if consumed != result.pushed_ticks:
        problems.append(f"consumed ticks {consumed} != pushed ticks {result.pushed_ticks}")
    if result.stopped is None:
        problems.append("the SUT did not report its shutdown counts")
    elif result.stopped[0] != result.pushed_ticks:
        problems.append(f"SUT enqueued {result.stopped[0]} batches, pushed {result.pushed_ticks}")
    webhooks = len(result.arrivals)
    rest = len(result.records)
    durable = result.durable_count if result.durable_count is not None else (
        result.stopped[2] if result.stopped else None
    )
    if not webhooks == rest == durable:
        problems.append(f"incident counts disagree: webhook {webhooks}, REST {rest}, store {durable}")
    if not result.incidents_complete:
        problems.append(f"{webhooks} incident(s) for {len(inputs.episodes)} episodes")
    if result.readyz_failures:
        problems.append(f"/readyz failed {result.readyz_failures} time(s)")
    if result.pipeline_errors:
        problems.append(f"pipeline error: {result.pipeline_errors[0]}")
    if result.exit_code != 0:
        problems.append(f"the SUT exited with {result.exit_code}")
    lag = percentile(result.gen_lag_s, 99) * 1000 if result.gen_lag_s else 0.0
    if lag > GEN_LAG_BOUND_MS:
        problems.append(f"invalid run: generator p99 lag {lag:.1f} ms > {GEN_LAG_BOUND_MS} ms")
    return problems


def end_to_end(inputs, result, accuracy, push_of_tick) -> Dict:
    """The user-visible metrics of one untraced pass.

    Every timing is divided by the CPU-speed factor measured around it
    (see ``speed_factor``), and every rate multiplied by it.
    """
    speed = Speed(result.cpu_probe, REFERENCE_PROBE_S)

    def scaled(latency: float, end: float) -> float:
        return latency / speed.factor(end - latency, end)

    setup = [scaled(s, hi) for s, (_, hi) in zip(result.setup_s, result.setup_windows)]
    pushes = [scaled(lat, end) for lat, end in zip(result.push_latency_s, result.push_done)]
    queries = [scaled(lat, end) for lat, end in zip(result.query_latency_s, result.query_done)]
    incidents = [scaled(lat, arrival.perf) for lat, _, arrival in _latencies(inputs, result, push_of_tick)]
    capacity = [
        samples / (drained - started) * speed.factor(started, drained)
        for samples, started, drained in result.capacity_chunks
    ]
    cpu_s = result.open_loop_cpu_s / speed.factor(*result.open_loop_window)
    return {
        "setup_s": _metric(median(setup), "s"),
        "ingest_capacity_sps": _metric(median(capacity), "samples/s"),
        "push_p50_ms": _metric(percentile(pushes, 50) * 1000, "ms"),
        "push_p99_ms": _metric(percentile(pushes, 99) * 1000, "ms"),
        "incident_latency_p50_ms": _metric(median(incidents) * 1000, "ms"),
        "query_p95_ms": _metric(percentile(queries, 95) * 1000, "ms"),
        "localization_precision": _metric(accuracy.precision, "ratio"),
        "localization_recall": _metric(accuracy.recall, "ratio"),
        "cpu_ms_per_ksample": _metric(cpu_s * 1000 / (result.open_loop_samples / 1000.0), "ms"),
        "peak_rss_mb": _metric(result.peak_rss_mb, "MB"),
    }


def per_layer(inputs, traced, untraced, push_of_tick) -> Dict:
    """Per-layer metrics from the traced pass's spans; 0 where the layer
    is not on this workload's serving path (``fleet.*`` on the pipeline
    workloads)."""
    dump = json.loads(traced.spans_path.read_text())
    spans = [dict(zip(dump["fields"], row)) for row in dump["spans"]]
    by_name: Dict[str, List[Dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    aggregates = {(a["name"], a["parent"]): a for a in dump["aggregates"]}
    counters = dump["counters"]
    fleet = dump.get("fleet") or {}

    def durations(name: str) -> List[float]:
        return [s["end"] - s["start"] for s in by_name.get(name, ())]

    def mean(values, scale=1.0) -> float:
        return sum(values) / len(values) * scale if values else 0.0

    def agg(name: str, parents=None) -> Tuple[int, float]:
        count = total = 0
        for (n, parent), entry in aggregates.items():
            if n == name and (parents is None or parent in parents):
                count += entry["count"]
                total += entry["total"]
        return count, total

    tick_runtimes = ("OnlinePipeline.process", "TenantRuntime.process")
    ticks = sum(len(by_name.get(n, ())) for n in tick_runtimes)
    diagnoses = len(by_name.get("FChain.localize", ())) or 1
    incidents = _incidents(traced)
    dispatch_ticks = {(p.get("tenant") or None, p["violation_tick"] + ANALYSIS_GRACE) for p in incidents}
    tick_steps = [
        s["end"] - s["start"]
        for name in tick_runtimes
        for s in by_name.get(name, ())
        if (s["tenant"], s["id"]) not in dispatch_ticks
    ]
    sync_count, sync_total = agg("FChainSlave.sync_with_store", tick_runtimes)
    ingest_count, ingest_total = agg("MetricStore.ingest", tick_runtimes)
    slo_count, slo_total = agg("SLODetector.observe")
    _, markov_total = agg("MarkovPredictor.update_many")
    _, cusum_total = agg("detect_change_points")
    _, burst_total = agg("expected_prediction_errors")
    _, smoothing_total = agg("smooth_series")
    _, outlier_total = agg("outlier_change_points")
    _, rollback_total = agg("rollback_onset")
    created = {(r["tenant"], r["violation_tick"]): r["created_at"] for r in traced.records}
    webhook_lag = [
        a.wall - created[(a.payload.get("tenant", ""), a.payload["violation_tick"])]
        for a in traced.arrivals
        if (a.payload.get("tenant", ""), a.payload["violation_tick"]) in created
    ]
    samples_sent = traced.samples_sent or 1
    stats = traced.final_stats
    dropped = (stats.get("pipeline") or {}).get("dropped", 0) + fleet.get("diagnosis_shed", 0)
    detected = counters.get("change_points_detected", 0)

    latency_t = [lat for lat, _, _ in _latencies(inputs, traced, push_of_tick)]
    latency_u = [lat for lat, _, _ in _latencies(inputs, untraced, push_of_tick)]

    return {
        "edge.decode_us_per_sample": _metric(sum(durations("edge.decode_push")) / samples_sent * 1e6, "us"),
        "edge.push_shed_ratio": _metric(traced.open_loop_shed / max(1, traced.open_loop_attempts), "ratio"),
        "edge.ingest_queue_depth_max": _metric(max(traced.queue_depths, default=0), "count"),
        "edge.store_append_ms": _metric(mean(durations("IncidentStore.append"), 1e3), "ms"),
        "edge.store_query_ms": _metric(mean(durations("IncidentStore.query"), 1e3), "ms"),
        "edge.webhook_lag_ms": _metric(median(webhook_lag) * 1e3 if webhook_lag else 0.0, "ms"),
        "monitoring.store_ingest_us_per_tick": _metric(ingest_total / max(1, ingest_count) * 1e6, "us"),
        "monitoring.slo_observe_us": _metric(slo_total / max(1, slo_count) * 1e6, "us"),
        "service.tick_us_p50": _metric(percentile(tick_steps, 50) * 1e6, "us"),
        "service.tick_us_p99": _metric(percentile(tick_steps, 99) * 1e6, "us"),
        "service.warm_sync_us_per_tick": _metric(sync_total / max(1, ticks) * 1e6, "us"),
        "service.warm_sync_skipped_ratio": _metric(1.0 - sync_count / max(1, ticks), "ratio"),
        "service.grace_and_queue_ms": _metric(
            median([(p["trigger_latency_seconds"] - p["diagnosis_latency_seconds"]) * 1e3 for p in incidents])
            if incidents else 0.0, "ms"),
        "service.triggers_dropped": _metric(dropped, "count"),
        "core.diagnosis_ms": _metric(median(durations("FChain.localize")) * 1e3, "ms"),
        "core.analyze_ms_per_component": _metric(mean(durations("FChainSlave.analyze"), 1e3), "ms"),
        "core.cusum_ms_per_incident": _metric(cusum_total / diagnoses * 1e3, "ms"),
        "core.burst_ms_per_incident": _metric(burst_total / diagnoses * 1e3, "ms"),
        "core.select_ms_per_incident": _metric(
            sum(s["self"] for s in by_name.get("select_abnormal_changes", ())) / diagnoses * 1e3, "ms"),
        "core.pinpoint_ms": _metric(sum(durations("pinpoint_faulty_components")) / diagnoses * 1e3, "ms"),
        "core.change_points_kept_ratio": _metric(
            counters.get("abnormal_changes_kept", 0) / detected if detected else 0.0, "ratio"),
        "core.markov_update_ns_per_sample": _metric(
            markov_total / max(1, counters.get("markov_samples", 0)) * 1e9, "ns"),
        "core.smoothing_ms_per_incident": _metric(smoothing_total / diagnoses * 1e3, "ms"),
        "core.outlier_filter_ms_per_incident": _metric(outlier_total / diagnoses * 1e3, "ms"),
        "core.rollback_ms_per_incident": _metric(rollback_total / diagnoses * 1e3, "ms"),
        "fleet.ingest_us_per_batch": _metric(mean(durations("FleetSupervisor.ingest"), 1e6), "us"),
        "fleet.tenant_tick_us": _metric(mean(durations("TenantRuntime.process"), 1e6), "us"),
        "fleet.shard_queue_depth_max": _metric(max(traced.shard_depths, default=0.0), "count"),
        "fleet.ingest_dropped": _metric(fleet.get("ingest_dropped", 0), "count"),
        "fleet.diagnosis_shed": _metric(fleet.get("diagnosis_shed", 0), "count"),
        "obs.tracing_overhead_ratio": _metric(median(latency_t) / median(latency_u), "ratio"),
        "obs.tracing_capacity_ratio": _metric(untraced.capacity_sps / traced.capacity_sps, "ratio"),
        "obs.unattributed_latency_share": _metric(
            _unattributed(inputs, traced, spans, push_of_tick), "ratio"),
        "gen.lag_p99_ms": _metric(percentile(traced.gen_lag_s, 99) * 1e3, "ms"),
    }


def _unattributed(inputs, result, spans, push_of_tick) -> float:
    """Median share of an incident's latency window no span covers.

    The window is the one ``incident_latency_p50_ms`` measures. Covered
    are the incident's top-level spans: the decode of the carrying push,
    the per-tick processing up to the dispatch tick (pipeline or tenant
    runtime and fleet routing), the diagnosis and the store append.
    """
    decode: Dict[Tuple, List] = {}
    keyed: Dict[Tuple, List] = {}
    for span in spans:
        if span["name"] == "edge.decode_push" and span["id"]:
            lo, hi = span["id"]
            for tick in range(lo, hi + 1):
                decode.setdefault((span["tenant"], tick), []).append(span)
        elif span["parent"] is None:
            keyed.setdefault((span["name"], span["tenant"], span["id"]), []).append(span)
    shares = []
    for latency, payload, arrival in _latencies(inputs, result, push_of_tick):
        tenant = payload.get("tenant") or None
        v = payload["violation_tick"]
        dispatch = v + ANALYSIS_GRACE
        push = inputs.timed[push_of_tick[(payload.get("tenant", ""), dispatch)]]
        window = (arrival.perf - latency, arrival.perf)
        chosen = list(decode.get((tenant, dispatch), ()))
        for tick in range(push.first_tick, dispatch + 1):
            for name in ("OnlinePipeline.process", "TenantRuntime.process", "FleetSupervisor.ingest"):
                chosen += keyed.get((name, tenant, tick), ())
        for name in ("FChain.localize", "TenantRuntime.diagnose", "IncidentStore.append"):
            chosen += keyed.get((name, tenant, v), ())
        shares.append(unattributed_share(window, [(s["start"], s["end"]) for s in chosen]))
    return median(shares) if shares else 0.0


def compare_offline(inputs) -> List[Tuple]:
    """Offline FChainLocalizer verdicts on each episode's own fork."""
    from repro.baselines.base import LocalizationContext
    from repro.core.config import FChainConfig
    from repro.eval.runner import FChainLocalizer

    rows = []
    bases: Dict = {}
    for episode in inputs.episodes:
        family, seed, warm, fault, offset = episode.recipe
        if (seed, warm) not in bases:
            bases[(seed, warm)] = (
                gen.rubis_base(seed, warm) if family == "rubis"
                else gen.mesh_base(seed, warm, gen.MESH_SERVICES)
            )
        make = gen.rubis_fault(fault) if family == "rubis" else gen.mesh_fault(fault)
        fork, _, _, violation = gen._run_episode(bases[(seed, warm)], make, offset)
        context = LocalizationContext(config=FChainConfig(), seed=42)
        verdict = FChainLocalizer().localize(fork.store, violation_time=violation, context=context)
        rows.append((episode, sorted(verdict)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare-offline", action="store_true",
                        help="also print offline FChainLocalizer verdicts per episode")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in gen.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(gen.WORKLOADS)}")
    inputs = gen.load_inputs(args.workload, args.seed, args.seconds, WORK / "cache")
    push_of_tick = inputs.push_of_tick()
    work = WORK / "runs" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        untraced = run_pass(inputs, ROOT, work / "untraced", traced=False,
                            setups=1 if args.trace else SETUPS)
        traced = run_pass(inputs, ROOT, work / "traced", traced=True, setups=1) if args.trace else None
        passes = [untraced] + ([traced] if traced else [])
        main_result = passes[-1]
        accuracy = score_incidents(inputs.episodes, _incidents(main_result))
        problems = check(inputs, untraced)
        if traced is not None:
            problems += [f"traced pass: {p}" for p in check(inputs, traced)]
            if traced.spans_path is None or not traced.spans_path.exists():
                problems.append("the traced SUT wrote no spans")
        for problem in problems:
            print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
        factor = speed_factor(main_result)
        rates = [n / (b - a) for n, a, b in main_result.capacity_chunks]
        print(f"perfbench: raw capacity chunks {[round(r) for r in rates]}, "
              f"cpu speed factor {factor:.3f}", file=sys.stderr)
        try:
            if traced is not None:
                metrics = normalized(per_layer(inputs, traced, untraced, push_of_tick), factor)
            else:
                metrics = end_to_end(inputs, untraced, accuracy, push_of_tick)
        except (ValueError, KeyError, ZeroDivisionError, OSError) as error:
            if not problems:
                raise
            print(f"perfbench: metrics unavailable: {error!r}", file=sys.stderr)
            metrics = {}
        if args.compare_offline:
            online = {i: main_result.arrivals[k].payload["faulty"] for i, k in accuracy.matched}
            for index, (episode, offline) in enumerate(compare_offline(inputs)):
                print(f"episode {index:2d} {episode.tenant or '-':7s} {episode.kind:12s} "
                      f"truth={episode.truth} online={online.get(index)} offline={offline}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Failures against attempts, over every pass of the run: pushes
    # still refused after retries, episodes without an incident, dropped
    # triggers and fleet routing drops.
    attempted = failed = 0
    for result in passes:
        stats = result.final_stats
        attempted += result.pushes + len(inputs.episodes)
        failed += (
            result.pushes_failed
            + score_incidents(inputs.episodes, _incidents(result)).missed_episodes
            + (stats.get("pipeline") or {}).get("dropped", 0)
            + (stats.get("fleet") or {}).get("ingest_dropped", 0)
        )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
