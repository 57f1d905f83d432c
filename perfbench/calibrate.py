"""CPU-speed probe that runs beside the SUT on the SUT's CPUs.

Usage: ``python perfbench/calibrate.py`` (normally started by
``loadgen.py``). Every ``PERIOD_S`` it times one fixed workload in *CPU* time
(``time.thread_time``), so the reading moves with how fast the core
executes — clock, cache, memory bandwidth and SMT-sibling pressure on a
shared host — and not with how long the scheduler kept the probe
waiting. The workload mixes what the SUT spends its time on, using only
the standard library and numpy (never code under test, so a faster
SUT cannot speed up its own yardstick): interpreter-bound dict and float
work, CSV parsing, JSON round trips, and numpy passes over a 2 MB array.

It prints ``ready`` after its first reading; when its standard input
closes it prints the readings as one JSON list of
``[perf_counter at the reading, CPU seconds]`` pairs and exits. The
probe costs about 3 % of one CPU.
"""

from __future__ import annotations

import csv
import io
import json
import select
import sys
import time

import numpy as np

PERIOD_S = 0.1
_CSV = "\n".join(
    f"{t},svc{c:03d},cpu_usage,{(t * 31 + c * 7) % 1000 / 7.0!r}"
    for t in range(10)
    for c in range(12)
)
_ARRAY = np.arange(262144, dtype=float)


def workload() -> float:
    """One fixed unit of mixed work; returns its CPU seconds."""
    started = time.thread_time()
    table = {}
    acc = 0.0
    for i in range(2000):
        table[i & 255] = acc
        acc += (i * 0.5) % 7.0
    rows = list(csv.reader(io.StringIO(_CSV)))
    json.loads(json.dumps(rows))
    float((_ARRAY * 1.0001).sum())
    np.sort(_ARRAY[::5] % 977.0)
    return time.thread_time() - started


def main() -> int:
    readings = [(time.perf_counter(), workload())]
    print("ready", flush=True)
    while True:
        cpu = workload()
        readings.append((time.perf_counter(), cpu))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(4096):
            break
    print(json.dumps(readings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
