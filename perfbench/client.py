"""Asyncio plumbing of the load generator: HTTP client, webhook listener,
and the system-under-test process.

Everything here runs on the generator's single event loop. The client
speaks just enough HTTP/1.1 for the edge server (keep-alive,
``Content-Length`` framed responses); the listener accepts the SUT's
webhook POSTs and timestamps their arrival on the same monotonic clock
(``time.perf_counter``, CLOCK_MONOTONIC on Linux, shared by every
process) that schedules the pushes.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class HttpError(RuntimeError):
    pass


class HttpConnection:
    """One keep-alive client connection; one request in flight at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "HttpConnection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        content_type: str = "application/json",
    ) -> Tuple[int, bytes]:
        if self._writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise HttpError(f"{method} {path}: connection closed")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        payload = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, payload

    async def get_json(self, path: str) -> Tuple[int, Dict]:
        status, payload = await self.request("GET", path)
        try:
            return status, json.loads(payload or b"{}")
        except ValueError:
            return status, {}


@dataclass
class WebhookArrival:
    perf: float  # time.perf_counter() at arrival
    wall: float  # time.time() at arrival
    payload: Dict


class WebhookListener:
    """Loopback HTTP server collecting the SUT's incident webhooks."""

    def __init__(self) -> None:
        self.arrivals: List[WebhookArrival] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        self._changed = asyncio.Event()

    async def start(self) -> "WebhookListener":
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/incident"

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def wait_for(self, count: int, timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        while len(self.arrivals) < count:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return False
            self._changed.clear()
            try:
                await asyncio.wait_for(self._changed.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True

    async def _handle(self, reader, writer) -> None:
        try:
            await reader.readline()
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            body = await reader.readexactly(length) if length else b""
            perf, wall = time.perf_counter(), time.time()
            self.arrivals.append(WebhookArrival(perf, wall, json.loads(body)))
            self._changed.set()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            writer.close()


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise HttpError(f"no VmHWM for pid {pid}")


@dataclass
class Sut:
    """One spawned ``repro edge`` process."""

    proc: asyncio.subprocess.Process
    port: int
    started: float  # perf_counter at spawn
    setup_s: float
    stdout_lines: List[str] = field(default_factory=list)
    _pump: Optional[asyncio.Task] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def stop(self, timeout: float = 90.0) -> int:
        """POST /v1/shutdown, wait for exit (kill on timeout)."""
        if self.proc.returncode is None:
            try:
                conn = await HttpConnection("127.0.0.1", self.port).open()
                await asyncio.wait_for(conn.request("POST", "/v1/shutdown"), 10)
                await conn.close()
            except (OSError, HttpError, asyncio.TimeoutError):
                pass
            try:
                await asyncio.wait_for(self.proc.wait(), timeout)
            except asyncio.TimeoutError:
                self.proc.send_signal(signal.SIGKILL)
                await self.proc.wait()
        if self._pump is not None:
            await self._pump
        return self.proc.returncode


async def spawn_sut(
    argv: List[str],
    env: Dict[str, str],
    cwd: Path,
    log_path: Path,
    timeout: float = 60.0,
    cpus: Optional[set] = None,
) -> Sut:
    """Start the SUT; return once ``/readyz`` answers 200.

    ``setup_s`` runs from the spawn to that first 200: interpreter start,
    imports, store open and tenant registration.
    """
    started = time.perf_counter()
    log = open(log_path, "wb")
    proc = await asyncio.create_subprocess_exec(
        *argv,
        cwd=str(cwd),
        env=env,
        stdin=asyncio.subprocess.DEVNULL,
        stdout=asyncio.subprocess.PIPE,
        stderr=log,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
    )
    log.close()
    lines: List[str] = []
    port_future: asyncio.Future = asyncio.get_running_loop().create_future()

    async def pump() -> None:
        while True:
            raw = await proc.stdout.readline()
            if not raw:
                break
            line = raw.decode(errors="replace").rstrip()
            lines.append(line)
            if "listening on http://" in line and not port_future.done():
                port_future.set_result(int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1]))
        if not port_future.done():
            port_future.set_exception(HttpError("the SUT exited before listening"))

    task = asyncio.create_task(pump())
    try:
        port = await asyncio.wait_for(asyncio.shield(port_future), timeout)
        deadline = started + timeout
        while True:
            try:
                conn = await HttpConnection("127.0.0.1", port).open()
                status, _ = await conn.request("GET", "/readyz")
                await conn.close()
                if status == 200:
                    break
            except (OSError, HttpError):
                pass
            if time.perf_counter() > deadline:
                raise HttpError("the SUT never became ready")
            await asyncio.sleep(0.002)
    except BaseException:
        if proc.returncode is None:
            proc.send_signal(signal.SIGKILL)
            await proc.wait()
        await task
        raise
    sut = Sut(proc, port, started, time.perf_counter() - started, lines, task)
    return sut


def cpu_split() -> Optional[Tuple[set, set]]:
    """(generator CPUs, SUT CPUs) when this process may use two or more.

    The generator keeps the first CPU and the SUT gets the rest, so
    neither steals the other's core and placement does not vary from
    run to run; None (no pinning) on a single CPU.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class CpuProbe:
    """``calibrate.py`` running beside the SUT on the SUT's CPUs."""

    def __init__(self, cpus: Optional[set]) -> None:
        self.cpus = cpus
        self.proc: Optional[asyncio.subprocess.Process] = None

    async def start(self) -> "CpuProbe":
        cpus = self.cpus
        self.proc = await asyncio.create_subprocess_exec(
            PYTHON, str(Path(__file__).resolve().parent / "calibrate.py"),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        # Wait out the probe's own start-up so it does not land in the
        # SUT's set-up time.
        await asyncio.wait_for(self.proc.stdout.readline(), 30)
        return self

    async def stop(self) -> List[List[float]]:
        """Close the probe's stdin; returns its ``[time, CPU s]`` readings."""
        if self.proc is None:
            return []
        out, _ = await asyncio.wait_for(self.proc.communicate(b""), 30)
        self.proc = None
        return json.loads(out or b"[]")


def python_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


PYTHON = sys.executable or "python3"
