"""Open-loop HTTP load generator, schedules and percentiles.

One asyncio driver thread, in a process of its own, holds
``CONNECTIONS`` keep-alive HTTP/1.1 connections.  Requests are released at
their due times from a deterministic schedule; a request that finds
every connection busy waits for one, and that wait counts in its
latency, which runs from the due time to the response.  How late each
request was actually sent is kept too (``loadgen.late_p95_ms``), so a run where the generator fell behind
can be flagged instead of trusted.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

#: A timing percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Keep-alive connections the generator holds (the host has two CPUs).
CONNECTIONS = 2
#: Seconds a request may take before it counts as failed.
TIMEOUT_S = 30.0
SEARCH_PATH = "/v1/search"


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(values) / 100.0))
    return float(values[rank - 1])


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q * n / 100.0))


def tail_supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least ten beyond percentile ``q``."""
    return n > 0 and beyond(n, q) >= MIN_TAIL_SAMPLES


def median(samples) -> float:
    return float(np.median(np.asarray(list(samples), dtype=np.float64)))


def open_loop_schedule(
    rng: np.random.Generator, rate: float, seconds: float, *, jitter: float = 0.4
) -> np.ndarray:
    """Due offsets (seconds) of arrivals at ``rate`` per second.

    Arrivals are evenly spaced, each moved by a uniform jitter of up to
    ``jitter`` of the spacing either way.  That keeps the offered load
    steady within a run (no Poisson bursts) while the exact instants
    still depend on the seed.
    """
    count = max(1, int(round(rate * seconds)))
    gap = 1.0 / rate
    base = (np.arange(count) + 0.5) * gap
    return np.sort(base + rng.uniform(-jitter, jitter, count) * gap)


@dataclass
class Sample:
    """One request as the generator saw it (times are perf_counter)."""

    tag: object
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == 200


class Connection:
    """A keep-alive HTTP/1.1 connection POSTing JSON searches."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def post(self, body: bytes) -> tuple[int, dict]:
        if self._writer is None:
            await self.open()
        reader, writer = self._reader, self._writer
        writer.write(
            f"POST {SEARCH_PATH} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = json.loads(await reader.readexactly(length)) if length else {}
        return status, payload


async def drive(
    host: str,
    port: int,
    arrivals: list[tuple[float, list[tuple[object, bytes]]]],
    *,
    start: float,
) -> list[Sample]:
    """Send every arrival at ``start + offset``; return one Sample each.

    ``arrivals`` is ``[(offset, [(tag, body), ...]), ...]`` sorted by
    offset.  The requests of one arrival leave together, each on its own
    connection, so an arrival waits until that many connections are free
    and later arrivals queue behind it.  The connections are closed
    before this returns.
    """
    free: asyncio.Queue = asyncio.Queue()
    for _ in range(CONNECTIONS):
        free.put_nowait(await Connection(host, port).open())
    samples: list[Sample] = []
    tasks: list[asyncio.Task] = []

    async def send(conn: Connection, sample: Sample, body: bytes) -> None:
        sample.sent = time.perf_counter()
        try:
            sample.status, sample.payload = await asyncio.wait_for(
                conn.post(body), TIMEOUT_S
            )
        except (asyncio.TimeoutError, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError) as exc:
            sample.status, sample.payload = 0, {"error": repr(exc)}
            await conn.close()  # reopened by its next post
        finally:
            free.put_nowait(conn)
        sample.done = time.perf_counter()
        samples.append(sample)

    try:
        for offset, requests in arrivals:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conns = [await free.get() for _ in requests]
            for conn, (tag, body) in zip(conns, requests):
                tasks.append(asyncio.create_task(send(conn, Sample(tag, due), body)))
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for _ in range(CONNECTIONS):
            await (await free.get()).close()
    return samples


def _client_main(conn, host, port, arrivals) -> None:
    """Entry point of the load-generator process (see ClientProcess)."""
    conn.send("ready")
    start = conn.recv()
    conn.send(asyncio.run(drive(host, port, arrivals, start=start)))
    conn.close()


class ClientProcess:
    """Runs :func:`drive` in a process of its own.

    The server under test runs its event loop and planner as threads of
    the benchmark process; a client there would queue for the same
    interpreter lock and add that wait to every latency it measures.
    The process starts (and imports) before :meth:`run`, so its start-up
    is not in the measured phase; its CPU is not counted as the
    program's.
    """

    def __init__(self, host: str, port: int, arrivals) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_client_main, name="perfbench-client", daemon=True,
            args=(child, host, port, arrivals),
        )
        self._proc.start()
        child.close()
        try:
            if self._conn.recv() != "ready":
                raise RuntimeError("load-generator process did not start")
        except BaseException:
            self.close()
            raise

    def run(self, start: float) -> list[Sample]:
        """Drive the schedule from ``start`` (perf_counter); the samples."""
        self._conn.send(start)
        return self._conn.recv()

    def close(self) -> None:
        """Wait for the process to end (idempotent)."""
        self._conn.close()
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)


async def post_sequential(
    host: str, port: int, bodies: list[bytes]
) -> list[tuple[int, dict]]:
    """POST each body in turn over one keep-alive connection."""
    conn = await Connection(host, port).open()
    out = []
    try:
        for body in bodies:
            try:
                out.append(
                    await asyncio.wait_for(conn.post(body), TIMEOUT_S)
                )
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                out.append((0, {"error": repr(exc)}))
                await conn.close()
    finally:
        await conn.close()
    return out


def wire_body(query: np.ndarray, k: int, p: float) -> bytes:
    return json.dumps(
        {"v": 1, "query": [float(x) for x in query], "k": int(k), "p": float(p)}
    ).encode()
