"""Async HTTP front door over :class:`~repro.serve.ShardedSearchService`.

:class:`Frontend` is the serving layer's network edge: an asyncio
HTTP/1.1 server (stdlib only, own event loop on a daemon thread — the
same start/stop lifecycle as :class:`~repro.obs.ObsExporter`) speaking
the versioned v1 wire API of :mod:`repro.api`.  Three mechanisms sit
between the socket and the shard fleet (DESIGN §14):

* **Admission control.**  At most ``max_pending`` search requests may be
  in flight; the next one is rejected with HTTP 429
  (:class:`~repro.errors.OverloadedError`) *before* any index work
  happens, so overload sheds cheaply at the edge.  An unhealthy fleet
  (dead worker, closed service) rejects with 503 without attempting the
  query; a dead worker on an open service also queues one repair, so a
  fleet that lost a worker while idle heals.  Deadlines
  (``deadline_ms``) are stamped from each request's *arrival* time, so
  queue wait counts against the budget.
* **Request coalescing.**  Admitted requests buffer for up to
  ``coalesce_ms``; each flush plans one batch of service waves.
  Identical single-metric requests dedup to one wave row, requests
  sharing ``(k, p, cap, radius)`` ride one ``search_batch`` wave, and
  requests sharing a query point but differing in ``p`` merge into one
  Section 4.3 multi-metric wave (``search_batch(metrics=...)``, run by
  the shard workers like any other) whose per-metric parts fan back to
  their requesters.  Every path returns ids/distances bit-identical to
  issuing the request alone through
  :meth:`~repro.serve.ShardedSearchService.search` (single- and
  multi-metric waves are both pinned bit-identical to the
  single-process engine).
* **Result caching.**  An LRU keyed by the query's *base bucket* (its
  integer hash vector at ``delta_0`` — one matmul, no index scan) plus
  the exact query digest and tuning knobs.  Entries remember the service
  epoch they were computed at; :meth:`Frontend.ingest` routes WAL
  records into the service, whose epoch bump invalidates every older
  entry on its next lookup.  A hit is served without touching the shard
  fleet at all.

The service's re-entrant ``lock`` serialises the frontend's plan
execution (on a single worker thread) against any other caller, so the
event loop never blocks on index work and the pipe protocol stays
single-threaded.  The front door never scans the index itself: every
cache miss is answered by a service wave, which feeds the service's
traces, EXPLAIN and workload sketches.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.api import WIRE_VERSION, SearchRequest, SearchResult
from repro.errors import (
    InvalidParameterError,
    OverloadedError,
    ReproError,
    ServiceUnhealthyError,
    UnavailableError,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import LATENCY_BUCKETS
from repro.obs.workload import WorkloadAnalytics

logger = logging.getLogger("repro.serve.frontend")

#: Error ``code`` → HTTP status.  Codes missing here are server faults
#: (500).  The mapping is append-only: a shipped code never changes its
#: status class.
HTTP_STATUS_BY_CODE = {
    "invalid_parameter": 400,
    "wire_format": 400,
    "unsupported_metric": 400,
    "dimensionality_mismatch": 400,
    "dataset_error": 400,
    "overloaded": 429,
    "unhealthy": 503,
    "index_not_built": 503,
    "unavailable": 503,
    "stale_read": 503,
}

_MAX_BODY_BYTES = 8 * 1024 * 1024  # a 1M-dim float64 query is ~8 MB of JSON

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def error_body(code: str, message: str) -> dict:
    """The v1 wire error envelope for one error ``code``."""
    return {"v": WIRE_VERSION, "error": {"code": code, "message": message}}


@dataclass
class _Pending:
    """One admitted search request waiting for its batch to execute."""

    request: SearchRequest
    future: asyncio.Future
    arrival: float
    cache_hit: bool = False
    coalesced: bool = False


@dataclass
class _CacheEntry:
    epoch: int
    result: SearchResult


class Frontend:
    """Asyncio HTTP front door: admission, coalescing, caching.

    The :class:`~repro.obs.workload.WorkloadAnalytics` feeding the
    hot-bucket cache-admission policy and the cache-efficacy-by-heat
    stats is the service telemetry's workload when one is attached (so
    the service-side query feed and the frontend-side cache feed share
    sketches), else a private instance.

    Parameters
    ----------
    service:
        A running :class:`~repro.serve.ShardedSearchService`.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back off
        :attr:`port` after :meth:`start`).
    coalesce_ms:
        Batching window: the first request of a batch waits at most this
        long for company before the flush.  ``0`` flushes on the next
        loop tick (batching then only happens under concurrency).
    max_pending:
        Admission bound — requests in flight beyond it are rejected
        with 429.
    cache_capacity:
        Result-cache entries (LRU).  ``0`` disables caching.
    registry:
        Metrics registry to instrument; defaults to the service
        telemetry's registry when present, else a private one.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        coalesce_ms: float = 2.0,
        max_pending: int = 256,
        cache_capacity: int = 1024,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if coalesce_ms < 0:
            raise InvalidParameterError(
                f"coalesce_ms must be >= 0, got {coalesce_ms}"
            )
        if max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if cache_capacity < 0:
            raise InvalidParameterError(
                f"cache_capacity must be >= 0, got {cache_capacity}"
            )
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self.coalesce_ms = float(coalesce_ms)
        self.max_pending = int(max_pending)
        self.cache_capacity = int(cache_capacity)
        telemetry = getattr(service, "telemetry", None)
        if registry is None:
            registry = (
                telemetry.registry if telemetry is not None
                else MetricsRegistry()
            )
        self.registry = registry
        workload = getattr(telemetry, "workload", None)
        # A service telemetry with a workload observes every scanned
        # query itself; otherwise the frontend feeds its private sketches
        # for the scans it issues.
        self._service_feeds_workload = workload is not None
        self.workload = (
            workload if workload is not None
            else WorkloadAnalytics(registry=self.registry)
        )
        self._cache: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._queue: list[_Pending] = []
        self._flush_scheduled = False
        self._inflight = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._repairing: asyncio.Future | None = None
        self._port = 0
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        reg = self.registry
        self._m_requests = reg.counter(
            "lazylsh_frontend_http_requests_total",
            "HTTP requests by status code",
        )
        self._m_queue_depth = reg.gauge(
            "lazylsh_frontend_queue_depth",
            "Search requests admitted and not yet answered",
        )
        self._m_rejected = reg.counter(
            "lazylsh_frontend_rejected_total",
            "Search requests shed by admission control (429)",
        )
        self._m_coalesced = reg.counter(
            "lazylsh_frontend_coalesced_requests_total",
            "Admitted search requests that shared an index scan",
        )
        self._m_waves = reg.counter(
            "lazylsh_frontend_scans_total",
            "Index scans issued (service waves, single- or multi-metric)",
        )
        self._m_scanned_requests = reg.counter(
            "lazylsh_frontend_scanned_requests_total",
            "Search requests answered by an index scan (cache misses)",
        )
        self._m_cache_hits = reg.counter(
            "lazylsh_frontend_cache_hits_total",
            "Search requests served from the result cache",
        )
        self._m_cache_misses = reg.counter(
            "lazylsh_frontend_cache_misses_total",
            "Search requests that missed the result cache",
        )
        self._m_batch_size = reg.histogram(
            "lazylsh_frontend_batch_size",
            "Admitted requests per coalescing flush",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._m_latency = reg.histogram(
            "lazylsh_frontend_request_latency_seconds",
            "Arrival-to-response latency of search requests",
            buckets=LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Lifecycle (exporter-style: own loop on a daemon thread)
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def port(self) -> int:
        """The bound port (0 until started)."""
        return self._port

    @property
    def url(self) -> str:
        """Base URL of the running front door."""
        return f"http://{self.host}:{self._port}"

    def start(self) -> "Frontend":
        """Bind and serve on a daemon thread (idempotent)."""
        if self._thread is not None:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-frontend-plan"
        )
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            logger.error("front door failed to start: %s", error)
            raise error
        logger.info("front door listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Stop serving and join the loop thread (idempotent)."""
        thread, loop = self._thread, self._loop
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._repairing = None
        self._thread = None
        self._loop = None
        self._server = None
        self._executor = None
        self._port = 0

    def __enter__(self) -> "Frontend":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_conn, self.host, self._requested_port
                )
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        self._port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            # A handler parked in a keep-alive read would be destroyed
            # pending with the loop: end every connection as a client
            # hangup would, and let the handlers finish on the loop.
            handlers = list(self._conns)
            for writer in self._conns.values():
                writer.close()
            loop.run_until_complete(
                asyncio.gather(*handlers, return_exceptions=True)
            )
            loop.run_until_complete(server.wait_closed())
            # Fail any requests still waiting for a flush.
            for item in self._queue:
                if not item.future.done():
                    item.future.set_exception(
                        ReproError("front door stopped")
                    )
            self._queue = []
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    # ------------------------------------------------------------------
    # Maintenance API (called from any thread)
    # ------------------------------------------------------------------

    def ingest(self, records) -> int:
        """Apply WAL records to the fleet; the epoch bump invalidates
        every cache entry computed before it (checked lazily on lookup).
        """
        return self.service.ingest(records)

    def stats(self) -> dict:
        """Frontend counters plus the service's own stats."""
        scans = self._m_waves.total()
        scanned = self._m_scanned_requests.total()
        hits = self._m_cache_hits.total()
        misses = self._m_cache_misses.total()
        looked_up = hits + misses
        return {
            "requests": {
                entry["labels"].get("code", ""): int(entry["value"])
                for entry in self._m_requests.to_dict()["values"]
            },
            "queue_depth": int(self._m_queue_depth.value()),
            "max_pending": self.max_pending,
            "coalesce_ms": self.coalesce_ms,
            "rejected": int(self._m_rejected.total()),
            "scans": int(scans),
            "scanned_requests": int(scanned),
            "coalesced_requests": int(self._m_coalesced.total()),
            # >1.0 means scans are being shared across requests.
            "coalesce_ratio": (scanned / scans) if scans else 0.0,
            "cache": {
                "capacity": self.cache_capacity,
                "entries": len(self._cache),
                "hits": int(hits),
                "misses": int(misses),
                "hit_rate": (hits / looked_up) if looked_up else 0.0,
            },
            "workload": self.workload.stats(),
            "service": self.service.stats(),
        }

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conns[task] = writer
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, _version = (
                        request_line.decode("latin-1").split(None, 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400,
                        error_body("wire_format", "malformed request line"),
                    )
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0 or length > _MAX_BODY_BYTES:
                    await self._respond(
                        writer, 413,
                        error_body(
                            "wire_format",
                            f"content-length must be an integer in "
                            f"[0, {_MAX_BODY_BYTES}]",
                        ),
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._dispatch(method, target, body)
                keep = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, keep_alive=keep)
                if not keep:
                    break
        except (
            asyncio.IncompleteReadError, ConnectionError, TimeoutError
        ):
            pass
        finally:
            del self._conns[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - races
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool = False,
    ) -> None:
        self._m_requests.inc(code=status)
        body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict]:
        path = target.split("?", 1)[0]
        try:
            if path == "/v1/search":
                if method != "POST":
                    return 405, error_body(
                        "method_not_allowed", "use POST /v1/search"
                    )
                return await self._handle_search(body)
            if path == "/v1/health":
                if method != "GET":
                    return 405, error_body(
                        "method_not_allowed", "use GET /v1/health"
                    )
                report = self.service.health()
                return (200 if report.get("healthy") else 503), report
            if path == "/v1/stats":
                if method != "GET":
                    return 405, error_body(
                        "method_not_allowed", "use GET /v1/stats"
                    )
                return 200, self.stats()
            return 404, error_body("not_found", f"unknown path {path!r}")
        except ReproError as exc:
            return self._error_response(exc)
        except Exception as exc:  # noqa: BLE001 - the edge must not drop
            return 500, error_body("internal", f"{type(exc).__name__}: {exc}")

    def _error_response(self, exc: ReproError) -> tuple[int, dict]:
        status = HTTP_STATUS_BY_CODE.get(exc.code, 500)
        return status, error_body(exc.code, str(exc))

    # ------------------------------------------------------------------
    # Search path: admit → coalesce → execute → fan back
    # ------------------------------------------------------------------

    async def _handle_search(self, body: bytes) -> tuple[int, dict]:
        arrival = time.monotonic()
        try:
            record = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, error_body("wire_format", f"invalid JSON body: {exc}")
        request = SearchRequest.from_dict(record)
        if request.metrics is not None:
            raise InvalidParameterError(
                "the front door answers one metric per request; issue one "
                "request per p (concurrent requests sharing a query point "
                "are merged into one multi-metric scan server-side)"
            )
        if np.asarray(request.query).ndim != 1:
            raise InvalidParameterError(
                "the front door answers one query point per request"
            )
        # Admission control: shed before any index work.
        if self._inflight >= self.max_pending:
            self._m_rejected.inc()
            raise OverloadedError(
                f"front door at capacity ({self.max_pending} requests "
                "in flight); retry after a backoff"
            )
        if self.service._closed:
            raise ServiceUnhealthyError("the sharded service is closed")
        if not self.service.health().get("healthy", False):
            # Mid-failover (dead worker, detached storage): reject with
            # a retryable typed error instead of queueing a request the
            # fleet may never answer.
            self._queue_repair()
            raise UnavailableError(
                "the shard fleet is unhealthy (mid-failover); retry "
                "after a backoff"
            )
        self._inflight += 1
        self._m_queue_depth.set(self._inflight)
        loop = asyncio.get_running_loop()
        item = _Pending(request, loop.create_future(), arrival)
        self._queue.append(item)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_later(self.coalesce_ms / 1000.0, self._flush)
        try:
            result = await self._await_result(item)
        finally:
            self._inflight -= 1
            self._m_queue_depth.set(self._inflight)
        elapsed = time.monotonic() - arrival
        self._m_latency.observe(elapsed)
        payload = result.to_dict()
        if request.request_id is not None:
            payload["request_id"] = request.request_id
        payload["cached"] = item.cache_hit
        payload["coalesced"] = item.coalesced
        if request.deadline_ms is not None:
            overrun = elapsed * 1000.0 > request.deadline_ms
            payload["deadline_exceeded"] = bool(
                overrun or payload.get("deadline_exceeded", False)
            )
            telemetry = getattr(self.service, "telemetry", None)
            if overrun and telemetry is not None:
                telemetry.note_deadline_overrun(
                    deadline_ms=request.deadline_ms,
                    elapsed_seconds=elapsed,
                    where="serve.frontend",
                    request_id=request.request_id,
                )
        return 200, payload

    def _queue_repair(self) -> None:
        """Queue one fleet repair on the plan executor (loop thread only).

        Waves and ingest repair a worker that dies under them, but
        admission turns requests away before any wave runs, so without
        this a worker lost while idle would keep the door at 503 for
        good.  The repair takes ``service.lock`` like any plan.
        """
        if self._repairing is not None:
            return
        loop = asyncio.get_running_loop()
        self._repairing = loop.run_in_executor(
            self._executor, self.service.repair
        )

        def _on_done(fut: "asyncio.Future") -> None:
            self._repairing = None
            if not fut.cancelled() and fut.exception() is not None:
                logger.error("fleet repair failed: %s", fut.exception())

        self._repairing.add_done_callback(_on_done)

    async def _await_result(self, item: _Pending) -> SearchResult:
        """Wait for the planned result; bounded when a deadline is set.

        Deadlines stay *advisory* on a healthy fleet — the plan always
        runs to completion and the result is returned however late, so
        answers remain bit-identical.  But a request must not hang past
        its deadline when the service dies under it mid-failover, so
        once the budget expires the wait re-checks fleet health on
        every tick and converts a dead fleet into a typed
        ``unavailable`` error instead of waiting forever.
        """
        if item.request.deadline_ms is None:
            return await item.future
        # Re-check at least every 50 ms so a sub-ms deadline does not
        # busy-spin; the shield keeps the underlying future alive for
        # the next tick (wait_for cancels what it wraps).
        interval = max(item.request.deadline_ms / 1000.0, 0.05)
        while True:
            try:
                return await asyncio.wait_for(
                    asyncio.shield(item.future), interval
                )
            except asyncio.TimeoutError:
                if item.future.done():
                    return item.future.result()
                if self.service._closed or not self.service.health().get(
                    "healthy", False
                ):
                    raise UnavailableError(
                        "the backing service became unavailable while "
                        "this request waited past its deadline of "
                        f"{item.request.deadline_ms}ms; retry after a "
                        "backoff"
                    ) from None

    def _flush(self) -> None:
        """Coalescing-window timer fired: hand the batch to the planner."""
        self._flush_scheduled = False
        items, self._queue = self._queue, []
        if not items:
            return
        loop = self._loop
        assert loop is not None and self._executor is not None
        self._m_batch_size.observe(len(items))
        future = loop.run_in_executor(
            self._executor, self._execute_plan, items
        )

        def _on_done(fut: "asyncio.Future") -> None:
            exc = fut.exception()
            if exc is None:
                return
            logger.error(
                "plan execution failed for a %d-request flush: %s",
                len(items),
                exc,
            )
            for item in items:  # plan-level fault: fail the whole batch
                if not item.future.done():
                    item.future.set_exception(exc)

        future.add_done_callback(_on_done)

    # -- planner (runs on the single executor thread) -------------------

    def _cache_key(self, request: SearchRequest) -> tuple:
        """Base bucket + exact-query digest + tuning knobs.

        The base bucket (the query's integer hash vector at ``delta_0``,
        Section 4.1) costs one matmul and no index I/O; the sha1 digest
        disambiguates colliding queries within a bucket, since distances
        depend on the exact point.  ``key[0]`` is the bucket as raw
        int64 bytes — the same canonical form the workload sketches
        track, so the eviction policy can ask
        :meth:`WorkloadAnalytics.is_hot` about any cached entry.
        Explain requests key separately (their results carry the
        EXPLAIN payload).
        """
        query = np.ascontiguousarray(request.query, dtype=np.float64)
        bucket = self.service.index._bank.hash_points(query[None, :])[:, 0]
        return (
            np.ascontiguousarray(bucket).tobytes(),
            hashlib.sha1(query.tobytes()).hexdigest(),
            int(request.k),
            float(request.p),
            None if request.cap is None else float(request.cap),
            None if request.radius is None else float(request.radius),
            bool(request.explain),
        )

    def _cache_get(self, key: tuple) -> SearchResult | None:
        entry = self._cache.get(key)
        if entry is None:
            return None
        if entry.epoch != self.service.epoch:  # WAL moved on: stale
            del self._cache[key]
            return None
        self._cache.move_to_end(key)
        return entry.result

    #: Oldest entries inspected per eviction before falling back to
    #: plain LRU; bounds the policy's cost per insert.
    _EVICT_SCAN = 8

    def _cache_put(self, key: tuple, result: SearchResult) -> None:
        if self.cache_capacity == 0:
            return
        self._cache[key] = _CacheEntry(self.service.epoch, result)
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_capacity:
            # Heat-aware eviction: prefer dropping a cold-bucket entry
            # from the LRU end, keeping heavy-hitter buckets resident
            # longer than plain LRU would.
            victim = None
            for old_key in itertools.islice(
                self._cache.keys(), self._EVICT_SCAN
            ):
                if not self.workload.is_hot(old_key[0]):
                    victim = old_key
                    break
            if victim is not None:
                del self._cache[victim]
            else:  # every inspected entry is hot: fall back to LRU
                self._cache.popitem(last=False)

    def _resolve(self, item: _Pending, result: SearchResult) -> None:
        loop = self._loop
        assert loop is not None

        def _set() -> None:
            if not item.future.done():
                item.future.set_result(result)

        loop.call_soon_threadsafe(_set)

    def _fail(self, item: _Pending, exc: BaseException) -> None:
        loop = self._loop
        assert loop is not None

        def _set() -> None:
            if not item.future.done():
                item.future.set_exception(exc)

        loop.call_soon_threadsafe(_set)

    def _execute_plan(self, items: list[_Pending]) -> None:
        """Serve one flush: cache, then merged scans, under one lock.

        Holding the service's re-entrant lock across the whole plan
        keeps the epoch stable between cache lookups and scans (an
        ``ingest`` cannot interleave), so an entry written here is
        always tagged with the epoch its scan actually saw.
        """
        service = self.service
        with service.lock:
            misses: list[tuple[_Pending, tuple]] = []
            for item in items:
                try:
                    key = self._cache_key(item.request)
                except ReproError as exc:
                    self._fail(item, exc)
                    continue
                cached = self._cache_get(key)
                self.workload.note_cache(key[0], hit=cached is not None)
                if cached is not None:
                    item.cache_hit = True
                    self._m_cache_hits.inc()
                    # A hit never reaches the service, so feed the
                    # sketches here to keep the bucket's heat live.
                    self.workload.observe_query(
                        digest=key[1],
                        bucket=key[0],
                        p=float(item.request.p),
                        k=int(item.request.k),
                    )
                    self._resolve(item, cached)
                else:
                    self._m_cache_misses.inc()
                    misses.append((item, key))
            if misses:
                self._m_scanned_requests.inc(len(misses))
                self._run_scans(misses)

    def _run_scans(self, misses: list[tuple[_Pending, tuple]]) -> None:
        """Group cache misses into the fewest bit-identical service waves.

        Misses sharing a query point, ``k`` and ``cap`` (no radius
        override) across >= 2 distinct metrics become one Section 4.3
        multi-metric wave (query-centric rehashing only); the rest ride
        one wave per set of tuning knobs, identical rows deduplicated.
        The cache key ``(bucket, digest, k, p, cap, radius, explain)``
        carries every field the planner groups by.
        """
        by_point: dict[tuple, list[tuple[_Pending, tuple]]] = {}
        if self.service.index.rehashing == "query_centric":
            for item, key in misses:
                if key[5] is None:
                    by_point.setdefault((key[1], key[2], key[4]), []).append(
                        (item, key)
                    )
        merged: set[int] = set()
        for (_digest, k, cap), group in by_point.items():
            metrics = sorted({key[3] for _item, key in group})
            if len(metrics) >= 2:
                merged.update(id(item) for item, _key in group)
                explain = any(key[6] for _item, key in group)
                self._run_wave(
                    group, k, metrics=metrics, cap=cap, explain=explain
                )
        by_knobs: dict[tuple, list[tuple[_Pending, tuple]]] = {}
        for item, key in misses:
            if id(item) not in merged:
                by_knobs.setdefault(key[2:], []).append((item, key))
        for (k, p, cap, radius, explain), group in by_knobs.items():
            self._run_wave(
                group, k, p=p, cap=cap, radius=radius, explain=explain
            )

    def _run_wave(
        self, group: list[tuple[_Pending, tuple]], k: int, **knobs
    ) -> None:
        """One ``search_batch`` wave; fan each row's answer back."""
        row_of: dict[str, int] = {}
        rows: list[np.ndarray] = []
        for item, key in group:
            if key[1] not in row_of:
                row_of[key[1]] = len(rows)
                rows.append(np.asarray(item.request.query, dtype=np.float64))
        try:
            results = self.service.search_batch(np.stack(rows), k, **knobs)
        except ReproError as exc:
            for item, _key in group:
                self._fail(item, exc)
            return
        self._m_waves.inc()
        if len(group) > 1:
            self._m_coalesced.inc(len(group))
        stored: set[tuple] = set()
        for item, key in group:
            item.coalesced = len(group) > 1
            result = results[row_of[key[1]]]
            if "metrics" in knobs:
                result = result[key[3]]
                if knobs["explain"] and not key[6]:
                    result = replace(result, explain=None)
            if key not in stored:
                stored.add(key)
                self._cache_put(key, result)
                if not self._service_feeds_workload:
                    # The service's telemetry does not share this
                    # workload object, so feed the scan here.
                    self.workload.observe_query(
                        digest=key[1], bucket=key[0], p=key[3], k=key[2]
                    )
            self._resolve(item, result)
