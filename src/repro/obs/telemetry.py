"""Telemetry facade: one object wiring records, metrics and spans together.

Every query run builds its :class:`~repro.obs.query_trace.QueryTrace`
record (``result.trace``), with or without telemetry.  Passing a
:class:`Telemetry` to a query entry point (``LazyLSH.knn``,
``MultiQueryEngine.knn``, ``knn_batch``, the sharded service, the CLI,
the benchmark harness) only publishes those records: it opens the entry
point's span and keeps the standard instrument set updated:

======================================  =========  =============================
metric                                  kind       labels
======================================  =========  =============================
``lazylsh_queries_total``               counter    ``engine``, ``p``
``lazylsh_query_terminations_total``    counter    ``reason``
``lazylsh_query_rounds``                histogram  —
``lazylsh_query_candidates``            histogram  —
``lazylsh_query_io_sequential``         histogram  —
``lazylsh_query_io_random``             histogram  —
``lazylsh_query_latency_seconds``       histogram  —
======================================  =========  =============================

An optional :class:`~repro.obs.slowlog.SlowQueryLog` can be attached at
construction; :meth:`Telemetry.record` offers every published record to
it, so slow-query capture rides the same single chokepoint as the
instrument updates and core modules never touch the log directly.
Without a telemetry object (the default) nothing is published; the
records stay on the results.

:meth:`Telemetry.observe_store` additionally attaches a
:class:`StoreObserver` to an :class:`~repro.storage.inverted_index.
InvertedListStore`, counting window searches, gathers and scanned
entries at the storage layer.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import InvalidParameterError
from repro.obs.query_trace import QueryTrace
from repro.obs.registry import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace_context import TraceContext, TraceStore, active_context
from repro.obs.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.flight_recorder import FlightRecorder
    from repro.obs.workload import WorkloadAnalytics

#: Rehashing rounds per query; the engine caps rounds at 128.
ROUND_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)

#: Candidate / I/O magnitudes; geometric so one histogram spans toy
#: tests and the million-point north-star workloads.
COUNT_BUCKETS = (
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
)

#: Wall-clock latency buckets (seconds); sub-millisecond toy queries up
#: to multi-second million-point scans.
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class StoreObserver:
    """Storage-layer counters for an :class:`InvertedListStore`.

    Attached via :meth:`Telemetry.observe_store`; every hook is one
    counter increment, and a detached store (``observer = None``) pays a
    single ``is None`` check per storage call.  Every reader, flat or
    scalar, reads through the store's one search and one gather, so
    both are counted alike.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.searches = registry.counter(
            "lazylsh_store_searches_total",
            "Batched window-endpoint searches answered by the store",
        )
        self.entries = registry.counter(
            "lazylsh_store_entries_scanned_total",
            "Inverted-list entries gathered",
        )

    def on_search(self, needles: int) -> None:
        self.searches.inc(needles)

    def on_gather(self, entries: int) -> None:
        self.entries.inc(entries)


class Telemetry:
    """Publishes query records to a metrics registry; owns a span tracer.

    Parameters
    ----------
    registry:
        Metrics registry to write into; a fresh private one by default.
        Pass :func:`repro.obs.get_default_registry` to aggregate across
        several telemetry objects process-wide.
    slowlog:
        Optional :class:`SlowQueryLog`; every published record is
        offered to it (the log applies its own thresholds).
    trace_store:
        Optional :class:`~repro.obs.trace_context.TraceStore`; finished
        distributed traces are published here (via
        :meth:`finish_trace`) for ``/trace/<id>`` and flight-recorder
        bundles.
    trace_sample:
        Head-sampling probability in ``[0, 1]`` used by
        :meth:`maybe_sample_context` when a request arrives without its
        own trace context.  0 (default) mints no contexts — requests
        are only traced when the caller supplies one.
    flight_recorder:
        Optional :class:`~repro.obs.flight_recorder.FlightRecorder`;
        tripped with reason ``slowlog_admission`` whenever the slow-query
        log admits a trace.
    workload:
        Optional :class:`~repro.obs.workload.WorkloadAnalytics`; when
        attached, :meth:`record` feeds each query's digest, base
        bucket and ``(p, k)`` into the heavy-hitter sketches (callers
        supply ``query_digest``/``bucket`` — the service does).
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        slowlog: SlowQueryLog | None = None,
        trace_store: TraceStore | None = None,
        trace_sample: float = 0.0,
        flight_recorder: "FlightRecorder | None" = None,
        workload: "WorkloadAnalytics | None" = None,
    ) -> None:
        if not 0.0 <= trace_sample <= 1.0:
            raise InvalidParameterError(
                f"trace_sample must be in [0, 1], got {trace_sample}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = SpanTracer()
        self.slowlog = slowlog
        self.trace_store = trace_store
        self.trace_sample = float(trace_sample)
        self.flight_recorder = flight_recorder
        self.workload = workload
        self._sampler = random.Random(0xC0FFEE)
        self._auto_query_id = 0
        reg = self.registry
        self._queries = reg.counter(
            "lazylsh_queries_total", "Queries served"
        )
        self._terminations = reg.counter(
            "lazylsh_query_terminations_total",
            "Queries by Algorithm 4 termination reason",
        )
        self._rounds = reg.histogram(
            "lazylsh_query_rounds",
            "Rehashing rounds per query",
            buckets=ROUND_BUCKETS,
        )
        self._candidates = reg.histogram(
            "lazylsh_query_candidates",
            "Candidates verified per query",
            buckets=COUNT_BUCKETS,
        )
        self._io_sequential = reg.histogram(
            "lazylsh_query_io_sequential",
            "Simulated sequential I/Os per query",
            buckets=COUNT_BUCKETS,
        )
        self._io_random = reg.histogram(
            "lazylsh_query_io_random",
            "Simulated random I/Os per query",
            buckets=COUNT_BUCKETS,
        )
        self._latency = reg.histogram(
            "lazylsh_query_latency_seconds",
            "Wall-clock query latency",
            buckets=LATENCY_BUCKETS,
        )
        self._deadline_overruns = reg.counter(
            "lazylsh_deadline_overruns_total",
            "Requests that finished past their advisory deadline_ms",
        )

    # -- distributed tracing --------------------------------------------

    def maybe_sample_context(
        self, context: TraceContext | None = None
    ) -> TraceContext | None:
        """The request's effective trace context, or None when untraced.

        A caller-supplied sampled context always wins; without one, a
        fresh root context is minted with probability
        :attr:`trace_sample`.  The serving layer calls this once per
        request and threads the result everywhere.
        """
        ctx = active_context(context)
        if ctx is not None:
            return ctx
        if self.trace_sample > 0 and (
            self.trace_sample >= 1.0
            or self._sampler.random() < self.trace_sample
        ):
            return TraceContext.new()
        return None

    def note_deadline_overrun(
        self,
        *,
        deadline_ms: float,
        elapsed_seconds: float,
        where: str,
        request_id: str | None = None,
    ) -> None:
        """Count a deadline overrun and trip the flight recorder.

        Deadlines are advisory (results are never truncated — they stay
        bit-identical), so this is the entire enforcement story: a
        counter, a trigger, and the ``deadline_exceeded`` flag the
        caller sets on the result.
        """
        self._deadline_overruns.inc(where=where)
        if self.flight_recorder is not None:
            self.flight_recorder.trigger(
                "deadline_overrun",
                where=where,
                deadline_ms=deadline_ms,
                elapsed_ms=elapsed_seconds * 1000.0,
                request_id=request_id,
            )

    def finish_trace(self, context: TraceContext | None) -> list[dict]:
        """Move one finished trace's spans into the trace store.

        Called after the request's root span closed.  Pops the trace's
        spans off the tracer (bounding tracer memory on long-running
        servers) and publishes them to :attr:`trace_store` when one is
        attached.  Returns the span dicts either way.
        """
        if context is None:
            return []
        spans = self.tracer.pop_trace(context.trace_id)
        records = [span.to_dict() for span in spans]
        if self.trace_store is not None and records:
            self.trace_store.add(context.trace_id, records)
        return records

    # -- query records --------------------------------------------------

    def record(
        self,
        trace: QueryTrace,
        *,
        query_digest: str | None = None,
        bucket: bytes | None = None,
    ) -> None:
        """Publish one finished record to the registry and the slow-query log.

        A record without a ``query_id`` is numbered here, from this
        telemetry's automatic ids (a numbered one moves them past its
        own).  The record goes to the slow-query log as it is (a sharded
        record carries its ``shard_io``, ``request_id`` and
        ``trace_id``); ``query_digest`` / ``bucket`` feed the attached
        :class:`WorkloadAnalytics` when present.
        """
        if trace.query_id is None:
            trace.query_id = self._auto_query_id
        self._auto_query_id = max(self._auto_query_id, trace.query_id + 1)
        self._queries.inc(engine=trace.engine, p=f"{trace.p:g}")
        self._terminations.inc(reason=trace.termination)
        self._rounds.observe(trace.num_rounds)
        self._candidates.observe(trace.candidates)
        self._io_sequential.observe(trace.io.sequential)
        self._io_random.observe(trace.io.random)
        self._latency.observe(trace.elapsed_seconds)
        if self.workload is not None and query_digest is not None:
            self.workload.observe_query(
                digest=query_digest,
                bucket=bucket if bucket is not None else b"",
                p=trace.p,
                k=trace.k,
            )
        if self.slowlog is not None:
            admitted = self.slowlog.offer(trace)
            if admitted and self.flight_recorder is not None:
                self.flight_recorder.trigger(
                    "slowlog_admission",
                    query_id=trace.query_id,
                    elapsed_seconds=trace.elapsed_seconds,
                    engine=trace.engine,
                    request_id=trace.request_id,
                    trace_id=trace.trace_id,
                )

    # -- storage hooks --------------------------------------------------

    def observe_store(self, store) -> StoreObserver:
        """Attach storage-layer counters to ``store`` (and return them).

        Detach with ``store.observer = None``.
        """
        observer = StoreObserver(self.registry)
        store.observer = observer
        return observer

    # -- export ---------------------------------------------------------

    def metrics_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.registry.render_prometheus()

    def metrics_dict(self) -> dict:
        """The registry as a JSON-serialisable dict."""
        return self.registry.to_dict()
