"""Query telemetry: metrics registry, span tracer and per-query traces.

Three layers, composable but independently usable:

* :mod:`repro.obs.registry` — process-local counters, gauges and
  fixed-bucket histograms with dict/JSON and Prometheus text export;
* :mod:`repro.obs.tracer` — nested monotonic-clock spans with a JSONL
  exporter;
* :mod:`repro.obs.query_trace` — structured round-by-round
  :class:`QueryTrace` records with schema validation and JSONL I/O.
  Every query run builds one and its result carries it
  (``result.trace``); ``QueryTrace.to_dict()`` is the one record of a
  query run: EXPLAIN and slow-query log entries are that record,
  checked by :func:`validate_trace_dict`.

On top of those, the distributed ops plane (DESIGN §10):

* :mod:`repro.obs.slowlog` — ring-buffer :class:`SlowQueryLog` of
  threshold-exceeding query records;
* :mod:`repro.obs.exporter` — stdlib HTTP :class:`ObsExporter` serving
  ``/metrics``, ``/healthz``, ``/slowlog`` and ``/trace``;
* :mod:`repro.obs.auditor` — :class:`GuaranteeAuditor` re-answering
  sampled live queries by exact linear scan and publishing rolling
  recall / success-rate gauges against the Theorem 1 bound.

And the incident plane (DESIGN §13):

* :mod:`repro.obs.trace_context` — W3C-style :class:`TraceContext`
  propagation, cross-process trace trees and the bounded
  :class:`TraceStore` ring;
* :mod:`repro.obs.flight_recorder` — :class:`FlightRecorder` bundles of
  traces + metrics snapshots, auto-dumped on trigger events;
* :mod:`repro.obs.slo` — declarative :class:`SLOSpec` objectives
  evaluated by :class:`SLOEngine` as multi-window burn rates;
* :mod:`repro.obs.procstat` — real paging metrics (major faults,
  page-cache residency) beside the simulated I/O charge.

And the workload intelligence plane (DESIGN §15):

* :mod:`repro.obs.profiler` — :class:`ContinuousProfiler`, a
  daemon-thread sampling profiler with folded-stack output and
  per-phase (hash/scan/merge/wave) attribution, served at ``/profile``;
* :mod:`repro.obs.explain` — :func:`render_explain`, the human view
  of a query record (a front-door request with ``"explain": true``
  gets the record in its response);
* :mod:`repro.obs.workload` — :class:`WorkloadAnalytics` with
  Space-Saving heavy-hitter sketches over query digests and base
  buckets, rolling ``(p, k)`` demand and cache-efficacy-by-heat stats.

:class:`Telemetry` bundles all of it and is what the query entry points
accept; it publishes the records the runs build::

    from repro import LazyLSH, Telemetry
    from repro.obs import write_traces_jsonl

    tel = Telemetry()
    result = index.knn(query, k=10, p=0.5, telemetry=tel)
    result.trace.termination           # why the query stopped
    write_traces_jsonl([result.trace], "run.jsonl")
    print(tel.metrics_text())          # Prometheus exposition format
"""

from repro.obs.query_trace import (
    TERMINATION_CAP,
    TERMINATION_K_WITHIN,
    TERMINATION_REASONS,
    TRACE_SCHEMA,
    TRACE_VERSION,
    QueryTrace,
    QueryTraceBuilder,
    RoundRecord,
    TraceSchemaError,
    load_traces_jsonl,
    summarize_traces,
    validate_trace_dict,
    write_traces_jsonl,
)
from repro.obs.auditor import GuaranteeAuditor
from repro.obs.explain import render_explain
from repro.obs.exporter import (
    ObsExporter,
    histogram_quantile,
    parse_prometheus_text,
)
from repro.obs.flight_recorder import FlightRecorder
from repro.obs.profiler import PHASES, ContinuousProfiler, classify_frames
from repro.obs.procstat import PagingMetrics, read_fault_counts, residency_ratio
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_default_registry,
)
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnWindow,
    SLOEngine,
    SLOSpec,
    counter_ratio_sli,
    error_rate_sli,
    latency_sli,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.telemetry import StoreObserver, Telemetry
from repro.obs.trace_context import (
    SPAN_SCHEMA,
    SpanSchemaError,
    TraceContext,
    TraceStore,
    build_trace_tree,
    validate_span_dict,
)
from repro.obs.tracer import Span, SpanTracer, load_spans_jsonl
from repro.obs.workload import SpaceSavingSketch, WorkloadAnalytics

__all__ = [
    "BurnWindow",
    "ContinuousProfiler",
    "Counter",
    "DEFAULT_WINDOWS",
    "FlightRecorder",
    "Gauge",
    "GuaranteeAuditor",
    "Histogram",
    "MetricsRegistry",
    "ObsExporter",
    "PHASES",
    "PagingMetrics",
    "QueryTrace",
    "QueryTraceBuilder",
    "RoundRecord",
    "SLOEngine",
    "SLOSpec",
    "SlowQueryLog",
    "SpaceSavingSketch",
    "Span",
    "SpanTracer",
    "SpanSchemaError",
    "SPAN_SCHEMA",
    "StoreObserver",
    "TERMINATION_CAP",
    "TERMINATION_K_WITHIN",
    "TERMINATION_REASONS",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "Telemetry",
    "TraceContext",
    "TraceSchemaError",
    "TraceStore",
    "WorkloadAnalytics",
    "build_trace_tree",
    "classify_frames",
    "counter_ratio_sli",
    "error_rate_sli",
    "get_default_registry",
    "histogram_quantile",
    "latency_sli",
    "load_spans_jsonl",
    "load_traces_jsonl",
    "parse_prometheus_text",
    "read_fault_counts",
    "render_explain",
    "residency_ratio",
    "summarize_traces",
    "validate_span_dict",
    "validate_trace_dict",
    "write_traces_jsonl",
]
