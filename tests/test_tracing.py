"""Tests for the distributed-tracing and incident plane (DESIGN §13).

Covers the W3C-style TraceContext (ids, traceparent round-trips, wire
dicts), the tracer's trace-aware span ids, the bounded TraceStore and
tree reconstruction, the flight recorder's debounce/bundle lifecycle,
the SLO burn-rate engine's episode semantics, the paging probes, the
request/result API fields, and the end-to-end cross-process trace a
sharded service produces for one sampled query.
"""

from __future__ import annotations

import json
import mmap
import sys
import urllib.request

import numpy as np
import pytest

from repro.api import SearchRequest, SearchResult
from repro.errors import InvalidParameterError
from repro.obs import (
    DEFAULT_WINDOWS,
    BurnWindow,
    FlightRecorder,
    MetricsRegistry,
    ObsExporter,
    PagingMetrics,
    SLOEngine,
    SLOSpec,
    SpanSchemaError,
    SpanTracer,
    Telemetry,
    TraceContext,
    TraceStore,
    build_trace_tree,
    counter_ratio_sli,
    error_rate_sli,
    latency_sli,
    read_fault_counts,
    residency_ratio,
    validate_span_dict,
)
from repro.obs.trace_context import active_context, new_request_id
from repro.serve import ShardedSearchService


class TestTraceContext:
    def test_new_mints_valid_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        assert ctx.sampled
        int(ctx.trace_id, 16)
        int(ctx.span_id, 16)

    def test_rejects_malformed_ids(self):
        with pytest.raises(InvalidParameterError, match="trace_id"):
            TraceContext(trace_id="xyz", span_id="a" * 16)
        with pytest.raises(InvalidParameterError, match="span_id"):
            TraceContext(trace_id="a" * 32, span_id="nope")
        with pytest.raises(InvalidParameterError, match="trace_id"):
            TraceContext(trace_id="0" * 32, span_id="a" * 16)

    def test_traceparent_round_trip(self):
        ctx = TraceContext.new()
        header = ctx.to_traceparent()
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        assert TraceContext.from_traceparent(header) == ctx

    def test_unsampled_flags(self):
        ctx = TraceContext.new(sampled=False)
        assert ctx.to_traceparent().endswith("-00")
        back = TraceContext.from_traceparent(ctx.to_traceparent())
        assert not back.sampled

    def test_from_traceparent_rejects_garbage(self):
        with pytest.raises(InvalidParameterError, match="malformed"):
            TraceContext.from_traceparent("not-a-header")
        good = TraceContext.new().to_traceparent()
        with pytest.raises(InvalidParameterError, match="version"):
            TraceContext.from_traceparent("ff" + good[2:])

    def test_dict_round_trip(self):
        ctx = TraceContext.new(sampled=False)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_child_keeps_trace(self):
        ctx = TraceContext.new()
        child = ctx.child("b" * 16)
        assert child.trace_id == ctx.trace_id
        assert child.span_id == "b" * 16

    def test_active_context_gate(self):
        sampled = TraceContext.new()
        assert active_context(sampled) is sampled
        assert active_context(TraceContext.new(sampled=False)) is None
        assert active_context(None) is None

    def test_new_request_id(self):
        rid = new_request_id()
        assert len(rid) == 16
        int(rid, 16)


class TestTracerTraceIds:
    def test_legacy_spans_keep_sequential_int_ids(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        ids = [s.span_id for s in tracer.spans]
        assert all(isinstance(i, int) for i in ids)
        assert all(s.trace_id is None for s in tracer.spans)

    def test_context_span_joins_trace(self):
        tracer = SpanTracer()
        ctx = TraceContext.new()
        with tracer.span("root", context=ctx):
            with tracer.span("child"):
                pass
        child, root = tracer.spans
        assert root.trace_id == ctx.trace_id
        assert root.parent_id == ctx.span_id
        assert isinstance(root.span_id, str)
        # Nested span inherits the trace through the stack.
        assert child.trace_id == ctx.trace_id
        assert child.parent_id == root.span_id

    def test_current_context_inside_trace(self):
        tracer = SpanTracer()
        ctx = TraceContext.new()
        assert tracer.current_context() is None
        with tracer.span("root", context=ctx):
            inner = tracer.current_context()
            assert inner is not None
            assert inner.trace_id == ctx.trace_id
            assert inner.span_id != ctx.span_id

    def test_pop_trace_removes_only_that_trace(self):
        tracer = SpanTracer()
        ctx = TraceContext.new()
        with tracer.span("plain"):
            pass
        with tracer.span("traced", context=ctx):
            pass
        popped = tracer.pop_trace(ctx.trace_id)
        assert [s.name for s in popped] == ["traced"]
        assert [s.name for s in tracer.spans] == ["plain"]


class TestTraceStore:
    def _span(self, trace_id, span_id, parent_id=None, start=0.0):
        return {
            "name": "s",
            "span_id": span_id,
            "parent_id": parent_id,
            "trace_id": trace_id,
            "start": start,
            "end": start + 1.0,
            "duration": 1.0,
            "attributes": {},
        }

    def test_add_merges_same_trace(self):
        store = TraceStore(capacity=4)
        tid = "a" * 32
        store.add(tid, [self._span(tid, "1" * 16)])
        store.add(tid, [self._span(tid, "2" * 16, "1" * 16, start=1.0)])
        assert len(store) == 1
        assert len(store.get(tid)) == 2

    def test_eviction_oldest_first(self):
        store = TraceStore(capacity=2)
        tids = [f"{i:032x}" for i in range(1, 4)]
        for tid in tids:
            store.add(tid, [self._span(tid, "1" * 16)])
        assert store.ids() == tids[1:]
        assert store.get(tids[0]) is None
        assert store.stats() == {
            "capacity": 2,
            "size": 2,
            "added": 3,
            "evicted": 1,
        }

    def test_rejects_bad_capacity(self):
        with pytest.raises(InvalidParameterError, match="capacity"):
            TraceStore(capacity=0)

    def test_tree_and_jsonl_round_trip(self, tmp_path):
        store = TraceStore()
        tid = "c" * 32
        store.add(
            tid,
            [
                self._span(tid, "1" * 16, parent_id="f" * 16),
                self._span(tid, "2" * 16, "1" * 16, start=1.0),
            ],
        )
        tree = store.tree(tid)
        assert tree["span_count"] == 2
        assert len(tree["roots"]) == 1
        assert tree["roots"][0]["children"][0]["span_id"] == "2" * 16
        path = store.export_jsonl(tmp_path / "traces.jsonl")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        for record in lines:
            validate_span_dict(record)
        assert build_trace_tree(lines)["span_count"] == 2
        assert store.tree("d" * 32) is None


class TestTraceTreeAndSchema:
    def test_mixed_traces_rejected(self):
        spans = [
            {"span_id": "1" * 16, "parent_id": None, "trace_id": "a" * 32,
             "start": 0.0},
            {"span_id": "2" * 16, "parent_id": None, "trace_id": "b" * 32,
             "start": 0.0},
        ]
        with pytest.raises(SpanSchemaError, match="2 traces"):
            build_trace_tree(spans)

    def test_validate_span_dict_errors(self):
        good = {
            "name": "s",
            "span_id": "1" * 16,
            "parent_id": None,
            "trace_id": "a" * 32,
            "start": 0.0,
            "end": 1.0,
            "duration": 1.0,
            "attributes": {},
        }
        assert validate_span_dict(good) is good
        with pytest.raises(SpanSchemaError, match="missing"):
            validate_span_dict({k: v for k, v in good.items() if k != "name"})
        with pytest.raises(SpanSchemaError, match="type"):
            validate_span_dict({**good, "attributes": "oops"})
        with pytest.raises(SpanSchemaError, match="32-hex"):
            validate_span_dict({**good, "trace_id": "zz"})


class TestFlightRecorder:
    def _recorder(self, tmp_path=None, **kwargs):
        registry = MetricsRegistry()
        registry.counter("some_total", "x").inc(3)
        return FlightRecorder(
            registry=registry,
            dump_dir=tmp_path,
            **kwargs,
        )

    def test_bundle_contents_and_file(self, tmp_path):
        store = TraceStore()
        tid = "a" * 32
        store.add(tid, [{
            "name": "s", "span_id": "1" * 16, "parent_id": None,
            "trace_id": tid, "start": 0.0, "end": 1.0, "duration": 1.0,
            "attributes": {},
        }])
        registry = MetricsRegistry()
        recorder = FlightRecorder(
            registry=registry,
            trace_store=store,
            health=lambda: {"healthy": True},
            dump_dir=tmp_path,
        )
        bundle = recorder.trigger("manual", note="unit test")
        assert bundle["reason"] == "manual"
        assert bundle["detail"] == {"note": "unit test"}
        assert bundle["traces"][0]["trace_id"] == tid
        assert bundle["health"] == {"healthy": True}
        files = list(tmp_path.glob("flight_*_manual.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["seq"] == bundle["seq"]

    def test_debounce_is_per_reason(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        recorder = FlightRecorder(
            registry=registry, min_interval_seconds=30.0, clock=clock
        )
        assert recorder.trigger("manual") is not None
        assert recorder.trigger("manual") is None
        assert recorder.trigger("worker_respawn") is not None
        clock.advance(31.0)
        assert recorder.trigger("manual") is not None
        triggers = registry.get("lazylsh_flight_triggers_total")
        dumps = registry.get("lazylsh_flight_dumps_total")
        assert triggers.value(reason="manual") == 3
        assert dumps.value(reason="manual") == 2

    def test_ring_capacity(self):
        recorder = self._recorder(capacity=2, min_interval_seconds=0.0)
        for i in range(4):
            recorder.trigger("manual", i=i)
        assert len(recorder.bundles) == 2
        assert recorder.bundles[-1]["detail"] == {"i": 3}
        assert recorder.stats()["seq"] == 4

    def test_broken_health_does_not_raise(self):
        registry = MetricsRegistry()

        def bad_health():
            raise RuntimeError("nope")

        recorder = FlightRecorder(registry=registry, health=bad_health)
        bundle = recorder.trigger("manual")
        assert bundle["health"] == {"error": "RuntimeError"}

    def test_rejects_bad_params(self):
        registry = MetricsRegistry()
        with pytest.raises(InvalidParameterError, match="capacity"):
            FlightRecorder(registry=registry, capacity=0)
        with pytest.raises(InvalidParameterError, match="interval"):
            FlightRecorder(registry=registry, min_interval_seconds=-1)


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSLOEngine:
    def _engine(self, good_total, clock):
        registry = MetricsRegistry()
        engine = SLOEngine(registry, clock=clock)
        engine.add(SLOSpec(
            "availability",
            objective=0.99,
            sli=lambda: good_total(),
            windows=(BurnWindow("fast", 300.0, 3600.0, 14.4),),
        ))
        return registry, engine

    def test_planted_violation_is_one_episode(self):
        clock = FakeClock()
        state = {"good": 0.0, "total": 0.0}
        registry, engine = self._engine(
            lambda: (state["good"], state["total"]), clock
        )
        # Healthy traffic: 1000 events, all good.
        state.update(good=1000.0, total=1000.0)
        report = engine.tick()
        assert report["healthy"]
        # Violation burst: 80% errors, sustained across several ticks --
        # still exactly ONE alert episode.
        alerts = registry.get("lazylsh_slo_alerts_total")
        for _ in range(5):
            clock.advance(60.0)
            state["total"] += 100.0
            state["good"] += 20.0
            report = engine.tick()
        assert report["alerting"] == ["availability"]
        assert alerts.value(slo="availability") == 1
        # Recovery: error rate in-window drops to zero.
        for _ in range(70):
            clock.advance(60.0)
            state["total"] += 100.0
            state["good"] += 100.0
            report = engine.tick()
        assert report["healthy"]
        assert engine.state()["alerting"] == []
        # A second sustained burst (long enough to make the 1-hour
        # window material again) opens a second episode.
        for _ in range(12):
            clock.advance(60.0)
            state["total"] += 100.0
            state["good"] += 10.0
            engine.tick()
        assert alerts.value(slo="availability") == 2

    def test_no_traffic_is_healthy(self):
        clock = FakeClock()
        _registry, engine = self._engine(lambda: (0.0, 0.0), clock)
        assert engine.tick()["healthy"]

    def test_on_alert_callback(self):
        clock = FakeClock()
        fired = []
        registry = MetricsRegistry()
        engine = SLOEngine(
            registry, clock=clock, on_alert=lambda name, d: fired.append(name)
        )
        state = {"good": 0.0, "total": 0.0}
        engine.add(SLOSpec(
            "x", objective=0.9,
            sli=lambda: (state["good"], state["total"]),
        ))
        engine.tick()  # baseline snapshot (no traffic yet)
        clock.advance(60.0)
        state.update(good=0.0, total=100.0)
        engine.tick()
        assert fired == ["x"]

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError, match="objective"):
            SLOSpec("bad", objective=1.5, sli=lambda: (0.0, 0.0))
        with pytest.raises(InvalidParameterError, match="window"):
            BurnWindow("w", short_seconds=10.0, long_seconds=5.0,
                       threshold=1.0)
        with pytest.raises(InvalidParameterError, match="threshold"):
            BurnWindow("w", 1.0, 2.0, threshold=0.0)
        assert len(DEFAULT_WINDOWS) == 2

    def test_latency_sli_threshold_must_be_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        with pytest.raises(InvalidParameterError, match="bucket"):
            latency_sli(hist, 0.05)
        sli = latency_sli(hist, 0.1)
        hist.observe(0.05)
        hist.observe(0.5)
        assert sli() == (1.0, 2.0)

    def test_counter_and_error_rate_slis(self):
        registry = MetricsRegistry()
        good = registry.counter("good_total")
        total = registry.counter("all_total")
        good.inc(8, shard="0")
        good.inc(1, shard="1")
        total.inc(10)
        assert counter_ratio_sli(good, total)() == (9.0, 10.0)
        errors = registry.counter("err_total")
        errors.inc(3)
        assert error_rate_sli(errors, total)() == (7.0, 10.0)


class TestPagingMetrics:
    def test_read_fault_counts_on_linux(self):
        counts = read_fault_counts()
        if sys.platform.startswith("linux"):
            assert counts is not None
            minor, major = counts
            assert minor >= 0 and major >= 0
        else:  # pragma: no cover - platform-dependent
            assert counts is None

    def test_update_publishes_monotone_counters(self):
        registry = MetricsRegistry()
        paging = PagingMetrics(registry)
        report = paging.update()
        if not paging.supported:  # pragma: no cover
            pytest.skip("no /proc/self/stat")
        assert report["minor_faults"] >= 0
        # Touch some memory, counters never go down.
        _junk = bytearray(4 * 1024 * 1024)
        paging.update()
        minor = registry.get("lazylsh_minor_faults_total")
        assert minor.value() >= 0

    def test_residency_of_warm_mapping(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"x" * (256 * 1024))
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        mapped.sum()  # fault everything in
        ratio = residency_ratio(mapped)
        if ratio is None:  # pragma: no cover - no mincore
            pytest.skip("mincore unavailable")
        assert 0.0 < ratio <= 1.0
        registry = MetricsRegistry()
        paging = PagingMetrics(registry)
        report = paging.update(stores={"blob": mapped})
        assert report["residency"]["blob"] == pytest.approx(ratio, abs=0.5)

    def test_residency_handles_plain_bytes(self):
        assert residency_ratio(b"") is None


class TestRequestResultFields:
    def test_trace_context_coercions(self):
        ctx = TraceContext.new()
        q = np.zeros(4)
        assert SearchRequest(q, k=1, trace_context=ctx).trace_context is ctx
        from_header = SearchRequest(
            q, k=1, trace_context=ctx.to_traceparent()
        )
        assert from_header.trace_context == ctx
        from_dict = SearchRequest(q, k=1, trace_context=ctx.to_dict())
        assert from_dict.trace_context == ctx
        with pytest.raises(InvalidParameterError, match="trace_context"):
            SearchRequest(q, k=1, trace_context=123)

    def test_request_id_and_deadline_validation(self):
        q = np.zeros(4)
        assert SearchRequest(q, k=1, request_id="abc").request_id == "abc"
        with pytest.raises(InvalidParameterError, match="request_id"):
            SearchRequest(q, k=1, request_id="")
        with pytest.raises(InvalidParameterError, match="deadline_ms"):
            SearchRequest(q, k=1, deadline_ms=0)
        assert SearchRequest(q, k=1, deadline_ms=5.0).deadline_ms == 5.0

    def test_result_dict_only_carries_set_fields(self):
        base = SearchResult(
            ids=np.array([1]),
            distances=np.array([0.5]),
            p=1.0,
            k=1,
        )
        assert "request_id" not in base.to_dict()
        assert "trace_id" not in base.to_dict()
        tagged = SearchResult(
            ids=np.array([1]),
            distances=np.array([0.5]),
            p=1.0,
            k=1,
            request_id="r1",
            trace_id="a" * 32,
            deadline_exceeded=True,
        )
        exported = tagged.to_dict()
        assert exported["request_id"] == "r1"
        assert exported["trace_id"] == "a" * 32
        assert exported["deadline_exceeded"] is True


class TestEndToEndServiceTrace:
    """One sampled query through a 2-shard service = one trace tree."""

    def test_cross_process_trace_tree(self, built_index, small_split):
        store = TraceStore()
        telemetry = Telemetry(trace_store=store, trace_sample=0.0)
        ctx = TraceContext.new()
        with ShardedSearchService(
            built_index, n_shards=2, telemetry=telemetry
        ) as service:
            results = service.search_batch(
                small_split.queries[:1], 5, p=1.0, trace_context=ctx
            )
            untraced = service.search_batch(small_split.queries[:1], 5, p=1.0)
        result = results[0]
        assert result.trace_id == ctx.trace_id
        assert result.request_id is not None
        # Bit-identity: tracing must not perturb the search.
        assert np.array_equal(result.ids, untraced[0].ids)
        spans = store.get(ctx.trace_id)
        assert spans is not None
        for record in spans:
            validate_span_dict(record)
        tree = build_trace_tree(spans)
        assert tree["trace_id"] == ctx.trace_id
        assert len(tree["roots"]) == 1
        root = tree["roots"][0]
        assert root["name"] == "serve.search_batch"
        child_names = {c["name"] for c in root["children"]}
        assert "worker.round" in child_names
        assert "serve.merge" in child_names
        shards = {
            c["attributes"].get("shard")
            for c in root["children"]
            if c["name"] == "worker.round"
        }
        assert shards == {0, 1}
        # Exporter serves the same tree over /trace/<id>.
        exporter = ObsExporter(telemetry.registry, trace_store=store).start()
        try:
            with urllib.request.urlopen(
                f"{exporter.url}/trace/{ctx.trace_id}", timeout=5
            ) as fh:
                served = json.loads(fh.read().decode())
            assert served["span_count"] == tree["span_count"]
            with urllib.request.urlopen(
                f"{exporter.url}/trace", timeout=5
            ) as fh:
                listing = json.loads(fh.read().decode())
            assert ctx.trace_id in listing["traces"]
        finally:
            exporter.stop()

    def test_deadline_overrun_flags_and_counts(self, built_index, small_split):
        registry_telemetry = Telemetry()
        recorder = FlightRecorder(
            registry=registry_telemetry.registry, min_interval_seconds=0.0
        )
        registry_telemetry.flight_recorder = recorder
        with ShardedSearchService(
            built_index, n_shards=2, telemetry=registry_telemetry
        ) as service:
            results = service.search_batch(
                small_split.queries[:1], 5, p=1.0, deadline_ms=1e-6
            )
        assert results[0].deadline_exceeded
        overruns = registry_telemetry.registry.get(
            "lazylsh_deadline_overruns_total"
        )
        assert overruns.value(where="serve.search_batch") == 1
        assert recorder.bundles[-1]["reason"] == "deadline_overrun"

    def test_unsampled_context_leaves_no_trace(self, built_index, small_split):
        store = TraceStore()
        telemetry = Telemetry(trace_store=store, trace_sample=0.0)
        ctx = TraceContext.new(sampled=False)
        with ShardedSearchService(
            built_index, n_shards=2, telemetry=telemetry
        ) as service:
            results = service.search_batch(
                small_split.queries[:1], 5, p=1.0, trace_context=ctx
            )
        assert results[0].trace_id is None
        assert len(store) == 0
