"""Tests for the query telemetry subsystem (repro.obs).

Covers the metrics registry's counter/gauge/histogram semantics and
exports, span nesting and JSONL round-trips, QueryTrace construction /
schema validation, the Telemetry facade (instrument updates, store
observer) and the records every run builds with or without telemetry.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    LazyLSH,
    MultiQueryEngine,
    MultiQueryResult,
    ShardedSearchService,
    Telemetry,
    knn_batch,
)
from repro.core.lazylsh import KnnResult
from repro.datasets import make_synthetic, sample_queries
from repro.errors import InvalidParameterError
from repro.obs import (
    TERMINATION_CAP,
    TERMINATION_K_WITHIN,
    MetricsRegistry,
    ObsExporter,
    QueryTraceBuilder,
    SpanTracer,
    TraceSchemaError,
    get_default_registry,
    histogram_quantile,
    load_spans_jsonl,
    load_traces_jsonl,
    parse_prometheus_text,
    summarize_traces,
    validate_trace_dict,
    write_traces_jsonl,
)
from repro.storage.io_stats import IOStats


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits_total", "help text")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        counter = MetricsRegistry().counter("queries_total")
        counter.inc(engine="flat")
        counter.inc(3, engine="scalar")
        assert counter.value(engine="flat") == 1
        assert counter.value(engine="scalar") == 3
        assert counter.value(engine="warp") == 0

    def test_label_order_is_canonical(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(InvalidParameterError, match="decrease"):
            counter.inc(-1)

    def test_rejects_bad_names(self):
        reg = MetricsRegistry()
        with pytest.raises(InvalidParameterError, match="name"):
            reg.counter("bad name")
        counter = reg.counter("ok")
        with pytest.raises(InvalidParameterError, match="label"):
            counter.inc(**{"bad-label": 1})


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("inflight")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6


class TestHistogram:
    def test_bucket_assignment_le_semantics(self):
        hist = MetricsRegistry().histogram("h", buckets=(1, 10, 100))
        for v in (0.5, 1, 2, 10, 11, 1000):
            hist.observe(v)
        # le=1 catches 0.5 and 1; le=10 catches 2 and 10; le=100 catches
        # 11; +Inf catches 1000.
        assert hist.bucket_counts() == [2, 2, 1, 1]
        assert hist.count() == 6
        assert hist.sum() == pytest.approx(1024.5)

    def test_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(InvalidParameterError, match="increasing"):
            reg.histogram("h", buckets=(10, 1))
        with pytest.raises(InvalidParameterError, match="bucket"):
            reg.histogram("h2", buckets=())

    def test_explicit_inf_bucket_is_folded(self):
        hist = MetricsRegistry().histogram("h", buckets=(1, float("inf")))
        assert hist.buckets == (1.0,)

    def test_prometheus_render_is_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", "latency", buckets=(1, 2))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(99)
        text = reg.render_prometheus()
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(InvalidParameterError, match="registered"):
            reg.gauge("x")

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2))
        assert reg.histogram("h", buckets=(1, 2)) is not None
        with pytest.raises(InvalidParameterError, match="buckets"):
            reg.histogram("h", buckets=(1, 3))

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.inc(7)
        reg.reset()
        assert "c" in reg
        assert counter.value() == 0

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", "help").inc(2, p="0.5")
        snapshot = reg.to_dict()
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["c"]["values"] == [
            {"labels": {"p": "0.5"}, "value": 2.0}
        ]

    def test_default_registry_is_shared(self):
        assert get_default_registry() is get_default_registry()

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(tag='quo"te\nline')
        text = reg.render_prometheus()
        assert '\\"' in text and "\\n" in text


class TestSpanTracer:
    def test_nesting_parent_ids(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        # Completion order: children first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration <= outer.duration

    def test_error_annotated_and_reraised(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        assert tracer.spans[0].attributes["error"] == "RuntimeError"

    def test_attributes_and_set(self):
        tracer = SpanTracer()
        with tracer.span("s", k=10) as span:
            span.set(found=3)
        assert tracer.spans[0].attributes == {"k": 10, "found": 3}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("a", n=1):
            with tracer.span("b"):
                pass
        path = tracer.export_jsonl(tmp_path / "spans.jsonl")
        loaded = load_spans_jsonl(path)
        assert [s.to_dict() for s in loaded] == tracer.to_dicts()


def _build_trace(termination=TERMINATION_K_WITHIN):
    io = IOStats()
    builder = QueryTraceBuilder(
        p=0.5, k=3, engine="flat", rehashing="query_centric", query_id=9
    )
    builder.begin_round(level=1.0, radius=3.0, io=io)
    io.add_sequential(5)
    builder.add_collisions(12)
    builder.end_round(io=io, candidates=0, within=0)
    builder.begin_round(level=3.0, radius=9.0, io=io)
    io.add_sequential(7)
    io.add_random(4)
    builder.add_collisions(30)
    builder.add_crossings(4)
    builder.end_round(io=io, candidates=4, within=3)
    return builder.finish(termination=termination, io=io, candidates=4)


class TestQueryTrace:
    def test_builder_records_rounds_and_deltas(self):
        trace = _build_trace()
        assert trace.num_rounds == 2
        first, second = trace.rounds
        assert (first.io.sequential, first.io.random) == (5, 0)
        assert (second.io.sequential, second.io.random) == (7, 4)
        assert first.collisions == 12 and second.crossings == 4
        assert trace.io_delta_sum().to_dict() == trace.io.to_dict()
        assert trace.elapsed_seconds >= 0
        assert trace.query_id == 9

    def test_dict_round_trip_validates(self):
        trace = _build_trace()
        record = trace.to_dict()
        validate_trace_dict(record)
        back = type(trace).from_dict(record)
        assert back.to_dict() == record

    def test_jsonl_round_trip(self, tmp_path):
        traces = [_build_trace(), _build_trace(TERMINATION_CAP)]
        path = write_traces_jsonl(traces, tmp_path / "t.jsonl")
        loaded = load_traces_jsonl(path)
        assert [t.to_dict() for t in loaded] == [t.to_dict() for t in traces]

    def test_jsonl_without_serving_fields_still_loads(self, tmp_path):
        """A line written before the record carried ``cap``,
        ``shard_io``, ``request_id`` and ``trace_id`` still loads."""
        record = _build_trace().to_dict()
        for name in ("cap", "shard_io", "request_id", "trace_id"):
            del record[name]
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (trace,) = load_traces_jsonl(path)
        assert trace.rounds == _build_trace().rounds
        assert (trace.cap, trace.shard_io) == (None, None)
        assert (trace.request_id, trace.trace_id) == (None, None)

    def test_validation_rejects_bad_termination(self):
        record = _build_trace().to_dict()
        record["termination"] = "tired"
        with pytest.raises(TraceSchemaError, match="termination"):
            validate_trace_dict(record)

    def test_validation_rejects_io_mismatch(self):
        record = _build_trace().to_dict()
        record["io"]["sequential"] += 1
        with pytest.raises(TraceSchemaError, match="deltas"):
            validate_trace_dict(record)

    def test_validation_rejects_missing_field(self):
        record = _build_trace().to_dict()
        del record["rounds"]
        with pytest.raises(TraceSchemaError, match="rounds"):
            validate_trace_dict(record)

    def test_validation_rejects_bad_round_numbering(self):
        record = _build_trace().to_dict()
        record["rounds"][1]["round"] = 7
        with pytest.raises(TraceSchemaError, match="round"):
            validate_trace_dict(record)


@pytest.fixture(scope="module")
def obs_index():
    data = make_synthetic(500, 12, seed=31)
    split = sample_queries(data, n_queries=2, seed=32)
    from repro import LazyLSHConfig

    cfg = LazyLSHConfig(
        c=3.0, p_min=0.5, seed=31, mc_samples=20_000, mc_buckets=100
    )
    return LazyLSH(cfg).build(split.data), split


class TestTelemetryFacade:
    def test_record_updates_instruments(self, obs_index):
        index, split = obs_index
        telemetry = Telemetry()
        trace = index.knn(split.queries[0], 5, p=0.5, telemetry=telemetry).trace
        queries = telemetry.registry.get("lazylsh_queries_total")
        assert queries.value(engine="flat", p="0.5") == 1
        assert trace.query_id == 0  # numbered when published
        terminations = telemetry.registry.get("lazylsh_query_terminations_total")
        assert terminations.value(reason=trace.termination) == 1
        rounds = telemetry.registry.get("lazylsh_query_rounds")
        assert rounds.count() == 1
        assert rounds.sum() == trace.num_rounds
        assert "lazylsh_queries_total" in telemetry.metrics_text()
        assert summarize_traces([trace])["queries"] == 1

    def test_spans_wrap_query_entry_points(self, obs_index):
        index, split = obs_index
        telemetry = Telemetry()
        index.knn(split.queries[0], 5, p=0.5, telemetry=telemetry)
        knn_batch(index, split.queries, 5, p=0.5, telemetry=telemetry)
        names = [s.name for s in telemetry.tracer.spans]
        assert "lazylsh.knn" in names and "knn_batch" in names

    def test_store_observer_counts(self, obs_index):
        index, split = obs_index
        telemetry = Telemetry()
        observer = telemetry.observe_store(index.store)
        assert index.store.observer is observer
        index.knn(split.queries[0], 5, p=0.5)
        searches = telemetry.registry.get("lazylsh_store_searches_total")
        entries = telemetry.registry.get("lazylsh_store_entries_scanned_total")
        assert searches.value() > 0
        assert entries.value() > 0
        index.store.observer = None
        before = searches.value()
        index.knn(split.queries[0], 5, p=0.5)
        assert searches.value() == before

    def test_scalar_path_counts_window_reads(self, obs_index):
        index, split = obs_index
        telemetry = Telemetry()
        telemetry.observe_store(index.store)
        index.knn(split.queries[0], 5, p=0.5, engine="scalar")
        index.store.observer = None
        windows = telemetry.registry.get("lazylsh_store_window_reads_total")
        assert windows.value() > 0


def _per_lane(answer) -> list:
    """The per-(query, metric) results of one entry point's answer."""
    if isinstance(answer, MultiQueryResult):
        return list(answer.results.values())
    if isinstance(answer, KnnResult):
        return [answer]
    return [result for part in answer for result in _per_lane(part)]


def _record(result) -> dict:
    """A result's record, checked, without its per-call fields."""
    record = result.trace.to_dict()
    validate_trace_dict(record)
    assert result.trace.io_delta_sum().to_dict() == result.io.to_dict()
    del record["query_id"], record["elapsed_seconds"]
    return record


def _assert_same_run(plain, traced) -> None:
    """Answers, I/O and records agree with and without telemetry."""
    plain, traced = _per_lane(plain), _per_lane(traced)
    assert len(plain) == len(traced) > 0
    for a, b in zip(plain, traced):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)
        assert a.io.to_dict() == b.io.to_dict()
        assert a.termination == b.termination
        assert _record(a) == _record(b)


class TestNoOpGuard:
    """With telemetry=None the engines leave no observable residue, and
    every run still carries its record."""

    def test_default_leaves_no_hooks(self, obs_index):
        index, split = obs_index
        result = index.knn(split.queries[0], 5, p=0.5)
        assert index.store.observer is None
        assert result.termination in (TERMINATION_K_WITHIN, TERMINATION_CAP)

    def test_results_identical_with_and_without_telemetry(self, obs_index):
        """Every kNN entry point: the same answers, I/O and record."""
        index, split = obs_index
        queries, query, metrics = split.queries, split.queries[1], (0.5, 1.0)
        multi = MultiQueryEngine(index)
        for engine in ("flat", "scalar"):
            for call in (
                lambda tel: index.knn(query, 5, p=0.5, engine=engine, telemetry=tel),
                lambda tel: knn_batch(
                    index, queries, 5, p=0.5, engine=engine, telemetry=tel
                ),
                lambda tel: knn_batch(
                    index, queries, 5, metrics=metrics, engine=engine, telemetry=tel
                ),
                lambda tel: multi.knn(
                    query, 5, metrics=metrics, engine=engine, telemetry=tel
                ),
            ):
                _assert_same_run(call(None), call(Telemetry()))
        for n_shards in (1, 2, 3):
            with ShardedSearchService(index, n_shards=n_shards) as service:
                for call in (
                    lambda tel: service.search(query, 5, p=0.5, telemetry=tel),
                    lambda tel: service.search(
                        query, 5, metrics=metrics, telemetry=tel
                    ),
                    lambda tel: service.search_batch(
                        queries, 5, p=0.5, telemetry=tel
                    ),
                    lambda tel: service.search_batch(
                        queries, 5, metrics=metrics, telemetry=tel
                    ),
                ):
                    _assert_same_run(call(None), call(Telemetry()))

    def test_batch_without_telemetry_records_nothing(self, obs_index):
        index, split = obs_index
        knn_batch(index, split.queries, 5, p=0.5)
        assert index.store.observer is None


class TestParsePrometheusText:
    """Round-trip and edge cases of the scrape-side exposition parser."""

    def test_escaped_label_values_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "escape torture test")
        counter.inc(3, path='a"b', note="line1\nline2", sep="back\\slash")
        samples = parse_prometheus_text(registry.render_prometheus())
        labels, value = samples["esc_total"][0]
        assert value == 3.0
        assert labels == {
            "path": 'a"b',
            "note": "line1\nline2",
            "sep": "back\\slash",
        }

    def test_empty_family_yields_no_samples(self):
        text = (
            "# HELP empty_total documented but never incremented\n"
            "# TYPE empty_total counter\n"
            "# HELP other_total has a sample\n"
            "# TYPE other_total counter\n"
            "other_total 2\n"
        )
        samples = parse_prometheus_text(text)
        assert "empty_total" not in samples
        assert samples["other_total"] == [({}, 2.0)]

    def test_blank_lines_and_comments_skipped(self):
        samples = parse_prometheus_text("\n# just a comment\n\nm_total 1\n")
        assert samples == {"m_total": [({}, 1.0)]}

    def test_inf_values(self):
        samples = parse_prometheus_text('g{le="+Inf"} +Inf\nh 2\n')
        assert samples["g"][0][1] == float("inf")

    def test_malformed_sample_line_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("not a metric line!!!\n")

    def test_malformed_label_set_raises(self):
        with pytest.raises(ValueError, match="malformed label"):
            parse_prometheus_text("m_total{oops} 1\n")


class TestHistogramQuantileEdges:
    """PromQL-mirror quantile estimation on degenerate bucket layouts."""

    def test_inf_only_bucket_returns_none(self):
        # All mass in +Inf: there is no finite bound to interpolate to.
        assert histogram_quantile([({"le": "+Inf"}, 5.0)], 0.5) is None

    def test_zero_count_buckets_return_none(self):
        samples = [
            ({"le": "0.1"}, 0.0),
            ({"le": "1"}, 0.0),
            ({"le": "+Inf"}, 0.0),
        ]
        assert histogram_quantile(samples, 0.99) is None

    def test_empty_sample_list_returns_none(self):
        assert histogram_quantile([], 0.5) is None

    def test_mass_above_last_finite_bound_clamps(self):
        samples = [({"le": "0.5"}, 1.0), ({"le": "+Inf"}, 10.0)]
        assert histogram_quantile(samples, 0.99) == 0.5

    def test_flat_prefix_does_not_divide_by_zero(self):
        samples = [
            ({"le": "0.1"}, 4.0),
            ({"le": "0.5"}, 4.0),
            ({"le": "+Inf"}, 4.0),
        ]
        assert histogram_quantile(samples, 0.5) == pytest.approx(0.05)

    def test_label_matching_selects_series(self):
        samples = [
            ({"le": "1", "engine": "flat"}, 10.0),
            ({"le": "+Inf", "engine": "flat"}, 10.0),
            ({"le": "1", "engine": "scalar"}, 0.0),
            ({"le": "+Inf", "engine": "scalar"}, 0.0),
        ]
        assert (
            histogram_quantile(samples, 0.5, match_labels={"engine": "flat"})
            is not None
        )
        assert (
            histogram_quantile(
                samples, 0.5, match_labels={"engine": "scalar"}
            )
            is None
        )


class TestConcurrentScrapes:
    """The ThreadingHTTPServer exporter must survive parallel scrapers."""

    def test_parallel_scrapes_are_parseable(self):
        import threading
        import urllib.request

        registry = MetricsRegistry()
        counter = registry.counter("scrape_total", "mutated during scrapes")
        exporter = ObsExporter(registry).start()
        errors: list[Exception] = []
        stop = threading.Event()

        def mutate():
            while not stop.is_set():
                counter.inc(label="a")
                counter.inc(label="b")

        def scrape():
            try:
                for _ in range(20):
                    with urllib.request.urlopen(
                        exporter.url + "/metrics", timeout=5
                    ) as fh:
                        assert fh.status == 200
                        parse_prometheus_text(fh.read().decode())
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        writer = threading.Thread(target=mutate, daemon=True)
        scrapers = [
            threading.Thread(target=scrape, daemon=True) for _ in range(4)
        ]
        writer.start()
        try:
            for thread in scrapers:
                thread.start()
            for thread in scrapers:
                thread.join(timeout=30)
        finally:
            stop.set()
            writer.join(timeout=5)
            exporter.stop()
        assert not errors
