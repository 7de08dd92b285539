"""Tests for the workload-intelligence plane (PR 9).

Covers the Space-Saving heavy-hitter sketch and WorkloadAnalytics
(demand histograms, cache efficacy by heat, hot-bucket membership), the
continuous sampling profiler (deterministic single samples, folded
rendering, lifecycle, on-demand captures), query EXPLAIN (the query
record, its validation and rendering, the per-round I/O delta-sum
invariant, the request's wire round-trip, one record
shared with the slow-query log), the slow-query log's
request/trace correlation ids, structured logging configuration, and
the /proc-based paging metrics' graceful degradation off Linux.
"""

from __future__ import annotations

import ast
import json
import logging
import mmap
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.obs.procstat as procstat
from repro.api import SearchRequest
from repro.errors import InvalidParameterError, WireFormatError
from repro.logconfig import (
    ROOT_LOGGER_NAME,
    JsonFormatter,
    configure_logging,
)
from repro.obs import (
    TERMINATION_CAP,
    TERMINATION_K_WITHIN,
    ContinuousProfiler,
    MetricsRegistry,
    PagingMetrics,
    QueryTrace,
    QueryTraceBuilder,
    SlowQueryLog,
    SpaceSavingSketch,
    TraceSchemaError,
    WorkloadAnalytics,
    classify_frames,
    read_fault_counts,
    render_explain,
    residency_ratio,
    validate_trace_dict,
)
from repro.obs.profiler import _PHASE_RULES
from repro.storage.io_stats import IOStats


# ---------------------------------------------------------------------------
# Space-Saving sketch
# ---------------------------------------------------------------------------


class TestSpaceSavingSketch:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError, match="capacity"):
            SpaceSavingSketch(0)
        sketch = SpaceSavingSketch(4)
        with pytest.raises(InvalidParameterError, match="weight"):
            sketch.observe("a", 0)

    def test_exact_below_capacity(self):
        sketch = SpaceSavingSketch(8)
        for key, times in (("a", 5), ("b", 3), ("c", 1)):
            for _ in range(times):
                sketch.observe(key)
        assert len(sketch) == 3
        assert sketch.count("a") == 5
        assert sketch.count("missing") == 0
        assert "b" in sketch and "missing" not in sketch
        top = sketch.top(2)
        assert [key for key, _, _ in top] == ["a", "b"]
        assert all(error == 0 for _, _, error in top)

    def test_eviction_inherits_minimum_as_error(self):
        sketch = SpaceSavingSketch(2)
        sketch.observe("a", 10)
        sketch.observe("b", 2)
        sketch.observe("c")  # evicts b (count 2), inherits its count
        assert sketch.evictions == 1
        assert "b" not in sketch
        assert sketch.count("c") == 3  # floor 2 + weight 1
        ((_, count, error),) = [
            entry for entry in sketch.top(2) if entry[0] == "c"
        ]
        assert (count, error) == (3, 2)
        # True frequency (1) lies within [count - error, count].
        assert count - error <= 1 <= count

    def test_overestimate_bounded_by_n_over_m(self):
        rng = np.random.default_rng(5)
        capacity = 16
        sketch = SpaceSavingSketch(capacity)
        truth: dict[int, int] = {}
        # Zipf-ish stream with a long tail to force evictions.
        keys = rng.zipf(1.3, size=4000)
        for key in keys:
            key = int(key)
            sketch.observe(key)
            truth[key] = truth.get(key, 0) + 1
        bound = sketch.error_bound()
        assert bound == len(keys) / capacity
        for key, count, error in sketch.top(capacity):
            true = truth[key]
            assert true <= count <= true + bound
            assert count - error <= true

    def test_heavy_key_guaranteed_tracked(self):
        sketch = SpaceSavingSketch(8)
        for i in range(400):
            sketch.observe("hot" if i % 2 == 0 else f"tail-{i}")
        # "hot" has true frequency 200 > N/m = 50, so it must survive.
        assert "hot" in sketch
        assert sketch.top(1)[0][0] == "hot"


# ---------------------------------------------------------------------------
# Workload analytics
# ---------------------------------------------------------------------------


def _bucket(*values: int) -> bytes:
    return np.asarray(values, dtype=np.int64).tobytes()


class TestWorkloadAnalytics:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError, match="hot_buckets"):
            WorkloadAnalytics(hot_buckets=0)
        with pytest.raises(InvalidParameterError, match="demand_window"):
            WorkloadAnalytics(demand_window=0)

    def test_heavy_hitters_decode_bucket_bytes(self):
        workload = WorkloadAnalytics(sketch_capacity=8)
        for _ in range(3):
            workload.observe_query(
                digest="d1", bucket=_bucket(4, -2, 7), p=0.75, k=10
            )
        workload.observe_query(
            digest="d2", bucket=_bucket(1, 1, 1), p=0.5, k=5
        )
        hitters = workload.heavy_hitters(n=2)
        assert hitters["digests"][0] == {
            "digest": "d1", "count": 3, "error": 0,
        }
        assert hitters["buckets"][0]["bucket"] == [4, -2, 7]
        assert hitters["buckets"][0]["count"] == 3
        assert hitters["total"] == 4
        assert hitters["error_bound"] == 4 / 8

    def test_demand_histogram_rolls_over_window(self):
        workload = WorkloadAnalytics(demand_window=4)
        for _ in range(3):
            workload.observe_query(
                digest="d", bucket=_bucket(0), p=0.75, k=10
            )
        for _ in range(2):
            workload.observe_query(
                digest="d", bucket=_bucket(0), p=1.0, k=5
            )
        demand = workload.demand()
        # Window holds the last 4 of the 5 queries.
        assert demand["window"] == 4
        assert demand["p"] == {"0.75": 2, "1": 2}
        assert demand["k"] == {"10": 2, "5": 2}

    def test_cache_efficacy_splits_by_heat(self):
        workload = WorkloadAnalytics(hot_buckets=1, sketch_capacity=8)
        hot, cold = _bucket(1), _bucket(2)
        for _ in range(5):
            workload.observe_query(digest="h", bucket=hot, p=0.5, k=3)
        workload.observe_query(digest="c", bucket=cold, p=0.5, k=3)
        assert workload.is_hot(hot)
        assert not workload.is_hot(cold)
        assert workload.note_cache(hot, hit=True) == "hot"
        assert workload.note_cache(hot, hit=True) == "hot"
        assert workload.note_cache(hot, hit=False) == "hot"
        assert workload.note_cache(cold, hit=False) == "cold"
        efficacy = workload.cache_efficacy()
        assert efficacy["hot"] == {
            "hits": 2, "misses": 1, "hit_rate": pytest.approx(2 / 3),
        }
        assert efficacy["cold"]["hit_rate"] == 0.0
        # No lookups at all -> rate is None, not a division error.
        assert WorkloadAnalytics().cache_efficacy()["hot"]["hit_rate"] is None

    def test_registry_feed_and_gauge_throttle(self):
        registry = MetricsRegistry()
        workload = WorkloadAnalytics(registry, sketch_capacity=8)
        for i in range(70):
            workload.observe_query(
                digest=f"d{i % 3}", bucket=_bucket(i % 3), p=0.75, k=10
            )
        queries = registry.get("lazylsh_workload_queries_total")
        assert queries.value(p="0.75", k="10") == 70
        # The gauge refreshes on the sampled observations (1st, 33rd,
        # 65th) and must reflect the tracked-key count at that point.
        tracked = registry.get("lazylsh_workload_tracked_keys")
        assert tracked.value(sketch="buckets") == 3.0
        workload.note_cache(_bucket(0), hit=True)
        cache = registry.get("lazylsh_workload_cache_lookups_total")
        assert cache.value(heat="hot", outcome="hit") == 1

    def test_stats_shape(self):
        workload = WorkloadAnalytics()
        workload.observe_query(digest="d", bucket=_bucket(3), p=2.0, k=1)
        stats = workload.stats()
        assert set(stats) == {"heavy_hitters", "demand", "cache"}
        assert json.dumps(stats)  # JSON-serialisable end to end


# ---------------------------------------------------------------------------
# Continuous profiler
# ---------------------------------------------------------------------------


class TestContinuousProfiler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError, match="hz"):
            ContinuousProfiler(hz=0)
        with pytest.raises(InvalidParameterError, match="hz"):
            ContinuousProfiler(hz=1001)
        with pytest.raises(InvalidParameterError, match="max_depth"):
            ContinuousProfiler(max_depth=0)
        with pytest.raises(InvalidParameterError, match="max_stacks"):
            ContinuousProfiler(max_stacks=0)

    def test_sample_once_folds_other_threads(self):
        profiler = ContinuousProfiler()
        release = threading.Event()

        def parked_worker():
            release.wait(timeout=10)

        thread = threading.Thread(
            target=parked_worker, name="parked-worker", daemon=True
        )
        thread.start()
        try:
            sampled = profiler.sample_once()
        finally:
            release.set()
            thread.join()
        assert sampled >= 1
        assert profiler.samples == sampled
        assert profiler.thread_table().get("parked-worker") == 1
        folded = profiler.folded()
        line = next(
            ln for ln in folded.splitlines() if ln.startswith("parked-worker;")
        )
        # thread;phase:<phase>;frame;... count — the parked thread waits
        # on an Event, so it classifies as idle.
        assert line.startswith("parked-worker;phase:idle;")
        assert line.rsplit(" ", 1)[1] == "1"
        assert "parked_worker" in line
        phases = profiler.phase_table()
        assert sum(entry["samples"] for entry in phases.values()) == sampled
        assert sum(
            entry["fraction"] for entry in phases.values()
        ) == pytest.approx(1.0)

    def test_lifecycle_idempotent_and_restartable(self):
        profiler = ContinuousProfiler(hz=200)
        assert not profiler.running
        profiler.stop()  # stop before start is a no-op
        with profiler as running:
            assert running is profiler
            assert profiler.running
            assert profiler.start() is profiler  # idempotent
        assert not profiler.running
        profiler.stop()  # double stop is a no-op
        profiler.start()
        assert profiler.running
        profiler.stop()
        assert not profiler.running
        stats = profiler.stats()
        assert stats["hz"] == 200
        assert stats["samples"] == profiler.samples

    def test_capture_validates_and_keeps_aggregate_clean(self):
        profiler = ContinuousProfiler()
        with pytest.raises(InvalidParameterError, match="seconds"):
            profiler.capture(0)
        with pytest.raises(InvalidParameterError, match="seconds"):
            profiler.capture(61)
        with pytest.raises(InvalidParameterError, match="hz"):
            profiler.capture(1, hz=0)
        text = profiler.capture(0.05, hz=200)
        assert text == "" or all(
            line.rsplit(" ", 1)[1].isdigit() for line in text.splitlines()
        )
        # On-demand captures must not pollute the continuous aggregate.
        assert profiler.samples == 0
        assert profiler.folded() == ""

    def test_clear_resets_aggregate(self):
        profiler = ContinuousProfiler()
        profiler.sample_once()
        profiler.clear()
        assert profiler.samples == 0
        assert profiler.folded() == ""
        assert profiler.phase_table() == {}

    def test_registry_instruments(self):
        registry = MetricsRegistry()
        profiler = ContinuousProfiler(registry, hz=50)
        assert registry.get("lazylsh_profile_hz").value() == 50
        sampled = profiler.sample_once()
        counter = registry.get("lazylsh_profile_samples_total")
        total = sum(
            counter.value(phase=phase)
            for phase in profiler.phase_table()
        )
        assert total == sampled

    def test_classify_frames(self):
        assert classify_frames(
            [("/x/service.py", "search_batch"), ("/x/worker.py", "round")]
        ) == "scan"  # leaf-first: innermost phase-bearing frame wins
        assert classify_frames(
            [("/x/service.py", "_run_wave"), ("/x/engine.py", "merge")]
        ) == "merge"
        assert classify_frames([("/x/threading.py", "wait")]) == "idle"
        assert classify_frames([("/x/mymodule.py", "helper")]) == "other"
        assert classify_frames([]) == "other"

    def test_phase_rules_name_live_functions(self):
        """Every (file, prefix) rule matches a function of its module."""
        root = Path(repro.__file__).parent
        defined = {
            str(path.relative_to(root)): {
                node.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for path in root.rglob("*.py")
        }
        for _phase, file_part, prefixes in _PHASE_RULES:
            modules = [rel for rel in defined if file_part in rel]
            assert modules, f"no module matches {file_part!r}"
            names = set().union(*(defined[rel] for rel in modules))
            for prefix in prefixes:
                assert any(name.startswith(prefix) for name in names), (
                    f"rule ({file_part!r}, {prefix!r}) names no function"
                )


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


def _explain_trace(termination=TERMINATION_K_WITHIN, *, cap=None, **serving):
    """A fixed two-round trace; ``serving`` sets the service's fields."""
    io = IOStats()
    builder = QueryTraceBuilder(
        p=0.5, k=3, engine="sharded", rehashing="query_centric", query_id=9,
        cap=cap, clock=iter([0.0, 0.00125]).__next__,
    )
    builder.begin_round(level=1.0, radius=3.0, io=io)
    io.add_sequential(5)
    builder.add_collisions(12)
    builder.end_round(io=io, candidates=1, within=0)
    builder.begin_round(level=3.0, radius=9.0, io=io)
    io.add_sequential(7)
    io.add_random(4)
    builder.add_collisions(30)
    builder.add_crossings(4)
    builder.end_round(io=io, candidates=4, within=3)
    return builder.finish(
        termination=termination, io=io, candidates=4, **serving
    )


#: ``render_explain`` of ``_explain_trace(TERMINATION_CAP, cap=4,
#: shard_io=[IOStats(random=3), IOStats(random=1)], request_id="ab12",
#: trace_id="cd34")``, as the EXPLAIN v1 record printed it before the
#: query record replaced that record.
_GOLDEN_EXPLAIN = (
    "EXPLAIN  Np(q, k=3, p=0.5)  engine=sharded  rehashing=query_centric\n"
    "  query_id=9  request_id=ab12  trace_id=cd34\n"
    "  terminated: candidate_cap  candidates=4/4 cap  elapsed=1.25ms\n"
    "  io: sequential=12  random=4  (simulated page charges)\n"
    "\n"
    "  round  radius      windows  promoted  cand.  within  k-prog  "
    "cap-prog  io(seq/rnd)\n"
    "      1  3                12         0      1       0      0%       "
    "25%  5/0\n"
    "      2  9                30         4      4       3    100%      "
    "100%  7/4\n"
    "\n"
    "  shards: 2  random_io=[3, 1]  busiest=shard[0]  skew=1.50x mean\n"
)

#: EXPLAIN v1 field names the query record does not use.
_V1_NAMES = {
    "windows_scanned", "promoted", "candidates_total", "within_radius",
    "k_progress", "cap_progress", "shards",
}


class TestExplain:
    def test_build_flattens_trace(self):
        record = _explain_trace(
            cap=8,
            shard_io=[IOStats(random=6), IOStats(random=2)],
            request_id="ab12",
            trace_id="cd34",
        ).to_dict()
        validate_trace_dict(record)
        assert record["engine"] == "sharded"
        assert record["termination"] == TERMINATION_K_WITHIN
        assert (record["request_id"], record["trace_id"]) == ("ab12", "cd34")
        first, second = record["rounds"]
        assert first["collisions"] == 12 and second["crossings"] == 4
        assert (second["within"], record["k"]) == (3, 3)
        assert (second["candidates"], record["cap"]) == (4, 8)
        assert record["shard_io"] == [
            IOStats(random=6).to_dict(), IOStats(random=2).to_dict()
        ]
        names = set(record) | {name for rnd in record["rounds"] for name in rnd}
        assert not names & _V1_NAMES

    def test_io_deltas_sum_to_totals(self):
        record = _explain_trace().to_dict()
        for field in ("sequential", "random"):
            assert sum(
                r["io"][field] for r in record["rounds"]
            ) == record["io"][field]

    def test_validation_rejects_broken_io_invariant(self):
        record = _explain_trace().to_dict()
        record["rounds"][0]["io"]["sequential"] += 1
        with pytest.raises(TraceSchemaError):
            validate_trace_dict(record)

    def test_validation_rejects_bad_records(self):
        record = _explain_trace().to_dict()
        bad_version = dict(record, version=99)
        with pytest.raises(TraceSchemaError, match="version"):
            validate_trace_dict(bad_version)
        missing = dict(record)
        del missing["rounds"]
        with pytest.raises(TraceSchemaError, match="rounds"):
            validate_trace_dict(missing)
        bad_cap = dict(record, cap=0)
        with pytest.raises(TraceSchemaError, match="cap"):
            validate_trace_dict(bad_cap)
        bad_shards = dict(record, shard_io=[{"random": 1}])
        with pytest.raises(TraceSchemaError, match="shard_io"):
            validate_trace_dict(bad_shards)
        bad_id = dict(record, request_id=7)
        with pytest.raises(TraceSchemaError, match="request_id"):
            validate_trace_dict(bad_id)

    def test_round_trips_json(self):
        trace = _explain_trace(
            TERMINATION_CAP, cap=4, shard_io=[IOStats(random=4)],
            request_id="ab12",
        )
        record = json.loads(json.dumps(trace.to_dict()))
        validate_trace_dict(record)
        assert QueryTrace.from_dict(record) == trace

    def test_render_is_human_readable(self):
        record = _explain_trace(
            cap=8, shard_io=[IOStats(random=6), IOStats(random=2)]
        ).to_dict()
        text = render_explain(record)
        assert "EXPLAIN" in text and "k=3" in text
        assert "terminated: k_within_radius" in text
        assert "busiest=shard[0]" in text
        # One table row per round.
        assert sum(
            1 for line in text.splitlines() if line.strip().startswith(("1 ", "2 "))
        ) == 2

    def test_render_matches_golden_text(self):
        record = _explain_trace(
            TERMINATION_CAP,
            cap=4,
            shard_io=[IOStats(random=3), IOStats(random=1)],
            request_id="ab12",
            trace_id="cd34",
        ).to_dict()
        assert render_explain(record) == _GOLDEN_EXPLAIN

    def test_explain_from_live_engine_trace(self):
        from repro import LazyLSH, LazyLSHConfig, Telemetry

        rng = np.random.default_rng(11)
        data = rng.normal(size=(300, 8))
        cfg = LazyLSHConfig(
            c=3.0, p_min=0.5, seed=11, mc_samples=20_000, mc_buckets=100
        )
        index = LazyLSH(cfg).build(data)
        result = index.knn(rng.normal(size=8), 5, p=0.5, telemetry=Telemetry())
        record = result.trace.to_dict()
        validate_trace_dict(record)
        assert record["candidates"] == result.candidates
        assert record["num_rounds"] == result.rounds
        assert record["io"] == result.io.to_dict()
        assert record["cap"] == int(5 + index.beta * index.num_points)

    def test_service_explain_equals_slowlog_entry(self):
        from repro import LazyLSH, LazyLSHConfig, Telemetry
        from repro.serve import ShardedSearchService

        rng = np.random.default_rng(12)
        data = rng.normal(size=(300, 8))
        cfg = LazyLSHConfig(
            c=3.0, p_min=0.5, seed=12, mc_samples=20_000, mc_buckets=100
        )
        index = LazyLSH(cfg).build(data)
        log = SlowQueryLog(capacity=16)
        telemetry = Telemetry(slowlog=log)
        with ShardedSearchService(
            index, n_shards=2, telemetry=telemetry
        ) as service:
            results = service.search_batch(
                data[:3] + 0.01, 5, p=0.5, request_id="req-1",
            )
        entries = log.to_dicts()
        assert len(entries) == len(results) == 3
        for result, entry in zip(results, entries):
            explain = result.trace.to_dict()
            validate_trace_dict(explain)
            assert entry.pop("captured_at") > 0
            assert explain == entry
            assert entry["request_id"] == "req-1"
            assert entry["io"] == result.io.to_dict()
            assert entry["shard_io"] == [s.to_dict() for s in result.shard_io]


class TestExplainWire:
    def test_request_round_trip(self):
        request = SearchRequest(query=[1.0, 2.0], k=3, p=0.5, explain=True)
        record = request.to_dict()
        assert record["explain"] is True
        back = SearchRequest.from_dict(record)
        assert back.explain is True

    def test_request_omits_default(self):
        record = SearchRequest(query=[1.0, 2.0], k=3).to_dict()
        assert "explain" not in record
        assert SearchRequest.from_dict(record).explain is False

    def test_unknown_fields_still_rejected(self):
        record = SearchRequest(query=[1.0], k=1, explain=True).to_dict()
        record["explian"] = True  # typo must fail loudly
        with pytest.raises(WireFormatError, match="explian"):
            SearchRequest.from_dict(record)


# ---------------------------------------------------------------------------
# Slow-query log correlation ids
# ---------------------------------------------------------------------------


class TestSlowlogCorrelationIds:
    def test_offer_records_request_and_trace_ids(self):
        log = SlowQueryLog(capacity=4)
        assert log.offer(
            _explain_trace(request_id="ab12", trace_id="cd34")
        )
        assert log.offer(_explain_trace())
        first, second = log.to_dicts()
        assert (first["request_id"], first["trace_id"]) == ("ab12", "cd34")
        assert (second["request_id"], second["trace_id"]) == (None, None)
        assert json.dumps(log.to_dicts())  # stays JSON-serialisable


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------


class TestLogConfig:
    def test_configures_level_and_single_handler(self):
        root = configure_logging("debug")
        assert root.name == ROOT_LOGGER_NAME
        assert root.level == logging.DEBUG
        assert root.propagate is False
        marked = [
            h for h in root.handlers
            if getattr(h, "_repro_logconfig_handler", False)
        ]
        assert len(marked) == 1

    def test_reconfigure_replaces_handler(self):
        configure_logging("info")
        root = configure_logging("warning", json_format=True)
        marked = [
            h for h in root.handlers
            if getattr(h, "_repro_logconfig_handler", False)
        ]
        assert len(marked) == 1  # no duplicate stacking
        assert isinstance(marked[0].formatter, JsonFormatter)
        assert root.level == logging.WARNING

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("chatty")

    def test_json_formatter_envelope(self):
        record = logging.LogRecord(
            name="repro.serve.service",
            level=logging.WARNING,
            pathname=__file__,
            lineno=1,
            msg="shard %d restarted",
            args=(3,),
            exc_info=None,
        )
        payload = json.loads(JsonFormatter().format(record))
        assert payload["level"] == "WARNING"
        assert payload["logger"] == "repro.serve.service"
        assert payload["msg"] == "shard 3 restarted"
        assert payload["ts"].endswith("Z")

    def test_json_formatter_includes_exception(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            record = logging.LogRecord(
                name="repro",
                level=logging.ERROR,
                pathname=__file__,
                lineno=1,
                msg="failed",
                args=(),
                exc_info=sys.exc_info(),
            )
        payload = json.loads(JsonFormatter().format(record))
        assert "RuntimeError: boom" in payload["exc"]


# ---------------------------------------------------------------------------
# Paging metrics fallbacks (procstat)
# ---------------------------------------------------------------------------


@pytest.fixture()
def restore_mincore_globals():
    saved = (procstat._libc, procstat._mincore_missing)
    yield
    procstat._libc, procstat._mincore_missing = saved


class TestProcstatFallbacks:
    def test_fault_counts_none_off_linux(self, monkeypatch):
        monkeypatch.setattr(procstat.sys, "platform", "darwin")
        assert procstat.read_fault_counts() is None

    def test_fault_counts_none_when_stat_unreadable(self, monkeypatch):
        def deny(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr("builtins.open", deny)
        assert procstat.read_fault_counts() is None

    def test_fault_counts_none_on_malformed_stat(self, monkeypatch, tmp_path):
        stat = tmp_path / "stat"
        stat.write_bytes(b"1 (repro) R too short")
        real_open = open
        monkeypatch.setattr(
            "builtins.open",
            lambda *a, **kw: real_open(stat, "rb"),
        )
        assert procstat.read_fault_counts() is None

    def test_residency_none_without_mincore(self, restore_mincore_globals):
        procstat._mincore_missing = True
        buffer = mmap.mmap(-1, mmap.PAGESIZE)
        try:
            assert residency_ratio(buffer) is None
        finally:
            buffer.close()

    def test_residency_none_on_bad_buffers(self):
        assert residency_ratio(b"") is None  # zero-length
        assert residency_ratio(object()) is None  # not a buffer

    def test_paging_metrics_unsupported_publishes_nothing(self, monkeypatch):
        monkeypatch.setattr(procstat, "read_fault_counts", lambda: None)
        registry = MetricsRegistry()
        paging = PagingMetrics(registry)
        assert paging.supported is False
        report = paging.update()
        assert report == {"supported": False}
        assert registry.get("lazylsh_major_faults_total").value() == 0

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="needs /proc"
    )
    def test_linux_happy_path(self):
        counts = read_fault_counts()
        assert counts is not None
        minor, major = counts
        assert minor >= 0 and major >= 0
        registry = MetricsRegistry()
        paging = PagingMetrics(registry)
        assert paging.supported
        buffer = mmap.mmap(-1, 4 * mmap.PAGESIZE)
        try:
            buffer.write(b"x" * len(buffer))  # fault the pages in
            report = paging.update(stores={"test": buffer})
            assert report["supported"] is True
            assert report["minor_faults"] >= minor
            ratio = report["residency"].get("test")
            # Anonymous mappings probe on mainstream kernels; tolerate
            # None (mincore refused) but never a bogus ratio.
            if ratio is not None:
                assert 0.0 < ratio <= 1.0
                gauge = registry.get("lazylsh_page_cache_resident_ratio")
                assert gauge.value(store="test") == ratio
        finally:
            buffer.close()
