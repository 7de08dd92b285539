"""Tests for the sharded query service (repro.serve).

The load-bearing property is *bit-identity*: the service must return
exactly the ids, distances, termination, round count and simulated
sequential/random I/O of the single-process flat engine, for every
metric and rehashing mode, because the paper's evaluation measures
those numbers.
"""

import json

import numpy as np
import pytest

from repro import LazyLSH, Telemetry, knn_batch
from repro.core import engine
from repro.core.engine import LaneGroup
from repro.durability import WalRecord
from repro.core.multiquery import MultiQueryEngine
from repro.errors import (
    DimensionalityMismatchError,
    IndexNotBuiltError,
    InvalidParameterError,
    ReproError,
)
from repro.obs import TraceContext, TraceStore, parse_prometheus_text
from repro.obs.query_trace import validate_trace_dict
from repro.persistence import load_index, save_index
from repro.serve import ShardedSearchService, plan_shards
from tests import bad_knobs


#: Metrics of the multi-metric waves below.
MULTI = (0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def service(built_index):
    """One three-shard service over the shared small index."""
    with ShardedSearchService(built_index, n_shards=3) as svc:
        yield svc


def _assert_identical(flat, sharded):
    np.testing.assert_array_equal(flat.ids, sharded.ids)
    np.testing.assert_array_equal(flat.distances, sharded.distances)
    assert flat.io.sequential == sharded.io.sequential
    assert flat.io.random == sharded.io.random
    assert flat.termination == sharded.termination
    assert flat.rounds == sharded.rounds
    assert flat.candidates == sharded.candidates


class TestPlanShards:
    def test_covers_and_balances(self):
        ranges = plan_shards(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_clamped_to_rows(self):
        assert plan_shards(2, 8) == [(0, 1), (1, 2)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            plan_shards(0, 2)
        with pytest.raises(InvalidParameterError):
            plan_shards(5, 0)


class TestShardView:
    def test_partitions_every_run(self, built_index):
        store = built_index.store
        n = store.num_points
        lo, hi = n // 3, 2 * n // 3
        arrays, state = store.compact_shard(np.arange(lo, hi))
        values = arrays["rel"] + state.vmin
        ids, positions = arrays["ids"] + lo, arrays["positions"]
        assert values.shape == ids.shape == positions.shape
        for f in range(min(4, values.shape[0])):
            # Sub-runs stay sorted and point back into the full run.
            assert np.all(np.diff(values[f]) >= 0)
            assert np.all((ids[f] >= lo) & (ids[f] < hi))
            np.testing.assert_array_equal(
                store.runs()[0][f, positions[f]], values[f]
            )


class TestBitIdentity:
    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_matches_flat_engine(self, built_index, small_split, service, p):
        k = 10
        sharded = service.search_batch(small_split.queries, k, p=p)
        for query, result in zip(small_split.queries, sharded):
            _assert_identical(built_index.knn(query, k, p=p), result)

    def test_shard_io_decomposes_random(self, small_split, service):
        results = service.search_batch(small_split.queries, 5, p=0.7)
        for result in results:
            assert result.shard_io is not None
            assert len(result.shard_io) == service.n_shards
            assert (
                sum(s.random for s in result.shard_io) == result.io.random
            )
            assert all(s.sequential == 0 for s in result.shard_io)

    def test_single_query_and_request_form(
        self, built_index, small_split, service
    ):
        query = small_split.queries[0]
        flat = built_index.knn(query, 7, p=0.6)
        _assert_identical(flat, service.search(query, 7, p=0.6))
        _assert_identical(
            flat, service.search_batch(query[None, :], 7, p=0.6)[0]
        )

    def test_cap_and_radius_overrides(
        self, built_index, small_split, service
    ):
        query = small_split.queries[1]
        flat = built_index.knn(query, 5, p=0.8, cap=40, radius=0.5)
        _assert_identical(
            flat, service.search(query, 5, p=0.8, cap=40, radius=0.5)
        )

    def test_original_rehashing_mode(self, small_config, small_split):
        index = LazyLSH(small_config, rehashing="original").build(
            small_split.data
        )
        with ShardedSearchService(index, n_shards=2) as svc:
            results = svc.search_batch(small_split.queries, 5, p=0.75)
        for query, result in zip(small_split.queries, results):
            _assert_identical(index.knn(query, 5, p=0.75), result)

    def test_tombstoned_points_stay_excluded(self, small_config, small_split):
        index = LazyLSH(small_config).build(small_split.data)
        index.remove(np.arange(0, 60))
        with ShardedSearchService(index, n_shards=3) as svc:
            results = svc.search_batch(small_split.queries, 5, p=0.9)
        for query, result in zip(small_split.queries, results):
            _assert_identical(index.knn(query, 5, p=0.9), result)
            assert not np.any(result.ids < 60)


def _assert_multi_identical(single, sharded):
    """A multi-metric wave's row against ``knn_batch(metrics=...)``'s."""
    assert sharded.metrics == single.metrics
    for p in single.metrics:
        _assert_identical(single[p], sharded[p])
        assert len(sharded[p].shard_io) >= 1
        assert sum(s.random for s in sharded[p].shard_io) == (
            sharded[p].io.random
        )
    assert sharded.io.to_dict() == single.io.to_dict()


class TestMultiMetric:
    """Section 4.3 shared scans run in the workers, bit-identically."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_matches_knn_batch(self, built_index, small_split, n_shards):
        expected = knn_batch(
            built_index, small_split.queries, 10, metrics=MULTI
        )
        with ShardedSearchService(built_index, n_shards=n_shards) as svc:
            results = svc.search_batch(small_split.queries, 10, metrics=MULTI)
            one = svc.search(small_split.queries[2], 10, metrics=MULTI)
        for single, sharded in zip(expected, results):
            _assert_multi_identical(single, sharded)
        _assert_multi_identical(expected[2], one)

    def test_after_ingested_insert_and_remove(self, small_config, small_split):
        data = small_split.data
        reference = LazyLSH(small_config).build(data[:900])
        removed = np.arange(0, 90, 3)
        with ShardedSearchService(
            LazyLSH(small_config).build(data[:900]), n_shards=2
        ) as svc:
            svc.ingest([
                WalRecord(
                    lsn=1, op="insert", ids=np.arange(900, 1000),
                    points=data[900:1000],
                ),
                WalRecord(lsn=2, op="remove", ids=removed),
            ])
            multi = svc.search_batch(small_split.queries, 8, metrics=MULTI)
            request = svc.search(small_split.queries[1], 8, metrics=MULTI)
            single = svc.search_batch(small_split.queries, 8, p=0.75)
        reference.insert(data[900:1000])
        reference.remove(removed)
        expected = knn_batch(reference, small_split.queries, 8, metrics=MULTI)
        for ref, sharded in zip(expected, multi):
            _assert_multi_identical(ref, sharded)
            for p in MULTI:
                assert not np.isin(sharded[p].ids, removed).any()
        _assert_multi_identical(expected[1], request)
        for query, sharded in zip(small_split.queries, single):
            _assert_identical(reference.knn(query, 8, p=0.75), sharded)

    def test_explain_and_traces_per_metric(self, built_index, small_split):
        """Each metric's result carries its sharded record (EXPLAIN is a
        view of it); telemetry publishes them in ascending ``p``."""
        telemetry = Telemetry()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            result = svc.search(
                small_split.queries[0], 5, metrics=MULTI, telemetry=telemetry,
            )
        published = telemetry.registry.get("lazylsh_queries_total")
        for query_id, p in enumerate(MULTI):
            trace = result[p].trace
            assert (trace.engine, trace.p, trace.query_id) == ("sharded", p, query_id)
            validate_trace_dict(trace.to_dict())
            assert published.value(engine="sharded", p=f"{p:g}") == 1

    def test_coordinator_groups_bind_no_row_state(
        self, built_index, small_split, service, monkeypatch
    ):
        """The coordinator only merges, so its lane groups never allocate
        the scan kernel's per-row state (the workers, forked before the
        patch, still do)."""

        def bind(_group):
            raise AssertionError("a coordinator lane group bound row state")

        monkeypatch.setattr(LaneGroup, "_bind", bind)
        queries = small_split.queries[:3]
        multi = service.search_batch(queries, 10, metrics=MULTI)
        single = service.search(queries[0], 10, p=0.5)
        monkeypatch.undo()
        for ref, sharded in zip(
            knn_batch(built_index, queries, 10, metrics=MULTI), multi
        ):
            _assert_multi_identical(ref, sharded)
        _assert_identical(built_index.knn(queries[0], 10, p=0.5), single)

    def test_queries_served_counts_rows(self, service, small_split):
        """A multi-metric row is one query served, as a single-metric
        row is."""
        before = service.queries_served
        service.search_batch(small_split.queries[:2], 5, metrics=MULTI)
        assert service.queries_served == before + 2
        service.search(small_split.queries[0], 5, p=0.75)
        assert service.queries_served == before + 3

    def test_round_cap_raises_repro_error(
        self, built_index, small_split, monkeypatch
    ):
        """A wave past the round cap fails with the service's typed
        error, as the engine's does with its own."""
        monkeypatch.setattr(engine, "_MAX_ROUNDS", 0)
        with ShardedSearchService(built_index, n_shards=2) as svc:
            for kwargs in ({"p": 0.5}, {"metrics": MULTI}):
                with pytest.raises(ReproError, match="did not terminate"):
                    svc.search(small_split.queries[0], 5, **kwargs)


class TestLocalStopBound:
    def test_shard_stop_mid_round_is_exact(
        self, built_index, small_split, service, monkeypatch
    ):
        """Each shard stops at the first function where the query's
        pre-round counts plus its own crossings terminate the query; the
        merge replays only up to the smallest such stop.  The far query
        runs 11 rounds at p=0.5, so its last round is cut."""
        replies = []
        merge = LaneGroup.merge

        def spy(group, parts):
            lane = group.lanes[0]
            replies.append((lane.rounds, lane.eta, parts))
            merge(group, parts)

        monkeypatch.setattr(LaneGroup, "merge", spy)
        queries = [small_split.queries[0], small_split.data[0] + 3000.0]
        results = [service.search(q, 10, p=0.5) for q in queries]
        monkeypatch.undo()
        assert results[1].rounds == 11
        # One part per shard; each part's entry for the group's one lane
        # is (ids, funcs, pos, dists, f_stop).
        assert all(len(parts) == service.n_shards for _r, _e, parts in replies)
        stopped = [
            (rounds, eta, part.lanes[0])
            for rounds, eta, parts in replies
            for part in parts
            if part.lanes[0][4] is not None
        ]
        assert any(r == 11 and 0 < lane[4] < eta - 1
                   for r, eta, lane in stopped)
        for _rounds, _eta, lane in stopped:
            assert np.all(lane[1] <= lane[4])
        for query, result in zip(queries, results):
            _assert_identical(built_index.knn(query, 10, p=0.5), result)
            assert sum(s.random for s in result.shard_io) == result.io.random


class TestPersistenceRoundTrip:
    def test_sharded_service_over_restored_index(
        self, built_index, small_split, tmp_path
    ):
        """Satellite: save -> load -> serve must equal the fresh index."""
        path = save_index(built_index, tmp_path / "index.npz")
        restored = load_index(path)
        with ShardedSearchService(restored, n_shards=2) as svc:
            results = svc.search_batch(small_split.queries, 10, p=0.8)
        for query, result in zip(small_split.queries, results):
            _assert_identical(built_index.knn(query, 10, p=0.8), result)


class TestTelemetry:
    def test_merged_traces_match_flat_engine(self, built_index, small_split):
        with ShardedSearchService(built_index, n_shards=2) as svc:
            sharded = svc.search_batch(small_split.queries, 5, p=0.7)
        flat = [built_index.knn(query, 5, p=0.7) for query in small_split.queries]
        assert len(sharded) == len(flat)
        for rs, rf in zip(sharded, flat):
            ds, df = rs.trace.to_dict(), rf.trace.to_dict()
            validate_trace_dict(ds)
            assert ds["engine"] == "sharded"
            # Round-for-round: level, radius, collisions, crossings and
            # the per-round I/O deltas all replay the flat engine.
            assert ds["rounds"] == df["rounds"]
            assert ds["io"] == df["io"]
            assert ds["termination"] == df["termination"]

    def test_spans_and_metrics_recorded(self, built_index, small_split):
        # Spans only open for traced requests; untraced waves pay zero
        # tracing overhead.  Request a trace explicitly and read the
        # finished spans from the trace store.
        store = TraceStore(capacity=4)
        telemetry = Telemetry(trace_store=store)
        ctx = TraceContext.new()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            svc.search_batch(
                small_split.queries[:2],
                5,
                p=0.8,
                telemetry=telemetry,
                trace_context=ctx,
            )
        spans = store.get(ctx.trace_id)
        assert spans is not None
        assert any(span["name"] == "serve.search_batch" for span in spans)
        rendered = telemetry.metrics_text()
        assert 'engine="sharded"' in rendered

    def test_untraced_wave_opens_no_spans(self, built_index, small_split):
        telemetry = Telemetry()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            svc.search_batch(
                small_split.queries[:2], 5, p=0.8, telemetry=telemetry
            )
        assert telemetry.tracer.spans == []


class TestFleetTelemetry:
    """Acceptance: one Telemetry object sees the whole worker fleet."""

    def test_every_shard_reports_counters_and_spans(
        self, built_index, small_split
    ):
        store = TraceStore(capacity=4)
        telemetry = Telemetry(trace_store=store)
        ctx = TraceContext.new()
        with ShardedSearchService(built_index, n_shards=4) as svc:
            svc.search_batch(
                small_split.queries[:4],
                5,
                p=0.8,
                telemetry=telemetry,
                trace_context=ctx,
            )
        samples = parse_prometheus_text(telemetry.metrics_text())
        shards = {str(s) for s in range(4)}
        for family in (
            "lazylsh_shard_rows_scanned_total",
            "lazylsh_shard_crossings_total",
            "lazylsh_shard_busy_seconds_total",
            "lazylsh_shard_ops_total",
        ):
            labeled = {lbl["shard"] for lbl, _v in samples[family]}
            assert labeled == shards, f"{family} missing shards"
        rows = dict(
            (lbl["shard"], v)
            for lbl, v in samples["lazylsh_shard_rows_scanned_total"]
        )
        assert all(v > 0 for v in rows.values())
        # Worker-side spans were shipped over the pipe, rehydrated into
        # the coordinator's tracer, and published to the trace store
        # when the trace finished — tagged with their shard.
        spans = store.get(ctx.trace_id)
        assert spans is not None
        worker_spans = [
            s
            for s in spans
            if s["attributes"].get("origin") == "worker"
        ]
        assert worker_spans
        assert all(s["name"] == "worker.round" for s in worker_spans)
        assert {
            str(s["attributes"]["shard"]) for s in worker_spans
        } == shards
        # Pipe round-trip latency is observed per wave round.
        assert any(
            name == "lazylsh_shard_roundtrip_seconds_count"
            for name in samples
        )

    def test_one_row_wave_costs_one_op_per_round_plus_begin(
        self, built_index, small_split
    ):
        """Every shard answers one ``begin`` and one ``round`` per round
        and nothing else: the next wave's ``begin`` replaces the wave."""
        telemetry = Telemetry()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            result = svc.search(
                small_split.queries[0], 5, p=0.8, telemetry=telemetry
            )
        samples = parse_prometheus_text(telemetry.metrics_text())
        ops = {lbl["shard"]: v for lbl, v in samples["lazylsh_shard_ops_total"]}
        assert ops == {"0": result.rounds + 1, "1": result.rounds + 1}

    def test_wave_publishes_only_its_own_scan_counts(
        self, built_index, small_split
    ):
        """A telemetry wave publishes what it scanned, not also what the
        untelemetered waves before it on the same fleet scanned."""
        queries = small_split.queries[:3]

        def scan_counts(telemetry):
            samples = parse_prometheus_text(telemetry.metrics_text())
            return {
                family: {lbl["shard"]: v for lbl, v in samples[family]}
                for family in (
                    "lazylsh_shard_rows_scanned_total",
                    "lazylsh_shard_crossings_total",
                )
            }

        alone = Telemetry()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            svc.search_batch(queries, 5, p=0.8, telemetry=alone)
        after = Telemetry()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            svc.search_batch(queries, 5, p=0.8)
            svc.search_batch(queries, 5, p=0.8, telemetry=after)
        expected = scan_counts(alone)
        assert all(
            v > 0 for v in expected["lazylsh_shard_rows_scanned_total"].values()
        )
        assert scan_counts(after) == expected

    def test_service_level_telemetry_fallback(self, built_index, small_split):
        telemetry = Telemetry()
        with ShardedSearchService(
            built_index, n_shards=2, telemetry=telemetry
        ) as svc:
            result = svc.search(small_split.queries[0], 5, p=0.8)
        # No per-call telemetry was passed; the service-level one
        # published the result's record.
        published = telemetry.registry.get("lazylsh_queries_total")
        assert published.value(engine="sharded", p="0.8") == 1
        assert result.trace.query_id == 0
        validate_trace_dict(result.trace.to_dict())

    def test_aborted_attempt_leaves_no_residue(
        self, built_index, small_split
    ):
        """Satellite: kill a worker mid-wave; the replayed wave's trace
        and counters must look like a clean single run."""
        telemetry = Telemetry()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            clean = svc.search(small_split.queries[0], 5, p=0.75)
            svc._crash_worker(1, after_rounds=2)
            result = svc.search(
                small_split.queries[0], 5, p=0.75, telemetry=telemetry
            )
            _assert_identical(clean, result)
            assert svc.restarts == 1
            assert svc.replays == 1
            stats = svc.stats()
            assert stats["replays"] == 1
        # The replayed wave's trace validates and its per-round I/O
        # deltas still sum to the totals (no double-counted rounds from
        # the aborted attempt).
        record = result.trace.to_dict()
        validate_trace_dict(record)
        assert (
            sum(r["io"]["sequential"] for r in record["rounds"])
            == record["io"]["sequential"]
        )
        assert (
            sum(r["io"]["random"] for r in record["rounds"])
            == record["io"]["random"]
        )
        samples = parse_prometheus_text(telemetry.metrics_text())
        respawns = {
            lbl["shard"]: v
            for lbl, v in samples["lazylsh_shard_respawns_total"]
        }
        # Exactly one respawn, attributed to the killed shard; the
        # surviving shard's series is materialised at zero.
        assert respawns == {"0": 0.0, "1": 1.0}
        assert sum(
            v for _lbl, v in samples["lazylsh_wave_replays_total"]
        ) == 1.0

    def test_health_report(self, built_index, small_split):
        with ShardedSearchService(built_index, n_shards=2) as svc:
            svc.search(small_split.queries[0], 5, p=0.8)
            health = svc.health()
            assert health["healthy"] is True
            assert health["closed"] is False
            assert health["n_shards"] == 2
            assert len(health["shards"]) == 2
            for shard, (lo, hi) in zip(health["shards"], svc.ranges):
                assert shard["alive"] is True
                assert shard["points"] == hi - lo
                assert shard["last_heartbeat_age_seconds"] >= 0.0
            json.dumps(health)  # JSON-serialisable for /healthz
        after = svc.health()
        assert after["closed"] is True
        assert after["healthy"] is False


class TestLifecycle:
    def test_worker_crash_recovers_with_identical_results(
        self, built_index, small_split
    ):
        with ShardedSearchService(built_index, n_shards=2) as svc:
            before = svc.search(small_split.queries[0], 5, p=0.75)
            svc._crash_worker(1)
            after = svc.search(small_split.queries[0], 5, p=0.75)
            _assert_identical(before, after)
            assert svc.restarts == 1

    def test_close_is_idempotent_and_final(self, built_index, small_split):
        svc = ShardedSearchService(built_index, n_shards=2)
        svc.close()
        svc.close()
        with pytest.raises(ReproError):
            svc.search_batch(small_split.queries, 5, p=0.8)

    def test_index_io_stats_accumulate(self, built_index, small_split):
        before = built_index.io_stats.snapshot()
        with ShardedSearchService(built_index, n_shards=2) as svc:
            result = svc.search(small_split.queries[0], 5, p=0.8)
        delta = built_index.io_stats - before
        assert delta.sequential == result.io.sequential
        assert delta.random == result.io.random

    def test_stats_shape(self, service, small_split):
        service.search(small_split.queries[0], 3, p=0.9)
        stats = service.stats()
        assert stats["n_shards"] == 3
        assert len(stats["busy_seconds"]) == 3
        assert sum(stats["shard_points"]) == service.index.num_rows
        json.dumps(stats)  # JSON-serialisable


class TestValidation:
    def test_requires_built_index(self, small_config):
        with pytest.raises(IndexNotBuiltError):
            ShardedSearchService(LazyLSH(small_config))

    def test_rejects_metrics_request(
        self, service, small_config, small_split
    ):
        """A metrics list takes no radius and needs query-centric
        rehashing, as in ``knn_batch(metrics=...)``."""
        query = small_split.queries[0]
        with pytest.raises(InvalidParameterError, match="single-metric"):
            service.search(query, 5, metrics=(0.5, 1.0), radius=0.5)
        index = LazyLSH(small_config, rehashing="original").build(
            small_split.data[:300]
        )
        with ShardedSearchService(index, n_shards=1) as svc:
            with pytest.raises(InvalidParameterError, match="query-centric"):
                svc.search(query, 5, metrics=(0.5, 1.0))

    def test_requires_k_without_request(self, service, small_split):
        with pytest.raises(TypeError, match="'k'"):
            service.search(small_split.queries[0])

    def test_rejects_bad_tuning(self, service, small_split):
        """``bad_knobs``'s table (it takes no ``engine``), plus ``k`` and
        the query shape."""
        queries = small_split.queries
        cases = bad_knobs.admitted(ShardedSearchService.search_batch)
        assert "unknown-engine" not in cases
        for case in cases:
            bad_queries, knobs, pattern = bad_knobs.bad_call(queries, case)
            with pytest.raises(InvalidParameterError, match=pattern):
                service.search_batch(bad_queries, 5, **knobs)
        with pytest.raises(InvalidParameterError):
            service.search_batch(queries, 0)
        with pytest.raises(InvalidParameterError):
            service.search_batch(queries, 5, p=0.8, radius=-1.0)
        with pytest.raises(DimensionalityMismatchError):
            service.search_batch(queries[:, :3], 5)

    def test_one_query_matrix_check(self, service, built_index, small_split):
        """Every entry point rejects a wrong-width query with the same
        error, and an empty batch has an empty answer on both batch
        entry points."""
        query = small_split.queries[0]
        narrow = query[:5]
        calls = (
            lambda: built_index.knn(narrow, 5, p=0.8),
            lambda: knn_batch(built_index, np.stack([narrow, narrow]), 5),
            lambda: MultiQueryEngine(built_index).knn(
                narrow, 5, metrics=(0.5, 1.0)
            ),
            lambda: service.search(narrow, 5, p=0.8),
            lambda: service.search_batch(np.stack([narrow, narrow]), 5),
        )
        for call in calls:
            with pytest.raises(DimensionalityMismatchError):
                call()
        empty = np.empty((0, query.shape[0]))
        assert len(knn_batch(built_index, empty, 5)) == 0
        assert knn_batch(built_index, empty, 5).io.total == 0
        assert service.search_batch(empty, 5) == []

    def test_empty_batch(self, service, small_split):
        assert (
            service.search_batch(
                np.empty((0, small_split.queries.shape[1])), 5
            )
            == []
        )


class TestServeCli:
    def test_serve_command_outputs_merged_results(
        self, built_index, small_split, tmp_path, capsys
    ):
        from repro.cli import main

        path = save_index(built_index, tmp_path / "index.npz")
        code = main(
            [
                "serve",
                str(path),
                "--k",
                "5",
                "--p",
                "0.8",
                "--shards",
                "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["service"]["n_shards"] == 2
        assert len(report["results"]) == 1
        flat = built_index.knn(built_index.data[0], 5, p=0.8)
        assert report["results"][0]["ids"] == [int(i) for i in flat.ids]
        assert report["results"][0]["io"] == flat.io.to_dict()
