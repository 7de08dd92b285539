"""Flat execution engine versus the scalar reference path.

The flat engine is a pure execution-plan change: batched window scans,
vectorised collision counting and interval-arithmetic I/O charging must
reproduce the scalar per-function loop *bit for bit* — same neighbour
ids, distances, round counts, candidate counts, and (because simulated
I/O is the paper's measured quantity) the same sequential and random
I/O per query.  These tests pin that equivalence across metrics, both
rehashing modes, dynamic updates, the multi-query engine and the batch
API, plus the two-level window search against a plain ``searchsorted``
reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig, MultiQueryEngine, Telemetry, knn_batch
from repro.datasets import make_synthetic, sample_queries
from repro.errors import InvalidParameterError
from repro.obs import TERMINATION_REASONS
from repro.storage import InvertedListStore, PageLayout

P_VALUES = (0.5, 0.75, 1.0)


def _config(seed: int = 13) -> LazyLSHConfig:
    return LazyLSHConfig(
        c=3.0, p_min=0.5, seed=seed, mc_samples=20_000, mc_buckets=100
    )


def assert_results_identical(a, b) -> None:
    """Flat and scalar KnnResults must match bit for bit, I/O included."""
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert a.ids.dtype == b.ids.dtype
    assert a.rounds == b.rounds
    assert a.candidates == b.candidates
    assert a.io.sequential == b.io.sequential
    assert a.io.random == b.io.random
    assert a.termination == b.termination
    assert a.termination in TERMINATION_REASONS


def assert_traces_identical(a, b) -> None:
    """Flat and scalar QueryTraces must agree round for round."""
    assert a.p == b.p and a.k == b.k
    assert a.termination == b.termination
    assert a.num_rounds == b.num_rounds
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.round == rb.round
        assert ra.level == rb.level
        assert ra.radius == rb.radius
        assert ra.collisions == rb.collisions
        assert ra.crossings == rb.crossings
        assert ra.candidates == rb.candidates
        assert ra.within == rb.within
        assert ra.io.sequential == rb.io.sequential
        assert ra.io.random == rb.io.random
    assert a.io_delta_sum().to_dict() == a.io.to_dict()
    assert b.io_delta_sum().to_dict() == b.io.to_dict()


@pytest.fixture(scope="module")
def engine_split():
    data = make_synthetic(900, 16, value_range=(0, 400), seed=21)
    return sample_queries(data, n_queries=3, seed=22)


@pytest.fixture(scope="module", params=["query_centric", "original"])
def dual_index(request, engine_split):
    """One index per rehashing mode, shared across the matrix below."""
    return LazyLSH(_config(), rehashing=request.param).build(engine_split.data)


class TestFlatMatchesScalar:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_knn_identical(self, dual_index, engine_split, p):
        for query in engine_split.queries:
            flat = dual_index.knn(query, 10, p=p, engine="flat")
            scalar = dual_index.knn(query, 10, p=p, engine="scalar")
            assert_results_identical(flat, scalar)

    @pytest.mark.parametrize("rehashing", ["query_centric", "original"])
    def test_knn_identical_after_updates(self, engine_split, rehashing):
        index = LazyLSH(_config(seed=17), rehashing=rehashing).build(
            engine_split.data[:600]
        )
        index.remove(np.arange(0, 40, 7))
        index.insert(engine_split.data[600:680])
        for p in P_VALUES:
            for query in engine_split.queries:
                flat = index.knn(query, 8, p=p, engine="flat")
                scalar = index.knn(query, 8, p=p, engine="scalar")
                assert_results_identical(flat, scalar)


class TestWideHashDomain:
    def test_flat_matches_scalar_past_int32(self):
        """Coordinates large enough that the hash values span more than
        int32 (the store keeps int64 relative runs) answer identically."""
        data = make_synthetic(300, 6, seed=5) * 100.0
        index = LazyLSH(_config(seed=3)).build(data)
        values, _ids = index.store.runs()
        assert int(values.max()) - int(values.min()) + 2 > 2**31 - 2
        index.insert(data[:4] * 1.5)
        for query in (data[7], data[123] + 50.0, data[0] * 1.5):
            for p in P_VALUES:
                flat = index.knn(query, 5, p=p, engine="flat")
                scalar = index.knn(query, 5, p=p, engine="scalar")
                assert_results_identical(flat, scalar)


class TestMultiQuery:
    def test_flat_matches_scalar(self, engine_split):
        index = LazyLSH(_config()).build(engine_split.data)
        engine = MultiQueryEngine(index)
        for query in engine_split.queries:
            flat = engine.knn(query, 10, metrics=P_VALUES, engine="flat")
            scalar = engine.knn(query, 10, metrics=P_VALUES, engine="scalar")
            assert flat.metrics == scalar.metrics == sorted(P_VALUES)
            for p in P_VALUES:
                assert_results_identical(flat[p], scalar[p])
            # The shared scan's total I/O (marginal attribution summed)
            # must agree too.
            assert flat.io.sequential == scalar.io.sequential
            assert flat.io.random == scalar.io.random


class TestBatchApi:
    def test_single_metric_matches_scalar_loop(self, engine_split):
        index = LazyLSH(_config()).build(engine_split.data)
        flat = knn_batch(index, engine_split.queries, 10, p=0.5)
        scalar = knn_batch(index, engine_split.queries, 10, p=0.5, engine="scalar")
        assert len(flat) == len(scalar) == len(engine_split.queries)
        for a, b in zip(flat, scalar):
            assert_results_identical(a, b)
        assert flat.io.sequential == scalar.io.sequential
        assert flat.io.random == scalar.io.random

    def test_metrics_mode_matches_scalar_loop(self, engine_split):
        index = LazyLSH(_config()).build(engine_split.data)
        flat = knn_batch(index, engine_split.queries, 10, metrics=P_VALUES)
        scalar = knn_batch(
            index, engine_split.queries, 10, metrics=P_VALUES, engine="scalar"
        )
        for a, b in zip(flat, scalar):
            for p in P_VALUES:
                assert_results_identical(a[p], b[p])
            assert a.io.sequential == b.io.sequential
            assert a.io.random == b.io.random

    def test_share_pages_identical_results_fewer_reads(self, engine_split):
        index = LazyLSH(_config()).build(engine_split.data)
        plain = knn_batch(index, engine_split.queries, 10, p=0.5)
        shared = knn_batch(
            index, engine_split.queries, 10, p=0.5, share_pages=True
        )
        for a, b in zip(plain, shared):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)
            assert a.rounds == b.rounds
        # A batch-wide buffer pool can only drop repeat page reads.
        assert shared.io.sequential <= plain.io.sequential
        assert shared.io.random <= plain.io.random


class TestTraceEquivalence:
    """Per-query telemetry traces must not depend on the execution plan."""

    @pytest.mark.parametrize("p", P_VALUES)
    def test_knn_traces_identical(self, dual_index, engine_split, p):
        for query in engine_split.queries:
            tf, ts = Telemetry(), Telemetry()
            flat = dual_index.knn(query, 10, p=p, engine="flat", telemetry=tf)
            scalar = dual_index.knn(
                query, 10, p=p, engine="scalar", telemetry=ts
            )
            assert_results_identical(flat, scalar)
            assert len(tf.traces) == len(ts.traces) == 1
            assert_traces_identical(tf.traces[0], ts.traces[0])
            # The trace's totals mirror the result's I/O exactly.
            assert tf.traces[0].io.to_dict() == flat.io.to_dict()
            assert tf.traces[0].candidates == flat.candidates

    def test_traced_run_matches_untraced(self, dual_index, engine_split):
        for query in engine_split.queries:
            plain = dual_index.knn(query, 10, p=0.5)
            traced = dual_index.knn(
                query, 10, p=0.5, telemetry=Telemetry()
            )
            assert_results_identical(plain, traced)

    def test_multiquery_traces_identical(self, engine_split):
        index = LazyLSH(_config()).build(engine_split.data)
        engine = MultiQueryEngine(index)
        for query in engine_split.queries:
            tf, ts = Telemetry(), Telemetry()
            engine.knn(query, 10, metrics=P_VALUES, engine="flat", telemetry=tf)
            engine.knn(query, 10, metrics=P_VALUES, engine="scalar", telemetry=ts)
            assert len(tf.traces) == len(ts.traces) == len(P_VALUES)
            by_p = lambda t: t.p  # noqa: E731
            for a, b in zip(
                sorted(tf.traces, key=by_p), sorted(ts.traces, key=by_p)
            ):
                assert_traces_identical(a, b)

    def test_batch_traces_per_query(self, engine_split):
        index = LazyLSH(_config()).build(engine_split.data)
        telemetry = Telemetry()
        batch = knn_batch(
            index, engine_split.queries, 10, p=0.5, telemetry=telemetry
        )
        assert len(telemetry.traces) == len(engine_split.queries)
        assert [t.query_id for t in telemetry.traces] == list(
            range(len(engine_split.queries))
        )
        scalar_tel = Telemetry()
        knn_batch(
            index,
            engine_split.queries,
            10,
            p=0.5,
            engine="scalar",
            telemetry=scalar_tel,
        )
        for a, b, result in zip(
            telemetry.traces, scalar_tel.traces, batch.results
        ):
            assert a.query_id == b.query_id
            assert_traces_identical(a, b)
            assert a.io_delta_sum().to_dict() == result.io.to_dict()


class TestValidation:
    def test_knn_rejects_unknown_engine(self, dual_index, engine_split):
        with pytest.raises(InvalidParameterError, match="engine"):
            dual_index.knn(engine_split.queries[0], 5, p=0.5, engine="warp")

    def test_knn_batch_rejects_unknown_engine(self, dual_index, engine_split):
        with pytest.raises(InvalidParameterError, match="engine"):
            knn_batch(dual_index, engine_split.queries, 5, p=0.5, engine="warp")

    def test_share_pages_incompatible_with_scalar(self, dual_index, engine_split):
        with pytest.raises(InvalidParameterError, match="share_pages"):
            knn_batch(
                dual_index,
                engine_split.queries,
                5,
                p=0.5,
                engine="scalar",
                share_pages=True,
            )

    def test_metrics_mode_requires_query_centric(self, engine_split):
        index = LazyLSH(_config(), rehashing="original").build(engine_split.data)
        with pytest.raises(InvalidParameterError, match="query-centric"):
            knn_batch(index, engine_split.queries, 5, metrics=P_VALUES)
        with pytest.raises(InvalidParameterError, match="query-centric"):
            MultiQueryEngine(index)


class TestTwoLevelSearch:
    """The batched two-level window search against a searchsorted loop."""

    @pytest.mark.parametrize("span", [10, 1_000, 1_000_000])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_reference(self, span, side):
        rng = np.random.default_rng(span)
        num_functions, n = 5, 1_500
        hashes = rng.integers(-span, span, size=(num_functions, n))
        store = InvertedListStore(hashes, PageLayout(page_size=256, entry_size=8))
        funcs = rng.integers(0, num_functions, size=4_000)
        bounds = rng.integers(-span - 5, span + 5, size=4_000)
        got = store.batch_entry_positions(funcs, bounds, side)
        values = store.runs()[0]
        for j in range(funcs.size):
            f = int(funcs[j])
            expect = f * n + int(
                np.searchsorted(values[f], bounds[j], side=side)
            )
            assert got[j] == expect

    def test_refinement_window_boundaries(self):
        # Needles at exact run boundaries and at every multiple of the
        # coarse stride, where the top-level index hands refinement the
        # narrowest possible window.
        rng = np.random.default_rng(99)
        hashes = np.repeat(np.arange(0, 700, dtype=np.int64), 2)[None, :]
        store = InvertedListStore(hashes)
        bounds = np.concatenate(
            [np.arange(-1, 701), np.arange(0, 1400, 256)]
        )
        funcs = np.zeros(bounds.size, dtype=np.int64)
        for side in ("left", "right"):
            got = store.batch_entry_positions(funcs, bounds, side)
            expect = np.searchsorted(store.runs()[0][0], bounds, side=side)
            assert np.array_equal(got, expect)
