"""Flat execution engine versus the scalar reference path.

The flat engine is a pure execution-plan change: batched window scans,
vectorised collision counting and interval-arithmetic I/O charging must
reproduce the scalar per-function loop *bit for bit* — same neighbour
ids, distances, round counts, candidate counts, and (because simulated
I/O is the paper's measured quantity) the same sequential and random
I/O per query.  These tests pin that equivalence across metrics, both
rehashing modes, dynamic updates, the multi-query engine, the batch API
and the sharded service, under every scan-block budget (the block
partition is a plan choice only), plus the two-level window search
against a plain ``searchsorted`` reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig, MultiQueryEngine, Telemetry, knn_batch
from repro.core import engine
from repro.datasets import make_synthetic, sample_queries
from repro.errors import DimensionalityMismatchError, InvalidParameterError
from repro.obs import TERMINATION_REASONS
from repro.serve import ShardedSearchService
from repro.storage import InvertedListStore, PageLayout
from tests import bad_knobs

P_VALUES = (0.5, 0.75, 1.0)

#: First scan-block budgets, in entries per stored row, every flat path
#: must be invariant to: 0 (the one-entry minimum: the most blocks), the
#: default, and one block per round.
BLOCK_BUDGETS = (0, engine._BLOCK_ROW_ENTRIES, 2**40)


def _config(seed: int = 13, c: float = 3.0) -> LazyLSHConfig:
    return LazyLSHConfig(
        c=c, p_min=0.5, seed=seed, mc_samples=20_000, mc_buckets=100
    )


def assert_results_identical(a, b) -> None:
    """Flat and scalar KnnResults must match bit for bit, I/O and
    records included."""
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert a.ids.dtype == b.ids.dtype
    assert a.rounds == b.rounds
    assert a.candidates == b.candidates
    assert a.io.sequential == b.io.sequential
    assert a.io.random == b.io.random
    assert a.termination == b.termination
    assert a.termination in TERMINATION_REASONS
    assert_traces_identical(a.trace, b.trace)


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


@pytest.fixture
def block_budgets(monkeypatch):
    """Iterate the flat engine's scan-block budget over ``BLOCK_BUDGETS``.

    Returns a generator function: the body of ``for _ in
    block_budgets():`` runs once per budget, with the budget in force
    (forked shard workers inherit it).
    """

    def budgets():
        for budget in BLOCK_BUDGETS:
            monkeypatch.setattr(engine, "_BLOCK_ROW_ENTRIES", budget)
            yield budget

    return budgets


@pytest.fixture(scope="module")
def engine_split():
    data = make_synthetic(900, 16, value_range=(0, 400), seed=21)
    return sample_queries(data, n_queries=3, seed=22)


@pytest.fixture(scope="module", params=["query_centric", "original"])
def dual_index(request, engine_split):
    """One index per rehashing mode, shared across the matrix below."""
    return LazyLSH(_config(), rehashing=request.param).build(engine_split.data)


@pytest.fixture(scope="module")
def small_index(engine_split):
    """A small query-centric index for the validation tests."""
    return LazyLSH(_config()).build(engine_split.data[:300])


class TestFlatMatchesScalar:
    @pytest.mark.parametrize("p", P_VALUES)
    def test_knn_identical(self, dual_index, engine_split, p, block_budgets):
        for query in engine_split.queries:
            scalar = dual_index.knn(query, 10, p=p, engine="scalar")
            for _ in block_budgets():
                flat = dual_index.knn(query, 10, p=p, engine="flat")
                assert_results_identical(flat, scalar)

    @pytest.mark.parametrize("rehashing", ["query_centric", "original"])
    def test_knn_identical_after_updates(
        self, engine_split, rehashing, block_budgets
    ):
        index = LazyLSH(_config(seed=17), rehashing=rehashing).build(
            engine_split.data[:600]
        )
        index.remove(np.arange(0, 40, 7))
        index.insert(engine_split.data[600:680])
        for p in P_VALUES:
            for query in engine_split.queries:
                scalar = index.knn(query, 8, p=p, engine="scalar")
                for _ in block_budgets():
                    flat = index.knn(query, 8, p=p, engine="flat")
                    assert_results_identical(flat, scalar)

    def test_sharded_service_identical(self, engine_split, block_budgets):
        index = LazyLSH(_config()).build(engine_split.data)
        expected = {
            (j, p): index.knn(query, 10, p=p, engine="scalar")
            for j, query in enumerate(engine_split.queries)
            for p in P_VALUES
        }
        for _ in block_budgets():
            with ShardedSearchService(
                index, n_shards=2, start_method="fork"
            ) as svc:
                for (j, p), scalar in expected.items():
                    sharded = svc.search(engine_split.queries[j], 10, p=p)
                    assert_results_identical(sharded, scalar)
                    assert_results_identical(
                        index.knn(engine_split.queries[j], 10, p=p), scalar
                    )

    def test_sharded_multi_metric_identical(self, engine_split, block_budgets):
        """A multi-metric wave's workers and merge step are block-plan
        invariant too: every metric matches the scalar shared scan."""
        index = LazyLSH(_config()).build(engine_split.data)
        expected = knn_batch(
            index, engine_split.queries, 10, metrics=P_VALUES, engine="scalar"
        )
        for _ in block_budgets():
            with ShardedSearchService(
                index, n_shards=2, start_method="fork"
            ) as svc:
                results = svc.search_batch(
                    engine_split.queries, 10, metrics=P_VALUES
                )
            for scalar, sharded in zip(expected, results):
                for p in P_VALUES:
                    assert_results_identical(sharded[p], scalar[p])
                    assert sum(s.random for s in sharded[p].shard_io) == (
                        sharded[p].io.random
                    )


class TestBlockPlan:
    def test_fitting_round_is_one_gather(self, engine_split, monkeypatch):
        """A round whose whole ring fits the first block budget is read
        with exactly one store gather, however many functions it spans."""
        index = LazyLSH(_config()).build(engine_split.data)
        store = index.store
        search, gather = store.batch_window_positions, store.gather_segments32
        rounds: list[dict] = []  # per round: window entries, gathers

        def spy_search(funcs, los, his):
            starts, stops = search(funcs, los, his)
            entries = int(np.maximum(stops - starts, 0).sum())
            rounds.append({"window": entries, "gathers": 0})
            return starts, stops

        def spy_gather(starts, lens):
            rounds[-1]["gathers"] += 1
            return gather(starts, lens)

        monkeypatch.setattr(store, "batch_window_positions", spy_search)
        monkeypatch.setattr(store, "gather_segments32", spy_gather)
        budget = engine._BLOCK_ROW_ENTRIES * store.num_points
        checked = 0
        for query in engine_split.queries:
            for p in P_VALUES:
                rounds.clear()
                result = index.knn(query, 10, p=p)
                assert len(rounds) == result.rounds
                # Query-centric windows nest, so a round's ring holds its
                # window's entries minus the previous window's.
                previous = 0
                for rnd in rounds:
                    if rnd["window"] - previous <= budget:
                        assert rnd["gathers"] == 1
                        checked += 1
                    previous = rnd["window"]
        eta = index.metric_params(0.5).eta
        assert eta > 64 and checked >= len(engine_split.queries)

    @pytest.mark.parametrize("n_rows", [600, 2**16, 2**16 + 7])
    def test_crossings_match_a_counting_loop(self, n_rows):
        """``find_crossings`` on both sides of its 16-bit sort key."""
        rng = np.random.default_rng(n_rows)
        # The widest id, and the id it would alias in 16 bits.
        wide = [n_rows - 1, (n_rows - 1) % 2**16]
        rows = np.unique(np.append(rng.choice(n_rows, size=300), wide))
        sub = rng.choice(rows, size=6_000).astype(np.int32)
        slack = np.full(n_rows, engine._SLACK_DEAD, dtype=np.int32)
        slack[rows] = rng.integers(0, 40, size=rows.size)
        slack[wide] = 0
        lookup = np.zeros(n_rows, dtype=bool)
        elems, add = engine.find_crossings(sub, slack, lookup)
        seen = np.zeros(n_rows, dtype=np.int64)
        want = []
        for pos, row in enumerate(sub.tolist()):
            if seen[row] == slack[row]:
                want.append(pos)
            seen[row] += 1
        assert elems.tolist() == want
        assert np.array_equal(add, seen)
        assert not lookup.any()

    def test_first_stop_matches_a_per_function_loop(self):
        """``first_stop`` walks crossings; the scalar loop tests the
        counts after every function, within-radius before the cap."""
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            nf = int(rng.integers(0, 8))
            funcs = np.sort(rng.integers(0, max(nf, 1), size=rng.integers(0, 9)))
            funcs = funcs[funcs < nf]
            inside = rng.random(funcs.size) < 0.5
            n_cand = int(rng.integers(0, 6))
            n_within = int(rng.integers(0, n_cand + 1))
            k = int(rng.integers(1, 6))
            cap = k + float(rng.integers(0, 6)) + 0.5 * int(rng.integers(0, 2))
            want, cand, within = (None, ""), n_cand, n_within
            for f in range(nf):
                cand += int(np.count_nonzero(funcs == f))
                within += int(np.count_nonzero(inside[funcs == f]))
                if within >= k:
                    want = (f, engine.TERMINATION_K_WITHIN)
                    break
                if cand > cap:
                    want = (f, engine.TERMINATION_CAP)
                    break
            got = engine.first_stop(funcs, inside, nf, n_cand, n_within, k, cap)
            assert got == want


class TestWideHashDomain:
    def test_flat_matches_scalar_past_int32(self, block_budgets):
        """Coordinates large enough that the hash values span more than
        int32 (the store keeps int64 relative runs) answer identically."""
        data = make_synthetic(300, 6, seed=5) * 100.0
        index = LazyLSH(_config(seed=3)).build(data)
        values, _ids = index.store.runs()
        assert int(values.max()) - int(values.min()) + 2 > 2**31 - 2
        index.insert(data[:4] * 1.5)
        for query in (data[7], data[123] + 50.0, data[0] * 1.5):
            for p in P_VALUES:
                scalar = index.knn(query, 5, p=p, engine="scalar")
                for _ in block_budgets():
                    flat = index.knn(query, 5, p=p, engine="flat")
                    assert_results_identical(flat, scalar)


class TestMultiQuery:
    def test_flat_matches_scalar(self, engine_split, block_budgets):
        index = LazyLSH(_config()).build(engine_split.data)
        multi = MultiQueryEngine(index)
        for query in engine_split.queries:
            scalar = multi.knn(query, 10, metrics=P_VALUES, engine="scalar")
            for _ in block_budgets():
                flat = multi.knn(query, 10, metrics=P_VALUES, engine="flat")
                assert flat.metrics == scalar.metrics == sorted(P_VALUES)
                for p in P_VALUES:
                    assert_results_identical(flat[p], scalar[p])
                # The shared scan's total I/O (marginal attribution
                # summed) must agree too.
                assert flat.io.sequential == scalar.io.sequential
                assert flat.io.random == scalar.io.random


#: ``(p, p2)``: a single-metric search of ``p`` against the lane of ``p``
#: in a ``metrics=(p, p2)`` search, with ``p`` the smaller and the larger
#: metric.  In 8 dimensions ``r_hat * (1 / r_hat)`` rounds below 1 for
#: ``p = 0.8``.
SCHEDULE_PAIRS = ((0.8, 1.0), (1.0, 0.9), (0.9, 0.8))


def assert_same_lane(a, b) -> None:
    """One ``(query, p)`` answered alike by a single-metric search and a
    multi-metric lane: everything but the I/O attribution."""
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)
    assert (a.rounds, a.termination, a.candidates) == (
        b.rounds, b.termination, b.candidates
    )
    assert a.trace.num_rounds == b.trace.num_rounds
    for ra, rb in zip(a.trace.rounds, b.trace.rounds):
        assert (ra.level, ra.radius) == (rb.level, rb.radius)
        assert (ra.collisions, ra.crossings, ra.candidates, ra.within) == (
            rb.collisions, rb.crossings, rb.candidates, rb.within
        )


class TestOneSchedule:
    """Every lane walks one radius schedule, so a ``(query, p)`` pair gets
    one answer and one record whether or not it shares its scan."""

    @pytest.fixture(scope="class")
    def split(self):
        data = make_synthetic(640, 8, value_range=(0, 200), seed=31)
        return sample_queries(data, n_queries=3, seed=32)

    @pytest.fixture(scope="class", params=[2.0, 3.0])
    def index(self, request, split):
        return LazyLSH(_config(c=request.param)).build(split.data)

    @pytest.mark.parametrize("engine_name", ["flat", "scalar"])
    def test_single_metric_equals_its_multi_metric_lane(
        self, index, split, engine_name
    ):
        multi = MultiQueryEngine(index)
        for query in split.queries:
            for p, p2 in SCHEDULE_PAIRS:
                single = index.knn(query, 10, p=p, engine=engine_name)
                lane = multi.knn(query, 10, metrics=(p, p2), engine=engine_name)
                assert_same_lane(single, lane[p])

    def test_service_single_wave_equals_merged_wave(self, index, split):
        with ShardedSearchService(index, n_shards=2, start_method="fork") as svc:
            for p, p2 in SCHEDULE_PAIRS:
                singles = svc.search_batch(split.queries, 10, p=p)
                merged = svc.search_batch(split.queries, 10, metrics=(p, p2))
                for query, single, row in zip(split.queries, singles, merged):
                    assert_same_lane(single, row[p])
                    assert_same_lane(single, index.knn(query, 10, p=p))


class TestBatchApi:
    def test_single_metric_matches_scalar_loop(self, engine_split, block_budgets):
        index = LazyLSH(_config()).build(engine_split.data)
        scalar = knn_batch(index, engine_split.queries, 10, p=0.5, engine="scalar")
        for _ in block_budgets():
            flat = knn_batch(index, engine_split.queries, 10, p=0.5)
            assert len(flat) == len(scalar) == len(engine_split.queries)
            for a, b in zip(flat, scalar):
                assert_results_identical(a, b)
            assert flat.io.sequential == scalar.io.sequential
            assert flat.io.random == scalar.io.random

    def test_metrics_mode_matches_scalar_loop(self, engine_split, block_budgets):
        index = LazyLSH(_config()).build(engine_split.data)
        scalar = knn_batch(
            index, engine_split.queries, 10, metrics=P_VALUES, engine="scalar"
        )
        for _ in block_budgets():
            flat = knn_batch(index, engine_split.queries, 10, metrics=P_VALUES)
            for a, b in zip(flat, scalar):
                for p in P_VALUES:
                    assert_results_identical(a[p], b[p])
                assert a.io.sequential == b.io.sequential
                assert a.io.random == b.io.random


class TestTraceEquivalence:
    """Per-query telemetry traces must not depend on the execution plan."""

    @pytest.mark.parametrize("p", P_VALUES)
    def test_knn_traces_identical(
        self, dual_index, engine_split, p, block_budgets
    ):
        for query in engine_split.queries:
            scalar = dual_index.knn(query, 10, p=p, engine="scalar")
            for _ in block_budgets():
                flat = dual_index.knn(query, 10, p=p, engine="flat")
                assert_results_identical(flat, scalar)
                assert (flat.trace.engine, scalar.trace.engine) == ("flat", "scalar")
                # The trace's totals mirror the result's I/O exactly.
                assert flat.trace.io.to_dict() == flat.io.to_dict()
                assert flat.trace.candidates == flat.candidates

    def test_traced_run_matches_untraced(self, dual_index, engine_split):
        for query in engine_split.queries:
            plain = dual_index.knn(query, 10, p=0.5)
            traced = dual_index.knn(
                query, 10, p=0.5, telemetry=Telemetry()
            )
            assert_results_identical(plain, traced)

    def test_multiquery_traces_identical(self, engine_split, block_budgets):
        index = LazyLSH(_config()).build(engine_split.data)
        multi = MultiQueryEngine(index)
        for query in engine_split.queries:
            scalar = multi.knn(query, 10, metrics=P_VALUES, engine="scalar")
            for _ in block_budgets():
                flat = multi.knn(query, 10, metrics=P_VALUES, engine="flat")
                for p in P_VALUES:
                    assert flat[p].trace.p == p
                    assert_traces_identical(flat[p].trace, scalar[p].trace)

    def test_batch_traces_per_query(self, engine_split, block_budgets):
        index = LazyLSH(_config()).build(engine_split.data)
        scalar = knn_batch(index, engine_split.queries, 10, p=0.5, engine="scalar")
        for _ in block_budgets():
            batch = knn_batch(index, engine_split.queries, 10, p=0.5)
            assert [r.trace.query_id for r in batch] == list(
                range(len(engine_split.queries))
            )
            for a, b in zip(batch, scalar):
                assert a.trace.query_id == b.trace.query_id
                assert_traces_identical(a.trace, b.trace)
                assert a.trace.io_delta_sum().to_dict() == a.io.to_dict()

    def test_metrics_batch_traces_numbered_by_row(self, engine_split):
        """Each (row, metric) trace of a metrics batch carries the row."""
        index = LazyLSH(_config()).build(engine_split.data)
        traces = {}
        for engine_name in ("flat", "scalar"):
            telemetry = Telemetry()
            # An earlier call advances the telemetry's automatic ids.
            first = index.knn(engine_split.queries[0], 10, p=0.5, telemetry=telemetry)
            assert first.trace.query_id == 0
            batch = knn_batch(
                index, engine_split.queries, 10, metrics=P_VALUES,
                engine=engine_name, telemetry=telemetry,
            )
            traces[engine_name] = [result[p].trace for result in batch for p in P_VALUES]
            for row, result in enumerate(batch):
                for p in P_VALUES:
                    assert result[p].trace.query_id == row
        for a, b in zip(traces["flat"], traces["scalar"]):
            assert a.query_id == b.query_id
            assert_traces_identical(a, b)


#: The in-process kNN entry points, each called with ``k = 5`` and a
#: case's knobs from ``bad_knobs.BAD_KNOBS`` (``MultiQueryEngine.knn``
#: needs a metrics list, so its base call carries one).
KNOB_ENTRY_POINTS = {
    "knn": (
        LazyLSH.knn,
        lambda index, queries, knobs: index.knn(queries[0], 5, **knobs),
    ),
    "multiquery": (
        MultiQueryEngine.knn,
        lambda index, queries, knobs: MultiQueryEngine(index).knn(
            queries[0], 5, **{"metrics": P_VALUES, **knobs}
        ),
    ),
    "knn_batch": (
        knn_batch,
        lambda index, queries, knobs: knn_batch(index, queries, 5, **knobs),
    ),
}


class TestValidation:
    def test_knn_rejects_unknown_engine(self, dual_index, engine_split):
        queries, knobs, pattern = bad_knobs.bad_call(
            engine_split.queries, "unknown-engine"
        )
        with pytest.raises(InvalidParameterError, match=pattern):
            dual_index.knn(queries[0], 5, p=0.5, **knobs)

    def test_knn_batch_rejects_unknown_engine(self, dual_index, engine_split):
        queries, knobs, pattern = bad_knobs.bad_call(
            engine_split.queries, "unknown-engine"
        )
        with pytest.raises(InvalidParameterError, match=pattern):
            knn_batch(dual_index, queries, 5, p=0.5, **knobs)

    @pytest.mark.parametrize(
        ("entry", "case"),
        [
            (entry, case)
            for entry, (signature, _call) in KNOB_ENTRY_POINTS.items()
            for case in bad_knobs.admitted(signature)
        ],
    )
    def test_rejects_bad_knobs_alike(self, small_index, engine_split, entry, case):
        """Every entry point raises the table's error for each case."""
        queries, knobs, pattern = bad_knobs.bad_call(engine_split.queries, case)
        with pytest.raises(InvalidParameterError, match=pattern):
            KNOB_ENTRY_POINTS[entry][1](small_index, queries, knobs)

    @pytest.mark.parametrize("engine_name", ["flat", "scalar"])
    def test_multiquery_checks_query_like_knn(
        self, small_index, engine_split, engine_name
    ):
        multi = MultiQueryEngine(small_index)
        bad = engine_split.queries[0].copy()
        bad[3] = np.nan
        with pytest.raises(InvalidParameterError, match="non-finite"):
            multi.knn(bad, 5, metrics=P_VALUES, engine=engine_name)
        short = engine_split.queries[0][:-1]
        with pytest.raises(DimensionalityMismatchError) as knn_error:
            small_index.knn(short, 5, engine=engine_name)
        with pytest.raises(DimensionalityMismatchError) as multi_error:
            multi.knn(short, 5, metrics=P_VALUES, engine=engine_name)
        assert str(multi_error.value) == str(knn_error.value)

    def test_metrics_mode_requires_query_centric(self, engine_split):
        index = LazyLSH(_config(), rehashing="original").build(engine_split.data)
        with pytest.raises(InvalidParameterError, match="query-centric"):
            knn_batch(index, engine_split.queries, 5, metrics=P_VALUES)
        with pytest.raises(InvalidParameterError, match="query-centric"):
            MultiQueryEngine(index)


def _search(store, funcs, bounds, side):
    """The store's left search (window starts) or right search (insert
    positions) of ``bounds``."""
    if side == "left":
        return store.batch_window_positions(funcs, bounds, bounds)[0]
    return store.batch_entry_positions(funcs, bounds)


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
        got = _search(store, funcs, bounds, side)
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
            got = _search(store, funcs, bounds, side)
            expect = np.searchsorted(store.runs()[0][0], bounds, side=side)
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize(
        "n, span",
        [
            (1_500, 10),  # run length off a stride multiple
            (1_500, 1_000_000),
            (512, 1_000),  # run length on a stride multiple
            (100, 1_000),  # run shorter than one stride
            (700, 2**33),  # int64 runs, composite keys
            (600, 2**61),  # composite keys overflow: per-needle fallback
        ],
    )
    def test_window_search_matches_reference(self, n, span):
        """The one-call window search against a per-needle loop, at
        bounds past both ends of the stored range, on stored values
        (ties) at and around every multiple of the coarse stride, at
        +-2**62 (no overflow) and on empty windows."""
        rng = np.random.default_rng(n + span)
        num_functions = 4
        hashes = rng.integers(-span, span, size=(num_functions, n))
        hashes[:, : n // 4] = hashes[:, n // 4 : 2 * (n // 4)]  # ties
        store = InvertedListStore(hashes)
        assert (store._row_top is None) == (span == 2**61)
        values = store.runs()[0]
        vmin, vmax = int(values.min()), int(values.max())
        cols = np.concatenate(
            [np.arange(0, n, 256), np.arange(255, n, 256), [n - 1]]
        )
        cases = []
        for f in range(num_functions):
            for v in values[f, cols].tolist():
                cases += [(f, v, v), (f, v - 1, v + 1), (f, v + 1, v - 1)]
            cases += [
                (f, vmin - 5, vmin - 1),  # hi below vmin
                (f, vmax + 1, vmax + 9),  # lo above vmax
                (f, vmin - 3, vmax + 3),
                (f, vmin, vmax),
                (f, -(2**62), 2**62),
                (f, 2**62, 2**62),
                (f, -(2**62), -(2**62)),
            ]
        los = rng.integers(-span - 5, span + 5, size=400)
        his = los + rng.integers(-2, span // 4 + 3, size=400)
        cases += zip(
            rng.integers(0, num_functions, size=400).tolist(),
            los.tolist(),
            his.tolist(),
        )
        funcs, los, his = (np.array(col, dtype=np.int64) for col in zip(*cases))

        class Needles:
            searched = 0

            def on_search(self, needles: int) -> None:
                self.searched += needles

        store.observer = observer = Needles()
        starts, stops = store.batch_window_positions(funcs, los, his)
        assert observer.searched == 2 * len(cases)
        for j, (f, lo, hi) in enumerate(cases):
            assert starts[j] == f * n + np.searchsorted(values[f], lo, "left")
            assert stops[j] == f * n + np.searchsorted(values[f], hi, "right")
