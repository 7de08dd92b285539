"""Property-based tests (hypothesis) on the core invariants.

These cover the mathematical backbone the paper's guarantees stand on:
norm identities, the Eq. 11 bounds, Lemma 2/3 scale invariance, window
arithmetic and page accounting — plus the sharded service's
bit-identity to the single-process engine.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import LazyLSH, LazyLSHConfig, ShardedSearchService
from repro.core.hashing import (
    _HASH_CHUNK,
    StableHashBank,
    original_window,
    query_centric_window,
)
from repro.durability import WalRecord
from repro.eval.ratio import overall_ratio
from repro.metrics.collision import collision_probability
from repro.metrics.lp import l1_bounds, lp_distance, lp_norm, norm_equivalence_bounds
from repro.persistence import load_index, save_index
from repro.serve.worker import ShardSearcher
from repro.storage.inverted_index import _MAX_COMPOSITE_KEY, InvertedListStore
from repro.storage.pages import PageLayout, PageTracker

# Strategies ---------------------------------------------------------------

# Coordinates are either exactly zero or of sane magnitude: denormal
# inputs (1e-190 and the like) underflow any fractional power round-trip
# and are outside the library's supported domain.
_coords = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=-100.0, max_value=-1e-3),
)

finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=12),
    elements=_coords,
)

p_values = st.sampled_from([0.4, 0.5, 0.7, 1.0, 1.3, 2.0])


@st.composite
def _page_charges(draw):
    """``(func, first, stop)`` page ranges over three functions, each
    nested in, enclosing, overlapping, touching or disjoint from its
    function's previous range, or empty."""
    charges, last = [], {}
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        func = draw(st.integers(min_value=0, max_value=2))
        a, b = last.get(func, (40, 44))
        size = draw(st.integers(min_value=1, max_value=6))
        gap = draw(st.integers(min_value=1, max_value=6))
        below = draw(st.booleans())
        kind = draw(st.sampled_from(
            ["nested", "enclosing", "overlapping", "touching", "disjoint", "empty"]
        ))
        if kind == "nested":
            first = draw(st.integers(min_value=a, max_value=b))
            stop = draw(st.integers(min_value=first, max_value=b))
        elif kind == "enclosing":
            first, stop = a - size, b + gap
        elif kind == "overlapping":
            first, stop = (a - size, a + 1) if below else (b - 1, b + size)
        elif kind == "touching":
            first, stop = (a - size, a) if below else (b, b + size)
        elif kind == "disjoint":
            first, stop = (a - gap - size, a - gap) if below else (b + gap, b + gap + size)
        else:
            first = draw(st.integers(min_value=a - 6, max_value=b + 6))
            stop = first - draw(st.integers(min_value=0, max_value=2))
        charges.append((func, first, stop))
        if stop > first:
            last[func] = (first, stop)
    return charges


def paired_vectors():
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda d: st.tuples(
            hnp.arrays(
                np.float64,
                d,
                elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            ),
            hnp.arrays(
                np.float64,
                d,
                elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            ),
        )
    )


# lp geometry ---------------------------------------------------------------


class TestLpProperties:
    @given(v=finite_vectors, p=p_values)
    def test_norm_non_negative(self, v, p):
        assert lp_norm(v, p) >= 0.0

    @given(v=finite_vectors, p=p_values)
    def test_norm_zero_iff_zero_vector(self, v, p):
        norm = float(lp_norm(v, p))
        if np.all(v == 0.0):
            assert norm == 0.0
        else:
            assert norm > 0.0

    @given(pair=paired_vectors(), p=p_values)
    def test_distance_symmetry(self, pair, p):
        x, y = pair
        assert float(lp_distance(x, y, p)) == pytest.approx(
            float(lp_distance(y, x, p)), rel=1e-9, abs=1e-12
        )

    @given(
        pair=paired_vectors(),
        p=p_values,
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_homogeneity_lemma3(self, pair, p, scale):
        # lp(c*x, c*y) == c * lp(x, y): the identity behind Lemma 3.
        x, y = pair
        base = float(lp_distance(x, y, p))
        scaled = float(lp_distance(scale * x, scale * y, p))
        assert scaled == pytest.approx(scale * base, rel=1e-7, abs=1e-9)

    @given(pair=paired_vectors())
    def test_triangle_inequality_holds_for_p_geq_1(self, pair):
        x, y = pair
        origin = np.zeros_like(x)
        for p in (1.0, 1.5, 2.0):
            direct = float(lp_distance(x, y, p))
            via = float(lp_distance(x, origin, p)) + float(lp_distance(origin, y, p))
            assert direct <= via + 1e-7 * max(1.0, via)

    @given(pair=paired_vectors(), p=st.sampled_from([0.4, 0.5, 0.7, 0.9]))
    def test_fractional_distance_at_least_l1(self, pair, p):
        # For 0 < p < 1 the lp "distance" dominates l1.
        x, y = pair
        assert float(lp_distance(x, y, p)) >= float(lp_distance(x, y, 1.0)) - 1e-9


class TestBoundsProperties:
    @given(pair=paired_vectors(), p=p_values)
    def test_eq11_bounds_always_contain_l1(self, pair, p):
        x, y = pair
        d = x.shape[0]
        delta = float(lp_distance(x, y, p))
        lower, upper = l1_bounds(delta, d, p)
        l1 = float(lp_distance(x, y, 1.0))
        tol = 1e-9 * max(1.0, upper)
        assert lower - tol <= l1 <= upper + tol

    @given(pair=paired_vectors(), p=p_values, s=st.sampled_from([1.0, 2.0]))
    def test_generalised_bounds_contain_ls(self, pair, p, s):
        x, y = pair
        d = x.shape[0]
        delta = float(lp_distance(x, y, p))
        lower, upper = norm_equivalence_bounds(delta, d, p, s)
        ls = float(lp_distance(x, y, s))
        tol = 1e-9 * max(1.0, upper)
        assert lower - tol <= ls <= upper + tol

    @given(
        d=st.integers(min_value=1, max_value=2000),
        p=p_values,
        delta=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_bounds_ordered(self, d, p, delta):
        lower, upper = l1_bounds(delta, d, p)
        assert 0.0 <= lower <= upper


class TestCollisionProperties:
    @given(
        s=st.floats(min_value=0.001, max_value=100.0),
        r0=st.floats(min_value=0.001, max_value=100.0),
        scale=st.floats(min_value=0.01, max_value=100.0),
        p=st.sampled_from([1.0, 2.0]),
    )
    def test_lemma2_scale_invariance(self, s, r0, scale, p):
        assert collision_probability(s, r0, p) == pytest.approx(
            collision_probability(s * scale, r0 * scale, p), rel=1e-6, abs=1e-9
        )

    @given(
        s=st.floats(min_value=0.0, max_value=1000.0),
        r0=st.floats(min_value=0.001, max_value=1000.0),
        p=st.sampled_from([1.0, 2.0]),
    )
    def test_probability_in_unit_interval(self, s, r0, p):
        val = collision_probability(s, r0, p)
        assert -1e-12 <= val <= 1.0 + 1e-12


class TestWindowProperties:
    @given(
        hq=st.integers(min_value=-(10**6), max_value=10**6),
        level=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_query_centric_contains_query_symmetrically(self, hq, level):
        lo, hi = query_centric_window(hq, level)
        assert lo <= hq <= hi
        assert hq - lo == hi - hq

    @given(
        hq=st.integers(min_value=-(10**6), max_value=10**6),
        level=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_original_contains_query(self, hq, level):
        lo, hi = original_window(hq, level)
        assert lo <= hq <= hi
        assert hi - lo + 1 == max(1, int(math.floor(level)))

    @given(
        hq=st.integers(min_value=-(10**4), max_value=10**4),
        level=st.floats(min_value=1.0, max_value=1e4),
        factor=st.integers(min_value=2, max_value=5),
    )
    def test_query_centric_windows_nest(self, hq, level, factor):
        inner = query_centric_window(hq, level)
        outer = query_centric_window(hq, level * factor)
        assert outer[0] <= inner[0] and inner[1] <= outer[1]


class TestPageProperties:
    @given(
        start=st.integers(min_value=0, max_value=10**6),
        length=st.integers(min_value=0, max_value=10**5),
        entry_size=st.sampled_from([4, 8, 16, 64]),
    )
    def test_page_count_bounds(self, start, length, entry_size):
        layout = PageLayout(page_size=4096, entry_size=entry_size)
        pages = layout.pages_for_range(start, start + length)
        per_page = layout.entries_per_page
        if length == 0:
            assert pages == 0
        else:
            minimum = -(-length // per_page)
            assert minimum <= pages <= minimum + 1

    @given(
        start=st.integers(min_value=0, max_value=10**5),
        split=st.integers(min_value=0, max_value=10**4),
        length=st.integers(min_value=0, max_value=10**4),
    )
    def test_splitting_a_range_never_cheaper(self, start, split, length):
        # Reading [a, b) as two pieces costs at least the contiguous read.
        layout = PageLayout()
        mid = start + min(split, length)
        stop = start + length
        whole = layout.pages_for_range(start, stop)
        pieces = layout.pages_for_range(start, mid) + layout.pages_for_range(mid, stop)
        assert pieces >= whole

    @given(charges=_page_charges())
    @example(charges=[(0, 3, 6), (0, 4, 5), (0, 6, 9), (0, 1, 3), (0, 12, 14), (0, 2, 13)])
    def test_page_tracker_counts_new_pages(self, charges):
        # The tracker's interval arithmetic against a set of pages.
        tracker, seen = PageTracker(), set()
        for func, first, stop in charges:
            pages = {(func, page) for page in range(first, stop)}
            assert tracker.charge(func, first, stop) == len(pages - seen)
            seen |= pages


class TestRatioProperties:
    @given(
        true=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.floats(min_value=0.1, max_value=1e3),
        ),
        slack=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.floats(min_value=0.0, max_value=10.0),
        ),
    )
    @settings(max_examples=60)
    def test_ratio_at_least_one_when_reported_dominates(self, true, slack):
        n = min(true.shape[0], slack.shape[0])
        true = np.sort(true[:n])
        reported = np.sort(true + slack[:n])
        assert overall_ratio(reported, true) >= 1.0 - 1e-12

    @given(
        true=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.floats(min_value=0.1, max_value=1e3),
        )
    )
    def test_identity_ratio(self, true):
        true = np.sort(true)
        assert overall_ratio(true, true) == pytest.approx(1.0)


# Sharded service ---------------------------------------------------------


class TestShardedServiceIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        p=st.floats(min_value=0.5, max_value=1.1),
        k=st.integers(min_value=1, max_value=8),
        n_shards=st.sampled_from([1, 2, 3]),
        update=st.sampled_from([None, "insert", "remove"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_matches_single_process_knn(
        self, tmp_path_factory, seed, p, k, n_shards, update
    ):
        """A mapped index at every shard count answers bit-identically
        to ``index.knn``, also after an insert or remove through
        ``ingest`` (the service owns a loaded copy; ``index`` is the
        reference)."""
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 100.0, size=(150, 6))
        config = LazyLSHConfig(
            c=3.0, p_min=0.5, seed=seed, mc_samples=20_000, mc_buckets=100
        )
        index = LazyLSH(config).build(data)
        path = save_index(index, tmp_path_factory.mktemp("served") / "index.npz")
        served = load_index(path)
        queries = [data[int(rng.integers(150))] + 1.0, rng.uniform(0, 100, 6)]
        with ShardedSearchService(served, n_shards=n_shards) as svc:
            assert svc.health()["storage"]["backend"] == "mmap"
            if update == "insert":
                batch = rng.uniform(0.0, 100.0, size=(5, 6))
                ids = index.insert(batch)
                svc.ingest([WalRecord(lsn=1, op="insert", ids=ids, points=batch)])
                queries.append(batch[0])
            elif update == "remove":
                ids = rng.choice(150, size=6, replace=False)
                index.remove(ids)
                svc.ingest([WalRecord(lsn=1, op="remove", ids=ids)])
            for query in queries:
                flat = index.knn(query, k, p=p)
                sharded = svc.search(query, k, p=p)
                np.testing.assert_array_equal(flat.ids, sharded.ids)
                np.testing.assert_array_equal(flat.distances, sharded.distances)
                assert flat.io.sequential == sharded.io.sequential
                assert flat.io.random == sharded.io.random
                assert flat.termination == sharded.termination
                assert flat.rounds == sharded.rounds
                assert sum(s.random for s in sharded.shard_io) == flat.io.random


# Store inserts -----------------------------------------------------------


def _insert_batches(rng, base, n_batches, wide):
    """1-4 batches per function: ties, values below the current minimum,
    above the current maximum, and (``wide``) one past the int32 range."""
    runs = base.copy()
    batches = []
    for b in range(n_batches):
        m = int(rng.integers(1, 17))
        kind = rng.integers(0, 4, size=(base.shape[0], m))
        lo, hi = runs.min(axis=1, keepdims=True), runs.max(axis=1, keepdims=True)
        ties = np.take_along_axis(
            runs, rng.integers(0, runs.shape[1], size=kind.shape), axis=1
        )
        batch = np.select(
            [kind == 0, kind == 1, kind == 2],
            [ties, lo - rng.integers(1, 6, kind.shape), hi + rng.integers(1, 6, kind.shape)],
            rng.integers(-60, 60, size=kind.shape),
        )
        if wide and b == n_batches - 1:
            batch[0, 0] = hi[0, 0] + 2**32
        batches.append(batch.astype(np.int64))
        runs = np.concatenate([runs, batches[-1]], axis=1)
    return batches


def _attached(shard_id, store, owned, alive):
    """Shard ``shard_id`` attached the way a worker starts or respawns:
    ``compact_shard`` of ``store`` over the sorted ``owned`` ids."""
    arrays, state = store.compact_shard(owned)
    sub = InvertedListStore.from_compact(
        arrays["rel"], arrays["ids"], arrays["row_top"], state
    )
    return ShardSearcher(
        shard_id, sub, arrays["positions"].ravel(), owned.copy(),
        np.zeros((owned.size, 1)), alive[owned],
    )


class TestStoreInsertProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        eta=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=2, max_value=40),
        n_batches=st.integers(min_value=1, max_value=4),
        wide=st.booleans(),
    )
    @example(seed=7, eta=3, n=9, n_batches=2, wide=True)
    @settings(max_examples=20, deadline=None)
    def test_inserts_equal_a_rebuild(self, seed, eta, n, n_batches, wide):
        """Inserted runs, window searches and shard replicas equal a fresh
        build over all the columns; one merged insert of every batch
        equals the sequential ones (the precondition of group apply).
        A replica fed insert and remove deltas equals one attached
        afresh from the coordinator's current store — the state a
        respawned worker starts from."""
        rng = np.random.default_rng(seed)
        base = rng.integers(-50, 50, size=(eta, n)).astype(np.int64)
        batches = _insert_batches(rng, base, n_batches, wide)
        store = InvertedListStore(base)
        owner = np.repeat([0, 1], [n // 2, n - n // 2])
        alive = np.ones(n, dtype=bool)
        searchers = [
            _attached(sid, store, np.flatnonzero(owner == sid), alive)
            for sid in (0, 1)
        ]
        start = n
        for b, batch in enumerate(batches):
            m = batch.shape[1]
            plan = store.insert(batch, np.arange(start, start + m))
            # New points may land on any shard, as ingest's balancing
            # places them.
            owners = rng.integers(0, 2, size=m)
            owner = np.concatenate([owner, owners])
            alive = np.concatenate([alive, np.ones(m, dtype=bool)])
            start += m
            gone = rng.choice(start, size=int(rng.integers(0, 3)), replace=False)
            alive[gone] = False
            deltas = [
                {
                    "op": "insert", "lsn": 2 * b + 1, "epoch": 2 * b + 1,
                    "plan": plan, "points": np.zeros((m, 1)),
                    "batch_start": start - m, "owners": owners,
                },
                {"op": "remove", "lsn": 2 * b + 2, "epoch": 2 * b + 2, "gids": gone},
            ]
            for searcher in searchers:
                for delta in deltas:
                    searcher.apply_update(delta)

        columns = np.concatenate([base] + batches, axis=1)
        fresh = InvertedListStore(columns)
        for got, want in zip(store.runs(), fresh.runs()):
            np.testing.assert_array_equal(got, want)
        arrays, state = store.compact_shard(np.arange(start))
        fresh_arrays, fresh_state = fresh.compact_shard(np.arange(start))
        assert state == fresh_state
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], fresh_arrays[name])
        assert arrays["rel"].dtype == (
            np.int32 if state.stride <= 2**31 - 2 else np.int64
        )
        assert (state.stride > 2**31 - 2) == wide

        merged = InvertedListStore(base)
        merged.insert(np.concatenate(batches, axis=1), np.arange(n, start))
        for got, want in zip(merged.runs(), store.runs()):
            np.testing.assert_array_equal(got, want)

        funcs = rng.integers(0, eta, size=64)
        bounds = rng.integers(columns.min() - 3, columns.max() + 3, size=64)
        np.testing.assert_array_equal(
            store.batch_entry_positions(funcs, bounds),
            fresh.batch_entry_positions(funcs, bounds),
        )
        his = bounds + rng.integers(0, 40, size=64)
        windows = [s.batch_window_positions(funcs, bounds, his) for s in (store, fresh)]
        np.testing.assert_array_equal(windows[0], windows[1])
        starts, stops = windows[0]
        lens = np.maximum(stops - starts, 0)
        np.testing.assert_array_equal(
            store.gather_segments32(starts, lens), fresh.gather_segments32(starts, lens)
        )

        for searcher in searchers:
            owned = np.flatnonzero(owner == searcher.shard_id)
            attached = _attached(searcher.shard_id, store, owned, alive)
            sub_values, sub_ids = searcher.store.runs()
            want_values, want_ids = attached.store.runs()
            np.testing.assert_array_equal(sub_values, want_values)
            np.testing.assert_array_equal(
                searcher.gids[sub_ids], attached.gids[want_ids]
            )
            np.testing.assert_array_equal(searcher.gids, owned)
            np.testing.assert_array_equal(searcher.positions, attached.positions)
            np.testing.assert_array_equal(searcher.alive, attached.alive)


def _stable_reference(values):
    """The reference store: runs in a stable argsort's (value, id) order."""
    order = np.argsort(values, axis=1, kind="stable")
    return InvertedListStore.from_runs(np.take_along_axis(values, order, axis=1), order)


def _assert_same_store(got, want):
    """Equal ``rel``, ``ids``, ``row_top``, ``vmin`` and ``stride``, dtypes
    included."""
    assert (got._vmin, got._stride) == (want._vmin, want._stride)
    assert (got._row_top is None) == (want._row_top is None)
    for name in ("_rel", "_ids", "_row_top"):
        a, b = getattr(got, name), getattr(want, name)
        if b is not None:
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b)


@st.composite
def _tied_matrices(draw):
    """``(values, batch)``: an integer ``(F, n)`` matrix drawn from a few
    values (heavy ties, negatives), n in {1, 2, 2**k, 2**k + 1}, spanning
    a few buckets or just below or just above the widest span whose
    (value, column) keys stay under ``_MAX_COMPOSITE_KEY``; and an insert
    batch of ties and values one past either end."""
    funcs = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.sampled_from([1, 2, 2**k, 2**k + 1]))
    limit = _MAX_COMPOSITE_KEY >> max(n - 1, 0).bit_length()
    span = draw(st.sampled_from([draw(st.integers(0, 6)), limit - 1, limit]))
    lo = -(span // 2) - draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    pool = np.unique(np.concatenate([[lo, lo + span], lo + rng.integers(0, span + 1, 3)]))
    values = rng.choice(pool, size=(funcs, n))
    values.flat[0], values.flat[-1] = lo, lo + span
    m = draw(st.integers(min_value=1, max_value=9))
    batch = rng.choice(np.concatenate([pool, [lo - 1, lo + span + 1]]), size=(funcs, m))
    return values.astype(np.int64), batch.astype(np.int64)


class TestRowSortProperties:
    @given(case=_tied_matrices())
    @settings(max_examples=40, deadline=None)
    def test_store_equals_the_stable_argsort_build(self, case):
        """A built store equals one over stably argsorted runs, and an
        insert gives both the same plan and the runs of a stable build
        over every column (new entries after equal-valued old ones, in
        batch order)."""
        values, batch = case
        store, ref = InvertedListStore(values), _stable_reference(values)
        _assert_same_store(store, ref)
        n, m = values.shape[1], batch.shape[1]
        plans = [s.insert(batch, np.arange(n, n + m)) for s in (store, ref)]
        assert plans[0].vmin == plans[1].vmin
        for name in ("rel_values", "positions"):
            a, b = getattr(plans[0], name), getattr(plans[1], name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b)
        _assert_same_store(store, ref)
        _assert_same_store(
            store, _stable_reference(np.concatenate([values, batch], axis=1))
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        d=st.integers(min_value=1, max_value=4),
        eta=st.integers(min_value=1, max_value=6),
        n=st.sampled_from([1, 2, 3, _HASH_CHUNK - 1, _HASH_CHUNK, _HASH_CHUNK + 1]),
        r0=st.sampled_from([1.0, 0.7, 3.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_hash_points_floors_each_projection(self, seed, d, eta, n, r0):
        """``hash_points`` is ``floor((X @ A + b) / r0)`` as int64, one
        function per row.  BLAS rounding may depend on a matmul's row
        count, so the reference multiplies in the bank's own chunks."""
        rng = np.random.default_rng(seed)
        bank = StableHashBank(d, eta, r0=r0, t_max=100.0, seed=seed)
        points = rng.uniform(-100.0, 100.0, size=(n, d))
        A, b = bank._projections, bank._offsets
        want = np.concatenate([
            np.floor((points[s : s + _HASH_CHUNK] @ A + b) / r0).astype(np.int64).T
            for s in range(0, n, _HASH_CHUNK)
        ], axis=1)
        got = bank.hash_points(points)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
