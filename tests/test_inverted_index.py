"""Unit tests for repro.storage.inverted_index."""

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.core.engine import RingReader
from repro.datasets import make_synthetic
from repro.errors import InvalidParameterError
from repro.persistence import load_index, open_v3_arrays, save_index
from repro.serve.worker import ShardSearcher
from repro.storage.inverted_index import _TOP_STRIDE, InvertedListStore
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout


@pytest.fixture
def tiny_store() -> InvertedListStore:
    # Two hash functions over six points; layout of 4 entries per page so
    # page charging is easy to reason about.
    hash_values = np.array(
        [
            [5, 1, 9, 1, 7, 3],
            [0, 0, 0, 2, 2, 4],
        ],
        dtype=np.int64,
    )
    return InvertedListStore(hash_values, PageLayout(page_size=32, entry_size=8))


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            InvertedListStore(np.zeros(5, dtype=np.int64))

    def test_dtype_validation(self):
        with pytest.raises(InvalidParameterError):
            InvertedListStore(np.zeros((2, 3), dtype=np.float64))

    def test_counts(self, tiny_store):
        assert tiny_store.num_functions == 2
        assert tiny_store.num_points == 6

    def test_size_accounting(self, tiny_store):
        # 6 entries of 8 bytes = 48 bytes -> 2 pages of 32 bytes, per
        # function; 2 functions -> 128 bytes total.
        assert tiny_store.size_bytes() == 128
        assert tiny_store.size_mb() == pytest.approx(128 / 1024.0 / 1024.0)


def _read(store, func, lo, hi):
    """Ids of function ``func``'s entries in ``[lo, hi]``: one search and
    one gather, as every reader reads a window."""
    starts, stops = store.batch_window_positions(
        np.array([func]), np.array([lo]), np.array([hi])
    )
    return store.gather_segments32(starts, np.maximum(stops - starts, 0))


def _rounds(store, windows, io=None):
    """A :class:`RingReader`'s ids of every function, round by round.

    ``windows`` holds one ``(los, his)`` pair per round; returns each
    round's per-function id lists, charging pages to ``io``.
    """
    reader = RingReader(store, len(windows[0][0]))
    io = IOStats() if io is None else io
    out = []
    for los, his in windows:
        reader.read(np.array(los, dtype=np.int64), np.array(his, dtype=np.int64))
        out.append([reader.take(f, io).tolist() for f in range(len(los))])
    return out


class TestReadWindow:
    def test_exact_bucket(self, tiny_store):
        ids = _read(tiny_store, 0, 1, 1)
        assert sorted(ids.tolist()) == [1, 3]

    def test_inclusive_range(self, tiny_store):
        ids = _read(tiny_store, 0, 3, 7)
        assert sorted(ids.tolist()) == [0, 4, 5]

    def test_empty_window(self, tiny_store):
        assert _read(tiny_store, 0, 100, 200).size == 0

    def test_inverted_bounds_return_empty(self, tiny_store):
        starts, stops = tiny_store.batch_window_positions(
            np.array([0]), np.array([5]), np.array([4])
        )
        assert stops[0] <= starts[0]
        assert _rounds(tiny_store, [([5], [4])]) == [[[]]]

    def test_sequential_io_charged_per_page(self, tiny_store):
        stats = IOStats()
        # Function 0 sorted values: [1,1,3,5,7,9]; window [1,5] covers
        # entries 0..3 -> exactly the first page (4 entries/page).
        _rounds(tiny_store, [([1], [5])], stats)
        assert stats.sequential == 1
        stats.reset()
        # Window [1,9] covers entries 0..5 -> 2 pages.
        _rounds(tiny_store, [([1], [9])], stats)
        assert stats.sequential == 2

    def test_empty_window_costs_nothing(self, tiny_store):
        stats = IOStats()
        _rounds(tiny_store, [([100], [200])], stats)
        assert stats.total == 0


class TestReadRing:
    """A reader's later rounds read only the ring outside the previous
    round's window."""

    def test_ring_excludes_inner(self, tiny_store):
        # Window [1,9] minus inner [3,7] -> hash values 1,1 and 9.
        rounds = _rounds(tiny_store, [([3], [7]), ([1], [9])])
        assert sorted(rounds[1][0]) == [1, 2, 3]

    def test_ring_with_empty_inner_degenerates(self, tiny_store):
        rounds = _rounds(tiny_store, [([5], [4]), ([1], [9])])
        assert sorted(rounds[1][0]) == sorted(_read(tiny_store, 0, 1, 9).tolist())

    def test_ring_plus_inner_equals_window(self, tiny_store):
        inner, ring = _rounds(tiny_store, [([0, 0], [0, 2]), ([0, 0], [0, 4])])
        window = _read(tiny_store, 1, 0, 4)
        assert sorted(inner[1] + ring[1]) == sorted(window.tolist())

    def test_ring_charges_both_side_runs(self):
        # Function 0: entries [1,1,3,5,7,9] at 2 entries per page.  The
        # inner window [3,7] reads entries 2..4 (pages 1 and 2); the ring
        # [1,9] minus [3,7] reads entries {0,1} (page 0, new) and {5}
        # (page 2, already read) -> 1 more sequential I/O.
        store = InvertedListStore(
            np.array([[5, 1, 9, 1, 7, 3]]), PageLayout(page_size=16, entry_size=8)
        )
        inner, ring = IOStats(), IOStats()
        reader = RingReader(store, 1)
        reader.read(np.array([3]), np.array([7]))
        reader.take(0, inner)
        reader.read(np.array([1]), np.array([9]))
        assert sorted(reader.take(0, ring).tolist()) == [1, 2, 3]
        assert (inner.sequential, ring.sequential) == (2, 1)


class TestSeenPages:
    def test_pages_charged_once(self, tiny_store):
        stats = IOStats()
        reader = RingReader(tiny_store, 1)
        # [3,5] does not contain [1,5], so it is read whole, from the
        # cached page 0; the ring of [1,9] adds page 1 only.
        for (lo, hi), charged in [((1, 5), 1), ((3, 5), 1), ((1, 9), 2)]:
            reader.read(np.array([lo]), np.array([hi]))
            reader.take(0, stats)
            assert stats.sequential == charged

    def test_seen_pages_are_per_function(self, tiny_store):
        stats = IOStats()
        _rounds(tiny_store, [([1, 0], [5, 4])], stats)
        # Function 1's pages are distinct cache keys.
        assert stats.sequential > 1


def _shard(store, lo, hi):
    """``compact_shard`` widened to (values, global ids, positions)."""
    arrays, state = store.compact_shard(np.arange(lo, hi))
    return arrays["rel"] + state.vmin, arrays["ids"] + lo, arrays["positions"]


class TestShardView:
    def test_full_range_is_whole_store(self, tiny_store):
        values, ids, positions = _shard(tiny_store, 0, 6)
        assert np.array_equal(values, tiny_store.runs()[0])
        assert np.array_equal(ids, tiny_store.runs()[1])
        assert np.array_equal(
            positions, np.tile(np.arange(6), (2, 1))
        )

    def test_subrun_preserves_run_order(self, rng):
        hash_values = rng.integers(-50, 50, size=(3, 40)).astype(np.int64)
        store = InvertedListStore(hash_values)
        for lo, hi in [(0, 40), (0, 7), (13, 14), (25, 40)]:
            values, ids, positions = _shard(store, lo, hi)
            assert values.shape == ids.shape == positions.shape == (3, hi - lo)
            for func in range(3):
                # Entries come back in full-run order (positions strictly
                # ascending), with the owned id set exactly once each.
                assert np.all(np.diff(positions[func]) > 0)
                assert sorted(ids[func].tolist()) == list(range(lo, hi))
                assert np.array_equal(
                    values[func], store.runs()[0][func, positions[func]]
                )

    def test_bounds_validated(self, tiny_store):
        for ids in ([-1, 0, 1, 2], [], [3, 2], [2, 2], [0, 6], [[0, 1]]):
            with pytest.raises(InvalidParameterError):
                tiny_store.compact_shard(np.array(ids, dtype=np.int64))


class _GatherObserver:
    def __init__(self):
        self.gathered = 0

    def on_gather(self, count: int) -> None:
        self.gathered += count


class TestGatherSegments:
    def test_known_segments(self, tiny_store):
        # Function 0 run ids (sorted by value [1,1,3,5,7,9]): [1,3,5,0,4,2].
        starts = np.array([0, 3], dtype=np.int64)
        lens = np.array([2, 1], dtype=np.int64)
        assert tiny_store.gather_segments32(starts, lens).tolist() == [1, 3, 0]

    def test_empty_segments_return_empty(self, tiny_store):
        starts = np.array([2, 5], dtype=np.int64)
        lens = np.zeros(2, dtype=np.int64)
        out32 = tiny_store.gather_segments32(starts, lens)
        assert out32.size == 0 and out32.dtype == np.int32

    def test_no_segments_at_all(self, tiny_store):
        empty = np.empty(0, dtype=np.int64)
        assert tiny_store.gather_segments32(empty, empty).size == 0

    def test_empty_gather_skips_observer(self, tiny_store):
        observer = _GatherObserver()
        tiny_store.observer = observer
        try:
            tiny_store.gather_segments32(
                np.array([1], dtype=np.int64), np.zeros(1, dtype=np.int64)
            )
            assert observer.gathered == 0
            tiny_store.gather_segments32(
                np.array([1], dtype=np.int64), np.ones(1, dtype=np.int64)
            )
            assert observer.gathered == 1
        finally:
            tiny_store.observer = None

    def test_gather32_matches_gather(self, rng):
        hash_values = rng.integers(-30, 30, size=(2, 100)).astype(np.int64)
        store = InvertedListStore(hash_values)
        starts = np.array([0, 100, 150], dtype=np.int64)
        lens = np.array([17, 0, 50], dtype=np.int64)
        flat_ids = store.runs()[1].ravel()
        want = np.concatenate(
            [flat_ids[s : s + n] for s, n in zip(starts, lens)]
        )
        narrow = store.gather_segments32(starts, lens)
        assert narrow.dtype == np.int32
        assert np.array_equal(want, narrow.astype(np.int64))

    def test_int32_overflow_guard(self, tiny_store, monkeypatch):
        monkeypatch.setattr(tiny_store, "_num_points", 2**31)
        with pytest.raises(InvalidParameterError, match="int32 id shadow"):
            tiny_store.gather_segments32(
                np.array([0], dtype=np.int64), np.ones(1, dtype=np.int64)
            )
        monkeypatch.undo()
        assert tiny_store.gather_segments32(
            np.array([0], dtype=np.int64), np.ones(1, dtype=np.int64)
        ).size == 1


class TestLargeStore:
    def test_window_matches_bruteforce(self, rng):
        hash_values = rng.integers(-50, 50, size=(3, 400)).astype(np.int64)
        store = InvertedListStore(hash_values)
        for func in range(3):
            for lo, hi in [(-10, 10), (0, 0), (-50, 49), (20, 45)]:
                got = sorted(_read(store, func, lo, hi).tolist())
                want = sorted(
                    np.flatnonzero(
                        (hash_values[func] >= lo) & (hash_values[func] <= hi)
                    ).tolist()
                )
                assert got == want


class TestWideHashDomain:
    """Value ranges past int32 (int64 relative runs) and past the
    composite-key range (per-needle search) against per-row searches."""

    @pytest.mark.parametrize("span", [2**33, 2**61])
    def test_reads_and_insert_match_searchsorted(self, rng, span):
        hash_values = rng.integers(-span, span, size=(4, 600), dtype=np.int64)
        hash_values[:, :40] = hash_values[:, 40:80]  # ties
        store = InvertedListStore(hash_values, PageLayout(page_size=64, entry_size=8))
        assert store.compact_shard(np.arange(600))[0]["rel"].dtype == np.int64
        values, ids = store.runs()
        funcs = rng.integers(0, 4, size=300)
        bounds = np.concatenate(
            [rng.integers(-span - 9, span + 9, size=200), values[funcs[200:], 7]]
        )
        # Window starts are left searches, insert positions right ones.
        starts, _stops = store.batch_window_positions(funcs, bounds, bounds)
        inserts = store.batch_entry_positions(funcs, bounds)
        for got, side in ((starts, "left"), (inserts, "right")):
            want = [
                f * 600 + np.searchsorted(values[f], b, side=side)
                for f, b in zip(funcs, bounds)
            ]
            assert got.tolist() == want
        bounds = np.sort(rng.integers(-span, span, size=(4, 4)), axis=1)
        rounds = _rounds(
            store, [(bounds[:, 1], bounds[:, 2]), (bounds[:, 0], bounds[:, 3])]
        )
        for f, (lo, ilo, ihi, hi) in enumerate(bounds):
            start = np.searchsorted(values[f], lo, side="left")
            stop = np.searchsorted(values[f], hi, side="right")
            assert _read(store, f, lo, hi).tolist() == ids[f, start:stop].tolist()
            left = np.searchsorted(values[f], ilo, side="left")
            right = np.searchsorted(values[f], ihi, side="right")
            assert rounds[0][f] == ids[f, left:right].tolist()
            ring = np.concatenate([ids[f, start:left], ids[f, right:stop]])
            assert rounds[1][f] == ring.tolist()
        starts = np.array([0, 650, 1_799], dtype=np.int64)
        lens = np.array([30, 0, 400], dtype=np.int64)
        want = np.concatenate([ids.ravel()[a : a + b] for a, b in zip(starts, lens)])
        assert store.gather_segments32(starts, lens).tolist() == want.tolist()

        wider = span + span // 2  # extends the domain both ways
        batch = rng.integers(-wider, wider, size=(4, 9), dtype=np.int64)
        batch[:, 0] = values[:, 5]
        plan = store.insert(batch, np.arange(600, 609))
        order = np.argsort(batch, axis=1, kind="stable")
        for f in range(4):
            sorted_batch = batch[f, order[f]]
            assert plan.positions[f].tolist() == np.searchsorted(
                values[f], sorted_batch, side="right"
            ).tolist()
        fresh = InvertedListStore(np.concatenate([hash_values, batch], axis=1))
        for got, want in zip(store.runs(), fresh.runs()):
            assert np.array_equal(got, want)
        np.testing.assert_array_equal(plan.hash_values(), batch)

    def test_save_load_round_trip(self, tmp_path):
        """A wide-domain index writes int64 ``values``/``ids`` runs and
        loads them back identically, compacted into RAM on open."""
        data = make_synthetic(300, 6, seed=5) * 100.0
        config = LazyLSHConfig(c=3.0, p_min=0.5, seed=3, mc_samples=10_000, mc_buckets=60)
        index = LazyLSH(config).build(data)
        assert index.store.compact_shard(np.arange(1))[0]["rel"].dtype == np.int64
        path = save_index(index, tmp_path / "wide.npz")
        header, arrays = open_v3_arrays(path)
        assert list(arrays) == ["data", "alive", "projections", "offsets", "values", "ids"]
        assert header["v3"]["top_per_row"] == 0
        loaded = load_index(path)
        info = loaded.store.storage_info()
        assert info["backend"] == "eager"
        assert info["source_path"] is None
        for got, want in zip(loaded.store.runs(), index.store.runs()):
            assert np.array_equal(got, want)
        for query in (data[7], data[123] + 50.0):
            a, b = index.knn(query, 5, p=0.8), loaded.knn(query, 5, p=0.8)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert (a.io.sequential, a.io.random) == (b.io.sequential, b.io.random)

    def test_span_wider_than_int64_rejected(self):
        with pytest.raises(InvalidParameterError, match="wider than int64"):
            InvertedListStore(np.array([[-(2**62), 2**62]], dtype=np.int64))


class TestFootprint:
    """Compact runs only: 8 bytes per entry (int32 relative values and
    int32 ids) plus the coarse ``row_top`` keys — never an int64 copy."""

    @staticmethod
    def _bound(store):
        entries = store.num_functions * store.num_points
        top = store.num_functions * -(-store.num_points // _TOP_STRIDE)
        return 8 * entries + 8 * top

    def test_build_insert_and_v3_load(self, tmp_path):
        data = make_synthetic(700, 8, seed=11)
        config = LazyLSHConfig(c=3.0, p_min=0.5, seed=4, mc_samples=10_000, mc_buckets=60)
        index = LazyLSH(config).build(data[:600])
        store = index.store
        assert store.storage_info()["resident_bytes"] <= self._bound(store)
        index.insert(data[600:])
        assert store.storage_info()["resident_bytes"] <= self._bound(store)
        path = save_index(index, tmp_path / "idx.npz")
        loaded = load_index(path).store
        assert loaded.storage_info()["resident_bytes"] <= self._bound(loaded)
        for got, want in zip(loaded.runs(), store.runs()):
            assert np.array_equal(got, want)

    def test_shard_searcher_after_insert(self):
        rng = np.random.default_rng(5)
        store = InvertedListStore(rng.integers(-500, 500, size=(300, 40)))
        arrays, state = store.compact_shard(np.arange(40))
        searcher = ShardSearcher(
            0,
            InvertedListStore.from_compact(
                arrays["rel"], arrays["ids"], arrays["row_top"], state
            ),
            arrays["positions"].ravel(), np.arange(40), np.zeros((40, 2)),
            np.ones(40, dtype=bool),
        )
        batch = rng.integers(-600, 600, size=(300, 6))
        plan = store.insert(batch, np.arange(40, 46))
        searcher.apply_update({
            "op": "insert", "lsn": 1, "epoch": 1, "plan": plan,
            "points": np.zeros((6, 2)), "batch_start": 40,
            "owners": np.zeros(6, dtype=np.int64),
        })
        searcher.round([])
        assert searcher.store.storage_info()["resident_bytes"] <= self._bound(
            searcher.store
        )
        runs = [
            value for value in vars(searcher).values()
            if isinstance(value, np.ndarray) and value.size >= 300 * searcher.m
        ]
        assert runs and all(value.dtype == np.int32 for value in runs)
