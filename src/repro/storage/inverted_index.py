"""Per-hash-function inverted lists backing virtual rehashing.

The materialised base index of LazyLSH/C2LSH stores, for every base hash
function ``h*_i``, the list of ``(hash value, point id)`` pairs sorted by
hash value.  Retrieving every point whose base bucket lies inside a hash
window ``[lo, hi]`` is then one contiguous scan of the sorted run — exactly
what virtual rehashing (C2LSH) and query-centric rehashing (LazyLSH)
exploit.  Sequential I/O is charged per overlapped 4 KB page of the run.

Storage layout (flat-array execution engine)
--------------------------------------------

All runs have the same length (every point is hashed by every function),
so the store keeps two contiguous ``(num_functions, num_points)`` int64
matrices — ``values`` and ``ids`` — whose rows are the sorted runs.  The
row-major flat view of ``values`` is globally sorted under the composite
key ``func * stride + (value - vmin)``, which lets a *batched* window
query — all ``eta`` windows of one rehashing round, or all windows of a
whole query batch — be answered with two vectorised ``np.searchsorted``
calls over one flat key array (:meth:`batch_entry_positions`,
:meth:`read_windows`).  Sequential I/O for a batch is charged by interval
arithmetic (:class:`~repro.storage.pages.PageTracker`) rather than a
per-page Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._typing import IdArray
from repro.errors import InvalidParameterError
from repro.storage.backend import SearchState, StorageBackend
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout, PageTracker


@dataclass(frozen=True)
class InsertPlan:
    """Where an :meth:`InvertedListStore.insert` batch landed, per run.

    All matrices have shape ``(num_functions, m)``; row ``f`` is sorted
    by hash value (ties in original batch order, matching the store's
    stable per-function batch sort).

    ``rel_positions[f, r]`` is the ``side="right"`` insertion position of
    entry ``r`` in function ``f``'s *old* run — every old entry at
    position ``p`` therefore shifts right by the count of plan entries
    with ``rel_positions <= p`` (strictly ``< p`` never occurs at equal
    positions because new entries land after equal-valued old ones).
    ``dest_positions[f, r] = rel_positions[f, r] + r`` is the entry's
    final position in the new, ``old_rows + m``-long run.  A replica that
    holds only a sub-run of each list (a shard worker) can replay this
    plan and end up bit-identical to a fresh rebuild — the contract the
    sharded service's live update path relies on (DESIGN §11).
    """

    values: np.ndarray
    ids: np.ndarray
    rel_positions: np.ndarray
    dest_positions: np.ndarray
    old_rows: int

#: Composite window-search keys must stay well inside int64; wider value
#: ranges fall back to a per-function ``searchsorted`` loop.
_MAX_COMPOSITE_KEY = 2**62

#: Coarse sampling stride of the two-level window search: every
#: ``_TOP_STRIDE``-th composite key forms a cache-resident top index, so a
#: batched lookup is one ``searchsorted`` over the small top array plus a
#: vectorised binary-search refinement inside one ``_TOP_STRIDE``-entry
#: window.  Turning each needle's ~``log2(F * n)`` dependent, scattered
#: probes into a few *independent* bulk gathers is what makes the batched
#: search memory-parallel.
_TOP_STRIDE = 256


class InvertedListStore:
    """Sorted ``(hash value, id)`` runs, one per base hash function.

    Parameters
    ----------
    hash_values:
        Integer matrix of shape ``(num_functions, num_points)`` where entry
        ``[i, j]`` is ``h*_i`` applied to point ``j``.
    layout:
        Page layout used for sequential-I/O accounting; defaults to 4 KB
        pages with 8-byte entries.
    """

    def __init__(
        self, hash_values: np.ndarray, layout: PageLayout | None = None
    ) -> None:
        hash_values = np.asarray(hash_values)
        if hash_values.ndim != 2:
            raise InvalidParameterError(
                f"hash_values must be 2-D (functions x points), got shape "
                f"{hash_values.shape}"
            )
        if not np.issubdtype(hash_values.dtype, np.integer):
            raise InvalidParameterError(
                f"hash values must be integers, got dtype {hash_values.dtype}"
            )
        # Optional telemetry hook (see repro.obs.StoreObserver); must be
        # bound before any method that reads it runs.  ``None`` keeps the
        # hot paths on a single ``is None`` check.
        self.observer = None
        self._layout = layout or PageLayout()
        num_functions, num_points = hash_values.shape
        self._num_functions = int(num_functions)
        self._num_points = int(num_points)
        order = np.argsort(hash_values, axis=1, kind="stable")
        self._ids = np.ascontiguousarray(order.astype(np.int64))
        self._values = np.ascontiguousarray(
            np.take_along_axis(hash_values.astype(np.int64), order, axis=1)
        )
        self._rebuild_search_keys()
        self._backend: StorageBackend | None = None
        self._iota_cache: np.ndarray | None = None
        # Lazy inverse permutation for bucket_of (diagnostics only).
        self._id_order: np.ndarray | None = None
        self._ids_by_id: np.ndarray | None = None

    @classmethod
    def from_backend(
        cls, backend: StorageBackend, layout: PageLayout | None = None
    ) -> "InvertedListStore":
        """Adopt pre-sorted runs (and search state) from a storage backend.

        Unlike ``__init__``, which sorts the raw hash values and rebuilds
        the two-level search index, this constructor trusts the backend's
        arrays verbatim — the v3 saver materialised them from an already
        consistent store, so opening is O(1) array bookkeeping.  Missing
        acceleration arrays (old files, wide hash domains) fall back to
        :meth:`_rebuild_search_keys`.
        """
        store = cls._adopt(
            backend.values, backend.ids, backend.values.shape,
            backend.search_state, backend.rel32, backend.row_top,
            backend.ids32, layout,
        )
        store._backend = backend
        return store

    @classmethod
    def from_compact(
        cls,
        rel32: np.ndarray,
        ids32: np.ndarray,
        row_top: np.ndarray,
        state: SearchState,
    ) -> "InvertedListStore":
        """A search-only store over compact runs (no int64 copies).

        ``rel32``/``ids32`` are ``(num_functions, num_points)`` int32 runs
        (values relative to ``state.vmin``, and ids) and ``row_top`` their
        coarse search index, as :meth:`compact_shard` writes them.  The
        store answers :meth:`batch_entry_positions` and
        :meth:`gather_segments32`, the round kernel's two primitives, and
        :meth:`runs` widens it; other reads and :meth:`insert` need int64
        runs it does not hold.
        """
        return cls._adopt(
            None, None, rel32.shape, state, rel32.ravel(), row_top,
            ids32.ravel(), None,
        )

    @classmethod
    def _adopt(
        cls, values: Any, ids: Any, shape: tuple, state: SearchState | None,
        rel32, row_top, ids32, layout: PageLayout | None,
    ) -> "InvertedListStore":
        store = cls.__new__(cls)
        store.observer = None
        store._layout = layout or PageLayout()
        store._num_functions, store._num_points = (int(x) for x in shape)
        store._values = values
        store._ids = ids
        store._backend = None
        store._iota_cache = None
        store._id_order = None
        store._ids_by_id = None
        if state is None or rel32 is None:
            store._rebuild_search_keys()
        else:
            store._keys = None
            store._vmin = int(state.vmin)
            store._stride = int(state.stride)
            store._top_per_row = int(state.top_per_row)
            store._rel32 = rel32
            store._row_top = row_top
            store._ids32_flat = ids32
        return store

    @property
    def backend_kind(self) -> str:
        """``"eager"`` or ``"mmap"`` — how the run arrays are held."""
        return "eager" if self._backend is None else self._backend.kind

    def storage_info(self) -> dict:
        """Open-mode and memory accounting for health/metrics surfaces."""
        arrays: list[np.ndarray] = [self._values, self._ids]
        for arr in (self._ids32_flat, self._rel32, self._row_top, self._keys):
            if arr is not None:
                arrays.append(arr)
        resident = sum(
            a.nbytes for a in arrays if not isinstance(a, np.memmap)
        )
        mapped = sum(a.nbytes for a in arrays if isinstance(a, np.memmap))
        source = None if self._backend is None else self._backend.source_path
        return {
            "backend": self.backend_kind,
            "source_path": None if source is None else str(source),
            "resident_bytes": int(resident),
            "mapped_bytes": int(mapped),
        }

    def mapped_arrays(self) -> dict[str, np.ndarray]:
        """File-backed run arrays by name (empty for the eager backend).

        The ops plane probes these regions with ``mincore(2)`` to
        publish page-cache residency gauges.
        """
        named = {
            "values": self._values,
            "ids": self._ids,
            "ids32": self._ids32_flat,
            "rel32": self._rel32,
            "row_top": self._row_top,
            "keys": self._keys,
        }
        return {
            name: arr
            for name, arr in named.items()
            if isinstance(arr, np.memmap)
        }

    # ------------------------------------------------------------------
    # Flat-layout internals
    # ------------------------------------------------------------------

    def _rebuild_search_keys(self) -> None:
        """(Re)build the composite flat search keys after any mutation."""
        self._ids32_flat: np.ndarray | None = None
        self._rel32: np.ndarray | None = None
        self._row_top: np.ndarray | None = None
        self._top_per_row = 0
        if self._values.size == 0:
            self._vmin = 0
            self._stride = 2
            self._keys: np.ndarray | None = self._values.ravel()
            return
        # Runs are sorted, so their first and last columns bound them.
        vmin = int(self._values[:, 0].min())
        vmax = int(self._values[:, -1].max())
        stride = vmax - vmin + 2
        self._vmin = vmin
        self._stride = stride
        if stride <= 2**31 - 2:
            # Two-level search state: int32 value-relative runs plus a
            # row-aligned coarse sample (every _TOP_STRIDE-th entry of
            # each run, as int64 composite keys so one searchsorted
            # covers all functions).  Row alignment keeps every
            # refinement window inside a single run, where int32
            # comparisons are order-faithful.
            self._keys = None
            self._rel32 = np.subtract(
                self._values.ravel(), vmin,
                out=np.empty(self._values.size, dtype=np.int32),
                casting="unsafe",
            )
            self._top_per_row = -(-self._num_points // _TOP_STRIDE)
            funcs = np.arange(self._num_functions, dtype=np.int64)[:, None]
            self._row_top = (
                (self._values[:, ::_TOP_STRIDE] - vmin) + funcs * stride
            ).ravel()
        elif self._num_functions * stride < _MAX_COMPOSITE_KEY:
            # pragma: no cover - hash domains wider than int32
            funcs = np.arange(self._num_functions, dtype=np.int64)[:, None]
            self._keys = ((self._values - vmin) + funcs * stride).ravel()
        else:  # pragma: no cover - astronomically wide hash domains
            self._keys = None

    @property
    def num_functions(self) -> int:
        """Number of base hash functions materialised."""
        return self._num_functions

    @property
    def num_points(self) -> int:
        """Number of indexed points."""
        return self._num_points

    @property
    def layout(self) -> PageLayout:
        """Page layout used for I/O accounting."""
        return self._layout

    def size_bytes(self) -> int:
        """Total simulated on-disk size of all inverted lists."""
        return self._num_functions * self._layout.size_bytes(self._num_points)

    def size_mb(self) -> float:
        """Simulated index size in mebibytes."""
        return self.size_bytes() / (1024.0 * 1024.0)

    def _entry_range(self, func: int, lo: int, hi: int) -> tuple[int, int]:
        """Half-open entry range of hash values inside ``[lo, hi]``."""
        values = self._values[func]
        start = int(np.searchsorted(values, lo, side="left"))
        stop = int(np.searchsorted(values, hi, side="right"))
        return start, stop

    def _check_func(self, func: int) -> None:
        if not 0 <= func < self._num_functions:
            raise InvalidParameterError(
                f"hash function index {func} out of range "
                f"[0, {self._num_functions})"
            )

    # ------------------------------------------------------------------
    # Batched window search (the flat engine's storage primitive)
    # ------------------------------------------------------------------

    def batch_entry_positions(
        self, funcs: np.ndarray, bounds: np.ndarray, side: str
    ) -> np.ndarray:
        """Vectorised ``searchsorted`` into many runs at once.

        For every pair ``(funcs[j], bounds[j])`` returns the *absolute*
        flat position ``funcs[j] * num_points + searchsorted(run_values,
        bounds[j], side)`` — one ``np.searchsorted`` call over the
        composite key array answers all pairs.
        """
        funcs = np.asarray(funcs, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        if self.observer is not None:
            self.observer.on_search(int(funcs.shape[0]))
        if self._rel32 is not None:
            return self._two_level_search(funcs, bounds, side)
        if self._keys is not None:  # pragma: no cover - >int32 hash domains
            clipped = np.clip(
                bounds, self._vmin - 1, self._vmin + self._stride - 1
            )
            keys = (clipped - self._vmin) + funcs * self._stride
            return np.searchsorted(self._keys, keys, side=side)
        out = np.empty(funcs.shape[0], dtype=np.int64)  # pragma: no cover
        for j in range(funcs.shape[0]):  # pragma: no cover
            f = int(funcs[j])
            out[j] = f * self._num_points + np.searchsorted(
                self._values[f], bounds[j], side=side
            )
        return out  # pragma: no cover

    def _two_level_search(
        self, funcs: np.ndarray, bounds: np.ndarray, side: str
    ) -> np.ndarray:
        """Exact batched per-run ``searchsorted``.

        A direct composite-key ``np.searchsorted`` binary-searches each
        needle serially: ~``log2(F * n)`` *dependent* probes scattered
        over an array too large to cache, which is latency-bound.  Here a
        coarse ``searchsorted`` over the small row-aligned top index
        narrows every needle to one ``_TOP_STRIDE``-entry window of its
        own run, and a fixed number of vectorised refinement steps finish
        the search — each step is one *bulk* int32 gather whose cache
        misses overlap across all needles.
        """
        n = self._num_points
        rel = np.clip(bounds - self._vmin, -1, self._stride - 1)
        t = np.searchsorted(
            self._row_top, rel + funcs * self._stride, side=side
        )
        # ``t`` stays inside the needle's own function block (the +2
        # margin in ``stride`` separates neighbouring blocks strictly),
        # so the refinement window sits inside one run.
        j = t - funcs * self._top_per_row
        lo = np.maximum(j - 1, 0) * _TOP_STRIDE
        hi = np.minimum(j * _TOP_STRIDE, n)
        rel = rel.astype(np.int32)
        rel32 = self._rel32
        base = funcs * n
        # The window brackets the answer, so ceil(log2(_TOP_STRIDE)) + 1
        # halvings converge for every needle; once lo == hi == answer the
        # clamped probe keeps both updates no-ops (probe at ``answer``
        # compares above the needle, or ``answer == n`` and the probe at
        # ``n - 1`` sends ``lo`` back to ``n``), so no active mask is
        # needed.
        steps = int(_TOP_STRIDE - 1).bit_length() + 1
        for _ in range(steps):
            mid = np.minimum((lo + hi) >> 1, n - 1)
            probe = rel32[base + mid]
            if side == "left":
                go_right = probe < rel
            else:
                go_right = probe <= rel
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(go_right, hi, mid)
        return base + lo

    def gather_segments(self, starts: np.ndarray, lens: np.ndarray) -> IdArray:
        """Concatenated ids of entry segments ``[starts[j], starts[j] +
        lens[j])`` of the flat layout, in segment order."""
        idx = self._segment_indices(starts, lens)
        if idx is None:
            return np.empty(0, dtype=np.int64)
        if self.observer is not None:
            self.observer.on_gather(int(idx.size))
        return self._ids.ravel()[idx]

    def gather_segments32(self, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """:meth:`gather_segments` from a compact int32 id shadow.

        The flat engine's block scans are bandwidth-bound streaming reads;
        halving the entry width halves the traffic.  Point ids index the
        data matrix, so they fit int32 for any store this engine can hold;
        the guard below keeps the invariant explicit rather than letting a
        hypothetical >2**31-point store silently truncate ids.
        """
        if self._num_points > 2**31 - 1:
            raise InvalidParameterError(
                f"int32 id shadow cannot represent {self._num_points} points;"
                " use gather_segments"
            )
        idx = self._segment_indices(starts, lens)
        if idx is None:
            return np.empty(0, dtype=np.int32)
        if self.observer is not None:
            self.observer.on_gather(int(idx.size))
        ids32 = self._ids32_flat
        if ids32 is None:
            ids32 = self._ids.ravel().astype(np.int32, copy=False)
            self._ids32_flat = ids32
        return ids32[idx]

    def _segment_indices(self, starts: np.ndarray, lens: np.ndarray):
        total = int(lens.sum())
        if total == 0:
            return None
        offsets = np.empty(lens.shape[0], dtype=np.int64)
        offsets[0] = 0
        np.cumsum(lens[:-1], out=offsets[1:])
        idx = np.repeat(starts - offsets, lens)
        idx += self._iota(total)
        return idx

    def _iota(self, total: int) -> np.ndarray:
        """Read-only ``arange(total)`` view from a grow-only cache."""
        cache = self._iota_cache
        if cache is None or cache.shape[0] < total:
            cache = np.arange(max(total, 4096), dtype=np.int64)
            cache.setflags(write=False)
            self._iota_cache = cache
        return cache[:total]

    def _charge_segments(
        self,
        funcs: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        stats: IOStats | None,
        pages: PageTracker | None,
    ) -> None:
        """Charge sequential I/O for flat entry segments (one per func).

        ``starts``/``stops`` are absolute flat positions; empty segments
        cost nothing.  With a :class:`PageTracker` the charge is
        deduplicated against previously read pages by interval arithmetic.
        """
        if stats is None and pages is None:
            return
        rel_starts = starts - funcs * self._num_points
        rel_stops = stops - funcs * self._num_points
        epp = self._layout.entries_per_page
        nonempty = rel_stops > rel_starts
        first = rel_starts // epp
        last_stop = np.where(nonempty, (rel_stops - 1) // epp + 1, first)
        if pages is None:
            total = int(np.sum(last_stop - first))
            if stats is not None:
                stats.add_sequential(total)
            return
        new = 0
        for j in np.flatnonzero(nonempty):
            new += pages.charge(int(funcs[j]), int(first[j]), int(last_stop[j]))
        if stats is not None:
            stats.add_sequential(new)

    def read_windows(
        self,
        funcs: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
        stats: IOStats | None = None,
        pages: PageTracker | None = None,
    ) -> tuple[IdArray, np.ndarray]:
        """Batched :meth:`read_window`: all windows in two ``searchsorted``.

        Returns ``(ids, bounds)`` where ``ids`` is the concatenation of
        every window's ids and ``bounds`` (length ``len(funcs) + 1``)
        delimits window ``j``'s segment as ``ids[bounds[j]:bounds[j+1]]``.
        Sequential I/O is charged per window exactly as the scalar method
        would, deduplicated against ``pages`` when given.
        """
        funcs = np.asarray(funcs, dtype=np.int64)
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        if not (funcs.shape == los.shape == his.shape) or funcs.ndim != 1:
            raise InvalidParameterError(
                "funcs, los and his must be 1-D arrays of equal length"
            )
        if funcs.size and (funcs.min() < 0 or funcs.max() >= self._num_functions):
            raise InvalidParameterError(
                f"hash function indices must lie in [0, {self._num_functions})"
            )
        starts = self.batch_entry_positions(funcs, los, side="left")
        stops = np.maximum(
            starts, self.batch_entry_positions(funcs, his, side="right")
        )
        lens = stops - starts
        bounds = np.empty(funcs.shape[0] + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(lens, out=bounds[1:])
        ids = self.gather_segments(starts, lens)
        self._charge_segments(funcs, starts, stops, stats, pages)
        return ids, bounds

    def read_rings(
        self,
        funcs: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
        inner_los: np.ndarray,
        inner_his: np.ndarray,
        stats: IOStats | None = None,
        pages: PageTracker | None = None,
    ) -> tuple[IdArray, np.ndarray]:
        """Batched :meth:`read_ring` over many functions at once.

        Each ring is returned as its left side run followed by its right
        side run (matching the scalar method); ``bounds`` delimits the
        per-function segments of the concatenated ``ids``.
        """
        funcs = np.asarray(funcs, dtype=np.int64)
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        inner_los = np.asarray(inner_los, dtype=np.int64)
        inner_his = np.asarray(inner_his, dtype=np.int64)
        degenerate = inner_los > inner_his
        bad = ~degenerate & ((los > inner_los) | (inner_his > his))
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            raise InvalidParameterError(
                f"inner window [{inner_los[j]}, {inner_his[j]}] must nest "
                f"inside [{los[j]}, {his[j]}]"
            )
        # Degenerate inner windows read the full [lo, hi] as their "left"
        # run and an empty right run.
        left_his = np.where(degenerate, his, inner_los - 1)
        right_los = np.where(degenerate, his + 1, inner_his + 1)
        seg_funcs = np.repeat(funcs, 2)
        seg_los = np.empty(2 * funcs.shape[0], dtype=np.int64)
        seg_his = np.empty_like(seg_los)
        seg_los[0::2] = los
        seg_his[0::2] = left_his
        seg_los[1::2] = right_los
        seg_his[1::2] = his
        ids, seg_bounds = self.read_windows(
            seg_funcs, seg_los, seg_his, stats, pages
        )
        return ids, seg_bounds[0::2]

    # ------------------------------------------------------------------
    # Scalar reads (legacy / baseline API)
    # ------------------------------------------------------------------

    def _charge_pages(
        self,
        func: int,
        start: int,
        stop: int,
        stats: IOStats | None,
        seen_pages: set[tuple[int, int]] | PageTracker | None,
    ) -> None:
        """Charge sequential I/O for entries ``[start, stop)`` of ``func``.

        When ``seen_pages`` is given (multi-query optimisation, Sec. 4.3),
        only pages not previously read in this batch are charged, and the
        tracker is updated in place.  A :class:`PageTracker` dedups by
        interval arithmetic; a plain ``set`` of ``(func, page)`` keys is
        still supported for backward compatibility.
        """
        if stats is None and seen_pages is None:
            return
        first, last_plus_one = self._layout.page_span(start, stop)
        if seen_pages is None:
            if stats is not None:
                stats.add_sequential(last_plus_one - first)
            return
        if isinstance(seen_pages, PageTracker):
            new_pages = seen_pages.charge(func, first, last_plus_one)
        else:
            new_pages = 0
            for page in range(first, last_plus_one):
                key = (func, page)
                if key not in seen_pages:
                    seen_pages.add(key)
                    new_pages += 1
        if stats is not None:
            stats.add_sequential(new_pages)

    def read_window(
        self,
        func: int,
        lo: int,
        hi: int,
        stats: IOStats | None = None,
        seen_pages: set[tuple[int, int]] | PageTracker | None = None,
    ) -> IdArray:
        """Ids of points whose base hash value lies in ``[lo, hi]``.

        Charges one sequential I/O per 4 KB page overlapped by the scanned
        entry range (deduplicated against ``seen_pages`` when provided).
        """
        self._check_func(func)
        if hi < lo:
            return np.empty(0, dtype=np.int64)
        start, stop = self._entry_range(func, lo, hi)
        if self.observer is not None:
            self.observer.on_window_read(int(stop - start))
        if stop > start:
            self._charge_pages(func, start, stop, stats, seen_pages)
        return self._ids[func, start:stop]

    def read_ring(
        self,
        func: int,
        lo: int,
        hi: int,
        inner_lo: int,
        inner_hi: int,
        stats: IOStats | None = None,
        seen_pages: set[tuple[int, int]] | PageTracker | None = None,
    ) -> IdArray:
        """Ids in ``[lo, hi]`` but outside the already-visited ``[inner_lo,
        inner_hi]`` window (Algorithm 4 line 10).

        Reads the two side runs ``[lo, inner_lo - 1]`` and
        ``[inner_hi + 1, hi]``, charging pages for each run separately (they
        are disjoint scans on disk).
        """
        self._check_func(func)
        if inner_lo > inner_hi:
            # Nothing was visited before; degenerate to a plain window read.
            return self.read_window(func, lo, hi, stats, seen_pages)
        if not (lo <= inner_lo and inner_hi <= hi):
            raise InvalidParameterError(
                f"inner window [{inner_lo}, {inner_hi}] must nest inside "
                f"[{lo}, {hi}]"
            )
        left = self.read_window(func, lo, inner_lo - 1, stats, seen_pages)
        right = self.read_window(func, inner_hi + 1, hi, stats, seen_pages)
        if left.size == 0:
            return right
        if right.size == 0:
            return left
        return np.concatenate([left, right])

    # ------------------------------------------------------------------
    # Sharding (repro.serve)
    # ------------------------------------------------------------------

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted runs as ``(values, ids)`` matrices, values int64.

        A :meth:`from_compact` store widens its int32 values into a fresh
        array and returns a view of its int32 ids; any other store returns
        its own arrays.
        """
        if self._values is not None:
            return self._values, self._ids
        assert self._rel32 is not None and self._ids32_flat is not None
        shape = (self._num_functions, self._num_points)
        return (
            self._rel32.reshape(shape) + np.int64(self._vmin),
            self._ids32_flat.reshape(shape),
        )

    def shard_view(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Extract the contiguous id-range shard ``[lo, hi)`` of every run.

        Returns ``(values, ids, positions)``, each of shape
        ``(num_functions, hi - lo)``: for every hash function, the sorted
        sub-run of entries whose point id lies in ``[lo, hi)``, in
        original run order, plus each entry's position in the full run.
        Every run contains each point id exactly once, so the extraction
        is rectangular, and because the sub-runs preserve run order their
        window endpoints (``searchsorted`` on ``values``) restrict the
        full run's endpoints exactly — the property the sharded service's
        bit-identical I/O reconstruction relies on.

        The returned arrays are fresh copies, safe to export through
        shared memory while the store keeps serving queries.
        """
        flat = self._shard_entries(lo, hi)
        shape = (self._num_functions, hi - lo)
        positions = (flat % self._num_points).reshape(shape)
        values = self._values.ravel()[flat].reshape(shape)
        ids = self._ids.ravel()[flat].reshape(shape)
        return values, ids, positions

    def compact_shard(
        self, lo: int, hi: int
    ) -> tuple[dict[str, np.ndarray], SearchState]:
        """Shard ``[lo, hi)`` in the round kernel's compact form.

        Returns the arrays of a :meth:`from_compact` store over the
        shard's sub-runs — ``rel32`` (values relative to this store's
        ``vmin``), ``ids32`` (local ids ``id - lo``) and ``row_top`` —
        plus ``positions`` (each entry's int32 position in the full run)
        and the sub-runs' search state.  Everything is gathered from the
        int32 search shadows, so no int64 copy of the runs is made.
        """
        if self._rel32 is None:  # pragma: no cover - >int32 hash domains
            raise InvalidParameterError("compact shards need int32 runs")
        flat = self._shard_entries(lo, hi)
        m = hi - lo
        ids = self._ids.ravel() if self._ids32_flat is None else self._ids32_flat
        shape = (self._num_functions, m)
        rel32 = self._rel32[flat].reshape(shape)
        funcs = np.arange(self._num_functions, dtype=np.int64)[:, None]
        arrays = {
            "rel32": rel32,
            "ids32": (ids[flat] - lo).astype(np.int32, copy=False).reshape(shape),
            "positions": (flat % self._num_points).astype(np.int32).reshape(shape),
            "row_top": (rel32[:, ::_TOP_STRIDE] + funcs * self._stride).ravel(),
        }
        return arrays, SearchState(self._vmin, self._stride, -(-m // _TOP_STRIDE))

    def _shard_entries(self, lo: int, hi: int) -> np.ndarray:
        """Flat positions of the entries with ``lo <= id < hi``, in order."""
        if not 0 <= lo < hi <= self._num_points:
            raise InvalidParameterError(
                f"shard range [{lo}, {hi}) must satisfy 0 <= lo < hi <= "
                f"{self._num_points}"
            )
        ids = self._ids.ravel() if self._ids32_flat is None else self._ids32_flat
        return np.flatnonzero((ids >= lo) & (ids < hi))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, hash_values: np.ndarray, ids: np.ndarray) -> "InsertPlan":
        """Insert new points into every function's sorted run.

        One allocation pass: the destination slot of every old and new
        entry is computed up front (a batched ``searchsorted`` for the
        insertion positions plus a boolean scatter mask), then values and
        ids are placed into freshly allocated ``(functions, points + m)``
        matrices — instead of reallocating every run twice via per-function
        ``np.insert`` calls.

        Returns an :class:`InsertPlan` recording exactly where every new
        entry landed, so a replica holding a sub-run of each list (a shard
        worker) can apply the same placement without re-sorting.

        Parameters
        ----------
        hash_values:
            Integer matrix of shape ``(num_functions, m)``: the new
            points' base hash values.
        ids:
            Their ``m`` point ids (must not collide with existing ids;
            the store does not check — the index layer owns id assignment).
        """
        hash_values = np.asarray(hash_values)
        ids = np.asarray(ids, dtype=np.int64)
        if hash_values.ndim != 2 or hash_values.shape[0] != self._num_functions:
            raise InvalidParameterError(
                f"hash_values must have shape ({self._num_functions}, m), "
                f"got {hash_values.shape}"
            )
        if ids.shape != (hash_values.shape[1],):
            raise InvalidParameterError(
                f"ids must have shape ({hash_values.shape[1]},), got {ids.shape}"
            )
        if not np.issubdtype(hash_values.dtype, np.integer):
            raise InvalidParameterError(
                f"hash values must be integers, got dtype {hash_values.dtype}"
            )
        if ids.size == 0:
            empty = np.empty((self._num_functions, 0), dtype=np.int64)
            return InsertPlan(
                values=empty, ids=empty, rel_positions=empty,
                dest_positions=empty, old_rows=self._num_points,
            )
        num_funcs = self._num_functions
        n = self._num_points
        m = int(ids.size)
        values = hash_values.astype(np.int64)
        # Values sharing an insertion position keep their given order, so
        # sort each function's batch first to preserve the run's sortedness.
        batch_order = np.argsort(values, axis=1, kind="stable")
        values = np.take_along_axis(values, batch_order, axis=1)
        batch_ids = ids[batch_order]
        funcs_rep = np.repeat(np.arange(num_funcs, dtype=np.int64), m)
        positions = self.batch_entry_positions(
            funcs_rep, values.ravel(), side="right"
        )
        rel_positions = (positions - funcs_rep * n).reshape(num_funcs, m)
        new_n = n + m
        # Destination of new entry r of function f: its insertion position
        # shifted by the r new entries placed before it and the function's
        # new row offset.
        dest = (
            np.arange(num_funcs, dtype=np.int64)[:, None] * new_n
            + rel_positions
            + np.arange(m, dtype=np.int64)[None, :]
        ).ravel()
        taken = np.zeros(num_funcs * new_n, dtype=bool)
        taken[dest] = True
        new_values = np.empty(num_funcs * new_n, dtype=np.int64)
        new_ids = np.empty(num_funcs * new_n, dtype=np.int64)
        new_values[dest] = values.ravel()
        new_ids[dest] = batch_ids.ravel()
        new_values[~taken] = self._values.ravel()
        new_ids[~taken] = self._ids.ravel()
        self._values = new_values.reshape(num_funcs, new_n)
        self._ids = new_ids.reshape(num_funcs, new_n)
        self._num_points = new_n
        self._rebuild_search_keys()
        # The fresh runs live in RAM regardless of how the old ones were
        # held: a previously mmap-backed store materialises on mutation.
        self._backend = None
        self._id_order = None
        self._ids_by_id = None
        return InsertPlan(
            values=values,
            ids=batch_ids,
            rel_positions=rel_positions,
            dest_positions=rel_positions + np.arange(m, dtype=np.int64)[None, :],
            old_rows=n,
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def window_page_cost(self, func: int, lo: int, hi: int) -> int:
        """Pages a :meth:`read_window` call would charge, without reading."""
        self._check_func(func)
        if hi < lo:
            return 0
        start, stop = self._entry_range(func, lo, hi)
        return self._layout.pages_for_range(start, stop)

    def bucket_of(self, func: int, point_id: int) -> int:
        """Base hash value of ``point_id`` under function ``func``.

        Intended for tests and diagnostics (the forward map is normally the
        hash bank's job, not the store's).  The id -> run-position map is a
        lazily built inverse permutation, so lookups are O(log n) instead
        of an O(n) scan.
        """
        self._check_func(func)
        if self._id_order is None or self._ids_by_id is None:
            self._id_order = np.argsort(self._ids, axis=1, kind="stable")
            self._ids_by_id = np.take_along_axis(self._ids, self._id_order, axis=1)
        row = self._ids_by_id[func]
        pos = int(np.searchsorted(row, point_id))
        if pos >= row.shape[0] or int(row[pos]) != int(point_id):
            raise InvalidParameterError(
                f"point id {point_id} is not stored in the inverted lists"
            )
        return int(self._values[func, self._id_order[func, pos]])
