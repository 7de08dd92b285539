"""Per-hash-function inverted lists backing virtual rehashing.

The materialised base index of LazyLSH/C2LSH stores, for every base hash
function ``h*_i``, the list of ``(hash value, point id)`` pairs sorted by
hash value.  Retrieving every point whose base bucket lies inside a hash
window ``[lo, hi]`` is then one contiguous scan of the sorted run — exactly
what virtual rehashing (C2LSH) and query-centric rehashing (LazyLSH)
exploit.

The store only stores, searches and gathers.  Every reader — the flat
engine, the shard workers, the scalar oracle and ``range_query`` —
finds a round's windows with one :meth:`batch_window_positions` call
and reads their entries with one :meth:`gather_segments32` call, and
charges sequential I/O itself, per overlapped 4 KB page of the run and
once per query (the scalar readers through a
:class:`~repro.storage.pages.PageTracker`).

Storage layout (flat-array execution engine)
--------------------------------------------

All runs have the same length (every point is hashed by every function),
so the store keeps each run as a row of two flat ``(num_functions *
num_points)`` arrays: ``rel``, the hash values relative to the smallest
one (``vmin``), and ``ids``, the int32 point ids — 8 bytes per entry.
``rel`` is int32 whenever the value range ``stride = vmax - vmin + 2``
fits (``stride <= 2**31 - 2``) and int64 only for wider hash domains.
A row-aligned coarse sample of every ``_TOP_STRIDE``-th entry, as int64
composite keys ``func * stride + rel`` (``row_top``), lets a *batched*
window query — all ``eta`` windows of one rehashing round, or all
windows of a whole query batch — be answered with one small
``np.searchsorted`` plus a fixed-stride refinement, both window ends in
one call (:meth:`batch_window_positions`).  Every search is a left
search: on integer keys the right end of ``[lo, hi]`` is the left
position of ``hi + 1``, and :meth:`batch_entry_positions` (where an
insert lands) is the left search of ``value + 1``.

:meth:`insert` merges a batch straight into fresh ``rel``/``ids`` arrays
and recomputes only ``row_top``; ``vmin``/``stride`` always bound the
stored values exactly, so a store that received inserts equals a fresh
build over the same points.  :meth:`runs` widens the runs to int64
``(values, ids)`` matrices on demand (the v3 writer, tests).

A store opened from a saved index (:func:`repro.persistence.load_index`)
adopts read-only ``np.memmap`` views of the file's run sections through
:meth:`from_compact`, so the OS page cache is the buffer pool the page
accounting simulates.  Nothing records how the runs are held:
:meth:`storage_info` reads it off the arrays, and the first
:meth:`insert` leaves fresh runs in RAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import InvalidParameterError
from repro.storage.pages import PageLayout


@dataclass(frozen=True)
class SearchState:
    """Two-level window-search state of a compact sorted store.

    ``vmin`` is the value the runs are relative to, ``stride`` the value
    range plus two (the gap separating neighbouring runs' composite
    search keys) and ``top_per_row`` the coarse keys per run, so a reader
    can restore the search index without touching the runs.
    """

    vmin: int
    stride: int
    top_per_row: int


@dataclass(frozen=True)
class InsertPlan:
    """Where an :meth:`InvertedListStore.insert` batch landed, per run.

    ``rel_values`` holds the batch's hash values (shape ``(num_functions,
    m)``, batch column order) relative to the store's post-insert
    ``vmin``, in the store's run dtype.  Row ``f`` of ``positions``
    lists, in the stable sorted order of row ``f`` of the hash values,
    each entry's ``side="right"`` insertion position in function ``f``'s
    *old* run: sorted entry ``r`` lands at ``positions[f, r] + r``, and
    an old entry at position ``p`` shifts right by the count of
    ``positions[f] <= p`` (new entries land after equal-valued old
    ones).  A replica that holds only a sub-run of each list (a shard
    worker) can replay this plan and end up bit-identical to a fresh
    rebuild — the contract the sharded service's live update path relies
    on (DESIGN §11).
    """

    rel_values: np.ndarray
    vmin: int
    positions: np.ndarray

    def hash_values(self) -> np.ndarray:
        """The batch's absolute int64 hash values, batch column order."""
        return self.rel_values.astype(np.int64) + np.int64(self.vmin)


#: Composite ``row_top`` keys (``func * stride + rel``) must stay well
#: inside int64; wider hash domains fall back to a per-needle search.
_MAX_COMPOSITE_KEY = 2**62

#: Widest value range whose value-relative runs are stored as int32.
_MAX_INT32_STRIDE = 2**31 - 2

#: Coarse sampling stride of the two-level window search: every
#: ``_TOP_STRIDE``-th composite key forms a cache-resident top index, so a
#: batched lookup is one ``searchsorted`` over the small top array plus a
#: fixed-stride refinement inside one ``_TOP_STRIDE``-entry window.
#: Turning each needle's ~``log2(F * n)`` dependent, scattered probes into
#: a few *independent* bulk gathers is what makes the batched search
#: memory-parallel.  Must be a power of two.
_TOP_STRIDE = 256

#: Binary-lifting strides of the refinement (128, 64, ..., 1, then 1
#: more): they sum to ``_TOP_STRIDE``, so a needle can pass every entry
#: of its window.
_LIFT_STEPS = tuple(
    _TOP_STRIDE >> s for s in range(1, _TOP_STRIDE.bit_length())
) + (1,)


def sort_rows(
    values: np.ndarray, vmin: int, vmax: int, dtype: type = np.int64
) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the integer matrix ``values`` in (value, column) order.

    ``[vmin, vmax]`` must bound ``values``.  Returns the sorted values
    less ``vmin``, in ``dtype``, and their int32 columns, in exactly a
    stable argsort's order: each entry is sorted as the unique int64 key
    ``(value - vmin) << bits | column``, so numpy's unstable SIMD sort
    cannot reorder ties.  A domain whose keys would pass
    ``_MAX_COMPOSITE_KEY`` keeps the stable argsort.
    """
    n = values.shape[1]
    bits = max(n - 1, 0).bit_length()
    if (vmax - vmin + 1) << bits > _MAX_COMPOSITE_KEY:
        order = np.argsort(values, axis=1, kind="stable")
        rel = np.take_along_axis(values, order, axis=1) - np.int64(vmin)
        return rel.astype(dtype, copy=False), order.astype(np.int32)
    keys = np.subtract(values, vmin, dtype=np.int64)
    keys <<= bits
    keys |= np.arange(n, dtype=np.int64)
    keys.sort(axis=1)
    rel, cols = np.empty(keys.shape, dtype=dtype), np.empty(keys.shape, dtype=np.int32)
    np.right_shift(keys, bits, out=rel, casting="unsafe")
    np.bitwise_and(keys, (1 << bits) - 1, out=cols, casting="unsafe")
    return rel, cols


def merge_runs(
    olds: list[np.ndarray], news: list[np.ndarray], positions: np.ndarray
) -> list[np.ndarray]:
    """Merge sorted batches into flat row-major runs, one pass per array.

    ``olds`` are flat ``(F * n)`` arrays whose rows are parallel runs;
    ``news`` the matching ``(F, m)`` batch entries in sorted order and
    ``positions`` their ``(F, m)`` insertion positions in the old rows.
    Batch entry ``r`` of row ``f`` lands at ``positions[f, r] + r`` of the
    merged ``(F * (n + m))`` array and the old entries fill the rest in
    order.  The store's :meth:`~InvertedListStore.insert` and the shard
    workers' position arrays share this one merge.
    """
    num_rows, m = positions.shape
    new_n = olds[0].shape[0] // num_rows + m
    dest = (
        np.arange(num_rows, dtype=np.int64)[:, None] * new_n
        + positions
        + np.arange(m, dtype=np.int64)
    ).ravel()
    keep = np.ones(num_rows * new_n, dtype=bool)
    keep[dest] = False
    merged = []
    for old, new in zip(olds, news):
        out = np.empty(num_rows * new_n, dtype=new.dtype)
        out[dest] = new.ravel()
        out[keep] = old
        merged.append(out)
    return merged


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
        self._init_common(hash_values.shape, layout)
        self._set_domain(*_bounds(hash_values))
        self._set_runs(*sort_rows(hash_values, *self.value_range, self._rel_dtype()))

    @classmethod
    def from_runs(
        cls, values: np.ndarray, ids: np.ndarray, layout: PageLayout | None = None
    ) -> "InvertedListStore":
        """A store over already sorted int64 ``(values, ids)`` run matrices."""
        values = np.asarray(values)
        store = cls.__new__(cls)
        store._init_common(values.shape, layout)
        store._set_domain(*_bounds(values))
        rel = values - np.int64(store._vmin)
        store._set_runs(rel.astype(store._rel_dtype(), copy=False), np.array(ids, np.int32))
        return store

    @classmethod
    def from_compact(
        cls,
        rel: np.ndarray,
        ids: np.ndarray,
        row_top: np.ndarray | None,
        state: SearchState,
        layout: PageLayout | None = None,
    ) -> "InvertedListStore":
        """A store over compact runs, adopted without a copy.

        ``rel``/``ids`` are ``(num_functions, num_points)`` runs (values
        relative to ``state.vmin``, and int32 ids) and ``row_top`` their
        coarse search index, as :meth:`compact_shard` and the v3 file
        hold them.  Unlike ``__init__``, which sorts raw hash values,
        this trusts the arrays verbatim, so opening a v3 file over its
        ``np.memmap`` sections is O(1) bookkeeping.
        """
        store = cls.__new__(cls)
        store._init_common(rel.shape, layout)
        store._rel = rel.ravel()
        store._ids = ids.ravel()
        store._row_top = row_top
        store._vmin = int(state.vmin)
        store._stride = int(state.stride)
        store._top_per_row = int(state.top_per_row)
        return store

    def _init_common(self, shape: tuple, layout: PageLayout | None) -> None:
        # Optional telemetry hook (see repro.obs.StoreObserver); ``None``
        # keeps the hot paths on a single ``is None`` check.
        self.observer = None
        self._layout = layout or PageLayout()
        self._num_functions, self._num_points = (int(x) for x in shape)
        self._check_ids_fit(self._num_points)
        self._iota_cache: np.ndarray | None = None

    def _set_runs(self, rel: np.ndarray, ids: np.ndarray) -> None:
        """Adopt sorted ``(F, n)`` runs relative to ``vmin`` and their int32 ids."""
        self._rel = rel.ravel()
        self._ids = ids.ravel()
        self._refresh_row_top()

    def _set_domain(self, vmin: int, vmax: int) -> None:
        """Adopt the exact value range ``[vmin, vmax]``."""
        stride = vmax - vmin + 2
        if stride > 2**63 - 1:
            raise InvalidParameterError(
                f"hash values span [{vmin}, {vmax}], wider than int64"
            )
        self._vmin = vmin
        self._stride = stride

    def _rel_dtype(self) -> type:
        return np.int32 if self._stride <= _MAX_INT32_STRIDE else np.int64

    def _refresh_row_top(self) -> None:
        """Rebuild the coarse row-aligned search keys from ``rel``."""
        self._top_per_row = -(-self._num_points // _TOP_STRIDE)
        self._row_top = _top_keys(
            self._rel.reshape(self._num_functions, self._num_points),
            self._stride,
        )

    @staticmethod
    def _check_ids_fit(id_bound: int) -> None:
        """Refuse ids at or above ``id_bound`` once it passes int32."""
        if id_bound > 2**31 - 1:
            raise InvalidParameterError(
                f"int32 id shadow cannot represent ids up to {id_bound}"
            )

    def storage_info(self) -> dict:
        """Open mode and memory accounting, read off the run arrays.

        Runs that are ``np.memmap`` views of a v3 file report
        ``"mmap"`` and that file's name; runs in RAM (built, inserted
        into, or compacted from a wide-domain file) report ``"eager"``
        and no source path.
        """
        arrays = [a for a in (self._rel, self._ids, self._row_top) if a is not None]
        mapped = isinstance(self._rel, np.memmap)
        return {
            "backend": "mmap" if mapped else "eager",
            "source_path": str(self._rel.filename) if mapped else None,
            "resident_bytes": int(sum(
                a.nbytes for a in arrays if not isinstance(a, np.memmap)
            )),
            "mapped_bytes": int(sum(
                a.nbytes for a in arrays if isinstance(a, np.memmap)
            )),
        }

    def mapped_arrays(self) -> dict[str, np.ndarray]:
        """File-backed run arrays by name (empty for runs in RAM).

        The ops plane probes these regions with ``mincore(2)`` to
        publish page-cache residency gauges.
        """
        named = {"rel32": self._rel, "ids32": self._ids, "row_top": self._row_top}
        return {
            name: arr
            for name, arr in named.items()
            if isinstance(arr, np.memmap)
        }

    @property
    def value_range(self) -> tuple[int, int]:
        """The exact ``(vmin, vmax)`` of the stored hash values."""
        return self._vmin, self._vmin + self._stride - 2

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

    # ------------------------------------------------------------------
    # Batched search and gather (every reader's storage primitives)
    # ------------------------------------------------------------------

    def batch_window_positions(
        self, funcs: np.ndarray, los: np.ndarray, his: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry ranges of the windows ``[los[j], his[j]]``, in one search.

        Returns ``(starts, stops)`` as absolute flat positions: window
        ``j`` holds entries ``[starts[j], stops[j])`` of function
        ``funcs[j]``'s run (``stops[j] < starts[j]`` is possible when
        ``his[j] < los[j]``).  On integer keys ``searchsorted(run, hi,
        "right")`` equals ``searchsorted(run, hi + 1, "left")``, so both
        ends are left searches of one needle array; the ``+ 1`` is taken
        after clipping to the stored range, where it cannot overflow.
        """
        funcs = np.asarray(funcs, dtype=np.int64)
        m = funcs.shape[0]
        keys = np.concatenate([self._relative(los), self._relative(his) + 1])
        pos = self._search(np.concatenate([funcs, funcs]), keys)
        return pos[:m], pos[m:]

    def batch_entry_positions(self, funcs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Where ``values`` would be inserted, in one search.

        For every pair ``(funcs[j], values[j])`` returns the *absolute*
        flat position ``funcs[j] * num_points + searchsorted(run_values,
        values[j], "right")``: after equal values, where :meth:`insert`
        and the shard workers land new entries.  It is the left search
        at ``values[j] + 1``.
        """
        keys = self._relative(values) + 1
        return self._search(np.asarray(funcs, dtype=np.int64), keys)

    def _relative(self, bounds: np.ndarray) -> np.ndarray:
        """``bounds - vmin`` clipped to ``[-1, stride - 1]``.

        Stored values lie in ``[0, stride - 2]``, so the clip changes no
        search answer and leaves room for a ``+ 1``.
        """
        rel = np.asarray(bounds, dtype=np.int64) - self._vmin
        return np.clip(rel, -1, self._stride - 1)

    def _search(self, funcs: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Absolute left ``searchsorted`` positions of relative ``keys``.

        A direct composite-key ``np.searchsorted`` binary-searches each
        needle serially: ~``log2(F * n)`` *dependent* probes scattered
        over an array too large to cache, which is latency-bound.  Here a
        coarse ``searchsorted`` over the small row-aligned top index
        narrows every needle to one ``_TOP_STRIDE``-entry window of its
        own run, and fixed power-of-two strides finish the search — each
        probe is one *bulk* gather whose cache misses overlap across all
        needles.
        """
        if self.observer is not None:
            self.observer.on_search(int(funcs.shape[0]))
        n = self._num_points
        base = funcs * n
        if n == 0:
            return base
        if self._row_top is None:
            # Hash domains too wide for composite keys: one search per needle.
            return base + np.array(
                [
                    np.searchsorted(self._rel[b : b + n], key)
                    for b, key in zip(base.tolist(), keys.tolist())
                ],
                dtype=np.int64,
            )
        # ``j`` counts the top keys of the needle's own run below it: keys
        # lie in ``[-1, stride]`` and stored values in ``[0, stride - 2]``,
        # so the neighbouring runs' composite keys all fall on their own
        # side.  The answer therefore lies in ``[w, w + _TOP_STRIDE]`` for
        # ``w = max(j - 1, 0) * _TOP_STRIDE``, and still does once ``w``
        # is moved back to ``n - _TOP_STRIDE``: then every probe below
        # stays inside the run, where runs compare in their own dtype.
        j = np.searchsorted(self._row_top, keys + funcs * self._stride)
        j -= funcs * self._top_per_row
        pos = base + np.minimum(
            np.maximum(j - 1, 0) * _TOP_STRIDE, max(n - _TOP_STRIDE, 0)
        )
        runs = self._rel
        keys = keys.astype(runs.dtype)
        # A run shorter than one window clamps its probes to its last
        # entry: that overshoots only when every entry lies below the
        # key, and the final clamp to the run end gives the answer.
        last = base + (n - 1) if n < _TOP_STRIDE else None
        for step in _LIFT_STEPS:
            probe = pos + (step - 1)
            if last is not None:
                np.minimum(probe, last, out=probe)
            pos += step * (runs[probe] < keys)
        if last is not None:
            np.minimum(pos, last + 1, out=pos)
        return pos

    def gather_segments32(self, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Concatenated int32 ids of the entry segments ``[starts[j],
        starts[j] + lens[j])`` of the flat layout, in segment order.

        The flat engine's block scans are bandwidth-bound streaming reads;
        the store's own int32 ids halve the traffic of an int64 copy.
        """
        self._check_ids_fit(self._num_points)
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int32)
        if self.observer is not None:
            self.observer.on_gather(total)
        offsets = np.empty(lens.shape[0], dtype=np.int64)
        offsets[0] = 0
        np.cumsum(lens[:-1], out=offsets[1:])
        idx = np.repeat(starts - offsets, lens)
        idx += self._iota(total)
        return self._ids[idx]

    def _iota(self, total: int) -> np.ndarray:
        """Read-only ``arange(total)`` view from a grow-only cache."""
        cache = self._iota_cache
        if cache is None or cache.shape[0] < total:
            cache = np.arange(max(total, 4096), dtype=np.int64)
            cache.setflags(write=False)
            self._iota_cache = cache
        return cache[:total]

    # ------------------------------------------------------------------
    # Whole runs and shards (persistence, repro.serve)
    # ------------------------------------------------------------------

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted runs as fresh int64 ``(values, ids)`` matrices."""
        shape = (self._num_functions, self._num_points)
        values = self._rel.reshape(shape).astype(np.int64)
        values += self._vmin
        return values, self._ids.reshape(shape).astype(np.int64)

    def compact_shard(
        self, ids: np.ndarray
    ) -> tuple[dict[str, Any], SearchState]:
        """Extract the shard owning the sorted point ids ``ids`` of every run.

        Returns the arrays of a :meth:`from_compact` store over the
        shard's sub-runs — ``rel`` (values relative to this store's
        ``vmin``), ``ids`` (int32 local ids: the rank of each id in
        ``ids``) and ``row_top`` — plus ``positions`` (each entry's int32
        position in the full run) and the sub-runs' search state, all of
        shape ``(num_functions, len(ids))`` but ``row_top``.  Every run
        contains each point id exactly once, so the extraction is
        rectangular, and because the sub-runs preserve run order their
        window endpoints restrict the full run's endpoints exactly — the
        property the sharded service's bit-identical I/O reconstruction
        relies on.  The arrays are fresh copies: nothing references this
        store's (possibly mapped) runs afterwards.
        """
        ids = np.asarray(ids, dtype=np.int64)
        n = self._num_points
        if (
            ids.ndim != 1
            or ids.size == 0
            or ids[0] < 0
            or ids[-1] >= n
            or np.any(np.diff(ids) <= 0)
        ):
            raise InvalidParameterError(
                "shard ids must be a non-empty, strictly increasing 1-D "
                f"array inside [0, {n})"
            )
        m = int(ids.size)
        local = np.full(n, -1, dtype=np.int32)
        local[ids] = np.arange(m, dtype=np.int32)
        sub = local[self._ids]
        flat = np.flatnonzero(sub >= 0)
        shape = (self._num_functions, m)
        rel = self._rel[flat].reshape(shape)
        arrays = {
            "rel": rel,
            "ids": sub[flat].reshape(shape),
            "positions": (flat % n).astype(np.int32).reshape(shape),
            "row_top": _top_keys(rel, self._stride),
        }
        return arrays, SearchState(self._vmin, self._stride, -(-m // _TOP_STRIDE))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, hash_values: np.ndarray, ids: np.ndarray) -> InsertPlan:
        """Insert new points into every function's sorted run.

        One batched ``searchsorted`` finds every new entry's insertion
        position, then :func:`merge_runs` writes the new ``rel`` and id
        arrays directly and only ``row_top`` is recomputed.  A batch value
        outside the current range moves ``vmin``/``stride`` to the exact
        new bounds; the old runs are rebased only when ``vmin`` falls (or
        the range outgrows int32).  New entries land after equal-valued
        old ones, and equal new values keep their batch order.

        Returns an :class:`InsertPlan` recording exactly where every new
        entry landed, so a replica holding a sub-run of each list (a shard
        worker) can apply the same placement.

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
        num_funcs, n = self._num_functions, self._num_points
        if hash_values.ndim != 2 or hash_values.shape[0] != num_funcs:
            raise InvalidParameterError(
                f"hash_values must have shape ({num_funcs}, m), "
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
        values = hash_values.astype(np.int64)
        m = int(ids.size)
        if m == 0:
            return InsertPlan(
                values.astype(self._rel.dtype), self._vmin,
                np.empty((num_funcs, 0), dtype=np.int32),
            )
        self._check_ids_fit(max(int(ids.max()) + 1, n + m))
        lo, hi = _bounds(values)
        old_vmin, old_rel = self._vmin, self._rel
        if n:
            lo = min(lo, old_vmin)
            hi = max(hi, old_vmin + self._stride - 2)
        # Sort each function's batch in (value, column) order so the
        # merged runs stay sorted and equal new values keep their batch
        # order; ``rel`` is relative to the post-insert ``vmin``, ``lo``.
        rel, order = sort_rows(values, lo, hi)
        funcs_rep = np.repeat(np.arange(num_funcs, dtype=np.int64), m)
        positions = (
            self.batch_entry_positions(funcs_rep, rel.ravel() + lo)
            - funcs_rep * n
        ).reshape(num_funcs, m).astype(np.int32)
        self._set_domain(lo, hi)
        dtype = self._rel_dtype()
        if self._vmin != old_vmin or old_rel.dtype != dtype:
            old_rel = np.add(old_rel, old_vmin - self._vmin, dtype=dtype)
        self._rel, self._ids = merge_runs(
            [old_rel, self._ids],
            [rel.astype(dtype), ids[order].astype(np.int32)],
            positions,
        )
        self._num_points = n + m
        # The merged runs live in RAM however the old ones were held: a
        # store mapped from a v3 file materialises on its first insert.
        self._refresh_row_top()
        return InsertPlan((values - self._vmin).astype(dtype), self._vmin, positions)


def _bounds(values: np.ndarray) -> tuple[int, int]:
    """The smallest and largest entry of ``values`` (``(0, 0)`` if empty)."""
    return (int(values.min()), int(values.max())) if values.size else (0, 0)


def _top_keys(rel: np.ndarray, stride: int) -> np.ndarray | None:
    """Row-aligned coarse search keys ``func * stride + rel`` of every
    ``_TOP_STRIDE``-th entry of the ``(F, n)`` runs ``rel``, flat int64
    (``None`` when the keys would not fit)."""
    if rel.shape[0] * stride >= _MAX_COMPOSITE_KEY:
        return None
    funcs = np.arange(rel.shape[0], dtype=np.int64)[:, None]
    return (rel[:, ::_TOP_STRIDE] + funcs * stride).ravel()
