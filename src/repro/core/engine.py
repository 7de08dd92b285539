"""Flat-array query execution engine for Algorithm 4.

The seed implementation of :meth:`LazyLSH.knn` is interpreter-bound: a
Python loop over all ``eta`` hash functions per rehashing round, one
``searchsorted`` per function per round, and an ``np.asarray`` rebuild of
the candidate-distance list on every inner termination check.  This module
re-executes the *same plan* with batched kernels:

* all of a round's window (or ring) entry ranges are answered by one
  vectorised search over the store's flat layout
  (:meth:`InvertedListStore.batch_window_positions`) — across every hash
  function *and* every query of a batch simultaneously;
* the round's scans are then consumed in *blocks* of hash functions sized
  by ring entries (:func:`block_ends`): the first block takes the
  functions whose entries fit ``_BLOCK_ROW_ENTRIES`` entries per stored
  row and each later block twice the previous budget, so a short round
  is one block, and a query that terminates at function ``i`` of its
  final round gathers about twice the entries of functions ``[0, i]``
  plus one budget at most, like the scalar loop's mid-round ``break``;
* collision counts are updated with one ``np.bincount`` per block, and
  the per-function threshold crossings are recovered with one stable
  argsort (the rank of a point's occurrence within the block tells at
  which function its count crossed ``theta``);
* the "``k`` candidates within ``c * delta``" termination condition is
  maintained incrementally (a counter plus the shrinking set of
  outside-radius distances), so each per-function check is O(1) — the
  first function at which a query terminates falls out of one ``cumsum``;
* sequential I/O is charged by interval arithmetic on per-function page
  hulls instead of a per-page Python loop.

Each round splits into a **scan kernel** (:meth:`LaneGroup.scan`: ring
runs, blocks, crossings and each lane's local stop over one store) and a
**merge step** (:meth:`LaneGroup.merge`: the exact stop, page charging,
promotion and termination over one or more scans).  The engine scans its
full store in-process; the sharded service's workers run the same kernel
over their sub-run stores and the coordinator merges their parts, so
:func:`execute_rounds` is the one Algorithm-4 driver besides the scalar
oracle.  Every lane group walks one radius schedule, Section 4.3's:
round ``j`` searches level ``level0 * c**j`` (``level0`` is 1, or
``r_hat * radius`` under a single-metric radius override) and each
lane's radius is ``delta = level / r_hat``.

The engine is a pure execution-plan change: candidate order, termination
round/function, results, and the simulated sequential/random I/O counts
are bit-identical to the scalar oracle (``LazyLSH._scalar_knn``), which
the paper's evaluation measures.

Why exactness holds
-------------------

The scalar loop's observable state only changes at threshold crossings,
and within one block the crossing function of a point is determined by its
collision count at block start plus the number of consumed windows
containing it.  Promotions are re-ordered here by flat scan position —
function-major, left ring run before right — which is precisely the
scalar visit order, and mid-round termination is re-derived as the first
function where the cumulative within-radius count reaches ``k`` (or the
candidate budget is exhausted), so I/O is charged only for the windows
the scalar loop would actually have read.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from repro._typing import PointVector
from repro.core.hashing import WINDOWS
from repro.metrics.lp import lp_distance
from repro.storage.io_stats import IOStats

#: Hard cap on rehashing rounds, shared by every Algorithm-4 driver
#: (:func:`execute_rounds` and the scalar oracle).  The level grows by
#: a factor ``c`` per round, so a legitimate query terminates in a few
#: dozen rounds at most.
_MAX_ROUNDS = 128

#: Non-termination diagnostic of every Algorithm-4 driver.
_KNN_ABORT = "knn did not terminate; this indicates a corrupted index"

#: Algorithm-4 termination reasons, shared by the flat and scalar paths
#: (and re-exported by :mod:`repro.obs` for trace consumers).
TERMINATION_K_WITHIN = "k_within_radius"
TERMINATION_CAP = "candidate_cap"

#: Ring entries per stored row that a round's first block may gather;
#: the budget doubles on every later block (:func:`block_ends`), so a
#: round costs a few block overheads while a stop in its final block
#: gathers at most about twice the entries it needs.  Rings, and where a
#: query stops in them, scale with the row count, so a per-row budget
#: cuts rounds alike at every store size; a fixed entry budget would put
#: a small shard's whole final round into one block, scanned past the
#: stop.
_BLOCK_ROW_ENTRIES = 4

#: Sentinel for "no pages seen yet" per-function page hulls.
_HULL_EMPTY_FIRST = 2**62

#: ``slack`` value for rows that can never cross the collision threshold
#: (deleted points and already-promoted candidates).  Far above any
#: possible per-block collision count, and decremented by at most the
#: total number of window memberships of one query (< 2**18), so such a
#: row never fires the ``add > slack`` crossing test.
_SLACK_DEAD = 2**30

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_F64.setflags(write=False)


def charge_ring_hulls(
    first_l: np.ndarray,
    stop_l: np.ndarray,
    mask_l: np.ndarray,
    first_r: np.ndarray,
    stop_r: np.ndarray,
    mask_r: np.ndarray,
    seen_first: np.ndarray,
    seen_stop: np.ndarray,
) -> np.ndarray:
    """Charge left/right ring page runs against per-function page hulls.

    ``first_*``/``stop_*`` are half-open page intervals per function
    (ignored where the matching mask is False); ``seen_first``/
    ``seen_stop`` are the hulls of pages already charged, extended *in
    place*.  Returns the per-function count of newly read pages.

    The merge step's pure interval arithmetic: a ring half outside the
    hull sits entirely below its first page or at/above its stop page,
    so the two new-page counts plus one inclusion-exclusion term for
    the shared boundary page never double count.
    """
    over_l = np.maximum(
        np.minimum(stop_l, seen_stop) - np.maximum(first_l, seen_first), 0
    )
    over_r = np.maximum(
        np.minimum(stop_r, seen_stop) - np.maximum(first_r, seen_first), 0
    )
    new_l = np.where(mask_l, (stop_l - first_l) - over_l, 0)
    new_r = np.where(mask_r, (stop_r - first_r) - over_r, 0)
    dup_first = np.maximum(first_l, first_r)
    dup_stop = np.minimum(stop_l, stop_r)
    dup = np.maximum(dup_stop - dup_first, 0)
    dup -= np.maximum(
        np.minimum(dup_stop, seen_stop) - np.maximum(dup_first, seen_first), 0
    )
    dup = np.where(mask_l & mask_r, dup, 0)
    new = new_l + new_r - dup
    np.minimum(seen_first, np.where(mask_l, first_l, seen_first), out=seen_first)
    np.minimum(seen_first, np.where(mask_r, first_r, seen_first), out=seen_first)
    np.maximum(seen_stop, np.where(mask_l, stop_l, seen_stop), out=seen_stop)
    np.maximum(seen_stop, np.where(mask_r, stop_r, seen_stop), out=seen_stop)
    return new


def block_ends(entry_cum: np.ndarray, n_rows: int) -> list[int]:
    """Exclusive function ends of one round's scan blocks.

    ``entry_cum`` is the inclusive prefix sum of the round's ring entries
    per function (``np.cumsum(func_lens)``) over a store of ``n_rows``
    rows.  The first block takes the functions whose entries fit
    ``_BLOCK_ROW_ENTRIES * n_rows`` (at least one entry), at least one
    function; each later block gets twice the previous budget.  The
    partition is a plan choice only: consumers re-derive the exact stop
    function inside a block, so any partition gives the same answers,
    traces and I/O.
    """
    ends: list[int] = []
    end, done, budget = 0, 0, max(1, _BLOCK_ROW_ENTRIES * n_rows)
    while end < entry_cum.shape[0]:
        end = max(end + 1, int(np.searchsorted(entry_cum, done + budget, "right")))
        ends.append(end)
        done = int(entry_cum[end - 1])
        budget *= 2
    return ends


class RingCursor:
    """One query's previous-round windows and entry ranges, per function.

    Algorithm 4 reads, from round two on, only the *ring* of each
    function's window — the part outside the window it already scanned.
    :meth:`split` turns a round's window entry ranges into that ring's
    left and right runs.  The flat engine and the shard workers share
    it; a worker's sub-run store restricts the engine's ranges, and the
    split commutes with that restriction.
    """

    def __init__(self, eta: int) -> None:
        self.plos = np.zeros(eta, dtype=np.int64)
        self.phis = np.zeros(eta, dtype=np.int64)
        self.pstarts = np.zeros(eta, dtype=np.int64)
        self.pstops = np.zeros(eta, dtype=np.int64)
        self.first_round = True

    def split(self, los, his, starts, stops) -> tuple[np.ndarray, np.ndarray]:
        """Ring segments of this round's windows; advances the cursor.

        ``starts``/``stops`` are the windows' entry ranges (absolute flat
        positions) for functions ``[0, len(los))``.  Returns
        ``(seg_starts, seg_lens)`` with the left run of function ``f`` at
        ``2f`` and its right run at ``2f + 1`` — the engine's scan order.
        """
        f = los.shape[0]
        stops = np.maximum(starts, stops)
        left_stops = right_starts = stops
        if not self.first_round:
            nested = (los <= self.plos[:f]) & (self.phis[:f] <= his)
            left_stops = np.where(nested, np.minimum(self.pstarts[:f], stops), stops)
            right_starts = np.where(nested, np.maximum(self.pstops[:f], starts), stops)
        seg_starts = np.empty(2 * f, dtype=np.int64)
        seg_starts[0::2] = starts
        seg_starts[1::2] = right_starts
        seg_lens = np.empty(2 * f, dtype=np.int64)
        seg_lens[0::2] = left_stops - starts
        seg_lens[1::2] = stops - right_starts
        self.plos[:f], self.phis[:f] = los, his
        self.pstarts[:f], self.pstops[:f] = starts, stops
        self.first_round = False
        return seg_starts, seg_lens


def find_crossings(
    sub: np.ndarray, slack: np.ndarray, lookup: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each row's collision count crosses ``theta`` in a scan.

    ``sub`` is one block's stream of row ids in scan order, ``slack`` the
    rows' remaining collisions before they cross, and ``lookup`` an
    all-False scratch mask over the rows (left all-False on return).
    Returns ``(elems, add)``: the ascending stream positions of the
    crossing occurrences and the block's per-row collision counts.

    Avoids sorting the whole stream: one ``bincount`` finds the (few)
    rows whose count crosses within the block, and only their
    occurrences are ranked — a row crosses at its occurrence of
    zero-based rank ``slack`` — to recover the exact function, hence
    scan position, of each crossing.
    """
    add = np.bincount(sub, minlength=slack.shape[0])
    crossers = np.flatnonzero(add > slack)
    if not crossers.size:
        return _EMPTY_I64, add
    lookup[crossers] = True
    pos = np.flatnonzero(lookup[sub])
    lookup[crossers] = False
    psub = sub[pos]
    # numpy's stable sort of 16-bit keys is a radix sort, ~10x faster
    # than on int32: it matters when most rows of a small store cross
    # within one block.
    key = psub.astype(np.uint16) if slack.shape[0] <= 1 << 16 else psub
    order = np.argsort(key, kind="stable")
    sid = psub[order]
    first = np.empty(sid.size, dtype=bool)
    first[0] = True
    np.not_equal(sid[1:], sid[:-1], out=first[1:])
    group_starts = np.flatnonzero(first)
    group_idx = np.cumsum(first) - 1
    rank = np.arange(sid.size, dtype=np.int64) - group_starts[group_idx]
    elems = pos[order[rank == slack[sid]]]
    elems.sort()
    return elems, add


def first_stop(
    cross_func: np.ndarray, inside: np.ndarray, nf: int,
    n_cand: int, n_within: int, k: int, cap: float,
) -> tuple[int | None, str]:
    """The first function at which Algorithm 4 terminates, if any.

    ``cross_func`` holds the (relative) function of each promotion in
    functions ``[0, nf)``, ascending, and ``inside`` whether its
    distance lies within ``c * delta``; ``n_cand``/``n_within`` are the
    counts before them.  Returns ``(stop, reason)``, or ``(None, "")``
    when the query runs through all ``nf`` functions.  The scalar loop
    tests after every function; the counts only grow at promotions, so
    the stop is function 0 if the pre-round counts already pass, else
    the function of the first promotion after which they do.  The
    scalar loop tests the within-radius condition before the candidate
    cap, so it wins when both hold at the end of the stop function.
    """
    if nf <= 0:
        return None, ""
    within = n_within + np.cumsum(inside)
    if n_within >= k or n_cand > cap:
        stop = 0
    else:
        cand = np.arange(n_cand + 1, n_cand + 1 + within.size)
        hit = (within >= k) | (cand > cap)
        if not hit.any():
            return None, ""
        stop = int(cross_func[int(np.argmax(hit))])
    last = int(np.searchsorted(cross_func, stop, side="right"))
    if (within[last - 1] if last else n_within) >= k:
        return stop, TERMINATION_K_WITHIN
    return stop, TERMINATION_CAP


class Lane:
    """Per-(query, metric) Algorithm-4 state inside a lane group."""

    __slots__ = (
        "p",
        "params",
        "k",
        "cap",
        "theta",
        "eta",
        "slack",
        "id_chunks",
        "dist_chunks",
        "n_cand",
        "n_within",
        "outside",
        "active",
        "rounds",
        "io",
        "shard_random",
        "c_delta",
        "stop_reason",
        "trace",
    )

    def __init__(self, p: float, params, k: int, cap: float) -> None:
        self.p = p
        self.params = params
        self.k = k
        self.cap = cap
        self.theta = int(params.theta)
        self.eta = int(params.eta)
        # Fused crossing test: row j's count crosses theta within a block
        # iff the block adds more than ``slack[j]`` collisions.  Rows that
        # cannot cross (dead or already candidates) carry _SLACK_DEAD.
        # The group allocates it on its first scan (LaneGroup._bind).
        self.slack: np.ndarray | None = None
        self.id_chunks: list[np.ndarray] = []
        self.dist_chunks: list[np.ndarray] = []
        self.n_cand = 0
        # Incremental termination bookkeeping: ``n_within`` counts the
        # candidates already inside the current round's ``c * delta``;
        # ``outside`` holds the distances not yet inside, re-filtered once
        # per round as the radius grows (each distance is scanned only
        # while it remains outside).
        self.n_within = 0
        self.outside = np.empty(0, dtype=np.float64)
        self.active = True
        self.rounds = 0
        self.io = IOStats()
        # Random I/O per scan part (per shard), when the caller tracks it.
        self.shard_random: np.ndarray | None = None
        # ``c * delta`` of the current round (LaneGroup.begin_round).
        self.c_delta = 0.0
        # Why the lane terminated, and the QueryTraceBuilder of its
        # record: the engine or coordinator that merges the lane sets it
        # (LazyLSH._lane_group); a shard worker's lanes only scan.
        self.stop_reason = ""
        self.trace = None

    def begin_round_radius(self) -> None:
        """Refresh the within-radius counter for the new (larger) radius."""
        if self.outside.size:
            newly = self.outside < self.c_delta
            hits = int(np.count_nonzero(newly))
            if hits:
                self.n_within += hits
                self.outside = self.outside[~newly]

    def candidate_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.id_chunks:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        return (
            np.concatenate(self.id_chunks),
            np.concatenate(self.dist_chunks),
        )


class ScanPart(NamedTuple):
    """One store's scan of one lane group's round.

    ``ext`` holds the full-run positions of the first (row 0) and last
    (row 1) entry of every ring run the scan gathered — column ``2f``
    for the left run of function ``f``, ``2f + 1`` for its right run.
    Where a run is empty or was not gathered, row 0 holds
    ``_HULL_EMPTY_FIRST`` and row 1 ``-1``, so the extents of several
    scans fold by an elementwise min and max.  ``lanes`` has
    one entry per lane of the group: ``None`` for a lane inactive this
    round, else ``(ids, funcs, pos, dists, f_stop, reason)`` — the
    lane's threshold crossings in scan order (function, then full-run
    position) with their true distances, the first function at which
    its pre-round counts plus these crossings terminate it (``None`` if
    none does; no crossing past it is reported) and why.  ``rows``
    counts the entries gathered.
    """

    ext: np.ndarray
    lanes: list
    rows: int


class LaneGroup:
    """One query point's lanes, sharing windows, scans and page charging.

    Every lane reads the group's one window per function and round:
    round ``j`` searches level ``level0 * c**j`` and each lane's radius
    is ``delta = level / r_hat`` (Section 4.3: ``r_hat`` cancels out of
    ``level = r_hat * delta``).  Sequential I/O is attributed to the
    smallest active ``p``; a group of several lanes deduplicates random
    I/O through a shared ``fetched`` mask (one lane never re-fetches an
    id).

    A round is :meth:`begin_round` (radii and windows), :meth:`scan`
    (the scan kernel, over one store) and :meth:`merge` (the merge
    step, over one or more scans).  A shard worker's group only scans,
    so it needs no radius schedule (``c``, ``level0``, ``rehashing``,
    ``query_hashes``) and keeps the defaults; the sharded service's
    group only merges, so it never allocates per-row scan state.
    """

    def __init__(
        self,
        *,
        store,
        data,
        alive,
        query: PointVector,
        lanes: list[Lane],
        c: float = 0.0,
        level0: float = 1.0,
        rehashing: str = "query_centric",
        query_hashes: np.ndarray | None = None,
    ) -> None:
        self.store = store
        self.data = data
        self.c = float(c)
        self.level0 = float(level0)
        self.rehashing = rehashing
        self.query = query
        self.query_hashes = query_hashes
        self.lanes = lanes
        self.alive = alive
        # Ids any lane fetched, for a group of several lanes; allocated
        # by the first merge that needs it (_fetch_shared).
        self.fetched: np.ndarray | None = None
        # find_crossings scratch mask (always all-False between calls)
        # and the lanes' ``slack``: per-row state only the scan kernel
        # reads, allocated by the first scan, so a group that only merges
        # (the sharded service's coordinator) stays O(eta).
        self._lookup: np.ndarray | None = None
        eta_max = max(lane.eta for lane in lanes)
        # Per-function previous-round state: bucket windows, their entry
        # ranges, and the page hull already charged (interval arithmetic).
        self.ring = RingCursor(eta_max)
        self.seen_first = np.full(eta_max, _HULL_EMPTY_FIRST, dtype=np.int64)
        self.seen_stop = np.zeros(eta_max, dtype=np.int64)
        self.level = 0.0
        self.f_round = 0

    # -- round protocol -------------------------------------------------

    def begin_round(self, round_index: int):
        """Advance radii; return this round's windows ``(los, his)``."""
        active = [lane for lane in self.lanes if lane.active]
        if not active:
            return None
        self.level = self.level0 * self.c**round_index
        for lane in active:
            lane.rounds += 1
            lane.c_delta = self.c * (self.level / float(lane.params.r_hat))
            lane.begin_round_radius()
            lane.trace.begin_round(level=self.level, radius=lane.c_delta, io=lane.io)
        self.f_round = max(lane.eta for lane in active)
        return WINDOWS[self.rehashing](self.query_hashes[: self.f_round], self.level)

    def scan(
        self,
        los: np.ndarray,
        his: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> ScanPart:
        """The scan kernel: consume one round's ring runs in one store.

        ``starts``/``stops`` are the entry ranges (absolute flat
        positions) of the windows ``los``/``his`` in ``self.store``; the
        ring cursor turns them into left/right ring runs, consumed in
        the blocks of :func:`block_ends`.  Each active lane counts
        collisions in its first ``eta`` functions and stops at the
        first function where its pre-round ``n_cand``/``n_within`` plus
        its own crossings meet the termination test — the flat analogue
        of the scalar loop's ``break``: once every lane has stopped, the
        rest of the round is never gathered.  A lane that runs through
        the round leaves its ``slack`` advanced past it; nothing else of
        a lane changes (the merge step promotes).

        ``positions`` maps flat store indices to full-run positions, for
        a shard's sub-run store; ``None`` means the store holds the
        full runs.
        """
        if self._lookup is None:
            self._bind()
        f_round = los.shape[0]
        n = self.store.num_points
        seg_starts, seg_lens = self.ring.split(los, his, starts, stops)
        cum = np.zeros(f_round + 1, dtype=np.int64)
        np.cumsum(seg_lens[0::2] + seg_lens[1::2], out=cum[1:])
        active = [i for i, lane in enumerate(self.lanes) if lane.active]
        ends = {i: min(self.lanes[i].eta, f_round) for i in active}
        counts = {i: (self.lanes[i].n_cand, self.lanes[i].n_within) for i in active}
        found: dict[int, list] = {i: [] for i in active}
        f_stops: dict[int, tuple[int, str]] = {}
        f0 = 0
        for f1 in block_ends(cum[1:], n):
            scanning = [i for i in active if i not in f_stops]
            f_need = max((ends[i] for i in scanning), default=0)
            if f0 >= f_need:
                break
            f1 = min(f_need, f1)
            block_starts = seg_starts[2 * f0 : 2 * f1]
            block_lens = seg_lens[2 * f0 : 2 * f1]
            flat_ids = self.store.gather_segments32(block_starts, block_lens)
            seg_ends = np.cumsum(block_lens)
            shift = block_starts - (seg_ends - block_lens)  # stream -> flat
            for i in scanning:
                if ends[i] <= f0:
                    continue
                lane = self.lanes[i]
                nf = min(ends[i], f1) - f0
                sub = flat_ids[: cum[f0 + nf] - cum[f0]]
                elems, add = _EMPTY_I64, None
                if sub.size:
                    elems, add = find_crossings(sub, lane.slack, self._lookup)
                ids, funcs, flat, dists = _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, _EMPTY_F64
                if elems.size:
                    ids = sub[elems]
                    seg = np.searchsorted(seg_ends, elems, side="right")
                    funcs = f0 + seg // 2
                    flat = elems + shift[seg]
                    dists = lp_distance(self.data[ids], self.query, lane.p)
                inside = dists < lane.c_delta
                n_cand, n_within = counts[i]
                stop, reason = first_stop(
                    funcs - f0, inside, nf, n_cand, n_within, lane.k, lane.cap
                )
                if stop is None:
                    counts[i] = (
                        n_cand + ids.size,
                        n_within + int(np.count_nonzero(inside)),
                    )
                    if add is not None:
                        np.subtract(lane.slack, add, out=lane.slack, casting="unsafe")
                        lane.slack[ids] = _SLACK_DEAD
                else:
                    f_stops[i] = (f0 + stop, reason)
                    kept = int(np.searchsorted(funcs, f0 + stop, side="right"))
                    ids, funcs, flat, dists = (
                        ids[:kept], funcs[:kept], flat[:kept], dists[:kept]
                    )
                found[i].append((ids, funcs, flat, dists))
            f0 = f1
        # f0 is now the end of the gathered functions.
        ext = np.empty((2, 2 * f_round), dtype=np.int64)
        ext[0], ext[1] = _HULL_EMPTY_FIRST, -1
        segs = np.flatnonzero(seg_lens[: 2 * f0])
        first = seg_starts[segs]
        last = first + seg_lens[segs] - 1
        if positions is None:
            base = (segs // 2) * n
            ext[0, segs], ext[1, segs] = first - base, last - base
        else:
            ext[0, segs], ext[1, segs] = positions[first], positions[last]
        lanes: list = [None] * len(self.lanes)
        for i in active:
            chunks = found[i]
            ids, funcs, flat, dists = (
                chunks[0] if len(chunks) == 1
                else (np.concatenate(col) for col in zip(*chunks))
            )
            pos = flat - funcs * n if positions is None else positions[flat]
            lanes[i] = (ids, funcs, pos, dists, *f_stops.get(i, (None, "")))
        return ScanPart(ext, lanes, int(cum[f0]))

    def merge(self, parts: list[ScanPart]) -> None:
        """The merge step: fold one round's scan parts into the lanes.

        ``parts`` is the one in-process scan of the full store, or one
        scan per shard; both take the same fold.  Other parts only add
        crossings, so a lane's stop is at or before every part's
        ``f_stop``, and up to the smallest one every crossing has been
        reported.  Per lane, the merged crossings replay the scalar
        visit order (function, then full-run position) through
        :func:`first_stop`.  The consumed functions' page runs are
        charged against the hulls, each function to the smallest-``p``
        lane consuming it; the kept crossings are promoted, with random
        fetches deduplicated through ``fetched`` when the group has
        several lanes (and counted per part when ``shard_random`` is
        tracked); lanes that stopped terminate.
        """
        lo, hi = parts[0].ext
        for part in parts[1:]:
            lo, hi = np.minimum(lo, part.ext[0]), np.maximum(hi, part.ext[1])
        has = hi >= 0
        merged = [
            self._merge_lane(lane, [part.lanes[i] for part in parts])
            for i, lane in enumerate(self.lanes)
            if lane.active
        ]

        # Sequential I/O: one interval-arithmetic charge per consumed
        # function, attributed to the smallest-p lane consuming it.
        reader = np.full(self.f_round, -1, dtype=np.int64)
        for rank in range(len(merged) - 1, -1, -1):
            reader[: merged[rank].last + 1] = rank
        consumed = reader >= 0
        new = self._charge_hulls(lo, hi, has, consumed)
        seq = np.bincount(
            reader[consumed], weights=new[consumed], minlength=len(merged)
        )
        # An absent run (first _HULL_EMPTY_FIRST, last -1) has length 0.
        run_lens = np.maximum(hi - lo + 1, 0)
        for rank, m in enumerate(merged):
            if seq[rank]:
                m.lane.io.add_sequential(int(seq[rank]))
            m.lane.trace.add_collisions(int(run_lens[: 2 * m.last + 2].sum()))

        # Random I/O, promotion and termination.
        if len(self.lanes) == 1:
            for m in merged:
                if m.kept:
                    m.lane.io.add_random(m.kept)
                if m.src is not None:
                    m.lane.shard_random += np.bincount(
                        m.src[: m.kept], minlength=len(parts)
                    )
        else:
            self._fetch_shared(merged, len(parts))
        for m in merged:
            lane, kept = m.lane, m.kept
            if kept:
                lane.trace.add_crossings(kept)
                kept_dists = m.dists[:kept]
                lane.id_chunks.append(m.ids[:kept])
                lane.dist_chunks.append(kept_dists)
                lane.n_cand += kept
                inside = kept_dists < lane.c_delta
                lane.n_within += int(np.count_nonzero(inside))
                if not inside.all():
                    lane.outside = np.concatenate([lane.outside, kept_dists[~inside]])
            if m.stop is not None:
                lane.active = False
                lane.stop_reason = m.reason
            lane.trace.end_round(io=lane.io, candidates=lane.n_cand, within=lane.n_within)

    # -- internals ------------------------------------------------------

    def _bind(self) -> None:
        """Allocate the scan kernel's per-row state over ``alive``."""
        n_rows = int(self.alive.shape[0])
        self._lookup = np.zeros(n_rows, dtype=bool)
        for lane in self.lanes:
            lane.slack = np.full(n_rows, _SLACK_DEAD, dtype=np.int32)
            np.copyto(lane.slack, lane.theta, where=self.alive)

    def _merge_lane(self, lane: Lane, entries: list) -> "_LaneRound":
        """One lane's merged crossings and stop for this round."""
        f_stops = [entry[4] for entry in entries if entry[4] is not None]
        limit = min(f_stops) + 1 if f_stops else min(lane.eta, self.f_round)
        ids, funcs, pos, dists = (
            np.concatenate(col) for col in zip(*(e[:4] for e in entries))
        )
        order = np.lexsort((pos, funcs))
        order = order[: int(np.count_nonzero(funcs < limit))]
        ids, funcs, dists = ids[order], funcs[order], dists[order]
        src = None
        if lane.shard_random is not None:
            src = np.repeat(
                np.arange(len(entries)), [entry[0].size for entry in entries]
            )[order]
        stop, reason = first_stop(
            funcs, dists < lane.c_delta, limit,
            lane.n_cand, lane.n_within, lane.k, lane.cap,
        )
        if stop is None:
            if f_stops:  # pragma: no cover - a part broke the stop bound
                raise RuntimeError("a scan stopped before its lane terminated")
            return _LaneRound(lane, ids, funcs, dists, src, funcs.size, limit - 1, None, "")
        kept = int(np.searchsorted(funcs, stop, side="right"))
        return _LaneRound(lane, ids, funcs, dists, src, kept, stop, stop, reason)

    def _charge_hulls(
        self, lo: np.ndarray, hi: np.ndarray, has: np.ndarray, consumed: np.ndarray
    ) -> np.ndarray:
        """Charge the consumed functions' ring runs against the page hulls.

        ``lo``/``hi``/``has`` are the round's run extents in full-run
        positions (left run of function ``f`` at ``2f``).  Returns the
        per-function count of newly read pages and extends the hulls in
        place.  Correctness relies on every scan being entry-wise
        adjacent to (or overlapping) the pages already seen for its
        function, which holds for nested rehashing windows and their
        ring complements — the union of charged pages stays one
        interval.
        """
        f_round = consumed.shape[0]
        epp = self.store.layout.entries_per_page
        mask_l = has[0::2] & consumed
        mask_r = has[1::2] & consumed
        first_l = np.where(mask_l, lo[0::2] // epp, 0)
        stop_l = np.where(mask_l, hi[0::2] // epp + 1, first_l)
        first_r = np.where(mask_r, lo[1::2] // epp, 0)
        stop_r = np.where(mask_r, hi[1::2] // epp + 1, first_r)
        return charge_ring_hulls(
            first_l, stop_l, mask_l, first_r, stop_r, mask_r,
            self.seen_first[:f_round], self.seen_stop[:f_round],
        )

    def _fetch_shared(self, merged: list, n_parts: int) -> None:
        """Multi-metric random I/O with shared candidate fetches.

        Replays the scalar engine's (function, metric) processing order
        to attribute each object's single random fetch to the first
        metric that promotes it.
        """
        kept = [m.kept for m in merged]
        if not sum(kept):
            return
        if self.fetched is None:
            self.fetched = np.zeros(self.alive.shape[0], dtype=bool)
        all_ids = np.concatenate([m.ids[: m.kept] for m in merged])
        all_func = np.concatenate([m.funcs[: m.kept] for m in merged])
        all_rank = np.repeat(np.arange(len(merged)), kept)
        all_pos = np.concatenate([np.arange(n, dtype=np.int64) for n in kept])
        perm = np.lexsort((all_pos, all_rank, all_func))
        sorted_ids = all_ids[perm]
        _unique, first_idx = np.unique(sorted_ids, return_index=True)
        fresh = np.zeros(sorted_ids.shape[0], dtype=bool)
        fresh[first_idx] = True
        fresh &= ~self.fetched[sorted_ids]
        fresh_rank = all_rank[perm][fresh]
        counts = np.bincount(fresh_rank, minlength=len(merged))
        self.fetched[all_ids] = True
        for rank, m in enumerate(merged):
            if counts[rank]:
                m.lane.io.add_random(int(counts[rank]))
        if merged[0].src is not None:
            all_src = np.concatenate([m.src[: m.kept] for m in merged])
            by_part = np.bincount(
                fresh_rank * n_parts + all_src[perm][fresh],
                minlength=len(merged) * n_parts,
            ).reshape(len(merged), n_parts)
            for rank, m in enumerate(merged):
                m.lane.shard_random += by_part[rank]


class _LaneRound(NamedTuple):
    """One lane's merged round: crossings in scan order and its stop."""

    lane: Lane
    ids: np.ndarray
    funcs: np.ndarray
    dists: np.ndarray
    src: np.ndarray | None
    kept: int
    last: int
    stop: int | None
    reason: str


def scan_groups(store, requests: list, positions=None) -> Iterator[ScanPart]:
    """Scan one round of several lane groups over one store.

    ``requests`` holds ``(group, los, his)`` per group, the windows of
    :meth:`LaneGroup.begin_round`.  Every window is answered by one
    batched window search over ``store``
    (:meth:`~repro.storage.inverted_index.InvertedListStore.batch_window_positions`);
    each group's scan kernel then consumes its slice.  Parts are yielded
    in request order, so a caller can fold one in before the next group
    is scanned.  The engine runs this over its full store, a shard
    worker over its sub-run store with ``positions``.
    """
    funcs = np.concatenate(
        [np.arange(los.shape[0], dtype=np.int64) for _group, los, _his in requests]
    )
    starts, stops = store.batch_window_positions(
        funcs,
        np.concatenate([req[1] for req in requests]),
        np.concatenate([req[2] for req in requests]),
    )
    offset = 0
    for group, los, his in requests:
        end = offset + los.shape[0]
        yield group.scan(los, his, starts[offset:end], stops[offset:end], positions)
        offset = end


def execute_rounds(groups: list[LaneGroup], scan=None) -> None:
    """Run lane groups to completion, round-synchronised.

    Each round, every active group's windows go to ``scan``, which
    returns each group's list of scan parts, and the group's merge step
    folds them in.  By default the groups' own store is scanned
    in-process (:func:`scan_groups`, one part per group); the sharded
    service passes a fan-out to its shard workers (one part per shard).
    """
    round_index = -1
    while True:
        round_index += 1
        requests = []
        for group in groups:
            windows = group.begin_round(round_index)
            if windows is not None:
                requests.append((group, *windows))
        if not requests:
            return
        if round_index >= _MAX_ROUNDS:
            raise RuntimeError(_KNN_ABORT)
        if scan is None:
            parts = ([part] for part in scan_groups(groups[0].store, requests))
        else:
            parts = scan(requests)
        for (group, _los, _his), group_parts in zip(requests, parts):
            group.merge(group_parts)
