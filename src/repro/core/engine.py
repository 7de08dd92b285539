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

The engine is a pure execution-plan change: candidate order, termination
round/function, results, and the simulated sequential/random I/O counts
are bit-identical to the scalar reference loops (``LazyLSH._knn_impl`` and
``MultiQueryEngine``'s scalar path), which the paper's evaluation measures.

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

import math

import numpy as np

from repro._typing import PointVector
from repro.metrics.lp import lp_distance
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageTracker

#: Hard cap on rehashing rounds (mirrors the scalar loops).
_MAX_ROUNDS = 128

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

    This is the pure interval arithmetic shared by the flat engine's
    :meth:`LaneGroup._charge_hulls` and the sharded service's
    coordinator (which reconstructs the same full-run intervals from
    per-shard scan extents): a ring half outside the hull sits entirely
    below its first page or at/above its stop page, so the two
    new-page counts plus one inclusion-exclusion term for the shared
    boundary page never double count.
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
    functions ``[0, nf)`` and ``inside`` whether its distance lies within
    ``c * delta``; ``n_cand``/``n_within`` are the counts before them.
    Returns ``(stop, reason)``, or ``(None, "")`` when the query runs
    through all ``nf`` functions.  The scalar loop tests the
    within-radius condition before the candidate cap, so it wins when
    both fire at once.
    """
    cum_cand = n_cand + np.cumsum(np.bincount(cross_func, minlength=nf))
    cum_within = n_within + np.cumsum(np.bincount(cross_func[inside], minlength=nf))
    stop_mask = (cum_within >= k) | (cum_cand > cap)
    if not stop_mask.any():
        return None, ""
    stop = int(np.argmax(stop_mask))
    if cum_within[stop] >= k:
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
        "delta",
        "c_delta",
        "i_stop",
        "scan_end",
        "block_data",
        "stop_reason",
        "trace",
    )

    def __init__(self, p: float, params, k: int, cap: float, n_rows: int) -> None:
        self.p = p
        self.params = params
        self.k = k
        self.cap = cap
        self.theta = int(params.theta)
        self.eta = int(params.eta)
        # Fused crossing test: row j's count crosses theta within a block
        # iff the block adds more than ``slack[j]`` collisions.  Rows that
        # cannot cross (dead or already candidates) carry _SLACK_DEAD; the
        # group initialises the live entries to ``theta`` when it binds
        # the lane to its data.
        self.slack = np.full(n_rows, _SLACK_DEAD, dtype=np.int32)
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
        self.delta = 1.0 / float(params.r_hat)
        self.c_delta = 0.0
        # Per-round scan cursor: the function the lane stopped at (None
        # while still scanning) and the exclusive end of its scan range.
        self.i_stop: int | None = None
        self.scan_end = 0
        self.block_data: tuple | None = None
        # Telemetry: why the lane terminated, and an optional
        # QueryTraceBuilder hook (None keeps the no-op fast path — the
        # only disabled-telemetry cost is `is None` checks).
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


class LaneGroup:
    """One query point's lanes, sharing windows, scans and page charging.

    ``style`` selects the float arithmetic of the reference loop being
    reproduced: ``"single"`` follows ``LazyLSH._knn_impl`` (radius state
    ``delta`` multiplied by ``c`` each round), ``"multi"`` follows
    ``MultiQueryEngine`` (``level = c ** round`` recomputed per round, one
    shared scan feeding every metric, sequential I/O attributed to the
    smallest active ``p``, random I/O deduplicated through a shared
    ``fetched`` mask).
    """

    def __init__(
        self,
        *,
        store,
        data,
        alive,
        c: float,
        rehashing: str,
        query: PointVector,
        query_hashes: np.ndarray,
        lanes: list[Lane],
        style: str,
        shared_pages: PageTracker | None = None,
    ) -> None:
        self.store = store
        self.data = data
        self.alive = alive
        self.c = float(c)
        self.rehashing = rehashing
        self.query = query
        self.query_hashes = query_hashes
        self.lanes = lanes
        self.style = style
        self.shared_pages = shared_pages
        self.n_rows = int(alive.shape[0])
        self.fetched = (
            np.zeros(self.n_rows, dtype=bool) if style == "multi" else None
        )
        for lane in lanes:
            np.copyto(lane.slack, lane.theta, where=alive)
        # Scratch buffer for marking crossing ids inside _analyse_lane;
        # always all-False between calls.
        self._lookup = np.zeros(self.n_rows, dtype=bool)
        eta_max = max(lane.eta for lane in lanes)
        self.eta_max = eta_max
        # Per-function previous-round state: bucket windows, their entry
        # ranges, and the page hull already charged (interval arithmetic).
        self.ring = RingCursor(eta_max)
        self.seen_first = np.full(eta_max, _HULL_EMPTY_FIRST, dtype=np.int64)
        self.seen_stop = np.zeros(eta_max, dtype=np.int64)
        self.level = 0.0
        self.cur_los: np.ndarray | None = None
        self.cur_his: np.ndarray | None = None
        self.active_lanes: list[Lane] = []
        self.f_round = 0

    @property
    def active(self) -> bool:
        return any(lane.active for lane in self.lanes)

    # -- round protocol -------------------------------------------------

    def begin_round(self, round_index: int):
        """Advance radii; return this round's ``(funcs, los, his)``."""
        self.active_lanes = [lane for lane in self.lanes if lane.active]
        if not self.active_lanes:
            return None
        for lane in self.active_lanes:
            lane.rounds += 1
        if self.style == "single":
            lane = self.lanes[0]
            self.level = float(lane.params.r_hat) * lane.delta
            lane.c_delta = self.c * lane.delta
        else:
            self.level = self.c**round_index
            for lane in self.active_lanes:
                lane.delta = self.c**round_index / float(lane.params.r_hat)
                lane.c_delta = self.c * lane.delta
        for lane in self.active_lanes:
            lane.begin_round_radius()
            if lane.trace is not None:
                lane.trace.begin_round(
                    level=self.level, radius=lane.c_delta, io=lane.io
                )
        f_round = max(lane.eta for lane in self.active_lanes)
        self.f_round = f_round
        hq = self.query_hashes[:f_round]
        if self.rehashing == "query_centric":
            half = int(math.floor(self.level / 2.0))
            los = hq - half
            his = hq + half
        else:
            width = max(1, int(math.floor(self.level)))
            base = np.floor_divide(hq, width)
            los = base * width
            his = los + width - 1
        self.cur_los = los
        self.cur_his = his
        funcs = np.arange(f_round, dtype=np.int64)
        return funcs, los, his

    def process_round(self, starts: np.ndarray, stops: np.ndarray) -> None:
        """Consume one round's entry ranges (absolute flat positions).

        The scan is split into left/right ring segments per function and
        consumed in the blocks of :func:`block_ends` — the flat analogue
        of the scalar loop's per-function ``break``: once every lane has
        terminated, the remaining functions of the round are never
        gathered, counted or charged.
        """
        f_round = self.f_round
        n = self.store.num_points
        base = np.arange(f_round, dtype=np.int64) * n
        seg_starts, seg_lens = self.ring.split(
            self.cur_los, self.cur_his, starts, stops
        )
        # Ring entries before each function, and in total at the end.
        cum = np.zeros(f_round + 1, dtype=np.int64)
        np.cumsum(seg_lens[0::2] + seg_lens[1::2], out=cum[1:])

        for lane in self.active_lanes:
            lane.i_stop = None
            lane.scan_end = min(lane.eta, f_round)

        left_starts = seg_starts[0::2] - base
        right_starts = seg_starts[1::2] - base
        rel_left = (left_starts, left_starts + seg_lens[0::2])
        rel_right = (right_starts, right_starts + seg_lens[1::2])
        f0 = 0
        for f1 in block_ends(cum[1:], n):
            f_need = max(
                (
                    lane.scan_end
                    for lane in self.active_lanes
                    if lane.i_stop is None
                ),
                default=0,
            )
            if f0 >= f_need:
                break
            f1 = min(f_need, f1)
            self._process_block(
                f0, f1, seg_starts, seg_lens, cum, rel_left, rel_right
            )
            f0 = f1

        for lane in self.active_lanes:
            if lane.i_stop is not None:
                lane.active = False
            if lane.trace is not None:
                lane.trace.end_round(
                    io=lane.io, candidates=lane.n_cand, within=lane.n_within
                )

        if self.style == "single":
            self.lanes[0].delta *= self.c

    # -- internals ------------------------------------------------------

    def _process_block(
        self,
        f0: int,
        f1: int,
        seg_starts: np.ndarray,
        seg_lens: np.ndarray,
        cum: np.ndarray,
        rel_left: tuple[np.ndarray, np.ndarray],
        rel_right: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Gather and consume hash functions ``[f0, f1)`` of the round."""
        bounds = cum[f0 : f1 + 1] - cum[f0]
        flat_ids = self.store.gather_segments32(
            seg_starts[2 * f0 : 2 * f1], seg_lens[2 * f0 : 2 * f1]
        )

        # Lanes still scanning when this block begins; a lane whose scan
        # range ended in an earlier block consumes nothing here.
        scanners = [
            lane
            for lane in self.active_lanes
            if lane.i_stop is None and lane.scan_end > f0
        ]
        for lane in scanners:
            self._analyse_lane(lane, f0, f1, flat_ids, bounds)

        # Sequential I/O: one interval-arithmetic charge per consumed
        # function, attributed to the smallest-p lane consuming it.
        reader = np.full(f1 - f0, -1, dtype=np.int64)
        for rank in range(len(self.active_lanes) - 1, -1, -1):
            lane = self.active_lanes[rank]
            if lane not in scanners:
                continue
            last = lane.scan_end - 1 if lane.i_stop is None else lane.i_stop
            hi = min(last, f1 - 1)
            if hi >= f0:
                reader[: hi - f0 + 1] = rank
        consumed = reader >= 0
        epp = self.store.layout.entries_per_page
        new_pages = self._charge_hulls(
            f0, f1, rel_left, rel_right, epp, consumed
        )
        if np.any(consumed):
            seq = np.bincount(
                reader[consumed],
                weights=new_pages[consumed],
                minlength=len(self.active_lanes),
            )
            for rank, lane in enumerate(self.active_lanes):
                if seq[rank]:
                    lane.io.add_sequential(int(seq[rank]))

        # Random I/O + candidate promotion.
        if self.fetched is None:
            self._promote_single(scanners)
        else:
            self._promote_shared(scanners)

    def _analyse_lane(
        self,
        lane: Lane,
        f0: int,
        f1: int,
        flat_ids: np.ndarray,
        bounds: np.ndarray,
    ) -> None:
        """Find the block's threshold crossings and the stop function."""
        nf = min(lane.scan_end, f1) - f0
        m = int(bounds[nf])
        sub = flat_ids[:m]
        add = None
        elems = _EMPTY_I64
        if m:
            elems, add = find_crossings(sub, lane.slack, self._lookup)
        if elems.size:
            cross_ids = sub[elems]
            cross_func = f0 + (np.searchsorted(bounds, elems, side="right") - 1)
            dists = lp_distance(self.data[cross_ids], self.query, lane.p)
        else:
            cross_ids = cross_func = _EMPTY_I64
            dists = _EMPTY_F64
        stop, reason = first_stop(
            cross_func - f0,
            dists < lane.c_delta,
            nf,
            lane.n_cand,
            lane.n_within,
            lane.k,
            lane.cap,
        )
        if stop is not None:
            lane.i_stop = f0 + stop
            lane.stop_reason = reason
        if lane.trace is not None:
            consumed = (
                m if lane.i_stop is None else int(bounds[lane.i_stop - f0 + 1])
            )
            lane.trace.add_collisions(consumed)
        lane.block_data = (cross_ids, cross_func, dists, add)

    def _charge_hulls(
        self,
        f0: int,
        f1: int,
        rel_left: tuple[np.ndarray, np.ndarray],
        rel_right: tuple[np.ndarray, np.ndarray],
        entries_per_page: int,
        consumed: np.ndarray,
    ) -> np.ndarray:
        """Charge a block's left/right ring scans against the page hulls.

        Returns the per-function count of newly read pages for functions
        ``[f0, f1)`` and extends the hulls in place.  Correctness relies
        on every scan being entry-wise adjacent to (or overlapping) the
        pages already seen for its function, which holds for nested
        rehashing windows and their ring complements — the union of
        charged pages stays one interval.  Both ring halves are charged
        against the pre-block hull in one pass: their outside-hull page
        runs sit on opposite sides of the hull (left below its first
        page, right at or above its stop page), so the two new-page
        counts never double count.
        """
        l_starts = rel_left[0][f0:f1]
        l_stops = rel_left[1][f0:f1]
        r_starts = rel_right[0][f0:f1]
        r_stops = rel_right[1][f0:f1]
        mask_l = consumed & (l_stops > l_starts)
        mask_r = consumed & (r_stops > r_starts)
        first_l = l_starts // entries_per_page
        stop_l = np.where(mask_l, (l_stops - 1) // entries_per_page + 1, first_l)
        first_r = r_starts // entries_per_page
        stop_r = np.where(mask_r, (r_stops - 1) // entries_per_page + 1, first_r)
        new_l = np.where(mask_l, stop_l - first_l, 0)
        new_r = np.where(mask_r, stop_r - first_r, 0)
        new = charge_ring_hulls(
            first_l,
            stop_l,
            mask_l,
            first_r,
            stop_r,
            mask_r,
            self.seen_first[f0:f1],
            self.seen_stop[f0:f1],
        )
        if self.shared_pages is not None:
            # Batch-wide buffer pool: re-dedup each function's newly read
            # page runs against pages other queries already charged.  The
            # tracker sees the left run before the right run of the same
            # function, so its returns already exclude the shared page;
            # charged functions are fully replaced (dup > 0 implies both
            # sides charged).
            for j in np.flatnonzero((new_l > 0) | (new_r > 0)):
                func = f0 + int(j)
                total = 0
                if new_l[j] > 0:
                    total += self.shared_pages.charge(
                        func, int(first_l[j]), int(stop_l[j])
                    )
                if new_r[j] > 0:
                    total += self.shared_pages.charge(
                        func, int(first_r[j]), int(stop_r[j])
                    )
                new[j] = total
        return new

    def _kept_slice(self, lane: Lane) -> int:
        cross_func = lane.block_data[1]
        if lane.i_stop is None:
            return int(cross_func.shape[0])
        return int(np.searchsorted(cross_func, lane.i_stop, side="right"))

    def _promote_lane(self, lane: Lane, kept: int) -> None:
        cross_ids, _cross_func, dists, add = lane.block_data
        kept_ids = cross_ids[:kept]
        kept_dists = dists[:kept]
        if kept:
            if lane.trace is not None:
                lane.trace.add_crossings(kept)
            lane.id_chunks.append(kept_ids)
            lane.dist_chunks.append(kept_dists)
            lane.n_cand += kept
            inside = kept_dists < lane.c_delta
            lane.n_within += int(np.count_nonzero(inside))
            if not inside.all():
                lane.outside = np.concatenate([lane.outside, kept_dists[~inside]])
        if lane.i_stop is None and add is not None:
            np.subtract(lane.slack, add, out=lane.slack, casting="unsafe")
            if kept:
                lane.slack[kept_ids] = _SLACK_DEAD
        lane.block_data = None

    def _promote_single(self, scanners: list[Lane]) -> None:
        for lane in scanners:
            kept = self._kept_slice(lane)
            if kept:
                lane.io.add_random(kept)
            self._promote_lane(lane, kept)

    def _promote_shared(self, scanners: list[Lane]) -> None:
        """Multi-metric promotion with shared candidate fetches.

        Replays the scalar engine's (function, metric) processing order to
        attribute each object's single random fetch to the first metric
        that promotes it.
        """
        kept_counts = [self._kept_slice(lane) for lane in scanners]
        total = sum(kept_counts)
        if total:
            ranks = {id(lane): rank for rank, lane in enumerate(self.active_lanes)}
            all_ids = np.empty(total, dtype=np.int64)
            all_func = np.empty(total, dtype=np.int64)
            all_rank = np.empty(total, dtype=np.int64)
            all_pos = np.empty(total, dtype=np.int64)
            offset = 0
            for lane, kept in zip(scanners, kept_counts):
                if not kept:
                    continue
                sl = slice(offset, offset + kept)
                all_ids[sl] = lane.block_data[0][:kept]
                all_func[sl] = lane.block_data[1][:kept]
                all_rank[sl] = ranks[id(lane)]
                all_pos[sl] = np.arange(kept, dtype=np.int64)
                offset += kept
            perm = np.lexsort((all_pos, all_rank, all_func))
            sorted_ids = all_ids[perm]
            _unique, first_idx = np.unique(sorted_ids, return_index=True)
            fresh = np.zeros(sorted_ids.shape[0], dtype=bool)
            fresh[first_idx] = True
            fresh &= ~self.fetched[sorted_ids]
            counts = np.bincount(
                all_rank[perm][fresh], minlength=len(self.active_lanes)
            )
            self.fetched[all_ids] = True
            for rank, lane in enumerate(self.active_lanes):
                if counts[rank]:
                    lane.io.add_random(int(counts[rank]))
        for lane, kept in zip(list(scanners), kept_counts):
            self._promote_lane(lane, kept)


def execute_rounds(groups: list[LaneGroup], *, error: str) -> None:
    """Run lane groups to completion, round-synchronised.

    Each round, every active group's window bounds are concatenated and
    answered with one batched window search over the shared store's flat
    layout; groups then consume their slices independently.
    """
    if not groups:
        return
    store = groups[0].store
    round_index = -1
    while True:
        round_index += 1
        requests = []
        for group in groups:
            req = group.begin_round(round_index)
            if req is not None:
                requests.append((group, *req))
        if not requests:
            return
        if round_index >= _MAX_ROUNDS:
            raise RuntimeError(error)
        if len(requests) == 1:
            group, funcs, los, his = requests[0]
            group.process_round(*store.batch_window_positions(funcs, los, his))
            continue
        funcs = np.concatenate([req[1] for req in requests])
        los = np.concatenate([req[2] for req in requests])
        his = np.concatenate([req[3] for req in requests])
        starts, stops = store.batch_window_positions(funcs, los, his)
        offset = 0
        for group, group_funcs, _lo, _hi in requests:
            span = group_funcs.shape[0]
            group.process_round(
                starts[offset : offset + span], stops[offset : offset + span]
            )
            offset += span
