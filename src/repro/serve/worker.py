"""Shard worker: the per-process half of the sharded query service.

Each worker owns one contiguous id-range shard of the inverted index and
answers *round* requests with the flat engine's round kernel
(:mod:`repro.core.engine`): one round op answers every active query's
windows with two batched
:meth:`~repro.storage.inverted_index.InvertedListStore.batch_entry_positions`
calls, splits them into ring runs with the engine's
:class:`~repro.core.engine.RingCursor`, and consumes each query's scan in
the engine's doubling blocks of hash functions with its crossing recovery
(:func:`~repro.core.engine.find_crossings`).  Both attach modes run this
one kernel.  Under shm attach the store is a compact int32 store over the
shard's own sub-runs, packed in a shared-memory segment; under mmap
attach it is the memory-mapped full index, and the kernel keeps the
entries the shard owns.  Sub-runs preserve run order, so both yield the
same entries in the same order and their replies are identical.

For each query of a round the worker reports

* its threshold crossings — point id, the hash function where the count
  crossed ``theta``, the crossing entry's position in the **full** run,
  and the true ``lp`` distance (computed from the shard's own data rows);
* per-function scan extents (min/max full-run positions of the left and
  right ring runs), from which the coordinator reconstructs the exact
  full-run page intervals for sequential-I/O charging;
* ``f_stop``: the first function at which the query's pre-round counts
  (shipped on the request) plus this shard's own crossings already meet
  Algorithm 4's termination test, or ``None``.  The worker scans no
  further and reports no crossing past it.

The worker never decides termination.  Other shards only add crossings,
so the global stop function is at or before every shard's ``f_stop``;
the coordinator replays the merged crossings over functions up to the
smallest ``f_stop`` in the engine's promotion order (DESIGN §9).  A round
the query continues past had no local stop anywhere, so every shard
consumed it whole and the per-point collision state never diverges from
the single-process engine's.

The wire protocol is one ``(op_id, op, payload)`` tuple per request with
one ``(op_id, "ok", payload)`` or ``(op_id, "err", traceback)`` reply.
The coordinator's ``op_id`` is a monotonically increasing sequence
number: after a worker death it lets the coordinator discard stale
replies still queued in surviving workers' pipes before replaying the
wave.  Ops:

=============  ======================================================
``ping``       liveness / warm-up check, returns the shard id
``begin``      register a wave of queries (id, vector, metric params)
``round``      scan one round for a list of active queries, each
               ``(qid, los, his, n_cand, n_within, c_delta, k, cap)``
``end``        drop the listed queries' state
``reset``      drop *all* query state (coordinator repair/replay)
``update``     apply one WAL record's delta to the shard (epoch/LSN
               sequenced, idempotent by LSN — see DESIGN §11)
``crash``      ``os._exit(1)`` — test hook for worker-death recovery;
               an int payload ``n`` arms a deferred crash during the
               n-th subsequent ``round`` op instead (mid-wave death),
               ``{"after_updates": n}`` the same for ``update`` ops
               (death mid-catch-up)
``shutdown``   clean exit
=============  ======================================================

Live updates (DESIGN §11): an ``update`` payload carries one committed
WAL record translated into shard terms — for an insert, the store's
:class:`~repro.storage.inverted_index.InsertPlan` (the batch's compact
hash values and full-run insertion positions) plus the batch's points
and owner assignment; for a remove, the tombstoned ids.  The worker
merges its owned new points with the store's own
:meth:`~repro.storage.inverted_index.InvertedListStore.insert` on its
compact sub-run store, then shifts its int32 full-run positions in one
vectorised pass, so the shard stays exactly the restriction of the
coordinator's full index and the next round needs no rebuild.  The
merge writes private arrays: the shared segment or mapped file stays
pristine for respawned workers (an mmap worker first takes the compact
shard of its mapped store).  Updates are sequenced by LSN: a record at
or below the shard's acked LSN is acknowledged but not re-applied,
which makes coordinator replay after a repair idempotent.

Telemetry piggyback (DESIGN §10): each worker runs its *own*
:class:`~repro.obs.registry.MetricsRegistry` and :class:`~repro.obs.
tracer.SpanTracer`.  A ``round`` payload may be the bare request list
or ``{"requests": [...], "obs": bool}``; with ``obs`` set the reply
payload carries an ``"obs"`` dict of deltas since the last ship —
rows scanned, crossings found, and the finished span dicts of this
round's ``worker.round`` scan span — which the coordinator merges into
the parent telemetry under per-shard labels.  With ``obs`` unset the
only residue is two integer adds per scan, keeping the no-telemetry
fast path inside the <= 3% overhead budget.
"""

from __future__ import annotations

import logging
import os
import time
import traceback

import numpy as np

from repro.core.engine import (
    _BLOCK_FUNCS,
    _EMPTY_F64,
    _SLACK_DEAD,
    RingCursor,
    find_crossings,
    first_stop,
)
from repro.errors import ReproError
from repro.metrics.lp import lp_distance
from repro.obs.registry import MetricsRegistry
from repro.obs.trace_context import TraceContext
from repro.obs.tracer import SpanTracer
from repro.serve.sharding import (
    MmapShardSpec,
    ShardSpec,
    attach_shard,
    open_mmap_shard,
)
from repro.storage.inverted_index import InvertedListStore, merge_runs

logger = logging.getLogger("repro.serve.worker")


class _QueryState:
    """Per-query Algorithm-4 collision state restricted to one shard."""

    __slots__ = ("query", "p", "eta", "slack", "ring")

    def __init__(self, query, p: float, theta: int, eta: int, alive) -> None:
        self.query = query
        self.p = p
        self.eta = eta
        # Fused crossing test (the engine's Lane idiom): a local row
        # crosses theta in a block iff the block adds more than ``slack``
        # collisions; dead rows carry _SLACK_DEAD.
        self.slack = np.full(alive.shape[0], _SLACK_DEAD, dtype=np.int32)
        np.copyto(self.slack, theta, where=alive)
        self.ring = RingCursor(eta)


class ShardSearcher:
    """Executes rounds over one attached shard.

    ``store`` answers the kernel's window searches and int32 id gathers.
    With ``positions`` — each sub-run entry's full-run position, flat —
    it is a store over the shard's sub-runs whose ids are local rows;
    with ``positions=None`` it is the full index and the kernel keeps the
    entries with ``lo <= id < hi``.  ``data``/``alive`` are the shard's
    rows (local row ``j`` is point ``lo + j`` until the first insert).
    """

    def __init__(
        self,
        shard_id: int,
        lo: int,
        hi: int,
        store: InvertedListStore,
        positions: np.ndarray | None,
        data: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.store = store
        self.positions = positions
        self.data = data
        self.alive = alive
        self.m = int(hi - lo)
        self.queries: dict[int, _QueryState] = {}
        self._marks = np.zeros(self.m, dtype=bool)  # find_crossings scratch
        # Always-on scan accumulators (two int adds per scan); the
        # obs-enabled reply path ships deltas of these.
        self.rows_scanned = 0
        self.crossings = 0
        # Live-update state (DESIGN §11).  From the first insert on,
        # ``_gid_of`` maps local row -> global id and ``_lookup`` (sized
        # to the full index) maps back.  A read-only ``alive`` view is
        # copied on the first tombstone.
        self.epoch = 0
        self.acked_lsn = 0
        self._gid_of: np.ndarray | None = None
        self._lookup: np.ndarray | None = None
        self._owns_alive = bool(alive.flags.writeable)

    # -- protocol ops ---------------------------------------------------

    def begin(self, entries: list) -> None:
        for qid, query, p, theta, eta in entries:
            self.queries[qid] = _QueryState(
                np.asarray(query, dtype=np.float64),
                float(p),
                int(theta),
                int(eta),
                self.alive,
            )

    def end(self, qids: list) -> None:
        for qid in qids:
            self.queries.pop(qid, None)

    def reset(self) -> None:
        self.queries.clear()

    def round(self, requests: list) -> dict:
        """One round for every listed query: one batched window search."""
        if not requests:
            return {}
        states = [self.queries[req[0]] for req in requests]
        funcs = np.concatenate(
            [np.arange(q.eta, dtype=np.int64) for q in states]
        )
        los = np.concatenate([req[1] for req in requests]).astype(np.int64)
        his = np.concatenate([req[2] for req in requests]).astype(np.int64)
        starts = self.store.batch_entry_positions(funcs, los, side="left")
        stops = self.store.batch_entry_positions(funcs, his, side="right")
        replies = {}
        offset = 0
        for req, q in zip(requests, states):
            span = slice(offset, offset + q.eta)
            offset += q.eta
            seg_starts, seg_lens = q.ring.split(
                los[span], his[span], starts[span], stops[span]
            )
            replies[req[0]] = self._scan(q, seg_starts, seg_lens, *req[3:])
        return replies

    def apply_update(self, delta: dict) -> dict:
        """Apply one WAL record's shard delta (idempotent by LSN)."""
        lsn = int(delta["lsn"])
        applied = False
        if lsn > self.acked_lsn:
            if delta["op"] == "insert":
                self._apply_insert_delta(delta)
            elif delta["op"] == "remove":
                self._apply_remove_delta(
                    np.asarray(delta["gids"], dtype=np.int64)
                )
            else:
                raise ReproError(f"unknown update op {delta['op']!r}")
            self.acked_lsn = lsn
            self.epoch = int(delta["epoch"])
            applied = True
        return {
            "shard": self.shard_id,
            "lsn": self.acked_lsn,
            "epoch": self.epoch,
            "points": self.m,
            "applied": applied,
        }

    # -- the round kernel -----------------------------------------------

    def _scan(
        self,
        q: _QueryState,
        seg_starts: np.ndarray,
        seg_lens: np.ndarray,
        n_cand: int,
        n_within: int,
        c_delta: float,
        k: int,
        cap: float,
    ) -> dict:
        """Consume one query's round in doubling blocks of functions.

        Stops after the first block in which the query's pre-round
        counts plus this shard's crossings meet the termination test,
        keeping only the crossings up to that function (``f_stop``).
        """
        eta = q.eta
        # Flat store index of each ring run's first/last owned entry.
        ext = np.full((2, 2 * eta), -1, dtype=np.int64)
        found: list[tuple[np.ndarray, ...]] = []
        f_stop: int | None = None
        f0 = 0
        block = _BLOCK_FUNCS
        while f0 < eta and f_stop is None:
            f1 = min(eta, f0 + block)
            block *= 2
            starts = seg_starts[2 * f0 : 2 * f1]
            lens = seg_lens[2 * f0 : 2 * f1]
            raw = self.store.gather_segments32(starts, lens)
            ends = np.cumsum(lens)
            shift = starts - (ends - lens)  # stream index -> flat index
            keep: np.ndarray | None = None
            if self.positions is None:
                # Full-index store: keep the owned entries, in scan order.
                keep = np.flatnonzero((raw >= self.lo) & (raw < self.hi))
                sub = raw[keep] - self.lo
                a = np.searchsorted(keep, ends - lens)
                b = np.searchsorted(keep, ends)
                segs = np.flatnonzero(b > a)
                ext[0, 2 * f0 + segs] = keep[a[segs]] + shift[segs]
                ext[1, 2 * f0 + segs] = keep[b[segs] - 1] + shift[segs]
            else:
                sub = raw
                segs = np.flatnonzero(lens)
                ext[0, 2 * f0 + segs] = starts[segs]
                ext[1, 2 * f0 + segs] = starts[segs] + lens[segs] - 1
            self.rows_scanned += int(sub.size)
            elems, add = find_crossings(sub, q.slack, self._marks)
            local = sub[elems]
            at = elems if keep is None else keep[elems]
            seg = np.searchsorted(ends, at, side="right")
            funcs = f0 + seg // 2
            flat = at + shift[seg]
            dists = (
                lp_distance(self.data[local], q.query, q.p)
                if local.size
                else _EMPTY_F64
            )
            inside = dists < c_delta
            stop, _reason = first_stop(
                funcs - f0, inside, f1 - f0, n_cand, n_within, k, cap
            )
            if stop is None:
                n_cand += int(local.size)
                n_within += int(np.count_nonzero(inside))
                np.subtract(q.slack, add, out=q.slack, casting="unsafe")
                q.slack[local] = _SLACK_DEAD
            else:
                f_stop = f0 + stop
                kept = int(np.searchsorted(funcs, f_stop, side="right"))
                local, funcs, flat, dists = (
                    local[:kept], funcs[:kept], flat[:kept], dists[:kept]
                )
            found.append((local, funcs, flat, dists))
            f0 = f1
        local, funcs, flat, dists = (np.concatenate(col) for col in zip(*found))
        self.crossings += int(local.size)
        if self._gid_of is None:
            gids = local.astype(np.int64) + self.lo
        else:
            gids = self._gid_of[local]
        ext = np.where(ext >= 0, self._run_pos(np.maximum(ext, 0)), -1)
        return {
            "gids": gids,
            "funcs": funcs,
            "pos": self._run_pos(flat),
            "dists": dists,
            "l_lo": ext[0, 0::2],
            "l_hi": ext[1, 0::2],
            "r_lo": ext[0, 1::2],
            "r_hi": ext[1, 1::2],
            "f_stop": f_stop,
        }

    def _run_pos(self, flat: np.ndarray) -> np.ndarray:
        """Full-run positions of the store's flat entry indices."""
        if self.positions is None:
            return flat % self.store.num_points
        return self.positions[flat].astype(np.int64)

    # -- live updates ---------------------------------------------------

    def _apply_insert_delta(self, delta: dict) -> None:
        """Merge an insert batch's plan into the shard's sub-runs.

        Every worker receives the *full* batch plan plus the owner
        assignment.  It extends its data rows with the points it owns and
        merges them into its sub-runs with the store's own ``insert``
        (ties land after equal-valued old entries in batch order, as in
        the full runs, so the sub-runs stay the full runs' restriction).
        Every batch entry — owned or not — lands in the full run before
        the old entries whose values exceed it, so each old entry's
        full-run position shifts by the count of batch entries whose
        sub-run insertion point is at or before it: one vectorised pass
        over the sorted batch's insertion points.
        """
        plan = delta["plan"]
        points = np.asarray(delta["points"], dtype=np.float64)
        start = int(delta["batch_start"])
        owners = np.asarray(delta["owners"], dtype=np.int64)
        if self.positions is None:
            # mmap attach: continue on the compact shard of the mapped store.
            arrays, state = self.store.compact_shard(self.lo, self.hi)
            self.store = InvertedListStore.from_compact(
                arrays["rel"], arrays["ids"], arrays["row_top"], state
            )
            self.positions = arrays["positions"].ravel()
        if self._gid_of is None:
            self._gid_of = np.arange(self.lo, self.hi, dtype=np.int64)
        values = plan.hash_values()
        num_funcs, m_batch = values.shape
        m_old = self.m
        order = np.argsort(values, axis=1, kind="stable")
        funcs = np.repeat(np.arange(num_funcs, dtype=np.int64), m_batch)
        at = self.store.batch_entry_positions(
            funcs, np.take_along_axis(values, order, axis=1).ravel(), "right"
        ) - funcs * m_old
        # Old entries between the sub-run insertion points of sorted batch
        # entries r - 1 and r shift by r (past the last one, by m_batch).
        lens = np.diff(
            at.reshape(num_funcs, m_batch), axis=1, prepend=0, append=m_old
        )
        shifted = self.positions + np.repeat(
            np.tile(np.arange(m_batch + 1, dtype=np.int32), num_funcs),
            lens.ravel(),
        )
        # Points this shard now owns (ascending gid order) take local rows
        # m_old.. ; their full-run destinations, in each function's
        # sorted batch order, are the plan's positions plus batch rank.
        mine = owners == self.shard_id
        sel = np.flatnonzero(mine)
        dest = (plan.positions + np.arange(m_batch, dtype=np.int32))[mine[order]]
        sub_plan = self.store.insert(
            values[:, sel], m_old + np.arange(sel.size, dtype=np.int64)
        )
        (self.positions,) = merge_runs(
            [shifted],
            [dest.reshape(num_funcs, sel.size)],
            sub_plan.positions,
        )
        self.m = m_old + int(sel.size)
        self.data = np.vstack([self.data, points[sel]])
        self.alive = np.concatenate([self.alive, np.ones(sel.size, dtype=bool)])
        self._owns_alive = True
        self._gid_of = np.concatenate([self._gid_of, start + sel])
        self._marks = np.zeros(self.m, dtype=bool)
        # Global id -> local row map over the grown index.
        lookup = np.full(start + m_batch, -1, dtype=np.int32)
        lookup[self._gid_of] = np.arange(self.m, dtype=np.int32)
        self._lookup = lookup

    def _apply_remove_delta(self, gids: np.ndarray) -> None:
        """Tombstone the removed ids this shard owns (copy-on-write)."""
        if self._lookup is None:
            owned = gids[(gids >= self.lo) & (gids < self.hi)]
            local = owned - self.lo
        else:
            local = self._lookup[gids]
            local = local[local >= 0]
        if local.size == 0:
            return
        if not self._owns_alive:
            self.alive = self.alive.copy()
            self._owns_alive = True
        self.alive[local] = False


def worker_main(conn, spec: ShardSpec | MmapShardSpec) -> None:
    """Worker process entry point (importable, spawn-safe).

    Attaches the shard, then serves ``(op_id, op, payload)`` requests
    until ``shutdown`` (or the pipe closes).  Every reply echoes the
    ``op_id`` and carries the op's wall-clock ``busy`` seconds (for
    per-shard utilisation) plus its ``cpu`` process-time seconds (for
    scheduler-noise-immune cost accounting on oversubscribed hosts).
    """
    try:
        positions: np.ndarray | None = None
        if isinstance(spec, MmapShardSpec):
            shm = None
            arrays = open_mmap_shard(spec)
            store = arrays["store"]
        else:
            arrays, shm = attach_shard(spec)
            assert spec.search_state is not None
            store = InvertedListStore.from_compact(
                arrays["rel"],
                arrays["ids"],
                arrays.get("row_top"),
                spec.search_state,
            )
            positions = arrays["positions"].ravel()
        searcher = ShardSearcher(
            spec.shard_id,
            spec.lo,
            spec.hi,
            store,
            positions,
            arrays["data"],
            arrays["alive"],
        )
    except Exception:  # pragma: no cover - attach failures are fatal
        logger.exception(
            "shard %d worker failed to attach its segment", spec.shard_id
        )
        conn.send((-1, "err", traceback.format_exc()))
        return
    # Worker-local observability: its own registry + tracer, shipped to
    # the coordinator as deltas on obs-enabled round replies.
    registry = MetricsRegistry()
    tracer = SpanTracer()
    rows_total = registry.counter(
        "lazylsh_worker_rows_scanned_total",
        "Inverted-list entries scanned by this shard worker",
    )
    crossings_total = registry.counter(
        "lazylsh_worker_crossings_total",
        "Collision-threshold crossings found by this shard worker",
    )
    shipped_rows = 0
    shipped_crossings = 0
    crash_in_rounds: int | None = None  # armed mid-wave crash countdown
    crash_in_updates: int | None = None  # armed mid-catch-up crash countdown
    while True:
        try:
            op_id, op, payload = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            obs_delta = None
            if op == "ping":
                result = {"shard": searcher.shard_id, "points": searcher.m}
            elif op == "begin":
                searcher.begin(payload)
                result = None
            elif op == "round":
                requests = payload
                ship_obs = False
                wave_ctx = None
                if isinstance(payload, dict):
                    requests = payload["requests"]
                    ship_obs = bool(payload.get("obs", False))
                    raw_ctx = payload.get("trace")
                    if raw_ctx is not None:
                        # The coordinator's wave-root span context: this
                        # round's span becomes its child in the shared
                        # distributed trace (DESIGN §13).
                        wave_ctx = TraceContext.from_dict(raw_ctx)
                if crash_in_rounds is not None:
                    crash_in_rounds -= 1
                    if crash_in_rounds <= 0:
                        os._exit(1)
                if ship_obs:
                    if wave_ctx is not None:
                        with tracer.span(
                            "worker.round",
                            context=wave_ctx,
                            shard=searcher.shard_id,
                            queries=len(requests),
                        ) as span:
                            result = searcher.round(requests)
                            span.set(
                                rows=searcher.rows_scanned - shipped_rows,
                                crossings=searcher.crossings
                                - shipped_crossings,
                            )
                    else:
                        # Untraced wave: no span, zero tracing overhead.
                        result = searcher.round(requests)
                    d_rows = searcher.rows_scanned - shipped_rows
                    d_crossings = searcher.crossings - shipped_crossings
                    shipped_rows = searcher.rows_scanned
                    shipped_crossings = searcher.crossings
                    rows_total.inc(d_rows)
                    crossings_total.inc(d_crossings)
                    obs_delta = {
                        "rows": d_rows,
                        "crossings": d_crossings,
                        "spans": tracer.to_dicts(),
                    }
                    tracer.clear()
                else:
                    result = searcher.round(requests)
            elif op == "end":
                searcher.end(payload)
                result = None
            elif op == "reset":
                searcher.reset()
                result = None
            elif op == "update":
                if crash_in_updates is not None:
                    crash_in_updates -= 1
                    if crash_in_updates <= 0:
                        os._exit(1)
                result = searcher.apply_update(payload)
            elif op == "crash":
                if isinstance(payload, dict) and payload.get("after_updates"):
                    crash_in_updates = int(payload["after_updates"])
                    result = None
                elif isinstance(payload, int) and payload > 0:
                    crash_in_rounds = payload
                    result = None
                else:
                    os._exit(1)
            elif op == "shutdown":
                conn.send(
                    (op_id, "ok", {"busy": 0.0, "cpu": 0.0, "result": None})
                )
                break
            else:
                raise ReproError(f"unknown worker op {op!r}")
            reply = {
                "busy": time.perf_counter() - t0,
                "cpu": time.process_time() - c0,
                "result": result,
            }
            if obs_delta is not None:
                reply["obs"] = obs_delta
            conn.send((op_id, "ok", reply))
        except Exception:
            logger.exception(
                "shard %d worker op %r (op_id=%d) failed",
                searcher.shard_id,
                op,
                op_id,
            )
            try:
                conn.send((op_id, "err", traceback.format_exc()))
            except (BrokenPipeError, OSError):  # pragma: no cover
                break
    if shm is not None:
        shm.close()
