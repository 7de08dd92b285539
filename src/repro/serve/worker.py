"""Shard worker: the per-process half of the sharded query service.

Each worker owns one contiguous id-range shard of the inverted index and
answers *round* requests with the flat engine's round kernel
(:mod:`repro.core.engine`): one round op answers every active query's
windows with one batched
:meth:`~repro.storage.inverted_index.InvertedListStore.batch_window_positions`
call, splits them into ring runs with the engine's
:class:`~repro.core.engine.RingCursor`, and consumes each query's scan in
the engine's entry-sized blocks (:func:`~repro.core.engine.block_ends`)
with its crossing recovery (:func:`~repro.core.engine.find_crossings`).
The store it scans is a compact int32 store over the shard's own
sub-runs, which the worker extracts from a v3 file of the coordinator's
current index when it starts (:meth:`ShardSearcher.attach`).  Sub-runs
preserve run order, so the worker sees its entries of every window in
the engine's order.

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
               n-th subsequent ``round`` op instead (mid-wave death)
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
coordinator's full index and the next round needs no rebuild.  Updates
are sequenced by LSN: a record at or below the shard's acked LSN is
acknowledged but not re-applied, which makes the coordinator's retry
after a repair idempotent.

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
    _EMPTY_F64,
    _SLACK_DEAD,
    RingCursor,
    block_ends,
    find_crossings,
    first_stop,
)
from repro.errors import ReproError
from repro.metrics.lp import lp_distance
from repro.obs.registry import MetricsRegistry
from repro.obs.trace_context import TraceContext
from repro.obs.tracer import SpanTracer
from repro.persistence import open_v3_store
from repro.serve.sharding import ShardSpec
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

    ``store`` is a compact store over the shard's sub-runs whose ids are
    local rows, and ``positions`` each of its entries' full-run
    position, flat.  Local row ``j`` is global point ``gids[j]`` (sorted
    ascending; inserted points append), with data row ``data[j]`` and
    tombstone bit ``alive[j]``.
    """

    def __init__(
        self,
        shard_id: int,
        store: InvertedListStore,
        positions: np.ndarray,
        gids: np.ndarray,
        data: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        self.shard_id = shard_id
        self.store = store
        self.positions = positions
        self.gids = gids
        self.data = data
        self.alive = alive
        self.m = int(gids.size)
        self.queries: dict[int, _QueryState] = {}
        self._marks = np.zeros(self.m, dtype=bool)  # find_crossings scratch
        # Always-on scan accumulators (two int adds per scan); the
        # obs-enabled reply path ships deltas of these.
        self.rows_scanned = 0
        self.crossings = 0
        # Live-update sequence (DESIGN §11).
        self.epoch = 0
        self.acked_lsn = 0

    @classmethod
    def attach(cls, spec: ShardSpec) -> "ShardSearcher":
        """Attach from ``spec``'s v3 file: compact the owned sub-runs.

        Everything kept is a private copy, so no mapping of the file
        outlives this call and the coordinator may delete the file as
        soon as the worker has answered its first op.
        """
        store, arrays = open_v3_store(spec.path)
        compact, state = store.compact_shard(spec.ids)
        searcher = cls(
            spec.shard_id,
            InvertedListStore.from_compact(
                compact["rel"], compact["ids"], compact["row_top"], state
            ),
            compact["positions"].ravel(),
            spec.ids,
            arrays["data"][spec.ids],
            np.array(spec.alive, dtype=bool),
        )
        searcher.acked_lsn = int(spec.acked_lsn)
        searcher.epoch = int(spec.epoch)
        return searcher

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
        starts, stops = self.store.batch_window_positions(funcs, los, his)
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
        """Consume one query's round in the engine's entry-sized blocks.

        Stops after the first block in which the query's pre-round
        counts plus this shard's crossings meet the termination test,
        keeping only the crossings up to that function (``f_stop``).
        """
        # Flat store index of each ring run's first/last entry.
        ext = np.full((2, 2 * q.eta), -1, dtype=np.int64)
        found: list[tuple[np.ndarray, ...]] = []
        f_stop: int | None = None
        f0 = 0
        for f1 in block_ends(np.cumsum(seg_lens[0::2] + seg_lens[1::2]), self.m):
            starts = seg_starts[2 * f0 : 2 * f1]
            lens = seg_lens[2 * f0 : 2 * f1]
            raw = self.store.gather_segments32(starts, lens)
            ends = np.cumsum(lens)
            shift = starts - (ends - lens)  # stream index -> flat index
            segs = np.flatnonzero(lens)
            ext[0, 2 * f0 + segs] = starts[segs]
            ext[1, 2 * f0 + segs] = starts[segs] + lens[segs] - 1
            self.rows_scanned += int(raw.size)
            elems, add = find_crossings(raw, q.slack, self._marks)
            local = raw[elems]
            seg = np.searchsorted(ends, elems, side="right")
            funcs = f0 + seg // 2
            flat = elems + shift[seg]
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
            if f_stop is not None:
                break
            f0 = f1
        local, funcs, flat, dists = (np.concatenate(col) for col in zip(*found))
        self.crossings += int(local.size)
        ext = np.where(
            ext >= 0, self.positions[np.maximum(ext, 0)].astype(np.int64), -1
        )
        return {
            "gids": self.gids[local],
            "funcs": funcs,
            "pos": self.positions[flat].astype(np.int64),
            "dists": dists,
            "l_lo": ext[0, 0::2],
            "l_hi": ext[1, 0::2],
            "r_lo": ext[0, 1::2],
            "r_hi": ext[1, 1::2],
            "f_stop": f_stop,
        }

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
        self.gids = np.concatenate([self.gids, start + sel])
        self._marks = np.zeros(self.m, dtype=bool)

    def _apply_remove_delta(self, gids: np.ndarray) -> None:
        """Tombstone the removed ids this shard owns."""
        self.alive[np.isin(self.gids, gids)] = False


def worker_main(conn, spec: ShardSpec) -> None:
    """Worker process entry point (importable, spawn-safe).

    Attaches the shard, then serves ``(op_id, op, payload)`` requests
    until ``shutdown`` (or the pipe closes).  Every reply echoes the
    ``op_id`` and carries the op's wall-clock ``busy`` seconds (for
    per-shard utilisation) plus its ``cpu`` process-time seconds (for
    scheduler-noise-immune cost accounting on oversubscribed hosts).
    """
    try:
        searcher = ShardSearcher.attach(spec)
    except Exception:  # pragma: no cover - attach failures are fatal
        logger.exception(
            "shard %d worker failed to attach %s", spec.shard_id, spec.path
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
                result = searcher.apply_update(payload)
            elif op == "crash":
                if isinstance(payload, int) and payload > 0:
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
