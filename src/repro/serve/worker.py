"""Shard worker: the per-process half of the sharded query service.

Each worker owns one contiguous id-range shard of the inverted index and
answers *round* requests with the engine's scan kernel
(:meth:`repro.core.engine.LaneGroup.scan`): every query of a wave is one
engine :class:`~repro.core.engine.LaneGroup` over the shard's store —
one lane per metric — and one round op runs
:func:`~repro.core.engine.scan_groups` over all of them, the same
function the in-process engine runs over its full store.  The store is
a compact int32 store over the shard's own sub-runs, which the worker
extracts from a v3 spill of the coordinator's current index when it
starts (:meth:`ShardSearcher.attach`).  Sub-runs preserve run order, so
the worker sees its entries of every window in the engine's order, and
the kernel maps every position through the shard's full-run
``positions``.

Per query and round the worker returns the kernel's
:class:`~repro.core.engine.ScanPart`: per-function scan extents in
full-run positions, and per lane its crossings (global id, function,
full-run position, true ``lp`` distance from the shard's own data rows)
and ``f_stop``, the first function at which the lane's pre-round counts
(shipped on the request) plus this shard's crossings already meet
Algorithm 4's termination test.  The worker scans no further for that
lane and reports no crossing past it.

The worker never decides termination: the coordinator's merge step
(:meth:`~repro.core.engine.LaneGroup.merge`) does, over every shard's
part (DESIGN §9).  A lane the merge continues past had no local stop
anywhere, so every shard consumed its round whole and the per-point
collision state never diverges from the single-process engine's.

The wire protocol is one ``(op_id, op, payload)`` tuple per request with
one ``(op_id, "ok", reply)`` or ``(op_id, "err", traceback)`` reply.
The coordinator's ``op_id`` is a monotonically increasing sequence
number: after a worker death it lets the coordinator discard stale
replies still queued in surviving workers' pipes before replaying the
wave.  Ops:

=============  ======================================================
``ping``       liveness check (a repair's acknowledgement), returns
               the shard id and point count
``begin``      replace the held wave: one ``(vector, lanes)`` per row,
               with one ``(p, params, k, cap)`` per lane; rows are
               addressed by their position in the wave from then on
``round``      ``(requests, trace)``: scan one round for the active
               rows, each ``(row, los, his, lanes)`` with one
               ``(n_cand, n_within, c_delta)`` per active lane,
               ``None`` per terminated one; ``trace`` is the wave's
               root span context or ``None``
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

Every reply has one shape (DESIGN §10): the op's ``result`` plus what
that op cost — wall-clock ``busy`` and process-time ``cpu`` seconds,
the entries it gathered (``rows``), the threshold crossings it found
(``crossings``) and the finished span dicts it opened (``spans``).
Only a ``round`` gathers entries, and only a round with a ``trace``
context opens a span (``worker.round``, a child of the coordinator's
wave-root span); every other reply carries zeros and no spans.  The
worker keeps no counters between ops and no metrics registry: the
coordinator publishes the figures under per-shard labels
(``lazylsh_shard_*``).
"""

from __future__ import annotations

import logging
import os
import time
import traceback

import numpy as np

from repro.core.engine import Lane, LaneGroup, scan_groups
from repro.errors import ReproError
from repro.obs.trace_context import TraceContext
from repro.obs.tracer import SpanTracer
from repro.persistence import load_index
from repro.serve.sharding import ShardSpec
from repro.storage.inverted_index import InvertedListStore, merge_runs, sort_rows

logger = logging.getLogger("repro.serve.worker")


class ShardSearcher:
    """Executes rounds over one attached shard.

    ``store`` is a compact store over the shard's sub-runs whose ids are
    local rows, and ``positions`` each of its entries' full-run
    position, flat.  Local row ``j`` is global point ``gids[j]`` (sorted
    ascending; inserted points append), with data row ``data[j]`` and
    tombstone bit ``alive[j]``.  Each row of the held wave is one engine
    :class:`~repro.core.engine.LaneGroup` over this store; the groups
    stay until the next :meth:`begin` replaces them.
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
        self.groups: list[LaneGroup] = []
        # Live-update sequence (DESIGN §11).
        self.epoch = 0
        self.acked_lsn = 0

    @classmethod
    def attach(cls, spec: ShardSpec) -> "ShardSearcher":
        """Attach from ``spec``'s v3 file: compact the owned sub-runs.

        The file opens mapped (:func:`~repro.persistence.load_index`).
        Everything kept is a private copy, so no mapping of the file
        outlives this call and the coordinator may delete the file as
        soon as the worker has answered its first op.
        """
        index = load_index(spec.path)
        compact, state = index.store.compact_shard(spec.ids)
        searcher = cls(
            spec.shard_id,
            InvertedListStore.from_compact(
                compact["rel"], compact["ids"], compact["row_top"], state
            ),
            compact["positions"].ravel(),
            spec.ids,
            index.data[spec.ids],
            np.array(spec.alive, dtype=bool),
        )
        searcher.acked_lsn = int(spec.acked_lsn)
        searcher.epoch = int(spec.epoch)
        return searcher

    # -- protocol ops ---------------------------------------------------

    def begin(self, entries: list) -> None:
        """Replace the held wave: one ``(query, [(p, params, k, cap), ...])``
        per row, in wave order."""
        self.groups = [
            LaneGroup(
                store=self.store,
                data=self.data,
                alive=self.alive,
                query=np.asarray(query, dtype=np.float64),
                lanes=[Lane(*lane) for lane in lanes],
            )
            for query, lanes in entries
        ]

    def round(self, requests: list) -> tuple[list, int, int]:
        """Scan one round of the listed rows with the engine's kernel.

        Each request is ``(row, los, his, lanes)``: the row's wave
        position, the round's windows and, per lane, ``None`` when it
        has terminated or its pre-round ``(n_cand, n_within,
        c_delta)``.  Returns the parts in request order, with crossing
        ids as global ids, plus the entries gathered and the crossings
        found.
        """
        if not requests:
            return [], 0, 0
        scans = []
        for row, los, his, states in requests:
            group = self.groups[row]
            for lane, state in zip(group.lanes, states):
                lane.active = state is not None
                if state is not None:
                    lane.n_cand, lane.n_within, lane.c_delta = state
            scans.append((group, los, his))
        parts = []
        rows = crossings = 0
        for part in scan_groups(self.store, scans, self.positions):
            lanes = [
                None if entry is None else (self.gids[entry[0]], *entry[1:])
                for entry in part.lanes
            ]
            rows += part.rows
            crossings += sum(entry[0].size for entry in lanes if entry)
            parts.append(part._replace(lanes=lanes))
        return parts, rows, crossings

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
        # The plan's values are relative to a ``vmin`` at or below them all.
        rel, order = sort_rows(plan.rel_values, 0, int(plan.rel_values.max(initial=0)))
        funcs = np.repeat(np.arange(num_funcs, dtype=np.int64), m_batch)
        at = self.store.batch_entry_positions(
            funcs, rel.ravel() + plan.vmin
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

    def _apply_remove_delta(self, gids: np.ndarray) -> None:
        """Tombstone the removed ids this shard owns."""
        self.alive[np.isin(self.gids, gids)] = False


def worker_main(conn, spec: ShardSpec) -> None:
    """Worker process entry point (importable, spawn-safe).

    Attaches the shard, then serves ``(op_id, op, payload)`` requests
    until ``shutdown`` (or the pipe closes).  Every reply echoes the
    ``op_id`` and has one shape: the op's ``result``, its wall-clock
    ``busy`` seconds (per-shard utilisation), its ``cpu`` process-time
    seconds (scheduler-noise-immune cost accounting on oversubscribed
    hosts), and the ``rows``, ``crossings`` and ``spans`` of that op.
    """
    try:
        searcher = ShardSearcher.attach(spec)
    except Exception:  # pragma: no cover - attach failures are fatal
        logger.exception(
            "shard %d worker failed to attach %s", spec.shard_id, spec.path
        )
        conn.send((-1, "err", traceback.format_exc()))
        return
    tracer = SpanTracer()
    crash_in_rounds: int | None = None  # armed mid-wave crash countdown
    while True:
        try:
            op_id, op, payload = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        t0 = time.perf_counter()
        c0 = time.process_time()
        rows = crossings = 0
        tracer.clear()  # a reply ships only its own op's spans
        try:
            if op == "ping":
                result = {"shard": searcher.shard_id, "points": searcher.m}
            elif op == "begin":
                searcher.begin(payload)
                result = None
            elif op == "round":
                requests, trace = payload
                if crash_in_rounds is not None:
                    crash_in_rounds -= 1
                    if crash_in_rounds <= 0:
                        os._exit(1)
                if trace is None:
                    result, rows, crossings = searcher.round(requests)
                else:
                    # The coordinator's wave-root span context: this
                    # round's span becomes its child in the shared
                    # distributed trace (DESIGN §13).
                    with tracer.span(
                        "worker.round",
                        context=TraceContext.from_dict(trace),
                        shard=searcher.shard_id,
                        queries=len(requests),
                    ) as span:
                        result, rows, crossings = searcher.round(requests)
                        span.set(rows=rows, crossings=crossings)
            elif op == "update":
                result = searcher.apply_update(payload)
            elif op == "crash":
                if not (isinstance(payload, int) and payload > 0):
                    os._exit(1)
                crash_in_rounds = payload
                result = None
            elif op == "shutdown":
                result = None
            else:
                raise ReproError(f"unknown worker op {op!r}")
            conn.send((op_id, "ok", {
                "busy": time.perf_counter() - t0,
                "cpu": time.process_time() - c0,
                "rows": rows,
                "crossings": crossings,
                "spans": tracer.to_dicts(),
                "result": result,
            }))
            if op == "shutdown":
                break
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
