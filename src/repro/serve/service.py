"""Sharded multiprocess query service with bit-identical I/O accounting.

:class:`ShardedSearchService` snapshots a built :class:`~repro.core.
lazylsh.LazyLSH` index into ``n_shards`` contiguous point-id ranges
(one persistent worker process each, holding its shard's compact
sub-runs) and answers the same ``Np(q, k, c)`` queries as
:meth:`LazyLSH.knn` — and, given ``metrics``, the same Section 4.3
shared scans as ``knn_batch(metrics=...)`` — by fanning every rehashing
round out to all shards and merging.

One driver
----------

The service has no Algorithm-4 state of its own.  It builds each
query's :class:`~repro.core.engine.LaneGroup` with the engine's own
builder (``LazyLSH._lane_group``) over its index, runs the engine's
round driver (:func:`~repro.core.engine.execute_rounds`) and supplies
only the scan: a fan-out of the round's windows to the workers, which
run the engine's scan kernel over their shards and return one
:class:`~repro.core.engine.ScanPart` each.  The group's merge step
(:meth:`~repro.core.engine.LaneGroup.merge`) folds the shards' parts in
exactly as it folds the engine's one in-process part.  What stays here
is fan-out, repair and replay.

Exactness
---------

The merged results — candidate order, termination round *and* hash
function, ids, distances, and the simulated sequential/random I/O
counts — are bit-identical to the single-process flat engine:

* **Shard scans restrict engine scans.**  Each shard's per-function
  sub-run preserves the full run's order, so a window search over it
  restricts the engine's endpoints exactly, and the ring split
  commutes with the restriction.
* **The local stop bound is exact.**  Each round request carries every
  lane's pre-round candidate and within-radius counts; a worker stops
  a lane at the first function ``f_stop`` where those counts plus its
  own crossings meet the termination test.  Other shards only add
  crossings, so the lane's true stop is at or before every shard's
  ``f_stop``, and the merge step recovers it by replaying the merged
  crossings in the engine's order (function, then full-run position).
* **Positions are dense.**  Crossings and scan extents carry full-run
  positions, and the shards partition each run, so the min/max of the
  shards' extents is the engine's scan interval per function, charged
  through the same page-hull arithmetic.

I/O attribution: random I/Os (candidate fetches) are attributed to the
shard owning the candidate (``shard_io`` on every per-metric result;
a multi-metric wave deduplicates fetches across metrics first, as the
engine does); sequential page reads are charged globally at the
coordinator because pages are a property of the full run, not of any
shard.  The totals in ``io`` equal the single-process engine's
exactly.

Fault tolerance: a worker death (detected as a broken pipe) triggers a
repair — dead workers are respawned from a v3 spill of the coordinator's
current index, every worker acknowledges a ``ping``, stale replies are
discarded by sequence number — and the whole wave is replayed once from
round zero, its ``begin`` replacing the wave each survivor still holds
(the scan is deterministic, so the replay returns the same results).  A
second failure raises :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing as mp
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.api import check_knobs
from repro.core.engine import execute_rounds
from repro.core.lazylsh import _lane_result
from repro.core.multiquery import MultiQueryResult
from repro.durability.wal import apply_record
from repro.errors import (
    IndexNotBuiltError,
    ReproError,
    WalGapError,
)
from repro.obs.query_trace import QueryTraceBuilder
from repro.obs.trace_context import active_context, new_request_id
from repro.obs.tracer import Span
from repro.persistence import save_index
from repro.serve.sharding import ShardSpec, plan_shards
from repro.serve.worker import worker_main
from repro.storage.io_stats import IOStats

logger = logging.getLogger("repro.serve.service")

#: Parent directory of attach spills when the host has it: tmpfs, so a
#: spill costs memory bandwidth, not disk writes.
_SPILL_ROOT = "/dev/shm"

#: Pipe round-trip latency buckets (seconds): a round trip is one op's
#: send → worker scan → reply receipt, so sub-millisecond to ~1s.
_ROUNDTRIP_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)


class _WorkerDied(Exception):
    """A worker's pipe broke mid-wave; the coordinator should repair."""

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"worker for shard {shard_id} died")
        self.shard_id = shard_id


def _worker_entry(conn, spec, parent_fd: int | None = None) -> None:
    """Worker bootstrap that first sheds the inherited coordinator fd.

    ``parent_fd`` is the coordinator's end of this worker's own pipe as
    numbered in a fork child's inherited fd table.  Closing it here is
    what lets ``conn.recv()`` observe EOF when the coordinator process
    dies without running ``close()`` — without this, an orphaned worker
    would hold its own pipe's write side open and wait forever.
    """
    if parent_fd is not None:
        try:
            os.close(parent_fd)
        except OSError:  # pragma: no cover - already closed is fine
            pass
    worker_main(conn, spec)


class _WaveObs:
    """Per-shard costs of one wave attempt, filled from every reply.

    Every attempt fills one, with or without telemetry.  Only a
    successful attempt is published, and only when the wave has
    telemetry; an attempt aborted by a worker death is discarded whole,
    so replayed waves never double-count (repair events themselves are
    recorded separately — they are facts about the service, not
    residue of the aborted attempt).
    """

    def __init__(self, n_shards: int) -> None:
        self.rows = [0] * n_shards
        self.crossings = [0] * n_shards
        self.busy = [0.0] * n_shards
        self.ops = [0] * n_shards
        self.roundtrips: list[list[float]] = [[] for _ in range(n_shards)]
        self.spans: list[list[dict]] = [[] for _ in range(n_shards)]

    def add(self, sid: int, reply: dict, roundtrip: float) -> None:
        """Fold one shard's reply and its pipe round-trip time in."""
        self.rows[sid] += reply["rows"]
        self.crossings[sid] += reply["crossings"]
        self.busy[sid] += reply["busy"]
        self.ops[sid] += 1
        self.roundtrips[sid].append(roundtrip)
        self.spans[sid].extend(reply["spans"])


class ShardedSearchService:
    """Queries a built index through persistent per-shard workers.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.lazylsh.LazyLSH`.  The service
        snapshots its data and inverted lists at construction time and
        *owns* the index afterwards: direct ``insert``/``remove`` calls
        on it are not visible to the workers — route updates through
        :meth:`ingest` (committed WAL records), which mutates the
        coordinator's copy and ships per-shard deltas in one step.
    n_shards:
        Number of shards — and worker processes; clamped to the number
        of stored rows.  Each shard owns a contiguous id range of
        balanced size (sizes differ by at most one point).
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or ``None`` for the platform default.
    telemetry:
        Service-level :class:`~repro.obs.telemetry.Telemetry` used for
        every wave that does not pass its own (per-call ``telemetry=``
        wins).  This is what a long-running server scraped through
        :class:`~repro.obs.exporter.ObsExporter` wants: one registry
        accumulating across all waves.
    auditor:
        Optional :class:`~repro.obs.auditor.GuaranteeAuditor`; every
        successfully answered query is offered to it (the auditor does
        its own sampling).
    base_lsn:
        WAL position the snapshotted index already covers (the
        checkpoint's ``wal_lsn`` when serving a recovered index);
        :meth:`ingest` expects the next record at ``base_lsn + 1`` and
        silently skips anything at or below it.

    Every worker attaches one way, at start and at respawn: it opens a
    v3 spill of the coordinator's *current* index, compacts the
    sub-runs of the ids it owns, copies their data rows and takes their
    alive bits, acked LSN and epoch from the coordinator.  The service
    writes the spill with :func:`~repro.persistence.save_index` into a
    private temporary directory and deletes it as soon as the workers
    have attached — also for an index mapped from a file, whose path
    may since name another index or none.  A respawned worker therefore
    starts from the same state the survivors hold.

    Use as a context manager (or call :meth:`close`) to release the
    worker processes::

        with ShardedSearchService(index, n_shards=4) as service:
            result = service.search(query, k=10, p=0.5)
    """

    def __init__(
        self,
        index,
        *,
        n_shards: int = 2,
        start_method: str | None = None,
        telemetry=None,
        auditor=None,
        base_lsn: int = 0,
    ) -> None:
        if not getattr(index, "is_built", False):
            raise IndexNotBuiltError(
                "ShardedSearchService needs a built index; call build(data)"
            )
        self.index = index
        self.ranges = plan_shards(index.num_rows, n_shards)
        self.n_shards = len(self.ranges)
        # Live-update plane (DESIGN §11): the owning shard of every row,
        # inserted rows included; epoch counts applied updates, acked_lsn
        # the newest WAL record folded in.
        sizes = [hi - lo for lo, hi in self.ranges]
        self._owner = np.repeat(np.arange(self.n_shards, dtype=np.int64), sizes)
        self._shard_points = np.array(sizes, dtype=np.int64)
        self.epoch = 0
        self.acked_lsn = int(base_lsn)
        self.updates_applied = 0
        self._ctx = mp.get_context(start_method)
        self._procs: list = [None] * self.n_shards
        self._conns: list = [None] * self.n_shards
        self.busy_seconds = [0.0] * self.n_shards
        self.cpu_seconds = [0.0] * self.n_shards
        self.restarts = 0
        self.replays = 0
        self.queries_served = 0
        self.telemetry = telemetry
        self.auditor = auditor
        self._op_seq = 0
        self._closed = False
        # Serialises every pipe-touching entry point (search waves and
        # ingest).  Re-entrant so the HTTP front door can hold it across
        # a whole coalesced plan — cache lookups and the plan's waves,
        # single- and multi-metric — without deadlocking on the
        # service's own acquisition.  Single-threaded callers never
        # contend on it.
        self.lock = threading.RLock()
        # Wall-clock time of each shard's last successful reply; read by
        # health() (never poked from the exporter thread).
        self._last_reply = [0.0] * self.n_shards
        try:
            with self._attach_file() as path:
                for sid in range(self.n_shards):
                    self._spawn(sid, path)
                self._broadcast("ping")
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @contextmanager
    def _attach_file(self):
        """Path of a v3 spill of the current index for workers to attach.

        The spill is written by :func:`save_index` into a private
        temporary directory and removed when the block exits.  Workers
        spawned inside the block must have answered an op before it
        exits: a worker answers only once attached, and attaching leaves
        it no reference to the file.  A mapped index spills too: the
        path it was opened from may since have been replaced or removed
        (its mapping keeps the old inode), so it names no reliable state.
        """
        spill_dir = tempfile.mkdtemp(
            prefix="repro-spill-",
            dir=_SPILL_ROOT if os.path.isdir(_SPILL_ROOT) else None,
        )
        try:
            yield str(save_index(self.index, os.path.join(spill_dir, "index")))
        finally:
            shutil.rmtree(spill_dir, ignore_errors=True)

    def _spawn(self, sid: int, path: str) -> None:
        """Start shard ``sid``'s worker on the coordinator's current state."""
        ids = np.flatnonzero(self._owner == sid)
        spec = ShardSpec(
            sid, path, ids, self.index._alive[ids], self.acked_lsn, self.epoch
        )
        parent_conn, child_conn = self._ctx.Pipe()
        # Under fork the child's fd table carries the coordinator's end
        # of this very pipe; unless the worker drops it, coordinator
        # death (SIGKILL included) never surfaces as EOF and an orphaned
        # worker blocks in recv() forever.  spawn/forkserver children
        # inherit nothing, so there is no fd to close there.
        parent_fd = (
            parent_conn.fileno()
            if self._ctx.get_start_method() == "fork"
            else None
        )
        proc = self._ctx.Process(
            target=_worker_entry,
            args=(child_conn, spec, parent_fd),
            daemon=True,
            name=f"repro-shard-{sid}",
        )
        proc.start()
        # Close the parent's copy of the child end so a worker death
        # surfaces as EOF instead of a hang.
        child_conn.close()
        self._procs[sid] = proc
        self._conns[sid] = parent_conn

    def close(self) -> None:
        """Shut the workers down.  Idempotent; also invoked by ``__exit__``."""
        if self._closed:
            return
        self._closed = True
        logger.info(
            "closing sharded service: %d shard(s), %d queries served, "
            "%d restart(s)",
            self.n_shards,
            self.queries_served,
            self.restarts,
        )
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send((self._next_op(), "shutdown", None))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            if conn is not None:
                conn.close()

    def __enter__(self) -> "ShardedSearchService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict:
        """Service-level counters (JSON-serialisable)."""
        return {
            "n_shards": self.n_shards,
            "shard_ranges": [list(r) for r in self.ranges],
            "shard_points": [int(x) for x in self._shard_points],
            "busy_seconds": list(self.busy_seconds),
            "cpu_seconds": list(self.cpu_seconds),
            "restarts": self.restarts,
            "replays": self.replays,
            "queries_served": self.queries_served,
            "epoch": self.epoch,
            "acked_lsn": self.acked_lsn,
            "updates_applied": self.updates_applied,
        }

    def health(self) -> dict:
        """Read-only health report (safe from the exporter thread).

        Per-shard worker liveness, point count and last-heartbeat age,
        plus the index's storage; ``healthy`` is true iff the service is
        open and every worker process is alive.  Strictly reads cached state
        — no pipe traffic — so a scrape can never interleave with (or
        block on) an in-flight wave's op sequence.
        """
        now = time.time()
        shards = []
        healthy = not self._closed
        for sid in range(self.n_shards):
            proc = self._procs[sid]
            alive = bool(proc is not None and proc.is_alive())
            healthy = healthy and alive
            last = self._last_reply[sid]
            shards.append({
                "shard": sid,
                "alive": alive,
                "points": int(self._shard_points[sid]),
                "last_heartbeat_age_seconds": (
                    now - last if last else None
                ),
            })
        return {
            "healthy": bool(healthy),
            "closed": self._closed,
            "n_shards": self.n_shards,
            "restarts": self.restarts,
            "replays": self.replays,
            "queries_served": self.queries_served,
            "storage": self.index.storage_info(),
            "shards": shards,
            "wal": {
                "epoch": self.epoch,
                "acked_lsn": self.acked_lsn,
                "updates_applied": self.updates_applied,
                "extra_points": int(self._owner.size - self.ranges[-1][1]),
            },
        }

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------

    def _next_op(self) -> int:
        self._op_seq += 1
        return self._op_seq

    def _send(self, sid: int, op_id: int, op: str, payload) -> None:
        try:
            self._conns[sid].send((op_id, op, payload))
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerDied(sid) from exc

    def _recv(self, sid: int, op_id: int) -> dict:
        """Receive shard ``sid``'s reply to ``op_id``.

        Replies to older ops (stale queue entries surviving a repair)
        are discarded; a broken pipe raises :class:`_WorkerDied`; a
        worker-side exception is re-raised here (it is a bug, not a
        death — no retry).  Returns the whole reply (see
        :func:`~repro.serve.worker.worker_main`).
        """
        while True:
            try:
                reply_id, status, payload = self._conns[sid].recv()
            except (EOFError, OSError) as exc:
                raise _WorkerDied(sid) from exc
            if status == "err":
                raise ReproError(
                    f"shard {sid} worker failed:\n{payload}"
                )
            if reply_id == op_id:
                self.busy_seconds[sid] += payload["busy"]
                self.cpu_seconds[sid] += payload["cpu"]
                self._last_reply[sid] = time.time()
                return payload
            if reply_id > op_id:  # pragma: no cover - protocol bug
                raise ReproError(
                    f"shard {sid} replied to op {reply_id} while awaiting "
                    f"{op_id}"
                )
            # reply_id < op_id: stale reply from before a repair — drop.

    def _broadcast(
        self, op: str, payload=None, wave: _WaveObs | None = None
    ) -> list:
        """Send one op to every shard, then collect every result.

        A wave attempt passes its ``wave`` record, which every reply
        fills.
        """
        op_id = self._next_op()
        t0 = time.perf_counter()
        for sid in range(self.n_shards):
            self._send(sid, op_id, op, payload)
        results = []
        for sid in range(self.n_shards):
            reply = self._recv(sid, op_id)
            if wave is not None:
                wave.add(sid, reply, time.perf_counter() - t0)
            results.append(reply["result"])
        return results

    def _repair(self, known_dead: int | None = None) -> list[int]:
        """Respawn dead workers from the current index; every worker acks.

        ``known_dead`` is the shard whose pipe broke: its EOF can arrive
        before ``waitpid`` observes the exit, so it is joined first
        rather than trusting ``is_alive()``.  A respawned worker attaches
        the coordinator's current state — the state every survivor
        holds — so nothing is replayed to it.  A worker dying again
        during the repair restarts it, up to three attempts, from the
        same attach file: the index cannot change under the lock, and a
        worker spawned by a failed attempt may still be opening it.
        Returns the shard ids that were respawned.
        """
        all_respawned: set[int] = set()
        with self._attach_file() as path:
            for _attempt in range(3):
                try:
                    if known_dead is not None:
                        self._procs[known_dead].join(timeout=5)
                    dead = [
                        sid
                        for sid in range(self.n_shards)
                        if sid == known_dead
                        or not self._procs[sid].is_alive()
                    ]
                    known_dead = None
                    for sid in dead:
                        self._conns[sid].close()
                        self._spawn(sid, path)
                        self.restarts += 1
                    all_respawned.update(dead)
                    logger.warning(
                        "respawned shard worker(s) %s after a death "
                        "(restarts=%d)",
                        dead,
                        self.restarts,
                    )
                    # Survivors may hold queued replies from the aborted
                    # wave; the ping's fresh op id flushes them (stale
                    # replies are skipped by _recv's check), and a
                    # replay's begin replaces the wave they hold.  It is
                    # also the respawned workers' first op, so it
                    # returns only once they attached.
                    self._broadcast("ping")
                    return sorted(all_respawned)
                except _WorkerDied as died:
                    known_dead = died.shard_id
        raise ReproError(
            "sharded service: workers kept dying during repair; giving up"
        )

    def repair(self) -> list[int]:
        """Respawn any dead worker now; returns the respawned shard ids.

        Waves and :meth:`ingest` repair the fleet themselves when a pipe
        breaks under them.  This heals a fleet that lost a worker while
        idle, so that :meth:`health` reports it healthy again.
        """
        with self.lock:
            if self._closed:
                raise ReproError("service is closed")
            if all(proc.is_alive() for proc in self._procs):
                return []
            return self._repair()

    def _crash_worker(
        self, shard_id: int, after_rounds: int | None = None
    ) -> None:
        """Test hook: kill one worker (``os._exit(1)``).

        With ``after_rounds=n`` the worker acknowledges and arms a
        deferred crash: it dies while handling the n-th subsequent
        ``round`` op, i.e. *mid-wave*, exercising the repair-and-replay
        path from inside a wave rather than between waves.
        """
        if after_rounds is None:
            self._send(shard_id, self._next_op(), "crash", None)
            self._procs[shard_id].join(timeout=5)
        else:
            op_id = self._next_op()
            self._send(shard_id, op_id, "crash", int(after_rounds))
            self._recv(shard_id, op_id)

    # ------------------------------------------------------------------
    # Live updates (DESIGN §11)
    # ------------------------------------------------------------------

    def _assign_owners(self, count: int) -> np.ndarray:
        """Deterministically place ``count`` new points on shards.

        Each point goes to the currently least-loaded shard (ties break
        to the lowest id), so ownership stays balanced and every
        coordinator replaying the same WAL assigns identically.
        """
        owners = np.empty(count, dtype=np.int64)
        for j in range(count):
            sid = int(np.argmin(self._shard_points))
            owners[j] = sid
            self._shard_points[sid] += 1
        return owners

    def ingest(self, records) -> int:
        """Apply committed WAL records to the live fleet.

        ``records`` is an iterable of :class:`~repro.durability.wal.
        WalRecord` (e.g. a :class:`~repro.durability.feed.WalFeed`
        poll).  Records at or below the service's acked LSN are skipped
        (idempotent replay); a gap raises.  Each applied record bumps the
        service epoch, mutates the coordinator's index, and ships the
        shard deltas over the worker pipes; queries issued after
        ``ingest`` returns see the new state bit-identically to a
        single-process index that applied the same records.  Returns the
        number of records applied.

        The coordinator's index applies each record with
        :func:`~repro.durability.wal.apply_record`, as recovery does: an
        insert carrying other ids than the index would assign raises
        :class:`~repro.durability.wal.WalCorruptionError` and leaves the
        service as it was.

        Thread-safe: serialised against search waves by ``self.lock``.
        """
        with self.lock:
            if self._closed:
                raise ReproError("service is closed")
            applied = 0
            for record in records:
                lsn = int(record.lsn)
                if lsn <= self.acked_lsn:
                    continue
                if lsn != self.acked_lsn + 1:
                    raise WalGapError(self.acked_lsn + 1, lsn)
                start = self.index.num_rows
                plan = apply_record(self.index, record)
                delta = {"op": record.op, "lsn": lsn, "epoch": self.epoch + 1}
                if plan is None:
                    np.subtract.at(self._shard_points, self._owner[record.ids], 1)
                    delta["gids"] = np.ascontiguousarray(record.ids, dtype=np.int64)
                else:
                    owners = self._assign_owners(record.ids.shape[0])
                    self._owner = np.concatenate([self._owner, owners])
                    delta.update(
                        plan=plan,
                        points=np.ascontiguousarray(
                            record.points, dtype=np.float64
                        ),
                        batch_start=start,
                        owners=owners,
                    )
                self.epoch += 1
                self.acked_lsn = lsn
                self.updates_applied += 1
                # WAL catch-up gets its own head-sampled trace, so live
                # ingest is inspectable under /trace.
                ctx = (
                    self.telemetry.maybe_sample_context()
                    if self.telemetry is not None
                    else None
                )
                with (
                    nullcontext() if ctx is None
                    else self.telemetry.tracer.span(
                        "serve.ingest", context=ctx, lsn=lsn, op=record.op
                    )
                ):
                    self._ship(delta)
                if ctx is not None:
                    self.telemetry.finish_trace(ctx)
                applied += 1
            return applied

    def _ship(self, delta: dict) -> None:
        """Broadcast one update delta, repairing on a worker death.

        The coordinator's index already holds the delta, so a worker the
        repair respawns attaches with it applied and skips the retry by
        LSN, as do survivors that applied it before the death.
        """
        for attempt in range(2):
            try:
                self._broadcast("update", delta)
                return
            except _WorkerDied as died:
                if attempt:
                    raise ReproError(
                        "sharded service: worker died again while shipping "
                        "an update; giving up"
                    ) from None
                self._repair(known_dead=died.shard_id)

    # ------------------------------------------------------------------
    # Search API
    # ------------------------------------------------------------------

    def search(
        self,
        query,
        k: int,
        *,
        p: float | None = None,
        metrics=None,
        cap: float | None = None,
        radius: float | None = None,
        telemetry=None,
        request_id: str | None = None,
        trace_context=None,
        deadline_ms: float | None = None,
        explain: bool = False,
    ):
        """Answer one ``Np(q, k, c)`` query across all shards.

        The one-row form of :meth:`search_batch`, with the same keyword
        knobs as :meth:`LazyLSH.knn` (the service always runs its own
        distributed flat plan, so it takes no ``engine``).  ``metrics``
        answers the point under every listed metric with one shared
        Section 4.3 scan and returns a
        :class:`~repro.core.multiquery.MultiQueryResult`, as
        ``knn_batch(metrics=...)`` does.
        ``request_id``/``trace_context``/``deadline_ms`` opt the query
        into distributed tracing and the advisory deadline — see
        :meth:`search_batch`.  ``explain=True`` attaches the query's
        record (DESIGN §15) as ``result.explain``; answers stay
        bit-identical.
        """
        return self.search_batch(
            self.index._check_query(query)[None, :], k, p=p, metrics=metrics,
            cap=cap, radius=radius, telemetry=telemetry,
            request_id=request_id, trace_context=trace_context,
            deadline_ms=deadline_ms, explain=explain,
        )[0]

    def search_batch(
        self,
        queries,
        k: int,
        *,
        p: float | None = None,
        metrics=None,
        cap: float | None = None,
        radius: float | None = None,
        telemetry=None,
        request_id: str | None = None,
        trace_context=None,
        deadline_ms: float | None = None,
        explain: bool = False,
    ) -> list:
        """Answer a ``(m, d)`` matrix of queries as one synchronised wave.

        All queries of the wave share ``k``/``p``/``cap``/``radius``;
        per-query radii and termination stay independent (a finished
        query simply drops out of later rounds).  Returns one
        :class:`~repro.api.SearchResult` per row, each with the
        per-shard random-I/O breakdown in ``shard_io``.

        ``metrics`` (instead of ``p``, default ``1.0``) answers every
        row under all listed metrics, one Section 4.3 shared scan per
        row, and returns one :class:`~repro.core.multiquery.
        MultiQueryResult` per row, bit-identical to
        ``knn_batch(metrics=...)``; each per-metric result carries its
        own ``shard_io``.  As in ``knn_batch`` it needs query-centric
        rehashing and takes no ``radius``.

        Tracing (DESIGN §13): a sampled ``trace_context`` — supplied by
        the caller or minted by the telemetry's head sampler — makes the
        wave a distributed trace: the coordinator's root span id rides
        the round payloads, workers open ``worker.round`` child spans
        under it, and the finished tree lands in the telemetry's trace
        store under one trace id.  ``deadline_ms`` is advisory: results
        stay bit-identical, overruns are flagged/counted.  ``explain``
        attaches each result's query record (its trace's ``to_dict()``,
        DESIGN §15) as ``result.explain``.

        Thread-safe: the wave holds ``self.lock`` (re-entrant), so
        concurrent callers and ``ingest`` are serialised.
        """
        with self.lock:
            if self._closed:
                raise ReproError("service is closed")
            metrics = check_knobs(k, p=p, metrics=metrics, cap=cap, radius=radius)
            index = self.index
            queries = index._check_queries(queries)
            if queries.shape[0] == 0:
                return []
            hashes = index._bank.hash_points(queries)  # one matmul for the wave

            def build() -> list:
                """The wave's lane groups, from the engine's own builders."""
                return [
                    index._lane_group(
                        queries[j], k, 1.0 if p is None else p,
                        metrics=metrics, cap=cap, radius=radius,
                        query_hashes=hashes[:, j].copy(),
                    )
                    for j in range(queries.shape[0])
                ]

            groups = build()  # validates k and the metrics before any wave
            if telemetry is None:
                telemetry = self.telemetry  # service-level fallback
            ctx = (
                active_context(trace_context) if telemetry is None
                else telemetry.maybe_sample_context(trace_context)
            )
            if ctx is not None and request_id is None:
                request_id = new_request_id()
            # Untraced waves open no span anywhere on the wave path
            # (tracing-off overhead stays ~zero and legacy spans do not
            # pile up in a long-lived service).
            root = (
                telemetry.tracer.span(
                    "serve.search_batch", context=ctx, shards=self.n_shards,
                    queries=int(queries.shape[0]), k=k, request_id=request_id,
                )
                if telemetry is not None and ctx is not None
                else nullcontext()
            )
            start = time.monotonic()
            with root:
                rows = self._execute(
                    groups, build, hashes, telemetry, explain=explain,
                    request_id=request_id,
                    trace_id=None if ctx is None else ctx.trace_id,
                )
            if telemetry is not None and ctx is not None:
                telemetry.finish_trace(ctx)
            answers = [result for row in rows for result in row]
            if request_id is not None:
                for result in answers:
                    result.request_id = request_id
                    if ctx is not None:
                        result.trace_id = ctx.trace_id
            if deadline_ms is not None:
                elapsed = time.monotonic() - start
                if elapsed * 1000.0 > deadline_ms:
                    for result in answers:
                        result.deadline_exceeded = True
                    if telemetry is not None:
                        telemetry.note_deadline_overrun(
                            deadline_ms=deadline_ms,
                            elapsed_seconds=elapsed,
                            where="serve.search_batch",
                            request_id=request_id,
                        )
            if metrics is None:
                return [row[0] for row in rows]
            return [MultiQueryResult.of(row) for row in rows]

    # ------------------------------------------------------------------
    # Wave execution
    # ------------------------------------------------------------------

    def _execute(
        self, groups, build, hashes, telemetry,
        *, explain=False, request_id=None, trace_id=None,
    ) -> list[list]:
        """Run one wave of lane groups; one result list per group.

        ``build`` makes fresh groups for the replay after a repair.
        Every attempt fills its own :class:`_WaveObs`; the successful
        one is published when the wave has telemetry.  Workers parent
        their round spans to the wave's root span, if one is open.
        """
        trace = None if telemetry is None else telemetry.tracer.current_context()
        for attempt in range(2):
            if attempt:
                groups = build()
            for group in groups:
                for lane in group.lanes:
                    lane.shard_random = np.zeros(self.n_shards, dtype=np.int64)
                    if telemetry is not None:
                        lane.trace = telemetry.query_trace_builder(
                            p=lane.p, k=lane.k, engine="sharded",
                            rehashing=self.index.rehashing, cap=lane.cap,
                        )
                    elif explain:
                        # EXPLAIN without telemetry: build the round
                        # records through the same hooks, just without
                        # recording them.
                        lane.trace = QueryTraceBuilder(
                            p=lane.p, k=lane.k, engine="sharded",
                            rehashing=self.index.rehashing, cap=lane.cap,
                        )
            wave = _WaveObs(self.n_shards)
            try:
                self._run_wave(groups, wave, trace)
                break
            except _WorkerDied as died:
                if attempt:
                    raise ReproError(
                        "sharded service: worker died again after repair; "
                        "giving up on this wave"
                    ) from None
                logger.warning(
                    "worker for shard %d died mid-wave; repairing and "
                    "replaying the wave",
                    died.shard_id,
                )
                respawned = self._repair(known_dead=died.shard_id)
                self.replays += 1
                if telemetry is not None:
                    # Repair events are facts about the service, not
                    # residue of the aborted attempt — record them now.
                    self._record_repair(telemetry, respawned)
        # Success: only now fold the wave into the index-level counters
        # and telemetry (an aborted attempt leaves no residue).
        if telemetry is not None:
            self._merge_wave_obs(telemetry, wave)
        merge_cm = (
            telemetry.tracer.span("serve.merge", queries=len(groups))
            if trace is not None
            else nullcontext()
        )
        workload = None if telemetry is None else telemetry.workload
        rows = []
        with merge_cm:
            for j, group in enumerate(groups):
                query_digest = bucket = None
                if workload is not None:
                    # The canonical workload keys: the exact query bytes
                    # and the full round-0 base bucket as raw int64
                    # bytes (the same identity the frontend's cache
                    # uses; bytes keep this one memcpy).
                    query_digest = hashlib.sha1(group.query.tobytes()).hexdigest()
                    bucket = hashes[:, j].tobytes()
                row = []
                for lane in group.lanes:
                    result = _lane_result(lane)
                    result.shard_io = [
                        IOStats(random=int(x)) for x in lane.shard_random
                    ]
                    self.index.io_stats.merge(lane.io)
                    if lane.trace is not None:
                        result.trace = lane.trace.finish(
                            termination=lane.stop_reason,
                            io=lane.io,
                            candidates=result.candidates,
                            shard_io=result.shard_io,
                            request_id=request_id,
                            trace_id=trace_id,
                        )
                        if explain:
                            result.explain = result.trace.to_dict()
                    if telemetry is not None:
                        telemetry.record(
                            result.trace,
                            query_digest=query_digest,
                            bucket=bucket,
                        )
                    if self.auditor is not None:
                        self.auditor.observe(
                            group.query,
                            k=lane.k,
                            p=lane.p,
                            ids=result.ids,
                            distances=result.distances,
                        )
                    row.append(result)
                rows.append(row)
        self.queries_served += len(rows)
        return rows

    def _run_wave(self, groups: list, wave: _WaveObs, trace) -> None:
        """Run the engine's round driver with each round's scan on the shards.

        ``begin`` replaces the wave every worker holds with ``groups``;
        every round then fans the active groups' windows out to all
        workers, addressed by wave position, and each group's merge
        step folds in one part per shard.  A lane's pre-round counts
        ride the request so a worker stops at the first function where
        its own crossings already terminate the lane (the local stop
        bound, DESIGN §9).  ``trace`` (the root span's context, or
        ``None``) rides every round so workers open their spans under
        it (W3C-style propagation over the pipe).
        """
        self._broadcast("begin", [
            (
                group.query,
                [(lane.p, lane.params, lane.k, lane.cap) for lane in group.lanes],
            )
            for group in groups
        ], wave)
        trace = None if trace is None else trace.to_dict()

        def scan(requests: list):
            # The driver lists the active groups in wave order, so one
            # walk over the wave finds each one's position.
            wave_rows = iter(enumerate(groups))
            payload = [
                (
                    next(row for row, held in wave_rows if held is group),
                    los,
                    his,
                    [
                        (lane.n_cand, lane.n_within, lane.c_delta)
                        if lane.active
                        else None
                        for lane in group.lanes
                    ],
                )
                for group, los, his in requests
            ]
            # One part list per shard, in request order: regroup per group.
            return zip(*self._broadcast("round", (payload, trace), wave))

        try:
            execute_rounds(groups, scan)
        except RuntimeError as exc:  # an engine abort: keep errors typed
            raise ReproError(str(exc)) from None

    # -- telemetry merge ------------------------------------------------

    def _record_repair(self, telemetry, respawned: list[int]) -> None:
        """Publish a repair event under per-shard labels."""
        reg = telemetry.registry
        respawns = reg.counter(
            "lazylsh_shard_respawns_total",
            "Shard workers respawned after a mid-wave death",
        )
        for sid in range(self.n_shards):
            # inc(0) materialises every shard's series so dashboards see
            # an explicit zero for the survivors.
            respawns.inc(
                1.0 if sid in respawned else 0.0, shard=str(sid)
            )
        reg.counter(
            "lazylsh_wave_replays_total",
            "Query waves replayed after a worker-death repair",
        ).inc()
        recorder = getattr(telemetry, "flight_recorder", None)
        if recorder is not None:
            recorder.trigger(
                "worker_respawn",
                shards=list(respawned),
                restarts=self.restarts,
                replays=self.replays,
            )

    def _merge_wave_obs(self, telemetry, wave: _WaveObs) -> None:
        """Fold one successful wave's per-shard buffer into telemetry.

        Counter series are labelled ``shard="<id>"`` and every shard's
        series is materialised each wave (zero increments included), so
        a 4-shard fleet always exposes 4 labelled children.  Worker-side
        spans are rehydrated into the parent tracer tagged with their
        origin shard (span ids are scoped to the worker's own tracer —
        the ``shard`` attribute disambiguates).
        """
        reg = telemetry.registry
        rows = reg.counter(
            "lazylsh_shard_rows_scanned_total",
            "Inverted-list entries scanned, by shard",
        )
        crossings = reg.counter(
            "lazylsh_shard_crossings_total",
            "Collision-threshold crossings found, by shard",
        )
        busy = reg.counter(
            "lazylsh_shard_busy_seconds_total",
            "Worker wall-clock busy seconds, by shard",
        )
        ops = reg.counter(
            "lazylsh_shard_ops_total",
            "Pipe ops answered, by shard",
        )
        roundtrip = reg.histogram(
            "lazylsh_shard_roundtrip_seconds",
            "Pipe round-trip time (op send to reply receipt), by shard",
            buckets=_ROUNDTRIP_BUCKETS,
        )
        for sid in range(self.n_shards):
            label = str(sid)
            rows.inc(wave.rows[sid], shard=label)
            crossings.inc(wave.crossings[sid], shard=label)
            busy.inc(wave.busy[sid], shard=label)
            ops.inc(wave.ops[sid], shard=label)
            for dt in wave.roundtrips[sid]:
                roundtrip.observe(dt, shard=label)
            for record in wave.spans[sid]:
                span = Span.from_dict(record)
                span.attributes.setdefault("shard", sid)
                span.attributes["origin"] = "worker"
                telemetry.tracer.spans.append(span)


def default_shards() -> int:
    """A sensible shard count for this host: its CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, wall_seconds)`` (bench helper)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
