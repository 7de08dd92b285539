"""Follower node: bootstrap from a checkpoint, tail the leader's WAL.

:class:`FollowerNode` is one read replica (DESIGN §16).  Lifecycle:

1. **Bootstrap.**  Open the newest good checkpoint under the local
   home (:func:`~repro.durability.latest_checkpoint`); when there is
   none, fetch the leader's newest good checkpoint over the replication
   socket (written
   atomically: tmp + fsync + rename, the same discipline as
   :func:`repro.durability.write_checkpoint`).  The shard workers attach
   from the service's own spill, not from the checkpoint file.  The
   checkpoint's covered LSN seeds
   :class:`~repro.serve.ShardedSearchService` (``base_lsn``) and an
   optional :class:`~repro.serve.Frontend` serves reads on the
   standard v1 wire.
2. **Catch-up / tail.**  A replication thread connects to the leader,
   sends ``HELLO {start_lsn: acked}``, applies each ``WAL`` frame via
   ``service.ingest`` (idempotent-by-LSN, bit-identical to a
   single-process index that applied the same records) and acks the
   applied LSN.
3. **Reconnect.**  When the leader restarts or the stream drops, the
   follower re-dials with exponential backoff (``reconnect_min`` →
   ``reconnect_max``), resuming from its acked LSN.  A typed
   ``wal_truncated`` error from the leader (the log was pruned past our
   position) triggers a full re-bootstrap from a fresh checkpoint; a
   :class:`~repro.errors.WalGapError` raised by ``ingest`` (the stream
   skipped ahead) is surfaced back to the leader as a typed ``wal_gap``
   wire error — never a bare exception — and the stream re-syncs from
   the acked LSN on the next dial.
"""

from __future__ import annotations

import logging
import os
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.cluster.protocol import (
    MSG_ACK,
    MSG_CKPT_CHUNK,
    MSG_CKPT_DONE,
    MSG_CKPT_META,
    MSG_ERROR,
    MSG_HELLO,
    MSG_PING,
    MSG_WAL,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_error,
    send_message,
)
from repro.durability.checkpoint import (
    CHECKPOINT_SUBDIR,
    latest_checkpoint,
    list_checkpoints,
)
from repro.durability.wal import decode_wal_record
from repro.errors import ReproError, WalGapError
from repro.obs.registry import MetricsRegistry
from repro.persistence import load_index

logger = logging.getLogger("repro.cluster.follower")

#: Seconds a dial or a read of the replication stream may block.
_SOCKET_TIMEOUT = 5.0


class FollowerNode:
    """One read replica tailing a :class:`~repro.cluster.WalShipper`.

    Parameters
    ----------
    home:
        Local directory for this node's checkpoints (created on
        demand).  Independent from the leader's home — the follower
        keeps no WAL of its own; on restart it re-bootstraps from its
        checkpoint and re-streams the tail.
    leader:
        ``(host, port)`` of the leader's replication socket.
    n_shards:
        Worker processes for the local query fleet.
    http_port:
        When not ``None``, a :class:`~repro.serve.Frontend` serves
        ``POST /v1/search`` / ``GET /v1/health`` on this port
        (``0`` picks a free one).
    registry:
        Metrics registry publishing the ``lazylsh_replica_*`` family
        and the front door's series; when omitted, the telemetry's
        registry, else a private one.
    reconnect_min / reconnect_max:
        Exponential backoff bounds between dial attempts (seconds).
    """

    def __init__(
        self,
        home: str | Path,
        leader: tuple[str, int],
        *,
        n_shards: int = 2,
        http_port: int | None = None,
        registry=None,
        telemetry=None,
        reconnect_min: float = 0.05,
        reconnect_max: float = 2.0,
    ) -> None:
        self.home = Path(home)
        self.leader = (str(leader[0]), int(leader[1]))
        self.n_shards = int(n_shards)
        self.http_port = http_port
        if registry is None:
            registry = (
                telemetry.registry if telemetry is not None
                else MetricsRegistry()
            )
        self.registry = registry
        self.telemetry = telemetry
        self.reconnect_min = float(reconnect_min)
        self.reconnect_max = float(reconnect_max)
        self.service = None
        self.frontend = None
        self._thread: threading.Thread | None = None
        self._running = threading.Event()
        self._sock: socket.socket | None = None
        self._sock_lock = threading.Lock()
        self.base_lsn = 0
        self.reconnects = 0
        self.bootstraps = 0
        self.records_applied = 0
        self.last_error: str | None = None
        self._connected = threading.Event()
        self._m_applied = registry.counter(
            "lazylsh_replica_applied_records_total",
            "WAL records applied from the replication stream",
        )
        self._m_acked = registry.gauge(
            "lazylsh_replica_acked_lsn",
            "Last LSN this replica has applied and acked",
        )
        self._m_reconnects = registry.counter(
            "lazylsh_replica_reconnects_total",
            "Replication stream re-dials (leader restarts, drops)",
        )
        self._m_connected = registry.gauge(
            "lazylsh_replica_connected",
            "1 while the replication stream is established",
        )
        self._m_bootstraps = registry.counter(
            "lazylsh_replica_bootstraps_total",
            "Checkpoint bootstraps (initial + wal_truncated rebuilds)",
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def acked_lsn(self) -> int:
        """The replica's applied-and-acked LSN (its staleness position)."""
        return self.service.acked_lsn if self.service is not None else 0

    @property
    def connected(self) -> bool:
        return self._connected.is_set()

    @property
    def url(self) -> str | None:
        """Base URL of the local front door (None without one)."""
        return self.frontend.url if self.frontend is not None else None

    def start(self) -> "FollowerNode":
        """Bootstrap, serve, and start tailing (idempotent)."""
        if self._thread is not None:
            return self
        self._bootstrap()
        self._running.set()
        self._thread = threading.Thread(
            target=self._replication_loop,
            name="repro-follower-stream",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop tailing, the front door, and the fleet (idempotent)."""
        self._running.clear()
        with self._sock_lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - races with the peer
                    pass
                self._sock = None
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._teardown_serving()

    def __enter__(self) -> "FollowerNode":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def status(self) -> dict:
        """JSON-serialisable replica status (for ops and the CLI)."""
        return {
            "leader": list(self.leader),
            "connected": self.connected,
            "base_lsn": self.base_lsn,
            "acked_lsn": self.acked_lsn,
            "records_applied": self.records_applied,
            "reconnects": self.reconnects,
            "bootstraps": self.bootstraps,
            "url": self.url,
            "last_error": self.last_error,
        }

    def wait_for_lsn(self, lsn: int, timeout: float = 10.0) -> bool:
        """Block until the replica has applied ``lsn`` (True on success)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.acked_lsn >= lsn:
                return True
            time.sleep(0.005)
        return self.acked_lsn >= lsn

    # -- bootstrap ------------------------------------------------------

    def _bootstrap(self) -> None:
        """Load (or fetch) the newest checkpoint and start serving."""
        from repro.serve import Frontend, ShardedSearchService

        ckpt_dir = self.home / CHECKPOINT_SUBDIR
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        found = latest_checkpoint(ckpt_dir)
        if found is None:
            lsn, path = self._fetch_checkpoint(ckpt_dir)
            found = lsn, path, load_index(path)
        self.base_lsn, ckpt_path, index = found
        service = ShardedSearchService(
            index,
            n_shards=self.n_shards,
            base_lsn=self.base_lsn,
            telemetry=self.telemetry,
        )
        self.service = service
        if self.http_port is not None:
            self.frontend = Frontend(
                service, port=int(self.http_port), registry=self.registry
            ).start()
        self.bootstraps += 1
        self._m_bootstraps.inc()
        self._m_acked.set(self.base_lsn)
        logger.info(
            "follower bootstrapped from %s (LSN %d, %s open)",
            ckpt_path.name,
            self.base_lsn,
            index.storage_info()["backend"],
        )

    def _teardown_serving(self) -> None:
        if self.frontend is not None:
            self.frontend.stop()
            self.frontend = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def _rebootstrap(self, first_available: int) -> None:
        """The leader pruned past us: rebuild from a fresh checkpoint.

        The stale local checkpoints are removed first so the bootstrap
        fetches one covering at least ``first_available - 1``.
        """
        logger.warning(
            "log truncated under this replica (log now starts at LSN "
            "%d, we acked %d): re-bootstrapping",
            first_available,
            self.acked_lsn,
        )
        self._teardown_serving()
        for lsn, path in list_checkpoints(self.home / CHECKPOINT_SUBDIR):
            if lsn < first_available - 1:
                path.unlink(missing_ok=True)
        self._bootstrap()

    def _fetch_checkpoint(self, ckpt_dir: Path) -> tuple[int, Path]:
        """Pull the leader's newest checkpoint over the wire (atomic)."""
        sock = self._dial()
        try:
            send_message(
                sock,
                MSG_HELLO,
                {
                    "v": PROTOCOL_VERSION,
                    "start_lsn": 0,
                    "need_checkpoint": True,
                },
            )
            message = recv_message(sock)
            if message is None:
                raise ProtocolError("leader hung up before the checkpoint")
            kind, meta, _blob = message
            if kind == MSG_ERROR:
                raise ReproError(
                    f"leader refused the checkpoint: {meta.get('code')}: "
                    f"{meta.get('message')}"
                )
            if kind != MSG_CKPT_META:
                raise ProtocolError(
                    f"expected ckpt_meta, got kind {kind}"
                )
            lsn = int(meta["lsn"])
            name = str(meta["name"])
            size = int(meta["size"])
            if os.sep in name or name.startswith("."):
                raise ProtocolError(f"suspicious checkpoint name {name!r}")
            fd, tmp_name = tempfile.mkstemp(
                prefix=".fetch-", suffix=".tmp", dir=ckpt_dir
            )
            received = 0
            try:
                with os.fdopen(fd, "wb") as handle:
                    while True:
                        message = recv_message(sock)
                        if message is None:
                            raise ProtocolError(
                                "leader hung up mid-checkpoint"
                            )
                        kind, meta, blob = message
                        if kind == MSG_CKPT_CHUNK:
                            handle.write(blob)
                            received += len(blob)
                            continue
                        if kind == MSG_CKPT_DONE:
                            break
                        raise ProtocolError(
                            f"unexpected kind {kind} inside checkpoint "
                            "transfer"
                        )
                    if received != size:
                        raise ProtocolError(
                            f"checkpoint transfer short: {received}/{size} "
                            "bytes"
                        )
                    handle.flush()
                    os.fsync(handle.fileno())
                final = ckpt_dir / name
                os.replace(tmp_name, final)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            logger.info(
                "fetched checkpoint %s (%d bytes, LSN %d) from %s:%d",
                name,
                received,
                lsn,
                *self.leader,
            )
            return lsn, final
        finally:
            sock.close()

    # -- replication stream ---------------------------------------------

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(self.leader, timeout=_SOCKET_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _replication_loop(self) -> None:
        """Dial, stream, back off, repeat — until :meth:`stop`."""
        backoff = self.reconnect_min
        while self._running.is_set():
            try:
                sock = self._dial()
            except OSError as exc:
                self.last_error = f"dial: {exc}"
                if self._running.is_set():
                    time.sleep(backoff)
                    backoff = min(backoff * 2, self.reconnect_max)
                continue
            with self._sock_lock:
                self._sock = sock
            self._connected.set()
            self._m_connected.set(1)
            self._m_reconnects.inc()
            self.reconnects += 1
            try:
                self._consume_stream(sock)
                backoff = self.reconnect_min  # the stream was healthy
            except (OSError, ProtocolError, ReproError) as exc:
                self.last_error = str(exc)
                logger.info("replication stream dropped: %s", exc)
            finally:
                self._connected.clear()
                self._m_connected.set(0)
                with self._sock_lock:
                    self._sock = None
                try:
                    sock.close()
                except OSError:  # pragma: no cover - races with the peer
                    pass
            if self._running.is_set():
                time.sleep(backoff)
                backoff = min(backoff * 2, self.reconnect_max)

    def _consume_stream(self, sock: socket.socket) -> None:
        assert self.service is not None
        send_message(
            sock,
            MSG_HELLO,
            {
                "v": PROTOCOL_VERSION,
                "start_lsn": int(self.service.acked_lsn),
                "need_checkpoint": False,
            },
        )
        sock.settimeout(_SOCKET_TIMEOUT)
        while self._running.is_set():
            try:
                message = recv_message(sock)
            except socket.timeout:
                continue  # idle leader slower than its heartbeat? re-poll
            if message is None:
                raise OSError("leader closed the stream")
            kind, meta, blob = message
            if kind == MSG_PING:
                send_message(
                    sock, MSG_ACK, {"lsn": int(self.service.acked_lsn)}
                )
                continue
            if kind == MSG_ERROR:
                code = str(meta.get("code", "unknown"))
                if code == "wal_truncated":
                    # Close the stream *before* re-bootstrapping: the
                    # rebuild forks fresh shard workers, and any socket
                    # still open here would be inherited by them,
                    # pinning the connection (and the leader's port)
                    # past our own close.
                    with self._sock_lock:
                        self._sock = None
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover - peer races
                        pass
                    self._rebootstrap(int(meta.get("first_available", 0)))
                    return  # reconnect streams from the new base LSN
                raise ReproError(
                    f"leader error {code}: {meta.get('message')}"
                )
            if kind != MSG_WAL:
                raise ProtocolError(
                    f"unexpected kind {kind} on the replication stream"
                )
            record = decode_wal_record(blob)
            try:
                applied = self.service.ingest([record])
            except WalGapError as exc:
                # Surface the gap as a *typed* wire error — the leader
                # logs expected/received — then resync from the acked
                # LSN on the next dial.
                send_error(
                    sock,
                    exc.code,
                    str(exc),
                    expected=exc.expected,
                    received=exc.received,
                )
                raise
            if applied:
                self.records_applied += applied
                self._m_applied.inc(applied)
            acked = int(self.service.acked_lsn)
            self._m_acked.set(acked)
            send_message(sock, MSG_ACK, {"lsn": acked})
