"""Leader-side WAL shipping server (DESIGN §16).

:class:`WalShipper` serves a durable home's write-ahead log to any
number of followers over the :mod:`repro.cluster.protocol` framing.  It
is strictly *read-only* over the home: the writer (a
:class:`~repro.durability.DurableIndex` in this or another process)
keeps appending and checkpointing as usual, and each follower
connection gets its own :class:`~repro.durability.WalFeed` tailing the
same directory — the shipper never truncates, repairs or locks
anything.

Per connection the conversation is:

1. ``HELLO {start_lsn, need_checkpoint}`` from the follower.
2. If the follower needs a checkpoint (it has none locally), the newest
   one streams over in chunks; the stream position becomes the
   checkpoint's covered LSN.
3. If the requested position was pruned by a checkpoint (the feed would
   stall forever), a typed ``wal_truncated`` error is sent instead and
   the connection closes — the follower re-connects asking for a
   checkpoint.
4. ``WAL`` frames ship from the agreed LSN as the log grows, with
   ``PING`` heartbeats while idle; the follower acks applied LSNs on
   the same socket (drained by a per-connection reader thread, feeding
   the ``lazylsh_cluster_follower_acked_lsn`` gauge the router's
   failover logic ultimately depends on).
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from pathlib import Path
from typing import Any

import repro.cluster.protocol as protocol
from repro.cluster.protocol import (
    MSG_ACK,
    MSG_CKPT_CHUNK,
    MSG_CKPT_DONE,
    MSG_CKPT_META,
    MSG_ERROR,
    MSG_HELLO,
    MSG_PING,
    MSG_WAL,
    ProtocolError,
    recv_message,
    send_error,
    send_message,
)
from repro.durability.checkpoint import (
    CHECKPOINT_SUBDIR,
    WAL_SUBDIR,
    latest_checkpoint,
    list_checkpoints,
)
from repro.durability.feed import WalFeed
from repro.durability.wal import (
    WalTruncatedError,
    encode_wal_record,
    list_segments,
)
from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry

logger = logging.getLogger("repro.cluster.leader")

#: A ``PING`` ships after this many seconds without WAL traffic so
#: followers can tell an idle log from a dead leader.
_HEARTBEAT_SECONDS = 0.5


class _Connection:
    """One follower's replication stream (leader-side bookkeeping)."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.acked_lsn = -1  # -1 until the first ack
        self.shipped = 0
        self.connected_at = time.time()
        self.closed = threading.Event()


class WalShipper:
    """Stream a durable home's WAL to followers over TCP.

    Parameters
    ----------
    home:
        The durable home directory (``wal/`` + ``checkpoints/``), as
        written by :func:`repro.durability.create` /
        :class:`~repro.durability.DurableIndex`.
    host / port:
        Bind address; ``port=0`` picks a free port (read :attr:`port`
        after :meth:`start`).
    poll_interval:
        Idle sleep between WAL polls per connection (seconds).  Bounds
        steady-state replication lag from the leader side.
    registry:
        :class:`~repro.obs.MetricsRegistry` publishing the
        ``lazylsh_cluster_*`` leader-side family; a private one when
        omitted.
    """

    def __init__(
        self,
        home: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.02,
        registry=None,
    ) -> None:
        self.home = Path(home)
        self.wal_dir = self.home / WAL_SUBDIR
        self.ckpt_dir = self.home / CHECKPOINT_SUBDIR
        if not self.wal_dir.is_dir():
            raise ReproError(
                f"{self.home} is not a durable home (no {WAL_SUBDIR}/ "
                "subdirectory); run `repro ingest --init` first"
            )
        self.host = host
        self._requested_port = int(port)
        self.poll_interval = float(poll_interval)
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._connections: dict[str, _Connection] = {}
        self._lock = threading.Lock()
        self._running = threading.Event()
        self._port = 0
        if registry is None:
            registry = MetricsRegistry()
        self._m_followers = registry.gauge(
            "lazylsh_cluster_followers",
            "Follower connections currently streaming",
        )
        self._m_shipped = registry.counter(
            "lazylsh_cluster_shipped_records_total",
            "WAL records shipped to followers",
        )
        self._m_acked = registry.gauge(
            "lazylsh_cluster_follower_acked_lsn",
            "Last LSN acked by each follower",
        )
        self._m_errors = registry.counter(
            "lazylsh_cluster_ship_errors_total",
            "Replication stream errors by code",
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (0 until started)."""
        return self._port

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self._port)

    def start(self) -> "WalShipper":
        """Bind and accept on a daemon thread (idempotent)."""
        if self._accept_thread is not None:
            return self
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self._requested_port))
        server.listen(16)
        server.settimeout(0.2)
        self._server = server
        self._port = server.getsockname()[1]
        self._running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-wal-shipper", daemon=True
        )
        self._accept_thread.start()
        logger.info("WAL shipper serving %s on port %d", self.home, self._port)
        return self

    def stop(self) -> None:
        """Close every stream and join the threads (idempotent)."""
        self._running.clear()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:  # pragma: no cover - already closed
                pass
        with self._lock:
            conns = list(self._connections.values())
        for conn in conns:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - races with the peer
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in self._conn_threads:
            thread.join(timeout=5)
        self._accept_thread = None
        self._conn_threads = []
        self._server = None
        self._port = 0

    def __enter__(self) -> "WalShipper":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def followers(self) -> dict[str, dict]:
        """Live per-follower stream stats (peer → ack/shipped/age)."""
        now = time.time()
        with self._lock:
            return {
                peer: {
                    "acked_lsn": conn.acked_lsn,
                    "shipped": conn.shipped,
                    "connected_seconds": now - conn.connected_at,
                }
                for peer, conn in self._connections.items()
            }

    # -- accept / per-connection shipping -------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        while self._running.is_set():
            try:
                sock, addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # server socket closed by stop()
            peer = f"{addr[0]}:{addr[1]}"
            thread = threading.Thread(
                target=self._serve_follower,
                args=(sock, peer),
                name=f"repro-ship-{peer}",
                daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _serve_follower(self, sock: socket.socket, peer: str) -> None:
        conn = _Connection(sock, peer)
        with self._lock:
            self._connections[peer] = conn
        self._m_followers.set(len(self._connections))
        try:
            self._stream(conn)
        except (OSError, ProtocolError) as exc:
            logger.info("follower %s dropped: %s", peer, exc)
        except ReproError as exc:
            logger.warning("stream to %s failed: %s", peer, exc)
            self._m_errors.inc(code=exc.code)
        finally:
            conn.closed.set()
            try:
                sock.close()
            except OSError:  # pragma: no cover - races with the peer
                pass
            with self._lock:
                self._connections.pop(peer, None)
                remaining = len(self._connections)
            self._m_followers.set(remaining)

    def _stream(self, conn: _Connection) -> None:
        sock = conn.sock
        sock.settimeout(5.0)
        hello = recv_message(sock)
        if hello is None:
            return
        kind, meta, _blob = hello
        if kind != MSG_HELLO:
            raise ProtocolError(
                f"expected HELLO, got {protocol.KIND_NAMES.get(kind, kind)}"
            )
        version = meta.get("v", protocol.PROTOCOL_VERSION)
        if version != protocol.PROTOCOL_VERSION:
            send_error(
                sock,
                "cluster_protocol",
                f"unsupported protocol version {version!r}",
            )
            return
        start_lsn = int(meta.get("start_lsn", 0))
        if meta.get("need_checkpoint", False):
            start_lsn = self._send_checkpoint(sock)
        elif not self._reachable(start_lsn):
            first = self._first_available()
            self._m_errors.inc(code="wal_truncated")
            send_error(
                sock,
                "wal_truncated",
                f"log starts at LSN {first}, follower asked for "
                f"{start_lsn + 1}; re-bootstrap from a checkpoint",
                first_available=first,
            )
            return
        # Acks flow back on the same socket; a dedicated reader keeps
        # the shipping loop from trading latency for ack handling.
        ack_thread = threading.Thread(
            target=self._drain_acks,
            args=(conn,),
            name=f"repro-ship-ack-{conn.peer}",
            daemon=True,
        )
        ack_thread.start()
        feed = WalFeed(self.wal_dir, start_lsn=start_lsn)
        last_sent = time.monotonic()
        try:
            while self._running.is_set() and not conn.closed.is_set():
                try:
                    records = feed.poll(max_records=256)
                except WalTruncatedError as exc:
                    self._m_errors.inc(code=exc.code)
                    send_error(
                        sock,
                        exc.code,
                        str(exc),
                        first_available=exc.first_available,
                    )
                    return
                if records:
                    for record in records:
                        send_message(
                            sock,
                            MSG_WAL,
                            {"lsn": int(record.lsn)},
                            encode_wal_record(record),
                        )
                    conn.shipped += len(records)
                    self._m_shipped.inc(len(records))
                    last_sent = time.monotonic()
                    continue
                if time.monotonic() - last_sent >= _HEARTBEAT_SECONDS:
                    send_message(sock, MSG_PING, {"lsn": feed.last_lsn})
                    last_sent = time.monotonic()
                time.sleep(self.poll_interval)
        finally:
            conn.closed.set()
            ack_thread.join(timeout=5)

    def _drain_acks(self, conn: _Connection) -> None:
        """Read ACK/ERROR frames until the stream dies."""
        conn.sock.settimeout(0.5)
        while self._running.is_set() and not conn.closed.is_set():
            try:
                message = recv_message(conn.sock)
            except socket.timeout:
                continue
            except (OSError, ProtocolError):
                break
            if message is None:
                break
            kind, meta, _blob = message
            if kind == MSG_ACK:
                conn.acked_lsn = max(conn.acked_lsn, int(meta.get("lsn", 0)))
                self._m_acked.set(conn.acked_lsn, peer=conn.peer)
            elif kind == MSG_ERROR:
                logger.warning(
                    "follower %s reported %s: %s",
                    conn.peer,
                    meta.get("code"),
                    meta.get("message"),
                )
                self._m_errors.inc(code=str(meta.get("code", "unknown")))
                break
        conn.closed.set()

    # -- checkpoint hand-off --------------------------------------------

    def _send_checkpoint(self, sock: socket.socket) -> int:
        """Stream the newest good checkpoint; returns its covered LSN."""
        newest = latest_checkpoint(self.ckpt_dir)
        if newest is None:
            raise ReproError(
                f"follower asked for a checkpoint but {self.ckpt_dir} "
                "has none that opens"
            )
        lsn, path, _index = newest
        size = path.stat().st_size
        send_message(
            sock,
            MSG_CKPT_META,
            {"lsn": int(lsn), "name": path.name, "size": int(size)},
        )
        sent = 0
        with path.open("rb") as handle:
            while True:
                chunk = handle.read(protocol.CKPT_CHUNK_BYTES)
                if not chunk:
                    break
                send_message(sock, MSG_CKPT_CHUNK, {"offset": sent}, chunk)
                sent += len(chunk)
        send_message(sock, MSG_CKPT_DONE, {"lsn": int(lsn), "size": sent})
        return int(lsn)

    # -- log-position checks --------------------------------------------

    def _first_available(self) -> int:
        segments = list_segments(self.wal_dir)
        if segments:
            return segments[0][0]
        return self._newest_checkpoint_lsn() + 1

    def _reachable(self, start_lsn: int) -> bool:
        """Can a feed resume from ``start_lsn`` without a pruned gap?"""
        segments = list_segments(self.wal_dir)
        if segments:
            return segments[0][0] <= start_lsn + 1
        # Empty log: fine unless a checkpoint proves records existed
        # beyond the follower's position.
        return self._newest_checkpoint_lsn() <= start_lsn

    def _newest_checkpoint_lsn(self) -> int:
        checkpoints = list_checkpoints(self.ckpt_dir)
        return checkpoints[-1][0] if checkpoints else 0
