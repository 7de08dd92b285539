"""Cluster router: health checks, shard routing, staleness-bounded
follower reads, and leader failover (DESIGN §16).

:class:`Router` is a thin HTTP tier in front of a set of node front
doors (one leader + N followers, each a :class:`~repro.serve.Frontend`
speaking the v1 wire).  It keeps no index state of its own:

* A **health loop** polls every node's ``GET /v1/health`` each
  ``check_interval``, reading liveness plus the node's applied LSN
  (``wal.acked_lsn``).  ``failure_threshold`` consecutive probe
  failures mark a node down.  The cluster **commit point** is the
  highest LSN ever observed on any node — a sticky high-water mark, so
  a dead leader's position still counts against follower lag.
* A **consistent shard map** assigns ``n_slots`` virtual shards to
  healthy nodes by rendezvous (highest-random-weight) hashing: adding
  or removing one node only moves the slots it owns, never reshuffles
  the rest.
* ``POST /v1/search`` **proxies** on the v1 wire.  Requests without a
  staleness bound go to the acting leader (freshest node).  Requests
  with ``max_lag_lsn`` may be served by any healthy node whose lag
  (commit point minus acked LSN) is within the bound — picked by
  rendezvous weight for the query's slot so repeat queries hit the
  same replica's caches — and are rejected with a typed ``stale_read``
  error when no node qualifies.
* **Failover**: when the configured leader stops answering, the acting
  leader becomes the healthy node with the highest acked LSN (the
  caught-up follower), counted in ``lazylsh_cluster_failovers_total``.
  When the configured leader returns it resumes (its durable WAL means
  it can only be ahead of or equal to any follower it fed).
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api import SearchRequest
from repro.errors import (
    ReproError,
    StaleReadError,
    UnavailableError,
)
from repro.obs.registry import MetricsRegistry
from repro.serve.frontend import HTTP_STATUS_BY_CODE, error_body

logger = logging.getLogger("repro.cluster.router")

#: Virtual shard slots in the consistent assignment.
DEFAULT_SLOTS = 16


@dataclass
class NodeState:
    """The router's live view of one node."""

    name: str
    url: str
    healthy: bool = False
    acked_lsn: int = 0
    failures: int = 0
    probes: int = 0
    last_seen: float = 0.0
    detail: dict = field(default_factory=dict)

    def snapshot(self, commit_lsn: int) -> dict:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "acked_lsn": self.acked_lsn,
            "lag_lsn": max(0, commit_lsn - self.acked_lsn),
            "failures": self.failures,
            "probes": self.probes,
        }


def _rendezvous_weight(slot: int, name: str) -> int:
    digest = hashlib.sha1(f"{slot}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def slot_of(query: Any, n_slots: int = DEFAULT_SLOTS) -> int:
    """The virtual shard slot of one query (stable across processes)."""
    payload = json.dumps(query, separators=(",", ":")).encode()
    digest = hashlib.sha1(payload).digest()
    return int.from_bytes(digest[:8], "big") % n_slots


def assign_slots(
    names: list[str], n_slots: int = DEFAULT_SLOTS
) -> dict[int, str]:
    """Rendezvous-hash every slot to one of ``names`` (must be
    non-empty).  Removing a name moves only the slots it owned."""
    return {
        slot: max(names, key=lambda name: _rendezvous_weight(slot, name))
        for slot in range(n_slots)
    }


class Router:
    """HTTP router over a replicated node set.

    Parameters
    ----------
    nodes:
        ``name -> base_url`` of every node front door (e.g.
        ``{"leader": "http://127.0.0.1:8301", ...}``).
    leader:
        The configured leader's name (must be a key of ``nodes``).
    host / port:
        Bind address of the router's own HTTP server; ``port=0`` picks
        a free port.
    check_interval:
        Health-probe period in seconds.
    failure_threshold:
        Consecutive probe failures before a node is marked down (so
        failover detection takes about ``check_interval *
        failure_threshold`` plus one probe timeout).
    n_slots:
        Virtual shard slots in the consistent assignment.
    probe_timeout:
        Per-probe HTTP timeout in seconds.
    proxy_timeout:
        Default per-request proxy timeout (overridden by a request's
        own ``deadline_ms`` budget when longer).
    registry:
        Metrics registry publishing ``lazylsh_cluster_*`` and
        ``lazylsh_replica_lag_lsn``, served at ``/metrics``; a private
        one when omitted.
    """

    def __init__(
        self,
        nodes: dict[str, str],
        *,
        leader: str,
        host: str = "127.0.0.1",
        port: int = 0,
        check_interval: float = 0.25,
        failure_threshold: int = 2,
        n_slots: int = DEFAULT_SLOTS,
        probe_timeout: float = 1.0,
        proxy_timeout: float = 30.0,
        registry=None,
    ) -> None:
        if leader not in nodes:
            raise ReproError(
                f"leader {leader!r} is not among the nodes "
                f"{sorted(nodes)}"
            )
        self.configured_leader = leader
        self.check_interval = float(check_interval)
        self.failure_threshold = int(failure_threshold)
        self.n_slots = int(n_slots)
        self.probe_timeout = float(probe_timeout)
        self.proxy_timeout = float(proxy_timeout)
        self.host = host
        self._requested_port = int(port)
        self._nodes = {
            name: NodeState(name=name, url=url.rstrip("/"))
            for name, url in nodes.items()
        }
        self._lock = threading.Lock()
        self._commit_lsn = 0
        self._acting_leader: str | None = None
        self._failovers = 0
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._health_thread: threading.Thread | None = None
        self._running = threading.Event()
        self._port = 0
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._m_lag = registry.gauge(
            "lazylsh_replica_lag_lsn",
            "Records behind the cluster commit point, per node",
        )
        self._m_healthy = registry.gauge(
            "lazylsh_cluster_node_healthy",
            "1 while the node answers health probes",
        )
        self._m_failovers = registry.counter(
            "lazylsh_cluster_failovers_total",
            "Acting-leader changes after the leader stopped answering",
        )
        self._m_proxied = registry.counter(
            "lazylsh_cluster_proxied_total",
            "Search requests proxied, by node",
        )
        self._m_rejected = registry.counter(
            "lazylsh_cluster_rejected_total",
            "Requests the router rejected, by error code",
        )
        self._m_commit = registry.gauge(
            "lazylsh_cluster_commit_lsn",
            "Highest LSN observed on any node (the commit point)",
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self._port}"

    @property
    def failovers(self) -> int:
        return self._failovers

    def start(self) -> "Router":
        """Probe once, then serve (idempotent)."""
        if self._server is not None:
            return self
        self._running.set()
        self._probe_all()  # synchronous first sweep: route immediately
        router = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args: Any) -> None:  # quiet
                pass

            def do_GET(self) -> None:
                router._handle_get(self)

            def do_POST(self) -> None:
                router._handle_post(self)

        server = ThreadingHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        server.daemon_threads = True
        self._server = server
        self._port = server.server_address[1]
        self._server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-router-http",
            daemon=True,
        )
        self._server_thread.start()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-router-health", daemon=True
        )
        self._health_thread.start()
        logger.info("cluster router listening on %s", self.url)
        return self

    def stop(self) -> None:
        self._running.clear()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5)
        if self._health_thread is not None:
            self._health_thread.join(timeout=5)
        self._server = None
        self._server_thread = None
        self._health_thread = None
        self._port = 0

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- health / membership --------------------------------------------

    def _probe_node(self, node: NodeState) -> None:
        try:
            with urllib.request.urlopen(
                node.url + "/v1/health", timeout=self.probe_timeout
            ) as response:
                report = json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            # 503 still carries the health report body.
            try:
                report = json.loads(exc.read().decode())
            except (ValueError, OSError):
                report = {"healthy": False}
        except (OSError, ValueError):
            node.probes += 1
            node.failures += 1
            if node.failures >= self.failure_threshold:
                node.healthy = False
            return
        node.probes += 1
        node.failures = 0
        node.last_seen = time.time()
        node.healthy = bool(report.get("healthy", False))
        node.detail = {
            "restarts": report.get("restarts"),
            "queries_served": report.get("queries_served"),
        }
        wal = report.get("wal") or {}
        try:
            node.acked_lsn = max(node.acked_lsn, int(wal.get("acked_lsn", 0)))
        except (TypeError, ValueError):
            pass

    def _probe_all(self) -> None:
        with self._lock:
            nodes = list(self._nodes.values())
        for node in nodes:
            self._probe_node(node)
        self._recompute()

    def _recompute(self) -> None:
        """Refresh the commit point, acting leader, and gauges."""
        with self._lock:
            states = list(self._nodes.values())
            self._commit_lsn = max(
                [self._commit_lsn] + [n.acked_lsn for n in states]
            )
            healthy = [n for n in states if n.healthy]
            previous = self._acting_leader
            configured = self._nodes[self.configured_leader]
            if configured.healthy:
                acting: str | None = configured.name
            elif healthy:
                # The caught-up follower: highest acked LSN wins, name
                # as a deterministic tie-break.
                acting = max(
                    healthy, key=lambda n: (n.acked_lsn, n.name)
                ).name
            else:
                acting = None
            self._acting_leader = acting
            if (
                previous is not None
                and acting is not None
                and acting != previous
            ):
                self._failovers += 1
                self._m_failovers.inc()
                logger.warning(
                    "acting leader changed: %s -> %s (commit LSN %d)",
                    previous,
                    acting,
                    self._commit_lsn,
                )
            commit = self._commit_lsn
        self._m_commit.set(commit)
        for node in states:
            self._m_healthy.set(1 if node.healthy else 0, node=node.name)
            self._m_lag.set(max(0, commit - node.acked_lsn), node=node.name)

    def _health_loop(self) -> None:
        while self._running.is_set():
            time.sleep(self.check_interval)
            if not self._running.is_set():
                break
            self._probe_all()

    # -- routing --------------------------------------------------------

    def _route(self, record: dict) -> NodeState:
        """Pick the node to serve one parsed v1 request (or raise)."""
        bound = record.get("max_lag_lsn")
        with self._lock:
            commit = self._commit_lsn
            healthy = [n for n in self._nodes.values() if n.healthy]
            acting = self._acting_leader
        if not healthy or acting is None:
            raise UnavailableError(
                "no healthy node in the cluster; retry after a backoff"
            )
        if bound is None:
            return self._nodes[acting]
        bound = int(bound)
        eligible = [
            n for n in healthy if (commit - n.acked_lsn) <= bound
        ]
        if not eligible:
            best = min(commit - n.acked_lsn for n in healthy)
            raise StaleReadError(
                f"no replica within max_lag_lsn={bound} of commit LSN "
                f"{commit} (best available lag: {best}); relax the bound "
                "or retry once replication catches up"
            )
        slot = slot_of(record.get("query"), self.n_slots)
        return max(
            eligible, key=lambda n: _rendezvous_weight(slot, n.name)
        )

    def _note_proxy_failure(self, node: NodeState) -> None:
        with self._lock:
            node.failures += 1
            if node.failures >= self.failure_threshold:
                node.healthy = False
        self._recompute()

    def _proxy_search(
        self, record: dict, body: bytes
    ) -> tuple[int, bytes]:
        """Route and forward one search; one retry after a node fault."""
        deadline_ms = record.get("deadline_ms")
        timeout = self.proxy_timeout
        if deadline_ms is not None:
            try:
                timeout = max(float(deadline_ms) / 1000.0, 0.05)
            except (TypeError, ValueError):
                pass
        last_error: Exception | None = None
        for _attempt in range(2):
            node = self._route(record)  # raises typed errors
            request = urllib.request.Request(
                node.url + "/v1/search",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=timeout
                ) as response:
                    payload = json.loads(response.read().decode())
                    status = response.status
            except urllib.error.HTTPError as exc:
                # A typed node-side error (400/429/503...): relay as-is.
                data = exc.read()
                self._m_proxied.inc(node=node.name)
                return exc.code, data
            except (OSError, ValueError) as exc:
                # The node died under the request: mark and retry once
                # on whatever the recomputed topology offers.
                last_error = exc
                self._note_proxy_failure(node)
                continue
            self._m_proxied.inc(node=node.name)
            payload["served_by"] = node.name
            return status, json.dumps(payload).encode()
        raise UnavailableError(
            f"every candidate node failed mid-request "
            f"(last error: {last_error}); retry after a backoff"
        )

    # -- HTTP handlers ---------------------------------------------------

    def describe(self) -> dict:
        """Topology snapshot: nodes, lag, slot assignment, failovers."""
        with self._lock:
            commit = self._commit_lsn
            nodes = {
                name: node.snapshot(commit)
                for name, node in self._nodes.items()
            }
            healthy = sorted(
                name for name, node in self._nodes.items() if node.healthy
            )
            acting = self._acting_leader
            failovers = self._failovers
        slots = assign_slots(healthy, self.n_slots) if healthy else {}
        return {
            "healthy": acting is not None,
            "configured_leader": self.configured_leader,
            "acting_leader": acting,
            "commit_lsn": commit,
            "failovers": failovers,
            "n_slots": self.n_slots,
            "slots": {str(slot): name for slot, name in slots.items()},
            "nodes": nodes,
        }

    def _send(
        self, handler: BaseHTTPRequestHandler, status: int, body: bytes
    ) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        try:
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def _send_json(
        self, handler: BaseHTTPRequestHandler, status: int, payload: dict
    ) -> None:
        self._send(handler, status, json.dumps(payload).encode())

    def _handle_get(self, handler: BaseHTTPRequestHandler) -> None:
        path = urllib.parse.urlparse(handler.path).path
        if path == "/v1/health":
            report = self.describe()
            status = 200 if report["healthy"] else 503
            self._send_json(handler, status, report)
            return
        if path == "/v1/cluster":
            self._send_json(handler, 200, self.describe())
            return
        if path == "/metrics":
            body = self.registry.render_prometheus().encode()
            handler.send_response(200)
            handler.send_header(
                "Content-Type", "text/plain; version=0.0.4"
            )
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return
        self._send_json(
            handler, 404, error_body("not_found", f"unknown path {path!r}")
        )

    def _handle_post(self, handler: BaseHTTPRequestHandler) -> None:
        path = urllib.parse.urlparse(handler.path).path
        if path != "/v1/search":
            self._send_json(
                handler,
                404,
                error_body("not_found", f"unknown path {path!r}"),
            )
            return
        try:
            length = int(handler.headers.get("Content-Length", "0"))
            body = handler.rfile.read(length) if length else b""
            record = json.loads(body.decode())
        except (ValueError, OSError) as exc:
            self._send_json(
                handler,
                400,
                error_body("wire_format", f"invalid JSON body: {exc}"),
            )
            return
        try:
            # Full edge validation (including max_lag_lsn) before any
            # node sees the request; the body forwards verbatim.
            SearchRequest.from_dict(record)
            status, payload = self._proxy_search(record, body)
        except ReproError as exc:
            self._m_rejected.inc(code=exc.code)
            status = HTTP_STATUS_BY_CODE.get(exc.code, 500)
            self._send_json(handler, status, error_body(exc.code, str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 - the edge must not drop
            self._send_json(
                handler,
                500,
                error_body("internal", f"{type(exc).__name__}: {exc}"),
            )
            return
        self._send(handler, status, payload)
