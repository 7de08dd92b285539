"""Ops endpoints: a stdlib HTTP exporter for metrics, health and slowlog.

:class:`ObsExporter` runs a ``http.server.ThreadingHTTPServer`` on a
daemon thread and serves three read-only endpoints off the live
observability objects:

``/metrics``
    The :class:`~repro.obs.registry.MetricsRegistry` in Prometheus text
    exposition format (``text/plain; version=0.0.4``).
``/healthz``
    JSON from the ``health`` callable (e.g. ``ShardedSearchService.
    health``): per-shard worker liveness, point count and
    last-heartbeat age, plus the index's storage.  Responds 200 when
    ``healthy`` is true, 503 otherwise — so a load balancer can act on
    the status code alone.
``/slowlog``
    The :class:`~repro.obs.slowlog.SlowQueryLog` ring as JSON.
``/trace`` and ``/trace/<trace_id>``
    The :class:`~repro.obs.trace_context.TraceStore`: the bare route
    lists stored trace ids, the id route returns one reconstructed
    cross-process span tree (404 for evicted/unknown ids).
``/profile`` and ``/profile?seconds=N``
    The :class:`~repro.obs.profiler.ContinuousProfiler`: the bare route
    returns the continuous aggregate as flamegraph-ready folded-stack
    text; ``?seconds=N`` blocks for a fresh N-second on-demand capture
    (N in (0, 60]) and returns only that window.  Sampler state rides
    along in an ``X-Profile-Stats`` JSON header.

Lifetime rules (see DESIGN §10): the exporter owns only its HTTP
server, never the registry/health/slowlog objects it reads — callers
stop the exporter *before* closing the service so a scrape can never
race a torn-down worker fleet.  All handlers are read-only: the health
callable must not send pipe ops to workers (the service keeps a
heartbeat cache for exactly this reason).

The module also ships :func:`parse_prometheus_text` and
:func:`histogram_quantile` — a minimal scrape-side parser used by the
``repro top`` CLI so the live view needs no third-party client.
"""

from __future__ import annotations

import http.server
import json
import re
import threading
import urllib.parse
from typing import Any, Callable, Mapping

from repro.errors import InvalidParameterError

from repro.obs.profiler import ContinuousProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace_context import TraceStore

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ObsExporter:
    """Background HTTP server exposing /metrics, /healthz, /slowlog, /trace.

    Parameters
    ----------
    registry:
        Metrics registry rendered at ``/metrics``.
    health:
        Zero-argument callable returning a JSON-serialisable health
        dict with a boolean ``healthy`` key.  Omitted → ``/healthz``
        reports a plain ``{"healthy": true}``.
    slowlog:
        Slow-query log served at ``/slowlog``.  Omitted → empty list.
    trace_store:
        Trace ring served at ``/trace``/``/trace/<id>``.  Omitted →
        404 on both routes.
    slo:
        Optional :class:`~repro.obs.slo.SLOEngine`.  When attached,
        every ``/metrics`` scrape ticks it first (so the burn-rate
        gauges in the scrape are current) and ``/healthz`` gains an
        ``"slo"`` section; an open SLO alert episode flips ``healthy``
        to false (and the status code to 503).
    profiler:
        Optional :class:`~repro.obs.profiler.ContinuousProfiler`
        served at ``/profile``.  Omitted → 404 on that route.
    host / port:
        Bind address; ``port=0`` (default) lets the OS pick a free
        port — read it back from :attr:`port` or :attr:`url`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        health: Callable[[], Mapping[str, Any]] | None = None,
        slowlog: SlowQueryLog | None = None,
        trace_store: TraceStore | None = None,
        slo: SLOEngine | None = None,
        profiler: ContinuousProfiler | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.health = health
        self.slowlog = slowlog
        self.trace_store = trace_store
        self.slo = slo
        self.profiler = profiler
        self.host = host
        self._requested_port = port
        self._server: http.server.ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (0 until started)."""
        if self._server is None:
            return 0
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running exporter (e.g. http://127.0.0.1:9100)."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsExporter":
        """Bind and start serving on a daemon thread (idempotent)."""
        if self._server is not None:
            return self
        exporter = self

        class Handler(http.server.BaseHTTPRequestHandler):
            # one exporter instance per handler class; closures beat
            # threading state through the stdlib server plumbing
            def log_message(self, format: str, *args: Any) -> None:
                pass  # scrapes happen every few seconds; stay quiet

            def _send(
                self, status: int, body: bytes, content_type: str
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                path, _, raw_query = self.path.partition("?")
                try:
                    if path == "/metrics":
                        if exporter.slo is not None:
                            exporter.slo.tick()
                        text = exporter.registry.render_prometheus()
                        self._send(
                            200, text.encode(), PROMETHEUS_CONTENT_TYPE
                        )
                    elif path == "/healthz":
                        if exporter.health is None:
                            report: dict[str, Any] = {"healthy": True}
                        else:
                            report = dict(exporter.health())
                        if exporter.slo is not None:
                            slo_report = exporter.slo.tick()
                            report["slo"] = {
                                "healthy": slo_report["healthy"],
                                "alerting": slo_report["alerting"],
                                "slos": slo_report["slos"],
                            }
                            if not slo_report["healthy"]:
                                report["healthy"] = False
                        status = 200 if report.get("healthy", False) else 503
                        body = json.dumps(report, indent=2).encode()
                        self._send(status, body, "application/json")
                    elif path == "/slowlog":
                        entries = (
                            []
                            if exporter.slowlog is None
                            else exporter.slowlog.to_dicts()
                        )
                        body = json.dumps(entries, indent=2).encode()
                        self._send(200, body, "application/json")
                    elif path == "/trace" or path == "/trace/":
                        if exporter.trace_store is None:
                            self._send(
                                404,
                                b"no trace store attached\n",
                                "text/plain",
                            )
                        else:
                            listing = {
                                "traces": exporter.trace_store.ids(),
                                "stats": exporter.trace_store.stats(),
                            }
                            body = json.dumps(listing, indent=2).encode()
                            self._send(200, body, "application/json")
                    elif path.startswith("/trace/"):
                        trace_id = path[len("/trace/"):]
                        tree = (
                            None
                            if exporter.trace_store is None
                            else exporter.trace_store.tree(trace_id)
                        )
                        if tree is None:
                            self._send(
                                404,
                                f"unknown trace {trace_id}\n".encode(),
                                "text/plain",
                            )
                        else:
                            body = json.dumps(tree, indent=2).encode()
                            self._send(200, body, "application/json")
                    elif path == "/profile":
                        if exporter.profiler is None:
                            self._send(
                                404,
                                b"no profiler attached\n",
                                "text/plain",
                            )
                        else:
                            params = urllib.parse.parse_qs(raw_query)
                            seconds_raw = params.get("seconds", [None])[0]
                            try:
                                if seconds_raw is None:
                                    text = exporter.profiler.folded()
                                else:
                                    text = exporter.profiler.capture(
                                        float(seconds_raw)
                                    )
                            except (ValueError, InvalidParameterError) as bad:
                                self._send(
                                    400,
                                    f"bad seconds: {bad}\n".encode(),
                                    "text/plain",
                                )
                                return
                            self.send_response(200)
                            self.send_header(
                                "Content-Type", "text/plain; charset=utf-8"
                            )
                            body = text.encode()
                            self.send_header(
                                "Content-Length", str(len(body))
                            )
                            self.send_header(
                                "X-Profile-Stats",
                                json.dumps(exporter.profiler.stats()),
                            )
                            self.end_headers()
                            self.wfile.write(body)
                    else:
                        self._send(
                            404,
                            b"not found; endpoints: /metrics /healthz "
                            b"/slowlog /trace /trace/<id> /profile\n",
                            "text/plain",
                        )
                except BrokenPipeError:
                    pass  # scraper hung up mid-response
                except Exception as exc:  # defensive: never kill the thread
                    try:
                        self._send(
                            500, f"error: {exc}\n".encode(), "text/plain"
                        )
                    except Exception:
                        pass

        self._server = http.server.ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="obs-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread (idempotent)."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ObsExporter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# -- scrape-side parsing (used by ``repro top``) -------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"'
)


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus_text(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse exposition text into ``{name: [(labels, value), ...]}``.

    Minimal but strict about what it accepts: malformed sample lines
    raise ``ValueError`` rather than being skipped, so the exposition
    regression tests in ``tests/test_obs.py`` can round-trip the
    registry output through this parser.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                labels[pair.group("name")] = _unescape_label_value(
                    pair.group("value")
                )
                consumed += 1
            # every comma-separated item must have parsed as a pair
            if consumed != raw_labels.count('="') or not consumed:
                raise ValueError(
                    f"malformed label set in line: {line!r}"
                )
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = float("inf")
        elif raw_value == "-Inf":
            value = float("-inf")
        else:
            value = float(raw_value)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


def histogram_quantile(
    samples: list[tuple[dict[str, str], float]],
    q: float,
    *,
    match_labels: Mapping[str, str] | None = None,
) -> float | None:
    """Estimate the q-quantile from ``<name>_bucket`` samples.

    Mirrors PromQL's ``histogram_quantile``: linear interpolation
    within the first bucket whose cumulative count reaches the target
    rank, clamped to the highest finite bound for the +Inf bucket.
    Returns None when the matching series has no observations.
    """
    match_labels = dict(match_labels or {})
    buckets: list[tuple[float, float]] = []
    for labels, value in samples:
        if "le" not in labels:
            continue
        rest = {k: v for k, v in labels.items() if k != "le"}
        if match_labels and any(
            rest.get(k) != v for k, v in match_labels.items()
        ):
            continue
        le = (
            float("inf") if labels["le"] == "+Inf" else float(labels["le"])
        )
        buckets.append((le, value))
    if not buckets:
        return None
    buckets.sort()
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = q * total
    prev_bound = 0.0
    prev_count = 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                # no information above the last finite bound
                finite = [b for b, _ in buckets if b != float("inf")]
                return finite[-1] if finite else None
            if count == prev_count:
                return bound
            frac = (rank - prev_count) / (count - prev_count)
            return prev_bound + frac * (bound - prev_bound)
        prev_bound, prev_count = bound, count
    return buckets[-1][0] if buckets[-1][0] != float("inf") else None
