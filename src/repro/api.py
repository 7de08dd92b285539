"""Unified search request/response surface shared by every query path.

Every way of asking this library for neighbours — ``LazyLSH.knn`` (one
query, one metric), ``MultiQueryEngine.knn`` (one query, many metrics),
``knn_batch`` (many queries) and the sharded
:class:`~repro.serve.ShardedSearchService` — takes the query and ``k``
positionally and every tuning knob (``p`` or ``metrics``, ``cap``,
``radius``, ``engine``) by keyword, and checks those knobs with the one
:func:`check_knobs`.  Its two types:

* :class:`SearchResult` is the common result core carrying ``ids``,
  ``distances``, the simulated :class:`~repro.storage.io_stats.IOStats`,
  the Algorithm-4 ``termination`` reason and an optional
  :class:`~repro.obs.QueryTrace`.  ``KnnResult`` is a thin subclass kept
  for backwards compatibility; ``MultiQueryResult`` and
  ``BatchKnnResult`` expose the same attribute protocol
  (:class:`SearchResultLike`) over their per-metric / per-query parts;
* :class:`SearchRequest` is the v1 wire codec of the HTTP front door and
  the cluster router: one request body, decoded and validated (by the
  same :func:`check_knobs`) before it is turned into a keyword call.

The module sits below ``repro.core`` so both the engines and the serving
layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro._typing import IdArray
from repro.errors import InvalidParameterError, WireFormatError
from repro.storage.io_stats import IOStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.query_trace import QueryTrace

#: Version stamped on (and required in) every wire-encoded request and
#: response body.  Bump only with a new, co-served schema — the wire
#: contract outlives any one frontend.
WIRE_VERSION = 1

#: The complete key set of a v1 wire request.  ``from_dict`` rejects
#: anything else: strict schemas make client typos loud (a silently
#: ignored ``"K"`` would be a wrong answer, not an error).
_WIRE_REQUEST_KEYS = frozenset(
    (
        "v",
        "query",
        "k",
        "p",
        "metrics",
        "cap",
        "radius",
        "engine",
        "request_id",
        "trace_context",
        "deadline_ms",
        "explain",
        "max_lag_lsn",
    )
)

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def check_knobs(
    k: int,
    *,
    p: float | None = None,
    metrics: Any = None,
    cap: float | None = None,
    radius: float | None = None,
    engine: str = "flat",
) -> tuple[float, ...] | None:
    """Check one search's tuning knobs; returns ``metrics`` as floats.

    The one copy of these checks, run by :class:`SearchRequest` and by
    every kNN entry point: ``engine`` is ``"flat"`` or ``"scalar"``,
    ``cap`` is at least ``k`` and ``radius`` positive, ``p`` and
    ``metrics`` are not both given, ``metrics`` is non-empty, and a
    ``radius`` override is single-metric only (the shared Section 4.3
    scan relies on every metric's round-``j`` radius being
    ``c**j / r_hat``).  ``k``'s range depends on the index and is
    checked where the lanes are built.
    """
    if engine not in ("flat", "scalar"):
        raise InvalidParameterError(
            f"engine must be 'flat' or 'scalar', got {engine!r}"
        )
    if cap is not None and cap < k:
        raise InvalidParameterError(
            f"candidate cap must be >= k={k}, got {cap}"
        )
    if radius is not None and not radius > 0:
        raise InvalidParameterError(
            f"radius override must be > 0, got {radius}"
        )
    if metrics is None:
        return None
    if p is not None:
        raise InvalidParameterError("pass either p or metrics, not both")
    metrics = tuple(float(q) for q in metrics)
    if not metrics:
        raise InvalidParameterError("metrics must be non-empty")
    if radius is not None:
        raise InvalidParameterError(
            "radius override is only supported for single-metric searches"
        )
    return metrics


def _coerce_trace_context(value: Any) -> Any:
    """Accept a TraceContext, a ``traceparent`` string, or a dict.

    Imported lazily: ``repro.obs.trace_context`` depends only on
    ``repro.errors``, so this cannot cycle back into ``repro.api``.
    """
    from repro.obs.trace_context import TraceContext

    if isinstance(value, TraceContext):
        return value
    if isinstance(value, str):
        return TraceContext.from_traceparent(value)
    if isinstance(value, dict):
        return TraceContext.from_dict(value)
    raise InvalidParameterError(
        "trace_context must be a TraceContext, a traceparent string or a "
        f"dict, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class SearchRequest:
    """One wire-encoded search: query point(s) plus tuning knobs.

    The decoded form of a v1 request body (:meth:`from_dict`), read by
    the HTTP front door and the cluster router; in-process callers pass
    the same knobs as keywords to the kNN entry points instead.

    Attributes
    ----------
    query:
        The query vector (or an ``(m, d)`` matrix).
    k:
        Number of neighbours requested (``Np(q, k, c)``).
    p:
        The ``lp`` metric to search under (ignored when ``metrics`` is
        given).
    metrics:
        Optional tuple of metrics; the request is then answered under
        every listed ``p`` with one shared index scan (Section 4.3).
    cap:
        Optional candidate-budget override; the default is the paper's
        ``k + beta * n``.  Must be at least ``k``.
    radius:
        Optional starting search radius (``delta_0``) override; the
        default is ``1 / r_hat`` (one base bucket).  Single-metric only —
        the multi-metric shared scan relies on every metric's round-``j``
        radius being ``c**j / r_hat``.
    engine:
        Execution plan: ``"flat"`` (vectorised, default) or ``"scalar"``
        (reference loop).  The front door ignores this: the sharded
        service always runs its own distributed flat plan.
    request_id:
        Optional caller-chosen id echoed back on the result, for log
        correlation.  Hex string; defaults to None (the serving layer
        mints one per sampled request).
    trace_context:
        Optional :class:`~repro.obs.TraceContext` (or its
        ``traceparent`` string / dict form) joining this request to a
        distributed trace.  The front door validates it but does not
        forward it; in-process callers hand a context to
        :meth:`~repro.serve.ShardedSearchService.search_batch`, which
        ships it to workers so shard scans appear as child spans
        (DESIGN §13).
    deadline_ms:
        Optional latency budget in milliseconds.  Advisory: the search
        always runs to completion (results stay bit-identical), but
        overruns are flagged on the result, counted in
        ``lazylsh_deadline_overruns_total`` and trip the flight
        recorder.
    explain:
        Add the query's record (its ``result.trace.to_dict()``, DESIGN
        §15) to the response under ``"explain"``: per-round collisions,
        crossings, candidates, within-radius counts and I/O deltas, the
        termination, the cap and (for sharded runs) ``shard_io``.  Every
        run builds that record, so the flag changes only the response
        of the HTTP front door; answers stay bit-identical.
    max_lag_lsn:
        Optional staleness bound for cluster reads (DESIGN §16): the
        request may be served by any replica whose acked LSN is within
        this many records of the cluster commit point (``0`` = only a
        fully caught-up node).  Enforced by the cluster router — a
        single node accepts and ignores it (a lone node is its own
        commit point).  Rejected with a typed ``stale_read`` error when
        no eligible node qualifies.
    """

    query: Any
    k: int
    p: float = 1.0
    metrics: tuple[float, ...] | None = None
    cap: float | None = None
    radius: float | None = None
    engine: str = "flat"
    request_id: str | None = None
    trace_context: Any = None
    deadline_ms: float | None = None
    explain: bool = False
    max_lag_lsn: int | None = None

    def __post_init__(self) -> None:
        if int(self.k) < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        # ``p`` is ignored when a metrics list is given, so only the
        # metrics list is checked against the other knobs.
        object.__setattr__(self, "metrics", check_knobs(
            self.k, metrics=self.metrics, cap=self.cap, radius=self.radius,
            engine=self.engine,
        ))
        try:
            query = np.asarray(self.query, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                "query must be a numeric vector or matrix"
            ) from None
        if query.ndim not in (1, 2) or query.size == 0:
            raise InvalidParameterError(
                f"query must be a non-empty vector or (m, d) matrix, got "
                f"shape {query.shape}"
            )
        if not np.all(np.isfinite(query)):
            raise InvalidParameterError("query contains non-finite values")
        object.__setattr__(self, "query", query)
        if self.request_id is not None:
            rid = str(self.request_id)
            if not rid or set(rid) - _HEX_DIGITS:
                raise InvalidParameterError(
                    f"request_id must be a non-empty hex string, got {rid!r}"
                )
        if self.trace_context is not None:
            object.__setattr__(
                self, "trace_context", _coerce_trace_context(self.trace_context)
            )
        if self.deadline_ms is not None and not float(self.deadline_ms) > 0:
            raise InvalidParameterError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )
        object.__setattr__(self, "explain", bool(self.explain))
        if self.max_lag_lsn is not None:
            try:
                bound = int(self.max_lag_lsn)
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"max_lag_lsn must be an integer, got "
                    f"{self.max_lag_lsn!r}"
                ) from None
            if bound < 0:
                raise InvalidParameterError(
                    f"max_lag_lsn must be >= 0, got {bound}"
                )
            object.__setattr__(self, "max_lag_lsn", bound)

    # -- versioned wire codec (DESIGN §14) -----------------------------

    def to_dict(self) -> dict:
        """The v1 wire form (the HTTP request body, JSON-serialisable).

        Always carries ``"v"``, ``"query"``, ``"k"``, ``"engine"`` and
        either ``"metrics"`` or ``"p"`` (``p`` is ignored when a metrics
        list is present, so only one of the two is emitted); optional
        knobs appear only when set.  ``from_dict`` round-trips the
        output exactly.
        """
        record: dict[str, Any] = {
            "v": WIRE_VERSION,
            "query": np.asarray(self.query, dtype=np.float64).tolist(),
            "k": int(self.k),
            "engine": self.engine,
        }
        if self.metrics is not None:
            record["metrics"] = [float(p) for p in self.metrics]
        else:
            record["p"] = float(self.p)
        if self.cap is not None:
            record["cap"] = float(self.cap)
        if self.radius is not None:
            record["radius"] = float(self.radius)
        if self.request_id is not None:
            record["request_id"] = str(self.request_id)
        if self.trace_context is not None:
            record["trace_context"] = self.trace_context.to_traceparent()
        if self.deadline_ms is not None:
            record["deadline_ms"] = float(self.deadline_ms)
        if self.explain:
            record["explain"] = True
        if self.max_lag_lsn is not None:
            record["max_lag_lsn"] = int(self.max_lag_lsn)
        return record

    @classmethod
    def from_dict(cls, record: Any) -> "SearchRequest":
        """Decode one v1 wire request (strict).

        Raises :class:`~repro.errors.WireFormatError` on structural
        problems — a non-dict body, unknown keys, missing ``v``/
        ``query``/``k``, or an unsupported version — and lets the
        constructor's domain validation
        (:class:`~repro.errors.InvalidParameterError`) handle the rest.
        Unknown keys are rejected rather than ignored so schema typos
        fail loudly instead of silently changing the query.
        """
        if not isinstance(record, dict):
            raise WireFormatError(
                f"request body must be a JSON object, got "
                f"{type(record).__name__}"
            )
        unknown = set(record) - _WIRE_REQUEST_KEYS
        if unknown:
            raise WireFormatError(
                f"unknown request field(s): {sorted(unknown)}; "
                f"v{WIRE_VERSION} accepts {sorted(_WIRE_REQUEST_KEYS)}"
            )
        if "v" not in record:
            raise WireFormatError("request is missing the version field 'v'")
        if record["v"] != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported wire version {record['v']!r}; this server "
                f"speaks v{WIRE_VERSION}"
            )
        missing = [key for key in ("query", "k") if key not in record]
        if missing:
            raise WireFormatError(
                f"request is missing required field(s): {missing}"
            )
        metrics = record.get("metrics")
        if metrics is not None:
            try:
                metrics = tuple(float(p) for p in metrics)
            except (TypeError, ValueError):
                raise WireFormatError(
                    f"metrics must be a list of numbers, got {metrics!r}"
                ) from None
        try:
            k = int(record["k"])
        except (TypeError, ValueError):
            raise WireFormatError(
                f"k must be an integer, got {record['k']!r}"
            ) from None
        return cls(
            query=record["query"],
            k=k,
            p=float(record.get("p", 1.0)),
            metrics=metrics,
            cap=record.get("cap"),
            radius=record.get("radius"),
            engine=record.get("engine", "flat"),
            request_id=record.get("request_id"),
            trace_context=record.get("trace_context"),
            deadline_ms=record.get("deadline_ms"),
            explain=bool(record.get("explain", False)),
            max_lag_lsn=record.get("max_lag_lsn"),
        )


@dataclass
class SearchResult:
    """Common result core of every query path.

    ``ids``/``distances`` are sorted by ascending ``lp`` distance;
    ``io`` is the query's simulated I/O, ``termination`` why Algorithm 4
    stopped (``"k_within_radius"`` or ``"candidate_cap"``).  ``trace``
    carries the query's record, the per-round
    :class:`~repro.obs.QueryTrace` every run builds, and ``shard_io`` the
    per-shard I/O breakdown when the result came from the sharded
    service.  ``request_id`` and
    ``trace_id`` echo the request's correlation ids when it was traced
    (``/trace/<trace_id>`` then serves the full span tree);
    ``deadline_exceeded`` is True when the request carried a
    ``deadline_ms`` and the search overran it.
    """

    ids: IdArray
    distances: np.ndarray
    p: float
    k: int
    io: IOStats = field(default_factory=IOStats)
    candidates: int = 0
    rounds: int = 0
    termination: str = ""
    trace: "QueryTrace | None" = None
    shard_io: list[IOStats] | None = None
    request_id: str | None = None
    trace_id: str | None = None
    deadline_exceeded: bool = False

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the CLI and the service)."""
        record = {
            "v": WIRE_VERSION,
            "ids": [int(i) for i in self.ids],
            "distances": [float(d) for d in self.distances],
            "p": self.p,
            "k": self.k,
            "io": self.io.to_dict(),
            "candidates": self.candidates,
            "rounds": self.rounds,
            "termination": self.termination,
        }
        if self.shard_io is not None:
            record["shard_io"] = [s.to_dict() for s in self.shard_io]
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.deadline_exceeded:
            record["deadline_exceeded"] = True
        return record


@runtime_checkable
class SearchResultLike(Protocol):
    """Structural protocol every result type satisfies.

    ``KnnResult`` implements it directly (it *is* a
    :class:`SearchResult`); ``MultiQueryResult`` exposes per-metric
    dicts and ``BatchKnnResult`` per-query lists under the same names.
    """

    @property
    def ids(self) -> Any: ...

    @property
    def distances(self) -> Any: ...

    @property
    def io(self) -> IOStats: ...

    @property
    def termination(self) -> Any: ...

    def to_dict(self) -> dict: ...


def aggregate_io(parts) -> IOStats:
    """Streaming I/O aggregation shared by batch and shard mergers.

    ``parts`` yields objects with an ``io`` attribute *or* plain
    :class:`IOStats`; the result is their :meth:`IOStats.merge` fold.
    """
    total = IOStats()
    for part in parts:
        total.merge(part.io if hasattr(part, "io") else part)
    return total
