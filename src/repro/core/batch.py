"""Round-synchronised batched kNN over many query points.

``knn_batch`` answers many ``Np(q, k, c)`` queries in one pass over the
flat execution engine:

* every query point is hashed with a single :class:`StableHashBank`
  matmul instead of one GEMV per query;
* the per-round window scans of *all* queries are answered together by
  two vectorised ``searchsorted`` calls over the store's flat layout
  (queries are level-synchronised — each advances one Algorithm-4 round
  per engine round and drops out when it terminates);
* each query then consumes its slice of the shared scan independently,
  so per-query results, rounds and I/O accounting stay bit-identical to
  looping :meth:`LazyLSH.knn` — the batch changes the execution plan,
  not the simulated cost model.

``share_pages=True`` additionally models one buffer pool shared by the
whole batch: a page read by any query stays cached for the others, and
each query's sequential count becomes its *marginal* page reads in batch
order (the batch total is then what one disk arm would really fetch).
This intentionally diverges from the looped-scalar accounting, which
gives every query a private pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro._typing import PointMatrix
from repro.api import SearchRequest, aggregate_io
from repro.core.engine import execute_rounds
from repro.core.lazylsh import LazyLSH, _lane_result
from repro.core.multiquery import MultiQueryEngine, MultiQueryResult
from repro.errors import (
    DimensionalityMismatchError,
    InvalidParameterError,
)
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageTracker


@dataclass
class BatchKnnResult:
    """Results of a batched kNN call, in query order.

    ``results`` holds one :class:`KnnResult` per query (or one
    :class:`MultiQueryResult` per query when ``metrics`` was given);
    ``io`` aggregates the whole batch's simulated I/O.  Satisfies the
    :class:`~repro.api.SearchResultLike` protocol: ``ids``,
    ``distances`` and ``termination`` expose the per-query parts as
    lists in query order.
    """

    results: list
    io: IOStats = field(default_factory=IOStats)

    @property
    def ids(self) -> list:
        """Per-query neighbour ids, in query order."""
        return [r.ids for r in self.results]

    @property
    def distances(self) -> list:
        """Per-query neighbour distances, in query order."""
        return [r.distances for r in self.results]

    @property
    def termination(self) -> list:
        """Per-query Algorithm-4 termination reasons, in query order."""
        return [r.termination for r in self.results]

    def to_dict(self) -> dict:
        """JSON-serialisable form: per-query records plus the batch I/O."""
        return {
            "io": self.io.to_dict(),
            "results": [r.to_dict() for r in self.results],
        }

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, item: int):
        return self.results[item]

    def __iter__(self) -> Iterator:
        return iter(self.results)


def _check_queries(index: LazyLSH, queries: PointMatrix) -> np.ndarray:
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.ndim != 2:
        raise InvalidParameterError(
            f"queries must be a 2-D (m, d) matrix, got shape {queries.shape}"
        )
    if queries.shape[0] < 1:
        raise InvalidParameterError("queries must contain at least one point")
    if queries.shape[1] != index.dimensionality:
        raise DimensionalityMismatchError(
            f"queries have dimensionality {queries.shape[1]}, index expects "
            f"{index.dimensionality}"
        )
    if not np.all(np.isfinite(queries)):
        raise InvalidParameterError("queries contain non-finite values")
    return queries


def knn_batch(
    index: LazyLSH,
    queries: PointMatrix | SearchRequest,
    k: int | None = None,
    *,
    p: float | None = None,
    metrics: Sequence[float] | None = None,
    engine: str = "flat",
    share_pages: bool = False,
    telemetry=None,
    cap: float | None = None,
    radius: float | None = None,
) -> BatchKnnResult:
    """Answer ``Np(q, k, c)`` for every row of ``queries`` in one pass.

    Exactly one of ``p`` (one metric per query, default ``1.0``) or
    ``metrics`` (every query answered under all listed metrics, like
    :class:`MultiQueryEngine`) may be given.  ``engine="scalar"`` loops
    the reference path query by query — useful for verification — while
    the default ``"flat"`` plan runs all queries round-synchronised.

    ``queries`` may instead be a :class:`~repro.api.SearchRequest` whose
    ``query`` holds the ``(m, d)`` query matrix; every other argument
    but ``share_pages`` and ``telemetry`` must then be left at its
    default.  Tuning knobs are keyword-only and shared with
    ``LazyLSH.knn``/``MultiQueryEngine.knn``: ``p``, ``metrics``,
    ``engine``, ``cap``
    (candidate-budget override) and ``radius`` (starting-radius
    override, single-metric only).

    ``telemetry`` (a :class:`repro.obs.Telemetry`) captures one
    :class:`~repro.obs.QueryTrace` per ``(query, metric)`` pair with
    ``query_id`` set to the query's row; ``None`` (the default) runs the
    no-op fast path.
    """
    if isinstance(queries, SearchRequest):
        if k is not None or p is not None or metrics is not None:
            raise InvalidParameterError(
                "pass either a SearchRequest or explicit queries/k "
                "arguments, not both"
            )
        if cap is not None or radius is not None:
            raise InvalidParameterError(
                "cap/radius are read from the SearchRequest when one is given"
            )
        request = queries
        queries = request.query
        k = request.k
        metrics = request.metrics
        if metrics is None:
            p = request.p
        engine = request.engine
        cap = request.cap
        radius = request.radius
        request_id = request.request_id
        trace_context = request.trace_context
    else:
        request_id = None
        trace_context = None
        if k is None:
            raise InvalidParameterError(
                "k is required when not passing a SearchRequest"
            )
    if not index.is_built:
        raise InvalidParameterError("knn_batch needs a built LazyLSH index")
    if engine not in ("flat", "scalar"):
        raise InvalidParameterError(
            f"engine must be 'flat' or 'scalar', got {engine!r}"
        )
    if metrics is not None and p is not None:
        raise InvalidParameterError("pass either p or metrics, not both")
    if metrics is not None and not metrics:
        raise InvalidParameterError("metrics must be non-empty")
    if metrics is not None and radius is not None:
        raise InvalidParameterError(
            "radius override is only supported for single-metric searches"
        )
    if cap is not None and cap < k:
        raise InvalidParameterError(
            f"candidate cap must be >= k={k}, got {cap}"
        )
    if radius is not None and not radius > 0:
        raise InvalidParameterError(
            f"radius override must be > 0, got {radius}"
        )
    if share_pages and engine == "scalar":
        raise InvalidParameterError(
            "share_pages models a batch-wide buffer pool; the scalar loop "
            "runs queries independently and cannot share one"
        )
    queries = _check_queries(index, queries)
    if telemetry is None:
        return _knn_batch_impl(
            index, queries, k, p, metrics, engine, share_pages, None, cap, radius
        )
    ctx = (
        trace_context
        if trace_context is not None and trace_context.sampled
        else None
    )
    with telemetry.tracer.span(
        "knn_batch",
        context=ctx,
        engine=engine,
        k=k,
        queries=int(queries.shape[0]),
    ) as span:
        if request_id is not None:
            span.set(request_id=request_id)
        result = _knn_batch_impl(
            index,
            queries,
            k,
            p,
            metrics,
            engine,
            share_pages,
            telemetry,
            cap,
            radius,
        )
    telemetry.finish_trace(ctx)
    return result


def _knn_batch_impl(
    index: LazyLSH,
    queries: np.ndarray,
    k: int,
    p: float | None,
    metrics: Sequence[float] | None,
    engine: str,
    share_pages: bool,
    telemetry,
    cap: float | None = None,
    radius: float | None = None,
) -> BatchKnnResult:
    if metrics is None:
        p_single = 1.0 if p is None else float(p)
        if engine == "scalar":
            return _scalar_single(
                index, queries, k, p_single, telemetry, cap, radius
            )
        return _flat_single(
            index, queries, k, p_single, share_pages, telemetry, cap, radius
        )
    if engine == "scalar":
        return _scalar_multi(index, queries, k, metrics, telemetry, cap)
    return _flat_multi(index, queries, k, metrics, share_pages, telemetry, cap)


def _scalar_single(
    index: LazyLSH,
    queries: np.ndarray,
    k: int,
    p: float,
    telemetry=None,
    cap: float | None = None,
    radius: float | None = None,
) -> BatchKnnResult:
    results = []
    for j in range(queries.shape[0]):
        stats = IOStats()
        result = index._knn_impl(
            queries[j],
            k,
            p,
            stats,
            seen_pages=set(),
            telemetry=telemetry,
            query_id=j,
            cap=cap,
            radius=radius,
        )
        index.io_stats.add_sequential(stats.sequential)
        index.io_stats.add_random(stats.random)
        results.append(result)
    return BatchKnnResult(results=results, io=aggregate_io(results))


def _scalar_multi(
    index: LazyLSH,
    queries: np.ndarray,
    k: int,
    metrics: Sequence[float],
    telemetry=None,
    cap: float | None = None,
) -> BatchKnnResult:
    engine = MultiQueryEngine(index)
    results = [
        engine.knn(
            q, k, metrics=metrics, engine="scalar", telemetry=telemetry, cap=cap
        )
        for q in queries
    ]
    return BatchKnnResult(results=results, io=aggregate_io(results))


def _flat_single(
    index: LazyLSH,
    queries: np.ndarray,
    k: int,
    p: float,
    share_pages: bool,
    telemetry=None,
    cap: float | None = None,
    radius: float | None = None,
) -> BatchKnnResult:
    bank = index._bank
    assert bank is not None
    hashes = bank.hash_points(queries)  # one matmul for the whole batch
    shared = PageTracker() if share_pages else None
    groups = [
        index._lane_group(
            queries[j],
            k,
            p,
            query_hashes=np.ascontiguousarray(hashes[:, j]),
            shared_pages=shared,
            cap=cap,
            radius=radius,
        )
        for j in range(queries.shape[0])
    ]
    if telemetry is not None:
        for j, group in enumerate(groups):
            lane = group.lanes[0]
            lane.trace = telemetry.query_trace_builder(
                p=lane.p,
                k=k,
                engine="flat",
                rehashing=index.rehashing,
                query_id=j,
            )
    execute_rounds(groups)
    results = []
    for group in groups:
        lane = group.lanes[0]
        results.append(_lane_result(lane))
        if lane.trace is not None:
            results[-1].trace = lane.trace.finish(
                termination=lane.stop_reason,
                io=lane.io,
                candidates=results[-1].candidates,
            )
            telemetry.record(results[-1].trace)
        index.io_stats.add_sequential(lane.io.sequential)
        index.io_stats.add_random(lane.io.random)
    return BatchKnnResult(results=results, io=aggregate_io(results))


def _flat_multi(
    index: LazyLSH,
    queries: np.ndarray,
    k: int,
    metrics: Sequence[float],
    share_pages: bool,
    telemetry=None,
    cap: float | None = None,
) -> BatchKnnResult:
    hashes = index._bank.hash_points(queries)
    shared = PageTracker() if share_pages else None
    groups = [
        index._lane_group(
            queries[j],
            k,
            metrics=metrics,
            query_hashes=np.ascontiguousarray(hashes[:, j]),
            shared_pages=shared,
            cap=cap,
        )
        for j in range(queries.shape[0])
    ]
    if telemetry is not None:
        for group in groups:
            for lane in group.lanes:
                lane.trace = telemetry.query_trace_builder(
                    p=lane.p, k=k, engine="flat", rehashing=index.rehashing
                )
    execute_rounds(groups)
    results = []
    for group in groups:
        per_metric = {lane.p: _lane_result(lane) for lane in group.lanes}
        if telemetry is not None:
            for lane in group.lanes:
                if lane.trace is not None:
                    per_metric[lane.p].trace = lane.trace.finish(
                        termination=lane.stop_reason,
                        io=lane.io,
                        candidates=per_metric[lane.p].candidates,
                    )
                    telemetry.record(per_metric[lane.p].trace)
        total = aggregate_io(per_metric.values())
        index.io_stats.add_sequential(total.sequential)
        index.io_stats.add_random(total.random)
        results.append(MultiQueryResult(results=per_metric, io=total))
    return BatchKnnResult(results=results, io=aggregate_io(results))
