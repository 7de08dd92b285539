"""Round-synchronised batched kNN over many query points.

``knn_batch`` answers many ``Np(q, k, c)`` queries in one pass of the
in-process runner (``LazyLSH._run``), the same one ``LazyLSH.knn`` and
``MultiQueryEngine.knn`` use:

* every query point is hashed with a single :class:`StableHashBank`
  matmul instead of one GEMV per query;
* each round's windows of *all* queries are answered by one batched
  window search over the store's flat layout (queries are
  level-synchronised — each advances one Algorithm-4 round per engine
  round and drops out when it terminates);
* each query then consumes its slice of the shared scan independently,
  so per-query results, rounds and I/O accounting stay bit-identical to
  looping :meth:`LazyLSH.knn` — the batch changes the execution plan,
  not the simulated cost model.

``engine="scalar"`` runs the scalar oracle (``LazyLSH._scalar_knn``)
query by query instead, for ``p`` and ``metrics`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro._typing import PointMatrix
from repro.api import aggregate_io, check_knobs
from repro.core.lazylsh import LazyLSH, _entry_span
from repro.core.multiquery import MultiQueryResult
from repro.errors import InvalidParameterError
from repro.storage.io_stats import IOStats


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


def knn_batch(
    index: LazyLSH,
    queries: PointMatrix,
    k: int,
    *,
    p: float | None = None,
    metrics: Sequence[float] | None = None,
    engine: str = "flat",
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
    Tuning knobs are keyword-only and shared with
    ``LazyLSH.knn``/``MultiQueryEngine.knn``: ``p``, ``metrics``,
    ``engine``, ``cap`` (candidate-budget override) and ``radius``
    (starting-radius override, single-metric only).

    Every ``(query, metric)`` result carries its record
    (``result.trace``, a :class:`~repro.obs.QueryTrace` with ``query_id``
    set to the query's row); ``telemetry`` (a
    :class:`repro.obs.Telemetry`) publishes them.
    """
    if not index.is_built:
        raise InvalidParameterError("knn_batch needs a built LazyLSH index")
    metrics = check_knobs(
        k, p=p, metrics=metrics, cap=cap, radius=radius, engine=engine
    )
    queries = index._check_queries(queries)
    if queries.shape[0] == 0:
        return BatchKnnResult(results=[])
    p = 1.0 if p is None else p
    with _entry_span(
        telemetry, "knn_batch", engine=engine, k=k, queries=int(queries.shape[0])
    ):
        rows = index._run(
            queries, k, p=p, metrics=metrics, cap=cap, radius=radius,
            engine=engine, telemetry=telemetry, row_ids=True,
        )
    results = (
        [row[0] for row in rows] if metrics is None
        else [MultiQueryResult.of(row) for row in rows]
    )
    return BatchKnnResult(results=results, io=aggregate_io(results))
