"""Multi-query optimisation (Section 4.3).

When the same query point is asked for kNNs under several ``lp`` metrics —
the workflow behind Table 1's "pick the best ``p`` for this dataset" — the
bucket windows probed by the individual queries coincide *exactly*: at
round ``j`` of Algorithm 4 every metric searches the window of level
``c^j`` base buckets (the metric-specific radius ``r_hat`` cancels out of
``level = r_hat * delta_j`` because the start radius is ``delta_0 =
1/r_hat``).  Metrics differ only in how many hash functions they consult
(``eta_p``), their collision thresholds (``theta_p``) and when they
terminate.

The engine therefore runs the batch **level-synchronised**: one shared
pass over rounds and hash functions reads every inverted-list ring once,
feeds the resulting ids to each still-active metric's collision counter,
and lets each metric terminate on its own schedule.  Consequences, as the
paper reports (Figure 12):

* sequential I/O ~ that of the single smallest-``p`` query (one shared
  scan; pages are charged once via a shared buffer-pool set),
* a few extra random I/Os for candidates unique to individual metrics
  (an object is fetched once, then re-ranked under every metric in CPU),
* per-metric results identical to running the queries one by one.

Every lane walks this schedule, so a single-metric ``knn`` is the
one-metric case of the same scan.  :class:`MultiQueryEngine` is a front
over the index's one runner (``LazyLSH._run``): the flat engine
(:mod:`repro.core.engine`) or, for ``engine="scalar"``, the scalar
oracle (``LazyLSH._scalar_knn``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._typing import PointVector
from repro.api import SearchResult, aggregate_io, check_knobs
from repro.core.lazylsh import LazyLSH, _entry_span
from repro.errors import InvalidParameterError
from repro.storage.io_stats import IOStats


@dataclass
class MultiQueryResult:
    """Batched kNN results for one query point under several metrics.

    Satisfies the :class:`~repro.api.SearchResultLike` protocol: ``ids``,
    ``distances`` and ``termination`` expose the per-metric parts keyed
    by ``p``, ``io`` the batch's aggregated simulated I/O.
    """

    results: dict[float, SearchResult]
    io: IOStats = field(default_factory=IOStats)

    @property
    def metrics(self) -> list[float]:
        """The metrics answered, in ascending order of ``p``."""
        return list(self.results)

    @property
    def ids(self) -> dict[float, np.ndarray]:
        """Per-metric neighbour ids, keyed by ``p``."""
        return {p: r.ids for p, r in self.results.items()}

    @property
    def distances(self) -> dict[float, np.ndarray]:
        """Per-metric neighbour distances, keyed by ``p``."""
        return {p: r.distances for p, r in self.results.items()}

    @property
    def termination(self) -> dict[float, str]:
        """Per-metric Algorithm-4 termination reasons, keyed by ``p``."""
        return {p: r.termination for p, r in self.results.items()}

    def to_dict(self) -> dict:
        """JSON-serialisable form (metric keys formatted with ``%g``)."""
        return {
            "metrics": self.metrics,
            "io": self.io.to_dict(),
            "results": {f"{p:g}": r.to_dict() for p, r in self.results.items()},
        }

    def __getitem__(self, p: float) -> SearchResult:
        return self.results[p]

    @classmethod
    def of(cls, row: list[SearchResult]) -> "MultiQueryResult":
        """One point's per-metric results, with their I/O total."""
        return cls(results={r.p: r for r in row}, io=aggregate_io(row))


class MultiQueryEngine:
    """Answers one query point under many ``lp`` metrics, sharing I/O
    and the underlying index scan (Section 4.3).

    Parameters
    ----------
    index:
        A built :class:`~repro.core.lazylsh.LazyLSH` index using
        query-centric rehashing (the shared scan relies on every metric's
        round-``j`` window being the same ``c^j``-bucket window).
    """

    def __init__(self, index: LazyLSH) -> None:
        if not index.is_built:
            raise InvalidParameterError("MultiQueryEngine needs a built LazyLSH index")
        index._require_query_centric()
        self.index = index

    def knn(
        self,
        query: PointVector,
        k: int,
        *,
        metrics: Sequence[float] | None = None,
        engine: str = "flat",
        telemetry=None,
        cap: float | None = None,
    ) -> MultiQueryResult:
        """kNN of ``query`` under every metric in ``metrics``.

        Results are identical to issuing the queries one at a time; the
        I/O and CPU of the index scan are paid once.  Each per-metric
        :class:`~repro.api.SearchResult` carries its *marginal* I/O (sequential reads
        are attributed to the smallest-``p`` active metric consuming
        them); the batch total is in :attr:`MultiQueryResult.io`.

        Tuning knobs are keyword-only and shared with
        ``LazyLSH.knn``/``knn_batch``: ``metrics``, ``engine``
        (``"flat"`` or ``"scalar"``, bit-identical), ``cap``
        (candidate-budget override, applied to every metric) and
        ``telemetry``, which publishes each metric's record
        (``result[p].trace``, built on every run).
        """
        metrics = check_knobs(
            k, metrics=() if metrics is None else metrics, cap=cap,
            engine=engine,
        )
        query = self.index._check_query(query)
        with _entry_span(
            telemetry, "multiquery.knn", engine=engine, k=k, metrics=len(metrics)
        ):
            return MultiQueryResult.of(self.index._run(
                query[None, :], k, metrics=metrics, cap=cap, engine=engine,
                telemetry=telemetry,
            )[0])
