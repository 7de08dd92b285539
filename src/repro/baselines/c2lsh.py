"""C2LSH (Gan et al., SIGMOD 2012): LazyLSH at ``p_min = 1`` with aligned rehashing.

C2LSH is the index structure LazyLSH borrows its collision-counting and
virtual-rehashing machinery from, and the main comparator in the paper's
evaluation.  It is one :class:`repro.core.LazyLSH` built for the ``l1``
space alone and queried with C2LSH's own windows:

* ``p_min = 1`` on the ``l1`` base: ``r_hat = 1``, and ``eta`` and
  ``theta`` come straight from Lemma 1 with ``(p1, p2)``;
* ``rehashing="original"``: the aligned windows of Eq. 7
  (``H_R(v) = floor(h(v)/R)``), not query-centric ones.

Its ``l1`` answer is that index's ``knn(q, k, p=1.0)``, so C2LSH runs the
one Algorithm-4 engine.  Fractional-metric queries are answered the way
the paper configures the comparator (Sec. 5.2): retrieve ``k + 100``
approximate neighbours in the ``l1`` space, then keep the ``k`` with the
smallest ``lp`` distance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._typing import PointMatrix, PointVector
from repro.api import SearchResult, check_k
from repro.core.config import LazyLSHConfig
from repro.core.lazylsh import LazyLSH
from repro.errors import InvalidParameterError
from repro.metrics.lp import lp_distance, validate_p
from repro.storage.io_stats import IOStats

#: Extra l1 neighbours retrieved before the lp re-rank (Sec. 5.2).
DEFAULT_RERANK_EXTRA = 100


@dataclass(frozen=True)
class C2LSHConfig:
    """Build parameters of a :class:`C2LSH` index (``beta`` resolves as
    :meth:`LazyLSHConfig.resolve_beta` does)."""

    c: float = 3.0
    epsilon: float = 0.01
    beta: float | None = None
    r0: float = 1.0
    seed: int | None = 7
    page_size: int = 4096
    entry_size: int = 8


class C2LSH:
    """The C2LSH baseline index (l1 space, aligned virtual rehashing)."""

    def __init__(self, config: C2LSHConfig | None = None) -> None:
        self.config = cfg = config or C2LSHConfig()
        self.io_stats = IOStats()
        self._index = LazyLSH(
            LazyLSHConfig(
                c=cfg.c, epsilon=cfg.epsilon, beta=cfg.beta, r0=cfg.r0,
                p_min=1.0, seed=cfg.seed, page_size=cfg.page_size,
                entry_size=cfg.entry_size,
            ),
            rehashing="original",
        )

    def build(self, data: PointMatrix) -> "C2LSH":
        """Materialise the l1 base index over ``data`` (:meth:`LazyLSH.build`:
        refuses data it could not query, unchanged on refusal)."""
        self._index.build(data)
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._index.is_built

    @property
    def num_points(self) -> int:
        """Cardinality of the indexed dataset."""
        return self._index.num_points

    @property
    def eta(self) -> int:
        """Number of materialised hash functions."""
        return self._index.eta

    @property
    def theta(self) -> float:
        """Collision-count threshold (Lemma 1)."""
        return self._index.metric_params(1.0).theta

    def index_size_mb(self) -> float:
        """Simulated on-disk index size in MB."""
        return self._index.index_size_mb()

    def knn(
        self,
        query: PointVector,
        k: int,
        *,
        p: float = 1.0,
        rerank_extra: int = DEFAULT_RERANK_EXTRA,
    ) -> SearchResult:
        """Approximate kNN under ``lp`` via the paper's comparator recipe.

        Retrieves ``min(k + rerank_extra, n)`` approximate l1 neighbours,
        then returns the ``k`` of them with the smallest true ``lp``
        distance, with the l1 search's I/O, termination and record.  For
        ``p = 1`` this is plain C2LSH.
        """
        p = validate_p(p)
        if rerank_extra < 0:
            raise InvalidParameterError(
                f"rerank_extra must be >= 0, got {rerank_extra}"
            )
        index = self._index
        if p == 1.0:
            result = index.knn(query, k, p=1.0)
        else:
            check_k(k, index.num_points)
            pool = index.knn(query, min(k + rerank_extra, index.num_points), p=1.0)
            query = np.asarray(query, dtype=np.float64)
            dists = lp_distance(index.data[pool.ids], query, p)
            order = np.argsort(dists)[:k]
            result = replace(pool, ids=pool.ids[order], distances=dists[order], p=p, k=k)
        self.io_stats.merge(result.io)
        return result
