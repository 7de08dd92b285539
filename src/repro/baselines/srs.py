"""SRS (Sun et al., PVLDB 2014): tiny-index ANN via 2-stable projections.

SRS projects the dataset into a very low-dimensional space (``m = 6`` in
the paper's and our experiments) with Gaussian (2-stable) projections.  For
a point at l2 distance ``s`` from the query, the squared projected distance
is distributed as ``s^2 * chi^2_m``, whose sharp concentration lets SRS:

1. examine points in increasing order of *projected* distance (the real
   system walks an R-tree incrementally; we sort exactly, which visits the
   same sequence — see DESIGN.md on this substitution), and
2. stop early once the incoming projected distance ``pi`` makes it
   sufficiently unlikely (chi-squared tail) that any unseen point lies
   within ``d_k / c`` of the query, where ``d_k`` is the current k-th best
   true distance.

Fractional-metric queries follow the paper's comparator recipe (Sec. 5.2):
candidates are collected by the l2 machinery and the top ``k`` by true
``lp`` distance are returned.  A result's ``termination`` is
``"early_stop"`` (step 2 fired) or ``"candidate_cap"`` (the budget ran
out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from repro._typing import PointMatrix, PointVector
from repro.api import SearchResult, check_k, check_points
from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.metrics.lp import lp_distance, validate_p
from repro.obs.query_trace import TERMINATION_CAP
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout


@dataclass(frozen=True)
class SRSConfig:
    """Build parameters of an :class:`SRS` index.

    ``num_projections`` is the projected dimensionality (6 in both the SRS
    paper's and the LazyLSH paper's experiments).  ``max_fraction`` bounds
    the candidate budget as a fraction of ``n`` (the SRS paper's ``T'``),
    and ``early_stop_confidence`` is the chi-squared tail mass used by the
    incremental early-termination test.
    """

    num_projections: int = 6
    c: float = 3.0
    max_fraction: float = 0.1
    early_stop_confidence: float = 0.99
    seed: int | None = 7
    page_size: int = 4096


class SRS:
    """The SRS baseline: exact incremental NN in a 6-d projected space."""

    def __init__(self, config: SRSConfig | None = None) -> None:
        cfg = config or SRSConfig()
        if cfg.num_projections < 1:
            raise InvalidParameterError(
                f"num_projections must be >= 1, got {cfg.num_projections}"
            )
        if not cfg.c > 1.0:
            raise InvalidParameterError(
                f"approximation ratio c must be > 1, got {cfg.c}"
            )
        if not 0.0 < cfg.max_fraction <= 1.0:
            raise InvalidParameterError(
                f"max_fraction must lie in (0, 1], got {cfg.max_fraction}"
            )
        if not 0.0 < cfg.early_stop_confidence < 1.0:
            raise InvalidParameterError(
                "early_stop_confidence must lie in (0, 1), got "
                f"{cfg.early_stop_confidence}"
            )
        self.config = cfg
        self.io_stats = IOStats()
        self._data: PointMatrix | None = None
        self._projected: np.ndarray | None = None
        self._projection: np.ndarray | None = None
        self._layout = PageLayout(page_size=cfg.page_size, entry_size=8)

    def build(self, data: PointMatrix) -> "SRS":
        """Project the dataset into the ``m``-dimensional index space."""
        data = check_points(data, "data")
        rng = np.random.default_rng(self.config.seed)
        d = data.shape[1]
        self._projection = rng.standard_normal((d, self.config.num_projections))
        self._projected = data @ self._projection
        self._data = data
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._data is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise IndexNotBuiltError("call build(data) before querying")

    @property
    def num_points(self) -> int:
        """Cardinality of the dataset."""
        self._require_built()
        assert self._data is not None
        return self._data.shape[0]

    def index_size_mb(self) -> float:
        """Simulated index size (the projected vectors), in MB.

        One entry per point: ``m`` float coordinates plus the id — an
        order of magnitude smaller than the hash-bank indexes, which is
        SRS's selling point.
        """
        self._require_built()
        entry_bytes = 8 * (self.config.num_projections + 1)
        n_bytes = self.num_points * entry_bytes
        return self._layout.pages_for_bytes(n_bytes) * self.config.page_size / (
            1024.0 * 1024.0
        )

    def knn(self, query: PointVector, k: int, *, p: float = 2.0) -> SearchResult:
        """Approximate kNN of ``query``; candidates ranked by true ``lp``."""
        self._require_built()
        assert (
            self._data is not None
            and self._projected is not None
            and self._projection is not None
        )
        query = check_points(query, "query", width=self._data.shape[1], vector=True)
        p = validate_p(p)
        n = self.num_points
        check_k(k, n)
        stats = IOStats()
        m = self.config.num_projections
        projected_query = query @ self._projection
        proj_dists = np.sqrt(
            np.square(self._projected - projected_query).sum(axis=1)
        )
        order = np.argsort(proj_dists, kind="stable")
        budget = max(k, int(math.ceil(self.config.max_fraction * n)))
        tail_quantile = chi2.ppf(self.config.early_stop_confidence, df=m)
        cand_ids: list[int] = []
        # True distances under both the guarantee metric (l2) and the
        # requested metric; the early-stop test is an l2 statement.
        cand_l2: list[float] = []
        termination = TERMINATION_CAP
        for rank in range(min(budget, n)):
            idx = int(order[rank])
            stats.add_random(1)
            cand_ids.append(idx)
            cand_l2.append(float(lp_distance(self._data[idx], query, 2.0)))
            if len(cand_ids) >= k:
                d_k = np.partition(np.asarray(cand_l2), k - 1)[k - 1]
                if rank + 1 < n:
                    next_proj = proj_dists[order[rank + 1]]
                    # Any unseen point at l2 distance <= d_k / c would have
                    # projected distance^2 ~ (d_k/c)^2 * chi^2_m; once the
                    # frontier exceeds the tail quantile of that law, such
                    # a point is unlikely to exist and we can stop (at
                    # once when d_k = 0).
                    if d_k == 0.0 or next_proj**2 > (d_k / self.config.c) ** 2 * tail_quantile:
                        termination = "early_stop"
                        break
        cand_arr = np.asarray(cand_ids, dtype=np.int64)
        if p == 2.0:
            dists = np.asarray(cand_l2)
        else:
            dists = lp_distance(self._data[cand_arr], query, p)
        top = np.argsort(dists, kind="stable")[:k]
        self.io_stats.merge(stats)
        return SearchResult(
            ids=cand_arr[top],
            distances=np.asarray(dists)[top],
            p=p,
            k=k,
            io=stats,
            candidates=len(cand_ids),
            termination=termination,
        )
