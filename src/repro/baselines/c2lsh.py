"""C2LSH (Gan et al., SIGMOD 2012) built in the l1 space.

C2LSH is the index structure LazyLSH borrows its collision-counting and
virtual-rehashing machinery from, and the main comparator in the paper's
evaluation.  Differences from :class:`repro.core.LazyLSH`:

* the index is parameterised for the ``l1`` space only — ``eta`` and
  ``theta`` come straight from Lemma 1 with ``(p1, p2)``, no ball-geometry
  correction;
* virtual rehashing uses the *original* aligned windows of Eq. 7
  (``H_R(v) = floor(h(v)/R)``), not query-centric ones;
* fractional-metric queries are answered the way the paper configures the
  comparator (Sec. 5.2): retrieve ``k + 100`` approximate neighbours in
  the ``l1`` space, then keep the ``k`` with the smallest ``lp`` distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import PointMatrix, PointVector
from repro.core.hashing import StableHashBank, original_window
from repro.core.lazylsh import KnnResult
from repro.core.params import ParameterEngine
from repro.errors import (
    IndexNotBuiltError,
    InvalidParameterError,
)
from repro.metrics.lp import lp_distance, validate_p
from repro.storage.inverted_index import InvertedListStore
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout, PageTracker

_MAX_ROUNDS = 128

#: Extra l1 neighbours retrieved before the lp re-rank (Sec. 5.2).
DEFAULT_RERANK_EXTRA = 100


@dataclass(frozen=True)
class C2LSHConfig:
    """Build parameters of a :class:`C2LSH` index."""

    c: float = 3.0
    epsilon: float = 0.01
    beta: float | None = None
    r0: float = 1.0
    seed: int | None = 7
    page_size: int = 4096
    entry_size: int = 8

    def resolve_beta(self, n: int) -> float:
        """Concrete false-positive rate (same policy as LazyLSH)."""
        if self.beta is not None:
            return self.beta
        return min(max(100.0 / n, 1e-4), 0.5)


class C2LSH:
    """The C2LSH baseline index (l1 space, aligned virtual rehashing)."""

    def __init__(self, config: C2LSHConfig | None = None) -> None:
        self.config = config or C2LSHConfig()
        self.io_stats = IOStats()
        self._data: PointMatrix | None = None
        self._bank: StableHashBank | None = None
        self._store: InvertedListStore | None = None
        self._eta: int = 0
        self._theta: float = 0.0
        self._beta: float = 0.0

    def build(self, data: PointMatrix) -> "C2LSH":
        """Materialise the l1 base index over ``data``."""
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if data.ndim != 2 or data.shape[0] < 1:
            raise InvalidParameterError(
                f"data must be a non-empty 2-D matrix, got shape {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise InvalidParameterError("data contains non-finite values")
        n, d = data.shape
        cfg = self.config
        self._beta = cfg.resolve_beta(n)
        engine = ParameterEngine(
            d,
            c=cfg.c,
            epsilon=cfg.epsilon,
            beta=self._beta,
            r0=cfg.r0,
            base_p=1.0,
            seed=cfg.seed,
        )
        params = engine.metric_params(1.0)
        self._eta = params.eta
        self._theta = params.theta
        t_max = float(np.abs(data).max())
        self._bank = StableHashBank(
            d,
            self._eta,
            r0=cfg.r0,
            c=cfg.c,
            t_max=max(t_max, 1.0),
            base_p=1.0,
            seed=cfg.seed,
        )
        layout = PageLayout(page_size=cfg.page_size, entry_size=cfg.entry_size)
        self._store = InvertedListStore(self._bank.hash_points(data), layout)
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
        """Cardinality of the indexed dataset."""
        self._require_built()
        assert self._data is not None
        return self._data.shape[0]

    @property
    def eta(self) -> int:
        """Number of materialised hash functions."""
        self._require_built()
        return self._eta

    @property
    def theta(self) -> float:
        """Collision-count threshold (Lemma 1)."""
        self._require_built()
        return self._theta

    def index_size_mb(self) -> float:
        """Simulated on-disk index size in MB."""
        self._require_built()
        assert self._store is not None
        return self._store.size_mb()

    def knn_l1(self, query: PointVector, k: int, stats: IOStats | None = None) -> KnnResult:
        """Approximate ``k`` nearest neighbours in the l1 space.

        The C2LSH query loop: aligned virtual rehashing at radii
        ``1, c, c^2, ...`` with collision counting against ``theta``.
        """
        self._require_built()
        assert self._bank is not None and self._store is not None and self._data is not None
        n = self.num_points
        if not 1 <= k <= n:
            raise InvalidParameterError(
                f"k must lie in [1, {n}] for a dataset of {n} points, got {k}"
            )
        query = np.asarray(query, dtype=np.float64)
        if stats is None:
            stats = IOStats()
        # Per-query page cache, matching LazyLSH's accounting: a page
        # re-touched at a later rehashing radius is charged once.  Tracked
        # as page intervals, not a set — the window scans touch contiguous
        # runs, so dedup is interval arithmetic with identical counts.
        seen_pages = PageTracker()
        cap = k + self._beta * n
        counts = np.zeros(n, dtype=np.int32)
        is_candidate = np.zeros(n, dtype=bool)
        cand_ids: list[int] = []
        cand_dists: list[float] = []
        query_hashes = self._bank.hash_point(query)
        prev_windows: list[tuple[int, int]] | None = None
        radius = 1.0
        rounds = 0
        done = False
        while not done:
            rounds += 1
            if rounds > _MAX_ROUNDS:
                raise RuntimeError(
                    "C2LSH query did not terminate; the index is corrupted"
                )
            c_radius = self.config.c * radius
            windows: list[tuple[int, int]] = []
            for i in range(self._eta):
                lo, hi = original_window(int(query_hashes[i]), radius)
                windows.append((lo, hi))
                if prev_windows is None:
                    ids = self._store.read_window(i, lo, hi, stats, seen_pages)
                else:
                    plo, phi = prev_windows[i]
                    if lo <= plo and phi <= hi:
                        ids = self._store.read_ring(
                            i, lo, hi, plo, phi, stats, seen_pages
                        )
                    else:
                        ids = self._store.read_window(i, lo, hi, stats, seen_pages)
                if ids.size > 0:
                    counts[ids] += 1
                    crossed = ids[(counts[ids] > self._theta) & ~is_candidate[ids]]
                    if crossed.size > 0:
                        is_candidate[crossed] = True
                        stats.add_random(int(crossed.size))
                        dists = lp_distance(self._data[crossed], query, 1.0)
                        cand_ids.extend(int(x) for x in crossed)
                        cand_dists.extend(float(x) for x in dists)
                if len(cand_ids) >= k:
                    dist_arr = np.asarray(cand_dists)
                    if np.count_nonzero(dist_arr < c_radius * self.config.r0) >= k:
                        done = True
                        break
                if len(cand_ids) > cap:
                    done = True
                    break
            prev_windows = windows
            radius *= self.config.c
        order = np.argsort(np.asarray(cand_dists))[:k]
        ids = np.asarray(cand_ids, dtype=np.int64)[order]
        dists = np.asarray(cand_dists, dtype=np.float64)[order]
        return KnnResult(
            ids=ids,
            distances=dists,
            p=1.0,
            k=k,
            io=stats,
            candidates=len(cand_ids),
            rounds=rounds,
        )

    def knn(
        self,
        query: PointVector,
        k: int,
        p: float = 1.0,
        *,
        rerank_extra: int = DEFAULT_RERANK_EXTRA,
    ) -> KnnResult:
        """Approximate kNN under ``lp`` via the paper's comparator recipe.

        Retrieves ``min(k + rerank_extra, n)`` approximate l1 neighbours,
        then returns the ``k`` of them with the smallest true ``lp``
        distance.  For ``p = 1`` this is plain C2LSH.
        """
        self._require_built()
        assert self._data is not None
        p = validate_p(p)
        if rerank_extra < 0:
            raise InvalidParameterError(
                f"rerank_extra must be >= 0, got {rerank_extra}"
            )
        stats = IOStats()
        pool_k = k if p == 1.0 else min(k + rerank_extra, self.num_points)
        l1_result = self.knn_l1(query, pool_k, stats)
        if p == 1.0:
            result = l1_result
        else:
            query = np.asarray(query, dtype=np.float64)
            pool_ids = l1_result.ids
            dists = lp_distance(self._data[pool_ids], query, p)
            order = np.argsort(dists)[:k]
            result = KnnResult(
                ids=pool_ids[order],
                distances=dists[order],
                p=p,
                k=k,
                io=stats,
                candidates=l1_result.candidates,
                rounds=l1_result.rounds,
            )
        self.io_stats.add_sequential(stats.sequential)
        self.io_stats.add_random(stats.random)
        return result
