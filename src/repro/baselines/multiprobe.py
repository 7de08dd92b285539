"""Multi-probe LSH (Lv et al., VLDB 2007) — the related-work extension.

Where E2LSH only inspects the query's own compound bucket in each table,
multi-probe LSH also probes buckets whose compound keys differ from the
query's by small perturbations, chosen in increasing order of "success
score" — the squared distance from the query's projection to the perturbed
bucket's boundary.  This lets far fewer tables reach the same recall, at
the cost of extra bucket probes.

The probing sequence is generated with the original paper's heap algorithm
over perturbation sets (subsets of the ``2m`` sorted boundary distances,
expanded via *shift* and *expand* operations), restricted to valid sets
that never perturb the same coordinate in both directions.

The compound tables are E2LSH's (:class:`repro.baselines.e2lsh._Level`),
built once at the index's width and read through the same
:meth:`~repro.baselines.e2lsh._Level.probe`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro._typing import PointMatrix, PointVector
from repro.api import SearchResult, check_k, check_points
from repro.baselines._autoscale import estimate_nn_distance
from repro.baselines.e2lsh import _Level
from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.metrics.lp import lp_distance, validate_p
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout


@dataclass(frozen=True)
class MultiProbeConfig:
    """Build parameters of a :class:`MultiProbeLSH` index.

    ``width`` is the bucket width of the base hash functions.  ``None``
    (the default) auto-scales it at build time to ``width_scale`` times the
    median nearest-neighbour distance of a data sample — raw feature data
    spans wildly different magnitudes, and a fixed width would leave every
    point in its own compound bucket (or all points in one).
    """

    m: int = 8
    num_tables: int = 8
    width: float | None = None
    width_scale: float = 4.0
    base_p: float = 2.0
    num_probes: int = 16
    seed: int | None = 7
    page_size: int = 4096
    entry_size: int = 8


def probing_sequence(scores: np.ndarray, num_probes: int) -> list[list[tuple[int, int]]]:
    """Generate perturbation sets in increasing total-score order.

    Parameters
    ----------
    scores:
        Array of shape ``(2m,)``: for each coordinate ``j`` of the compound
        key, ``scores[2j]`` is the squared distance to the lower bucket
        boundary (delta ``-1``) and ``scores[2j + 1]`` to the upper
        boundary (delta ``+1``).
    num_probes:
        How many perturbation sets to emit (excluding the empty set, which
        is the query's own bucket and is always probed first by callers).

    Returns
    -------
    list of perturbation sets; each set is a list of ``(coordinate,
    delta)`` pairs with ``delta in {-1, +1}``.
    """
    two_m = scores.shape[0]
    if two_m == 0 or num_probes <= 0:
        return []
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]

    def partner_conflict(indices: tuple[int, ...]) -> bool:
        # Two entries conflict when they perturb the same coordinate.
        coords = [order[i] // 2 for i in indices]
        return len(coords) != len(set(coords))

    # Heap of (total score, indices-into-sorted_scores tuple).
    heap: list[tuple[float, tuple[int, ...]]] = [(float(sorted_scores[0]), (0,))]
    emitted: list[list[tuple[int, int]]] = []
    seen: set[tuple[int, ...]] = set()
    while heap and len(emitted) < num_probes:
        total, indices = heapq.heappop(heap)
        last = indices[-1]
        # Shift: move the last element one step right.
        if last + 1 < two_m:
            shifted = indices[:-1] + (last + 1,)
            if shifted not in seen:
                seen.add(shifted)
                heapq.heappush(
                    heap,
                    (
                        total - float(sorted_scores[last]) + float(sorted_scores[last + 1]),
                        shifted,
                    ),
                )
        # Expand: append the next element.
        if last + 1 < two_m:
            expanded = indices + (last + 1,)
            if expanded not in seen:
                seen.add(expanded)
                heapq.heappush(
                    heap, (total + float(sorted_scores[last + 1]), expanded)
                )
        if partner_conflict(indices):
            continue
        emitted.append(
            [
                (int(order[i] // 2), -1 if order[i] % 2 == 0 else 1)
                for i in indices
            ]
        )
    return emitted


class MultiProbeLSH:
    """Multi-probe LSH over a single set of compound hash tables."""

    def __init__(self, config: MultiProbeConfig | None = None) -> None:
        cfg = config or MultiProbeConfig()
        if cfg.m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {cfg.m}")
        if cfg.num_tables < 1:
            raise InvalidParameterError(
                f"num_tables must be >= 1, got {cfg.num_tables}"
            )
        if cfg.num_probes < 1:
            raise InvalidParameterError(
                f"num_probes must be >= 1, got {cfg.num_probes}"
            )
        if cfg.width is not None and cfg.width <= 0:
            raise InvalidParameterError(f"width must be > 0, got {cfg.width}")
        if cfg.width_scale <= 0:
            raise InvalidParameterError(
                f"width_scale must be > 0, got {cfg.width_scale}"
            )
        validate_p(cfg.base_p, allow_above_two=False)
        self.config = cfg
        self.io_stats = IOStats()
        self._data: PointMatrix | None = None
        self._level: _Level | None = None
        self._layout = PageLayout(page_size=cfg.page_size, entry_size=cfg.entry_size)

    def build(self, data: PointMatrix) -> "MultiProbeLSH":
        """Materialise the ``num_tables`` compound hash tables."""
        data = check_points(data, "data")
        cfg = self.config
        if cfg.width is not None:
            width = cfg.width
        else:
            width = cfg.width_scale * estimate_nn_distance(
                data, cfg.base_p, seed=cfg.seed
            )
        self._level = _Level(
            data, width, cfg.base_p, cfg.m, cfg.num_tables,
            np.random.default_rng(cfg.seed), self._layout,
        )
        self._data = data
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._data is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise IndexNotBuiltError("call build(data) before querying")

    def index_size_mb(self) -> float:
        """Simulated index size of the compound tables, in MB."""
        self._require_built()
        assert self._level is not None
        return self._layout.size_bytes(self._level.num_entries()) / (1024.0 * 1024.0)

    def knn(
        self, query: PointVector, k: int, *, p: float | None = None
    ) -> SearchResult:
        """Approximate kNN probing ``num_probes`` buckets per table."""
        self._require_built()
        assert self._data is not None and self._level is not None
        cfg = self.config
        n, d = self._data.shape
        query = check_points(query, "query", width=d, vector=True)
        p = validate_p(p if p is not None else cfg.base_p)
        check_k(k, n)
        stats = IOStats()
        seen = np.zeros(n, dtype=bool)
        found: list[np.ndarray] = []
        for t in range(cfg.num_tables):
            raw = self._level.project(query, t)
            base_key = np.floor(raw).astype(np.int64)
            frac = raw - base_key
            # scores[2j] = squared distance to lower boundary (delta -1),
            # scores[2j+1] = squared distance to upper boundary (delta +1).
            scores = np.empty(2 * cfg.m)
            scores[0::2] = np.square(frac)
            scores[1::2] = np.square(1.0 - frac)
            keys = [tuple(int(x) for x in base_key)]
            for perturbation in probing_sequence(scores, cfg.num_probes - 1):
                key = base_key.copy()
                for coord, delta in perturbation:
                    key[coord] += delta
                keys.append(tuple(int(x) for x in key))
            found += [self._level.probe(t, key, seen, stats) for key in keys]
        cand_arr = np.concatenate(found)
        dists = lp_distance(self._data[cand_arr], query, p)
        top = np.argsort(dists, kind="stable")[:k]
        self.io_stats.merge(stats)
        return SearchResult(
            ids=cand_arr[top],
            distances=dists[top],
            p=p,
            k=k,
            io=stats,
            candidates=int(cand_arr.size),
        )
