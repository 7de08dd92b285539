"""E2LSH (Datar et al., SCG 2004): compound hash tables per search radius.

The first p-stable LSH method.  For one radius ``R`` it concatenates ``m``
base hash functions (bucket width ``r0 * R``) into a compound key ``g(v)``
and repeats with ``L`` independent tables; near neighbours collide on at
least one full compound key with constant probability.  A kNN query issues
range queries at geometrically growing radii — which requires one set of
``L`` tables *per radius*, the storage blow-up that motivated C2LSH's
virtual rehashing and, transitively, LazyLSH.

Tables for a radius are built lazily on first use so that the storage cost
of the radius series is visible (``index_size_mb`` grows as queries reach
farther radii).  One radius's tables are a :class:`_Level`, which
multi-probe LSH (:mod:`repro.baselines.multiprobe`) also builds, once, and
reads through the same :meth:`_Level.probe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._typing import PointMatrix, PointVector
from repro.api import SearchResult, check_k, check_points
from repro.baselines._autoscale import estimate_nn_distance
from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.metrics.collision import collision_probability
from repro.metrics.lp import lp_distance, validate_p
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout

_MAX_LEVELS = 48

_NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class E2LSHConfig:
    """Build parameters of an :class:`E2LSH` index.

    ``m`` (hash functions per table) and ``num_tables`` (``L``) default to
    the classic theory-driven choices ``m = ceil(ln n / ln(1/p2))`` and
    ``L = ceil(n^rho)`` with ``rho = ln(1/p1)/ln(1/p2)``, capped at
    ``max_tables``.
    """

    c: float = 2.0
    r0: float = 4.0
    base_p: float = 2.0
    m: int | None = None
    num_tables: int | None = None
    max_tables: int = 64
    probe_limit_factor: int = 3
    initial_radius: float | None = None
    seed: int | None = 7
    page_size: int = 4096
    entry_size: int = 8


class _Level:
    """``num_tables`` compound hash tables of ``m`` functions at one width.

    E2LSH builds one per search radius (bucket width ``r0 * R``);
    multi-probe LSH builds one.  Both draw the projections, then the
    offsets, from ``rng``.
    """

    def __init__(
        self,
        data: PointMatrix,
        width: float,
        base_p: float,
        m: int,
        num_tables: int,
        rng: np.random.Generator,
        layout: PageLayout,
    ) -> None:
        n, d = data.shape
        if base_p == 2.0:
            projections = rng.standard_normal((num_tables, d, m))
        else:
            projections = rng.standard_cauchy((num_tables, d, m))
        offsets = rng.uniform(0.0, width, (num_tables, m))
        self.tables: list[dict[tuple[int, ...], np.ndarray]] = []
        self._query_proj = projections
        self._query_off = offsets
        self._width = width
        self._layout = layout
        for t in range(num_tables):
            keys = np.floor((data @ projections[t] + offsets[t]) / width).astype(
                np.int64
            )
            table: dict[tuple[int, ...], list[int]] = {}
            for idx in range(n):
                table.setdefault(tuple(keys[idx]), []).append(idx)
            self.tables.append(
                {key: np.asarray(ids, dtype=np.int64) for key, ids in table.items()}
            )

    def project(self, query: PointVector, t: int) -> np.ndarray:
        """``query``'s compound hash in table ``t``, in buckets, unfloored."""
        return (query @ self._query_proj[t] + self._query_off[t]) / self._width

    def query_keys(self, query: PointVector) -> list[tuple[int, ...]]:
        """Compound key of ``query`` in each of the ``L`` tables."""
        return [
            tuple(int(x) for x in np.floor(self.project(query, t)))
            for t in range(len(self.tables))
        ]

    def probe(
        self, t: int, key: tuple[int, ...], seen: np.ndarray, stats: IOStats
    ) -> np.ndarray:
        """Read bucket ``key`` of table ``t``; returns its ids not ``seen``.

        The bucket's pages are charged to ``stats`` as sequential I/O;
        each returned id is marked ``seen`` and charged one random I/O.
        """
        bucket = self.tables[t].get(key)
        if bucket is None:
            return _NO_IDS
        stats.add_sequential(self._layout.pages_for_range(0, int(bucket.size)))
        fresh = bucket[~seen[bucket]]
        if fresh.size:
            seen[fresh] = True
            stats.add_random(int(fresh.size))
        return fresh

    def num_entries(self) -> int:
        """Total bucket entries across the level's tables."""
        return sum(sum(ids.size for ids in table.values()) for table in self.tables)


class E2LSH:
    """The E2LSH baseline: one set of compound tables per radius."""

    def __init__(self, config: E2LSHConfig | None = None) -> None:
        self.config = config or E2LSHConfig()
        if not self.config.c > 1.0:
            raise InvalidParameterError(
                f"approximation ratio c must be > 1, got {self.config.c}"
            )
        validate_p(self.config.base_p, allow_above_two=False)
        self.io_stats = IOStats()
        self._data: PointMatrix | None = None
        self._levels: dict[float, _Level] = {}
        self._rng: np.random.Generator | None = None
        self._initial_radius: float = 1.0
        self._m: int = 0
        self._num_tables: int = 0
        self._layout = PageLayout(
            page_size=self.config.page_size, entry_size=self.config.entry_size
        )

    def build(self, data: PointMatrix) -> "E2LSH":
        """Record the dataset and derive ``(m, L)``; tables build lazily."""
        data = check_points(data, "data")
        n = data.shape[0]
        cfg = self.config
        p1 = collision_probability(1.0, cfg.r0, cfg.base_p)
        p2 = collision_probability(cfg.c, cfg.r0, cfg.base_p)
        rho = math.log(1.0 / p1) / math.log(1.0 / p2)
        self._m = cfg.m if cfg.m is not None else max(
            1, math.ceil(math.log(n) / math.log(1.0 / p2))
        )
        derived_tables = max(1, math.ceil(n**rho))
        self._num_tables = (
            cfg.num_tables if cfg.num_tables is not None else min(derived_tables, cfg.max_tables)
        )
        self._rng = np.random.default_rng(cfg.seed)
        if cfg.initial_radius is not None:
            self._initial_radius = cfg.initial_radius
        else:
            # Start the radius series just below the typical NN distance so
            # the first level or two already produce collisions, instead of
            # building many useless levels of near-empty tables.
            self._initial_radius = max(
                estimate_nn_distance(data, cfg.base_p, seed=cfg.seed) / cfg.c,
                1e-12,
            )
        self._data = data
        self._levels = {}
        return self

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._data is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise IndexNotBuiltError("call build(data) before querying")

    @property
    def m(self) -> int:
        """Hash functions per compound key."""
        self._require_built()
        return self._m

    @property
    def num_tables(self) -> int:
        """Number of independent tables (``L``)."""
        self._require_built()
        return self._num_tables

    @property
    def num_levels(self) -> int:
        """Radius levels materialised so far."""
        return len(self._levels)

    def _level(self, radius: float) -> _Level:
        assert self._data is not None and self._rng is not None
        level = self._levels.get(radius)
        if level is None:
            level = _Level(
                self._data,
                self.config.r0 * radius,
                self.config.base_p,
                self._m,
                self._num_tables,
                self._rng,
                self._layout,
            )
            self._levels[radius] = level
        return level

    def index_size_mb(self) -> float:
        """Simulated size of every materialised level, in MB.

        Grows with the number of radius levels — the storage weakness the
        paper contrasts against single-index methods.
        """
        self._require_built()
        total_bytes = sum(
            self._layout.size_bytes(level.num_entries()) for level in self._levels.values()
        )
        return total_bytes / (1024.0 * 1024.0)

    def knn(
        self, query: PointVector, k: int, *, p: float | None = None
    ) -> SearchResult:
        """Approximate kNN via range queries at growing radii.

        ``p`` defaults to the base metric; passing a different exponent
        re-ranks retrieved candidates by their ``lp`` distance, matching
        how the paper adapts single-space baselines to fractional metrics.
        ``rounds`` counts the radius levels searched.
        """
        self._require_built()
        assert self._data is not None
        n, d = self._data.shape
        query = check_points(query, "query", width=d, vector=True)
        p = validate_p(p if p is not None else self.config.base_p)
        check_k(k, n)
        stats = IOStats()
        seen = np.zeros(n, dtype=bool)
        cand_ids: list[int] = []
        cand_dists: list[float] = []
        probe_limit = self.config.probe_limit_factor * self._num_tables
        radius = self._initial_radius
        levels_used = 0
        for _ in range(_MAX_LEVELS):
            levels_used += 1
            level = self._level(radius)
            keys = level.query_keys(query)
            probed = 0
            for t, key in enumerate(keys):
                fresh = level.probe(t, key, seen, stats)
                if fresh.size == 0:
                    continue
                dists = lp_distance(self._data[fresh], query, p)
                cand_ids.extend(int(x) for x in fresh)
                cand_dists.extend(float(x) for x in dists)
                probed += int(fresh.size)
                if probed >= probe_limit:
                    break
            if cand_ids:
                dist_arr = np.asarray(cand_dists)
                within = np.count_nonzero(dist_arr <= self.config.c * radius)
                if within >= k:
                    break
            if np.all(seen):
                break
            radius *= self.config.c
        order = np.argsort(np.asarray(cand_dists))[:k]
        ids = np.asarray(cand_ids, dtype=np.int64)[order]
        dists = np.asarray(cand_dists, dtype=np.float64)[order]
        self.io_stats.merge(stats)
        return SearchResult(
            ids=ids,
            distances=dists,
            p=p,
            k=k,
            io=stats,
            candidates=len(cand_ids),
            rounds=levels_used,
        )
