"""The LazyLSH index: one materialised l1 base index, many ``lp`` metrics.

Public API
----------

.. code-block:: python

    from repro import LazyLSH, LazyLSHConfig

    index = LazyLSH(LazyLSHConfig(c=3.0, p_min=0.5)).build(data)
    result = index.knn(query, k=10, p=0.5)
    result.ids, result.distances, result.io.sequential, result.io.random

``build`` materialises ``eta_{p_min}`` Cauchy hash functions (Sec. 3.3) and
their inverted lists; ``knn`` implements Algorithm 4 (a series of
query-centric range scans with geometrically growing radii and collision
counting) and ``range_query`` implements Algorithm 3.

Every kNN entry point (``knn``, ``knn_batch``, ``MultiQueryEngine.knn``)
runs through one in-process runner, ``LazyLSH._run``: one lane plan per
search (``_lane_plan``), then the flat engine
(:mod:`repro.core.engine`) or, for ``engine="scalar"``, the scalar
oracle (``_scalar_knn``), which answers one query point under one or
many metrics a hash function at a time.  Both walk Section 4.3's one
radius schedule: round ``j`` searches level ``level0 * c**j`` and each
metric's radius is ``level / r_hat``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro._typing import IdArray, PointMatrix, PointVector
from repro.api import SearchResult, check_k, check_knobs, check_points
from repro.core.config import LazyLSHConfig
from repro.core.engine import (
    _KNN_ABORT,
    _MAX_ROUNDS,
    TERMINATION_CAP,
    TERMINATION_K_WITHIN,
    Lane,
    LaneGroup,
    RingReader,
    execute_rounds,
)
from repro.core.hashing import WINDOWS, StableHashBank
from repro.core.params import MetricParams, ParameterEngine
from repro.errors import (
    IndexNotBuiltError,
    InvalidParameterError,
    UnsupportedMetricError,
)
from repro.metrics.lp import lp_distance, validate_p
from repro.obs.query_trace import QueryTraceBuilder
from repro.storage.inverted_index import InvertedListStore
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout


def _entry_span(telemetry, name: str, **attributes):
    """The span of one kNN entry-point call; a no-op without telemetry."""
    if telemetry is None:
        return nullcontext()
    return telemetry.tracer.span(name, **attributes)


def _lane_result(lane: Lane, **serving) -> SearchResult:
    """Assemble a :class:`SearchResult` and its record from a finished lane.

    Mirrors the tail of the scalar loop exactly: same distance array,
    same ``argsort`` (so ties resolve identically), same bookkeeping.
    ``serving`` holds the sharded service's ``shard_io``, ``request_id``
    and ``trace_id``, set on the result and its record alike.
    """
    cand_ids, cand_dists = lane.candidate_arrays()
    order = np.argsort(cand_dists)[: lane.k]
    return SearchResult(
        ids=cand_ids[order].astype(np.int64),
        distances=cand_dists[order],
        p=lane.p,
        k=lane.k,
        io=lane.io,
        candidates=int(cand_ids.size),
        rounds=lane.rounds,
        termination=lane.stop_reason,
        trace=lane.trace.finish(
            termination=lane.stop_reason, io=lane.io,
            candidates=int(cand_ids.size), **serving,
        ),
        **serving,
    )


@dataclass
class RangeResult:
    """Outcome of an ``Rp(q, delta, c)`` query (Definition 6)."""

    found: bool
    point_id: int | None
    distance: float | None
    p: float
    delta: float
    io: IOStats = field(default_factory=IOStats)
    candidates: int = 0


class _LanePlan(NamedTuple):
    """One search's lane setup (:meth:`LazyLSH._lane_plan`).

    ``metrics`` holds ``(p, MetricParams)`` per lane in ascending ``p``;
    every lane shares ``k``, the candidate cap and the first round's
    level ``level0``.
    """

    metrics: list
    k: int
    cap: float
    level0: float


class _MetricState:
    """One metric's Algorithm-4 state inside the scalar oracle."""

    def __init__(
        self, p: float, params: MetricParams, n_rows: int, k: int,
        trace: QueryTraceBuilder,
    ) -> None:
        self.p = p
        self.params = params
        self.k = k
        self.counts = np.zeros(n_rows, dtype=np.int32)
        self.is_candidate = np.zeros(n_rows, dtype=bool)
        self.cand_ids: list[int] = []
        self.cand_dists: list[float] = []
        self.active = True
        self.rounds = 0
        self.c_delta = 0.0
        self.io = IOStats()
        self.reason = ""
        self.trace = trace

    def finish(self) -> SearchResult:
        order = np.argsort(np.asarray(self.cand_dists))[: self.k]
        ids = np.asarray(self.cand_ids, dtype=np.int64)[order]
        dists = np.asarray(self.cand_dists, dtype=np.float64)[order]
        return SearchResult(
            ids=ids,
            distances=dists,
            p=self.p,
            k=self.k,
            io=self.io,
            candidates=len(self.cand_ids),
            rounds=self.rounds,
            termination=self.reason,
            trace=self.trace.finish(
                termination=self.reason, io=self.io,
                candidates=len(self.cand_ids),
            ),
        )


class LazyLSH:
    """Single-index approximate kNN across multiple ``lp`` metrics.

    Parameters
    ----------
    config:
        Build/query configuration; defaults to the paper's settings
        (``c = 3``, ``epsilon = 0.01``, supported range ``p in [0.5, 1]``).
    rehashing:
        ``"query_centric"`` (the paper's contribution, Eq. 21) or
        ``"original"`` (C2LSH's aligned virtual rehashing, Eq. 7) — the
        latter serves the Figure 13 ablation and, at ``p_min = 1``, the
        C2LSH comparator (:class:`repro.baselines.C2LSH`).
    """

    def __init__(
        self,
        config: LazyLSHConfig | None = None,
        *,
        rehashing: str = "query_centric",
    ) -> None:
        if rehashing not in WINDOWS:
            raise InvalidParameterError(
                f"rehashing must be 'query_centric' or 'original', got {rehashing!r}"
            )
        self.config = config or LazyLSHConfig()
        self.rehashing = rehashing
        self.io_stats = IOStats()
        self._data: PointMatrix | None = None
        self._engine: ParameterEngine | None = None
        self._bank: StableHashBank | None = None
        self._store: InvertedListStore | None = None
        self._beta: float = 0.0
        self._eta: int = 0
        self._alive: np.ndarray = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def build(self, data: PointMatrix) -> "LazyLSH":
        """Materialise the base index over ``data`` (rows are points).

        Computes ``eta_{p_min}`` via the parameter engine, draws that many
        Cauchy hash functions, hashes every point and lays the sorted
        inverted lists out on the simulated disk.  Refuses, before
        hashing, data the index could not then answer as queries
        (:meth:`StableHashBank.check_reach`); the index is unchanged on
        any refusal.
        """
        data = check_points(data, "data")
        n, d = data.shape
        cfg = self.config
        beta = cfg.resolve_beta(n)
        engine = ParameterEngine(
            d,
            c=cfg.c,
            epsilon=cfg.epsilon,
            beta=beta,
            r0=cfg.r0,
            base_p=cfg.base_p,
            mc_samples=cfg.mc_samples,
            mc_buckets=cfg.mc_buckets,
            seed=cfg.seed,
        )
        eta = engine.eta(cfg.p_min)
        t_max = float(np.abs(data).max())
        bank = StableHashBank(
            d,
            eta,
            r0=cfg.r0,
            c=cfg.c,
            t_max=max(t_max, 1.0),
            base_p=cfg.base_p,
            seed=cfg.seed,
        )
        bank.check_reach(data, "data", stored=True)
        layout = PageLayout(page_size=cfg.page_size, entry_size=cfg.entry_size)
        self._store = InvertedListStore(bank.hash_points(data), layout)
        self._beta, self._engine, self._eta, self._bank = beta, engine, eta, bank
        self._data = data
        self._alive = np.ones(n, dtype=bool)
        return self

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------

    def _validate_insert(self, points: PointMatrix) -> np.ndarray:
        """Validate an insert batch without mutating; returns the batch.

        Shared by :meth:`insert` and the durability layer, which must
        reject a bad batch *before* journaling it to the write-ahead log:
        it refuses every batch the store would, and every point the
        index could not then answer as a query (:meth:`_check_reach`).
        """
        points = check_points(
            np.atleast_2d(points), "points", width=self.dimensionality
        )
        assert self._store is not None
        self._store._check_ids_fit(self.num_rows + points.shape[0])
        self._check_reach(points, "points", stored=True)
        return points

    def insert(self, points: PointMatrix) -> IdArray:
        """Insert new points into the built index; returns their ids.

        The single-index design makes this cheap: each point is hashed by
        the materialised bank and merged into every sorted inverted list.
        No per-metric work is needed — the new points are immediately
        visible to queries under every supported ``lp``.
        """
        ids, _plan = self._apply_insert(points)
        return ids

    def _apply_insert(self, points: PointMatrix):
        """Insert and also return the store's placement plan.

        The :class:`~repro.storage.inverted_index.InsertPlan` describes
        exactly where each new entry landed in every sorted run, which is
        what the serve layer ships to shard workers so their copies stay
        bit-identical to a fresh build (DESIGN §11).
        """
        points = self._validate_insert(points)
        assert self._bank is not None and self._store is not None and self._data is not None
        start = self._data.shape[0]
        new_ids = np.arange(start, start + points.shape[0], dtype=np.int64)
        plan = self._store.insert(self._bank.hash_points(points), new_ids)
        self._data = np.vstack([self._data, points])
        self._alive = np.concatenate(
            [self._alive, np.ones(points.shape[0], dtype=bool)]
        )
        return new_ids, plan

    def _validate_remove(self, point_ids) -> IdArray:
        """Validate a removal batch without mutating.

        Returns the deduplicated ids that :meth:`remove` would tombstone.
        All failure modes are checked here, *before* any state changes,
        so a mid-batch validation error leaves the index untouched and
        the durability layer can journal only removals that will apply.
        """
        self._require_built()
        assert self._data is not None
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        if ids.size == 0:
            return ids
        if ids.min() < 0 or ids.max() >= self._data.shape[0]:
            raise InvalidParameterError(
                f"point ids must lie in [0, {self._data.shape[0]}), got "
                f"range [{ids.min()}, {ids.max()}]"
            )
        if not self._alive[ids].all():
            dead = ids[~self._alive[ids]]
            raise InvalidParameterError(
                f"points already removed: {dead[:5].tolist()}"
            )
        unique = np.unique(ids)
        if int(self._alive.sum()) - unique.size < 1:
            raise InvalidParameterError(
                "cannot remove the last remaining point of an index"
            )
        return unique

    def remove(self, point_ids) -> None:
        """Remove points by id (tombstoning).

        Removed entries stay in the inverted lists — and keep costing
        sequential I/O — until the index is rebuilt, exactly like a
        deferred-compaction disk index; queries simply never promote them
        to candidates.  Validation happens entirely before mutation, so a
        failed batch never leaves partial tombstones behind.
        """
        unique = self._validate_remove(point_ids)
        if unique.size == 0:
            return
        self._alive[unique] = False

    def compact(self) -> np.ndarray:
        """Rebuild the inverted lists without tombstoned rows.

        Removed points stop costing storage and sequential I/O, and ids
        are renumbered densely.  Returns the mapping ``old_id ->
        new_id`` (``-1`` for removed rows) so callers can translate ids
        they hold.  The hash bank is untouched, so surviving points keep
        their exact bucket assignments.
        """
        self._require_built()
        assert self._bank is not None and self._data is not None
        cfg = self.config
        mapping = np.full(self._data.shape[0], -1, dtype=np.int64)
        survivors = np.flatnonzero(self._alive)
        mapping[survivors] = np.arange(survivors.size)
        if survivors.size == self._data.shape[0]:
            return mapping  # nothing to reclaim
        self._data = np.ascontiguousarray(self._data[survivors])
        self._alive = np.ones(survivors.size, dtype=bool)
        layout = PageLayout(page_size=cfg.page_size, entry_size=cfg.entry_size)
        self._store = InvertedListStore(self._bank.hash_points(self._data), layout)
        return mapping

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._data is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise IndexNotBuiltError("call build(data) before querying")

    @property
    def num_points(self) -> int:
        """Number of live (non-removed) indexed points."""
        self._require_built()
        return int(self._alive.sum())

    @property
    def num_rows(self) -> int:
        """Total stored rows, including tombstoned (removed) points."""
        self._require_built()
        assert self._data is not None
        return self._data.shape[0]

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the indexed dataset."""
        self._require_built()
        assert self._data is not None
        return self._data.shape[1]

    @property
    def eta(self) -> int:
        """Number of materialised base hash functions (``eta_{p_min}``)."""
        self._require_built()
        return self._eta

    @property
    def beta(self) -> float:
        """Resolved false-positive rate (property P2')."""
        self._require_built()
        return self._beta

    @property
    def parameter_engine(self) -> ParameterEngine:
        """The engine computing ``(r_hat, p1', p2', eta, theta)`` per metric."""
        self._require_built()
        assert self._engine is not None
        return self._engine

    @property
    def store(self) -> InvertedListStore:
        """The simulated-disk inverted lists (for benches and tests)."""
        self._require_built()
        assert self._store is not None
        return self._store

    @property
    def data(self) -> PointMatrix:
        """The indexed points (read-only by convention)."""
        self._require_built()
        assert self._data is not None
        return self._data

    def index_size_mb(self) -> float:
        """Simulated on-disk index size in MB."""
        self._require_built()
        assert self._store is not None
        return self._store.size_mb()

    def storage_info(self) -> dict:
        """Open-mode and memory accounting for the whole index.

        Extends :meth:`InvertedListStore.storage_info` (``"mmap"`` and
        the file while the runs are mapped from a loaded v3 file, else
        ``"eager"``) with the data matrix, the tombstone mask and the
        hash bank, so health endpoints and the metrics exporter can
        report how many bytes are resident RAM versus lazily paged file
        mappings.
        """
        self._require_built()
        assert self._store is not None
        info = self._store.storage_info()
        for arr in self._arrays().values():
            key = "mapped_bytes" if isinstance(arr, np.memmap) else "resident_bytes"
            info[key] += int(arr.nbytes)
        return info

    def mapped_regions(self) -> dict[str, np.ndarray]:
        """File-backed regions of the open index, labelled for probes.

        Empty for a built index.  Inserts move the runs, data and mask
        into RAM, but the hash bank (``projections``, ``offsets``) stays
        mapped.  The ops plane feeds these buffers to ``mincore(2)`` for
        per-store page-cache residency gauges.
        """
        self._require_built()
        assert self._store is not None
        regions = dict(self._store.mapped_arrays())
        for name, arr in self._arrays().items():
            if isinstance(arr, np.memmap):
                regions[name] = arr
        return regions

    def _arrays(self) -> dict[str, np.ndarray]:
        """The built index's arrays besides the runs, by name."""
        assert self._bank is not None
        return {
            "data": self._data,
            "alive": self._alive,
            "projections": self._bank._projections,
            "offsets": self._bank._offsets,
        }

    def metric_params(self, p: float) -> MetricParams:
        """Per-metric parameters, validated against the materialised bank.

        Raises :class:`UnsupportedMetricError` when the metric needs more
        hash functions than were materialised (``eta_p > eta_{p_min}``) or
        is not locality-sensitive at all.
        """
        self._require_built()
        assert self._engine is not None
        params = self._engine.metric_params(p)
        if params.eta > self._eta:
            raise UnsupportedMetricError(
                f"l{p:g} needs eta={params.eta} hash functions but only "
                f"{self._eta} were materialised (p_min={self.config.p_min}); "
                "rebuild with a smaller p_min"
            )
        return params

    def supported_metrics(self, p_grid: np.ndarray | None = None) -> list[float]:
        """The metrics on ``p_grid`` this built index can serve."""
        self._require_built()
        if p_grid is None:
            p_grid = np.arange(0.5, 1.21, 0.05)
        supported = []
        for p in p_grid:
            try:
                self.metric_params(float(p))
            except UnsupportedMetricError:
                continue
            supported.append(round(float(p), 10))
        return supported

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _check_query(self, query: PointVector) -> PointVector:
        """The one-row form of :meth:`_check_queries`."""
        query = check_points(query, "query", width=self.dimensionality, vector=True)
        self._check_reach(query[None, :], "queries")
        return query

    def _check_queries(self, queries: PointMatrix) -> np.ndarray:
        """The one query check: every kNN entry point and the front door.

        :func:`~repro.api.check_points` over the index's width, then,
        before any scan, a refusal of a query the engine could not run
        (:meth:`_check_reach`).  Returns a C-contiguous float64
        ``(m, d)`` matrix; ``m`` may be 0 (an empty batch has an empty
        answer).
        """
        queries = check_points(
            np.atleast_2d(queries), "queries", width=self.dimensionality,
            empty=True,
        )
        if queries.shape[0]:
            self._check_reach(queries, "queries")
        return queries

    def _check_reach(self, points: np.ndarray, what: str, **kwargs) -> None:
        """:meth:`StableHashBank.check_reach` over the store's hash domain."""
        assert self._bank is not None and self._store is not None
        self._bank.check_reach(points, what, domain=self._store.value_range, **kwargs)

    def range_query(self, query: PointVector, delta: float, p: float = 1.0) -> RangeResult:
        """Answer ``Rp(q, delta, c)`` (Algorithm 3).

        Returns the first point found within ``c * delta`` of ``query`` in
        the ``lp`` space, or a not-found result once ``beta * n`` candidates
        have been inspected without success.  Each of the first ``eta_p``
        hash functions' windows is read whole, once.  A ``delta`` that is
        not finite and positive, or whose windows could leave int64
        (:meth:`_check_reach`), is refused before any read.
        """
        query = self._check_query(query)
        p = validate_p(p)
        if not 0 < delta < math.inf:  # also refuses nan
            raise InvalidParameterError(
                f"range radius must be finite and > 0, got {delta}"
            )
        params = self.metric_params(p)
        level = params.r_hat * delta
        self._check_reach(
            query[None, :], f"query with range radius {delta:g}", level0=level
        )
        assert self._bank is not None and self._store is not None and self._data is not None
        stats = IOStats()
        n = self.num_points
        n_rows = self.num_rows
        cap = self._beta * n
        theta = params.theta
        counts = np.zeros(n_rows, dtype=np.int32)
        is_candidate = np.zeros(n_rows, dtype=bool)
        candidates = 0
        query_hashes = self._bank.hash_point(query)[: params.eta]
        c_delta = self.config.c * delta
        outcome: RangeResult | None = None
        # Every function's whole window, read once: one round of a reader.
        reader = RingReader(self._store, params.eta)
        reader.read(*WINDOWS[self.rehashing](query_hashes, level))
        for i in range(params.eta):
            ids = reader.take(i, stats)
            if ids.size == 0:
                continue
            counts[ids] += 1
            crossed = ids[
                (counts[ids] > theta) & ~is_candidate[ids] & self._alive[ids]
            ]
            if crossed.size == 0:
                continue
            is_candidate[crossed] = True
            stats.add_random(int(crossed.size))
            candidates += int(crossed.size)
            dists = lp_distance(self._data[crossed], query, p)
            hit = np.flatnonzero(dists < c_delta)
            if hit.size > 0:
                best = int(hit[np.argmin(dists[hit])])
                outcome = RangeResult(
                    found=True,
                    point_id=int(crossed[best]),
                    distance=float(dists[best]),
                    p=p,
                    delta=delta,
                    io=stats,
                    candidates=candidates,
                )
                break
            if candidates > cap:
                break
        if outcome is None:
            outcome = RangeResult(
                found=False,
                point_id=None,
                distance=None,
                p=p,
                delta=delta,
                io=stats,
                candidates=candidates,
            )
        self.io_stats.add_sequential(stats.sequential)
        self.io_stats.add_random(stats.random)
        return outcome

    def knn(
        self,
        query: PointVector,
        k: int,
        *,
        p: float = 1.0,
        engine: str = "flat",
        telemetry=None,
        cap: float | None = None,
        radius: float | None = None,
    ) -> SearchResult:
        """Answer ``Np(q, k, c)`` (Algorithm 4).

        Runs range scans with geometrically increasing radii, counting
        collisions under the first ``eta_p`` materialised hash functions.
        A point becomes a *candidate* — and costs one random I/O to fetch —
        once its collision count exceeds ``theta_p``.  The query stops when
        ``k`` candidates lie within ``c * delta`` of the query or when the
        candidate budget ``k + beta * n`` is exhausted, and returns the
        ``k`` candidates with the smallest true ``lp`` distances.

        Tuning knobs are keyword-only and shared verbatim with
        ``MultiQueryEngine.knn`` and ``knn_batch``:

        * ``p`` — the ``lp`` metric;
        * ``engine`` — ``"flat"`` (vectorised, default) or ``"scalar"``
          (the scalar oracle); both are bit-identical in results and I/O;
        * ``cap`` — candidate-budget override (default ``k + beta * n``);
        * ``radius`` — starting-radius (``delta_0``) override (default
          ``1 / r_hat``);
        * ``telemetry`` — a :class:`repro.obs.Telemetry` that publishes
          the call's record (``result.trace``, built on every run) to its
          metrics and slow-query log.
        """
        check_knobs(k, cap=cap, radius=radius, engine=engine)
        query = self._check_query(query)
        with _entry_span(telemetry, "lazylsh.knn", engine=engine, k=k):
            return self._run(
                query[None, :], k, p=p, cap=cap, radius=radius, engine=engine,
                telemetry=telemetry,
            )[0][0]

    def _run(
        self,
        queries: np.ndarray,
        k: int,
        *,
        p: float = 1.0,
        metrics=None,
        cap: float | None = None,
        radius: float | None = None,
        engine: str = "flat",
        telemetry=None,
        row_ids: bool = False,
    ) -> list[list[SearchResult]]:
        """The in-process runner of every kNN entry point, over validated rows.

        Plans the search once (:meth:`_lane_plan`: one lane for ``p``,
        one per metric of ``metrics``), then answers every row with the
        flat engine — one hashing matmul, a lane group per row
        (:meth:`_lane_group`), :func:`execute_rounds` — or, for
        ``engine="scalar"``, with the scalar oracle row by row
        (:meth:`_scalar_knn`).  Returns one result list per row, a result
        per lane in ascending ``p``, each with its record, numbered by
        its row when ``row_ids``.  ``telemetry`` publishes the records.
        Each result's I/O is added to :attr:`io_stats`.
        """
        plan = self._lane_plan(
            queries, k, p, metrics=metrics, cap=cap, radius=radius
        )
        row_range = range(queries.shape[0])
        if engine == "scalar":
            rows = [
                self._scalar_knn(queries[j], plan, j if row_ids else None)
                for j in row_range
            ]
        else:
            assert self._bank is not None
            hashes = self._bank.hash_points(queries)  # one matmul for all rows
            groups = [
                self._lane_group(
                    queries[j], plan,
                    query_hashes=np.ascontiguousarray(hashes[:, j]),
                    query_id=j if row_ids else None,
                )
                for j in row_range
            ]
            execute_rounds(groups)
            rows = [[_lane_result(lane) for lane in group.lanes] for group in groups]
        for row in rows:
            for result in row:
                if telemetry is not None:
                    telemetry.record(result.trace)
                self.io_stats.merge(result.io)
        return rows

    def _require_query_centric(self) -> None:
        """Section 4.3's shared scan needs query-centric rehashing."""
        if self.rehashing != "query_centric":
            raise InvalidParameterError(
                "the multi-query engine requires query-centric rehashing"
            )

    def _lane_plan(
        self,
        queries: np.ndarray,
        k: int,
        p: float = 1.0,
        *,
        metrics=None,
        cap: float | None = None,
        radius: float | None = None,
    ) -> _LanePlan:
        """The one lane setup of a search, checked before any scan.

        One lane for ``p``, or, given ``metrics``, one lane per distinct
        metric in ascending order sharing one Section 4.3 scan
        (query-centric rehashing only, which makes every metric's
        round-``j`` window the same ``c^j``-bucket window).  Checks ``k``
        against the live points, resolves each metric's parameters and
        the candidate cap (``None`` keeps the paper's ``k + beta * n``)
        and sets the first round's level: 1, or ``r_hat * radius`` under
        a single-metric ``radius`` override, which is refused when its
        windows could leave int64 for a row of ``queries`` (validated
        rows, the search's own).
        """
        if metrics is not None:
            self._require_query_centric()
        p_values = (
            [validate_p(p)] if metrics is None
            else sorted({float(q) for q in metrics})
        )
        check_k(k, self.num_points)
        lanes = [(q, self.metric_params(q)) for q in p_values]
        level0 = 1.0
        if radius is not None:
            level0 = float(lanes[0][1].r_hat) * float(radius)
            self._check_reach(
                queries, f"queries with radius {radius:g}", level0=level0
            )
        cap_value = k + self._beta * self.num_points if cap is None else float(cap)
        return _LanePlan(lanes, k, cap_value, level0)

    def _lane_group(
        self,
        query: PointVector,
        plan: _LanePlan,
        *,
        query_hashes: np.ndarray,
        engine: str = "flat",
        query_id: int | None = None,
    ) -> LaneGroup:
        """The flat engine's lane group of one query point under ``plan``.

        ``query`` must already be validated; ``query_hashes`` is the
        point's column of one hashing matmul over all query points.
        Every lane gets the builder of its record, labelled ``engine``
        and numbered ``query_id``.
        """
        assert self._store is not None and self._data is not None
        lanes = []
        for p, params in plan.metrics:
            lane = Lane(p, params, plan.k, plan.cap)
            lane.trace = QueryTraceBuilder(
                p=p, k=plan.k, engine=engine, rehashing=self.rehashing,
                cap=plan.cap, query_id=query_id,
            )
            lanes.append(lane)
        return LaneGroup(
            store=self._store,
            data=self._data,
            alive=self._alive,
            query=query,
            lanes=lanes,
            c=self.config.c,
            level0=plan.level0,
            rehashing=self.rehashing,
            query_hashes=query_hashes,
        )

    def _scalar_knn(
        self, query: PointVector, plan: _LanePlan, query_id: int | None = None
    ) -> list[SearchResult]:
        """The scalar oracle: Algorithm 4 one hash function at a time.

        Answers one validated query point under every metric of ``plan``
        with one shared scan (Section 4.3): round ``j`` reads, per hash
        function, the window of level ``level0 * c**j`` — only its ring
        outside the previous round's window, or the whole window when
        the two do not nest (original rehashing) — and feeds it to every
        still-active metric consulting that function; each metric's
        radius is ``delta = level / r_hat``.  A round's rings are found
        by one search and read by one gather (:class:`RingReader`), then
        consumed a function at a time.  A function's read is charged to
        the smallest-``p`` metric consuming it, pages re-touched by
        later rounds once per query; a candidate's fetch is charged
        once, to the first metric promoting it.  Returns a result per
        metric in ascending ``p``, each with its record numbered
        ``query_id``.  The flat engine reproduces this loop bit for bit.
        """
        assert self._bank is not None and self._store is not None and self._data is not None
        n_rows = self.num_rows
        states = [
            _MetricState(
                p, params, n_rows, plan.k,
                QueryTraceBuilder(
                    p=p, k=plan.k, engine="scalar", rehashing=self.rehashing,
                    cap=plan.cap, query_id=query_id,
                ),
            )
            for p, params in plan.metrics
        ]
        c = self.config.c
        data, alive = self._data, self._alive
        window = WINDOWS[self.rehashing]
        query_hashes = self._bank.hash_point(query)
        reader = RingReader(self._store, max(state.params.eta for state in states))
        fetched = np.zeros(n_rows, dtype=bool)
        round_index = -1
        while any(state.active for state in states):
            round_index += 1
            if round_index >= _MAX_ROUNDS:
                raise RuntimeError(_KNN_ABORT)
            level = plan.level0 * c**round_index
            rounders = [state for state in states if state.active]
            for state in rounders:
                state.rounds += 1
                state.c_delta = c * (level / state.params.r_hat)
                state.trace.begin_round(level=level, radius=state.c_delta, io=state.io)
            f_round = max(state.params.eta for state in rounders)
            reader.read(*window(query_hashes[:f_round], level))
            for i in range(f_round):
                consumers = [
                    state for state in states
                    if state.active and i < state.params.eta
                ]
                if not consumers:
                    continue
                # One shared read, charged to the smallest-p consumer.
                ids = reader.take(i, consumers[0].io)
                for state in consumers:
                    if ids.size > 0:
                        state.trace.add_collisions(int(ids.size))
                        state.counts[ids] += 1
                        crossed = ids[
                            (state.counts[ids] > state.params.theta)
                            & ~state.is_candidate[ids]
                            & alive[ids]
                        ]
                        if crossed.size > 0:
                            state.is_candidate[crossed] = True
                            state.trace.add_crossings(int(crossed.size))
                            fresh = crossed[~fetched[crossed]]
                            fetched[crossed] = True
                            state.io.add_random(int(fresh.size))
                            dists = lp_distance(data[crossed], query, state.p)
                            state.cand_ids.extend(int(x) for x in crossed)
                            state.cand_dists.extend(float(x) for x in dists)
                    # Termination checks (Algorithm 4 lines 15-16).
                    if len(state.cand_ids) >= plan.k:
                        dist_arr = np.asarray(state.cand_dists)
                        if np.count_nonzero(dist_arr < state.c_delta) >= plan.k:
                            state.active = False
                            state.reason = TERMINATION_K_WITHIN
                            continue
                    if len(state.cand_ids) > plan.cap:
                        state.active = False
                        state.reason = TERMINATION_CAP
            for state in rounders:
                dist_arr = np.asarray(state.cand_dists, dtype=np.float64)
                state.trace.end_round(
                    io=state.io,
                    candidates=len(state.cand_ids),
                    within=int(np.count_nonzero(dist_arr < state.c_delta)),
                )
        return [state.finish() for state in states]

