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
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro._typing import IdArray, PointMatrix, PointVector
from repro.api import SearchResult, check_knobs
from repro.core.config import LazyLSHConfig
from repro.core.engine import (
    _KNN_ABORT,
    _MAX_ROUNDS,
    TERMINATION_CAP,
    TERMINATION_K_WITHIN,
    Lane,
    LaneGroup,
    execute_rounds,
)
from repro.core.hashing import (
    StableHashBank,
    original_window,
    query_centric_window,
)
from repro.core.params import MetricParams, ParameterEngine
from repro.errors import (
    DimensionalityMismatchError,
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


def _lane_result(lane: Lane, **serving) -> "KnnResult":
    """Assemble a :class:`KnnResult` and its record from a finished lane.

    Mirrors the tail of the scalar loop exactly: same distance array,
    same ``argsort`` (so ties resolve identically), same bookkeeping.
    ``serving`` holds the sharded service's ``shard_io``, ``request_id``
    and ``trace_id``, set on the result and its record alike.
    """
    cand_ids, cand_dists = lane.candidate_arrays()
    order = np.argsort(cand_dists)[: lane.k]
    return KnnResult(
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
class KnnResult(SearchResult):
    """Outcome of an ``Np(q, k, c)`` query (Definition 5).

    A compatibility subclass of the unified
    :class:`~repro.api.SearchResult` — same fields (``ids`` /
    ``distances`` sorted by ascending ``lp`` distance, ``io``,
    ``termination``, ...), kept under its historical name so existing
    imports and isinstance checks continue to work.
    """


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
        latter exists for the Figure 13 ablation.
    """

    def __init__(
        self,
        config: LazyLSHConfig | None = None,
        *,
        rehashing: str = "query_centric",
    ) -> None:
        if rehashing not in ("query_centric", "original"):
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
        inverted lists out on the simulated disk.
        """
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if data.ndim != 2:
            raise InvalidParameterError(
                f"data must be a 2-D (n, d) matrix, got shape {data.shape}"
            )
        n, d = data.shape
        if n < 1:
            raise InvalidParameterError("cannot build an index over zero points")
        if not np.all(np.isfinite(data)):
            raise InvalidParameterError("data contains non-finite values")
        cfg = self.config
        self._beta = cfg.resolve_beta(n)
        self._engine = ParameterEngine(
            d,
            c=cfg.c,
            epsilon=cfg.epsilon,
            beta=self._beta,
            r0=cfg.r0,
            base_p=cfg.base_p,
            mc_samples=cfg.mc_samples,
            mc_buckets=cfg.mc_buckets,
            seed=cfg.seed,
        )
        self._eta = self._engine.eta(cfg.p_min)
        t_max = float(np.abs(data).max())
        self._bank = StableHashBank(
            d,
            self._eta,
            r0=cfg.r0,
            c=cfg.c,
            t_max=max(t_max, 1.0),
            base_p=cfg.base_p,
            seed=cfg.seed,
        )
        hash_values = self._bank.hash_points(data)
        layout = PageLayout(page_size=cfg.page_size, entry_size=cfg.entry_size)
        self._store = InvertedListStore(hash_values, layout)
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
        self._require_built()
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != self.dimensionality:
            raise DimensionalityMismatchError(
                f"points have dimensionality {points.shape[1] if points.ndim == 2 else '?'}, "
                f"index expects {self.dimensionality}"
            )
        if points.shape[0] == 0:
            raise InvalidParameterError("cannot insert an empty batch")
        if not np.all(np.isfinite(points)):
            raise InvalidParameterError("points contain non-finite values")
        assert self._store is not None
        self._store._check_ids_fit(self.num_rows + points.shape[0])
        self._check_reach(points, "points", stored=True)
        return np.ascontiguousarray(points)

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
    # Window helpers
    # ------------------------------------------------------------------

    def _window(self, hq: int, level: float) -> tuple[int, int]:
        if self.rehashing == "query_centric":
            return query_centric_window(hq, level)
        return original_window(hq, level)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _check_query(self, query: PointVector) -> PointVector:
        """The one-row form of :meth:`_check_queries`."""
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1:
            raise InvalidParameterError(
                f"query must be a single vector, got shape {query.shape}"
            )
        return self._check_queries(query[None, :])[0]

    def _check_queries(self, queries: PointMatrix) -> np.ndarray:
        """The one query check: every kNN entry point and the front door.

        Returns a C-contiguous float64 ``(m, d)`` matrix; ``m`` may be 0
        (an empty batch has an empty answer).  Refuses, before any scan,
        a query the engine could not run (:meth:`_check_reach`).
        """
        self._require_built()
        queries = np.ascontiguousarray(
            np.atleast_2d(np.asarray(queries, dtype=np.float64))
        )
        if queries.ndim != 2:
            raise InvalidParameterError(
                f"queries must be a 2-D (m, d) matrix, got shape {queries.shape}"
            )
        if queries.shape[1] != self.dimensionality:
            raise DimensionalityMismatchError(
                f"queries have dimensionality {queries.shape[1]}, index expects "
                f"{self.dimensionality}"
            )
        if not np.all(np.isfinite(queries)):
            raise InvalidParameterError("queries contain non-finite values")
        if queries.shape[0]:
            self._check_reach(queries, "queries")
        return queries

    def _check_reach(self, points: np.ndarray, what: str, *, stored: bool = False) -> None:
        """Refuse ``points`` whose windows could leave int64.

        Algorithm 4 widens a point's windows around its base hash ``h``
        by up to a factor ``c`` per round until they cover the store's
        hash domain ``[lo, hi]``, so the last window it may need ends
        less than ``c * (|h| + max(|lo|, |hi|) + 1)`` past ``h``.  That
        end must stay inside int64.  ``stored`` points (an insert batch)
        widen the domain first.
        """
        assert self._bank is not None and self._store is not None
        top = float(np.abs(self._bank.projection_values(points)).max()) / self._bank.r0 + 1.0
        lo, hi = self._store.value_range
        span = max(-lo, hi, top if stored else 0.0)
        reach = top + self.config.c * (top + span + 1.0)
        if not reach < 2.0**63:  # also refuses inf and nan
            raise InvalidParameterError(
                f"{what} lie too far from the indexed data: base hashes up to "
                f"{top:.3g} need windows reaching {reach:.3g}, past int64"
            )

    def range_query(self, query: PointVector, delta: float, p: float = 1.0) -> RangeResult:
        """Answer ``Rp(q, delta, c)`` (Algorithm 3).

        Returns the first point found within ``c * delta`` of ``query`` in
        the ``lp`` space, or a not-found result once ``beta * n`` candidates
        have been inspected without success.
        """
        query = self._check_query(query)
        p = validate_p(p)
        if delta <= 0:
            raise InvalidParameterError(f"range radius must be > 0, got {delta}")
        params = self.metric_params(p)
        assert self._bank is not None and self._store is not None and self._data is not None
        stats = IOStats()
        n = self.num_points
        n_rows = self.num_rows
        cap = self._beta * n
        level = params.r_hat * delta
        theta = params.theta
        counts = np.zeros(n_rows, dtype=np.int32)
        is_candidate = np.zeros(n_rows, dtype=bool)
        candidates = 0
        query_hashes = self._bank.hash_point(query)
        c_delta = self.config.c * delta
        outcome: RangeResult | None = None
        for i in range(params.eta):
            lo, hi = self._window(int(query_hashes[i]), level)
            ids = self._store.read_window(i, lo, hi, stats)
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
    ) -> KnnResult:
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
          (reference loop); both are bit-identical in results and I/O;
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
            if engine == "flat":
                return self._run(
                    query[None, :], k, p=p, cap=cap, radius=radius,
                    telemetry=telemetry,
                )[0][0]
            stats = IOStats()
            result = self._knn_impl(
                query, k, p, stats, telemetry=telemetry, cap=cap, radius=radius
            )
            self.io_stats.merge(stats)
            return result

    def _run(
        self,
        queries: np.ndarray,
        k: int,
        *,
        p: float = 1.0,
        metrics=None,
        cap: float | None = None,
        radius: float | None = None,
        telemetry=None,
        row_ids: bool = False,
    ) -> list[list[KnnResult]]:
        """The in-process runner: the flat engine over validated rows.

        Hashes every row of ``queries`` with one matmul, builds each
        row's lane group (:meth:`_lane_group`: one lane for ``p``, one
        per metric of ``metrics``), runs :func:`execute_rounds` and
        returns one result list per row, a result per lane in ascending
        ``p``, each with its record, numbered by its row when ``row_ids``.
        ``telemetry`` publishes the records.  Each lane's I/O is added to
        :attr:`io_stats`.
        """
        assert self._bank is not None
        hashes = self._bank.hash_points(queries)  # one matmul for all rows
        groups = [
            self._lane_group(
                queries[j], k, p, metrics=metrics, cap=cap, radius=radius,
                query_hashes=np.ascontiguousarray(hashes[:, j]),
                query_id=j if row_ids else None,
            )
            for j in range(queries.shape[0])
        ]
        execute_rounds(groups)
        rows = []
        for group in groups:
            row = []
            for lane in group.lanes:
                result = _lane_result(lane)
                if telemetry is not None:
                    telemetry.record(result.trace)
                self.io_stats.merge(lane.io)
                row.append(result)
            rows.append(row)
        return rows

    def _lane_group(
        self,
        query: PointVector,
        k: int,
        p: float = 1.0,
        *,
        query_hashes: np.ndarray,
        metrics=None,
        cap: float | None = None,
        radius: float | None = None,
        engine: str = "flat",
        query_id: int | None = None,
    ) -> LaneGroup:
        """Build the flat-engine lane group for one query point.

        One lane for ``p`` (``LazyLSH._knn_impl``'s arithmetic), or, given
        ``metrics``, one lane per distinct metric in ascending order
        sharing one Section 4.3 scan (``MultiQueryEngine``'s arithmetic;
        query-centric rehashing only, which makes every metric's
        round-``j`` window the same ``c^j``-bucket window).  ``query``
        must already be validated; parameter checks run in the same
        order as the scalar loop so error behaviour is unchanged.
        ``query_hashes`` is the point's column of one hashing matmul
        over all query points; ``cap``/``radius`` override the
        candidate budget and starting radius (``None`` keeps the paper's
        ``k + beta * n`` and ``1 / r_hat``; single-metric only).  Every
        lane gets the builder of its record, labelled ``engine`` and
        numbered ``query_id``.
        """
        if metrics is not None and self.rehashing != "query_centric":
            raise InvalidParameterError(
                "the multi-query engine requires query-centric rehashing"
            )
        p_values = (
            [validate_p(p)] if metrics is None
            else sorted({float(q) for q in metrics})
        )
        n = self.num_points
        if not 1 <= k <= n:
            raise InvalidParameterError(
                f"k must lie in [1, {n}] for a dataset of {n} live points, got {k}"
            )
        assert self._bank is not None and self._store is not None and self._data is not None
        cap_value = k + self._beta * n if cap is None else float(cap)
        lanes = [Lane(q, self.metric_params(q), k, cap_value) for q in p_values]
        for lane in lanes:
            lane.trace = QueryTraceBuilder(
                p=lane.p, k=k, engine=engine, rehashing=self.rehashing,
                cap=cap_value, query_id=query_id,
            )
        if radius is not None:
            lanes[0].delta = float(radius)
        return LaneGroup(
            store=self._store,
            data=self._data,
            alive=self._alive,
            query=query,
            lanes=lanes,
            style="single" if metrics is None else "multi",
            c=self.config.c,
            rehashing=self.rehashing,
            query_hashes=query_hashes,
        )

    def _knn_impl(
        self,
        query: PointVector,
        k: int,
        p: float,
        stats: IOStats,
        *,
        telemetry=None,
        query_id: int | None = None,
        cap: float | None = None,
        radius: float | None = None,
    ) -> KnnResult:
        """Algorithm 4 body: the scalar oracle of one query and metric.

        ``cap``/``radius`` override the candidate budget and starting
        radius.  Pages re-touched by successive rehashing rounds (ring
        boundaries) stay in a per-query buffer pool and are charged once.
        The result carries its record, numbered ``query_id``;
        ``telemetry`` publishes it.
        """
        p = validate_p(p)
        n = self.num_points
        n_rows = self.num_rows
        if not 1 <= k <= n:
            raise InvalidParameterError(
                f"k must lie in [1, {n}] for a dataset of {n} live points, got {k}"
            )
        params = self.metric_params(p)
        assert self._bank is not None and self._store is not None and self._data is not None
        cap = k + self._beta * n if cap is None else float(cap)
        trace = QueryTraceBuilder(
            p=p, k=k, engine="scalar", rehashing=self.rehashing, cap=cap,
            query_id=query_id,
        )
        theta = params.theta
        counts = np.zeros(n_rows, dtype=np.int32)
        is_candidate = np.zeros(n_rows, dtype=bool)
        cand_ids: list[int] = []
        cand_dists: list[float] = []
        query_hashes = self._bank.hash_point(query)
        seen_pages: set[tuple[int, int]] = set()
        prev_windows: list[tuple[int, int]] | None = None
        delta = 1.0 / params.r_hat if radius is None else float(radius)
        rounds = 0
        done = False
        reason = ""
        while not done:
            rounds += 1
            if rounds > _MAX_ROUNDS:
                raise RuntimeError(_KNN_ABORT)
            level = params.r_hat * delta
            c_delta = self.config.c * delta
            trace.begin_round(level=level, radius=c_delta, io=stats)
            windows: list[tuple[int, int]] = []
            for i in range(params.eta):
                lo, hi = self._window(int(query_hashes[i]), level)
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
                        # Windows failed to nest (possible under the
                        # "original" rehashing ablation); re-scan fully.
                        ids = self._store.read_window(i, lo, hi, stats, seen_pages)
                if ids.size > 0:
                    trace.add_collisions(int(ids.size))
                    counts[ids] += 1
                    crossed = ids[
                        (counts[ids] > theta)
                        & ~is_candidate[ids]
                        & self._alive[ids]
                    ]
                    if crossed.size > 0:
                        is_candidate[crossed] = True
                        trace.add_crossings(int(crossed.size))
                        stats.add_random(int(crossed.size))
                        dists = lp_distance(self._data[crossed], query, p)
                        cand_ids.extend(int(x) for x in crossed)
                        cand_dists.extend(float(x) for x in dists)
                # Termination checks (Algorithm 4 lines 15-16).
                if len(cand_ids) >= k:
                    dist_arr = np.asarray(cand_dists)
                    if np.count_nonzero(dist_arr < c_delta) >= k:
                        done = True
                        reason = TERMINATION_K_WITHIN
                        break
                if len(cand_ids) > cap:
                    done = True
                    reason = TERMINATION_CAP
                    break
            dist_arr = np.asarray(cand_dists, dtype=np.float64)
            trace.end_round(
                io=stats,
                candidates=len(cand_ids),
                within=int(np.count_nonzero(dist_arr < c_delta)),
            )
            prev_windows = windows
            delta *= self.config.c
        order = np.argsort(np.asarray(cand_dists))[:k]
        ids = np.asarray(cand_ids, dtype=np.int64)[order]
        dists = np.asarray(cand_dists, dtype=np.float64)[order]
        finished = trace.finish(termination=reason, io=stats, candidates=len(cand_ids))
        if telemetry is not None:
            telemetry.record(finished)
        return KnnResult(
            ids=ids,
            distances=dists,
            p=p,
            k=k,
            io=stats,
            candidates=len(cand_ids),
            rounds=rounds,
            termination=reason,
            trace=finished,
        )
