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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._typing import PointVector
from repro.api import aggregate_io, check_knobs
from repro.core.engine import (
    _KNN_ABORT,
    _MAX_ROUNDS,
    TERMINATION_CAP,
    TERMINATION_K_WITHIN,
)
from repro.core.lazylsh import KnnResult, LazyLSH, _entry_span
from repro.core.params import MetricParams
from repro.errors import InvalidParameterError
from repro.metrics.lp import lp_distance
from repro.obs.query_trace import QueryTraceBuilder
from repro.storage.io_stats import IOStats


@dataclass
class MultiQueryResult:
    """Batched kNN results for one query point under several metrics.

    Satisfies the :class:`~repro.api.SearchResultLike` protocol: ``ids``,
    ``distances`` and ``termination`` expose the per-metric parts keyed
    by ``p``, ``io`` the batch's aggregated simulated I/O.
    """

    results: dict[float, KnnResult]
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

    def __getitem__(self, p: float) -> KnnResult:
        return self.results[p]

    @classmethod
    def of(cls, row: list[KnnResult]) -> "MultiQueryResult":
        """One point's per-metric results, with their I/O total."""
        return cls(results={r.p: r for r in row}, io=aggregate_io(row))


class _MetricState:
    """Per-metric Algorithm-4 state inside the shared batch loop."""

    def __init__(
        self, p: float, params: MetricParams, n: int, k: int, cap: float,
        trace: QueryTraceBuilder,
    ) -> None:
        self.p = p
        self.params = params
        self.k = k
        self.cap = cap
        self.counts = np.zeros(n, dtype=np.int32)
        self.is_candidate = np.zeros(n, dtype=bool)
        self.cand_ids: list[int] = []
        self.cand_dists: list[float] = []
        self.active = True
        self.rounds = 0
        self.io = IOStats()
        self.reason = ""
        self.trace = trace

    def delta_at_round(self, round_index: int, c: float) -> float:
        """The metric's search radius at round ``j``: ``c^j / r_hat``."""
        return c**round_index / self.params.r_hat

    def finish(self) -> KnnResult:
        order = np.argsort(np.asarray(self.cand_dists))[: self.k]
        ids = np.asarray(self.cand_ids, dtype=np.int64)[order]
        dists = np.asarray(self.cand_dists, dtype=np.float64)[order]
        return KnnResult(
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
        if index.rehashing != "query_centric":
            raise InvalidParameterError(
                "the multi-query engine requires query-centric rehashing"
            )
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
        :class:`KnnResult` carries its *marginal* I/O (sequential reads
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
            if engine == "flat":
                return MultiQueryResult.of(self.index._run(
                    query[None, :], k, metrics=metrics, cap=cap,
                    telemetry=telemetry,
                )[0])
            return self._knn_impl(query, k, metrics, telemetry, cap)

    def _knn_impl(
        self,
        query: PointVector,
        k: int,
        p_values: Sequence[float],
        telemetry,
        cap: float | None = None,
        query_id: int | None = None,
    ) -> MultiQueryResult:
        """The scalar reference loop (``engine="scalar"``).

        ``query_id`` numbers the per-metric records; ``telemetry``
        publishes them.
        """
        unique = sorted({float(p) for p in p_values})
        index = self.index
        n = index.num_points
        n_rows = index.num_rows
        if not 1 <= k <= n:
            raise InvalidParameterError(
                f"k must lie in [1, {n}] for a dataset of {n} live points, got {k}"
            )
        query = np.asarray(query, dtype=np.float64)
        cap_value = k + index.beta * n if cap is None else float(cap)
        # Validate every metric up front so no partial work is wasted.
        states = [
            _MetricState(
                p,
                index.metric_params(p),
                n_rows,
                k,
                cap_value,
                QueryTraceBuilder(
                    p=p, k=k, engine="scalar", rehashing=index.rehashing,
                    cap=cap_value, query_id=query_id,
                ),
            )
            for p in unique
        ]
        c = index.config.c
        data = index.data
        store = index.store
        bank = index._bank
        assert bank is not None
        query_hashes = bank.hash_point(query)
        eta_max = max(state.params.eta for state in states)
        seen_pages: set[tuple[int, int]] = set()
        fetched = np.zeros(n_rows, dtype=bool)
        alive = index._alive
        # Distances of fetched objects, computed lazily per metric.
        prev_half: int | None = None
        round_index = -1
        while any(state.active for state in states):
            round_index += 1
            if round_index >= _MAX_ROUNDS:
                raise RuntimeError(_KNN_ABORT)
            level = c**round_index
            half = int(np.floor(level / 2.0))
            rounders = [state for state in states if state.active]
            for state in rounders:
                state.rounds += 1
            deltas = [state.delta_at_round(round_index, c) for state in states]
            for si, state in enumerate(states):
                if state.active:
                    state.trace.begin_round(
                        level=level, radius=c * deltas[si], io=state.io
                    )
            for i in range(eta_max):
                consumers = [
                    state
                    for state in states
                    if state.active and i < state.params.eta
                ]
                if not consumers:
                    continue
                hq = int(query_hashes[i])
                # One shared ring read, charged to the smallest-p consumer.
                reader_io = consumers[0].io
                if prev_half is None:
                    ids = store.read_window(
                        i, hq - half, hq + half, reader_io, seen_pages
                    )
                else:
                    ids = store.read_ring(
                        i,
                        hq - half,
                        hq + half,
                        hq - prev_half,
                        hq + prev_half,
                        reader_io,
                        seen_pages,
                    )
                for si, state in enumerate(states):
                    if not state.active or i >= state.params.eta:
                        continue
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
                    if len(state.cand_ids) >= k:
                        dist_arr = np.asarray(state.cand_dists)
                        if np.count_nonzero(dist_arr < c * deltas[si]) >= k:
                            state.active = False
                            state.reason = TERMINATION_K_WITHIN
                            continue
                    if len(state.cand_ids) > state.cap:
                        state.active = False
                        state.reason = TERMINATION_CAP
            for si, state in enumerate(states):
                if state in rounders:
                    dist_arr = np.asarray(state.cand_dists, dtype=np.float64)
                    state.trace.end_round(
                        io=state.io,
                        candidates=len(state.cand_ids),
                        within=int(
                            np.count_nonzero(dist_arr < c * deltas[si])
                        ),
                    )
            prev_half = half
        total = IOStats()
        results: dict[float, KnnResult] = {}
        for state in states:
            results[state.p] = state.finish()
            if telemetry is not None:
                telemetry.record(results[state.p].trace)
            total.add_sequential(state.io.sequential)
            total.add_random(state.io.random)
        self.index.io_stats.add_sequential(total.sequential)
        self.index.io_stats.add_random(total.random)
        return MultiQueryResult(results=results, io=total)
