"""LSB-forest (Tao et al., TODS 2010) — Z-order compound hashing.

The LSB-tree was the first LSH structure that avoids building hash tables
at every search radius: each point's ``m`` compound hash values are
interleaved into one Z-order value and the points are stored sorted by it
(a B-tree in the original; a sorted run with page accounting here).
Points whose Z-order values share a long common prefix agree on their
compound hash at a coarse level — which corresponds exactly to colliding
at some radius ``2^level`` — so a kNN query simply walks outward from the
query's Z-order position, visiting entries in decreasing
longest-common-prefix (LLCP) order.  An LSB-*forest* repeats with ``L``
independent trees and merges their walks.

Termination follows the paper's two events, adapted to this simulator:

* **E1**: the current best ``k``-th distance is within ``c`` times the
  bucket side length implied by the current LLCP level — closer entries
  could not be hiding at coarser levels;
* **E2**: a visit budget of ``visit_factor * L * k`` entries is spent
  (the original uses ``4 * L * B``-style budgets tied to page size).

Fractional-metric queries re-rank retrieved candidates by true ``lp``
distance, the same comparator recipe the LazyLSH paper applies to
single-space baselines.  A result's ``termination`` names the event that
stopped the walk: ``"E1"``, ``"E2"``, or ``"exhausted"`` when every
entry was visited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import PointMatrix, PointVector
from repro.api import SearchResult, check_k, check_points
from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.metrics.lp import lp_distance, validate_p
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout


@dataclass(frozen=True)
class LSBConfig:
    """Build parameters of an :class:`LSBForest`.

    ``m * bits_per_dim`` must fit in 64 bits (the Z-order values are
    packed into ``uint64``).
    """

    m: int = 4
    num_trees: int = 8
    bits_per_dim: int = 16
    c: float = 2.0
    base_p: float = 2.0
    width: float | None = None
    visit_factor: int = 10
    seed: int | None = 7
    page_size: int = 4096
    entry_size: int = 16


def interleave_bits(values: np.ndarray, bits_per_dim: int) -> np.ndarray:
    """Interleave the rows of ``values`` (shape ``(n, m)``) into Z-order.

    Bit ``b`` of dimension ``j`` lands at position ``b * m + j`` of the
    output, so the *most significant* output bits hold every dimension's
    most significant input bits — the property LLCP search relies on.
    """
    values = np.asarray(values, dtype=np.uint64)
    n, m = values.shape
    if m * bits_per_dim > 64:
        raise InvalidParameterError(
            f"m * bits_per_dim must be <= 64, got {m} * {bits_per_dim}"
        )
    out = np.zeros(n, dtype=np.uint64)
    for bit in range(bits_per_dim):
        for dim in range(m):
            src = (values[:, dim] >> np.uint64(bit)) & np.uint64(1)
            dst_pos = np.uint64(bit * m + dim)
            out |= src << dst_pos
    return out


def llcp(a: np.ndarray, b: int, total_bits: int) -> np.ndarray:
    """Length of the longest common bit-prefix of each ``a`` with ``b``.

    Prefixes are counted from the most significant of ``total_bits``.
    """
    a = np.asarray(a, dtype=np.uint64)
    diff = a ^ np.uint64(b)
    out = np.full(a.shape, total_bits, dtype=np.int64)
    nonzero = diff != 0
    if np.any(nonzero):
        # Highest set bit position of the difference.
        high = np.zeros(a.shape, dtype=np.int64)
        d = diff.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = d >= (np.uint64(1) << np.uint64(shift))
            high[mask] += shift
            d[mask] >>= np.uint64(shift)
        out[nonzero] = total_bits - 1 - high[nonzero]
    return out


class _Tree:
    """One LSB tree: m hash functions + a Z-order-sorted run."""

    def __init__(
        self,
        data: PointMatrix,
        cfg: LSBConfig,
        width: float | None,
        rng: np.random.Generator,
    ) -> None:
        n, d = data.shape
        if cfg.base_p == 2.0:
            self.projections = rng.standard_normal((d, cfg.m))
        else:
            self.projections = rng.standard_cauchy((d, cfg.m))
        projected = data @ self.projections
        if width is None:
            # Spread the projections over the full 2^bits bucket range so
            # the Z-order values actually discriminate; a coarser width
            # collapses clustered data onto a handful of Z values.
            spread = float(projected.max() - projected.min())
            width = max(spread, 1e-12) / float(2**cfg.bits_per_dim)
        self.offsets = rng.uniform(0.0, width, cfg.m)
        self.width = width
        self.bits = cfg.bits_per_dim
        self.m = cfg.m
        raw = np.floor((projected + self.offsets) / width).astype(np.int64)
        # Shift into the non-negative domain and clamp to bits_per_dim.
        self.shift = raw.min(axis=0)
        clamped = np.clip(raw - self.shift, 0, (1 << self.bits) - 1)
        z_values = interleave_bits(clamped.astype(np.uint64), self.bits)
        order = np.argsort(z_values, kind="stable")
        self.sorted_z = z_values[order]
        self.sorted_ids = order.astype(np.int64)

    def query_z(self, query: PointVector) -> int:
        raw = np.floor(
            (query @ self.projections + self.offsets) / self.width
        ).astype(np.int64)
        clamped = np.clip(raw - self.shift, 0, (1 << self.bits) - 1)
        return int(interleave_bits(clamped[None, :].astype(np.uint64), self.bits)[0])


class LSBForest:
    """The LSB-forest baseline: Z-order walks over ``L`` sorted runs."""

    def __init__(self, config: LSBConfig | None = None) -> None:
        cfg = config or LSBConfig()
        if cfg.m < 1 or cfg.num_trees < 1 or cfg.bits_per_dim < 1:
            raise InvalidParameterError(
                "m, num_trees and bits_per_dim must all be >= 1"
            )
        if cfg.m * cfg.bits_per_dim > 64:
            raise InvalidParameterError(
                f"m * bits_per_dim must be <= 64, got {cfg.m * cfg.bits_per_dim}"
            )
        if not cfg.c > 1.0:
            raise InvalidParameterError(f"approximation ratio c must be > 1, got {cfg.c}")
        if cfg.visit_factor < 1:
            raise InvalidParameterError(
                f"visit_factor must be >= 1, got {cfg.visit_factor}"
            )
        validate_p(cfg.base_p, allow_above_two=False)
        self.config = cfg
        self.io_stats = IOStats()
        self._data: PointMatrix | None = None
        self._trees: list[_Tree] = []
        self._width: float = 0.0
        self._layout = PageLayout(page_size=cfg.page_size, entry_size=cfg.entry_size)

    def build(self, data: PointMatrix) -> "LSBForest":
        """Materialise the ``L`` Z-order-sorted trees."""
        data = check_points(data, "data")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._trees = [
            _Tree(data, cfg, cfg.width, rng) for _ in range(cfg.num_trees)
        ]
        self._width = float(np.mean([tree.width for tree in self._trees]))
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
        """Simulated size of the ``L`` sorted runs, in MB."""
        self._require_built()
        assert self._data is not None
        per_tree = self._layout.size_bytes(self._data.shape[0])
        return len(self._trees) * per_tree / (1024.0 * 1024.0)

    def knn(
        self, query: PointVector, k: int, *, p: float | None = None
    ) -> SearchResult:
        """Approximate kNN by merged bidirectional Z-order walks."""
        self._require_built()
        assert self._data is not None
        cfg = self.config
        n, d = self._data.shape
        query = check_points(query, "query", width=d, vector=True)
        p = validate_p(p if p is not None else cfg.base_p)
        check_k(k, n)
        stats = IOStats()
        total_bits = cfg.m * cfg.bits_per_dim
        # Cursor pair (left, right) per tree around the query's position.
        cursors: list[list[int]] = []
        query_zs: list[int] = []
        for tree in self._trees:
            zq = tree.query_z(query)
            pos = int(np.searchsorted(tree.sorted_z, zq))
            cursors.append([pos - 1, pos])
            query_zs.append(zq)
        seen = np.zeros(n, dtype=bool)
        cand_ids: list[int] = []
        cand_l2: list[float] = []
        budget = max(k, cfg.visit_factor * cfg.num_trees * k)
        termination = "exhausted"
        while len(cand_ids) < n:
            # Pick the (tree, side) whose next entry has the largest LLCP
            # with its query Z-value — the LSB visit order.
            best: tuple[int, int, int] | None = None  # (llcp, tree, side)
            for t, tree in enumerate(self._trees):
                left, right = cursors[t]
                if left >= 0:
                    level = int(
                        llcp(tree.sorted_z[left : left + 1], query_zs[t], total_bits)[0]
                    )
                    if best is None or level > best[0]:
                        best = (level, t, 0)
                if right < n:
                    level = int(
                        llcp(
                            tree.sorted_z[right : right + 1], query_zs[t], total_bits
                        )[0]
                    )
                    if best is None or level > best[0]:
                        best = (level, t, 1)
            if best is None:
                break
            level, t, side = best
            tree = self._trees[t]
            if side == 0:
                idx = cursors[t][0]
                cursors[t][0] -= 1
            else:
                idx = cursors[t][1]
                cursors[t][1] += 1
            point_id = int(tree.sorted_ids[idx])
            stats.add_sequential(1)
            if not seen[point_id]:
                seen[point_id] = True
                stats.add_random(1)
                cand_ids.append(point_id)
                cand_l2.append(
                    float(lp_distance(self._data[point_id], query, cfg.base_p))
                )
            min_visits = min(budget, cfg.num_trees * k)
            if len(cand_ids) >= max(k, min_visits):
                d_k = np.partition(np.asarray(cand_l2), k - 1)[k - 1]
                # E1: the walk's frontier has degraded to LLCP ``level``,
                # i.e. every unvisited entry shares at best a bucket of
                # side width * 2^(bits - floor(level/m)).  A point c times
                # closer than that granularity would (whp, across the L
                # trees) have shown up at a finer level already, so once
                # d_k * c fits inside the frontier granularity nothing
                # better is likely to remain.
                coarse = cfg.bits_per_dim - min(level // cfg.m, cfg.bits_per_dim)
                side_length = tree.width * float(2**coarse)
                if d_k * cfg.c <= side_length:
                    termination = "E1"
                    break
                if len(cand_ids) >= budget:
                    termination = "E2"
                    break
        cand_arr = np.asarray(cand_ids, dtype=np.int64)
        if p == cfg.base_p:
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
