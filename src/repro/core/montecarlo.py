"""Monte-Carlo estimation of ball-intersection probabilities (Algorithm 2).

LazyLSH's sensitivity bound ``p1'`` needs ``Pr(e4 | e2) = Pr(l1(o, q) <= r |
lp(o, q) <= delta)``, which by Lemma 3 can be normalised to ``delta = 1``:

.. math::

    \\Pr(\\ell_1 \\le r \\mid \\ell_p \\le 1)
    = \\frac{Vol(B_1(q, r) \\cap B_p(q, 1))}{Vol(B_p(q, 1))}

The volume ratio has no closed form for fractional ``p``, so the paper
estimates it by sampling uniformly inside the unit ``lp`` ball (Algorithm 1)
and counting how many samples also fall in the l1 ball — for every radius of
a grid over the admissible range ``[delta_lower, min(delta_upper,
c * delta_lower)]`` at once (Algorithm 2).

This module generalises the base space from l1 to any ``ls`` (needed by the
Appendix C analysis of an l2 base index) and chunks the sampling so large
sample counts never materialise a huge matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock

import numpy as np

from repro._typing import SeedLike, as_rng
from repro.errors import InvalidParameterError
from repro.metrics.lp import lp_norm, norm_equivalence_bounds, validate_p
from repro.metrics.sampling import sample_lp_ball

#: Chunk size used when drawing Monte-Carlo samples (bounds peak memory).
_SAMPLE_CHUNK = 50_000


@dataclass(frozen=True)
class BallIntersectionTable:
    """Tabulated ``Pr(ls <= r | lp <= 1)`` over the admissible radius grid.

    Attributes
    ----------
    radii:
        Increasing grid of base-space radii ``r`` spanning
        ``[delta_lower, min(delta_upper, c * delta_lower)]``.
    probabilities:
        ``probabilities[i] = Pr(ls <= radii[i] | lp <= 1)``; non-decreasing.
    d, p, base_s, c:
        Geometry the table was computed for.
    n_samples:
        Monte-Carlo sample count actually used.
    """

    radii: np.ndarray
    probabilities: np.ndarray
    d: int
    p: float
    base_s: float
    c: float
    n_samples: int

    def prob_at(self, r: float | np.ndarray) -> np.ndarray:
        """Interpolated ``Pr(ls <= r | lp <= 1)`` at radius/radii ``r``.

        Clamped to the table's range: below the grid the probability is the
        first bucket's value, above it the last (which approaches 1 when
        the admissible range reaches ``delta_upper``).
        """
        return np.interp(r, self.radii, self.probabilities)


def admissible_radius_range(d: int, p: float, c: float, base_s: float = 1.0) -> tuple[float, float]:
    """Admissible base-space radii for approximating ``Bp(q, 1)``.

    Section 3.3: ``r`` must lie in ``[delta_lower, min(delta_upper,
    c * delta_lower)]`` — below ``delta_lower`` the window misses true
    neighbours; above ``delta_upper`` it floods with false positives; above
    ``c * delta_lower`` the sensitivity gap ``p1' - p2'`` cannot be positive.
    """
    if not c > 1.0:
        raise InvalidParameterError(f"approximation ratio c must be > 1, got {c}")
    lower, upper = norm_equivalence_bounds(1.0, d, p, base_s)
    return lower, min(upper, c * lower)


def estimate_ball_intersection(
    d: int,
    p: float,
    c: float,
    *,
    base_s: float = 1.0,
    n_samples: int = 200_000,
    n_buckets: int = 200,
    seed: SeedLike = None,
) -> BallIntersectionTable:
    """Run Algorithm 2: tabulate ``Pr(ls <= r | lp <= 1)`` on a radius grid.

    Parameters
    ----------
    d:
        Dimensionality.
    p:
        Exponent of the query space (the conditioning ball ``Bp``).
    c:
        Approximation ratio (caps the admissible radius range).
    base_s:
        Exponent of the base space whose ball approximates ``Bp`` (1 for
        the paper's l1 index, 2 for the Appendix C analysis).
    n_samples / n_buckets:
        Monte-Carlo resolution (paper: 1,000,000 / 1,000).
    seed:
        Seed for the ``lp``-ball sampler.
    """
    p = validate_p(p)
    base_s = validate_p(base_s)
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    if n_buckets < 2:
        raise InvalidParameterError(f"n_buckets must be >= 2, got {n_buckets}")
    lower, upper = admissible_radius_range(d, p, c, base_s)
    radii = np.linspace(lower, upper, n_buckets)
    if p == base_s:
        # Degenerate geometry: the balls coincide, every radius >= 1 covers
        # everything and the grid collapses to probability 1.
        return BallIntersectionTable(
            radii=radii,
            probabilities=np.ones_like(radii),
            d=d,
            p=p,
            base_s=base_s,
            c=float(c),
            n_samples=0,
        )
    rng = as_rng(seed)
    counts = np.zeros(n_buckets, dtype=np.int64)
    remaining = n_samples
    while remaining > 0:
        chunk = min(_SAMPLE_CHUNK, remaining)
        points = sample_lp_ball(chunk, d, p, seed=rng)
        base_norms = lp_norm(points, base_s, axis=1)
        # searchsorted gives, for each norm, the first radius >= norm; every
        # bucket at or after that index contains the sample.
        first_bucket = np.searchsorted(radii, base_norms, side="left")
        inside = first_bucket[first_bucket < n_buckets]
        np.add.at(counts, inside, 1)
        remaining -= chunk
    probabilities = np.cumsum(counts) / float(n_samples)
    return BallIntersectionTable(
        radii=radii,
        probabilities=probabilities,
        d=d,
        p=p,
        base_s=base_s,
        c=float(c),
        n_samples=n_samples,
    )


class _TableCache:
    """Process-wide cache of Monte-Carlo tables (they are expensive)."""

    def __init__(self) -> None:
        self._tables: dict[tuple, BallIntersectionTable] = {}
        self._lock = Lock()

    def get(
        self,
        d: int,
        p: float,
        c: float,
        base_s: float,
        n_samples: int,
        n_buckets: int,
        seed: int | None,
    ) -> BallIntersectionTable:
        key = (d, round(float(p), 6), round(float(c), 6), round(float(base_s), 6), n_samples, n_buckets, seed)
        with self._lock:
            table = self._tables.get(key)
        if table is not None:
            return table
        table = estimate_ball_intersection(
            d,
            p,
            c,
            base_s=base_s,
            n_samples=n_samples,
            n_buckets=n_buckets,
            seed=seed,
        )
        with self._lock:
            self._tables.setdefault(key, table)
        return table

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()


#: Shared cache used by :class:`repro.core.params.ParameterEngine`.
TABLE_CACHE = _TableCache()
