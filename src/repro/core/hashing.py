"""The materialised base hash family and rehashing window arithmetic.

Base hash functions (Eq. 10) follow C2LSH's construction:

.. math::

    h^*_i(v) = \\Big\\lfloor \\frac{a_i \\cdot v + b^*_i}{r_0} \\Big\\rfloor

where each coordinate of ``a_i`` is drawn from the base space's stable
distribution (Cauchy for the l1 base index, Gaussian for the Appendix C l2
variant) and the offset ``b^*_i`` is uniform over ``[0, c^{ceil(log_c(t d))}
* r0)`` with ``t`` the largest coordinate value — wide enough that virtual
rehashing at every radius the query loop can reach behaves like a fresh
uniform offset.

Two rehashing schemes map a search level onto a window of base buckets:

* **query-centric** (Eq. 21/23, LazyLSH's contribution): the window is
  centred on the query's own base bucket,
  ``[h*(q) - floor(level/2), h*(q) + floor(level/2)]``;
* **original** virtual rehashing (Eq. 7, C2LSH): buckets are grouped into
  aligned runs of ``level`` buckets and the query gets whichever run it
  falls into — possibly badly off-centre (Figure 8).
"""

from __future__ import annotations

import math

import numpy as np

from repro._typing import PointMatrix, PointVector, SeedLike, as_rng
from repro.errors import DimensionalityMismatchError, InvalidParameterError
from repro.metrics.lp import validate_p

#: Row-chunk size for hashing large point matrices (bounds peak memory).
_HASH_CHUNK = 8192


def query_centric_window(hq, level: float):
    """Inclusive base-bucket window centred on the query bucket (Eq. 23).

    ``hq`` is one base hash or an int64 array of them (one window each).
    """
    if level < 0:
        raise InvalidParameterError(f"search level must be >= 0, got {level}")
    half = int(math.floor(level / 2.0))
    return hq - half, hq + half


def original_window(hq, level: float):
    """Inclusive base-bucket window of original virtual rehashing (Eq. 7).

    ``H_R(v) = floor(h(v) / R)``: the query's rehash bucket covers base
    buckets ``[B*R, B*R + R - 1]`` where ``B = floor(hq / R)``.  ``hq``
    is one base hash or an int64 array of them.
    """
    if level < 0:
        raise InvalidParameterError(f"search level must be >= 0, got {level}")
    width = max(1, int(math.floor(level)))
    lo = np.floor_divide(hq, width) * width
    return lo, lo + width - 1


#: The window function of each rehashing scheme, by name.
WINDOWS = {"query_centric": query_centric_window, "original": original_window}


class StableHashBank:
    """A bank of ``eta`` materialised base hash functions (Eq. 10).

    Parameters
    ----------
    d:
        Dimensionality of the data.
    eta:
        Number of hash functions to materialise.
    r0:
        Bucket width of the base hash.
    c:
        Approximation ratio, used (together with ``t_max``) to size the
        offset domain exactly as C2LSH prescribes.
    t_max:
        Largest absolute coordinate value expected in the data.
    base_p:
        1.0 for Cauchy projections (the paper's base index), 2.0 for
        Gaussian.
    seed:
        Seed for projection vectors and offsets.
    """

    def __init__(
        self,
        d: int,
        eta: int,
        *,
        r0: float = 1.0,
        c: float = 3.0,
        t_max: float = 1.0,
        base_p: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        if d < 1:
            raise InvalidParameterError(f"dimensionality must be >= 1, got {d}")
        if eta < 1:
            raise InvalidParameterError(f"eta must be >= 1, got {eta}")
        if r0 <= 0:
            raise InvalidParameterError(f"r0 must be > 0, got {r0}")
        if not c > 1.0:
            raise InvalidParameterError(f"approximation ratio c must be > 1, got {c}")
        if t_max <= 0:
            raise InvalidParameterError(f"t_max must be > 0, got {t_max}")
        self.d = int(d)
        self.eta = int(eta)
        self.r0 = float(r0)
        self.c = float(c)
        self.base_p = validate_p(base_p, allow_above_two=False)
        rng = as_rng(seed)
        if self.base_p == 1.0:
            self._projections = rng.standard_cauchy((self.d, self.eta))
        elif self.base_p == 2.0:
            self._projections = rng.standard_normal((self.d, self.eta))
        else:  # pragma: no cover - guarded by validate_p call sites
            raise InvalidParameterError(
                f"hash banks need a closed-form stable family, got base_p={base_p}"
            )
        # C2LSH offset domain: b* uniform over [0, c^ceil(log_c(t*d)) * r0).
        exponent = math.ceil(math.log(max(t_max * d, self.c)) / math.log(self.c))
        self.offset_upper = self.c**exponent * self.r0
        self._offsets = rng.uniform(0.0, self.offset_upper, self.eta)

    def hash_points(self, points: PointMatrix) -> np.ndarray:
        """Hash a point matrix; returns int64 of shape ``(eta, n)``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.d:
            raise DimensionalityMismatchError(
                f"points have dimensionality {points.shape[1]}, bank expects {self.d}"
            )
        n = points.shape[0]
        out = np.empty((self.eta, n), dtype=np.int64)
        for start in range(0, n, _HASH_CHUNK):
            stop = min(n, start + _HASH_CHUNK)
            projected = points[start:stop] @ self._projections + self._offsets
            out[:, start:stop] = np.floor(projected / self.r0).astype(np.int64).T
        return out

    def hash_point(self, point: PointVector) -> np.ndarray:
        """Hash a single point; returns int64 of shape ``(eta,)``."""
        point = np.asarray(point, dtype=np.float64)
        if point.ndim != 1:
            raise DimensionalityMismatchError(
                f"hash_point expects a single vector, got shape {point.shape}"
            )
        return self.hash_points(point[None, :])[:, 0]

    def projection_bound(self, points: PointMatrix) -> float:
        """An upper bound on every ``|a_i . v + b*_i|`` over ``points``.

        ``max |v_j| * max_i ||a_i||_1 + offset_upper``: O(n d + d eta)
        work, where the projections themselves cost O(n d eta).
        """
        points = np.asarray(points, dtype=np.float64)
        l1 = float(np.abs(self._projections).sum(axis=0).max())
        return float(np.abs(points).max()) * l1 + self.offset_upper

    def projection_values(self, points: PointMatrix) -> np.ndarray:
        """Raw projections ``a_i . v + b*_i`` (shape ``(eta, n)``).

        Exposed for tests that verify the floor/bucket arithmetic.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (points @ self._projections + self._offsets).T
