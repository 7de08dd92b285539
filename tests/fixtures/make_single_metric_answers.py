"""Record single-metric scalar kNN answers as a regression fixture.

Writes ``single_metric_answers.npz`` next to this file: for every case
of :data:`CASES` (a 600-point, d = 8 index at ``c = 2`` or ``c = 3``,
query-centric or original rehashing, with or without a starting-radius
override) and every metric of :data:`P_VALUES`, the answers of
``index.knn(q, K, p=p, engine="scalar")`` to the 40 queries of
:func:`make_queries`: ids, distances, sequential and random I/O,
rounds, termination and candidate count.

The committed file was recorded with the single-metric scalar loop that
walked the radius schedule as ``delta <- c * delta`` and
``level = r_hat * delta``, before every lane moved to the Section 4.3
schedule ``level = level0 * c**j``, ``delta = level / r_hat``.
``tests/test_oracle_fixture.py`` pins the scalar oracle and the flat
engine to it.  Regenerate (about ten minutes on one core) with::

    PYTHONPATH=src python tests/fixtures/make_single_metric_answers.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import LazyLSH, LazyLSHConfig
from repro.datasets import make_synthetic

FIXTURE = Path(__file__).with_name("single_metric_answers.npz")

P_VALUES = (0.5, 0.8, 1.0)
K = 10
N_QUERIES = 40

#: ``name -> (c, rehashing, radius)``.
CASES = {
    "c2": (2.0, "query_centric", None),
    "c3": (3.0, "query_centric", None),
    "c2_radius": (2.0, "query_centric", 1.5),
    "c3_radius": (3.0, "query_centric", 2.5),
    "c2_original": (2.0, "original", None),
    "c3_original": (3.0, "original", None),
}


def make_data() -> np.ndarray:
    """The 600 indexed points (d = 8, integer coordinates in [0, 200])."""
    return make_synthetic(600, 8, value_range=(0, 200), seed=25)


def make_queries(data: np.ndarray) -> np.ndarray:
    """20 perturbed indexed points and 20 uniform points, seeded."""
    rng = np.random.default_rng(26)
    near = data[rng.choice(data.shape[0], N_QUERIES // 2, replace=False)]
    near = near + rng.normal(0.0, 4.0, near.shape)
    far = rng.uniform(0.0, 200.0, (N_QUERIES - N_QUERIES // 2, data.shape[1]))
    return np.vstack([near, far])


def build_index(data: np.ndarray, c: float, rehashing: str) -> LazyLSH:
    """The case's index (small Monte-Carlo tables, as in the tests)."""
    config = LazyLSHConfig(
        c=c, p_min=0.5, seed=25, mc_samples=20_000, mc_buckets=100
    )
    return LazyLSH(config, rehashing=rehashing).build(data)


def record() -> dict[str, np.ndarray]:
    """Every case's scalar answers, keyed ``"<case>/<field>"``."""
    data = make_data()
    queries = make_queries(data)
    out: dict[str, np.ndarray] = {"queries": queries}
    for name, (c, rehashing, radius) in CASES.items():
        index = build_index(data, c, rehashing)
        shape = (N_QUERIES, len(P_VALUES))
        ids = np.empty(shape + (K,), dtype=np.int64)
        dists = np.empty(shape + (K,), dtype=np.float64)
        fields = {
            key: np.empty(shape, dtype=np.int64)
            for key in ("sequential", "random", "rounds", "candidates")
        }
        termination = np.empty(shape, dtype="<U32")
        for qi, query in enumerate(queries):
            for pi, p in enumerate(P_VALUES):
                res = index.knn(query, K, p=p, engine="scalar", radius=radius)
                ids[qi, pi], dists[qi, pi] = res.ids, res.distances
                fields["sequential"][qi, pi] = res.io.sequential
                fields["random"][qi, pi] = res.io.random
                fields["rounds"][qi, pi] = res.rounds
                fields["candidates"][qi, pi] = res.candidates
                termination[qi, pi] = res.termination
        out[f"{name}/ids"], out[f"{name}/distances"] = ids, dists
        out[f"{name}/termination"] = termination
        for key, arr in fields.items():
            out[f"{name}/{key}"] = arr
        print(f"{name}: done", flush=True)
    return out


if __name__ == "__main__":
    np.savez_compressed(FIXTURE, **record())
    print(f"wrote {FIXTURE}")
