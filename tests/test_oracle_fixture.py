"""Single-metric answers pinned to recorded scalar answers.

``fixtures/single_metric_answers.npz`` holds the answers the
single-metric scalar loop gave before every lane walked one radius
schedule (``fixtures/make_single_metric_answers.py`` describes the six
600-point indexes and the 40 seeded queries).  The flat engine (every
query) and the scalar oracle (one query per case and metric) must
reproduce them — ids, distances, sequential and random I/O, rounds,
termination and candidates — wherever the old arithmetic searched the
same windows as the one schedule.

The old loop walked ``delta <- c * delta`` from ``delta_0 = 1 / r_hat``
(or the radius override) and searched level ``r_hat * delta``; the one
schedule searches ``level0 * c**j``.  For ``p = 0.8`` ``r_hat * (1 /
r_hat)`` rounds to ``1 - 2**-53``, so at ``c = 2`` every later level of
the old loop fell just short of ``2**j`` and its windows were one
bucket narrower on each side (original rehashing: one bucket narrower)
than the ``c**j``-bucket windows the multi-metric path searched for the
same query.  Those pairs (:data:`MOVED`) now search the multi-metric
path's windows and their answers move; :func:`window_sizes` derives
them from the two recipes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import knn_batch
from tests.fixtures import make_single_metric_answers as fixture

#: ``(case, p)`` pairs whose recorded answers came from narrower windows.
MOVED = {("c2", 0.8), ("c2_original", 0.8)}

#: The pairs, in order; the scalar oracle answers query ``2 * i`` of
#: pair ``i`` (rows 0-19 are perturbed indexed points, 20-39 uniform).
PAIRS = [(case, p) for case in fixture.CASES for p in fixture.P_VALUES]


@pytest.fixture(scope="module")
def recorded():
    with np.load(fixture.FIXTURE) as npz:
        return dict(npz)


@pytest.fixture(scope="module")
def indexes():
    """One index per ``(c, rehashing)``, shared by the radius cases."""
    data = fixture.make_data()
    return {
        (c, rehashing): fixture.build_index(data, c, rehashing)
        for c, rehashing, _radius in fixture.CASES.values()
    }


def window_sizes(r_hat: float, case: str, rounds: int) -> tuple[list, list]:
    """Per-round window sizes of the old recipe and of the one schedule.

    The size is the half-width ``floor(level / 2)`` under query-centric
    rehashing and the width ``max(1, floor(level))`` under original
    rehashing; equal sizes mean equal windows.
    """
    c, rehashing, radius = fixture.CASES[case]

    def size(level: float) -> int:
        if rehashing == "query_centric":
            return math.floor(level / 2.0)
        return max(1, math.floor(level))

    delta = 1.0 / r_hat if radius is None else float(radius)
    old = []
    for _ in range(rounds):
        old.append(size(r_hat * delta))
        delta *= c
    level0 = 1.0 if radius is None else r_hat * float(radius)
    return old, [size(level0 * c**j) for j in range(rounds)]


def assert_pinned(result, recorded, case: str, qi: int, pi: int) -> None:
    def want(field):
        return recorded[f"{case}/{field}"][qi, pi]

    assert np.array_equal(result.ids, want("ids"))
    assert np.array_equal(result.distances, want("distances"))
    assert result.io.sequential == want("sequential")
    assert result.io.random == want("random")
    assert result.rounds == want("rounds")
    assert result.termination == want("termination")
    assert result.candidates == want("candidates")


def test_fixture_queries_are_the_generators(recorded):
    assert np.array_equal(
        recorded["queries"], fixture.make_queries(fixture.make_data())
    )


def test_moved_pairs_follow_from_the_window_arithmetic(recorded, indexes):
    moved = set()
    for case, p in PAIRS:
        c, rehashing, _radius = fixture.CASES[case]
        r_hat = indexes[(c, rehashing)].metric_params(p).r_hat
        rounds = int(recorded[f"{case}/rounds"][:, fixture.P_VALUES.index(p)].max())
        old, new = window_sizes(r_hat, case, rounds)
        if old != new:
            moved.add((case, p))
    assert moved == MOVED


@pytest.mark.parametrize("case", list(fixture.CASES))
def test_flat_engine_matches_recorded_answers(recorded, indexes, case):
    c, rehashing, radius = fixture.CASES[case]
    index = indexes[(c, rehashing)]
    for pi, p in enumerate(fixture.P_VALUES):
        if (case, p) in MOVED:
            continue
        batch = knn_batch(index, recorded["queries"], fixture.K, p=p, radius=radius)
        for qi, result in enumerate(batch):
            assert_pinned(result, recorded, case, qi, pi)


@pytest.mark.parametrize("case", list(fixture.CASES))
def test_scalar_oracle_matches_recorded_answers(recorded, indexes, case):
    c, rehashing, radius = fixture.CASES[case]
    index = indexes[(c, rehashing)]
    for pi, p in enumerate(fixture.P_VALUES):
        if (case, p) in MOVED:
            continue
        qi = 2 * PAIRS.index((case, p))
        result = index.knn(
            recorded["queries"][qi], fixture.K, p=p, radius=radius,
            engine="scalar",
        )
        assert_pinned(result, recorded, case, qi, pi)
