"""Tests for the SRS baseline."""

import numpy as np
import pytest

from repro.baselines import SRS
from repro.baselines.srs import SRSConfig
from repro.datasets import exact_knn, make_synthetic, sample_queries
from repro.errors import IndexNotBuiltError, InvalidParameterError


@pytest.fixture(scope="module")
def srs_split():
    data = make_synthetic(1000, 20, value_range=(0, 300), seed=13)
    return sample_queries(data, n_queries=4, seed=14)


@pytest.fixture(scope="module")
def srs(srs_split) -> SRS:
    return SRS(SRSConfig(seed=2)).build(srs_split.data)


class TestBuild:
    def test_projected_shape(self, srs, srs_split):
        assert srs._projected.shape == (srs_split.data.shape[0], 6)

    def test_tiny_index(self, srs):
        # SRS's selling point: the index is tiny (6 floats + id per point).
        assert srs.index_size_mb() < 0.1

    def test_query_before_build(self):
        with pytest.raises(IndexNotBuiltError):
            SRS().knn(np.zeros(4), 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_projections": 0},
            {"c": 1.0},
            {"max_fraction": 0.0},
            {"max_fraction": 1.5},
            {"early_stop_confidence": 1.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SRS(SRSConfig(**kwargs))


class TestQueries:
    def test_result_sorted_by_lp(self, srs, srs_split):
        result = srs.knn(srs_split.queries[0], 10, p=2.0)
        assert (np.diff(result.distances) >= 0).all()

    def test_l2_quality(self, srs, srs_split):
        _, true_dists = exact_knn(srs_split.data, srs_split.queries, 10, 2.0)
        for qi, query in enumerate(srs_split.queries):
            result = srs.knn(query, 10, p=2.0)
            # 2-stable projections make l2 recall strong.
            assert result.distances[0] <= true_dists[qi][0] * 2.0

    def test_early_stop_bounds_candidates(self, srs, srs_split):
        result = srs.knn(srs_split.queries[1], 5, p=2.0)
        assert result.candidates <= srs.num_points
        if result.termination == "early_stop":
            assert result.candidates < srs.num_points

    def test_budget_respected(self, srs_split):
        srs = SRS(SRSConfig(max_fraction=0.02, early_stop_confidence=0.999, seed=2))
        srs.build(srs_split.data)
        result = srs.knn(srs_split.queries[0], 5, p=2.0)
        assert result.candidates <= max(5, int(np.ceil(0.02 * srs.num_points)))

    def test_fractional_rerank(self, srs, srs_split):
        from repro.metrics.lp import lp_distance

        query = srs_split.queries[2]
        result = srs.knn(query, 5, p=0.5)
        recomputed = lp_distance(srs_split.data[result.ids], query, 0.5)
        np.testing.assert_allclose(result.distances, recomputed)

    def test_random_io_per_candidate(self, srs, srs_split):
        result = srs.knn(srs_split.queries[3], 5, p=2.0)
        assert result.io.random == result.candidates

    def test_self_query(self, srs, srs_split):
        point = srs_split.data[7]
        result = srs.knn(point, 1, p=2.0)
        assert result.ids[0] == 7
        assert result.distances[0] == pytest.approx(0.0)

    def test_k_validation(self, srs, srs_split):
        with pytest.raises(InvalidParameterError):
            srs.knn(srs_split.queries[0], 0, p=2.0)


class TestProjectionStatistics:
    def test_chi_squared_scaling(self):
        # ||A x||^2 / ||x||^2 ~ chi^2_m (mean m).  A high dimensionality
        # keeps the per-realisation variance of the fixed projection
        # matrix small enough for a tight check.
        d = 200
        data = make_synthetic(50, d, seed=1)
        srs = SRS(SRSConfig(seed=5)).build(data)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2000, d))
        proj = x @ srs._projection
        ratios = (proj**2).sum(axis=1) / (x**2).sum(axis=1)
        assert ratios.mean() == pytest.approx(6.0, rel=0.1)
