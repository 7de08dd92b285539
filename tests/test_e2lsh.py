"""Tests for the E2LSH baseline."""

import numpy as np
import pytest

from repro.baselines import E2LSH
from repro.baselines.e2lsh import E2LSHConfig
from repro.datasets import exact_knn, make_synthetic, sample_queries
from repro.errors import IndexNotBuiltError, InvalidParameterError


@pytest.fixture(scope="module")
def e2_split():
    data = make_synthetic(800, 12, value_range=(0, 200), seed=9)
    return sample_queries(data, n_queries=3, seed=10)


@pytest.fixture(scope="module")
def e2(e2_split) -> E2LSH:
    return E2LSH(E2LSHConfig(c=2.0, seed=3)).build(e2_split.data)


class TestBuild:
    def test_derived_parameters(self, e2):
        assert e2.m >= 1
        assert 1 <= e2.num_tables <= 64

    def test_explicit_parameters_respected(self, e2_split):
        cfg = E2LSHConfig(m=4, num_tables=10, seed=1)
        index = E2LSH(cfg).build(e2_split.data)
        assert index.m == 4
        assert index.num_tables == 10

    def test_lazy_levels(self, e2_split):
        index = E2LSH(E2LSHConfig(seed=2)).build(e2_split.data)
        assert index.num_levels == 0
        assert index.index_size_mb() == 0.0
        index.knn(e2_split.queries[0], 5)
        assert index.num_levels >= 1
        assert index.index_size_mb() > 0.0

    def test_index_grows_per_level(self, e2_split):
        # The storage weakness the paper highlights: every radius level
        # adds a full set of tables.
        index = E2LSH(E2LSHConfig(seed=2)).build(e2_split.data)
        index.knn(e2_split.queries[0], 5)
        size_one = index.index_size_mb()
        levels_one = index.num_levels
        index.knn(e2_split.queries[1], 50)
        if index.num_levels > levels_one:
            assert index.index_size_mb() > size_one

    def test_query_before_build(self):
        with pytest.raises(IndexNotBuiltError):
            E2LSH().knn(np.zeros(4), 1)

    def test_bad_config(self):
        with pytest.raises(InvalidParameterError):
            E2LSH(E2LSHConfig(c=1.0))


class TestQueries:
    def test_finds_k_results(self, e2, e2_split):
        result = e2.knn(e2_split.queries[0], 10)
        assert result.ids.shape == (10,)
        assert (np.diff(result.distances) >= 0).all()

    def test_quality_reasonable(self, e2, e2_split):
        # Not the guarantee test (probabilistic) — just that the returned
        # neighbours are far closer than random points.
        _, true_dists = exact_knn(e2_split.data, e2_split.queries, 10, 2.0)
        for qi, query in enumerate(e2_split.queries):
            result = e2.knn(query, 10)
            assert result.distances[0] <= true_dists[qi][0] * 3.0

    def test_fractional_rerank(self, e2, e2_split):
        from repro.metrics.lp import lp_distance

        query = e2_split.queries[1]
        result = e2.knn(query, 5, p=0.5)
        recomputed = lp_distance(e2_split.data[result.ids], query, 0.5)
        np.testing.assert_allclose(result.distances, recomputed)

    def test_io_counted(self, e2, e2_split):
        result = e2.knn(e2_split.queries[2], 5)
        assert result.io.random > 0
        assert result.rounds >= 1

    def test_k_validation(self, e2, e2_split):
        with pytest.raises(InvalidParameterError):
            e2.knn(e2_split.queries[0], 0)

    def test_self_query(self, e2, e2_split):
        point = e2_split.data[5]
        result = e2.knn(point, 1)
        assert result.distances[0] == pytest.approx(0.0)
        assert result.ids[0] == 5
