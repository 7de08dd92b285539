"""Tests for the exact linear-scan baseline."""

import numpy as np
import pytest

from repro.baselines import LinearScan
from repro.datasets import make_synthetic
from repro.errors import DimensionalityMismatchError, InvalidParameterError
from repro.metrics.lp import lp_distance


@pytest.fixture(scope="module")
def scan() -> LinearScan:
    data = make_synthetic(300, 12, value_range=(0, 100), seed=8)
    return LinearScan(data)


class TestExactness:
    def test_matches_bruteforce(self, scan):
        query = np.full(12, 50.0)
        for p in (0.5, 1.0, 2.0):
            result = scan.knn(query, 5, p=p)
            dists = lp_distance(scan._data, query, p)
            want = np.sort(dists)[:5]
            np.testing.assert_allclose(result.distances, want)

    def test_sorted_output(self, scan):
        result = scan.knn(np.zeros(12), 20, p=0.7)
        assert (np.diff(result.distances) >= 0).all()

    def test_self_query_returns_self_first(self, scan):
        result = scan.knn(scan._data[42], 3, p=1.0)
        assert result.ids[0] == 42
        assert result.distances[0] == 0.0

    def test_k_equals_n(self, scan):
        result = scan.knn(np.zeros(12), 300, p=1.0)
        assert sorted(result.ids.tolist()) == list(range(300))


class TestCostModel:
    def test_scan_cost_is_full_file(self, scan):
        # 300 points x 12 dims x 4 bytes = 14400 bytes -> 4 pages.
        assert scan.scan_cost_pages() == 4

    def test_every_query_pays_full_scan(self, scan):
        r1 = scan.knn(np.zeros(12), 1, p=1.0)
        r2 = scan.knn(np.zeros(12), 100, p=0.5)
        assert r1.io.sequential == r2.io.sequential == scan.scan_cost_pages()
        assert r1.io.random == 0

    def test_global_counter(self):
        data = make_synthetic(100, 4, seed=1)
        scan = LinearScan(data)
        scan.knn(np.zeros(4), 1, p=1.0)
        scan.knn(np.zeros(4), 1, p=1.0)
        assert scan.io_stats.sequential == 2 * scan.scan_cost_pages()


class TestValidation:
    def test_bad_data(self):
        with pytest.raises(InvalidParameterError):
            LinearScan(np.zeros(5))

    def test_bad_k(self, scan):
        with pytest.raises(InvalidParameterError):
            scan.knn(np.zeros(12), 0, p=1.0)
        with pytest.raises(InvalidParameterError):
            scan.knn(np.zeros(12), 301, p=1.0)

    def test_bad_query_shape(self, scan):
        with pytest.raises(DimensionalityMismatchError):
            scan.knn(np.zeros(5), 1, p=1.0)

    def test_properties(self, scan):
        assert scan.num_points == 300
        assert scan.dimensionality == 12

