"""Edge-case and robustness tests across the stack.

Degenerate data a production index must survive: duplicate points,
constant coordinates, negative coordinates, very small datasets, and
store-level insertion invariants.
"""

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.errors import InvalidParameterError
from repro.storage.inverted_index import InvertedListStore
from repro.storage.pages import PageLayout


def _tiny_config() -> LazyLSHConfig:
    return LazyLSHConfig(
        c=3.0, p_min=0.8, seed=13, mc_samples=10_000, mc_buckets=60
    )


class TestDegenerateData:
    def test_duplicate_points(self):
        rng = np.random.default_rng(71)
        base = rng.uniform(0, 100, size=(50, 8))
        data = np.vstack([base, base])  # every point twice
        index = LazyLSH(_tiny_config()).build(data)
        result = index.knn(base[0], 2, p=1.0)
        # Both copies are at distance zero.
        np.testing.assert_allclose(result.distances, [0.0, 0.0])
        assert set(result.ids.tolist()) == {0, 50}

    def test_constant_column(self):
        rng = np.random.default_rng(72)
        data = rng.uniform(0, 100, size=(80, 6))
        data[:, 2] = 42.0  # one dead dimension
        index = LazyLSH(_tiny_config()).build(data)
        result = index.knn(data[3], 3, p=0.8)
        assert result.ids[0] == 3

    def test_all_identical_points(self):
        data = np.full((30, 5), 7.0)
        index = LazyLSH(_tiny_config()).build(data)
        result = index.knn(data[0], 5, p=1.0)
        np.testing.assert_allclose(result.distances, 0.0)

    def test_negative_coordinates(self):
        rng = np.random.default_rng(73)
        data = rng.uniform(-500, -100, size=(100, 6))
        index = LazyLSH(_tiny_config()).build(data)
        result = index.knn(data[10], 3, p=1.0)
        assert result.ids[0] == 10

    def test_mixed_scale_coordinates(self):
        rng = np.random.default_rng(74)
        data = rng.uniform(0, 1, size=(100, 6))
        data[:, 0] *= 1e6  # one dominating dimension
        index = LazyLSH(_tiny_config()).build(data)
        result = index.knn(data[4], 3, p=1.0)
        assert result.ids[0] == 4

    def test_two_point_dataset(self):
        data = np.array([[0.0, 0.0], [10.0, 10.0]])
        index = LazyLSH(_tiny_config()).build(data)
        result = index.knn(np.array([1.0, 1.0]), 1, p=1.0)
        assert result.ids[0] == 0

    def test_single_point_dataset(self):
        data = np.array([[5.0, 5.0, 5.0]])
        index = LazyLSH(_tiny_config()).build(data)
        result = index.knn(np.array([0.0, 0.0, 0.0]), 1, p=1.0)
        assert result.ids[0] == 0

    def test_single_dimension(self):
        rng = np.random.default_rng(75)
        data = rng.uniform(0, 1000, size=(200, 1))
        index = LazyLSH(_tiny_config()).build(data)
        query = np.array([500.0])
        result = index.knn(query, 3, p=1.0)
        true_order = np.argsort(np.abs(data[:, 0] - 500.0))[:3]
        # 1-d space: the window scan should find the true neighbours.
        assert result.ids[0] == true_order[0]


class TestStoreInsert:
    def test_insert_preserves_sortedness(self):
        rng = np.random.default_rng(81)
        store = InvertedListStore(
            rng.integers(-20, 20, size=(4, 50)).astype(np.int64),
            PageLayout(page_size=64, entry_size=8),
        )
        store.insert(
            rng.integers(-20, 20, size=(4, 10)).astype(np.int64),
            np.arange(50, 60),
        )
        assert store.num_points == 60
        for func in range(4):
            values = store.runs()[0][func]
            assert (np.diff(values) >= 0).all()
            assert values.size == 60

    def test_inserted_ids_retrievable(self):
        hash_values = np.array([[0, 10, 20]], dtype=np.int64)
        store = InvertedListStore(hash_values)
        store.insert(np.array([[15]], dtype=np.int64), np.array([3]))
        starts, stops = store.batch_window_positions(
            np.array([0]), np.array([14]), np.array([16])
        )
        assert store.gather_segments32(starts, stops - starts).tolist() == [3]

    def test_insert_shape_validation(self):
        store = InvertedListStore(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(InvalidParameterError):
            store.insert(np.zeros((3, 1), dtype=np.int64), np.array([9]))
        with pytest.raises(InvalidParameterError):
            store.insert(np.zeros((2, 2), dtype=np.int64), np.array([9]))
        with pytest.raises(InvalidParameterError):
            store.insert(np.zeros((2, 1), dtype=np.float64), np.array([9]))

    def test_empty_insert_is_noop(self):
        store = InvertedListStore(np.zeros((2, 3), dtype=np.int64))
        store.insert(np.zeros((2, 0), dtype=np.int64), np.array([], dtype=np.int64))
        assert store.num_points == 3

    def test_size_grows_with_inserts(self):
        store = InvertedListStore(np.zeros((1, 500), dtype=np.int64))
        before = store.size_bytes()
        store.insert(
            np.zeros((1, 200), dtype=np.int64), np.arange(500, 700)
        )
        assert store.size_bytes() > before


class TestQueryRobustness:
    def test_query_far_outside_data_range(self):
        rng = np.random.default_rng(91)
        data = rng.uniform(0, 100, size=(150, 6))
        index = LazyLSH(_tiny_config()).build(data)
        query = np.full(6, 1e5)  # far away from everything
        result = index.knn(query, 3, p=1.0)
        assert result.ids.shape == (3,)
        assert np.isfinite(result.distances).all()

    def test_repeated_queries_are_isolated(self):
        rng = np.random.default_rng(92)
        data = rng.uniform(0, 100, size=(150, 6))
        index = LazyLSH(_tiny_config()).build(data)
        query = data[0]
        first = index.knn(query, 5, p=1.0)
        second = index.knn(query, 5, p=1.0)
        np.testing.assert_array_equal(first.ids, second.ids)
        assert first.io.total == second.io.total
