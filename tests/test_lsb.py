"""Tests for the LSB-forest baseline and its Z-order machinery."""

import numpy as np
import pytest

from repro.baselines.lsb import LSBConfig, LSBForest, interleave_bits, llcp
from repro.datasets import exact_knn, make_synthetic, sample_queries
from repro.errors import IndexNotBuiltError, InvalidParameterError


class TestInterleave:
    def test_known_pattern(self):
        # Two dims, 2 bits each: values (0b10, 0b01).
        # bit0: dim0=0, dim1=1 -> output bits 0,1 = 0,1
        # bit1: dim0=1, dim1=0 -> output bits 2,3 = 1,0
        out = interleave_bits(np.array([[0b10, 0b01]], dtype=np.uint64), 2)
        assert out[0] == 0b0110

    def test_zero(self):
        out = interleave_bits(np.zeros((3, 4), dtype=np.uint64), 8)
        np.testing.assert_array_equal(out, np.zeros(3, dtype=np.uint64))

    def test_injective_on_random_inputs(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 256, size=(500, 8)).astype(np.uint64)
        out = interleave_bits(values, 8)
        unique_in = np.unique(values, axis=0).shape[0]
        assert np.unique(out).size == unique_in

    def test_most_significant_bits_first(self):
        # Two values equal on high bits, differing on low bits, must share
        # a longer prefix than values differing on high bits.
        a = interleave_bits(np.array([[0b1000, 0b1000]], dtype=np.uint64), 4)[0]
        b = interleave_bits(np.array([[0b1000, 0b1001]], dtype=np.uint64), 4)[0]
        c = interleave_bits(np.array([[0b0000, 0b1000]], dtype=np.uint64), 4)[0]
        bits = 8
        assert llcp(np.array([b], dtype=np.uint64), int(a), bits)[0] > llcp(
            np.array([c], dtype=np.uint64), int(a), bits
        )[0]

    def test_rejects_too_many_bits(self):
        with pytest.raises(InvalidParameterError):
            interleave_bits(np.zeros((1, 9), dtype=np.uint64), 8)


class TestLLCP:
    def test_identical_values(self):
        a = np.array([12345], dtype=np.uint64)
        assert llcp(a, 12345, 64)[0] == 64

    def test_known_prefix(self):
        # 0b1010 vs 0b1011 in 4 bits: first difference at the last bit.
        assert llcp(np.array([0b1010], dtype=np.uint64), 0b1011, 4)[0] == 3

    def test_no_common_prefix(self):
        assert llcp(np.array([0b1000], dtype=np.uint64), 0b0000, 4)[0] == 0

    def test_vectorised(self):
        a = np.array([0b1111, 0b1110, 0b0000], dtype=np.uint64)
        out = llcp(a, 0b1111, 4)
        np.testing.assert_array_equal(out, [4, 3, 0])


class TestLSBForest:
    @pytest.fixture(scope="class")
    def split(self):
        data = make_synthetic(800, 16, value_range=(0, 200), seed=41)
        return sample_queries(data, n_queries=3, seed=42)

    @pytest.fixture(scope="class")
    def forest(self, split):
        return LSBForest(LSBConfig(seed=5)).build(split.data)

    def test_build_and_size(self, forest):
        assert forest.is_built
        assert forest.index_size_mb() > 0

    def test_self_query_within_guarantee(self, forest, split):
        # Unlike collision-counting methods, the LSB walk may terminate
        # (event E1) before reaching an exact duplicate — its guarantee is
        # a c-approximation at the LLCP level's granularity.
        point = split.data[11]
        result = forest.knn(point, 1)
        assert result.distances[0] <= forest.config.c * forest._width

    def test_results_sorted(self, forest, split):
        result = forest.knn(split.queries[0], 10)
        assert (np.diff(result.distances) >= 0).all()
        assert result.ids.shape == (10,)

    def test_quality_beats_random(self, forest, split):
        rng = np.random.default_rng(3)
        _, true_dists = exact_knn(split.data, split.queries, 10, 2.0)
        from repro.metrics.lp import lp_distance

        for qi, query in enumerate(split.queries):
            result = forest.knn(query, 10)
            random_ids = rng.choice(split.data.shape[0], 10, replace=False)
            random_mean = float(
                np.mean(np.sort(lp_distance(split.data[random_ids], query, 2.0)))
            )
            assert result.distances.mean() < random_mean
            assert result.distances[0] <= 3.0 * true_dists[qi][0]

    def test_io_counted(self, forest, split):
        result = forest.knn(split.queries[1], 5)
        assert result.io.sequential >= result.candidates
        assert result.io.random == result.candidates

    def test_termination_reason_reported(self, forest, split):
        result = forest.knn(split.queries[2], 5)
        assert result.termination in ("E1", "E2", "exhausted")

    def test_fractional_rerank(self, forest, split):
        from repro.metrics.lp import lp_distance

        query = split.queries[0]
        result = forest.knn(query, 5, p=0.5)
        recomputed = lp_distance(split.data[result.ids], query, 0.5)
        np.testing.assert_allclose(result.distances, recomputed)

    def test_query_before_build(self):
        with pytest.raises(IndexNotBuiltError):
            LSBForest().knn(np.zeros(4), 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"num_trees": 0},
            {"m": 16, "bits_per_dim": 8},
            {"c": 1.0},
            {"visit_factor": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            LSBForest(LSBConfig(**kwargs))

    def test_k_validation(self, forest, split):
        with pytest.raises(InvalidParameterError):
            forest.knn(split.queries[0], 0)
