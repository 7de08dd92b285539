"""Tests for the C2LSH baseline."""

import warnings

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.baselines import C2LSH
from repro.baselines.c2lsh import C2LSHConfig
from repro.datasets import exact_knn, make_synthetic, sample_queries
from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.eval import overall_ratio


@pytest.fixture(scope="module")
def c2_split():
    data = make_synthetic(1000, 16, value_range=(0, 500), seed=5)
    return sample_queries(data, n_queries=3, seed=6)


@pytest.fixture(scope="module")
def c2(c2_split) -> C2LSH:
    return C2LSH(C2LSHConfig(c=3.0, seed=11)).build(c2_split.data)


@pytest.fixture(scope="module")
def c2_by_c(c2_split) -> dict[float, C2LSH]:
    return {
        c: C2LSH(C2LSHConfig(c=c, seed=11)).build(c2_split.data) for c in (2.0, 2.5)
    }


class TestBuild:
    def test_parameters(self, c2):
        assert c2.is_built
        assert c2.eta > 0
        assert 0 < c2.theta < c2.eta
        assert c2.index_size_mb() > 0

    def test_eta_smaller_than_lazylsh_for_fractionals(self, c2, built_index):
        # C2LSH only supports l1, so it materialises eta_1.0 functions —
        # fewer than LazyLSH's eta_0.5 bank over comparable data.
        assert c2.eta < built_index.eta

    def test_query_before_build(self):
        with pytest.raises(IndexNotBuiltError):
            C2LSH().knn(np.zeros(4), 1)

    def test_bad_data(self):
        with pytest.raises(InvalidParameterError):
            C2LSH().build(np.zeros((2, 2)) * np.nan)

    @pytest.mark.parametrize("far", [1e18, 1e300])
    def test_refuses_data_it_could_not_query(self, far):
        """One far coordinate is refused before hashing, with no numpy
        warning: 1e300 once hashed every entry to -2**63 (one bucket for
        all points) and 1e18 failed inside the store; a built index is
        kept."""
        data = make_synthetic(600, 8, value_range=(0, 200), seed=41)
        index = C2LSH(C2LSHConfig(c=3.0, seed=11)).build(data)
        bad = data.copy()
        bad[5, 2] = far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="past int64"):
                index.build(bad)
        assert index.knn(data[3], 1).ids[0] == 3

    def test_data_past_the_float_range_refused(self):
        data = make_synthetic(600, 8, value_range=(0, 200), seed=41)
        data[5, 2] = 1e308
        with pytest.raises(InvalidParameterError, match="float range"):
            C2LSH().build(data)


class TestL1Queries:
    def test_result_sorted(self, c2, c2_split):
        result = c2.knn(c2_split.queries[0], 10, p=1.0)
        assert (np.diff(result.distances) >= 0).all()
        assert result.p == 1.0

    def test_quality_within_guarantee(self, c2, c2_split):
        _, true_dists = exact_knn(c2_split.data, c2_split.queries, 10, 1.0)
        for qi, query in enumerate(c2_split.queries):
            result = c2.knn(query, 10, p=1.0)
            assert overall_ratio(result.distances, true_dists[qi]) < 3.0

    def test_k_validation(self, c2, c2_split):
        with pytest.raises(InvalidParameterError):
            c2.knn(c2_split.queries[0], 0, p=1.0)


class TestFractionalRerank:
    def test_distances_reported_in_lp(self, c2, c2_split):
        from repro.metrics.lp import lp_distance

        query = c2_split.queries[1]
        result = c2.knn(query, 5, p=0.5)
        recomputed = lp_distance(c2_split.data[result.ids], query, 0.5)
        np.testing.assert_allclose(result.distances, recomputed)
        assert result.p == 0.5

    def test_rerank_pool_is_k_plus_100(self, c2, c2_split):
        # With a 997-point dataset the pool of k+100 caps at n.
        result = c2.knn(c2_split.queries[0], 5, p=0.5)
        assert result.ids.shape == (5,)

    def test_rerank_extra_zero_degrades(self, c2, c2_split):
        # Pure l1 top-k re-labelled as lp is never better than re-ranking
        # a larger pool (both measured against the true lp neighbours).
        query = c2_split.queries[2]
        _, true_dists = exact_knn(c2_split.data, query, 10, 0.5)
        pooled = c2.knn(query, 10, p=0.5, rerank_extra=100)
        bare = c2.knn(query, 10, p=0.5, rerank_extra=0)
        r_pooled = overall_ratio(pooled.distances, true_dists[0])
        r_bare = overall_ratio(bare.distances, true_dists[0])
        assert r_pooled <= r_bare + 1e-9

    def test_negative_extra_rejected(self, c2, c2_split):
        with pytest.raises(InvalidParameterError):
            c2.knn(c2_split.queries[0], 5, p=0.5, rerank_extra=-1)


class TestIOAccounting:
    def test_io_positive_and_accumulated(self, c2_split):
        c2 = C2LSH(C2LSHConfig(c=3.0, seed=11)).build(c2_split.data)
        result = c2.knn(c2_split.queries[0], 5, p=1.0)
        assert result.io.sequential > 0
        assert result.io.random > 0
        assert c2.io_stats.total == result.io.total

    def test_rerank_costs_no_extra_io(self, c2, c2_split):
        # The lp re-rank happens on already-fetched candidates.
        query = c2_split.queries[0]
        l1_io = c2.knn(query, 105, p=1.0).io
        lp_io = c2.knn(query, 5, p=0.5).io
        assert lp_io.total == l1_io.total


class TestPinnedAnswers:
    @pytest.mark.parametrize(
        "row, p, want",
        [
            # (ids, sequential, random, rounds, candidates)
            (0, 1.0, ([331, 825, 804, 614, 380], 271, 5, 8, 5)),
            (0, 0.5, ([825, 821, 331, 865, 66], 286, 108, 8, 108)),
            (1, 1.0, ([48, 703, 992, 282, 772], 276, 6, 8, 6)),
            (1, 0.5, ([48, 334, 816, 383, 703], 290, 109, 8, 109)),
            (2, 1.0, ([428, 184, 667, 992, 405], 274, 6, 8, 6)),
            (2, 0.5, ([355, 428, 992, 951, 140], 288, 108, 8, 108)),
        ],
    )
    def test_answers_and_io(self, c2, c2_split, row, p, want):
        """Recorded answers and simulated I/O: rings of nested aligned
        windows, each page charged once per query."""
        result = c2.knn(c2_split.queries[row], 5, p=p)
        assert (
            result.ids.tolist(), result.io.sequential, result.io.random,
            result.rounds, result.candidates,
        ) == want

    @pytest.mark.parametrize(
        "c, row, p, want",
        [
            # (ids, sequential, random, rounds, candidates)
            (2.0, 0, 1.0, ([178, 865, 66, 804, 84], 542, 5, 12, 5)),
            (2.0, 0, 0.5, ([825, 821, 331, 865, 178], 558, 105, 12, 105)),
            (2.0, 1, 1.0, ([334, 48, 816, 703, 43], 557, 5, 12, 5)),
            (2.0, 1, 0.5, ([48, 334, 816, 383, 703], 581, 105, 12, 105)),
            (2.0, 2, 1.0, ([951, 428, 184, 380, 332], 551, 5, 11, 5)),
            (2.0, 2, 0.5, ([355, 428, 992, 951, 140], 571, 105, 12, 105)),
            (2.5, 0, 1.0, ([331, 825, 994, 961, 485], 356, 5, 9, 5)),
            (2.5, 0, 0.5, ([825, 821, 331, 865, 178], 369, 106, 9, 106)),
            (2.5, 1, 1.0, ([334, 383, 124, 417, 120], 354, 5, 9, 5)),
            (2.5, 1, 0.5, ([48, 334, 816, 383, 703], 363, 106, 9, 106)),
            (2.5, 2, 1.0, ([428, 184, 373, 667, 254], 340, 5, 9, 5)),
            (2.5, 2, 0.5, ([355, 428, 992, 951, 140], 352, 106, 9, 106)),
        ],
    )
    def test_answers_and_io_across_c(self, c2_by_c, c2_split, c, row, p, want):
        """Recorded answers at c = 2 and 2.5 (r0 = 1), where the radius
        schedule and eta differ from the c = 3 rows."""
        result = c2_by_c[c].knn(c2_split.queries[row], 5, p=p)
        assert (
            result.ids.tolist(), result.io.sequential, result.io.random,
            result.rounds, result.candidates,
        ) == want


class TestRefusals:
    @pytest.fixture(scope="class")
    def small(self):
        data = make_synthetic(600, 8, value_range=(0, 200), seed=41)
        return data, C2LSH(C2LSHConfig(c=3.0, seed=11)).build(data)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    @pytest.mark.parametrize(
        "coordinate, k, match",
        [
            (np.nan, 5, "non-finite"),
            (np.inf, 5, "non-finite"),
            (1e18, 5, "past int64"),
            (None, -3, "k must lie in"),
            (None, 0, "k must lie in"),
            (None, 700, "k must lie in"),
        ],
    )
    def test_refuses_what_lazylsh_refuses(self, small, p, coordinate, k, match):
        """A query LazyLSH refuses, or a k outside [1, n], is refused
        before any scan and unwarned at every p: such a query once
        failed inside numpy, and the re-ranked path answered k = -3 with
        94 ids and k = 700 with all 600."""
        data, index = small
        query = data[3].copy()
        if coordinate is not None:
            query[2] = coordinate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=match):
                index.knn(query, k, p=p)


class TestOneEngine:
    def test_r0_half_equals_the_lazylsh_oracle(self, c2_split):
        """C2LSH is LazyLSH at p_min = 1 with original rehashing: at
        r0 = 0.5 it stops at that index's radius c * level / r_hat
        (r_hat = 1), as its scalar oracle does, not at c * level * r0."""
        c2 = C2LSH(C2LSHConfig(c=2.5, r0=0.5, seed=11)).build(c2_split.data)
        oracle = LazyLSH(
            LazyLSHConfig(c=2.5, r0=0.5, p_min=1.0, seed=11), rehashing="original"
        ).build(c2_split.data)
        for query in c2_split.queries:
            for k in (5, 10):
                got = c2.knn(query, k, p=1.0)
                want = oracle.knn(query, k, p=1.0, engine="scalar")
                assert (
                    got.ids.tolist(), got.distances.tolist(), got.io.sequential,
                    got.io.random, got.rounds, got.candidates, got.termination,
                ) == (
                    want.ids.tolist(), want.distances.tolist(), want.io.sequential,
                    want.io.random, want.rounds, want.candidates, want.termination,
                )
                assert got.trace is not None and got.trace.termination == got.termination


class TestDeterminism:
    def test_same_seed_same_answers(self, c2_split):
        a = C2LSH(C2LSHConfig(c=3.0, seed=4)).build(c2_split.data)
        b = C2LSH(C2LSHConfig(c=3.0, seed=4)).build(c2_split.data)
        ra = a.knn(c2_split.queries[0], 10, p=0.7)
        rb = b.knn(c2_split.queries[0], 10, p=0.7)
        np.testing.assert_array_equal(ra.ids, rb.ids)
