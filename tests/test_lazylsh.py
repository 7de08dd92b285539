"""Unit and behaviour tests for the LazyLSH index (Algorithms 3-4)."""

import warnings

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.datasets import exact_knn, make_synthetic
from repro.errors import (
    DimensionalityMismatchError,
    IndexNotBuiltError,
    InvalidParameterError,
    UnsupportedMetricError,
)
from repro.eval import overall_ratio
from repro.metrics.lp import lp_distance


class TestBuild:
    def test_build_returns_self(self, small_config, small_split):
        index = LazyLSH(small_config)
        assert index.build(small_split.data) is index

    def test_introspection(self, built_index, small_split):
        assert built_index.is_built
        assert built_index.num_points == small_split.data.shape[0]
        assert built_index.dimensionality == 16
        assert built_index.eta > 0
        assert built_index.index_size_mb() > 0

    def test_eta_matches_p_min(self, built_index):
        engine = built_index.parameter_engine
        assert built_index.eta == engine.eta(built_index.config.p_min)

    def test_beta_resolution(self, built_index, small_split):
        n = small_split.data.shape[0]
        assert built_index.beta == pytest.approx(max(100.0 / n, 1e-4))

    def test_rejects_bad_data(self, small_config):
        with pytest.raises(InvalidParameterError):
            LazyLSH(small_config).build(np.zeros(5))
        with pytest.raises(InvalidParameterError):
            LazyLSH(small_config).build(np.full((3, 2), np.nan))
        with pytest.raises(InvalidParameterError):
            LazyLSH(small_config).build(np.zeros((0, 4)))

    @pytest.mark.parametrize("far", [1e16, 1e18, 1e300, 2e307])
    def test_refuses_data_it_could_not_query(self, small_config, far):
        """One coordinate far enough out that the windows covering the
        data's own hash domain would leave int64: refused before any
        hashing with no numpy warning (no cast warning, and no overflow
        in the reach check's own projections), and a built index is kept."""
        data = make_synthetic(600, 8, value_range=(0, 200), seed=41)
        index = LazyLSH(small_config).build(data)
        bad = data.copy()
        bad[5, 2] = far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="past int64"):
                index.build(bad)
        assert np.array_equal(index.data, data)
        assert index.knn(data[3], 1, p=1.0).ids[0] == 3

    def test_refuses_data_past_the_float_range(self, small_config):
        """Data whose hash offsets would pass the float range (one
        coordinate at 1e308) is refused before the bank is sized."""
        data = make_synthetic(600, 8, value_range=(0, 200), seed=41)
        data[5, 2] = 1e308
        with pytest.raises(InvalidParameterError, match="float range"):
            LazyLSH(small_config).build(data)

    def test_data_just_inside_the_reach_bound_answers_its_rows(self, small_config):
        """Scale a dataset to within 10% of the largest scale ``build``
        accepts: it builds, and each probed row is its own nearest
        neighbour under both engines."""
        base = make_synthetic(600, 8, value_range=(1, 200), seed=42)

        def builds(scale):
            try:
                return LazyLSH(small_config).build(base * scale)
            except InvalidParameterError:
                return None

        ok, bad = 1e10, 1e16
        assert builds(ok) is not None and builds(bad) is None
        while bad / ok > 1.1:
            mid = (ok * bad) ** 0.5
            if builds(mid) is None:
                bad = mid
            else:
                ok = mid
        index = builds(ok)
        for row in (0, 299, 599):
            for engine in ("flat", "scalar"):
                result = index.knn(index.data[row], 1, p=0.5, engine=engine)
                assert result.ids[0] == row and result.distances[0] == 0.0

    def test_query_before_build(self, small_config):
        index = LazyLSH(small_config)
        with pytest.raises(IndexNotBuiltError):
            index.knn(np.zeros(4), 1)
        with pytest.raises(IndexNotBuiltError):
            _ = index.num_points

    def test_invalid_rehashing_mode(self, small_config):
        with pytest.raises(InvalidParameterError):
            LazyLSH(small_config, rehashing="diagonal")


class TestMetricSupport:
    def test_supported_metrics_include_requested_range(self, built_index):
        supported = built_index.supported_metrics()
        assert 0.5 in supported
        assert 1.0 in supported

    def test_unsupported_needs_more_functions(self, small_split):
        # Built for p_min=0.9 only; p=0.5 needs more hash functions.
        cfg = LazyLSHConfig(
            c=3.0, p_min=0.9, seed=11, mc_samples=20_000, mc_buckets=100
        )
        index = LazyLSH(cfg).build(small_split.data)
        with pytest.raises(UnsupportedMetricError) as exc_info:
            index.knn(small_split.queries[0], 5, p=0.5)
        assert "rebuild with a smaller p_min" in str(exc_info.value)

    def test_insensitive_metric_rejected(self, built_index):
        with pytest.raises(UnsupportedMetricError):
            built_index.knn(np.zeros(16), 5, p=0.2)


class TestKnnQueries:
    def test_result_shape_and_order(self, built_index, small_split):
        result = built_index.knn(small_split.queries[0], 10, p=0.7)
        assert result.ids.shape == (10,)
        assert result.distances.shape == (10,)
        assert (np.diff(result.distances) >= 0).all()
        assert result.p == 0.7
        assert result.k == 10

    def test_distances_are_true_lp_distances(self, built_index, small_split):
        query = small_split.queries[1]
        result = built_index.knn(query, 5, p=0.8)
        recomputed = lp_distance(built_index.data[result.ids], query, 0.8)
        np.testing.assert_allclose(result.distances, recomputed)

    def test_ids_unique(self, built_index, small_split):
        result = built_index.knn(small_split.queries[2], 20, p=1.0)
        assert len(set(result.ids.tolist())) == 20

    def test_io_accounting_positive(self, built_index, small_split):
        result = built_index.knn(small_split.queries[0], 5, p=1.0)
        assert result.io.sequential > 0
        assert result.io.random >= 5
        assert result.candidates >= 5

    def test_global_io_counter_accumulates(self, small_config, small_split):
        index = LazyLSH(small_config).build(small_split.data)
        assert index.io_stats.total == 0
        r1 = index.knn(small_split.queries[0], 5, p=1.0)
        assert index.io_stats.total == r1.io.total
        r2 = index.knn(small_split.queries[1], 5, p=1.0)
        assert index.io_stats.total == r1.io.total + r2.io.total

    def test_approximation_quality(self, built_index, small_split):
        # Overall ratio within the c=3 guarantee and much better than the
        # trivial bound on this easy dataset.
        for p in (0.5, 1.0):
            true_ids, true_dists = exact_knn(
                built_index.data, small_split.queries, 10, p
            )
            ratios = []
            for qi, query in enumerate(small_split.queries):
                result = built_index.knn(query, 10, p=p)
                ratios.append(overall_ratio(result.distances, true_dists[qi]))
            assert np.mean(ratios) < 1.5
            assert np.max(ratios) < built_index.config.c

    def test_exact_match_found_for_indexed_point(self, built_index):
        # Querying with an indexed point must find it at distance zero.
        point = built_index.data[17]
        result = built_index.knn(point, 1, p=1.0)
        assert result.distances[0] == pytest.approx(0.0)
        assert result.ids[0] == 17

    def test_k_validation(self, built_index, small_split):
        q = small_split.queries[0]
        with pytest.raises(InvalidParameterError):
            built_index.knn(q, 0, p=1.0)
        with pytest.raises(InvalidParameterError):
            built_index.knn(q, built_index.num_points + 1, p=1.0)

    def test_query_validation(self, built_index):
        with pytest.raises(DimensionalityMismatchError):
            built_index.knn(np.zeros(7), 1, p=1.0)
        with pytest.raises(InvalidParameterError):
            built_index.knn(np.full(16, np.inf), 1, p=1.0)
        with pytest.raises(InvalidParameterError):
            built_index.knn(np.zeros((2, 16)), 1, p=1.0)

    def test_k_equals_n(self, small_config):
        data = make_synthetic(60, 8, value_range=(0, 50), seed=3)
        index = LazyLSH(small_config).build(data)
        result = index.knn(data[0], 60, p=1.0)
        assert result.ids.shape == (60,)
        assert sorted(result.ids.tolist()) == list(range(60))

    def test_rounds_grow_geometrically_bounded(self, built_index, small_split):
        result = built_index.knn(small_split.queries[0], 5, p=1.0)
        assert 1 <= result.rounds <= 64


class TestRangeQueries:
    def test_found_within_c_delta(self, built_index, small_split):
        query = small_split.queries[0]
        # Use the true NN distance as the range radius -> must find.
        _, true_dists = exact_knn(built_index.data, query, 1, 1.0)
        delta = float(true_dists[0, 0]) * 1.1
        result = built_index.range_query(query, delta, 1.0)
        assert result.found
        assert result.distance < built_index.config.c * delta
        assert result.point_id is not None

    def test_not_found_for_tiny_radius(self, built_index, small_split):
        result = built_index.range_query(small_split.queries[0], 1e-9, 1.0)
        assert not result.found
        assert result.point_id is None
        assert result.distance is None

    def test_radius_validation(self, built_index, small_split):
        with pytest.raises(InvalidParameterError):
            built_index.range_query(small_split.queries[0], 0.0, 1.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 1e20])
    def test_radius_refused_before_any_read(self, built_index, small_split, delta):
        """A radius that is not finite, or whose windows would leave
        int64, is refused before the index reads anything (a large one
        that stays inside int64, 1e12, answers: see the pinned cases)."""
        before = built_index.io_stats.total
        match = "past int64" if delta == 1e20 else "finite"
        with pytest.raises(InvalidParameterError, match=match):
            built_index.range_query(small_split.queries[0], delta, 0.5)
        assert built_index.io_stats.total == before

    @pytest.mark.parametrize(
        "row, delta, p, want",
        [
            # (found, point_id, distance, sequential, random, candidates)
            (0, 600.0, 1.0, (False, None, None, 281, 0, 0)),
            (0, 1500.0, 1.0, (True, 142, 1262.0, 192, 1, 1)),
            (1, 1500.0, 1.0, (True, 170, 1725.0, 186, 1, 1)),
            (1, 4000.0, 0.5, (False, None, None, 960, 0, 0)),
            (1, 8000.0, 0.5, (True, 893, 14430.21079, 980, 1, 1)),
            (0, 1e12, 0.5, (True, 142, 16094.091949, 570, 1196, 1196)),
        ],
    )
    def test_pinned_answers_and_io(self, built_index, small_split, row, delta, p, want):
        """Recorded Algorithm-3 answers and simulated I/O: every window
        read whole once, its pages charged once."""
        result = built_index.range_query(small_split.queries[row], delta, p)
        distance = None if result.distance is None else round(result.distance, 6)
        assert (
            result.found, result.point_id, distance,
            result.io.sequential, result.io.random, result.candidates,
        ) == want

    def test_io_recorded(self, built_index, small_split):
        _, true_dists = exact_knn(built_index.data, small_split.queries[0], 1, 0.8)
        result = built_index.range_query(
            small_split.queries[0], float(true_dists[0, 0]) * 1.2, 0.8
        )
        assert result.io.sequential > 0


class TestRehashingAblation:
    def test_original_mode_runs(self, small_config, small_split):
        index = LazyLSH(small_config, rehashing="original").build(small_split.data)
        result = index.knn(small_split.queries[0], 10, p=1.0)
        assert result.ids.shape == (10,)
        assert (np.diff(result.distances) >= 0).all()

    def test_query_centric_no_worse_on_average(self, small_config, small_split):
        # Figure 13: query-centric rehashing yields equal-or-better overall
        # ratios than the original aligned rehashing.
        centric = LazyLSH(small_config).build(small_split.data)
        original = LazyLSH(small_config, rehashing="original").build(
            small_split.data
        )
        _, true_dists = exact_knn(small_split.data, small_split.queries, 10, 1.0)
        ratios_centric, ratios_original = [], []
        for qi, query in enumerate(small_split.queries):
            rc = centric.knn(query, 10, p=1.0)
            ro = original.knn(query, 10, p=1.0)
            ratios_centric.append(overall_ratio(rc.distances, true_dists[qi]))
            ratios_original.append(overall_ratio(ro.distances, true_dists[qi]))
        assert np.mean(ratios_centric) <= np.mean(ratios_original) + 0.02


class TestDeterminism:
    def test_same_seed_same_results(self, small_split):
        cfg = LazyLSHConfig(c=3.0, seed=99, mc_samples=20_000, mc_buckets=100)
        a = LazyLSH(cfg).build(small_split.data)
        b = LazyLSH(cfg).build(small_split.data)
        ra = a.knn(small_split.queries[0], 10, p=0.7)
        rb = b.knn(small_split.queries[0], 10, p=0.7)
        np.testing.assert_array_equal(ra.ids, rb.ids)
        assert ra.io.total == rb.io.total
