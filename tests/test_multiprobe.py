"""Tests for the multi-probe LSH extension."""

import numpy as np
import pytest

from repro.baselines import MultiProbeLSH
from repro.baselines.multiprobe import MultiProbeConfig, probing_sequence
from repro.datasets import make_synthetic, sample_queries
from repro.errors import IndexNotBuiltError, InvalidParameterError


@pytest.fixture(scope="module")
def mp_split():
    data = make_synthetic(800, 12, value_range=(0, 200), seed=21)
    return sample_queries(data, n_queries=3, seed=22)


@pytest.fixture(scope="module")
def mp(mp_split) -> MultiProbeLSH:
    return MultiProbeLSH(MultiProbeConfig(seed=4)).build(mp_split.data)


class TestProbingSequence:
    def test_scores_ascending(self):
        scores = np.array([0.9, 0.1, 0.5, 0.5, 0.04, 0.96])
        seq = probing_sequence(scores, 10)
        totals = [
            sum(scores[2 * coord + (0 if delta == -1 else 1)] for coord, delta in s)
            for s in seq
        ]
        assert totals == sorted(totals)

    def test_no_double_perturbation_of_coordinate(self):
        scores = np.array([0.2, 0.8, 0.3, 0.7, 0.4, 0.6])
        for pset in probing_sequence(scores, 20):
            coords = [coord for coord, _delta in pset]
            assert len(coords) == len(set(coords))

    def test_first_probe_is_cheapest_single(self):
        scores = np.array([0.9, 0.1, 0.5, 0.5])
        seq = probing_sequence(scores, 5)
        assert seq[0] == [(0, 1)]  # scores[1]=0.1 is 2*0+1 -> coord 0, +1

    def test_unique_probes(self):
        scores = np.array([0.2, 0.8, 0.3, 0.7])
        seq = probing_sequence(scores, 20)
        as_tuples = [tuple(sorted(p)) for p in seq]
        assert len(as_tuples) == len(set(as_tuples))

    def test_empty_inputs(self):
        assert probing_sequence(np.array([]), 5) == []
        assert probing_sequence(np.array([0.1, 0.9]), 0) == []


class TestIndex:
    def test_auto_width_positive(self, mp):
        assert mp._level._width > 0

    def test_explicit_width(self, mp_split):
        index = MultiProbeLSH(MultiProbeConfig(width=123.0, seed=1)).build(
            mp_split.data
        )
        assert index._level._width == 123.0

    def test_finds_neighbours(self, mp, mp_split):
        result = mp.knn(mp_split.queries[0], 10)
        assert result.ids.shape[0] == 10
        assert (np.diff(result.distances) >= 0).all()

    def test_more_probes_never_fewer_candidates(self, mp_split):
        few = MultiProbeLSH(MultiProbeConfig(num_probes=2, seed=4)).build(
            mp_split.data
        )
        many = MultiProbeLSH(MultiProbeConfig(num_probes=32, seed=4)).build(
            mp_split.data
        )
        q = mp_split.queries[0]
        assert many.knn(q, 5).candidates >= few.knn(q, 5).candidates

    def test_self_query(self, mp, mp_split):
        point = mp_split.data[3]
        result = mp.knn(point, 1)
        assert result.distances.size == 1
        assert result.distances[0] == pytest.approx(0.0)

    def test_index_size_positive(self, mp):
        assert mp.index_size_mb() > 0

    def test_query_before_build(self):
        with pytest.raises(IndexNotBuiltError):
            MultiProbeLSH().knn(np.zeros(4), 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"num_tables": 0},
            {"num_probes": 0},
            {"width": -1.0},
            {"width_scale": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            MultiProbeLSH(MultiProbeConfig(**kwargs))
