"""One input contract and one result type for LazyLSH and every comparator.

Every comparator refuses a bad input the way LazyLSH does — the same
typed error with the same message, before any work and without a numpy
warning — takes ``p`` by keyword only, and answers with
:class:`repro.api.SearchResult`.  The pinned answers were recorded before
the comparators moved onto the shared checks, result type, compound-table
builder and exact kNN.
"""

import warnings

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig, SearchResult
from repro.baselines import C2LSH, E2LSH, SRS, LinearScan, LSBForest, MultiProbeLSH
from repro.datasets import make_synthetic, sample_queries
from tests.bad_knobs import bad_call

#: Each comparator's build over a data matrix (the scan's is its constructor).
BUILDERS = {
    "c2lsh": lambda data: C2LSH().build(data),
    "srs": lambda data: SRS().build(data),
    "e2lsh": lambda data: E2LSH().build(data),
    "lsb": lambda data: LSBForest().build(data),
    "multiprobe": lambda data: MultiProbeLSH().build(data),
    "scan": LinearScan,
}


@pytest.fixture(scope="module")
def split():
    return sample_queries(
        make_synthetic(620, 8, value_range=(0, 200), seed=1), 20, seed=11
    )


@pytest.fixture(scope="module")
def built(split):
    return {name: build(split.data) for name, build in BUILDERS.items()}


@pytest.fixture(scope="module")
def lazy(split):
    return LazyLSH(LazyLSHConfig(p_min=1.0, seed=7)).build(split.data)


def _bad_query(split, case):
    """``(query, k)`` of one bad-input case; the rest of the call is valid."""
    query = split.queries[0]
    if case == "non-finite-query":
        return bad_call(split.queries[:1], case)[0][0], 5
    return {
        "wrong-width": (query[:-1], 5),
        "2-d-query": (query[None, :], 5),
        "k-zero": (query, 0),
        "k-past-n": (query, split.data.shape[0] + 1),
    }[case]


def _refusal(call) -> Exception:
    """The error ``call`` raises, with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            call()
    return info.value


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestOneInputContract:
    @pytest.mark.parametrize(
        "case", ["non-finite-query", "wrong-width", "2-d-query", "k-zero", "k-past-n"]
    )
    def test_query_refused_as_lazylsh_refuses_it(self, name, case, built, lazy, split):
        """A NaN query once got NaN distances (SRS, LSB, the scan), an
        empty answer (multi-probe) or a numpy ValueError (E2LSH); a short
        one a numpy matmul error."""
        query, k = _bad_query(split, case)
        want = _refusal(lambda: lazy.knn(query, k, p=1.0))
        got = _refusal(lambda: built[name].knn(query, k))
        assert (type(got), str(got)) == (type(want), str(want))

    def test_non_finite_data_refused_at_build(self, name, split):
        data = split.data.copy()
        data[7, 3] = np.inf
        want = _refusal(lambda: LazyLSH(LazyLSHConfig(p_min=1.0)).build(data))
        got = _refusal(lambda: BUILDERS[name](data))
        assert (type(got), str(got)) == (type(want), str(want))

    def test_p_is_keyword_only(self, name, built, split):
        with pytest.raises(TypeError):
            built[name].knn(split.queries[0], 5, 1.0)

    def test_answers_with_the_one_result_type(self, name, built, split):
        result = built[name].knn(split.queries[0], 5, p=0.5)
        assert type(result) is SearchResult
        assert (result.p, result.k, result.ids.size) == (0.5, 5, 5)


class TestPinnedAnswers:
    @pytest.mark.parametrize(
        "name, row, p, want",
        [
            # (ids, sequential, random, candidates, rounds, termination)
            ("srs", 0, 0.5, ([529, 228, 303, 458, 44], 0, 6, 6, 0, "early_stop")),
            ("srs", 1, 2.0, ([575, 344, 122, 504, 505], 0, 34, 34, 0, "early_stop")),
            ("e2lsh", 0, 0.5, ([529, 595, 588, 327, 412], 39, 600, 600, 6, "")),
            ("e2lsh", 1, 2.0, ([575, 344, 122, 79, 479], 7, 12, 12, 2, "")),
            ("lsb", 0, 0.5, ([529, 588, 228, 452, 409], 41, 40, 40, 0, "E1")),
            ("lsb", 1, 2.0, ([575, 344, 122, 504, 79], 45, 40, 40, 0, "E1")),
            ("multiprobe", 0, 0.5, ([529, 595, 588, 327, 412], 57, 211, 211, 0, "")),
            ("multiprobe", 1, 2.0, ([575, 344, 122, 504, 79], 66, 312, 312, 0, "")),
            ("scan", 0, 0.5, ([529, 595, 588, 327, 412], 5, 0, 0, 0, "")),
            ("scan", 1, 2.0, ([575, 344, 122, 504, 79], 5, 0, 0, 0, "")),
        ],
    )
    def test_answers_and_io(self, built, split, name, row, p, want):
        """Recorded answers: each comparator's search, I/O charges and
        stopping point are unchanged by the shared checks and tables."""
        result = built[name].knn(split.queries[row], 5, p=p)
        assert (
            result.ids.tolist(), result.io.sequential, result.io.random,
            result.candidates, result.rounds, result.termination,
        ) == want
