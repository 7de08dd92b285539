"""Micro-benchmarks of the core operations (multi-round timings).

Not a paper artifact — these track the implementation's own hot paths so
regressions in the hash bank, window reads or the query loop show up in
the pytest-benchmark comparison output.  CI runs each once, untimed::

    python -m pytest benchmarks/bench_core_ops.py --benchmark-disable -q
"""

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.core.hashing import StableHashBank
from repro.datasets import make_synthetic, sample_queries
from repro.storage.inverted_index import InvertedListStore

N = 2000
D = 64


@pytest.fixture(scope="module")
def split():
    data = make_synthetic(N, D, value_range=(0, 1000), seed=5)
    return sample_queries(data, n_queries=2, seed=6)


@pytest.fixture(scope="module")
def index(split):
    cfg = LazyLSHConfig(c=3.0, p_min=0.5, seed=7, mc_samples=20_000, mc_buckets=100)
    built = LazyLSH(cfg).build(split.data)
    for p in (0.5, 1.0):
        built.metric_params(p)
    return built


def test_hash_bank_throughput(benchmark, split):
    bank = StableHashBank(D, 500, r0=1.0, c=3.0, t_max=1000.0, seed=1)
    benchmark(bank.hash_points, split.data)


def test_inverted_list_window_read(benchmark):
    """One round's reads: one search for every function's window, then
    one gather of every window's entries."""
    rng = np.random.default_rng(2)
    store = InvertedListStore(rng.integers(0, 10_000, size=(200, N)).astype(np.int64))
    funcs = np.arange(200, dtype=np.int64)
    los = np.full(200, 4000, dtype=np.int64)
    his = np.full(200, 6000, dtype=np.int64)

    def read_round():
        starts, stops = store.batch_window_positions(funcs, los, his)
        return store.gather_segments32(starts, stops - starts)

    ids = benchmark(read_round)
    assert 0 < ids.size < 200 * N


def test_knn_l1_query(benchmark, index, split):
    benchmark(index.knn, split.queries[0], 10, p=1.0)


def test_knn_fractional_query(benchmark, index, split):
    benchmark(index.knn, split.queries[0], 10, p=0.5)


def test_build_small_index(benchmark, split):
    cfg = LazyLSHConfig(c=3.0, p_min=1.0, seed=7, mc_samples=20_000, mc_buckets=100)

    def build():
        return LazyLSH(cfg).build(split.data)

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_build_perfbench_index(benchmark):
    """The perfbench index's build (n = 8,000, d = 16, p_min = 0.5, c = 3):
    hashing, then one sort of every inverted list."""
    data = make_synthetic(8000, 16, seed=0)
    cfg = LazyLSHConfig(c=3.0, p_min=0.5, mc_samples=20_000, mc_buckets=100)
    LazyLSH(cfg).build(data[:100])  # the parameter tables, outside the timing

    def build():
        return LazyLSH(cfg).build(data)

    index = benchmark.pedantic(build, rounds=3, iterations=1)
    assert index.num_points == 8000
