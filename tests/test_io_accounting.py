"""Cross-cutting tests of the Section 5.2 I/O cost model.

The evaluation's headline numbers are simulated I/O counts, so the
accounting itself deserves direct tests: page-granular sequential
charging, buffer-pool semantics within a query, and the relationships
the paper's figures depend on.
"""

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.core.engine import RingReader
from repro.datasets import make_synthetic, sample_queries
from repro.storage.inverted_index import InvertedListStore
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout


@pytest.fixture(scope="module")
def io_setup():
    data = make_synthetic(1000, 10, value_range=(0, 300), seed=111)
    split = sample_queries(data, n_queries=3, seed=112)
    cfg = LazyLSHConfig(
        c=3.0, p_min=0.8, seed=113, mc_samples=10_000, mc_buckets=60
    )
    return LazyLSH(cfg).build(split.data), split


class TestPageGranularity:
    def test_sequential_io_bounded_by_store_pages(self, io_setup):
        # A query can never charge more unique sequential pages than the
        # whole store holds (per-query buffer pool dedupes re-reads).
        index, split = io_setup
        layout = index.store.layout
        pages_per_function = -(-index.store.num_points // layout.entries_per_page)
        max_pages = index.eta * pages_per_function
        result = index.knn(split.queries[0], 10, p=1.0)
        assert result.io.sequential <= max_pages

    def test_larger_page_size_means_fewer_ios(self):
        data = make_synthetic(2000, 8, value_range=(0, 300), seed=114)
        split = sample_queries(data, n_queries=2, seed=115)
        small = LazyLSH(
            LazyLSHConfig(
                c=3.0, p_min=1.0, seed=1, page_size=1024,
                mc_samples=10_000, mc_buckets=60,
            )
        ).build(split.data)
        large = LazyLSH(
            LazyLSHConfig(
                c=3.0, p_min=1.0, seed=1, page_size=16384,
                mc_samples=10_000, mc_buckets=60,
            )
        ).build(split.data)
        io_small = small.knn(split.queries[0], 5, p=1.0).io.sequential
        io_large = large.knn(split.queries[0], 5, p=1.0).io.sequential
        assert io_large < io_small

    def test_index_size_scales_with_entry_size(self):
        hash_values = np.zeros((4, 1000), dtype=np.int64)
        thin = InvertedListStore(hash_values, PageLayout(entry_size=4))
        fat = InvertedListStore(hash_values, PageLayout(entry_size=16))
        assert fat.size_bytes() > thin.size_bytes()


class TestBufferPoolSemantics:
    def test_window_reread_within_query_free(self):
        hash_values = np.arange(1000, dtype=np.int64)[None, :]
        store = InvertedListStore(hash_values)
        stats = IOStats()
        reader = RingReader(store, 1)
        reader.read(np.array([0]), np.array([400]))
        reader.take(0, stats)
        first = stats.sequential
        # A narrower window is read whole, its pages all cached.
        reader.read(np.array([100]), np.array([300]))
        assert reader.take(0, stats).size == 201
        assert stats.sequential == first

    def test_distinct_queries_do_not_share_cache(self, io_setup):
        index, split = io_setup
        a = index.knn(split.queries[0], 5, p=1.0)
        b = index.knn(split.queries[0], 5, p=1.0)
        # Same query re-run pays full price again: the pool is per-query.
        assert b.io.sequential == a.io.sequential


class TestFigureRelationships:
    def test_fractional_query_costs_more(self, io_setup):
        # The Figure 9 relationship on a fresh small index.
        index, split = io_setup
        io_low = np.mean(
            [index.knn(q, 10, p=0.8).io.total for q in split.queries]
        )
        io_base = np.mean(
            [index.knn(q, 10, p=1.0).io.total for q in split.queries]
        )
        assert io_low > io_base

    def test_eta_subset_used_per_metric(self, io_setup):
        # Metrics closer to the base consult fewer hash functions, which
        # is why their sequential I/O is lower.
        index, _split = io_setup
        assert index.metric_params(1.0).eta < index.metric_params(0.8).eta
