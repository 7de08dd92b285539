"""LazyLSH: approximate nearest neighbor search for multiple ``lp``
distance functions with a single index.

A from-scratch reproduction of Zheng, Guo, Tung & Wu, SIGMOD 2016.

Quickstart
----------

.. code-block:: python

    import numpy as np
    from repro import LazyLSH, LazyLSHConfig

    data = np.random.default_rng(0).uniform(0, 100, (2000, 32))
    index = LazyLSH(LazyLSHConfig(c=3.0, p_min=0.5, seed=0)).build(data)

    query = data[0]
    result = index.knn(query, k=10, p=0.7)   # approximate 10-NN in l0.7
    print(result.ids, result.distances)
    print(result.io)                          # simulated sequential/random I/O
"""

from repro.api import SearchRequest, SearchResult, aggregate_io
from repro.cluster import FollowerNode, Router, WalShipper
from repro.core.batch import BatchKnnResult, knn_batch
from repro.durability import DurableIndex, WalFeed, WriteAheadLog
from repro.core.config import LazyLSHConfig
from repro.core.lazylsh import LazyLSH, RangeResult
from repro.core.multiquery import MultiQueryEngine, MultiQueryResult
from repro.core.params import MetricParams, ParameterEngine
from repro.errors import (
    DatasetError,
    DimensionalityMismatchError,
    IndexNotBuiltError,
    InvalidParameterError,
    OverloadedError,
    ReproError,
    ServiceUnhealthyError,
    StaleReadError,
    UnavailableError,
    UnsupportedMetricError,
    WalGapError,
    WireFormatError,
)
from repro.metrics.lp import lp_distance, lp_distance_matrix, lp_norm
from repro.obs import (
    GuaranteeAuditor,
    MetricsRegistry,
    ObsExporter,
    QueryTrace,
    SlowQueryLog,
    SpanTracer,
    Telemetry,
)
from repro.serve import Frontend, ShardedSearchService
from repro.storage.io_stats import IOStats

__version__ = "1.0.0"

__all__ = [
    "BatchKnnResult",
    "DatasetError",
    "DimensionalityMismatchError",
    "DurableIndex",
    "FollowerNode",
    "Frontend",
    "GuaranteeAuditor",
    "IOStats",
    "IndexNotBuiltError",
    "InvalidParameterError",
    "LazyLSH",
    "LazyLSHConfig",
    "MetricParams",
    "MetricsRegistry",
    "MultiQueryEngine",
    "MultiQueryResult",
    "ObsExporter",
    "OverloadedError",
    "ParameterEngine",
    "QueryTrace",
    "RangeResult",
    "ReproError",
    "Router",
    "SearchRequest",
    "SearchResult",
    "ServiceUnhealthyError",
    "ShardedSearchService",
    "SlowQueryLog",
    "SpanTracer",
    "StaleReadError",
    "Telemetry",
    "UnavailableError",
    "UnsupportedMetricError",
    "WalFeed",
    "WalGapError",
    "WalShipper",
    "WireFormatError",
    "WriteAheadLog",
    "aggregate_io",
    "knn_batch",
    "lp_distance",
    "lp_distance_matrix",
    "lp_norm",
]
