"""Core LazyLSH engine: parameter theory (Sec. 3) and query processing
(Sec. 4) on top of the :mod:`repro.metrics` and :mod:`repro.storage`
substrates.
"""

from repro.core.batch import BatchKnnResult, knn_batch
from repro.core.config import LazyLSHConfig
from repro.core.lazylsh import LazyLSH, RangeResult
from repro.core.montecarlo import BallIntersectionTable, estimate_ball_intersection
from repro.core.multiquery import MultiQueryEngine, MultiQueryResult
from repro.core.params import MetricParams, ParameterEngine

__all__ = [
    "BallIntersectionTable",
    "BatchKnnResult",
    "LazyLSH",
    "LazyLSHConfig",
    "MetricParams",
    "MultiQueryEngine",
    "MultiQueryResult",
    "ParameterEngine",
    "RangeResult",
    "estimate_ball_intersection",
    "knn_batch",
]
