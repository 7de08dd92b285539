"""One table of bad tuning arguments ("knobs") for every kNN entry point.

``LazyLSH.knn``, ``MultiQueryEngine.knn``, ``knn_batch`` and
``ShardedSearchService.search_batch`` check their knobs with one shared
function, so each case below must raise the same error, with a message
matching the same pattern, at every entry point whose signature admits
its arguments.  A case's ``query`` knob is not an argument: it replaces
one coordinate of the first query row.
"""

from __future__ import annotations

import inspect

import numpy as np

#: Case id -> (knobs, message pattern).  Every case raises
#: ``InvalidParameterError``; each differs from a valid call in one knob.
BAD_KNOBS = {
    "unknown-engine": ({"engine": "warp"}, "engine must be 'flat' or 'scalar'"),
    "cap-below-k": ({"cap": 2}, "candidate cap must be >= k"),
    "radius-not-positive": ({"radius": 0.0}, "radius override must be > 0"),
    "radius-with-metrics": (
        {"metrics": (0.5, 1.0), "radius": 1.0},
        "only supported for single-metric",
    ),
    "p-with-metrics": (
        {"p": 0.5, "metrics": (0.5, 1.0)},
        "either p or metrics, not both",
    ),
    "empty-metrics": ({"metrics": ()}, "metrics must be non-empty"),
    "non-finite-query": ({"query": np.nan}, "non-finite"),
}


def admitted(entry_point) -> list[str]:
    """The case ids whose knobs ``entry_point``'s signature accepts."""
    params = inspect.signature(entry_point).parameters
    return [
        case
        for case, (knobs, _pattern) in BAD_KNOBS.items()
        if all(name == "query" or name in params for name in knobs)
    ]


def bad_call(queries: np.ndarray, case: str) -> tuple[np.ndarray, dict, str]:
    """``(queries, keyword knobs, pattern)`` of one case."""
    knobs, pattern = BAD_KNOBS[case]
    knobs = dict(knobs)
    if "query" in knobs:
        queries = np.array(queries, dtype=np.float64)
        queries[0, 0] = knobs.pop("query")
    return queries, knobs, pattern
