"""Sharded parallel query serving for a built LazyLSH index.

The package splits the flat-array inverted index into contiguous
point-id shards, one per persistent worker process that compacts its
shard out of a v3 file of the current index, and merges per-shard scans
into results — ids, distances, termination and simulated I/O — that are
bit-identical to the single-process engine's (see
``repro.serve.service`` for the argument).

Entry points: :class:`ShardedSearchService` (the coordinator),
:class:`Frontend` (the async HTTP front door with admission control,
request coalescing and an epoch-invalidated result cache),
:func:`plan_shards`/:class:`ShardSpec` (shard layout and the worker
attach spec), :class:`ShardSearcher`/:func:`worker_main` (the worker
process body) and :func:`run_serve_benchmark` (the honest-numbers
benchmark that ``benchmarks/bench_serve.py`` runs).
"""

from repro.serve.bench import run_serve_benchmark
from repro.serve.frontend import HTTP_STATUS_BY_CODE, Frontend
from repro.serve.service import ShardedSearchService
from repro.serve.sharding import ShardSpec, plan_shards
from repro.serve.worker import ShardSearcher, worker_main

__all__ = [
    "Frontend",
    "HTTP_STATUS_BY_CODE",
    "ShardSearcher",
    "ShardSpec",
    "ShardedSearchService",
    "plan_shards",
    "run_serve_benchmark",
    "worker_main",
]
