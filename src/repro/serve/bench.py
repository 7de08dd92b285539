"""Benchmark harness for the sharded query service (honest numbers).

Measures, for a sweep of shard counts, what serving a query batch
through :class:`~repro.serve.ShardedSearchService` costs next to the
single-process ``knn_batch`` engine on the same queries, and verifies
bit-identity of the merged results.  The headline figures are CPU
seconds per query, comparable even on a host with fewer cores than
workers: the shard workers' in-op process time (``service.cpu_seconds``,
summed), the coordinator's, and ``knn_batch``'s
(``worker_cpu_vs_knn_batch`` is the ratio).  ``modeled_speedup`` is the
load-balance bound total worker CPU / the busiest shard's.  Each figure
is the fastest of ``_REPEATS`` identical waves (and ``knn_batch``
calls).  Wall-clock times are reported next to ``host.cpu_count`` and
never extrapolated: a wall-clock speedup needs one core per worker.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.batch import knn_batch
from repro.core.config import LazyLSHConfig
from repro.core.lazylsh import LazyLSH
from repro.serve.service import ShardedSearchService

#: Identical waves (and ``knn_batch`` calls) per measurement; the
#: fastest one is reported.
_REPEATS = 3

#: Metrics of the one Section 4.3 multi-metric wave checked per shard
#: count against ``knn_batch(metrics=...)``.
_MULTI_METRICS = (0.5, 0.75, 1.0)


def _results_match(single, sharded) -> dict:
    """Field-by-field bit-identity comparison of two result lists."""
    checks = {
        "ids": True,
        "distances": True,
        "io_sequential": True,
        "io_random": True,
        "termination": True,
        "rounds": True,
        "candidates": True,
        "shard_io_sums": True,
    }
    for a, b in zip(single, sharded):
        checks["ids"] &= bool(np.array_equal(a.ids, b.ids))
        checks["distances"] &= bool(np.array_equal(a.distances, b.distances))
        checks["io_sequential"] &= a.io.sequential == b.io.sequential
        checks["io_random"] &= a.io.random == b.io.random
        checks["termination"] &= a.termination == b.termination
        checks["rounds"] &= a.rounds == b.rounds
        checks["candidates"] &= a.candidates == b.candidates
        checks["shard_io_sums"] &= (
            sum(s.random for s in b.shard_io) == b.io.random
        )
    checks["all"] = all(checks.values())
    return checks


def _measure_telemetry_overhead(
    index,
    queries: np.ndarray,
    k: int,
    p: float,
    *,
    n_shards: int,
    start_method: str | None,
    repeats: int = 5,
    intelligence: bool = False,
) -> dict:
    """Exporter-off vs exporter-on cost over the same worker fleet.

    One service answers the same wave with the ops plane off and with
    it on (telemetry + slow-query log + a live scraped exporter),
    *interleaved* off/on so host drift hits both sides equally, and
    using one fleet for both sides removes worker start-up variance
    from the comparison.  The headline ``overhead_fraction`` compares
    *CPU seconds* per wave — the coordinator's ``process_time`` delta
    (which includes exporter and profiler threads) plus every worker's
    in-op ``process_time`` delta — summed over all repeats.  CPU time
    counts the work the ops plane actually adds while staying immune
    to scheduler preemption, which on a busy single-core host perturbs
    wall-clock waves by tens of percent and would drown a ~1%
    marginal.  CPU seconds still drift with effective CPU speed
    (frequency scaling, cache pollution from a noisy neighbour), so
    each repeat also runs a bare *placebo* wave: ``placebo_fraction``
    is the off-vs-off "overhead" the estimator reports for two
    identical workloads, i.e. the host's current noise floor.  Gates
    should treat an overhead reading as unresolvable when the placebo
    exceeds their threshold — on a quiet host the placebo sits near
    zero and the gate keeps its teeth.  The fastest off/on wall-clock
    waves are still reported alongside for context.

    Both sides build every query's record (every run does); the "on"
    side publishes them.  ``intelligence=True`` additionally arms the
    workload-intelligence plane on the "on" side: workload sketches fed
    per query, the EXPLAIN view (``to_dict()``) of every result's
    record, and the continuous sampling profiler
    running throughout each timed "on" wave (started/stopped outside
    the timed window so thread spawn transients don't pollute the
    steady-state number).
    """
    import urllib.request

    from repro.obs import ObsExporter, SlowQueryLog, Telemetry

    slowlog = SlowQueryLog(capacity=32)
    telemetry = Telemetry(slowlog=slowlog)
    profiler = None
    if intelligence:
        from repro.obs import ContinuousProfiler, WorkloadAnalytics

        telemetry.workload = WorkloadAnalytics(registry=telemetry.registry)
        profiler = ContinuousProfiler(registry=telemetry.registry)
    with ShardedSearchService(
        index, n_shards=n_shards, start_method=start_method
    ) as service:
        exporter = ObsExporter(
            telemetry.registry,
            health=service.health,
            slowlog=slowlog,
            profiler=profiler,
        ).start()
        try:
            service.search_batch(queries, k, p=p)  # warm (full wave)

            def wave_cpu(run) -> float:
                """CPU seconds for one wave: coordinator + all workers."""
                workers0 = sum(service.cpu_seconds)
                parent0 = time.process_time()
                run()
                parent = time.process_time() - parent0
                return parent + sum(service.cpu_seconds) - workers0

            def explain(results: list) -> None:
                """The EXPLAIN view of every result, on the intelligence side."""
                if intelligence:
                    for result in results:
                        result.trace.to_dict()

            off_times = []
            on_times = []
            off_cpu = on_cpu = placebo_cpu = 0.0
            for _ in range(repeats):
                t0 = time.perf_counter()
                off_cpu += wave_cpu(
                    lambda: service.search_batch(queries, k, p=p)
                )
                off_times.append(time.perf_counter() - t0)
                # Placebo wave: a second bare wave right after the
                # baseline one.  Its CPU should match the baseline's,
                # so the off->placebo "overhead" measures how much this
                # estimator is perturbed by the host right now.
                placebo_cpu += wave_cpu(
                    lambda: service.search_batch(queries, k, p=p)
                )
                if profiler is not None:
                    profiler.start()
                t0 = time.perf_counter()
                on_cpu += wave_cpu(lambda: explain(
                    service.search_batch(queries, k, p=p, telemetry=telemetry)
                ))
                on_times.append(time.perf_counter() - t0)
                if profiler is not None:
                    profiler.stop()
            with urllib.request.urlopen(
                exporter.url + "/metrics", timeout=5
            ) as fh:
                scrape_ok = fh.status == 200 and b"lazylsh" in fh.read()
        finally:
            if profiler is not None:
                profiler.stop()
            exporter.stop()
    return {
        "n_shards": n_shards,
        "repeats": repeats,
        "intelligence": bool(intelligence),
        "exporter_off_seconds": min(off_times),
        "exporter_on_seconds": min(on_times),
        "off_cpu_seconds": off_cpu,
        "on_cpu_seconds": on_cpu,
        "placebo_cpu_seconds": placebo_cpu,
        "overhead_fraction": (on_cpu - off_cpu) / off_cpu if off_cpu else None,
        "placebo_fraction": (
            (placebo_cpu - off_cpu) / off_cpu if off_cpu else None
        ),
        "scrape_ok": bool(scrape_ok),
        "note": (
            "CPU seconds (coordinator process time + worker in-op "
            "process time) summed over interleaved identical waves, "
            "off vs on, over one worker fleet, with a bare placebo "
            "wave per repeat calibrating the host's noise floor; 'on' "
            "runs full per-shard telemetry, slow-query capture and a "
            "live /metrics exporter"
            + (
                ", plus workload sketches, per-result EXPLAIN and the "
                "continuous sampling profiler"
                if intelligence
                else ""
            )
        ),
    }


def run_serve_benchmark(
    *,
    n: int = 4000,
    d: int = 16,
    n_queries: int = 24,
    k: int = 10,
    p: float = 0.75,
    shard_counts: tuple = (1, 2, 4),
    seed: int = 7,
    start_method: str | None = None,
) -> dict:
    """Run the serve benchmark; returns a JSON-serialisable report."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    queries = rng.normal(size=(n_queries, d))
    cfg = LazyLSHConfig(
        c=3.0, p_min=0.5, seed=seed, mc_samples=50_000, mc_buckets=150
    )
    index = LazyLSH(cfg).build(data)

    single_seconds = single_cpu = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        c0 = time.process_time()
        baseline = knn_batch(index, queries, k, p=p)
        single_cpu = min(single_cpu, time.process_time() - c0)
        single_seconds = min(single_seconds, time.perf_counter() - t0)
    single = baseline.results
    single_cpu_per_query = single_cpu / n_queries
    single_multi = [
        row[q] for row in knn_batch(index, queries, k, metrics=_MULTI_METRICS)
        for q in _MULTI_METRICS
    ]

    configs = []
    for n_shards in shard_counts:
        with ShardedSearchService(
            index, n_shards=n_shards, start_method=start_method
        ) as service:
            # Warm wave: absorbs worker start-up/page-in effects so the
            # measured waves reflect steady-state serving.
            service.search_batch(queries[:1], k, p=p)
            best = None
            for _ in range(_REPEATS):
                cpu_before = list(service.cpu_seconds)
                t0 = time.perf_counter()
                c0 = time.process_time()
                results = service.search_batch(queries, k, p=p)
                coordinator = time.process_time() - c0
                wall = time.perf_counter() - t0
                cpu = [
                    after - before
                    for after, before in zip(service.cpu_seconds, cpu_before)
                ]
                if best is None or sum(cpu) < sum(best[2]):
                    best = (wall, coordinator, cpu, results)
            multi = [
                row[q]
                for row in service.search_batch(
                    queries, k, metrics=_MULTI_METRICS
                )
                for q in _MULTI_METRICS
            ]
            stats = service.stats()
        assert best is not None
        wall, coordinator, cpu, results = best
        total_cpu = float(sum(cpu))
        critical_path = float(max(cpu))
        worker_per_query = total_cpu / n_queries
        configs.append(
            {
                "n_shards": int(stats["n_shards"]),
                "wall_seconds": wall,
                "queries_per_second": n_queries / wall if wall else None,
                "wall_speedup_vs_single": single_seconds / wall
                if wall
                else None,
                "worker_cpu_seconds_per_query": worker_per_query,
                "coordinator_cpu_seconds_per_query": coordinator / n_queries,
                "worker_cpu_vs_knn_batch": worker_per_query
                / single_cpu_per_query,
                "cpu_seconds_per_shard": cpu,
                "total_cpu_seconds": total_cpu,
                "critical_path_cpu_seconds": critical_path,
                "modeled_speedup": total_cpu / critical_path
                if critical_path
                else None,
                "parallel_efficiency": (
                    total_cpu / critical_path / stats["n_shards"]
                    if critical_path
                    else None
                ),
                "shard_points": stats["shard_points"],
                "restarts": stats["restarts"],
                "identity": _results_match(single, results),
                "identity_multi": _results_match(single_multi, multi),
            }
        )

    overhead = _measure_telemetry_overhead(
        index,
        queries,
        k,
        p,
        n_shards=max(shard_counts),
        start_method=start_method,
    )

    return {
        "bench": "serve",
        "workload": {
            "n": n,
            "d": d,
            "n_queries": n_queries,
            "k": k,
            "p": p,
            "seed": seed,
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "start_method": start_method or "default",
        },
        "single_process": {
            "wall_seconds": single_seconds,
            "queries_per_second": n_queries / single_seconds
            if single_seconds
            else None,
            "cpu_seconds_per_query": single_cpu_per_query,
            "io_total": baseline.io.to_dict(),
        },
        "sharded": configs,
        "telemetry_overhead": overhead,
        "note": (
            "Results and simulated I/O are verified bit-identical to the "
            "single-process flat engine (identity), and one multi-metric "
            f"wave over p in {list(_MULTI_METRICS)} per metric to "
            "knn_batch(metrics=...) (identity_multi). CPU figures are the fastest of "
            f"{_REPEATS} identical waves (knn_batch calls); modeled_speedup "
            "is the load-balance bound total worker CPU / the busiest "
            "shard's CPU, and realising it as wall-clock speedup requires "
            "at least n_shards physical cores (see host.cpu_count). "
            "Measured wall times are reported as-is and never extrapolated."
        ),
    }
