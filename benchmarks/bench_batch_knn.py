"""Flat-engine batch kNN throughput versus the looped scalar path.

The acceptance workload of the flat execution engine: a 64-query batch
over a synthetic n=10k, d=50 dataset at k=10, p=0.5, answered

* by the seed scalar path, one ``index.knn(..., engine="scalar")`` call
  per query, and
* by one round-synchronised ``knn_batch`` call on the flat engine.

The script verifies the two plans return bit-identical results and
identical per-query I/O counts, then writes wall-clock / throughput /
I/O numbers to ``benchmarks/results/BENCH_batch_knn.json``.

A multi-metric pass then answers the same batch under
``metrics=(0.5, 0.8, 1.0)`` (one Section 4.3 shared scan per query) on
both engines.  It fails unless the two are bit-identical with identical
per-query I/O, and unless every lane equals the single-metric flat run
of its ``(query, p)`` in ids, distances, rounds, termination,
candidates and every round's level and radius: every lane walks one
radius schedule.

Run ``--quick`` for a seconds-scale smoke version of the same pipeline
(used by CI; writes ``BENCH_batch_knn.quick.json`` so the checked-in
full-workload numbers are not clobbered).

``--trace`` additionally re-runs the flat plan with telemetry enabled,
writes one structured :class:`~repro.obs.QueryTrace` per query next to
the result JSON (``*.trace.jsonl``), checks every trace's per-round I/O
deltas sum exactly to the untraced run's totals, and reports the traced
run's overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

import numpy as np

from repro import LazyLSH, LazyLSHConfig, Telemetry, knn_batch
from repro.datasets import make_synthetic, sample_queries
from repro.eval.harness import Timer, time_knn_batch
from repro.obs import load_traces_jsonl, summarize_traces, write_traces_jsonl

FULL = {"n": 10_000, "d": 50, "k": 10, "p": 0.5, "n_queries": 64}
QUICK = {"n": 2_000, "d": 20, "k": 10, "p": 0.5, "n_queries": 16}

#: The multi-metric pass's metrics.
METRICS = (0.5, 0.8, 1.0)

MC_SAMPLES = 50_000
MC_BUCKETS = 150
SEED = 7


def _results_match(scalar, flat) -> tuple[bool, bool]:
    """(results bit-identical, per-query I/O identical) across the batch."""
    same_results = all(
        np.array_equal(a.ids, b.ids)
        and np.array_equal(a.distances, b.distances)
        and a.rounds == b.rounds
        and a.candidates == b.candidates
        for a, b in zip(scalar, flat)
    )
    same_io = all(
        a.io.sequential == b.io.sequential and a.io.random == b.io.random
        for a, b in zip(scalar, flat)
    )
    return same_results, same_io


def _same_lane(single, lane) -> bool:
    """A single-metric result and a multi-metric lane of one ``(query,
    p)`` agree in everything but the I/O attribution."""
    return (
        np.array_equal(single.ids, lane.ids)
        and np.array_equal(single.distances, lane.distances)
        and (single.rounds, single.termination, single.candidates)
        == (lane.rounds, lane.termination, lane.candidates)
        and [(r.level, r.radius) for r in single.trace.rounds]
        == [(r.level, r.radius) for r in lane.trace.rounds]
    )


def _multi_metric_pass(index, split, k: int) -> dict:
    """``knn_batch(metrics=METRICS)`` on both engines, checked.

    Raises unless flat and scalar are bit-identical with identical
    per-query I/O, and unless each lane equals the single-metric flat
    run of its ``(query, p)`` (:func:`_same_lane`).
    """
    with Timer() as t_scalar:
        scalar = knn_batch(index, split.queries, k, metrics=METRICS, engine="scalar")
    flat, t_flat = time_knn_batch(index, split.queries, k, metrics=METRICS)
    for p in METRICS:
        same_results, same_io = _results_match(
            [row[p] for row in scalar], [row[p] for row in flat]
        )
        if not (same_results and same_io):
            raise AssertionError(
                f"multi-metric flat engine diverges from the scalar path at p={p}"
            )
        singles = knn_batch(index, split.queries, k, p=p)
        for j, (single, row) in enumerate(zip(singles, flat)):
            if not _same_lane(single, row[p]):
                raise AssertionError(
                    f"query {j}: the p={p} lane of the multi-metric run "
                    "diverges from the single-metric run"
                )
    return {
        "metrics": list(METRICS),
        "scalar": {
            "seconds": round(t_scalar.seconds, 4),
            "io": {"sequential": scalar.io.sequential, "random": scalar.io.random},
        },
        "flat": {
            "seconds": round(t_flat, 4),
            "io": {"sequential": flat.io.sequential, "random": flat.io.random},
        },
        "bit_identical_results": True,
        "per_query_io_identical": True,
        "lanes_equal_single_metric": True,
    }


def _traced_run(index, split, workload: dict, flat, t_flat: float, out_path: Path) -> dict:
    """Re-run the flat plan with telemetry; verify and export the records.

    Every query's record (``result.trace``) must sum its per-round I/O
    deltas to the untraced run's per-query totals *exactly* — the
    record is an audit log of the simulated cost model, not a sample.
    """
    k, p = workload["k"], workload["p"]
    telemetry = Telemetry()
    traced, t_traced = time_knn_batch(
        index, split.queries, k, p=p, telemetry=telemetry
    )
    traces = [result.trace for result in traced.results]
    for j, (trace, untraced_result) in enumerate(zip(traces, flat.results)):
        delta_sum = trace.io_delta_sum()
        if (
            delta_sum.sequential != untraced_result.io.sequential
            or delta_sum.random != untraced_result.io.random
        ):
            raise AssertionError(
                f"query {j}: trace I/O delta sum {delta_sum} != untraced "
                f"totals {untraced_result.io}"
            )
    trace_path = out_path.parent / (out_path.stem + ".trace.jsonl")
    write_traces_jsonl(traces, trace_path)
    load_traces_jsonl(trace_path)  # schema round-trip
    return {
        "path": str(trace_path),
        "traces": len(traces),
        "seconds": round(t_traced, 4),
        "overhead_vs_untraced": round(t_traced / t_flat - 1.0, 4),
        "terminations": summarize_traces(traces)["terminations"],
    }


def run(workload: dict, out_path: Path, trace: bool = False) -> dict:
    n, d, k, p = workload["n"], workload["d"], workload["k"], workload["p"]
    n_queries = workload["n_queries"]
    data = make_synthetic(n, d, seed=SEED)
    split = sample_queries(data, n_queries=n_queries, seed=SEED + 1)
    cfg = LazyLSHConfig(
        c=3.0, p_min=0.5, seed=SEED, mc_samples=MC_SAMPLES, mc_buckets=MC_BUCKETS
    )
    index = LazyLSH(cfg).build(split.data)
    index.metric_params(p)  # warm the offline parameter tables

    with Timer() as t_scalar:
        scalar = knn_batch(index, split.queries, k, p=p, engine="scalar")
    flat, t_flat = time_knn_batch(index, split.queries, k, p=p)

    same_results, same_io = _results_match(scalar.results, flat.results)
    if not same_results:
        raise AssertionError("flat engine results diverge from the scalar path")
    if not same_io:
        raise AssertionError("flat engine per-query I/O diverges from the scalar path")

    speedup = t_scalar.seconds / t_flat
    multi_report = _multi_metric_pass(index, split, k)
    traced_report = (
        _traced_run(index, split, workload, flat, t_flat, out_path)
        if trace
        else None
    )
    report = {
        "workload": {**workload, "eta": index.eta, "c": cfg.c},
        "scalar": {
            "seconds": round(t_scalar.seconds, 4),
            "queries_per_second": round(n_queries / t_scalar.seconds, 2),
            "io": {"sequential": scalar.io.sequential, "random": scalar.io.random},
        },
        "flat": {
            "seconds": round(t_flat, 4),
            "queries_per_second": round(n_queries / t_flat, 2),
            "io": {"sequential": flat.io.sequential, "random": flat.io.random},
        },
        "speedup": round(speedup, 2),
        "bit_identical_results": same_results,
        "per_query_io_identical": same_io,
        "multi_metric": multi_report,
        "python": platform.python_version(),
    }
    if traced_report is not None:
        report["traced"] = traced_report
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-scale smoke workload (CI)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="re-run the flat plan with telemetry; write QueryTrace JSONL",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="result JSON path (defaults to benchmarks/results/)",
    )
    args = parser.parse_args()
    workload = QUICK if args.quick else FULL
    default_name = (
        "BENCH_batch_knn.quick.json" if args.quick else "BENCH_batch_knn.json"
    )
    out_path = args.out or Path(__file__).parent / "results" / default_name
    report = run(workload, out_path, trace=args.trace)
    print(json.dumps(report, indent=2))
    if not args.quick and report["speedup"] < 5.0:
        raise SystemExit(
            f"flat-engine speedup {report['speedup']}x below the 5x target"
        )


if __name__ == "__main__":
    main()
