"""Sharded query service versus the single-process flat engine.

The acceptance workload of the serving layer: a 24-query batch over a
synthetic n=4k, d=16 dataset at k=10, p=0.75, answered by the
single-process ``knn_batch`` path and by :class:`~repro.serve.
ShardedSearchService` at 1, 2 and 4 shards.

The script verifies the merged sharded results are bit-identical to
the flat engine (ids, distances, termination, rounds and simulated
sequential/random I/O), checks one multi-metric wave per shard count
against ``knn_batch(metrics=...)`` the same way, then writes wall-clock, per-shard busy-time
and load-balance-model numbers to
``benchmarks/results/BENCH_serve.json``.

Honesty note: wall-clock speedup from sharding requires one physical
core per worker.  The report records ``host.cpu_count`` next to the
measured wall times and keeps the *modeled* speedup (total shard work
divided by the slowest shard's busy time) separate — measured numbers
are never extrapolated.  See ``repro/serve/bench.py``.

The report also carries a ``telemetry_overhead`` section: interleaved
min-of-N wall times for the same wave with the ops plane off and on
(full per-shard telemetry, slow-query capture, live scraped
``/metrics`` exporter) over one worker fleet — the ≤ 3% overhead
budget is gated in CI by ``benchmarks/obs_smoke.py``.

Run ``--quick`` for a seconds-scale smoke version of the same pipeline
(used by CI; writes ``BENCH_serve.quick.json`` so the checked-in
full-workload numbers are not clobbered).
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro.serve import run_serve_benchmark

FULL = {"n": 4000, "d": 16, "n_queries": 64, "k": 10, "p": 0.75}
QUICK = {"n": 1200, "d": 12, "n_queries": 8, "k": 5, "p": 0.75}

SEED = 7


def run(workload: dict, shard_counts: tuple, out_path: Path) -> dict:
    report = run_serve_benchmark(
        **workload, shard_counts=shard_counts, seed=SEED
    )
    report["python"] = platform.python_version()
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
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts to sweep",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="result JSON path (defaults to benchmarks/results/)",
    )
    args = parser.parse_args()
    workload = QUICK if args.quick else FULL
    shard_counts = tuple(
        int(part) for part in args.shards.split(",") if part.strip()
    )
    default_name = "BENCH_serve.quick.json" if args.quick else "BENCH_serve.json"
    out_path = args.out or Path(__file__).parent / "results" / default_name
    report = run(workload, shard_counts, out_path)
    print(json.dumps(report, indent=2))
    broken = [
        cfg["n_shards"]
        for cfg in report["sharded"]
        if not (cfg["identity"]["all"] and cfg["identity_multi"]["all"])
    ]
    if broken:
        raise SystemExit(
            f"sharded results diverge from the flat engine at "
            f"n_shards={broken}"
        )


if __name__ == "__main__":
    main()
