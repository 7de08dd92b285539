"""Figure 16 (Appendix B.2): query time versus dimensionality.

Synthetic |D|=4k data, d sweeping 100..1600, multi-query batches (six
metrics) versus the linear scan.  The paper reports the scan's time
growing linearly with d while LazyLSH's stays roughly level (the number
of required hash functions even falls with d, Table 5b), so LazyLSH's
speed-up widens with dimensionality.
"""

import numpy as np

from bench_common import MC_BUCKETS, MC_SAMPLES, P_SWEEP, print_tables
from repro import LazyLSH, LazyLSHConfig, MultiQueryEngine
from repro.baselines import LinearScan
from repro.datasets import make_synthetic, sample_queries
from repro.eval.harness import ResultTable, Timer

N = 4000
D_SWEEP = (100, 200, 400, 800, 1600)
C = 4.0
K = 100
N_QUERIES = 3


def run() -> list[ResultTable]:
    table = ResultTable(
        f"Figure 16: avg multi-query time (s) vs d, |D|={N}, c={int(C)}, k={K}",
        ["d", "LazyLSH (6 metrics)", "linear scan (6 metrics)"],
    )
    for d in D_SWEEP:
        data = make_synthetic(N, d, seed=3)
        split = sample_queries(data, n_queries=N_QUERIES, seed=4)
        cfg = LazyLSHConfig(
            c=C, p_min=0.5, seed=7, mc_samples=MC_SAMPLES, mc_buckets=MC_BUCKETS
        )
        index = LazyLSH(cfg).build(split.data)
        engine = MultiQueryEngine(index)
        scan = LinearScan(split.data)
        # Warm the per-metric parameter tables (offline precomputation).
        for p in P_SWEEP:
            index.metric_params(p)
        lazy_times, scan_times = [], []
        for query in split.queries:
            with Timer() as t_lazy:
                engine.knn(query, K, metrics=P_SWEEP)
            lazy_times.append(t_lazy.seconds)
            with Timer() as t_scan:
                for p in P_SWEEP:
                    scan.knn(query, K, p=p)
            scan_times.append(t_scan.seconds)
        table.add_row(
            [
                d,
                round(float(np.mean(lazy_times)), 3),
                round(float(np.mean(scan_times)), 3),
            ]
        )
    return [table]


def test_fig16_time_vs_dim(benchmark, capsys):
    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    print_tables(capsys, tables)
    rows = tables[0].rows
    scan_times = [row[2] for row in rows]
    lazy_times = [row[1] for row in rows]
    # The scan's cost grows strongly with d (near-linear).
    assert scan_times[-1] > 4.0 * scan_times[0]
    # LazyLSH's growth is much flatter: its d=1600/d=100 factor is well
    # below the scan's.
    lazy_growth = lazy_times[-1] / max(lazy_times[0], 1e-4)
    scan_growth = scan_times[-1] / max(scan_times[0], 1e-4)
    assert lazy_growth < scan_growth
    # The speed-up over scanning widens with dimensionality.
    speedup_low = scan_times[0] / max(lazy_times[0], 1e-4)
    speedup_high = scan_times[-1] / max(lazy_times[-1], 1e-4)
    assert speedup_high > speedup_low


if __name__ == "__main__":
    for table in run():
        print(table.render())
        print()
