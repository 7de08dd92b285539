"""Figure 11: overall ratio versus k in the l0.5 space.

LazyLSH versus C2LSH (l1 index + lp re-rank) versus SRS (l2 index + lp
re-rank) over the four (simulated) real datasets.  The paper reports
LazyLSH consistently below 1.02 and the single-space baselines worse in
the fractional space — they optimise the wrong metric.

Scale caveat (see EXPERIMENTS.md): at this bench's reduced cardinality
C2LSH's k+100 re-rank pool covers several *percent* of the database
(versus ~0.005% at paper scale), which makes its l1-pool re-rank nearly
exact and erases the deficit the paper measures.  The assertions
therefore check what survives the scale-down: LazyLSH's absolute quality
(ratio ~1.02-1.05, the paper's level), its clear win over the l2-based
SRS, and near-parity with C2LSH.
"""

import numpy as np

from bench_common import (
    c2lsh_index,
    dataset_split,
    ground_truth,
    lazy_index,
    print_tables,
    srs_index,
)
from repro.eval import overall_ratio
from repro.eval.harness import ResultTable

DATASETS = ("inria", "sun", "labelme", "mnist")
K_SWEEP = (10, 40, 70, 100)
P = 0.5


def _avg_ratio(engine, name: str, k: int) -> float:
    split = dataset_split(name)
    _, true_dists = ground_truth(name, k, P)
    ratios = []
    for qi, query in enumerate(split.queries):
        result = engine.knn(query, k, p=P)
        ratios.append(overall_ratio(result.distances, true_dists[qi]))
    return float(np.mean(ratios))


def run() -> list[ResultTable]:
    tables = []
    for name in DATASETS:
        lazy = lazy_index(name)
        c2 = c2lsh_index(name)
        srs = srs_index(name)
        table = ResultTable(
            f"Figure 11 ({name}): avg overall ratio vs k (l{P:g})",
            ["k", "LazyLSH", "C2LSH", "SRS"],
        )
        for k in K_SWEEP:
            table.add_row(
                [
                    k,
                    round(_avg_ratio(lazy, name, k), 4),
                    round(_avg_ratio(c2, name, k), 4),
                    round(_avg_ratio(srs, name, k), 4),
                ]
            )
        tables.append(table)
    return tables


def test_fig11_ratio_vs_k(benchmark, capsys):
    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    print_tables(capsys, tables)
    for table in tables:
        lazy_ratios = [row[1] for row in table.rows]
        c2_ratios = [row[2] for row in table.rows]
        srs_ratios = [row[3] for row in table.rows]
        # LazyLSH stays accurate in the fractional space.
        assert max(lazy_ratios) < 1.10
        # ...and beats the l2-based SRS on average.
        assert np.mean(lazy_ratios) <= np.mean(srs_ratios) + 1e-6
        # Near-parity with C2LSH at this scale (see module docstring).
        assert np.mean(lazy_ratios) <= np.mean(c2_ratios) + 0.05


if __name__ == "__main__":
    for table in run():
        print(table.render())
        print()
