"""Shared set-up of every workload, and the benchmark's manifest.

``BENCHMARK.json`` at the repository root is the one record of the
workloads (and why each exists), of every metric with its unit, and of
``run_seconds``; :func:`manifest` reads it.  ``NOTES.md`` says which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

N_POINTS = 8000
DIM = 16
#: The data set is fixed, like the paper's: ``make_synthetic`` with this
#: seed, N_POINTS indexed rows and QUERY_POOL held-out rows after them.
#: ``--seed`` draws each workload's traffic (order, timing, writes).
DATA_SEED = 0
QUERY_POOL = 1024
K = 10
METRICS = (0.5, 0.8, 1.0)
CONFIG = {"c": 3.0, "p_min": 0.5, "mc_samples": 20_000, "mc_buckets": 100}
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@functools.cache
def manifest() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(MANIFEST.read_text())


def units(kind: str) -> dict[str, str]:
    """Metric name to unit, for ``"end_to_end"`` or ``"per_layer"``."""
    return {m["name"]: m["unit"] for m in manifest()[kind]}


def workloads() -> dict[str, str]:
    """Workload name to why it exists."""
    return {w["name"]: w["why"] for w in manifest()["workloads"]}
