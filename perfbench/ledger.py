"""Per-layer ledger: every workload untraced and traced, side by side.

Run from the repository root::

    python3 perfbench/ledger.py --seed 1 [--seconds 25] [--workload NAME ...]

For each workload it runs ``run.py`` with ``--trace 0`` and ``--trace 1``
and prints one markdown table of end-to-end metrics, one of per-layer
metrics (workloads as columns), and the tracing overhead on
``cpu_ms_per_query``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} trace={trace} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {workload} trace={trace} failed its correctness gate",
              file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def table(columns: dict[str, dict], units: dict[str, str]) -> str:
    head = "| metric | unit | " + " | ".join(columns) + " |"
    rule = "|---|---|" + "---:|" * len(columns)
    rows = [
        f"| `{n}` | {unit} | "
        + " | ".join(f"{col[n]:.4g}" for col in columns.values()) + " |"
        for n, unit in units.items()
    ]
    return "\n".join([head, rule, *rows])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.manifest()["run_seconds"])
    parser.add_argument("--workload", action="append", choices=sorted(spec.workloads()))
    args = parser.parse_args()
    names = args.workload or list(spec.workloads())
    e2e = {w: run(w, args.seed, args.seconds, 0) for w in names}
    layers = {w: run(w, args.seed, args.seconds, 1) for w in names}
    print(table(e2e, spec.units("end_to_end")))
    print()
    print(table(layers, spec.units("per_layer")))
    print()
    for w in names:
        base = e2e[w]["cpu_ms_per_query"]
        traced = layers[w]["trace.cpu_ms_per_query"]
        print(f"tracing overhead on cpu_ms_per_query, {w}: "
              f"{traced:.2f} vs {base:.2f} ms ({(traced / base - 1) * 100:+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
