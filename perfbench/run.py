"""LazyLSH benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload engine-batch --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` re-runs the
workload with spans around every layer call and reports the per-layer
metrics instead, writing the spans as JSONL under ``perfbench/out/``.
The last line of standard output is the result as one JSON object;
the lines before it are a readable summary, the host and provenance
stamp and (traced) the per-layer self-time table.

Workloads, metric names and units come from ``BENCHMARK.json``; see
``NOTES.md`` for what each workload stresses and bypasses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def source_digest(src: Path) -> str:
    """sha1 over every ``.py`` file of the program, path and bytes."""
    h = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "why": spec.workloads()[workload],
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
        "source_sha1": source_digest(ROOT / "src"),
    }


def print_layer_table(table: dict) -> None:
    print(f"{'span':<24}{'count':>7}{'total_ms':>12}{'self_ms':>12}{'cpu_ms':>12}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{name:<24}{row['count']:>7}{row['total_ms']:>12.1f}"
              f"{row['self_ms']:>12.1f}{row['cpu_ms']:>12.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.workloads()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import proctree
    import tracing
    import workloads

    # SIGTERM unwinds like an exception, so every path out stops the children.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    stamp = provenance(args.workload, args.seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ctx = workloads.Context(args.seed, args.seconds, bool(args.trace), out_dir)
    try:
        outcome = workloads.RUNNERS[args.workload](ctx)
    finally:
        proctree.stop_children()
    stamp["loadavg_after"] = list(os.getloadavg())

    print("provenance " + json.dumps(stamp))
    attempted = max(outcome.attempted, 1)
    summary = dict(outcome.notes, error_rate=outcome.failed / attempted,
                   failures=outcome.failures)
    print("summary " + json.dumps(summary))
    if args.trace:
        spans = outcome.recorder.spans
        path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        outcome.recorder.write_jsonl(path)
        print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
        print_layer_table(tracing.fold(spans))
        values, units = outcome.per_layer, spec.units("per_layer")
    else:
        values, units = outcome.end_to_end, spec.units("end_to_end")
    for name, unit in units.items():
        print(f"{name:<40}{values[name]:>14.4f} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
