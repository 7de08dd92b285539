"""Storage backends: mmap vs eager cold start, resident memory, real I/O.

Measures what the zero-copy mmap backend (DESIGN.md section 12) buys and
what it costs, against the eager loader on the same format-v3 file:

* **Cold start** — wall time of ``load_index`` in a fresh process.  The
  eager path reads and materialises every section, so it grows linearly
  with the file; the mmap path only parses the superblock and maps the
  sections, so it stays flat no matter how large the index is.
* **Resident memory** — peak-RSS delta of that fresh process over an
  import-only baseline.  An eager open pays the full index size up
  front; a mapped open pays only the pages the queries actually touch,
  which is how bigger-than-RAM datasets become servable.
* **First-touch vs warm-cache latency** — the first query against a
  mapped index page-faults its search path in; repeats hit the OS page
  cache.  The gap is the real price of lazy loading.
* **Real vs simulated I/O** — ``/proc/self/io`` read bytes and major
  faults alongside the paper's simulated ``PageTracker`` charge, which
  is backend-independent by construction (and asserted identical here).
* **Service start** — ``ShardedSearchService`` construction time over
  the in-memory index and over the mapped one.  Workers attach one way
  either way: each compacts its shard out of a v3 file, a spill of the
  in-memory index or the mapped index's own file.

Every configuration asserts bit-identical kNN answers (ids, distances,
simulated I/O, termination) between the eager and mapped opens, and
between ``index.knn`` and a sharded service over each — the benchmark
doubles as an end-to-end identity check.

Run ``--smoke`` for the seconds-scale CI version (writes
``BENCH_mmap.smoke.json`` so checked-in full numbers are not
clobbered); the full run writes ``BENCH_mmap.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import LazyLSH, LazyLSHConfig
from repro.persistence import load_index, save_index

FULL = {
    "sizes": ((2_000, 16), (8_000, 16), (20_000, 16)),
    "p_min": 0.5,
    "k": 10,
    "p": 1.0,
    "shards": 2,
}
SMOKE = {
    "sizes": ((600, 12), (1_200, 12)),
    "p_min": 0.5,
    "k": 5,
    "p": 1.0,
    "shards": 2,
}

SEED = 7

_CHILD_TEMPLATE = r"""
import json, resource, sys, time

def proc_io():
    try:
        with open("/proc/self/io") as fh:
            return dict(
                (k, int(v)) for k, v in
                (line.strip().split(": ") for line in fh)
            )
    except OSError:
        return dict()

def rss_now_kb():
    # Current resident set, not the ru_maxrss peak: the import
    # transient would otherwise mask small post-import deltas.
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        import os as _os
        return pages * _os.sysconf("SC_PAGE_SIZE") // 1024
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

t0 = time.perf_counter()
import numpy as np
from repro.persistence import load_index
import_seconds = time.perf_counter() - t0
usage = resource.getrusage(resource.RUSAGE_SELF)
baseline_kb = rss_now_kb()
io0, flt0 = proc_io(), usage.ru_majflt

path, backend, k, p = {path!r}, {backend!r}, {k}, {p}
t0 = time.perf_counter()
index = load_index(path, backend=backend)
open_seconds = time.perf_counter() - t0

query = np.array(index.data[0])
t0 = time.perf_counter()
first = index.knn(query, k, p=p)
first_seconds = time.perf_counter() - t0
warm = []
for _ in range(3):
    t0 = time.perf_counter()
    index.knn(query, k, p=p)
    warm.append(time.perf_counter() - t0)

usage = resource.getrusage(resource.RUSAGE_SELF)
io1 = proc_io()
print(json.dumps({{
    "import_seconds": import_seconds,
    "open_seconds": open_seconds,
    "first_query_seconds": first_seconds,
    "warm_query_seconds": min(warm),
    "rss_delta_kb": rss_now_kb() - baseline_kb,
    "peak_rss_kb": usage.ru_maxrss,
    "major_faults": usage.ru_majflt - flt0,
    "read_bytes": io1.get("read_bytes", 0) - io0.get("read_bytes", 0),
    "ids": [int(i) for i in first.ids],
    "distances": [float(d) for d in first.distances],
    "sim_io": {{"sequential": first.io.sequential,
                "random": first.io.random}},
    "termination": first.termination,
    "backend": index.storage_info()["backend"],
}}))
"""


def _run_child(path: Path, backend: str, k: int, p: float) -> dict:
    """Measure one cold open + query in a fresh interpreter."""
    code = _CHILD_TEMPLATE.format(path=str(path), backend=backend, k=k, p=p)
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _evict(path: Path) -> bool:
    """Best-effort page-cache eviction so first-touch faults are real."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        finally:
            os.close(fd)
        return True
    except (OSError, AttributeError):
        return False


def _service_start_seconds(index, n_shards: int) -> float:
    from repro.serve import ShardedSearchService

    t0 = time.perf_counter()
    service = ShardedSearchService(index, n_shards=n_shards)
    elapsed = time.perf_counter() - t0
    service.close()
    return elapsed


def bench_size(n: int, d: int, workload: dict, scratch: Path) -> dict:
    rng = np.random.default_rng(SEED)
    data = rng.standard_normal((n, d))
    index = LazyLSH(
        LazyLSHConfig(p_min=workload["p_min"], seed=SEED, mc_samples=50_000)
    ).build(data)
    path = scratch / f"idx-{n}x{d}.npz"
    save_index(index, path)
    file_bytes = path.stat().st_size

    k, p = workload["k"], workload["p"]
    row = {
        "n": n,
        "d": d,
        "eta": int(index.eta),
        "file_bytes": int(file_bytes),
        "evicted_page_cache": _evict(path),
    }
    row["eager"] = _run_child(path, "eager", k, p)
    _evict(path)
    row["mmap"] = _run_child(path, "mmap", k, p)

    identical = (
        row["eager"]["ids"] == row["mmap"]["ids"]
        and row["eager"]["distances"] == row["mmap"]["distances"]
        and row["eager"]["sim_io"] == row["mmap"]["sim_io"]
        and row["eager"]["termination"] == row["mmap"]["termination"]
    )
    if not identical:
        raise AssertionError(
            f"eager/mmap answers diverged at n={n}: "
            f"{row['eager']['ids']} vs {row['mmap']['ids']}"
        )
    row["identical"] = True

    from repro.serve import ShardedSearchService

    mmap_index = load_index(path, backend="mmap")
    row["service_start"] = {
        "in_memory_seconds": _service_start_seconds(index, workload["shards"]),
        "mapped_seconds": _service_start_seconds(mmap_index, workload["shards"]),
    }
    for label, served in (("in-memory", index), ("mapped", mmap_index)):
        with ShardedSearchService(served, n_shards=workload["shards"]) as svc:
            for query in data[:4]:
                a = index.knn(query, k, p=p)
                b = svc.search(query, k, p=p)
                if not (
                    np.array_equal(a.ids, b.ids)
                    and np.array_equal(a.distances, b.distances)
                    and a.io.sequential == b.io.sequential
                    and a.io.random == b.io.random
                    and a.termination == b.termination
                ):
                    raise AssertionError(
                        f"sharded service over the {label} index diverged "
                        f"from index.knn at n={n}"
                    )
    row["sharded_identical"] = True
    return row


def run_report(workload: dict) -> dict:
    scratch = Path(tempfile.mkdtemp(prefix="bench-mmap-"))
    try:
        rows = [
            bench_size(n, d, workload, scratch)
            for n, d in workload["sizes"]
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": {
            k: [list(s) for s in v] if k == "sizes" else v
            for k, v in workload.items()
        },
        "seed": SEED,
        "python": platform.python_version(),
        "sizes": rows,
    }


def _print_summary(report: dict) -> None:
    for row in report["sizes"]:
        eager, mapped = row["eager"], row["mmap"]
        print(
            f"n={row['n']:6d} file={row['file_bytes'] / 1e6:8.1f} MB | "
            f"open eager {eager['open_seconds'] * 1e3:8.1f} ms / "
            f"mmap {mapped['open_seconds'] * 1e3:6.1f} ms | "
            f"rss eager {eager['rss_delta_kb'] / 1024:7.1f} MB / "
            f"mmap {mapped['rss_delta_kb'] / 1024:6.1f} MB | "
            f"first {mapped['first_query_seconds'] * 1e3:7.1f} ms "
            f"warm {mapped['warm_query_seconds'] * 1e3:6.2f} ms | "
            f"identical={row['identical']}"
        )
        svc = row["service_start"]
        print(
            f"          service start: in-memory "
            f"{svc['in_memory_seconds'] * 1e3:8.1f} ms, mapped "
            f"{svc['mapped_seconds'] * 1e3:8.1f} ms"
        )


def run():
    """run_all.py hook: smoke-scale run rendered as a table."""
    from repro.eval.harness import ResultTable

    report = run_report(SMOKE)
    table = ResultTable(
        "storage backends: eager vs mmap (smoke scale)",
        [
            "n", "file MB", "eager open ms", "mmap open ms",
            "eager RSS MB", "mmap RSS MB", "first ms", "warm ms",
            "identical",
        ],
    )
    for row in report["sizes"]:
        eager, mapped = row["eager"], row["mmap"]
        table.add_row(
            [
                row["n"],
                f"{row['file_bytes'] / 1e6:.1f}",
                f"{eager['open_seconds'] * 1e3:.1f}",
                f"{mapped['open_seconds'] * 1e3:.1f}",
                f"{eager['rss_delta_kb'] / 1024:.1f}",
                f"{mapped['rss_delta_kb'] / 1024:.1f}",
                f"{mapped['first_query_seconds'] * 1e3:.1f}",
                f"{mapped['warm_query_seconds'] * 1e3:.2f}",
                str(row["identical"]),
            ]
        )
    return [table]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale CI version (writes BENCH_mmap.smoke.json)",
    )
    args = parser.parse_args()
    workload = SMOKE if args.smoke else FULL
    report = run_report(workload)
    name = "BENCH_mmap.smoke.json" if args.smoke else "BENCH_mmap.json"
    out_path = Path(__file__).parent / "results" / name
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    _print_summary(report)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
