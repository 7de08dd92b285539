"""Opening a saved index: cold start, resident memory, real I/O.

``load_index`` maps a format-v3 file (DESIGN.md section 12).  This
measures what that open costs and what the mapping does at query time:

* **Cold start** — wall time of ``load_index`` in a fresh process.  The
  open only parses the superblock and maps the sections, so it stays
  flat no matter how large the index is.
* **Resident memory** — RSS delta of that fresh process over an
  import-only baseline, after one query and three repeats: the open
  pays only the pages the queries touch, which is how bigger-than-RAM
  datasets become servable.
* **First-touch vs warm-cache latency** — the first query page-faults
  its search path in; repeats hit the OS page cache.  The gap is the
  real price of lazy loading.
* **Real vs simulated I/O** — ``/proc/self/io`` read bytes and major
  faults beside the paper's simulated ``PageTracker`` charge, which
  does not depend on how the runs are held (asserted here).
* **Service start** — ``ShardedSearchService`` construction time over
  the built index and over the opened one (median of alternating
  starts).  Workers attach one way either way: each compacts its
  shard out of a v3 spill the service writes of its current index.

Every configuration asserts bit-identical kNN answers (ids, distances,
simulated I/O, termination) between the opened index and the index it
was saved from, and between ``index.knn`` and a sharded service over
each — the benchmark doubles as an end-to-end identity check.

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

path, k, p = {path!r}, {k}, {p}
t0 = time.perf_counter()
index = load_index(path)
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


def _run_child(path: Path, k: int, p: float) -> dict:
    """Measure one cold open + query in a fresh interpreter."""
    code = _CHILD_TEMPLATE.format(path=str(path), k=k, p=p)
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


#: Service starts per index, alternating built and opened.
START_REPEATS = 3


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
    row["open"] = opened = _run_child(path, k, p)
    saved = index.knn(data[0], k, p=p)
    identical = (
        opened["backend"] == "mmap"
        and opened["ids"] == [int(i) for i in saved.ids]
        and opened["distances"] == [float(x) for x in saved.distances]
        and opened["sim_io"]
        == {"sequential": saved.io.sequential, "random": saved.io.random}
        and opened["termination"] == saved.termination
    )
    if not identical:
        raise AssertionError(
            f"the opened index diverged from the saved one at n={n}: "
            f"{opened['ids']} vs {saved.ids.tolist()}"
        )
    row["identical"] = True

    from repro.serve import ShardedSearchService

    mapped = load_index(path)
    starts: dict[str, list[float]] = {"built": [], "opened": []}
    for _ in range(START_REPEATS):
        for label, served in (("built", index), ("opened", mapped)):
            starts[label].append(
                _service_start_seconds(served, workload["shards"])
            )
    row["service_start"] = {
        f"{label}_seconds": float(np.median(times))
        for label, times in starts.items()
    }
    for label, served in (("built", index), ("opened", mapped)):
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
        opened = row["open"]
        print(
            f"n={row['n']:6d} file={row['file_bytes'] / 1e6:8.1f} MB | "
            f"open {opened['open_seconds'] * 1e3:6.1f} ms | "
            f"rss {opened['rss_delta_kb'] / 1024:6.1f} MB | "
            f"first {opened['first_query_seconds'] * 1e3:7.1f} ms "
            f"warm {opened['warm_query_seconds'] * 1e3:6.2f} ms | "
            f"identical={row['identical']}"
        )
        svc = row["service_start"]
        print(
            f"          service start: built "
            f"{svc['built_seconds'] * 1e3:8.1f} ms, opened "
            f"{svc['opened_seconds'] * 1e3:8.1f} ms"
        )


def run():
    """run_all.py hook: smoke-scale run rendered as a table."""
    from repro.eval.harness import ResultTable

    report = run_report(SMOKE)
    table = ResultTable(
        "opening a saved index (smoke scale)",
        ["n", "file MB", "open ms", "RSS MB", "first ms", "warm ms", "identical"],
    )
    for row in report["sizes"]:
        opened = row["open"]
        table.add_row(
            [
                row["n"],
                f"{row['file_bytes'] / 1e6:.1f}",
                f"{opened['open_seconds'] * 1e3:.1f}",
                f"{opened['rss_delta_kb'] / 1024:.1f}",
                f"{opened['first_query_seconds'] * 1e3:.1f}",
                f"{opened['warm_query_seconds'] * 1e3:.2f}",
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
