"""Tests of the benchmark's own machinery (not of the program).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
import proctree  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, SpanRecorder  # noqa: E402

# -- percentile rule ----------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert loadgen.percentile(samples, 50) == 50
    assert loadgen.percentile(samples, 80) == 80
    assert loadgen.percentile(samples, 100) == 100
    assert loadgen.percentile([7.0], 95) == 7.0


def test_tail_needs_ten_samples_beyond():
    # p95 of n samples leaves n - ceil(0.95 n) beyond it.
    assert loadgen.beyond(200, 95) == 10
    assert loadgen.tail_supported(200, 95)
    assert not loadgen.tail_supported(199, 95)
    assert loadgen.tail_supported(50, 80)  # exactly 10 beyond
    assert not loadgen.tail_supported(49, 80)
    assert not loadgen.tail_supported(0, 50)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


# -- process-tree CPU and PSS ------------------------------------------

_BURN_S = 0.4
_ALLOC_MB = 64


def _burn(report, ready, release):
    block = bytearray(_ALLOC_MB * 1024 * 1024)
    for i in range(0, len(block), 4096):  # touch every page
        block[i] = 1
    while time.process_time() < _BURN_S:
        pass
    report.value = time.process_time()
    ready.set()
    release.wait(30)


def test_tree_cpu_and_pss_count_a_child():
    ctx = multiprocessing.get_context("spawn")
    report = ctx.Value("d", 0.0)
    ready, release = ctx.Event(), ctx.Event()
    pss_before = proctree.tree_pss_mb()
    meter = proctree.TreeCpu().start()
    parent_cpu0 = time.process_time()
    child = ctx.Process(target=_burn, args=(report, ready, release))
    child.start()
    try:
        assert ready.wait(60)
        assert child.pid in proctree.tree_pids()
        pss_during = proctree.tree_pss_mb()
        measured = meter.stop()
        parent_cpu = time.process_time() - parent_cpu0
    finally:
        release.set()
        child.join(30)
    assert not child.is_alive()
    assert report.value >= _BURN_S
    # /proc counts in clock ticks: allow a few ticks per process.
    assert measured == pytest.approx(report.value + parent_cpu, abs=0.06)
    assert pss_during - pss_before >= 0.9 * _ALLOC_MB


def test_cpu_seconds_of_self_tracks_process_time():
    import os

    before = proctree.cpu_seconds(os.getpid())
    t0 = time.process_time()
    while time.process_time() - t0 < 0.2:
        pass
    assert proctree.cpu_seconds(os.getpid()) - before == pytest.approx(0.2, abs=0.05)


def _sleep_long():
    time.sleep(60)


def test_stop_children_ends_workers_and_the_resource_tracker():
    import subprocess
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=4096)  # starts the tracker
    shm.close()
    shm.unlink()
    child = multiprocessing.get_context("fork").Process(target=_sleep_long, daemon=True)
    child.start()
    stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert len(proctree.child_pids()) >= 3
    t0 = time.monotonic()
    proctree.stop_children(timeout=0.5)
    assert time.monotonic() - t0 < 15
    assert proctree.child_pids() == []
    assert not child.is_alive()
    assert stray.poll() is not None


# -- span self-time arithmetic -------------------------------------------


def test_covered_merges_and_clips_intervals():
    assert tracing.covered(0, 10, []) == 0
    assert tracing.covered(0, 10, [(2, 4), (3, 6)]) == 4  # overlap merged
    assert tracing.covered(0, 10, [(-5, 1), (9, 20)]) == 2  # clipped
    assert tracing.covered(0, 10, [(2, 3), (5, 6)]) == 2  # disjoint
    assert tracing.covered(0, 10, [(11, 12)]) == 0


def test_self_time_subtracts_covered_children():
    parent = Span(1, "p", 0.0, 1.0)
    kids = [Span(2, "c", 0.1, 0.4, parent=1), Span(3, "c", 0.3, 0.5, parent=1)]
    assert tracing.self_time(parent, kids) == pytest.approx(0.6)


def test_fold_uses_parent_links():
    spans = [
        Span(1, "write", 0.0, 1.0),
        Span(2, "insert", 0.1, 0.9, parent=1),
        Span(3, "ingest", 0.5, 0.8, parent=2),
    ]
    table = tracing.fold(spans)
    assert table["write"]["self_ms"] == pytest.approx(200.0)
    assert table["insert"]["self_ms"] == pytest.approx(500.0)
    assert table["ingest"]["self_ms"] == pytest.approx(300.0)
    assert table["insert"]["total_ms"] == pytest.approx(800.0)


def test_recorder_nests_spans_per_thread():
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner", rows=3):
            pass
    inner, outer = rec.spans  # inner closes first
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attrs == {"rows": 3}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_maybe_span_records_only_when_tracing():
    with tracing.maybe_span(None, "x") as attrs:
        assert attrs is None
    rec = SpanRecorder()
    with tracing.maybe_span(rec, "x", rows=2):
        pass
    assert [(s.name, s.attrs) for s in rec.spans] == [("x", {"rows": 2})]


class _FakeService:
    def __init__(self):
        self.epoch = 4
        self.lock = object()
        self.calls = []

    def search_batch(self, queries, k=None, **kwargs):
        self.calls.append(("search_batch", len(queries), k, kwargs))
        return ["r"] * len(queries)

    def ingest(self, records):
        self.calls.append(("ingest", list(records)))
        return 1

    def stats(self):
        return {"epoch": self.epoch}


def test_recording_service_delegates_and_records():
    fake, rec = _FakeService(), SpanRecorder()
    proxy = tracing.RecordingService(fake, rec)
    assert proxy.epoch == 4 and proxy.lock is fake.lock
    assert proxy.stats() == {"epoch": 4}
    q = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert proxy.search_batch(q, 5, p=0.5) == ["r", "r"]
    assert proxy.ingest(iter([1, 2])) == 1
    wave, ingest = rec.spans
    assert wave.name == "service.search_batch" and wave.attrs["rows"] == 2
    assert wave.attrs["p"] == 0.5
    assert wave.attrs["digests"] == [tracing.query_digest(r) for r in q]
    assert ingest.attrs["records"] == 2
    assert fake.calls[0] == ("search_batch", 2, 5, {"p": 0.5})


# -- schedule determinism --------------------------------------------------


def test_schedule_is_deterministic_per_seed():
    def make(seed):
        return loadgen.open_loop_schedule(np.random.default_rng(seed), 4.0, 25.0)

    a, b, c = make(3), make(3), make(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len(a) == 100
    assert np.all(np.diff(a) >= 0)
    assert a[0] >= 0 and a[-1] <= 25.0
    # Jitter stays within 40% of the spacing around the even grid.
    grid = (np.arange(100) + 0.5) / 4.0
    assert np.max(np.abs(np.sort(a) - grid)) <= 0.4 / 4.0 + 1e-12


def test_hot_sequence_holds_zipf_quota_per_interval():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    def make():
        return workloads.hot_sequence(np.random.default_rng(5), 200, 64, 4, 1.5)

    seq = make()
    assert len(seq) == 200 and np.array_equal(seq, make())
    # Zipf(1.5) shares of 64 are 38.3, 13.5, 7.4, 4.8: largest remainder.
    for start in (0, 64, 128):
        assert np.bincount(seq[start:start + 64], minlength=4).tolist() == [38, 14, 7, 5]


def test_unique_requests_are_the_same_set_in_seeded_order():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import spec
    import workloads

    def make(seed):
        return workloads.unique_requests(np.random.default_rng(seed), 50)

    a, b = make(1), make(2)
    assert a == make(1) and a != b
    assert sorted(a) == sorted(b) == [(i, spec.METRICS[i % 3]) for i in range(50)]
    for start in range(0, 48, 3):  # every block of three asks each p once
        assert sorted(p for _i, p in a[start:start + 3]) == sorted(spec.METRICS)


def test_engine_pass_asks_every_row_under_every_metric():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import spec
    import workloads

    def make(seed):
        return workloads.engine_pass(np.random.default_rng(seed))

    a = make(1)
    assert [p for p, _rows in a] == list(spec.METRICS) * (workloads.PASS_ROWS // workloads.BATCH)
    for p in spec.METRICS:
        rows = np.concatenate([r for q, r in a if q == p])
        assert sorted(rows.tolist()) == list(range(workloads.PASS_ROWS))
    assert all(np.array_equal(x, y) for (_p, x), (_q, y) in zip(a, make(1)))
    assert not all(np.array_equal(x, y) for (_p, x), (_q, y) in zip(a, make(2)))


def test_wire_body_round_trips_floats_exactly():
    import json

    q = np.array([0.1, 1 / 3, 12345.678901234567])
    body = json.loads(loadgen.wire_body(q, 10, 0.8))
    assert body["query"] == [float(x) for x in q]
    assert body["k"] == 10 and body["p"] == 0.8


# -- manifest ----------------------------------------------------------------


def test_manifest_is_the_source_of_names_and_units():
    import spec

    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec.manifest()[kind]]
    assert len(names) == len(set(names))
    assert spec.units("end_to_end")["setup_s"] == "s"
    assert set(spec.workloads()) == {"engine-batch", "http-unique", "http-hot-write"}
