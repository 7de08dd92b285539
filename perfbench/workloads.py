"""The three workloads: set-up, measured phase, correctness gate.

Each ``run_<workload>(ctx)`` returns an :class:`Outcome`.  End-to-end
metrics come from the untraced run; per-layer metrics from a traced run,
which wraps the calls into each layer in spans (see ``tracing.py``) and
reads the program's public ``stats()`` counters before and after the
measured phase.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    Frontend, LazyLSH, LazyLSHConfig, MultiQueryEngine, ShardedSearchService, knn_batch,
)
from repro.core.engine import TERMINATION_CAP
from repro.core.montecarlo import TABLE_CACHE
from repro.datasets import make_synthetic
from repro.datasets.ground_truth import exact_knn
from repro.durability import WAL_SUBDIR, create, recover
from repro.eval import overall_ratio, recall_at_k

import loadgen
import proctree
import spec
from tracing import RecordingService, SpanRecorder, maybe_span, query_digest, self_time

BATCH = 32
#: engine-batch asks pool rows 0..PASS_ROWS-1 under every metric in each
#: pass, so every pass does the same work and the median pass measures
#: the program, not which rows a run drew.
PASS_ROWS = 64
#: Offered uncached rate (requests/s).  On the 2-CPU seed host the
#: service answers ~3-5 requests/s of the p mix (p=0.5 costs ~4x the
#: others in the shard workers), so this runs below saturation.
UNIQUE_RATE = 2.0
#: Hot reads (requests/s, sent as same-point pairs) and one write per
#: WRITE_EVERY_S.  Each 8-point ingest holds the service lock for
#: ~0.6-0.9 s, and the reads due meanwhile queue behind it.
HOT_READ_RATE = 32.0
HOT_POOL = 4
ZIPF_S = 1.5
WRITE_EVERY_S = 4.0
WRITE_POINTS = 8
#: Held-out points asked over HTTP after the load for http-hot-write's
#: accuracy figures (its four hot points are too few to average over).
ACCURACY_QUERIES = 96
#: Answers checked bit for bit against the single-process reference.
GATE_SAMPLE = 12
#: A write stalls both connections while it holds the service lock; the
#: reads due from its due time until this long after it became visible
#: wait on the system, not on the generator, and are left out of the
#: generator's lateness.
DRAIN_S = 1.0
#: The measured phase starts this long after the schedule is built.
LEAD_S = 0.2


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    out_dir: Path


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(
        default_factory=lambda: dict.fromkeys(spec.units("per_layer"), 0.0))
    notes: dict = field(default_factory=dict)
    recorder: SpanRecorder | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def make_inputs() -> tuple[np.ndarray, np.ndarray]:
    """The fixed indexed points and the pool of held-out queries."""
    points = make_synthetic(spec.N_POINTS + spec.QUERY_POOL, spec.DIM, seed=spec.DATA_SEED)
    return points[: spec.N_POINTS], points[spec.N_POINTS:]


def unique_requests(rng, count: int) -> list[tuple[int, float]]:
    """``count`` distinct ``(pool row, p)`` requests in seeded order.

    Row ``i`` is always asked under ``METRICS[i % 3]``, so every seed asks
    the same requests and a run's cost does not hang on which rows it
    drew.  Rows go in blocks of three (one per metric); the seed orders
    the blocks and the rows within each, so each block asks every p once.
    """
    n_p = len(spec.METRICS)
    blocks = [list(range(b, min(b + n_p, count))) for b in range(0, count, n_p)]
    full, tail = blocks[: count // n_p], blocks[count // n_p:]
    order = [full[int(b)] for b in rng.permutation(len(full))] + tail
    return [(int(i), spec.METRICS[int(i) % n_p])
            for block in order for i in rng.permutation(block)]


def build_index(data: np.ndarray) -> LazyLSH:
    """Build the index from scratch, parameter tables included."""
    TABLE_CACHE.clear()  # the process-wide cache would hide later repeats
    index = LazyLSH(LazyLSHConfig(**spec.CONFIG)).build(data)
    for p in spec.METRICS:
        index.metric_params(p)
    return index


def timed_setups(make, teardown):
    """Run ``make`` SETUP_REPEATS times; keep the last, return its median time."""
    times, made = [], None
    for i in range(spec.SETUP_REPEATS):
        if made is not None:
            teardown(made)
            made = None
            gc.collect()
        start = time.perf_counter()
        made = make(i)
        times.append(time.perf_counter() - start)
    return made, statistics.median(times)


def same_answer(payload: dict, reference) -> bool:
    """Ids, distances and simulated I/O equal, bit for bit."""
    return (
        payload["ids"] == [int(i) for i in reference.ids]
        and payload["distances"] == [float(d) for d in reference.distances]
        and payload["io"]["sequential"] == int(reference.io.sequential)
        and payload["io"]["random"] == int(reference.io.random)
    )


def accuracy(data: np.ndarray, answers) -> tuple[float, float]:
    """Mean recall@k and overall ratio of ``(query, p, ids, dists)`` answers."""
    recalls, ratios = [], []
    for query, p, ids, dists in answers:
        true_ids, true_d = exact_knn(data, query, spec.K, p)
        recalls.append(recall_at_k(np.asarray(ids), true_ids[0]))
        ratios.append(overall_ratio(np.asarray(dists), true_d[0]))
    return float(np.mean(recalls)), float(np.mean(ratios))


def result_layers(out: Outcome, answers: list[dict]) -> None:
    """engine.* and storage.* per-query figures from answer records."""
    n = len(answers)
    if not n:
        return
    candidates = sum(a["candidates"] for a in answers)
    out.per_layer.update({
        "engine.rounds_per_query": sum(a["rounds"] for a in answers) / n,
        "engine.candidates_per_query": candidates / n,
        "engine.useful_ratio": sum(len(a["ids"]) for a in answers) / max(candidates, 1),
        "engine.cap_terminated_share": sum(
            a["termination"] == TERMINATION_CAP for a in answers) / n,
        "storage.seq_pages_per_query": sum(a["io"]["sequential"] for a in answers) / n,
        "storage.random_pages_per_query": sum(a["io"]["random"] for a in answers) / n,
    })


def latency_metrics(out: Outcome, latencies_s: list[float]) -> None:
    ms = [x * 1e3 for x in latencies_s]
    out.notes["latency_samples"] = len(ms)
    out.notes["latency_p50_ms"] = loadgen.percentile(ms, 50)
    out.notes["latency_deciles_ms"] = [
        round(loadgen.percentile(ms, q), 1) for q in range(10, 100, 10)]
    for q in (99, 95, 90, 80):  # the highest percentile the sample supports
        if loadgen.tail_supported(len(ms), q):
            out.notes[f"latency_p{q}_ms"] = loadgen.percentile(ms, q)
            break


def hot_sequence(rng, count: int, per_interval: int, pool: int, s: float) -> np.ndarray:
    """Zipf(``s``)-skewed ranks in ``range(pool)``, stratified.

    Every block of ``per_interval`` arrivals holds each rank exactly in
    Zipf proportion (largest remainder), shuffled by ``rng``, so the
    number of distinct keys between two writes does not vary by seed.
    """
    share = 1.0 / np.arange(1, pool + 1) ** s
    share = share / share.sum() * per_interval
    quota = np.floor(share).astype(int)
    quota[np.argsort(quota - share)[: per_interval - quota.sum()]] += 1
    block = np.repeat(np.arange(pool), quota)
    blocks = -(-count // per_interval)
    return np.concatenate([rng.permutation(block) for _ in range(blocks)])[:count]


def warm_up(data: np.ndarray, step) -> None:
    """One query per metric, so lazy first-call work is not measured."""
    for j, p in enumerate(spec.METRICS):
        step(data[j] + 0.5, p)


# ----------------------------------------------------------------------
# engine-batch
# ----------------------------------------------------------------------


def engine_pass(rng) -> list[tuple[float, np.ndarray]]:
    """One pass of ``(p, pool rows)`` batches: every row under every metric.

    p cycles across batches; the seed shuffles the rows of each metric
    before they are cut into batches.
    """
    perms = [rng.permutation(PASS_ROWS) for _ in spec.METRICS]
    return [(p, perm[lo: lo + BATCH])
            for lo in range(0, PASS_ROWS, BATCH)
            for p, perm in zip(spec.METRICS, perms)]


def run_engine_batch(ctx: Context) -> Outcome:
    out = Outcome(recorder=SpanRecorder() if ctx.trace else None)
    rng = np.random.default_rng(ctx.seed)
    data, pool = make_inputs()
    index, out.end_to_end["setup_s"] = timed_setups(
        lambda _i: build_index(data), lambda _index: None
    )
    warm_up(data, lambda q, p: knn_batch(index, q[None, :], spec.K, p=p))

    answered: list[tuple[int, float, object]] = []
    latencies: list[float] = []
    passes: list[tuple[float, float]] = []  # (wall s, tree CPU s) per pass
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < ctx.seconds:
        cpu = proctree.TreeCpu().start()
        pass_start = time.perf_counter()
        for p, rows in engine_pass(rng):
            t0 = time.perf_counter()
            with maybe_span(out.recorder, "engine.knn_batch", rows=len(rows), p=p):
                result = knn_batch(index, pool[rows], spec.K, p=p)
            latencies.extend([time.perf_counter() - t0] * len(rows))
            answered.extend((int(r), p, res) for r, res in zip(rows, result.results))
        passes.append((time.perf_counter() - pass_start, cpu.stop()))
    out.end_to_end["memory_mb"] = proctree.tree_pss_mb()

    n = len(answered)
    per_pass = PASS_ROWS * len(spec.METRICS)
    out.attempted = n
    out.notes["pass_s"] = [round(w, 3) for w, _c in passes]
    out.end_to_end["qps"] = per_pass / loadgen.median(w for w, _c in passes)
    out.end_to_end["cpu_ms_per_query"] = (
        loadgen.median(c for _w, c in passes) * 1e3 / per_pass)
    latency_metrics(out, latencies)
    records = [res.to_dict() for _r, _p, res in answered]
    out.end_to_end["io_pages_per_query"] = float(
        np.mean([r["io"]["total"] for r in records]))

    unique = {(r, p): res for r, p, res in answered}
    out.end_to_end["recall_at_k"], out.end_to_end["overall_ratio"] = accuracy(
        data, [(pool[r], p, res.ids, res.distances) for (r, p), res in unique.items()]
    )

    # Gate: a seeded sample matches the scalar reference bit for bit.
    rng = np.random.default_rng(ctx.seed + 1)
    for j in rng.choice(n, size=min(GATE_SAMPLE, n), replace=False):
        r, p, res = answered[int(j)]
        out.attempted += 1
        ref = index.knn(pool[r], spec.K, p=p, engine="scalar")
        if not same_answer(res.to_dict(), ref):
            out.fail(f"knn_batch row {r} p={p} differs from the scalar engine")

    if out.recorder is not None:
        engine_cpu = sum(s.cpu for s in out.recorder.named("engine.knn_batch"))
        out.per_layer["engine.cpu_ms_per_query"] = engine_cpu * 1e3 / n
        out.per_layer["trace.cpu_ms_per_query"] = out.end_to_end["cpu_ms_per_query"]
        result_layers(out, records)
    return out


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------


class Serving:
    """Index → 2-shard service → frontend, all at product defaults."""

    def __init__(self, index: LazyLSH, recorder: SpanRecorder | None) -> None:
        self.index = index
        self.service = ShardedSearchService(index)
        try:
            handed = (
                RecordingService(self.service, recorder)
                if recorder is not None else self.service
            )
            self.frontend = Frontend(handed).start()
        except BaseException:
            self.service.close()
            raise

    def close(self) -> None:
        try:
            self.frontend.stop()
        finally:
            self.service.close()


def _stats_delta(fb: dict, fa: dict) -> dict:
    """Change of ``Frontend.stats()`` counters from ``fb`` to ``fa``."""
    sb, sa = fb["service"], fa["service"]
    return {
        "hits": fa["cache"]["hits"] - fb["cache"]["hits"],
        "misses": fa["cache"]["misses"] - fb["cache"]["misses"],
        "scans": fa["scans"] - fb["scans"],
        "scanned": fa["scanned_requests"] - fb["scanned_requests"],
        "rejected": fa["rejected"] - fb["rejected"],
        "restarts": sa["restarts"] - sb["restarts"],
        "replays": sa["replays"] - sb["replays"],
        "busy": [a - b for a, b in zip(sa["busy_seconds"], sb["busy_seconds"])],
        "cpu": [a - b for a, b in zip(sa["cpu_seconds"], sb["cpu_seconds"])],
    }


def serving_layers(out: Outcome, delta: dict, samples, n_answered: int) -> None:
    """frontend.*, service.*, worker.*, multiquery.* from stats and spans."""
    rec = out.recorder
    looked_up = delta["hits"] + delta["misses"]
    waves = rec.named("service.search_batch")
    n = max(n_answered, 1)
    busy, cpu = delta["busy"], delta["cpu"]
    out.per_layer.update({
        "frontend.cache_hit_rate": delta["hits"] / looked_up if looked_up else 0.0,
        "frontend.requests_per_scan": (
            delta["scanned"] / delta["scans"] if delta["scans"] else 0.0),
        "frontend.rejected": float(delta["rejected"]),
        "service.waves": float(len(waves)),
        "service.rows_per_wave": (
            float(np.mean([w.attrs["rows"] for w in waves])) if waves else 0.0),
        "service.wave_ms_p50": (
            loadgen.median(w.duration * 1e3 for w in waves) if waves else 0.0),
        "service.coordinator_cpu_ms_per_query": sum(w.cpu for w in waves) * 1e3 / n,
        "service.restarts": float(delta["restarts"]),
        "service.replays": float(delta["replays"]),
        "worker.cpu_ms_per_query": sum(cpu) * 1e3 / n,
        "worker.wait_ms_per_query": (sum(busy) - sum(cpu)) * 1e3 / n,
        "worker.imbalance": (
            max(busy) / (sum(busy) / len(busy)) if sum(busy) > 0 else 0.0),
        "multiquery.scans": float(delta["scans"] - len(waves)),
    })
    # frontend self time: each request minus the waves that carried it.
    by_digest: dict[tuple, list] = {}
    for w in waves:
        for d in w.attrs["digests"]:
            by_digest.setdefault((d, w.attrs["p"]), []).append(w)
    selfs = []
    for s in samples:
        if not s.ok:
            continue
        digest, p = s.tag[1], s.tag[2]
        span = rec.add("http.request", s.sent, s.done, p=p)
        kids = [w for w in by_digest.get((digest, p), ())
                if w.start < s.done and w.end > s.sent]
        selfs.append(self_time(span, kids) * 1e3)
    if selfs:
        out.per_layer["frontend.self_ms_p50"] = loadgen.median(selfs)


def http_phase(out: Outcome, serving: Serving, arrivals, spacing_s: float, writer=None):
    """Drive the schedule beside an optional writer; returns the ok samples.

    The run fails its check when the generator sent its p95 request,
    outside write windows, more than one arrival spacing late.
    """
    fe = serving.frontend
    client = loadgen.ClientProcess(fe.host, fe.port, arrivals)
    try:
        before = fe.stats()
        cpu = proctree.TreeCpu().start()
        start = time.perf_counter() + LEAD_S
        if writer is not None:
            writer.t0 = start
            writer.start()
        samples = client.run(start)
    finally:
        client.close()
    if writer is not None:
        writer.join()
    end = max(s.done for s in samples)
    cpu_s = cpu.stop()
    out.end_to_end["memory_mb"] = proctree.tree_pss_mb()
    delta = _stats_delta(before, fe.stats())
    looked_up = delta["hits"] + delta["misses"]
    out.notes["cache_hit_rate"] = delta["hits"] / looked_up if looked_up else 0.0

    ok = [s for s in samples if s.ok]
    out.attempted += len(samples)
    for s in samples:
        if not s.ok:
            out.fail(f"HTTP {s.status}: {str(s.payload)[:120]}")
    n = max(len(ok), 1)
    out.end_to_end["qps"] = len(ok) / (end - start)
    out.end_to_end["cpu_ms_per_query"] = cpu_s * 1e3 / n
    latency_metrics(out, [s.done - s.due for s in ok])
    # A cache hit re-reports its scan's I/O but does none itself.
    out.end_to_end["io_pages_per_query"] = sum(
        s.payload["io"]["total"] for s in ok if not s.payload["cached"]) / n
    windows = writer.windows if writer is not None else []
    late = [max(s.sent - s.due, 0.0) * 1e3 for s in samples
            if not any(a <= s.due <= b + DRAIN_S for a, b in windows)]
    late_p95 = loadgen.percentile(late, 95)
    out.notes["late_p95_ms"] = late_p95
    out.attempted += 1
    if late_p95 > spacing_s * 1e3:
        out.fail(f"generator fell behind: p95 sent {late_p95:.0f} ms late, "
                 f"over the {spacing_s * 1e3:.0f} ms arrival spacing")
    if out.recorder is not None:
        out.per_layer["loadgen.late_p95_ms"] = late_p95
        out.per_layer["trace.cpu_ms_per_query"] = out.end_to_end["cpu_ms_per_query"]
        serving_layers(out, delta, samples, len(ok))
        result_layers(out, [s.payload for s in ok])
    return ok


def run_http_unique(ctx: Context) -> Outcome:
    out = Outcome(recorder=SpanRecorder() if ctx.trace else None)
    rng = np.random.default_rng(ctx.seed)
    offsets = loadgen.open_loop_schedule(rng, UNIQUE_RATE, ctx.seconds, jitter=0.1)
    data, pool = make_inputs()
    requests = unique_requests(rng, len(offsets))

    def make(_i):
        return Serving(build_index(data), out.recorder)

    serving, out.end_to_end["setup_s"] = timed_setups(make, Serving.close)
    try:
        warm_up(data, lambda q, p: serving.service.search(q, spec.K, p=p))
        arrivals = [
            (float(off), [((i, query_digest(pool[i]), p),
                           loadgen.wire_body(pool[i], spec.K, p))])
            for off, (i, p) in zip(offsets, requests)
        ]
        ok = http_phase(out, serving, arrivals, 1.0 / UNIQUE_RATE)
        # Gate: a seeded sample equals the single-process index.knn.
        gate_rng = np.random.default_rng(ctx.seed + 1)
        for j in gate_rng.choice(len(ok), size=min(GATE_SAMPLE, len(ok)), replace=False):
            s = ok[int(j)]
            i, _digest, p = s.tag
            out.attempted += 1
            if not same_answer(s.payload, serving.index.knn(pool[i], spec.K, p=p)):
                out.fail(f"HTTP answer for point {i} p={p} differs from index.knn")
    finally:
        serving.close()
    out.end_to_end["recall_at_k"], out.end_to_end["overall_ratio"] = accuracy(
        data, [(pool[s.tag[0]], s.tag[2], s.payload["ids"], s.payload["distances"])
               for s in ok])
    return out


class Writer(threading.Thread):
    """Commits one insert per due time through ``DurableIndex.insert``.

    ``windows`` holds, per write, its due time and the time the listener's
    ``Frontend.ingest`` returned (the write became visible).
    """

    def __init__(self, durable, offsets, batches, recorder) -> None:
        super().__init__(name="perfbench-writer", daemon=True)
        self.durable, self.offsets, self.batches = durable, offsets, batches
        self.recorder = recorder
        self.windows: list[tuple[float, float]] = []
        self.visible: list[float] = []
        self.error: Exception | None = None
        self.t0 = 0.0  # perf_counter the offsets count from

    def run(self) -> None:
        try:
            for off, batch in zip(self.offsets, self.batches):
                due = self.t0 + off
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with maybe_span(self.recorder, "durable.insert", points=len(batch)):
                    self.durable.insert(batch)
                self.windows.append((due, self.visible[-1]))
        except Exception as exc:  # reported by the main thread
            self.error = exc


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_http_hot_write(ctx: Context) -> Outcome:
    out = Outcome(recorder=SpanRecorder() if ctx.trace else None)
    rng = np.random.default_rng(ctx.seed)
    pair_offsets = loadgen.open_loop_schedule(rng, HOT_READ_RATE / 2, ctx.seconds)
    data, queries = make_inputs()
    hot, held_out = queries[:HOT_POOL], queries[HOT_POOL: HOT_POOL + ACCURACY_QUERIES]
    # Reads between two writes hold each hot point in Zipf proportion;
    # point i is always asked under the same pair of metrics.
    points = hot_sequence(
        rng, len(pair_offsets), int(HOT_READ_RATE / 2 * WRITE_EVERY_S), HOT_POOL, ZIPF_S)
    combos = [(a, b) for i, a in enumerate(spec.METRICS) for b in spec.METRICS[i + 1:]]
    # Writes at block boundaries, none in the last interval, so every
    # interval between writes is a whole stratified block of reads.
    n_writes = max(1, int(ctx.seconds // WRITE_EVERY_S) - 1)
    write_offsets = (np.arange(n_writes) + 1) * WRITE_EVERY_S + rng.uniform(
        -0.25, 0.25, n_writes)
    batches = [
        rng.integers(0, 10001, size=(WRITE_POINTS, spec.DIM)).astype(np.float64)
        for _ in range(n_writes)
    ]
    homes = ctx.out_dir / f"wal-{ctx.seed}"
    shutil.rmtree(homes, ignore_errors=True)

    def make(i):
        index = build_index(data)
        durable = create(index, homes / f"home-{i}", sync=True)
        try:
            return durable, Serving(copy.deepcopy(index), out.recorder)
        except BaseException:
            durable.close()
            raise

    def teardown(made):
        made[0].close()
        made[1].close()

    (durable, serving), out.end_to_end["setup_s"] = timed_setups(make, teardown)
    home = homes / f"home-{spec.SETUP_REPEATS - 1}"
    recovered = None
    try:
        fe = serving.frontend
        writer = Writer(durable, write_offsets, batches, out.recorder)
        rec = out.recorder

        def listener(record):
            with maybe_span(rec, "frontend.ingest"):
                fe.ingest([record])
            writer.visible.append(time.perf_counter())

        durable.subscribe(listener)
        warm_up(data, lambda q, p: serving.service.search(q, spec.K, p=p))
        wal_before = _dir_bytes(home / WAL_SUBDIR)
        arrivals = []
        for j, off in enumerate(pair_offsets):
            i = int(points[j])
            arrivals.append((float(off), [
                ((i, query_digest(hot[i]), p), loadgen.wire_body(hot[i], spec.K, p))
                for p in combos[i % len(combos)]
            ]))
        http_phase(out, serving, arrivals, 2.0 / HOT_READ_RATE, writer=writer)
        out.attempted += len(batches)
        if writer.error is not None:
            out.fail(f"write failed: {writer.error!r}")
        write_ms = [(b - a) * 1e3 for a, b in writer.windows]
        ingests = rec.named("service.ingest") if rec is not None else []

        # Seal: near-duplicates of every hot point change their answers,
        # so a cache entry that survived the epoch bump would be caught.
        seal = hot + np.eye(1, spec.DIM)[0]
        durable.insert(seal)
        inserted_points = WRITE_POINTS * len(writer.windows) + len(seal)
        wal_bytes = _dir_bytes(home / WAL_SUBDIR) - wal_before
        durable.close()

        t0 = time.perf_counter()
        with maybe_span(rec, "recover"):
            recovered, report = recover(home, sync=True)
        recovery_s = time.perf_counter() - t0

        # Gate: every hot (point, p), asked twice (scan, then cache hit),
        # equals knn on the recovered index bit for bit.
        keys = [(i, p) for i in range(HOT_POOL) for p in spec.METRICS]
        bodies = [loadgen.wire_body(hot[i], spec.K, p) for i, p in keys for _ in (0, 1)]
        replies = asyncio.run(loadgen.post_sequential(fe.host, fe.port, bodies))
        for n, (i, p) in enumerate(keys):
            ref = recovered.knn(hot[i], spec.K, p=p)
            for status, payload in replies[2 * n: 2 * n + 2]:
                out.attempted += 1
                if status != 200 or not same_answer(payload, ref):
                    out.fail(f"hot point {i} p={p} differs from the recovered index")

        # Accuracy from the serving path: every held-out point is asked
        # as a same-point pair under two metrics, which the frontend
        # answers with one merged Section 4.3 scan.  A merged scan splits
        # its I/O across its metrics, so the sample is checked against
        # MultiQueryEngine, or against knn if the pair was not merged.
        pairs = [
            (0.0, [((j, p), loadgen.wire_body(query, spec.K, p))
                   for p in combos[j % len(combos)]])
            for j, query in enumerate(held_out)
        ]
        samples = asyncio.run(
            loadgen.drive(fe.host, fe.port, pairs, start=time.perf_counter()))
        out.attempted += len(samples)
        for s in samples:
            if not s.ok:
                out.fail(f"held-out HTTP {s.status}: {str(s.payload)[:120]}")
        ok = [s for s in samples if s.ok]
        gate_rng = np.random.default_rng(ctx.seed + 1)
        for j in gate_rng.choice(len(ok), size=min(GATE_SAMPLE, len(ok)), replace=False):
            s = ok[int(j)]
            (i, p), query = s.tag, held_out[s.tag[0]]
            pair = list(combos[i % len(combos)])
            merged = MultiQueryEngine(recovered.index).knn(query, spec.K, metrics=pair)[p]
            out.attempted += 1
            if not (same_answer(s.payload, merged)
                    or same_answer(s.payload, recovered.knn(query, spec.K, p=p))):
                out.fail(f"held-out point {i} p={p} differs from the recovered index")
        out.end_to_end["recall_at_k"], out.end_to_end["overall_ratio"] = accuracy(
            recovered.index.data,
            [(held_out[s.tag[0]], s.tag[1], s.payload["ids"], s.payload["distances"])
             for s in ok])
        out.notes["write_p50_ms"] = loadgen.median(write_ms) if write_ms else 0.0
        out.notes["recovery_s"] = recovery_s
        out.notes["replayed_records"] = report["replayed_records"]
        if rec is not None:
            commits = [
                self_time(s, [c for c in rec.spans if c.parent == s.id])
                for s in rec.named("durable.insert")
            ]
            out.per_layer.update({
                "wal.commit_ms_p50": loadgen.median(commits) * 1e3 if commits else 0.0,
                "service.ingest_ms_p50": (
                    loadgen.median(s.duration for s in ingests) * 1e3 if ingests else 0.0),
                "wal.bytes_per_point_byte": wal_bytes / (inserted_points * spec.DIM * 8),
                "durable.write_p50_ms": out.notes["write_p50_ms"],
                "recovery.recovery_s": recovery_s,
                "recovery.ms_per_record": (
                    recovery_s * 1e3 / max(report["replayed_records"], 1)),
            })
    finally:
        if recovered is not None:
            recovered.close()
        durable.close()
        serving.close()
        shutil.rmtree(homes, ignore_errors=True)
    return out


RUNNERS = {
    "engine-batch": run_engine_batch,
    "http-unique": run_http_unique,
    "http-hot-write": run_http_hot_write,
}
