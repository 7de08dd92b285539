"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``params``
    Print the per-metric internal parameters (r_hat, p1', p2', eta_p,
    theta_p) the engine would use for a given geometry — the Section 3.3
    computation, no data needed.

``build``
    Build a LazyLSH index over a dataset (a ``.npy`` file or a named
    generated dataset) and save it with :mod:`repro.persistence`.

``query``
    Load a saved index and run kNN queries under one or more metrics,
    reporting per-query simulated I/O and wall-clock time.

``trace``
    Run a query workload with telemetry enabled and write one
    structured :class:`~repro.obs.QueryTrace` per query as JSONL.

``stats``
    Run a query workload with telemetry enabled and print the metrics
    registry (Prometheus text format, or JSON with ``--format json``).
    With ``--shards N`` the workload runs through the sharded service
    and a per-shard random-I/O breakdown table is printed next to the
    totals.

``serve``
    Load (or build) an index, start the sharded multiprocess query
    service, answer a query workload through it and print the merged
    results plus per-shard service stats as JSON.  Every command that
    opens a saved index maps a v3 file (v1/v2 files re-hash); the shard
    workers attach from a spill the service writes.  ``--metrics-port``
    additionally starts the ops exporter (``/metrics``, ``/healthz``,
    ``/slowlog``, ``/profile``) plus the workload-analytics sketches,
    ``--profile-hz`` the continuous sampling profiler, ``--audit-rate``
    the online guarantee auditor, and ``--http-port`` the async HTTP
    front door (``POST /v1/search`` with request coalescing and an
    epoch-invalidated result cache).  ``--log-level``/``--log-json``
    configure structured logging for the ``repro.*`` namespace.

``explain``
    Run one or more queries with ``explain=True`` through the sharded
    service (or a running front door via ``--url``) and render each
    query's record as the per-round plan/cost report — windows scanned,
    candidates promoted, termination progress, per-shard skew
    (``--format json`` prints the record itself).

``top``
    Live one-screen operations view: polls a running exporter's
    ``/metrics`` + ``/healthz`` (+ ``/slowlog``) and renders per-shard
    QPS, p50/p99 latency, I/O, audit recall, profiler phase mix,
    workload demand and recent slow queries with trace links.

``datasets``
    List the generated datasets available to ``build``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import LazyLSH, LazyLSHConfig
from repro.core.batch import knn_batch
from repro.core.params import ParameterEngine
from repro.datasets import (
    SIMULATED_DATASET_NAMES,
    load_simulated,
    make_synthetic,
)
from repro.errors import ReproError, UnsupportedMetricError
from repro.eval.harness import ResultTable, Timer
from repro.obs import Telemetry
from repro.persistence import load_index, save_index


def _parse_p_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def cmd_params(args: argparse.Namespace) -> int:
    engine = ParameterEngine(
        args.d,
        c=args.c,
        epsilon=args.epsilon,
        beta=args.beta,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    table = ResultTable(
        f"LazyLSH parameters (d={args.d}, c={args.c:g}, eps={args.epsilon}, "
        f"beta={args.beta})",
        ["p", "r_hat", "p1'", "p2'", "gap", "eta_p", "theta_p"],
    )
    for p in _parse_p_list(args.p):
        try:
            mp = engine.metric_params(p)
        except UnsupportedMetricError:
            table.add_row([p, "-", "-", "-", "-", "-", "not sensitive"])
            continue
        table.add_row(
            [
                p,
                round(mp.r_hat, 6),
                round(mp.p1_prime, 4),
                round(mp.p2_prime, 4),
                round(mp.gap, 4),
                mp.eta,
                round(mp.theta, 1),
            ]
        )
    print(table.render())
    return 0


def _load_dataset(spec: str, n: int | None, seed: int) -> np.ndarray:
    path = Path(spec)
    if path.suffix == ".npy" and path.exists():
        return np.load(path)
    if spec in SIMULATED_DATASET_NAMES:
        return load_simulated(spec, n=n, seed=seed)
    if spec.startswith("synthetic:"):
        # synthetic:<n>x<d>
        shape = spec.split(":", 1)[1]
        n_str, d_str = shape.split("x")
        return make_synthetic(int(n_str), int(d_str), seed=seed)
    raise ReproError(
        f"unknown dataset {spec!r}: expected a .npy path, one of "
        f"{SIMULATED_DATASET_NAMES}, or synthetic:<n>x<d>"
    )


def cmd_build(args: argparse.Namespace) -> int:
    data = _load_dataset(args.dataset, args.n, args.seed)
    config = LazyLSHConfig(
        c=args.c,
        p_min=args.p_min,
        seed=args.seed,
        mc_samples=args.mc_samples,
    )
    index = LazyLSH(config).build(data)
    path = save_index(index, args.output)
    print(
        f"built index over {index.num_points} x {index.dimensionality} points: "
        f"eta={index.eta}, {index.index_size_mb():.1f} MB (simulated), "
        f"saved to {path}"
    )
    return 0


def _workload_queries(index, args: argparse.Namespace) -> np.ndarray:
    if args.query_file:
        return np.atleast_2d(np.load(args.query_file))
    return index.data[[args.row]]


def cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    queries = _workload_queries(index, args)
    table = ResultTable(
        f"kNN results (k={args.k})",
        [
            "query",
            "p",
            "ids",
            "distances",
            "seq I/O",
            "rnd I/O",
            "total I/O",
            "ms",
        ],
    )
    timer = Timer()
    for qi, query in enumerate(queries):
        for p in _parse_p_list(args.p):
            with timer:
                result = index.knn(query, args.k, p=p)
            table.add_row(
                [
                    qi,
                    p,
                    " ".join(str(i) for i in result.ids[:8]),
                    " ".join(f"{d:.1f}" for d in result.distances[:8]),
                    result.io.sequential,
                    result.io.random,
                    result.io.total,
                    round(timer.seconds * 1e3, 3),
                ]
            )
    print(table.render())
    print(
        f"{timer.entries} queries in {timer.total_seconds * 1e3:.3f} ms "
        "(wall clock)"
    )
    return 0


def _run_traced_workload(args: argparse.Namespace) -> tuple[Telemetry, int]:
    """Run the shared ``trace``/``stats`` workload; returns telemetry."""
    index = load_index(args.index)
    queries = _workload_queries(index, args)
    metrics = _parse_p_list(args.p)
    telemetry = Telemetry()
    telemetry.observe_store(index.store)
    with telemetry.tracer.span("cli.workload", queries=int(queries.shape[0])):
        if len(metrics) == 1:
            knn_batch(
                index,
                queries,
                args.k,
                p=metrics[0],
                engine=args.engine,
                telemetry=telemetry,
            )
        else:
            knn_batch(
                index,
                queries,
                args.k,
                metrics=metrics,
                engine=args.engine,
                telemetry=telemetry,
            )
    index.store.observer = None
    return telemetry, int(queries.shape[0])


def cmd_trace(args: argparse.Namespace) -> int:
    telemetry, num_queries = _run_traced_workload(args)
    path = telemetry.export_traces_jsonl(args.output)
    summary = telemetry.summary()
    print(
        f"traced {num_queries} queries ({len(telemetry.traces)} traces) "
        f"-> {path}"
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.spans:
        spans_path = telemetry.tracer.export_jsonl(args.spans)
        print(f"spans -> {spans_path}")
    return 0


def _run_sharded_workload(
    args: argparse.Namespace,
) -> tuple[Telemetry, list]:
    """The ``stats --shards N`` workload: run through the service."""
    from repro.serve import ShardedSearchService

    index = load_index(args.index)
    queries = _workload_queries(index, args)
    metrics = _parse_p_list(args.p)
    if len(metrics) != 1:
        raise ReproError(
            "stats --shards reports one metric per run; pass a single --p"
        )
    telemetry = Telemetry()
    with ShardedSearchService(index, n_shards=args.shards) as service:
        results = service.search_batch(
            queries, args.k, p=metrics[0], telemetry=telemetry
        )
    return telemetry, results


def _shard_io_table(results: list) -> str:
    """Per-shard random-I/O breakdown of a sharded run's results."""
    n_shards = len(results[0].shard_io)
    per_shard = [0] * n_shards
    for result in results:
        for sid, io in enumerate(result.shard_io):
            per_shard[sid] += io.random
    total_random = sum(per_shard)
    table = ResultTable(
        "per-shard random I/O (candidate fetches, by owning shard)",
        ["shard", "random I/O", "share"],
    )
    for sid, random_io in enumerate(per_shard):
        share = random_io / total_random if total_random else 0.0
        table.add_row([sid, random_io, f"{share:.1%}"])
    table.add_row(["total", total_random, "100.0%"])
    return table.render()


def cmd_stats(args: argparse.Namespace) -> int:
    if args.shards:
        telemetry, results = _run_sharded_workload(args)
    else:
        telemetry, _num_queries = _run_traced_workload(args)
        results = []
    if args.format == "json":
        report = telemetry.metrics_dict()
        if results:
            report["shard_io"] = [
                [io.to_dict() for io in result.shard_io]
                for result in results
            ]
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(telemetry.metrics_text(), end="")
        if results:
            print()
            print(_shard_io_table(results))
    return 0


def _parse_id_list(text: str) -> np.ndarray:
    return np.array(
        [int(part) for part in text.split(",") if part.strip()], dtype=np.int64
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    """Apply durable updates to a WAL-backed index home directory."""
    from repro import durability

    home = Path(args.home)
    report: dict = {"home": str(home)}
    if args.init is not None:
        data = _load_dataset(args.init, args.n, args.seed)
        config = LazyLSHConfig(
            c=args.c,
            p_min=args.p_min,
            seed=args.seed,
            mc_samples=args.mc_samples,
        )
        index = LazyLSH(config).build(data)
        durable = durability.create(index, home, sync=not args.no_fsync)
        report["initialized"] = True
        report["points"] = int(index.num_points)
    else:
        durable, recovery = durability.recover(home, sync=not args.no_fsync)
        report["initialized"] = False
        report["recovery"] = recovery
    rng = np.random.default_rng(args.seed)
    lsn_before = durable.last_lsn
    records = 0
    timer = Timer()
    try:
        with timer:
            for _ in range(args.batches):
                if args.insert is not None:
                    batch = _load_dataset(args.insert, None, args.seed)
                    if args.jitter:
                        batch = batch + rng.normal(
                            0.0, args.jitter, size=batch.shape
                        )
                    durable.insert(batch)
                    records += 1
            if args.remove:
                durable.remove(_parse_id_list(args.remove))
                records += 1
        if args.checkpoint:
            report["checkpoint"] = str(durability.checkpoint_now(durable, home))
        report.update(
            {
                "fsync": not args.no_fsync,
                "lsn_before": int(lsn_before),
                "lsn_after": int(durable.last_lsn),
                "records_committed": records,
                "live_points": int(durable.num_points),
                "total_rows": int(durable.num_rows),
                "wall_seconds": timer.seconds,
                "records_per_second": (
                    records / timer.seconds if timer.seconds else None
                ),
            }
        )
    finally:
        durable.close()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover a WAL-backed index home and report what replay did."""
    from repro import durability
    from repro.durability.checkpoint import (
        RecoveryError,
        _reference_index_from,
        states_identical,
    )

    home = Path(args.home)
    durable, report = durability.recover(home)
    try:
        out = {"home": str(home), "recovery": report}
        if args.verify:
            try:
                reference = _reference_index_from(home)
            except RecoveryError as exc:
                out["verified"] = None
                out["verify_skipped"] = str(exc)
            else:
                queries = reference.data[
                    : min(4, reference.data.shape[0])
                ]
                out["verified"] = bool(
                    states_identical(
                        durable.index, reference, queries=queries, k=args.k
                    )
                )
                if not out["verified"]:
                    print(json.dumps(out, indent=2, sort_keys=True))
                    raise ReproError(
                        "recovered index diverges from the full-history "
                        "reference replay"
                    )
        if args.checkpoint:
            out["checkpoint"] = str(durability.checkpoint_now(durable, home))
    finally:
        durable.close()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.logconfig import configure_logging
    from repro.obs import (
        ContinuousProfiler,
        FlightRecorder,
        GuaranteeAuditor,
        ObsExporter,
        PagingMetrics,
        SLOEngine,
        SLOSpec,
        SlowQueryLog,
        TraceStore,
        WorkloadAnalytics,
        counter_ratio_sli,
        error_rate_sli,
        latency_sli,
    )
    from repro.obs.telemetry import LATENCY_BUCKETS
    from repro.serve import Frontend, ShardedSearchService

    configure_logging(args.log_level, json_format=args.log_json)

    base_lsn = 0
    if args.wal is not None:
        from repro.durability import (
            CHECKPOINT_SUBDIR,
            WAL_SUBDIR,
            WalFeed,
            latest_checkpoint,
        )

        home = Path(args.wal)
        found = latest_checkpoint(home / CHECKPOINT_SUBDIR)
        if found is None:
            raise ReproError(
                f"{home} holds no loadable checkpoint; run `repro ingest "
                f"{home} --init <dataset>` first"
            )
        base_lsn, ckpt_path, index = found
        print(
            f"serving from {ckpt_path.name} (LSN {base_lsn}, "
            f"{index.storage_info()['backend']} open), tailing "
            f"{home / WAL_SUBDIR}",
            file=sys.stderr,
        )
    elif args.index is not None:
        index = load_index(args.index)
    else:
        raise ReproError("serve needs an index path or --wal <home-dir>")
    queries = _workload_queries(index, args)
    metrics = _parse_p_list(args.p)
    if len(metrics) != 1:
        raise ReproError(
            "serve prints one metric per run; pass a single --p (use "
            "`query`, or search_batch(metrics=...) on the service, for "
            "multi-metric answers)"
        )
    ops_plane = args.metrics_port is not None
    frontend = None
    telemetry = auditor = exporter = slowlog = None
    trace_store = flight = slo = paging = None
    profiler = workload = None
    if ops_plane:
        slowlog = SlowQueryLog(
            capacity=128,
            latency_threshold_seconds=args.slow_ms / 1e3
            if args.slow_ms
            else None,
        )
        trace_store = TraceStore(capacity=64)
        telemetry = Telemetry(
            capture_traces=False,
            slowlog=slowlog,
            trace_store=trace_store,
            trace_sample=args.trace_sample,
        )
        flight = FlightRecorder(
            registry=telemetry.registry,
            trace_store=trace_store,
            slowlog=slowlog,
            dump_dir=args.flight_dir,
        )
        telemetry.flight_recorder = flight
        workload = WorkloadAnalytics(registry=telemetry.registry)
        telemetry.workload = workload
        profiler = ContinuousProfiler(
            registry=telemetry.registry,
            hz=args.profile_hz if args.profile_hz > 0 else 29.0,
        )
        if args.profile_hz > 0:
            # Continuous sampling; with --profile-hz 0 the profiler is
            # still attached so /profile?seconds=N captures on demand.
            profiler.start()
        if args.audit_rate > 0:
            auditor = GuaranteeAuditor(
                index,
                registry=telemetry.registry,
                sample_rate=args.audit_rate,
                flight_recorder=flight,
            )
        slo = SLOEngine(telemetry.registry)
        if args.slo_latency_ms > 0:
            threshold = args.slo_latency_ms / 1e3
            if threshold not in LATENCY_BUCKETS:
                allowed = ", ".join(f"{b * 1e3:g}" for b in LATENCY_BUCKETS)
                raise ReproError(
                    f"--slo-latency-ms must be a histogram bucket bound "
                    f"(one of {allowed} ms), got {args.slo_latency_ms:g}"
                )
            slo.add(SLOSpec(
                "latency",
                objective=args.slo_objective,
                sli=latency_sli(
                    telemetry.registry.histogram(
                        "lazylsh_query_latency_seconds",
                        "Wall-clock query latency",
                        buckets=LATENCY_BUCKETS,
                    ),
                    threshold,
                ),
                description=f"queries under {args.slo_latency_ms:g} ms",
            ))
        if auditor is not None:
            slo.add(SLOSpec(
                "recall_guarantee",
                objective=max(0.05, min(0.95, auditor.bound)),
                sli=counter_ratio_sli(
                    telemetry.registry.counter(
                        "lazylsh_audit_successes_total",
                        "Audited queries meeting the Theorem-1 bound",
                    ),
                    telemetry.registry.counter(
                        "lazylsh_audit_samples_total",
                        "Queries audited by linear scan",
                    ),
                ),
                description="audited queries meeting the Theorem-1 bound",
            ))
        slo.add(SLOSpec(
            "wave_replays",
            objective=0.95,
            sli=error_rate_sli(
                telemetry.registry.counter(
                    "lazylsh_wave_replays_total",
                    "Query waves replayed after worker repair",
                ),
                telemetry.registry.counter(
                    "lazylsh_queries_total", "Queries served"
                ),
            ),
            description="queries answered without a wave replay",
        ))
        paging = PagingMetrics(telemetry.registry)
    # Read-only tail of the (possibly live) log: never truncates.
    feed = None if args.wal is None else WalFeed(
        home / WAL_SUBDIR,
        start_lsn=base_lsn,
        registry=None if telemetry is None else telemetry.registry,
    )
    storage = index.storage_info()
    if telemetry is not None:
        registry = telemetry.registry
        registry.gauge(
            "lazylsh_store_resident_bytes",
            "Index bytes held in process RAM (runs in RAM + mutable state)",
        ).set(float(storage["resident_bytes"]))
        registry.gauge(
            "lazylsh_store_mapped_bytes",
            "Index bytes memory-mapped from the v3 file (OS page cache)",
        ).set(float(storage["mapped_bytes"]))
        registry.gauge(
            "lazylsh_store_backend_info",
            "How the serving index's runs are held, mmap or eager (1 = active)",
        ).set(1.0, backend=storage["backend"])
    timer = Timer()
    try:
        with ShardedSearchService(
            index,
            n_shards=args.shards,
            start_method=args.start_method,
            telemetry=telemetry,
            auditor=auditor,
            base_lsn=base_lsn,
        ) as service:
            if feed is not None:
                applied = service.ingest(feed.poll())
                if applied:
                    print(
                        f"applied {applied} WAL records "
                        f"(now at LSN {service.acked_lsn})",
                        file=sys.stderr,
                    )
            if ops_plane:
                flight.health = service.health
                exporter = ObsExporter(
                    telemetry.registry,
                    health=service.health,
                    slowlog=slowlog,
                    trace_store=trace_store,
                    slo=slo,
                    profiler=profiler,
                    port=args.metrics_port,
                ).start()
                print(f"ops endpoints: {exporter.url}/metrics "
                      f"{exporter.url}/healthz {exporter.url}/slowlog "
                      f"{exporter.url}/trace {exporter.url}/profile",
                      file=sys.stderr)
            if args.http_port is not None:
                frontend = Frontend(
                    service,
                    port=args.http_port,
                    coalesce_ms=args.coalesce_ms,
                    max_pending=args.max_pending,
                    cache_capacity=args.cache_capacity,
                    registry=(
                        telemetry.registry if telemetry is not None else None
                    ),
                ).start()
                print(
                    f"http front door: POST {frontend.url}/v1/search "
                    f"(GET {frontend.url}/v1/health "
                    f"{frontend.url}/v1/stats)",
                    file=sys.stderr,
                )
            with timer:
                results = service.search_batch(queries, args.k, p=metrics[0])
            if auditor is not None:
                auditor.drain(timeout=60.0)
            report = {
                "k": args.k,
                "p": metrics[0],
                "wall_seconds": timer.seconds,
                "results": [result.to_dict() for result in results],
                "service": service.stats(),
            }
            if auditor is not None:
                report["audit"] = auditor.summary()
            if ops_plane:
                report["paging"] = paging.update(
                    stores=index.mapped_regions()
                )
                report["slo"] = slo.tick()
                report["flight"] = flight.stats()
                report["traces"] = trace_store.stats()
                report["workload"] = workload.stats()
                report["profile"] = profiler.stats()
            if frontend is not None:
                report["frontend"] = frontend.stats()
            if args.linger:
                print(
                    f"serving ops endpoints for {args.linger:g}s "
                    "(ctrl-C to stop early)",
                    file=sys.stderr,
                )
                deadline = time.monotonic() + args.linger
                try:
                    while time.monotonic() < deadline:
                        if feed is not None:
                            # Through the front door so its result cache
                            # sees the epoch bump (same call when no
                            # --http-port: Frontend.ingest delegates).
                            sink = (
                                frontend if frontend is not None else service
                            )
                            applied = sink.ingest(feed.poll())
                            if applied:
                                print(
                                    f"applied {applied} WAL records "
                                    f"(now at LSN {service.acked_lsn})",
                                    file=sys.stderr,
                                )
                        if ops_plane:
                            paging.update(stores=index.mapped_regions())
                        remaining = deadline - time.monotonic()
                        step = (
                            min(args.poll_interval, remaining)
                            if feed is not None or ops_plane
                            else remaining
                        )
                        if step > 0:
                            time.sleep(step)
                except KeyboardInterrupt:
                    pass
                if frontend is not None:
                    # Re-snapshot: include the traffic served while
                    # lingering, not just the warm-up batch.
                    report["frontend"] = frontend.stats()
    finally:
        if frontend is not None:
            frontend.stop()
        if exporter is not None:
            exporter.stop()
        if profiler is not None:
            profiler.stop()
        if auditor is not None:
            auditor.close()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cluster_linger(linger: float | None, tick) -> None:
    """Run ``tick()`` every loop until ``linger`` elapses (None = forever).

    Ctrl-C exits cleanly in either mode — cluster roles are daemons, so
    the default is to serve until interrupted; ``--linger N`` bounds the
    run for smoke tests and benchmarks.
    """
    deadline = None if linger is None else time.monotonic() + float(linger)
    try:
        while deadline is None or time.monotonic() < deadline:
            tick()
    except KeyboardInterrupt:
        pass


def cmd_cluster_lead(args: argparse.Namespace) -> int:
    """Serve a durable home as the cluster leader and ship its WAL."""
    from repro.cluster import WalShipper
    from repro.durability import (
        CHECKPOINT_SUBDIR,
        WAL_SUBDIR,
        WalFeed,
        latest_checkpoint,
    )
    from repro.logconfig import configure_logging
    from repro.obs import MetricsRegistry, ObsExporter
    from repro.serve import Frontend, ShardedSearchService

    configure_logging(args.log_level, json_format=args.log_json)
    home = Path(args.home)
    found = latest_checkpoint(home / CHECKPOINT_SUBDIR)
    if found is None:
        raise ReproError(
            f"{home} holds no loadable checkpoint; run `repro ingest "
            f"{home} --init <dataset>` first"
        )
    base_lsn, ckpt_path, index = found
    registry = MetricsRegistry()
    feed = WalFeed(home / WAL_SUBDIR, start_lsn=base_lsn, registry=registry)
    frontend = exporter = None
    # Order matters: the service forks its shard workers BEFORE any
    # listening socket exists, so no worker inherits (and pins) the
    # replication or HTTP port — see DESIGN §16.
    with ShardedSearchService(
        index, n_shards=args.shards, base_lsn=base_lsn
    ) as service:
        service.ingest(feed.poll())
        shipper = WalShipper(
            home,
            host=args.host,
            port=args.port,
            poll_interval=args.poll_interval,
            registry=registry,
        )
        try:
            shipper.start()
            frontend = Frontend(
                service, port=args.http_port, registry=registry
            ).start()
            if args.metrics_port is not None:
                exporter = ObsExporter(
                    registry, health=service.health, port=args.metrics_port
                ).start()
                print(f"ops endpoints: {exporter.url}/metrics "
                      f"{exporter.url}/healthz", file=sys.stderr)
            print(
                f"leading from {ckpt_path.name} (LSN {service.acked_lsn}): "
                f"shipping WAL on {shipper.host}:{shipper.port}, "
                f"front door {frontend.url}",
                file=sys.stderr,
            )

            def tick() -> None:
                applied = frontend.ingest(feed.poll())
                if applied:
                    print(
                        f"applied {applied} WAL records "
                        f"(now at LSN {service.acked_lsn})",
                        file=sys.stderr,
                    )
                time.sleep(args.poll_interval)

            _cluster_linger(args.linger, tick)
            report = {
                "role": "leader",
                "acked_lsn": service.acked_lsn,
                "ship_port": shipper.port,
                "followers": shipper.followers(),
                "frontend": frontend.stats(),
            }
        finally:
            if frontend is not None:
                frontend.stop()
            if exporter is not None:
                exporter.stop()
            shipper.stop()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_cluster_follow(args: argparse.Namespace) -> int:
    """Run a read replica tailing a leader's replication stream."""
    from repro.cluster import FollowerNode
    from repro.logconfig import configure_logging
    from repro.obs import MetricsRegistry, ObsExporter

    configure_logging(args.log_level, json_format=args.log_json)
    host, _, port_text = args.leader.rpartition(":")
    if not host or not port_text.isdigit():
        raise ReproError(
            f"--leader must be host:port of the leader's replication "
            f"socket, got {args.leader!r}"
        )
    registry = MetricsRegistry()
    exporter = None
    node = FollowerNode(
        args.home,
        (host, int(port_text)),
        n_shards=args.shards,
        http_port=args.http_port,
        registry=registry,
    )
    try:
        node.start()
        if args.metrics_port is not None:
            exporter = ObsExporter(
                registry, health=node.service.health, port=args.metrics_port
            ).start()
            print(f"ops endpoints: {exporter.url}/metrics "
                  f"{exporter.url}/healthz", file=sys.stderr)
        print(
            f"following {host}:{port_text} from LSN {node.base_lsn}; "
            f"front door {node.url}",
            file=sys.stderr,
        )
        _cluster_linger(args.linger, lambda: time.sleep(0.2))
        report = dict(node.status(), role="follower")
    finally:
        if exporter is not None:
            exporter.stop()
        node.stop()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_cluster_route(args: argparse.Namespace) -> int:
    """Run the router tier over a set of node front doors."""
    from repro.cluster import Router
    from repro.logconfig import configure_logging

    configure_logging(args.log_level, json_format=args.log_json)
    nodes: dict[str, str] = {}
    for spec in args.node:
        name, sep, url = spec.partition("=")
        if not sep or not name or not url:
            raise ReproError(
                f"--node takes name=http://host:port, got {spec!r}"
            )
        nodes[name] = url
    router = Router(
        nodes,
        leader=args.leader,
        host=args.host,
        port=args.port,
        check_interval=args.check_interval,
        failure_threshold=args.failure_threshold,
        probe_timeout=args.probe_timeout,
        proxy_timeout=args.proxy_timeout,
    )
    try:
        router.start()
        print(
            f"routing {sorted(nodes)} (leader {args.leader}) at "
            f"{router.url}/v1/search — topology {router.url}/v1/cluster, "
            f"metrics {router.url}/metrics",
            file=sys.stderr,
        )
        _cluster_linger(args.linger, lambda: time.sleep(0.2))
        report = router.describe()
    finally:
        router.stop()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Run queries with EXPLAIN and render the plan/cost reports."""
    from repro.obs import render_explain, validate_trace_dict

    metrics = _parse_p_list(args.p)
    if len(metrics) != 1:
        raise ReproError("explain answers one metric per run; pass one --p")
    p = metrics[0]
    records: list[dict] = []
    if args.url:
        import urllib.request

        if not args.query_file:
            raise ReproError("explain --url needs --query-file")
        queries = np.atleast_2d(np.load(args.query_file))
        base = args.url.rstrip("/")
        for query in queries:
            body = json.dumps(
                {
                    "query": [float(x) for x in query],
                    "k": args.k,
                    "p": p,
                    "explain": True,
                }
            ).encode()
            req = urllib.request.Request(
                base + "/v1/search",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req, timeout=30) as fh:
                    payload = json.loads(fh.read().decode())
            except OSError as exc:
                raise ReproError(
                    f"cannot reach {base}/v1/search: {exc}"
                ) from exc
            record = payload.get("explain")
            if record is None:
                raise ReproError(
                    "the front door answered without an explain section; "
                    "is it running a build that predates explain?"
                )
            records.append(record)
    else:
        if args.index is None:
            raise ReproError("explain needs an index path or --url")
        from repro.serve import ShardedSearchService

        index = load_index(args.index)
        queries = _workload_queries(index, args)
        with ShardedSearchService(index, n_shards=args.shards) as service:
            results = service.search_batch(
                queries, args.k, p=p, explain=True
            )
        records = [result.explain for result in results]
    for record in records:
        validate_trace_dict(record)
        if args.format == "json":
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            print(render_explain(record))
    return 0


def _metric_total(samples: dict, name: str, **labels: str) -> float:
    """Sum of a family's sample values matching the given labels."""
    total = 0.0
    for sample_labels, value in samples.get(name, []):
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += value
    return total


def _shard_labels(samples: dict, name: str) -> list[str]:
    return sorted(
        {
            labels["shard"]
            for labels, _v in samples.get(name, [])
            if "shard" in labels
        },
        key=lambda s: int(s) if s.isdigit() else 0,
    )


#: How many slowlog rows ``repro top`` shows per refresh.
_SLOWLOG_ROWS = 5


def _render_top(
    samples: dict,
    prev: dict | None,
    dt: float | None,
    health: dict | None,
    slowlog: list | None = None,
) -> str:
    from repro.obs.exporter import histogram_quantile

    def rate(name: str, **labels: str) -> float | None:
        if prev is None or not dt:
            return None
        return (
            _metric_total(samples, name, **labels)
            - _metric_total(prev, name, **labels)
        ) / dt

    def fmt(value: float | None, spec: str = ".1f") -> str:
        return "-" if value is None else format(value, spec)

    lines = []
    queries = _metric_total(samples, "lazylsh_queries_total")
    qps = rate("lazylsh_queries_total")
    lat = samples.get("lazylsh_query_latency_seconds_bucket", [])
    p50 = histogram_quantile(lat, 0.50)
    p99 = histogram_quantile(lat, 0.99)
    seq_io = _metric_total(samples, "lazylsh_query_io_sequential_sum")
    rnd_io = _metric_total(samples, "lazylsh_query_io_random_sum")
    status = "?"
    if health is not None:
        status = "healthy" if health.get("healthy") else "DEGRADED"
    lines.append(
        f"lazylsh top — {status} | queries {queries:.0f} "
        f"| QPS {fmt(qps)} | p50 {fmt(p50 * 1e3 if p50 is not None else None, '.2f')} ms "
        f"| p99 {fmt(p99 * 1e3 if p99 is not None else None, '.2f')} ms "
        f"| I/O seq {seq_io:.0f} rnd {rnd_io:.0f}"
    )
    shards = _shard_labels(samples, "lazylsh_shard_rows_scanned_total")
    if shards:
        alive_by_shard = {}
        if health is not None:
            alive_by_shard = {
                str(s.get("shard")): s.get("alive")
                for s in health.get("shards", [])
            }
        table = ResultTable(
            "per-shard fleet",
            ["shard", "alive", "rows/s", "rows", "crossings", "busy s", "ops"],
        )
        for shard in shards:
            table.add_row(
                [
                    shard,
                    {True: "yes", False: "NO"}.get(
                        alive_by_shard.get(shard), "?"
                    ),
                    fmt(rate("lazylsh_shard_rows_scanned_total", shard=shard)),
                    int(_metric_total(
                        samples, "lazylsh_shard_rows_scanned_total",
                        shard=shard,
                    )),
                    int(_metric_total(
                        samples, "lazylsh_shard_crossings_total", shard=shard
                    )),
                    round(_metric_total(
                        samples, "lazylsh_shard_busy_seconds_total",
                        shard=shard,
                    ), 3),
                    int(_metric_total(
                        samples, "lazylsh_shard_ops_total", shard=shard
                    )),
                ]
            )
        lines.append(table.render())
    if "lazylsh_audit_success_rate" in samples:
        bound = _metric_total(samples, "lazylsh_audit_guarantee_bound")
        success = _metric_total(samples, "lazylsh_audit_success_rate")
        flag = "OK" if success >= bound else "VIOLATION"
        lines.append(
            f"audit: recall@k "
            f"{_metric_total(samples, 'lazylsh_audit_recall_at_k'):.3f} "
            f"| ratio "
            f"{_metric_total(samples, 'lazylsh_audit_overall_ratio'):.3f} "
            f"| success {success:.3f} vs bound {bound:.3f} [{flag}] "
            f"| samples "
            f"{_metric_total(samples, 'lazylsh_audit_samples_total'):.0f}"
        )
    slo_names = sorted(
        {
            labels["slo"]
            for labels, _v in samples.get("lazylsh_slo_alert_active", [])
            if "slo" in labels
        }
    )
    if slo_names:
        parts = []
        for name in slo_names:
            active = _metric_total(
                samples, "lazylsh_slo_alert_active", slo=name
            )
            err = _metric_total(samples, "lazylsh_slo_error_rate", slo=name)
            burns = [
                value
                for labels, value in samples.get("lazylsh_slo_burn_rate", [])
                if labels.get("slo") == name
            ]
            state = "ALERT" if active else "ok"
            parts.append(
                f"{name} err {err:.4f} burn {max(burns, default=0.0):.1f} "
                f"[{state}]"
            )
        lines.append("slo: " + " | ".join(parts))
    cluster_parts = []
    if "lazylsh_cluster_followers" in samples:
        cluster_parts.append(
            f"followers "
            f"{_metric_total(samples, 'lazylsh_cluster_followers'):.0f}"
        )
        cluster_parts.append(
            f"shipped "
            f"{_metric_total(samples, 'lazylsh_cluster_shipped_records_total'):.0f}"
        )
    if "lazylsh_replica_acked_lsn" in samples:
        up = _metric_total(samples, "lazylsh_replica_connected")
        cluster_parts.append(
            f"replica lsn "
            f"{_metric_total(samples, 'lazylsh_replica_acked_lsn'):.0f} "
            f"({'stream up' if up else 'stream DOWN'})"
        )
        cluster_parts.append(
            f"reconnects "
            f"{_metric_total(samples, 'lazylsh_replica_reconnects_total'):.0f}"
        )
    if "lazylsh_cluster_commit_lsn" in samples:
        cluster_parts.append(
            f"commit lsn "
            f"{_metric_total(samples, 'lazylsh_cluster_commit_lsn'):.0f}"
        )
        lags = [
            value
            for _labels, value in samples.get("lazylsh_replica_lag_lsn", [])
        ]
        if lags:
            cluster_parts.append(f"lag max {max(lags):.0f}")
        cluster_parts.append(
            f"failovers "
            f"{_metric_total(samples, 'lazylsh_cluster_failovers_total'):.0f}"
        )
    if cluster_parts:
        lines.append("cluster: " + " | ".join(cluster_parts))
    if "lazylsh_flight_triggers_total" in samples:
        lines.append(
            f"flight: triggers "
            f"{_metric_total(samples, 'lazylsh_flight_triggers_total'):.0f} "
            f"| dumps "
            f"{_metric_total(samples, 'lazylsh_flight_dumps_total'):.0f}"
        )
    if "lazylsh_major_faults_total" in samples:
        residency = [
            value
            for _labels, value in samples.get(
                "lazylsh_page_cache_resident_ratio", []
            )
        ]
        resident_text = (
            f" | resident {min(residency):.0%}..{max(residency):.0%}"
            if residency
            else ""
        )
        lines.append(
            f"paging: major faults "
            f"{_metric_total(samples, 'lazylsh_major_faults_total'):.0f} "
            f"| minor "
            f"{_metric_total(samples, 'lazylsh_minor_faults_total'):.0f}"
            f"{resident_text}"
        )
    profile = samples.get("lazylsh_profile_samples_total", [])
    if profile:
        by_phase = {
            labels.get("phase", "?"): value for labels, value in profile
        }
        total = sum(by_phase.values())
        if total:
            parts = [
                f"{phase} {count / total:.0%}"
                for phase, count in sorted(
                    by_phase.items(), key=lambda kv: -kv[1]
                )
                if count
            ]
            lines.append(
                f"profile: {total:.0f} samples | " + " ".join(parts)
            )
    demand = samples.get("lazylsh_workload_queries_total", [])
    if demand:
        ranked = sorted(demand, key=lambda kv: -kv[1])[:4]
        parts = [
            f"p={labels.get('p', '?')} k={labels.get('k', '?')} "
            f"({value:.0f})"
            for labels, value in ranked
        ]
        heat_parts = []
        for heat in ("hot", "cold"):
            hits = _metric_total(
                samples, "lazylsh_workload_cache_lookups_total",
                heat=heat, outcome="hit",
            )
            misses = _metric_total(
                samples, "lazylsh_workload_cache_lookups_total",
                heat=heat, outcome="miss",
            )
            if hits + misses:
                heat_parts.append(
                    f"{heat} {hits / (hits + misses):.0%}"
                )
        heat_text = (
            " | cache " + " ".join(heat_parts) if heat_parts else ""
        )
        lines.append("workload: " + " ".join(parts) + heat_text)
    if slowlog:
        table = ResultTable(
            "slow queries (newest last)",
            ["query", "ms", "rounds", "termination", "request", "trace"],
        )
        for entry in slowlog[-_SLOWLOG_ROWS:]:
            table.add_row(
                [
                    entry.get("query_id", "-"),
                    round(float(entry.get("elapsed_seconds", 0.0)) * 1e3, 2),
                    entry.get("num_rounds", "-"),
                    entry.get("termination", "-"),
                    entry.get("request_id") or "-",
                    (
                        f"/trace/{entry['trace_id']}"
                        if entry.get("trace_id")
                        else "-"
                    ),
                ]
            )
        lines.append(table.render())
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    from repro.obs.exporter import parse_prometheus_text

    base = args.url.rstrip("/")
    prev = None
    prev_t = None
    iteration = 0
    while args.iterations is None or iteration < args.iterations:
        if iteration:
            time.sleep(args.interval)
        try:
            with urllib.request.urlopen(base + "/metrics", timeout=5) as fh:
                text = fh.read().decode()
        except (urllib.error.URLError, OSError) as exc:
            raise ReproError(f"cannot scrape {base}/metrics: {exc}") from exc
        now = time.monotonic()
        samples = parse_prometheus_text(text)
        health = None
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=5) as fh:
                health = json.loads(fh.read().decode())
        except (urllib.error.HTTPError,) as exc:
            # 503 still carries the health JSON body
            try:
                health = json.loads(exc.read().decode())
            except Exception:
                health = None
        except (urllib.error.URLError, OSError):
            health = None
        slowlog = None
        try:
            with urllib.request.urlopen(base + "/slowlog", timeout=5) as fh:
                slowlog = json.loads(fh.read().decode())
        except (urllib.error.URLError, OSError, ValueError):
            slowlog = None
        if not args.no_clear and iteration:
            print("\x1b[2J\x1b[H", end="")
        print(_render_top(
            samples, prev, now - prev_t if prev_t is not None else None,
            health, slowlog,
        ))
        prev, prev_t = samples, now
        iteration += 1
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    print("generated datasets usable with `build`:")
    for name in SIMULATED_DATASET_NAMES:
        print(f"  {name}")
    print("  synthetic:<n>x<d>   (uniform integers, Table 3 workload)")
    print("  <path>.npy          (your own float matrix)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="LazyLSH reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="show per-metric parameters")
    p_params.add_argument("--d", type=int, required=True, help="dimensionality")
    p_params.add_argument("--c", type=float, default=3.0, help="approximation ratio")
    p_params.add_argument("--epsilon", type=float, default=0.01)
    p_params.add_argument("--beta", type=float, default=1e-4)
    p_params.add_argument(
        "--p", default="0.5,0.6,0.7,0.8,0.9,1.0", help="comma-separated metrics"
    )
    p_params.add_argument("--mc-samples", type=int, default=50_000)
    p_params.add_argument("--seed", type=int, default=7)
    p_params.set_defaults(func=cmd_params)

    p_build = sub.add_parser("build", help="build and save an index")
    p_build.add_argument("dataset", help=".npy path, dataset name, or synthetic:<n>x<d>")
    p_build.add_argument("output", help="output index path (.npz)")
    p_build.add_argument("--n", type=int, default=None, help="cardinality override")
    p_build.add_argument("--c", type=float, default=3.0)
    p_build.add_argument("--p-min", type=float, default=0.5)
    p_build.add_argument("--mc-samples", type=int, default=50_000)
    p_build.add_argument("--seed", type=int, default=7)
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="query a saved index")
    p_query.add_argument("index", help="index .npz path")
    p_query.add_argument("--k", type=int, default=10)
    p_query.add_argument("--p", default="0.5,1.0", help="comma-separated metrics")
    p_query.add_argument(
        "--row", type=int, default=0, help="use this indexed row as the query"
    )
    p_query.add_argument(
        "--query-file", default=None, help=".npy file of query vectors"
    )
    p_query.set_defaults(func=cmd_query)

    def _add_workload_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("index", help="index .npz path")
        sub_parser.add_argument("--k", type=int, default=10)
        sub_parser.add_argument(
            "--p", default="1.0", help="comma-separated metrics"
        )
        sub_parser.add_argument(
            "--row", type=int, default=0, help="use this indexed row as the query"
        )
        sub_parser.add_argument(
            "--query-file", default=None, help=".npy file of query vectors"
        )
        sub_parser.add_argument(
            "--engine", choices=("flat", "scalar"), default="flat"
        )

    p_trace = sub.add_parser(
        "trace", help="run queries with telemetry, write QueryTrace JSONL"
    )
    _add_workload_args(p_trace)
    p_trace.add_argument("--output", default="traces.jsonl")
    p_trace.add_argument(
        "--spans", default=None, help="also write harness spans as JSONL"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="run queries with telemetry, print the metrics registry"
    )
    _add_workload_args(p_stats)
    p_stats.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )
    p_stats.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run through the sharded service with this many shards and "
        "print the per-shard random-I/O breakdown (0 = single-process)",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_ingest = sub.add_parser(
        "ingest", help="durably apply inserts/removals through a WAL"
    )
    p_ingest.add_argument("home", help="durable index home directory")
    p_ingest.add_argument(
        "--init",
        default=None,
        metavar="DATASET",
        help="initialise the home from this dataset (.npy path, dataset "
        "name, or synthetic:<n>x<d>); omit to recover an existing home",
    )
    p_ingest.add_argument(
        "--insert",
        default=None,
        metavar="SPEC",
        help="insert this batch (.npy path or synthetic:<n>x<d>)",
    )
    p_ingest.add_argument(
        "--batches",
        type=int,
        default=1,
        help="append --insert this many times (throughput runs)",
    )
    p_ingest.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="per-batch gaussian noise added to --insert points",
    )
    p_ingest.add_argument(
        "--remove", default=None, help="comma-separated point ids to remove"
    )
    p_ingest.add_argument(
        "--checkpoint",
        action="store_true",
        help="compact the WAL into a checkpoint after applying updates",
    )
    p_ingest.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on commit (faster, loses the durability guarantee)",
    )
    p_ingest.add_argument("--n", type=int, default=None, help="cardinality override")
    p_ingest.add_argument("--c", type=float, default=3.0)
    p_ingest.add_argument("--p-min", type=float, default=0.5)
    p_ingest.add_argument("--mc-samples", type=int, default=50_000)
    p_ingest.add_argument("--seed", type=int, default=7)
    p_ingest.set_defaults(func=cmd_ingest)

    p_recover = sub.add_parser(
        "recover", help="recover a durable home and print the replay report"
    )
    p_recover.add_argument("home", help="durable index home directory")
    p_recover.add_argument(
        "--verify",
        action="store_true",
        help="also rebuild the full-history reference and require "
        "bit-identical state (needs an unpruned WAL)",
    )
    p_recover.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a fresh checkpoint after recovery",
    )
    p_recover.add_argument(
        "--k", type=int, default=5, help="kNN depth for --verify probes"
    )
    p_recover.set_defaults(func=cmd_recover)

    p_serve = sub.add_parser(
        "serve", help="answer queries through the sharded query service"
    )
    p_serve.add_argument(
        "index", nargs="?", default=None, help="index .npz path"
    )
    p_serve.add_argument(
        "--wal",
        default=None,
        metavar="HOME",
        help="serve a durable home directory instead of a static .npz: "
        "load its newest checkpoint and tail the WAL for live updates",
    )
    p_serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="WAL poll cadence during --linger (seconds; needs --wal)",
    )
    p_serve.add_argument("--k", type=int, default=10)
    p_serve.add_argument("--p", default="1.0", help="single metric")
    p_serve.add_argument(
        "--shards", type=int, default=2, help="shard/worker count"
    )
    p_serve.add_argument(
        "--row", type=int, default=0, help="use this indexed row as the query"
    )
    p_serve.add_argument(
        "--query-file", default=None, help=".npy file of query vectors"
    )
    p_serve.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method (platform default if omitted)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="start the ops exporter (/metrics /healthz /slowlog) on this "
        "port (0 = OS-assigned)",
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="start the async HTTP front door (POST /v1/search, "
        "GET /v1/health /v1/stats) on this port (0 = OS-assigned); "
        "pair with --linger to keep it up",
    )
    p_serve.add_argument(
        "--coalesce-ms",
        type=float,
        default=2.0,
        help="front-door batching window in ms (concurrent requests "
        "arriving within it share one index scan)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="front-door admission bound; requests beyond it get 429",
    )
    p_serve.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        help="front-door result-cache entries (LRU, invalidated by WAL "
        "epoch; 0 = off)",
    )
    p_serve.add_argument(
        "--audit-rate",
        type=float,
        default=0.0,
        help="guarantee-auditor sample rate in [0, 1] (0 = off; needs "
        "--metrics-port)",
    )
    p_serve.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        help="slow-query log latency threshold in ms (0 = capture all)",
    )
    p_serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="keep the ops endpoints up this many seconds after the "
        "workload (so `repro top` can watch)",
    )
    p_serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        help="head-sampling probability in [0, 1] for distributed "
        "traces (needs --metrics-port; sampled traces appear under "
        "/trace/<id>)",
    )
    p_serve.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="write flight-recorder bundles (JSON) here on incident "
        "triggers; without it bundles stay in memory",
    )
    p_serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=0.0,
        help="enable a latency SLO with this threshold in ms (must be "
        "a latency-histogram bucket bound; 0 = off)",
    )
    p_serve.add_argument(
        "--slo-objective",
        type=float,
        default=0.99,
        help="target good-fraction for the latency SLO (default 0.99)",
    )
    p_serve.add_argument(
        "--profile-hz",
        type=float,
        default=0.0,
        help="continuous sampling-profiler rate in Hz (0 = no background "
        "sampling; /profile?seconds=N on-demand capture always works "
        "when --metrics-port is set)",
    )
    p_serve.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="log level for the repro.* namespace (default info)",
    )
    p_serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line instead of text",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="replication plane: lead, follow, or route (DESIGN §16)",
    )
    cluster_sub = p_cluster.add_subparsers(dest="role", required=True)

    def _cluster_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--linger",
            type=float,
            default=None,
            metavar="SECONDS",
            help="serve this many seconds then exit with a JSON report "
            "(default: until ctrl-C)",
        )
        parser.add_argument(
            "--log-level",
            default="info",
            choices=("debug", "info", "warning", "error"),
            help="log level for the repro.* namespace (default info)",
        )
        parser.add_argument(
            "--log-json",
            action="store_true",
            help="emit one JSON object per log line instead of text",
        )

    p_lead = cluster_sub.add_parser(
        "lead",
        help="serve a durable home and ship its WAL to followers",
    )
    p_lead.add_argument("home", help="durable home (wal/ + checkpoints/)")
    p_lead.add_argument(
        "--host", default="127.0.0.1", help="replication bind address"
    )
    p_lead.add_argument(
        "--port",
        type=int,
        default=0,
        help="replication (WAL-shipping) port; 0 picks a free one",
    )
    p_lead.add_argument(
        "--http-port",
        type=int,
        default=0,
        help="v1 front-door port (0 picks a free one)",
    )
    p_lead.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve /metrics and /healthz on this port",
    )
    p_lead.add_argument(
        "--shards", type=int, default=2, help="local worker processes"
    )
    p_lead.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="WAL tail/ship poll period; bounds replication lag",
    )
    _cluster_common(p_lead)
    p_lead.set_defaults(func=cmd_cluster_lead)

    p_follow = cluster_sub.add_parser(
        "follow",
        help="run a read replica tailing a leader's WAL stream",
    )
    p_follow.add_argument(
        "home", help="local home for this replica's checkpoints"
    )
    p_follow.add_argument(
        "--leader",
        required=True,
        metavar="HOST:PORT",
        help="the leader's replication socket (repro cluster lead --port)",
    )
    p_follow.add_argument(
        "--http-port",
        type=int,
        default=0,
        help="v1 front-door port for follower reads (0 picks a free one)",
    )
    p_follow.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve /metrics and /healthz on this port",
    )
    p_follow.add_argument(
        "--shards", type=int, default=2, help="local worker processes"
    )
    _cluster_common(p_follow)
    p_follow.set_defaults(func=cmd_cluster_follow)

    p_route = cluster_sub.add_parser(
        "route",
        help="route /v1/search across nodes with staleness bounds "
        "and failover",
    )
    p_route.add_argument(
        "--node",
        action="append",
        required=True,
        metavar="NAME=URL",
        help="a node front door, e.g. leader=http://127.0.0.1:8301 "
        "(repeatable)",
    )
    p_route.add_argument(
        "--leader", required=True, help="configured leader's node name"
    )
    p_route.add_argument(
        "--host", default="127.0.0.1", help="router bind address"
    )
    p_route.add_argument(
        "--port", type=int, default=0, help="router port (0 picks one)"
    )
    p_route.add_argument(
        "--check-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="health-probe period",
    )
    p_route.add_argument(
        "--failure-threshold",
        type=int,
        default=2,
        help="consecutive probe failures before a node is marked down",
    )
    p_route.add_argument(
        "--probe-timeout",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="per-probe HTTP timeout",
    )
    p_route.add_argument(
        "--proxy-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-request proxy timeout",
    )
    _cluster_common(p_route)
    p_route.set_defaults(func=cmd_cluster_route)

    p_explain = sub.add_parser(
        "explain",
        help="run queries with EXPLAIN and render the plan/cost report",
    )
    p_explain.add_argument(
        "index", nargs="?", default=None, help="index .npz path"
    )
    p_explain.add_argument("--k", type=int, default=10)
    p_explain.add_argument("--p", default="1.0", help="single metric")
    p_explain.add_argument(
        "--row", type=int, default=0, help="use this indexed row as the query"
    )
    p_explain.add_argument(
        "--query-file", default=None, help=".npy file of query vectors"
    )
    p_explain.add_argument(
        "--shards", type=int, default=2, help="shard/worker count"
    )
    p_explain.add_argument(
        "--url",
        default=None,
        help="POST to a running front door at this base URL instead of "
        "loading the index locally (needs --query-file)",
    )
    p_explain.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_explain.set_defaults(func=cmd_explain)

    p_top = sub.add_parser(
        "top", help="live ops view of a running exporter"
    )
    p_top.add_argument(
        "--url",
        default="http://127.0.0.1:9100",
        help="base URL of the ops exporter",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="poll interval seconds"
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many polls (default: run until ctrl-C)",
    )
    p_top.add_argument(
        "--no-clear",
        action="store_true",
        help="append screens instead of clearing the terminal",
    )
    p_top.set_defaults(func=cmd_top)

    p_list = sub.add_parser("datasets", help="list generated datasets")
    p_list.set_defaults(func=cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
