"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParams:
    def test_prints_table(self, capsys):
        rc = main(
            [
                "params",
                "--d", "16",
                "--c", "3",
                "--p", "0.7,1.0",
                "--mc-samples", "5000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "eta_p" in out
        assert "0.7" in out

    def test_unsupported_metric_marked(self, capsys):
        rc = main(
            [
                "params",
                "--d", "128",
                "--c", "2",
                "--p", "0.3",
                "--mc-samples", "5000",
            ]
        )
        assert rc == 0
        assert "not sensitive" in capsys.readouterr().out


class TestBuildAndQuery:
    def test_build_synthetic_and_query(self, capsys, tmp_path):
        index_path = tmp_path / "idx.npz"
        rc = main(
            [
                "build",
                "synthetic:300x8",
                str(index_path),
                "--mc-samples", "5000",
                "--seed", "3",
            ]
        )
        assert rc == 0
        assert index_path.exists()
        out = capsys.readouterr().out
        assert "built index over 300 x 8" in out

        rc = main(
            ["query", str(index_path), "--k", "5", "--p", "0.7,1.0", "--row", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kNN results" in out
        # The query row must find itself at distance 0 in both metrics.
        assert out.count("0.0") >= 2

    def test_build_from_npy(self, tmp_path, capsys):
        data_path = tmp_path / "data.npy"
        np.save(data_path, np.random.default_rng(1).uniform(0, 100, (200, 6)))
        rc = main(
            [
                "build",
                str(data_path),
                str(tmp_path / "idx"),
                "--mc-samples", "5000",
            ]
        )
        assert rc == 0
        assert (tmp_path / "idx.npz").exists()

    def test_query_with_external_file(self, tmp_path, capsys):
        rc = main(
            [
                "build",
                "synthetic:200x6",
                str(tmp_path / "idx.npz"),
                "--mc-samples", "5000",
            ]
        )
        assert rc == 0
        queries = np.random.default_rng(2).uniform(0, 10000, (2, 6))
        qpath = tmp_path / "queries.npy"
        np.save(qpath, queries)
        rc = main(
            [
                "query",
                str(tmp_path / "idx.npz"),
                "--query-file", str(qpath),
                "--p", "1.0",
            ]
        )
        assert rc == 0


class TestTraceAndStats:
    @pytest.fixture
    def index_path(self, tmp_path):
        path = tmp_path / "idx.npz"
        rc = main(
            [
                "build",
                "synthetic:300x8",
                str(path),
                "--mc-samples", "5000",
                "--seed", "3",
            ]
        )
        assert rc == 0
        return path

    def test_trace_writes_valid_jsonl(self, capsys, tmp_path, index_path):
        from repro.obs import load_traces_jsonl

        out = tmp_path / "traces.jsonl"
        spans = tmp_path / "spans.jsonl"
        rc = main(
            [
                "trace",
                str(index_path),
                "--k", "5",
                "--p", "0.5,1.0",
                "--row", "2",
                "--output", str(out),
                "--spans", str(spans),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "traced 1 queries (2 traces)" in stdout
        assert '"queries": 2' in stdout  # summary counts traces: 1 row x 2 metrics
        traces = load_traces_jsonl(out)  # validates each record
        assert sorted(t.p for t in traces) == [0.5, 1.0]
        assert all(t.termination for t in traces)
        assert spans.exists()
        assert "cli.workload" in spans.read_text()

    def test_trace_scalar_engine(self, capsys, tmp_path, index_path):
        from repro.obs import load_traces_jsonl

        out = tmp_path / "traces.jsonl"
        rc = main(
            [
                "trace",
                str(index_path),
                "--p", "1.0",
                "--engine", "scalar",
                "--output", str(out),
            ]
        )
        assert rc == 0
        assert load_traces_jsonl(out)[0].engine == "scalar"

    def test_stats_prometheus_output(self, capsys, index_path):
        rc = main(["stats", str(index_path), "--p", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE lazylsh_queries_total counter" in out
        assert 'lazylsh_queries_total{engine="flat",p="0.5"} 1' in out
        assert "lazylsh_store_searches_total" in out

    def test_stats_json_output(self, capsys, index_path):
        import json

        capsys.readouterr()  # drop the fixture's build output
        rc = main(["stats", str(index_path), "--format", "json"])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["lazylsh_queries_total"]["type"] == "counter"
        assert snapshot["lazylsh_query_rounds"]["type"] == "histogram"


class TestOpsCli:
    @pytest.fixture
    def index_path(self, tmp_path):
        path = tmp_path / "idx.npz"
        rc = main(
            [
                "build",
                "synthetic:300x8",
                str(path),
                "--mc-samples", "5000",
                "--seed", "3",
            ]
        )
        assert rc == 0
        return path

    def test_stats_shards_prints_breakdown_table(self, capsys, index_path):
        rc = main(["stats", str(index_path), "--shards", "2", "--p", "0.8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-shard random I/O" in out
        assert 'lazylsh_shard_rows_scanned_total{shard="0"}' in out
        assert 'lazylsh_shard_rows_scanned_total{shard="1"}' in out

    def test_stats_shards_json_breakdown(self, capsys, index_path):
        import json

        capsys.readouterr()  # drop the fixture's build output
        rc = main(
            [
                "stats", str(index_path),
                "--shards", "2",
                "--format", "json",
                "--p", "0.8",
            ]
        )
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["shard_io"]
        for per_query in snapshot["shard_io"]:
            assert len(per_query) == 2
            assert all(io["sequential"] == 0 for io in per_query)

    @pytest.mark.parametrize(
        "command, reason",
        [
            (["stats", "--shards", "2"], "reports one metric per run"),
            (["serve", "--k", "5", "--shards", "2"], "prints one metric per run"),
        ],
    )
    def test_sharded_commands_take_one_p(
        self, capsys, index_path, command, reason
    ):
        rc = main([command[0], str(index_path), *command[1:], "--p", "0.5,1.0"])
        assert rc == 2
        assert reason in capsys.readouterr().err

    def test_serve_with_ops_plane_reports_audit(self, capsys, index_path):
        import json

        capsys.readouterr()
        rc = main(
            [
                "serve", str(index_path),
                "--k", "5",
                "--p", "0.8",
                "--shards", "2",
                "--metrics-port", "0",
                "--audit-rate", "1.0",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "/metrics" in captured.err  # endpoint URL announced
        report = json.loads(captured.out)
        audit = report["audit"]
        assert audit["samples"] == len(report["results"])
        assert audit["success_rate"] >= audit["bound"]

    def test_top_renders_fleet_view(self, capsys, index_path):
        from repro import Telemetry
        from repro.obs import ObsExporter
        from repro.persistence import load_index
        from repro.serve import ShardedSearchService

        index = load_index(index_path)
        telemetry = Telemetry()
        with ShardedSearchService(
            index, n_shards=2, telemetry=telemetry
        ) as svc:
            svc.search_batch(index.data[:3], 5, p=0.8)
            with ObsExporter(
                telemetry.registry, health=svc.health
            ) as exporter:
                capsys.readouterr()
                rc = main(
                    [
                        "top",
                        "--url", exporter.url,
                        "--iterations", "2",
                        "--interval", "0.01",
                        "--no-clear",
                    ]
                )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lazylsh top — healthy" in out
        assert "per-shard fleet" in out
        assert out.count("queries 3") == 2  # both polls rendered

    def test_top_slowlog_rows_show_rounds_and_termination(
        self, capsys, index_path
    ):
        from repro import Telemetry
        from repro.obs import ObsExporter, SlowQueryLog
        from repro.persistence import load_index
        from repro.serve import ShardedSearchService

        index = load_index(index_path)
        slowlog = SlowQueryLog(capacity=8)  # capture-all
        telemetry = Telemetry(slowlog=slowlog)
        with ShardedSearchService(
            index, n_shards=2, telemetry=telemetry
        ) as svc:
            svc.search_batch(index.data[:3], 5, p=0.8)
            with ObsExporter(
                telemetry.registry, health=svc.health, slowlog=slowlog
            ) as exporter:
                capsys.readouterr()
                rc = main(
                    ["top", "--url", exporter.url, "--iterations", "1"]
                )
        assert rc == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        for entry in slowlog.to_dicts():
            cells = [str(entry["query_id"])]
            assert any(
                row[:1] == cells
                and row[2:4] == [str(entry["num_rounds"]), entry["termination"]]
                for row in rows
            ), (entry["query_id"], rows)

    def test_top_unreachable_url_errors(self, capsys):
        rc = main(
            ["top", "--url", "http://127.0.0.1:9", "--iterations", "1"]
        )
        assert rc == 2
        assert "cannot scrape" in capsys.readouterr().err


class TestDurabilityCommands:
    def _init_home(self, tmp_path):
        home = tmp_path / "home"
        rc = main(
            [
                "ingest", str(home),
                "--init", "synthetic:250x8",
                "--insert", "synthetic:4x8",
                "--batches", "2",
                "--jitter", "0.1",
                "--mc-samples", "5000",
                "--seed", "3",
                "--no-fsync",
            ]
        )
        assert rc == 0
        return home

    def test_ingest_init_then_update(self, capsys, tmp_path):
        import json

        home = self._init_home(tmp_path)
        report = json.loads(capsys.readouterr().out)
        assert report["initialized"] is True
        assert report["lsn_after"] == 2
        assert report["live_points"] == 258
        rc = main(["ingest", str(home), "--remove", "3,9", "--no-fsync"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["initialized"] is False
        assert report["recovery"]["replayed_records"] == 2
        assert report["lsn_after"] == 3
        assert report["live_points"] == 256

    def test_recover_verify_and_checkpoint(self, capsys, tmp_path):
        import json

        home = self._init_home(tmp_path)
        capsys.readouterr()
        rc = main(["recover", str(home), "--verify", "--checkpoint"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True
        assert report["recovery"]["last_lsn"] == 2
        assert "checkpoint-00000000000000000002" in report["checkpoint"]

    def test_serve_wal_applies_log(self, capsys, tmp_path):
        import json

        home = self._init_home(tmp_path)
        capsys.readouterr()
        rc = main(
            ["serve", "--wal", str(home), "--k", "3", "--shards", "2"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "applied 2 WAL records" in captured.err
        report = json.loads(captured.out)
        assert report["service"]["acked_lsn"] == 2
        assert report["service"]["epoch"] == 2

    def test_serve_wal_skips_corrupt_newest_checkpoint(
        self, capsys, tmp_path, corrupt_newest_home
    ):
        import json

        from repro.durability import recover

        home, queries = corrupt_newest_home
        query_file = tmp_path / "queries.npy"
        np.save(query_file, queries)
        capsys.readouterr()
        rc = main(
            [
                "serve", "--wal", str(home), "--k", "3", "--p", "1.0",
                "--shards", "2", "--query-file", str(query_file),
            ]
        )
        assert rc == 0, capsys.readouterr().err
        captured = capsys.readouterr()
        assert "checkpoint-00000000000000000000" in captured.err
        report = json.loads(captured.out)
        assert report["service"]["acked_lsn"] == 2
        durable, recovery = recover(home, sync=False)
        try:
            assert recovery["checkpoint_lsn"] == 0
            assert recovery["replayed_records"] == 2
            for query, got in zip(queries, report["results"], strict=True):
                want = durable.index.knn(query, 3, p=1.0)
                assert got["ids"] == [int(i) for i in want.ids]
                assert got["distances"] == [float(d) for d in want.distances]
                assert got["io"] == want.io.to_dict()
        finally:
            durable.close()

    def test_serve_requires_index_or_wal(self, capsys):
        rc = main(["serve"])
        assert rc == 2
        assert "index path or --wal" in capsys.readouterr().err

    def test_recover_without_home_errors(self, capsys, tmp_path):
        rc = main(["recover", str(tmp_path / "missing")])
        assert rc == 2
        assert "nothing to recover" in capsys.readouterr().err


class TestErrors:
    def test_unknown_dataset(self, capsys, tmp_path):
        rc = main(["build", "imagenet", str(tmp_path / "x.npz")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_datasets_listing(self, capsys):
        rc = main(["datasets"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inria" in out
        assert "synthetic:<n>x<d>" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
