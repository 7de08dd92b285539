"""Tests for the ops plane: slow-query log, HTTP exporter, guarantee
auditor, and the Prometheus text exposition round trip (DESIGN §10)."""

import json
import logging
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig, Telemetry
from repro.datasets import make_synthetic, sample_queries
from repro.errors import InvalidParameterError
from repro.obs import (
    TERMINATION_K_WITHIN,
    GuaranteeAuditor,
    MetricsRegistry,
    ObsExporter,
    QueryTrace,
    RoundRecord,
    SlowQueryLog,
    histogram_quantile,
    parse_prometheus_text,
    validate_trace_dict,
)
from repro.storage.io_stats import IOStats


@pytest.fixture(scope="module")
def obs_index():
    data = make_synthetic(500, 12, seed=31)
    split = sample_queries(data, n_queries=4, seed=32)
    cfg = LazyLSHConfig(
        c=3.0, p_min=0.5, seed=31, mc_samples=20_000, mc_buckets=100
    )
    return LazyLSH(cfg).build(split.data), split.queries


def _fake_trace(query_id, elapsed, seq=0, rnd=0):
    io = SimpleNamespace(
        sequential=seq,
        random=rnd,
        to_dict=lambda: {"sequential": seq, "random": rnd},
    )
    return SimpleNamespace(
        query_id=query_id,
        elapsed_seconds=elapsed,
        io=io,
        to_dict=lambda: {"query_id": query_id},
    )


class TestSlowQueryLog:
    def test_capture_all_when_unthresholded(self):
        log = SlowQueryLog(capacity=4)
        assert log.offer(_fake_trace(0, 0.001))
        assert len(log) == 1
        assert log.to_dicts()[0]["query_id"] == 0

    def test_latency_and_io_thresholds_are_ors(self):
        log = SlowQueryLog(
            capacity=4, latency_threshold_seconds=0.5, io_threshold=100
        )
        assert not log.offer(_fake_trace(0, 0.01, seq=5, rnd=5))
        assert log.offer(_fake_trace(1, 0.9))  # slow
        assert log.offer(_fake_trace(2, 0.01, seq=60, rnd=60))  # IO-heavy
        assert [e["query_id"] for e in log.to_dicts()] == [1, 2]
        stats = log.stats()
        assert stats["offered"] == 3
        assert stats["captured"] == 2

    def test_ring_evicts_oldest_first(self):
        log = SlowQueryLog(capacity=3)
        for qid in range(5):
            log.offer(_fake_trace(qid, 0.1))
        assert [e["query_id"] for e in log.to_dicts()] == [2, 3, 4]
        assert len(log) == 3
        log.clear()
        assert len(log) == 0

    def test_shard_io_attached(self):
        log = SlowQueryLog(capacity=2)
        trace = QueryTrace(
            p=1.0, k=1, engine="sharded", rehashing="query_centric",
            termination=TERMINATION_K_WITHIN, candidates=1,
            io=IOStats(random=7),
            rounds=[RoundRecord(1, 1.0, 3.0, 2, 1, 1, 1, IOStats(random=7))],
            elapsed_seconds=0.1, cap=4, shard_io=[IOStats(random=7)],
        )
        log.offer(trace)
        entry = log.to_dicts()[0]
        validate_trace_dict(entry)
        assert entry["shard_io"] == [IOStats(random=7).to_dict()]

    def test_rejects_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            SlowQueryLog(capacity=0)

    def test_wired_through_telemetry_record(self, obs_index):
        log = SlowQueryLog(capacity=8)
        telemetry = Telemetry(slowlog=log)
        index, queries = obs_index
        result = index.knn(queries[0], 5, p=0.8, telemetry=telemetry)
        assert len(log) == 1
        entry = log.to_dicts()[0]
        validate_trace_dict(entry)
        assert entry["io"] == result.io.to_dict()
        # The latency histogram saw the same query.
        hist = telemetry.registry.get("lazylsh_query_latency_seconds")
        assert hist.count() == 1


class TestExposition:
    """Satellite: strict Prometheus text format round trip."""

    def test_label_values_escaped_and_round_tripped(self):
        reg = MetricsRegistry()
        counter = reg.counter("odd_labels_total", "has odd labels")
        nasty = 'back\\slash "quote"\nnewline'
        counter.inc(2.0, name=nasty)
        text = reg.render_prometheus()
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        samples = parse_prometheus_text(text)
        (labels, value), = samples["odd_labels_total"]
        assert labels["name"] == nasty
        assert value == 2.0

    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "line one\nline two \\ slash").inc()
        text = reg.render_prometheus()
        help_lines = [
            ln for ln in text.splitlines() if ln.startswith("# HELP c_total")
        ]
        assert help_lines == [
            "# HELP c_total line one\\nline two \\\\ slash"
        ]

    def test_type_and_help_once_per_family_with_labeled_children(self):
        reg = MetricsRegistry()
        counter = reg.counter("sharded_total", "per-shard counter")
        for shard in range(4):
            counter.inc(1.0, shard=str(shard))
        hist = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05, route="a")
        hist.observe(5.0, route="b")
        text = reg.render_prometheus()
        lines = text.splitlines()
        for family in ("sharded_total", "lat_seconds"):
            assert (
                sum(ln.startswith(f"# TYPE {family} ") for ln in lines) == 1
            )
            assert (
                sum(ln.startswith(f"# HELP {family} ") for ln in lines) == 1
            )
        samples = parse_prometheus_text(text)
        assert len(samples["sharded_total"]) == 4
        # Histogram children expose cumulative buckets ending at +Inf.
        inf_buckets = [
            (labels, v)
            for labels, v in samples["lat_seconds_bucket"]
            if labels["le"] == "+Inf"
        ]
        assert len(inf_buckets) == 2

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not prometheus\n")

    def test_histogram_quantile_interpolates(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "h_seconds", "h", buckets=(0.01, 0.1, 1.0)
        )
        for _ in range(50):
            hist.observe(0.05)
        for _ in range(50):
            hist.observe(0.5)
        samples = parse_prometheus_text(reg.render_prometheus())
        p50 = histogram_quantile(samples["h_seconds_bucket"], 0.5)
        p99 = histogram_quantile(samples["h_seconds_bucket"], 0.99)
        assert 0.01 <= p50 <= 0.1
        assert 0.1 < p99 <= 1.0
        assert histogram_quantile([], 0.5) is None


class TestObsExporter:
    @pytest.fixture()
    def stack(self):
        reg = MetricsRegistry()
        reg.counter("up_total", "liveness").inc(3.0)
        log = SlowQueryLog(capacity=4)
        log.offer(_fake_trace(7, 0.25))
        state = {"healthy": True}
        exporter = ObsExporter(
            reg, health=lambda: dict(state), slowlog=log
        ).start()
        yield exporter, state
        exporter.stop()

    def _get(self, url):
        try:
            with urllib.request.urlopen(url, timeout=5) as fh:
                return fh.status, fh.headers.get("Content-Type"), fh.read()
        except urllib.error.HTTPError as err:
            return err.code, err.headers.get("Content-Type"), err.read()

    def test_metrics_endpoint(self, stack):
        exporter, _state = stack
        status, ctype, body = self._get(exporter.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        samples = parse_prometheus_text(body.decode())
        assert samples["up_total"] == [({}, 3.0)]

    def test_healthz_flips_to_503(self, stack):
        exporter, state = stack
        status, _ctype, body = self._get(exporter.url + "/healthz")
        assert status == 200
        assert json.loads(body)["healthy"] is True
        state["healthy"] = False
        status, _ctype, body = self._get(exporter.url + "/healthz")
        assert status == 503
        assert json.loads(body)["healthy"] is False

    def test_slowlog_endpoint(self, stack):
        exporter, _state = stack
        status, ctype, body = self._get(exporter.url + "/slowlog")
        assert status == 200
        assert ctype.startswith("application/json")
        entries = json.loads(body)
        assert [e["query_id"] for e in entries] == [7]

    def test_unknown_path_404(self, stack):
        exporter, _state = stack
        status, _ctype, _body = self._get(exporter.url + "/nope")
        assert status == 404

    def test_context_manager_and_idempotent_start(self):
        reg = MetricsRegistry()
        with ObsExporter(reg) as exporter:
            assert exporter.start() is exporter  # second start is a no-op
            status, _ctype, _body = self._get(exporter.url + "/metrics")
            assert status == 200
        # Stopped: connecting must now fail.
        with pytest.raises(OSError):
            urllib.request.urlopen(exporter.url + "/metrics", timeout=1)


class TestGuaranteeAuditor:
    @pytest.fixture()
    def audited(self, obs_index):
        index, queries = obs_index
        auditor = GuaranteeAuditor(
            index, sample_rate=1.0, min_samples=1, background=False
        )
        return auditor, index, queries

    def test_correct_results_pass(self, audited):
        auditor, index, queries = audited
        for query in queries[:4]:
            result = index.knn(query, 5, p=0.8)
            assert auditor.observe(
                query, k=5, p=0.8, ids=result.ids,
                distances=result.distances,
            )
        summary = auditor.summary()
        assert summary["samples"] == 4
        assert summary["success_rate"] == 1.0
        assert summary["recall_at_k"] > 0.0
        assert summary["overall_ratio"] >= 1.0
        assert summary["alerts"] == 0
        assert summary["bound"] == pytest.approx(
            max(0.0, 0.5 - index.beta)
        )

    def test_violation_alerts_once_per_episode(self, audited, caplog):
        auditor, index, queries = audited
        query = queries[0]
        result = index.knn(query, 5, p=0.8)
        bogus = result.distances * 1e6  # breaks the c-approximation
        with caplog.at_level(logging.WARNING, logger="repro.obs.auditor"):
            auditor.observe(
                query, k=5, p=0.8, ids=result.ids, distances=bogus
            )
            auditor.observe(
                query, k=5, p=0.8, ids=result.ids, distances=bogus
            )
        summary = auditor.summary()
        assert summary["success_rate"] == 0.0
        assert summary["alerts"] == 1  # one episode, not one per sample
        assert any(
            "guarantee violation" in rec.message for rec in caplog.records
        )
        gauges = parse_prometheus_text(auditor.registry.render_prometheus())
        assert gauges["lazylsh_audit_success_rate"] == [({}, 0.0)]

    def test_sample_rate_zero_never_samples(self, audited):
        auditor, index, queries = audited
        auditor.sample_rate = 0.0
        result = index.knn(queries[0], 5, p=0.8)
        assert not auditor.observe(
            queries[0], k=5, p=0.8, ids=result.ids,
            distances=result.distances,
        )
        assert auditor.summary()["samples"] == 0

    def test_background_drain_and_close(self, obs_index):
        index, queries = obs_index
        with GuaranteeAuditor(index, sample_rate=1.0) as auditor:
            result = index.knn(queries[0], 5, p=0.8)
            auditor.observe(
                queries[0], k=5, p=0.8, ids=result.ids,
                distances=result.distances,
            )
            auditor.drain(timeout=30.0)
            assert auditor.summary()["samples"] == 1

    def test_tombstoned_rows_not_counted_as_truth(self, obs_index):
        index, queries = obs_index
        # Remove the exact nearest neighbours of query 0, then audit a
        # fresh result: the oracle must judge against surviving rows.
        result_before = index.knn(queries[0], 3, p=0.8)
        import copy

        pruned = copy.deepcopy(index)
        pruned.remove(result_before.ids)
        auditor = GuaranteeAuditor(
            pruned, sample_rate=1.0, min_samples=1, background=False
        )
        result = pruned.knn(queries[0], 3, p=0.8)
        auditor.observe(
            queries[0], k=3, p=0.8, ids=result.ids,
            distances=result.distances,
        )
        summary = auditor.summary()
        assert summary["samples"] == 1
        assert not np.intersect1d(result.ids, result_before.ids).size
        assert summary["success_rate"] == 1.0

    def test_rejects_bad_parameters(self, obs_index):
        index, _queries = obs_index
        with pytest.raises(InvalidParameterError):
            GuaranteeAuditor(index, sample_rate=1.5)
        with pytest.raises(InvalidParameterError):
            GuaranteeAuditor(index, window=0)
