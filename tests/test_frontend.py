"""Tests for the async HTTP front door (repro.serve.frontend).

Pins the front door's three contracts (DESIGN §14):

* **Coalescing identity** — concurrent HTTP requests (duplicates,
  shared-query-point/different-``p``, singletons) return ids/distances
  bit-identical to issuing each alone through
  ``ShardedSearchService.search``.
* **Cache semantics** — a repeat request is served without any index
  scan (``queries_served`` does not move), and a WAL epoch bump through
  ``Frontend.ingest`` invalidates the entry so the next answer sees the
  new data.
* **Wire behaviour** — the v1 codec and error taxonomy over real HTTP:
  400 on malformed/invalid requests, 404/405 on bad routes, 429 under
  admission overload, 503 when the fleet is unhealthy, deadline
  stamping from arrival time.
"""

import gc
import hashlib
import json
import logging
import os
import signal
import socket
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig, ShardedSearchService
from repro.core.engine import LaneGroup
from repro.durability import WalRecord
from repro.obs import validate_trace_dict
from repro.serve import Frontend
from repro.serve.frontend import HTTP_STATUS_BY_CODE, error_body

K = 5
METRICS = (0.5, 0.8, 1.0)


def _post(url: str, body, raw: bytes | None = None) -> tuple[int, dict]:
    data = raw if raw is not None else json.dumps(body).encode()
    request = urllib.request.Request(
        url + "/v1/search", data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def stack():
    """A small built index behind a sharded service and a front door.

    Module-private (not the session ``built_index``): the invalidation
    test ingests WAL records, which mutates the coordinator's index.
    """
    rng = np.random.default_rng(5)
    data = rng.uniform(0.0, 100.0, (400, 10))
    index = LazyLSH(
        LazyLSHConfig(
            c=3.0, p_min=0.5, seed=9, mc_samples=20_000, mc_buckets=100
        )
    ).build(data)
    with ShardedSearchService(index, n_shards=2) as service:
        with Frontend(service, coalesce_ms=5.0, cache_capacity=64) as door:
            yield data, service, door


class TestCoalescingIdentity:
    def test_single_request_matches_service(self, stack):
        data, service, door = stack
        status, payload = _post(
            door.url, {"v": 1, "query": data[3].tolist(), "k": K, "p": 0.8}
        )
        assert status == 200
        assert payload["v"] == 1
        reference = service.search(data[3], K, p=0.8)
        assert payload["ids"] == [int(i) for i in reference.ids]
        assert payload["distances"] == [float(d) for d in reference.distances]

    def test_concurrent_mixed_burst_is_bit_identical(self, stack):
        data, service, door = stack
        shared = data[7].tolist()
        bodies = [
            {"v": 1, "query": shared, "k": K, "p": p} for p in METRICS
        ]
        bodies += [
            {"v": 1, "query": data[11].tolist(), "k": K, "p": 1.0},
            {"v": 1, "query": data[11].tolist(), "k": K, "p": 1.0},
            {"v": 1, "query": data[13].tolist(), "k": K, "p": 0.5},
            {"v": 1, "query": data[17].tolist(), "k": K, "p": 1.0},
        ]
        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            responses = list(
                pool.map(lambda b: _post(door.url, b), bodies)
            )
        for body, (status, payload) in zip(bodies, responses):
            assert status == 200, payload
            reference = service.search(
                np.asarray(body["query"]), body["k"], p=body["p"]
            )
            assert payload["ids"] == [int(i) for i in reference.ids]
            assert payload["distances"] == [
                float(d) for d in reference.distances
            ]
        # The shared-point burst must actually have shared work.
        coalesced = sum(
            payload.get("coalesced") or payload.get("cached")
            for _, payload in responses
        )
        assert coalesced >= len(METRICS)

    def test_request_id_echoed(self, stack):
        data, _service, door = stack
        status, payload = _post(
            door.url,
            {
                "v": 1, "query": data[19].tolist(), "k": K, "p": 1.0,
                "request_id": "feedc0de",
            },
        )
        assert status == 200
        assert payload["request_id"] == "feedc0de"


class TestMultiMetricWaves:
    def test_same_point_burst_is_one_service_wave(self, stack, monkeypatch):
        """A same-point burst across metrics costs one multi-metric
        service wave, never a scan on the coordinator, and its EXPLAIN
        request gets its explain section.  A plain and an EXPLAIN request
        for one point and metric ride one row and leave one cache entry."""
        data, service, door = stack
        waves = []
        rows = []
        search_batch = service.search_batch

        def spy(queries, *args, **kwargs):
            waves.append(kwargs)
            rows.append(len(queries))
            return search_batch(queries, *args, **kwargs)

        def local_scan(*_args, **_kwargs):
            raise AssertionError("the coordinator scanned the index")

        monkeypatch.setattr(service, "search_batch", spy)
        monkeypatch.setattr(LaneGroup, "scan", local_scan)
        monkeypatch.setattr(door, "coalesce_ms", 250.0)
        query = (data[37] + 0.25).tolist()
        bodies = [{"v": 1, "query": query, "k": K, "p": p} for p in METRICS]
        bodies.append(dict(bodies[1]))
        bodies[1]["explain"] = True
        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            responses = list(pool.map(lambda b: _post(door.url, b), bodies))
        monkeypatch.undo()
        assert len(waves) == 1 and rows == [1]
        assert waves[0]["metrics"] == sorted(METRICS)
        digest = hashlib.sha1(np.asarray(query, dtype=np.float64).tobytes()).hexdigest()
        assert sorted(key[3] for key in door._cache if key[1] == digest) == sorted(METRICS)
        for body, (status, payload) in zip(bodies, responses):
            assert status == 200, payload
            assert payload["coalesced"] is True
            assert ("explain" in payload) == bool(body.get("explain"))
            reference = service.search(np.asarray(query), K, p=body["p"])
            assert payload["ids"] == [int(i) for i in reference.ids]
            assert payload["distances"] == [
                float(d) for d in reference.distances
            ]
        assert responses[1][1]["explain"]["rounds"]
        validate_trace_dict(responses[1][1]["explain"])
        assert responses[1][1]["ids"] == responses[-1][1]["ids"]


class TestResultCache:
    def test_repeat_request_served_without_scan(self, stack):
        data, service, door = stack
        body = {"v": 1, "query": data[23].tolist(), "k": K, "p": 0.8}
        status, first = _post(door.url, body)
        assert status == 200 and first["cached"] is False
        before = service.queries_served
        hits_before = door._m_cache_hits.total()
        status, second = _post(door.url, body)
        assert status == 200 and second["cached"] is True
        assert service.queries_served == before  # no wave ran
        assert door._m_cache_hits.total() == hits_before + 1
        assert second["ids"] == first["ids"]
        assert second["distances"] == first["distances"]

    def test_wal_epoch_bump_invalidates(self, stack):
        data, service, door = stack
        query = data[29] + 0.5  # held out: not an indexed point
        body = {"v": 1, "query": query.tolist(), "k": K, "p": 1.0}
        status, first = _post(door.url, body)
        assert status == 200
        status, cached = _post(door.url, body)
        assert status == 200 and cached["cached"] is True
        # Insert the query point itself: the new nearest neighbour.
        new_id = service.index.num_rows
        epoch_before = service.epoch
        applied = door.ingest([
            WalRecord(
                lsn=service.acked_lsn + 1,
                op="insert",
                ids=np.array([new_id], dtype=np.int64),
                points=query[None, :].copy(),
            )
        ])
        assert applied == 1
        assert service.epoch == epoch_before + 1
        before = service.queries_served
        status, refreshed = _post(door.url, body)
        assert status == 200
        assert refreshed["cached"] is False  # entry was invalidated
        assert service.queries_served > before  # a real wave ran
        assert refreshed["ids"][0] == new_id
        assert refreshed["distances"][0] == 0.0
        reference = service.search(query, K, p=1.0)
        assert refreshed["ids"] == [int(i) for i in reference.ids]
        assert refreshed["distances"] == [
            float(d) for d in reference.distances
        ]


class TestAdmissionControl:
    def test_overload_sheds_with_429(self, stack):
        data, service, _door = stack
        with Frontend(
            service, coalesce_ms=150.0, max_pending=1, cache_capacity=0
        ) as tight:
            bodies = [
                {"v": 1, "query": data[i].tolist(), "k": K, "p": 1.0}
                for i in range(6)
            ]
            with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
                responses = list(
                    pool.map(lambda b: _post(tight.url, b), bodies)
                )
        statuses = sorted(status for status, _ in responses)
        assert 429 in statuses, statuses
        assert 200 in statuses, statuses
        for status, payload in responses:
            if status == 429:
                assert payload["error"]["code"] == "overloaded"
            else:
                assert status == 200
        assert tight._m_rejected.total() == statuses.count(429)

    def test_deadline_stamped_from_arrival(self, stack):
        data, _service, door = stack
        status, payload = _post(
            door.url,
            {
                "v": 1, "query": data[31].tolist(), "k": K, "p": 1.0,
                "deadline_ms": 0.001,
            },
        )
        assert status == 200
        assert payload["deadline_exceeded"] is True

    def test_unhealthy_service_returns_503(self, stack):
        data, service, door = stack
        service._closed = True  # simulate a dead fleet, no real teardown
        try:
            status, payload = _post(
                door.url,
                {"v": 1, "query": data[2].tolist(), "k": K, "p": 1.0},
            )
        finally:
            service._closed = False
        assert status == 503
        assert payload["error"]["code"] == "unhealthy"


class TestMidFailover:
    """The door during a fleet failover: fail fast, typed, no hangs."""

    def test_idle_worker_death_heals_through_the_door(self):
        # A worker killed while no wave runs: the door answers 503 while
        # the repair it queued runs, then the exact answer again.  Only
        # HTTP requests reach the service.
        rng = np.random.default_rng(11)
        data = rng.uniform(0.0, 100.0, (300, 10))
        index = LazyLSH(
            LazyLSHConfig(
                c=3.0, p_min=0.5, seed=9, mc_samples=20_000, mc_buckets=100
            )
        ).build(data)
        reference = index.knn(data[4], K, p=0.8)
        body = {"v": 1, "query": data[4].tolist(), "k": K, "p": 0.8}
        with ShardedSearchService(index, n_shards=2) as service:
            with Frontend(service, coalesce_ms=1.0) as door:
                victim = service._procs[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5)
                for _attempt in range(100):
                    status, payload = _post(door.url, body)
                    if status == 200:
                        break
                    assert status == 503, payload
                    assert payload["error"]["code"] == "unavailable"
                    time.sleep(0.05)
                assert status == 200, payload
                assert payload["ids"] == [int(i) for i in reference.ids]
                assert payload["distances"] == [
                    float(d) for d in reference.distances
                ]
                assert service.restarts == 1

    def test_health_and_admission_go_503_while_unhealthy(
        self, stack, monkeypatch
    ):
        data, service, door = stack
        report = dict(service.health(), healthy=False)
        monkeypatch.setattr(service, "health", lambda: report)
        status, body = _get(door.url, "/v1/health")
        assert status == 503
        assert body["healthy"] is False
        status, body = _post(
            door.url,
            {"v": 1, "query": np.full(10, 41.5).tolist(), "k": K, "p": 1.0},
        )
        assert status == 503
        assert body["error"]["code"] == "unavailable"
        assert "retry" in body["error"]["message"]

    def test_failover_mid_flight_bounded_by_deadline(
        self, stack, monkeypatch
    ):
        # The fleet goes down *after* admission while the wave is stuck
        # in the planner.  The client holds a deadline; the door must
        # answer a typed ``unavailable`` error within a few poll
        # intervals of it — never hang on the dead fleet.
        import threading
        import time

        _data, service, door = stack
        real_health = type(service).health
        real_search = type(service).search_batch
        release = threading.Event()
        calls = {"n": 0}

        def failing_health():
            calls["n"] += 1
            report = real_health(service)
            if calls["n"] > 1:  # healthy at admission, dead afterwards
                report["healthy"] = False
            return report

        def stuck_search(*args, **kwargs):
            release.wait(10.0)
            return real_search(service, *args, **kwargs)

        monkeypatch.setattr(service, "health", failing_health)
        monkeypatch.setattr(service, "search_batch", stuck_search)
        try:
            start = time.monotonic()
            status, body = _post(
                door.url,
                {
                    "v": 1, "query": np.full(10, 63.25).tolist(), "k": K,
                    "p": 1.0, "deadline_ms": 200.0,
                },
            )
            elapsed = time.monotonic() - start
        finally:
            release.set()
        assert status == 503
        assert body["error"]["code"] == "unavailable"
        assert elapsed < 5.0  # deadline-paced polls, not the 10 s stall


class TestWireErrors:
    def test_malformed_json_is_400(self, stack):
        _data, _service, door = stack
        status, payload = _post(door.url, None, raw=b"{not json")
        assert status == 400
        assert payload["error"]["code"] == "wire_format"

    def test_unknown_key_is_400(self, stack):
        data, _service, door = stack
        status, payload = _post(
            door.url,
            {"v": 1, "query": data[0].tolist(), "k": K, "K": 2},
        )
        assert status == 400
        assert payload["error"]["code"] == "wire_format"

    def test_domain_error_is_400(self, stack):
        data, _service, door = stack
        status, payload = _post(
            door.url, {"v": 1, "query": data[0].tolist(), "k": 0}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_parameter"

    def test_far_query_fails_alone_in_its_flush(self, stack, monkeypatch):
        """A query whose windows would leave int64 gets 400 before any
        wave; a well-formed request coalesced beside it gets 200."""
        data, service, door = stack
        monkeypatch.setattr(door, "coalesce_ms", 50.0)
        far = data[41].copy()
        far[0] = 1e18
        bodies = [
            {"v": 1, "query": far.tolist(), "k": K, "p": 1.0},
            {"v": 1, "query": data[43].tolist(), "k": K, "p": 1.0},
        ]
        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            (bad_status, bad), (good_status, good) = pool.map(
                lambda b: _post(door.url, b), bodies
            )
        monkeypatch.undo()
        assert bad_status == 400, bad
        assert bad["error"]["code"] == "invalid_parameter"
        assert "past int64" in bad["error"]["message"]
        assert good_status == 200, good
        reference = service.search(data[43], K, p=1.0)
        assert good["ids"] == [int(i) for i in reference.ids]

    def test_huge_radius_fails_alone_in_its_flush(self, stack, monkeypatch):
        """A radius override whose first window would leave int64 fails
        its own wave with 400; a request coalesced beside it gets 200."""
        data, service, door = stack
        monkeypatch.setattr(door, "coalesce_ms", 50.0)
        bodies = [
            {"v": 1, "query": data[44].tolist(), "k": K, "p": 1.0,
             "radius": 1e20},
            {"v": 1, "query": data[45].tolist(), "k": K, "p": 1.0},
        ]
        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            (bad_status, bad), (good_status, good) = pool.map(
                lambda b: _post(door.url, b), bodies
            )
        monkeypatch.undo()
        assert bad_status == 400, bad
        assert bad["error"]["code"] == "invalid_parameter"
        assert "past int64" in bad["error"]["message"]
        assert good_status == 200, good
        reference = service.search(data[45], K, p=1.0)
        assert good["ids"] == [int(i) for i in reference.ids]

    def test_metrics_list_is_rejected(self, stack):
        data, _service, door = stack
        status, payload = _post(
            door.url,
            {"v": 1, "query": data[0].tolist(), "k": K,
             "metrics": [0.5, 1.0]},
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_parameter"

    def test_unknown_path_is_404_and_wrong_method_405(self, stack):
        _data, _service, door = stack
        status, payload = _get(door.url, "/v2/search")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        status, payload = _get(door.url, "/v1/search")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_status_map_covers_every_taxonomy_class(self):
        import repro.errors as errors

        assert error_body("x", "y")["error"]["code"] == "x"
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, errors.ReproError)
                and obj is not errors.ReproError
            ):
                status = HTTP_STATUS_BY_CODE.get(obj.code, 500)
                assert 400 <= status <= 599


class TestOpsEndpoints:
    def test_health_and_stats(self, stack):
        _data, service, door = stack
        status, report = _get(door.url, "/v1/health")
        assert status == 200 and report["healthy"] is True
        status, stats = _get(door.url, "/v1/stats")
        assert status == 200
        assert stats["scans"] >= 1
        assert stats["cache"]["hits"] >= 1
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["coalesce_ratio"] >= 1.0
        assert stats["service"]["n_shards"] == service.n_shards

    def test_stats_python_api_matches_metrics(self, stack):
        _data, _service, door = stack
        stats = door.stats()
        assert stats["cache"]["hits"] == int(door._m_cache_hits.total())
        assert stats["scans"] == int(door._m_waves.total())


class TestStop:
    def test_stop_under_open_keep_alive_connection_is_clean(
        self, stack, caplog, monkeypatch
    ):
        """A client still holding a keep-alive connection must not leave a
        handler pending on the closed loop: no "Task was destroyed but it
        is pending!" log and no "Event loop is closed" error."""
        _data, service, _door = stack
        unraisable = []
        monkeypatch.setattr(
            sys, "unraisablehook", lambda info: unraisable.append(info)
        )
        door = Frontend(service).start()
        with socket.create_connection(("127.0.0.1", door.port), timeout=10) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: test\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                door.stop()
                gc.collect()
        gc.collect()
        reported = caplog.text + "".join(
            f"{info.exc_type.__name__}: {info.exc_value}" for info in unraisable
        )
        assert "Task was destroyed but it is pending" not in reported
        assert "Event loop is closed" not in reported
