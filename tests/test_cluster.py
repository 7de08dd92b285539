"""Tests for the multi-node replication plane (repro.cluster).

Pins the contracts of DESIGN §16:

* **Protocol** — the length-prefixed framing round-trips every message
  kind and fails loudly (never silently) on truncation, oversized
  frames, and version mismatches; WAL frames ship as the exact on-disk
  bytes, CRC re-verified on receipt.
* **Replication** — a follower bootstraps from the leader's newest
  checkpoint over the wire, tails the WAL into ``service.ingest``, and
  serves answers **bit-identical** to a single-process reference index
  at its acked LSN; it reconnects after a leader restart and
  re-bootstraps after the log is truncated under it; a gapped stream
  surfaces as a *typed* ``wal_gap`` wire error.
* **Routing** — consistent rendezvous slot assignment (removing a node
  only moves its own slots), staleness-bounded follower reads
  (``max_lag_lsn``) with a typed ``stale_read`` rejection, and failover
  to the caught-up follower after the leader is SIGKILL'd —
  answers after failover stay bit-identical to the reference.
"""

import json
import multiprocessing as mp
import os
import signal
import socket
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.cluster import (
    MSG_ACK,
    MSG_ERROR,
    MSG_HELLO,
    MSG_WAL,
    PROTOCOL_VERSION,
    FollowerNode,
    ProtocolError,
    Router,
    WalShipper,
    assign_slots,
    recv_message,
    send_message,
    slot_of,
)
from repro.cluster.protocol import MSG_PING
from repro.datasets import make_synthetic
from repro.durability import (
    WAL_SUBDIR,
    WalRecord,
    WriteAheadLog,
    checkpoint_now,
    create,
    encode_wal_record,
    recover,
    write_checkpoint,
)
from repro.durability.wal import apply_record, list_segments
from repro.durability.feed import WalFeed

CFG = dict(c=3.0, p_min=0.7, seed=41, mc_samples=10_000, mc_buckets=60)
K = 5


def _build(n=240, d=10, seed=40):
    data = make_synthetic(n, d, value_range=(0, 200), seed=seed)
    return LazyLSH(LazyLSHConfig(**CFG)).build(data), data


def _batch(m, d=10, seed=50):
    return np.random.default_rng(seed).uniform(0.0, 200.0, size=(m, d))


def _free_port():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _restart_shipper(home, port, timeout=10.0):
    """Re-bind a shipper on its old port (waits out FIN_WAIT sockets)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return WalShipper(home, port=port, poll_interval=0.01).start()
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def _assert_same_answers(truth, service, queries):
    for q in queries:
        expected = truth.knn(q, K, p=1.0)
        got = service.search(q, K, p=1.0)
        np.testing.assert_array_equal(expected.ids, got.ids)
        np.testing.assert_array_equal(expected.distances, got.distances)


# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_round_trip_all_kinds(self):
        a, b = socket.socketpair()
        try:
            cases = [
                (MSG_HELLO, {"v": PROTOCOL_VERSION, "start_lsn": 7}, b""),
                (MSG_WAL, {"lsn": 9}, b"\x00\x01binary\xff"),
                (MSG_ACK, {"lsn": 9}, b""),
                (MSG_PING, {"lsn": 12}, b""),
                (MSG_ERROR, {"code": "wal_gap", "expected": 1}, b""),
            ]
            for kind, meta, blob in cases:
                send_message(a, kind, meta, blob)
            for kind, meta, blob in cases:
                assert recv_message(b) == (kind, meta, blob)
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none_torn_frame_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None  # EOF before any byte
        finally:
            b.close()
        a, b = socket.socketpair()
        try:
            # A complete frame followed by EOF still delivers.
            send_message(a, MSG_ACK, {"lsn": 3})
            a.close()
            assert recv_message(b) == (MSG_ACK, {"lsn": 3}, b"")
        finally:
            b.close()
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x04\x00")  # half a header
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        import struct

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("<IIB", 2**30, 0, MSG_ACK))
            with pytest.raises(ProtocolError, match="meta"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_wal_frame_blob_is_on_disk_bytes(self, tmp_path):
        points = _batch(3, seed=7)
        with WriteAheadLog(tmp_path, sync=False) as wal:
            wal.append_insert(points, np.arange(3))
        segment = next(tmp_path.glob("segment-*.wal"))
        record = WalFeed(tmp_path).poll()[0]
        assert encode_wal_record(record) == segment.read_bytes()


# ---------------------------------------------------------------------------
# Consistent slot assignment
# ---------------------------------------------------------------------------


class TestSlots:
    def test_every_slot_assigned_from_names(self):
        names = ["leader", "f1", "f2"]
        slots = assign_slots(names, 16)
        assert sorted(slots) == list(range(16))
        assert set(slots.values()) <= set(names)
        assert len(set(slots.values())) > 1  # spread, not a constant map

    def test_removing_a_node_only_moves_its_slots(self):
        before = assign_slots(["leader", "f1", "f2"], 64)
        after = assign_slots(["leader", "f2"], 64)
        for slot, owner in before.items():
            if owner != "f1":
                assert after[slot] == owner  # untouched by the departure

    def test_slot_of_is_stable_and_bounded(self):
        query = [1.5, 2.0, 3.25]
        assert slot_of(query, 16) == slot_of(list(query), 16)
        assert 0 <= slot_of(query, 16) < 16
        assert slot_of([9.0, 9.0], 16) != slot_of(query, 16) or True


# ---------------------------------------------------------------------------
# Leader -> follower replication
# ---------------------------------------------------------------------------


@pytest.fixture
def leader_home(tmp_path):
    """A durable leader home seeded with the standard 240-point build."""
    index, data = _build()
    durable = create(index, tmp_path / "leader", sync=False, segment_bytes=2048)
    yield durable, tmp_path / "leader", data
    durable.close()


class TestReplication:
    def test_wire_bootstrap_catch_up_and_identity(self, leader_home, tmp_path):
        durable, home, data = leader_home
        fresh = _batch(5, seed=81)
        with WalShipper(home, poll_interval=0.01) as shipper:
            durable.insert(_batch(7, seed=80))
            durable.remove([4, 100])
            follower = FollowerNode(
                tmp_path / "follower",
                ("127.0.0.1", shipper.port),
                n_shards=2,
            )
            with follower:
                assert follower.wait_for_lsn(2), follower.status()
                # Writes made *while* the stream is live also arrive.
                durable.insert(fresh)
                assert follower.wait_for_lsn(3), follower.status()
                queries = [data[5], data[100], fresh[0], np.full(10, 77.0)]
                _assert_same_answers(durable, follower.service, queries)
                status = follower.status()
                assert status["bootstraps"] == 1
                assert status["records_applied"] == 3
                assert status["connected"] is True
                # The leader saw our acks (drives router failover).
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    stats = shipper.followers()
                    if stats and max(
                        s["acked_lsn"] for s in stats.values()
                    ) >= 3:
                        break
                    time.sleep(0.01)
                assert any(
                    s["acked_lsn"] >= 3 for s in shipper.followers().values()
                )

    def test_leader_restart_reconnect_and_resume(self, leader_home, tmp_path):
        durable, home, data = leader_home
        # Pre-seed the follower's home so it bootstraps locally and its
        # shard workers fork *before* any replication socket exists —
        # forked workers must never inherit (and pin) the leader's port.
        twin, _ = _build()
        write_checkpoint(twin, tmp_path / "follower" / "checkpoints", lsn=0)
        port = _free_port()
        follower = FollowerNode(
            tmp_path / "follower",
            ("127.0.0.1", port),
            n_shards=2,
            reconnect_min=0.02,
            reconnect_max=0.2,
        )
        shipper = None
        try:
            follower.start()  # dials fail until the leader comes up
            shipper = WalShipper(home, port=port, poll_interval=0.01).start()
            durable.insert(_batch(4, seed=90))
            assert follower.wait_for_lsn(1), follower.status()
            dials_before = follower.reconnects
            shipper.stop()  # leader "restarts"
            durable.remove([7])  # committed while the leader was down
            shipper = _restart_shipper(home, port)
            assert follower.wait_for_lsn(2), follower.status()
            assert follower.reconnects > dials_before
            _assert_same_answers(
                durable, follower.service, [data[7], data[50]]
            )
        finally:
            follower.stop()
            if shipper is not None:
                shipper.stop()

    def test_truncated_log_forces_rebootstrap(self, leader_home, tmp_path):
        durable, home, data = leader_home
        twin, _ = _build()
        write_checkpoint(twin, tmp_path / "follower" / "checkpoints", lsn=0)
        port = _free_port()
        follower = FollowerNode(
            tmp_path / "follower",
            ("127.0.0.1", port),
            n_shards=2,
            reconnect_min=0.02,
            reconnect_max=0.2,
        )
        shipper = None
        try:
            follower.start()
            shipper = WalShipper(home, port=port, poll_interval=0.01).start()
            durable.insert(_batch(4, seed=91))
            assert follower.wait_for_lsn(1), follower.status()
            shipper.stop()
            # While the follower is cut off, the leader rotates segments,
            # checkpoints (the acked prefix is pruned) and keeps writing:
            # the follower's position no longer exists in the log.
            for i in range(6):
                durable.insert(_batch(8, seed=92 + i))
            checkpoint_now(durable, home)
            assert list_segments(home / WAL_SUBDIR)[0][0] > 2
            durable.remove([11, 13])
            shipper = _restart_shipper(home, port)
            assert follower.wait_for_lsn(8, timeout=15), follower.status()
            assert follower.bootstraps == 2  # initial + truncation rebuild
            _assert_same_answers(
                durable, follower.service, [data[11], data[60], data[13]]
            )
        finally:
            follower.stop()
            if shipper is not None:
                shipper.stop()

    def test_bootstrap_skips_corrupt_newest_checkpoint(
        self, corrupt_newest_home, tmp_path
    ):
        home, queries = corrupt_newest_home
        durable, recovery = recover(home, sync=False)
        try:
            assert recovery["checkpoint_lsn"] == 0
            with WalShipper(home, poll_interval=0.01) as shipper:
                follower = FollowerNode(
                    tmp_path / "follower",
                    ("127.0.0.1", shipper.port),
                    n_shards=2,
                )
                with follower:
                    assert follower.wait_for_lsn(2), follower.status()
                    assert follower.base_lsn == 0
                    _assert_same_answers(durable, follower.service, queries)
        finally:
            durable.close()

    def test_gap_in_stream_surfaces_typed_wire_error(self, tmp_path):
        # A scripted "leader" ships LSN 5 to a follower expecting LSN 1.
        # The follower must answer with a typed ``wal_gap`` wire error
        # naming both LSNs — never a bare dropped connection.
        index, _data = _build()
        write_checkpoint(
            index, tmp_path / "follower" / "checkpoints", lsn=0
        )
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        server.settimeout(10.0)
        follower = FollowerNode(
            tmp_path / "follower",
            ("127.0.0.1", server.getsockname()[1]),
            n_shards=1,
            reconnect_min=0.02,
        )
        try:
            follower.start()
            conn, _addr = server.accept()
            conn.settimeout(10.0)
            kind, meta, _blob = recv_message(conn)
            assert kind == MSG_HELLO and meta["start_lsn"] == 0
            gapped = WalRecord(lsn=5, op="remove", ids=np.array([3]))
            send_message(
                conn, MSG_WAL, {"lsn": 5}, encode_wal_record(gapped)
            )
            kind, meta, _blob = recv_message(conn)
            assert kind == MSG_ERROR
            assert meta["code"] == "wal_gap"
            assert meta["expected"] == 1
            assert meta["received"] == 5
            conn.close()
        finally:
            follower.stop()
            server.close()

    def test_version_mismatch_rejected_with_typed_error(self, leader_home):
        _durable, home, _data = leader_home
        with WalShipper(home) as shipper:
            sock = socket.create_connection(("127.0.0.1", shipper.port))
            try:
                sock.settimeout(5.0)
                send_message(
                    sock, MSG_HELLO, {"v": 99, "start_lsn": 0}
                )
                kind, meta, _blob = recv_message(sock)
                assert kind == MSG_ERROR
                assert meta["code"] == "cluster_protocol"
            finally:
                sock.close()

    def test_shipper_reports_truncated_position(self, leader_home):
        # A follower resuming from a position the log no longer holds
        # gets the typed error (plus where the log now starts), not a
        # silent empty stream.
        durable, home, _data = leader_home
        for i in range(6):
            durable.insert(_batch(8, seed=70 + i))
        checkpoint_now(durable, home)
        assert list_segments(home / WAL_SUBDIR)[0][0] > 2
        durable.remove([3])
        with WalShipper(home) as shipper:
            sock = socket.create_connection(("127.0.0.1", shipper.port))
            try:
                sock.settimeout(5.0)
                send_message(
                    sock,
                    MSG_HELLO,
                    {
                        "v": PROTOCOL_VERSION,
                        "start_lsn": 1,
                        "need_checkpoint": False,
                    },
                )
                kind, meta, _blob = recv_message(sock)
                assert kind == MSG_ERROR
                assert meta["code"] == "wal_truncated"
                assert meta["first_available"] > 2
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# Router: staleness bounds and failover
# ---------------------------------------------------------------------------


def _post(url, body, timeout=30):
    request = urllib.request.Request(
        url + "/v1/search",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url, path, timeout=10):
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class _LeaderStack:
    """In-process leader: durable writer + self-tailing fleet + door."""

    def __init__(self, home, durable):
        from repro.serve import Frontend, ShardedSearchService

        self.durable = durable
        index, _ = _build()  # deterministic twin of the snapshot
        self.service = ShardedSearchService(index, n_shards=2)
        self.feed = WalFeed(Path(home) / WAL_SUBDIR)
        self.door = Frontend(self.service, port=0).start()
        self.shipper = WalShipper(home, poll_interval=0.01).start()

    def commit(self, fn):
        """Apply a mutation to the durable log and the serving fleet."""
        fn(self.durable)
        self.service.ingest(self.feed.poll())

    def stop(self):
        self.shipper.stop()
        self.door.stop()
        self.service.close()


class TestRouter:
    def test_staleness_bound_and_failover(self, leader_home, tmp_path):
        durable, home, data = leader_home
        leader = _LeaderStack(home, durable)
        follower = FollowerNode(
            tmp_path / "follower",
            ("127.0.0.1", leader.shipper.port),
            n_shards=2,
            http_port=0,
            reconnect_min=0.02,
        )
        router = None
        try:
            follower.start()
            leader.commit(lambda d: d.insert(_batch(6, seed=60)))
            leader.commit(lambda d: d.remove([9]))
            assert follower.wait_for_lsn(2), follower.status()
            router = Router(
                {"leader": leader.door.url, "follower": follower.url},
                leader="leader",
                check_interval=0.05,
                failure_threshold=2,
                probe_timeout=0.5,
            ).start()
            query = data[17].tolist()
            # Default read: the acting leader serves.
            status, payload = _post(
                router.url, {"v": 1, "query": query, "k": K, "p": 1.0}
            )
            assert status == 200 and payload["served_by"] == "leader"
            # A fully caught-up cluster satisfies a zero-staleness bound.
            status, payload = _post(
                router.url,
                {
                    "v": 1, "query": query, "k": K, "p": 1.0,
                    "max_lag_lsn": 0,
                },
            )
            assert status == 200
            # Cut the stream and advance the leader: the follower lags.
            leader.shipper.stop()
            leader.commit(lambda d: d.insert(_batch(3, seed=61)))
            leader.commit(lambda d: d.remove([21]))
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if router.describe()["commit_lsn"] >= 4:
                    break
                time.sleep(0.02)
            # Bounded reads reject with a typed error when only stale
            # replicas qualify... but the fresh leader still does:
            status, payload = _post(
                router.url,
                {
                    "v": 1, "query": query, "k": K, "p": 1.0,
                    "max_lag_lsn": 0,
                },
            )
            assert status == 200 and payload["served_by"] == "leader"
            # Kill the leader's door: after the health probes notice,
            # the only survivor is 2 records behind the sticky commit
            # point, so a zero-staleness read must fail typed.
            leader.door.stop()
            leader.service.close()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                report = router.describe()
                if (
                    not report["nodes"]["leader"]["healthy"]
                    and report["acting_leader"] == "follower"
                ):
                    break
                time.sleep(0.05)
            report = router.describe()
            assert report["acting_leader"] == "follower"
            assert report["failovers"] == 1
            assert report["commit_lsn"] >= 4  # sticky: dead leader counts
            status, payload = _post(
                router.url,
                {
                    "v": 1, "query": query, "k": K, "p": 1.0,
                    "max_lag_lsn": 0,
                },
            )
            assert status == 503
            assert payload["error"]["code"] == "stale_read"
            # Unbounded reads fail over to the follower and must be
            # bit-identical to the reference at the follower's LSN (the
            # single-process writer before the cut-off mutations).
            reference, _ = _build()
            for record in WalFeed(Path(home) / WAL_SUBDIR).poll():
                if record.lsn <= follower.acked_lsn:
                    apply_record(reference, record)
            status, payload = _post(
                router.url, {"v": 1, "query": query, "k": K, "p": 1.0}
            )
            assert status == 200 and payload["served_by"] == "follower"
            expected = reference.knn(np.asarray(query), K, p=1.0)
            assert payload["ids"] == expected.ids.tolist()
            assert payload["distances"] == pytest.approx(
                expected.distances.tolist()
            )
        finally:
            if router is not None:
                router.stop()
            follower.stop()
            leader.stop()

    def test_router_health_and_cluster_endpoints(self, leader_home, tmp_path):
        durable, home, _data = leader_home
        leader = _LeaderStack(home, durable)
        try:
            router = Router(
                {"leader": leader.door.url},
                leader="leader",
                check_interval=0.05,
                probe_timeout=0.5,
            ).start()
            try:
                status, report = _get(router.url, "/v1/health")
                assert status == 200 and report["healthy"] is True
                status, report = _get(router.url, "/v1/cluster")
                assert report["configured_leader"] == "leader"
                assert report["acting_leader"] == "leader"
                assert sorted(report["slots"]) == sorted(
                    str(s) for s in range(report["n_slots"])
                )
                assert set(report["slots"].values()) == {"leader"}
                status, body = _get(router.url, "/v1/nope")
                assert status == 404 and body["error"]["code"] == "not_found"
                # Malformed and invalid requests reject at the edge with
                # the same taxonomy the single-node door uses.
                status, body = _post(
                    router.url, {"v": 1, "query": [1.0] * 10, "k": 0}
                )
                assert status == 400
                status, body = _post(
                    router.url,
                    {
                        "v": 1, "query": [1.0] * 10, "k": K, "p": 1.0,
                        "max_lag_lsn": -3,
                    },
                )
                assert status == 400
                assert body["error"]["code"] == "invalid_parameter"
            finally:
                router.stop()
        finally:
            leader.stop()


# ---------------------------------------------------------------------------
# SIGKILL'd leader process: crash failover (the acceptance scenario)
# ---------------------------------------------------------------------------


def _leader_process_main(home, ports_path):
    """Run a full leader node: durable writer + fleet + door + shipper."""
    from repro.durability import recover
    from repro.serve import Frontend, ShardedSearchService

    durable, _report = recover(home, sync=False)
    index, _ = _build()
    service = ShardedSearchService(index, n_shards=1)
    feed = WalFeed(Path(home) / WAL_SUBDIR)
    door = Frontend(service, port=0).start()
    shipper = WalShipper(home, poll_interval=0.01).start()
    Path(ports_path).write_text(
        json.dumps({"http": door.url, "ship": shipper.port})
    )
    lsn = 0
    while True:  # keep committing until SIGKILL'd
        lsn += 1
        if lsn % 5 == 0:
            durable.remove([lsn])
        else:
            durable.insert(_batch(2, seed=1000 + lsn))
        service.ingest(feed.poll())
        time.sleep(0.01 if lsn < 30 else 0.25)


class TestCrashFailover:
    def test_sigkilled_leader_fails_over_bit_identically(self, tmp_path):
        index, data = _build()
        home = tmp_path / "leader"
        create(index, home, sync=False).close()
        ports_path = tmp_path / "ports.json"
        ctx = mp.get_context("fork")
        child = ctx.Process(
            target=_leader_process_main,
            args=(home, ports_path),
            daemon=False,
        )
        child.start()
        follower = router = None
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not ports_path.exists():
                time.sleep(0.02)
            ports = json.loads(ports_path.read_text())
            follower = FollowerNode(
                tmp_path / "follower",
                ("127.0.0.1", ports["ship"]),
                n_shards=1,
                http_port=0,
                reconnect_min=0.02,
            ).start()
            assert follower.wait_for_lsn(20, timeout=30), follower.status()
            router = Router(
                {"leader": ports["http"], "follower": follower.url},
                leader="leader",
                check_interval=0.05,
                failure_threshold=2,
                probe_timeout=0.25,
                proxy_timeout=1.0,
            ).start()
            query = data[33].tolist()
            status, payload = _post(router.url, {
                "v": 1, "query": query, "k": K, "p": 1.0,
            })
            assert status == 200 and payload["served_by"] == "leader"
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10)
            # The router must fail over to the follower: keep asking
            # until an answer lands (bounded), then check identity.
            answer = None
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                status, payload = _post(
                    router.url,
                    {"v": 1, "query": query, "k": K, "p": 1.0},
                    timeout=5,
                )
                if status == 200:
                    answer = payload
                    break
                assert status in (502, 503)
                assert payload["error"]["code"] in (
                    "unavailable", "internal"
                )
                time.sleep(0.1)
            assert answer is not None, "no answer after leader SIGKILL"
            assert answer["served_by"] == "follower"
            assert router.describe()["acting_leader"] == "follower"
            assert router.failovers >= 1
            # Bit-identity: replay the leader's durable WAL up to the
            # follower's acked LSN onto a fresh twin of the snapshot.
            acked = follower.acked_lsn
            assert acked >= 20
            reference, _ = _build()
            for record in WalFeed(home / WAL_SUBDIR).poll():
                if record.lsn <= acked:
                    apply_record(reference, record)
            expected = reference.knn(np.asarray(query), K, p=1.0)
            assert answer["ids"] == expected.ids.tolist()
            assert answer["distances"] == pytest.approx(
                expected.distances.tolist()
            )
            _assert_same_answers(
                reference,
                follower.service,
                [data[3], data[150], np.full(10, 42.0)],
            )
        finally:
            if router is not None:
                router.stop()
            if follower is not None:
                follower.stop()
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
