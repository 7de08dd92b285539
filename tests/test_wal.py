"""Tests for the durable update plane (repro.durability).

Covers the WAL on-disk format (framing, segmentation, torn-tail
truncation), the journal-then-apply contract of ``DurableIndex``,
checkpoint/recovery equivalence, the read-only ``WalFeed`` tail, and
live propagation of WAL records into the sharded service — which must
stay bit-identical to a single-process index that applied the same
records (DESIGN.md section 11).
"""

import os
import signal

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.datasets import make_synthetic
from repro.durability import (
    CHECKPOINT_SUBDIR,
    WAL_SUBDIR,
    DurableIndex,
    RecoveryError,
    WalCorruptionError,
    WalFeed,
    WalRecord,
    WriteAheadLog,
    create,
    decode_wal_record,
    encode_wal_record,
    latest_checkpoint,
    list_checkpoints,
    recover,
)
from repro.durability.checkpoint import (
    _reference_index_from,
    checkpoint_now,
    states_identical,
)
from repro.durability.wal import encode_record, list_segments
from repro.errors import InvalidParameterError, ReproError
from repro.persistence import load_index, save_index

CFG = dict(c=3.0, p_min=0.7, seed=41, mc_samples=10_000, mc_buckets=60)


def _build(n=240, d=10, seed=40):
    data = make_synthetic(n, d, value_range=(0, 200), seed=seed)
    return LazyLSH(LazyLSHConfig(**CFG)).build(data), data


def _batch(m, d=10, seed=50):
    return np.random.default_rng(seed).uniform(0.0, 200.0, size=(m, d))


def _record_spills(monkeypatch):
    """Paths of every attach spill the sharded service writes."""
    from repro.serve import service as service_module

    spills = []

    def recording_save(index, path, **kwargs):
        spills.append(save_index(index, path, **kwargs))
        return spills[-1]

    monkeypatch.setattr(service_module, "save_index", recording_save)
    return spills


class TestFraming:
    def test_append_replay_round_trip(self, tmp_path):
        points = _batch(3)
        with WriteAheadLog(tmp_path, sync=False) as wal:
            lsn1 = wal.append_insert(points, np.arange(240, 243))
            lsn2 = wal.append_remove(np.array([7, 11]))
            assert (lsn1, lsn2) == (1, 2)
        with WriteAheadLog(tmp_path, sync=False) as wal:
            records = list(wal.replay())
            assert [r.lsn for r in records] == [1, 2]
            assert [r.op for r in records] == ["insert", "remove"]
            np.testing.assert_array_equal(records[0].ids, [240, 241, 242])
            np.testing.assert_array_equal(records[0].points, points)
            np.testing.assert_array_equal(records[1].ids, [7, 11])
            assert records[1].points is None
            assert wal.last_lsn == 2

    def test_segment_rotation_and_partial_replay(self, tmp_path):
        with WriteAheadLog(tmp_path, sync=False, segment_bytes=256) as wal:
            for i in range(12):
                wal.append_insert(_batch(2, seed=i), np.arange(2 * i, 2 * i + 2))
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        assert segments[0][0] == 1  # named by their first LSN
        with WriteAheadLog(tmp_path, sync=False, segment_bytes=256) as wal:
            assert [r.lsn for r in wal.replay()] == list(range(1, 13))
            assert [r.lsn for r in wal.replay(start_lsn=7)] == list(range(8, 13))
            assert wal.append_remove(np.array([0])) == 13

    def test_fsync_toggle_both_commit(self, tmp_path):
        for sync, sub in ((True, "a"), (False, "b")):
            with WriteAheadLog(tmp_path / sub, sync=sync) as wal:
                wal.append_remove(np.array([1]))
            with WriteAheadLog(tmp_path / sub, sync=False) as wal:
                assert wal.last_lsn == 1

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("short", "too short"),
            ("truncated", "length mismatch"),
            ("trailing", "length mismatch"),
            ("crc", "CRC mismatch"),
            ("body", "undecodable"),
        ],
    )
    def test_decode_refuses_every_defect(self, defect, match):
        """A wire frame has no torn-tail excuse: every defect the segment
        reader stops at is a WalCorruptionError for decode_wal_record."""
        frame = encode_wal_record(WalRecord(lsn=3, op="remove", ids=np.array([7, 11])))
        bad = {
            "short": frame[:10],
            "truncated": frame[:-1],
            "trailing": frame + b"\0",
            "crc": frame[:-1] + bytes([frame[-1] ^ 1]),
            "body": encode_record(3, 9, b""),  # intact CRC, unknown op code
        }[defect]
        assert decode_wal_record(frame).ids.tolist() == [7, 11]
        with pytest.raises(WalCorruptionError, match=match):
            decode_wal_record(bad)


class TestTornTail:
    def _write_three(self, directory):
        with WriteAheadLog(directory, sync=False) as wal:
            for i in range(3):
                wal.append_insert(_batch(2, seed=i), np.arange(2 * i, 2 * i + 2))

    def test_garbage_tail_truncated(self, tmp_path):
        self._write_three(tmp_path)
        (_, path), = list_segments(tmp_path)
        clean_size = path.stat().st_size
        with path.open("ab") as fh:
            fh.write(b"\x01\x02\x03partial-frame")
        with WriteAheadLog(tmp_path, sync=False) as wal:
            assert wal.last_lsn == 3
            assert wal.torn_bytes_dropped > 0
            assert path.stat().st_size == clean_size
            # The log stays appendable after truncation.
            assert wal.append_remove(np.array([0])) == 4

    def test_corrupt_tail_record_dropped(self, tmp_path):
        self._write_three(tmp_path)
        (_, path), = list_segments(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a byte inside the last record's body
        path.write_bytes(bytes(raw))
        with WriteAheadLog(tmp_path, sync=False) as wal:
            assert wal.last_lsn == 2
            assert wal.torn_bytes_dropped > 0

    def test_non_tail_corruption_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, sync=False, segment_bytes=256) as wal:
            for i in range(12):
                wal.append_insert(_batch(2, seed=i), np.arange(2 * i, 2 * i + 2))
        segments = list_segments(tmp_path)
        assert len(segments) > 2
        _, victim = segments[0]
        raw = bytearray(victim.read_bytes())
        raw[10] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path, sync=False)


class TestDurableIndex:
    def test_journal_then_apply(self, tmp_path):
        index, _data = _build()
        wal = WriteAheadLog(tmp_path, sync=False)
        durable = DurableIndex(index, wal)
        seen = []
        durable.subscribe(seen.append)
        ids = durable.insert(_batch(4))
        np.testing.assert_array_equal(ids, np.arange(240, 244))
        durable.remove([3, 9])
        durable.close()
        assert [r.lsn for r in seen] == [1, 2]
        assert index.num_points == 242
        with WriteAheadLog(tmp_path, sync=False) as reopened:
            ops = [(r.op, r.ids.tolist()) for r in reopened.replay()]
        assert ops == [("insert", [240, 241, 242, 243]), ("remove", [3, 9])]

    def test_validation_failure_writes_nothing(self, tmp_path):
        index, _data = _build()
        durable = DurableIndex(index, WriteAheadLog(tmp_path, sync=False))
        with pytest.raises(InvalidParameterError):
            durable.remove([5, 10_000])
        with pytest.raises(InvalidParameterError):
            durable.insert(np.full((1, 10), np.nan))
        assert durable.last_lsn == 0
        assert index.num_points == 240
        assert index._alive[5]
        durable.close()

    def test_insert_the_index_cannot_apply_is_not_journaled(self, tmp_path):
        """A finite point whose base hashes leave int64 is refused before
        the log sees it; the next insert takes the next LSN and ids, and
        the home recovers bit-identically."""
        index, data = _build()
        durable = create(index, tmp_path, sync=False)
        durable.insert(_batch(2))
        far = _batch(1, seed=51)
        far[0, 0] = 1e18
        with pytest.raises(InvalidParameterError, match="past int64"):
            durable.insert(far)
        assert durable.last_lsn == 1
        assert index.num_rows == 242
        ids = durable.insert(_batch(3, seed=52))
        np.testing.assert_array_equal(ids, np.arange(242, 245))
        assert durable.last_lsn == 2
        durable.close()
        recovered, report = recover(tmp_path, sync=False)
        assert report["replayed_records"] == 2
        assert states_identical(recovered.index, index, queries=data[:3], k=5)
        recovered.close()


@pytest.fixture
def home(tmp_path):
    """A durable home with a built index, 3 inserts and 1 remove."""
    index, data = _build()
    durable = create(index, tmp_path, sync=False)
    for i in range(3):
        durable.insert(_batch(4, seed=60 + i))
    durable.remove([2, 17, 241])
    durable.close()
    return tmp_path, data


class TestRecovery:
    def test_recover_matches_full_replay_reference(self, home):
        directory, data = home
        durable, report = recover(directory, sync=False)
        reference = _reference_index_from(directory)
        assert states_identical(
            durable.index, reference, queries=data[:3], k=5
        )
        assert report["checkpoint_lsn"] == 0
        assert report["replayed_records"] == 4
        assert report["live_points"] == 249
        durable.close()

    def test_recover_with_torn_tail_uses_acked_prefix(self, home):
        directory, data = home
        segments = list_segments(directory / WAL_SUBDIR)
        with segments[-1][1].open("ab") as fh:
            fh.write(b"crashed-mid-append")
        durable, report = recover(directory, sync=False)
        assert report["torn_tail_bytes_dropped"] > 0
        assert report["replayed_records"] == 4
        assert states_identical(
            durable.index, _reference_index_from(directory), queries=data[:2]
        )
        durable.close()

    def test_checkpoint_prunes_and_recovers(self, home):
        directory, data = home
        durable, _ = recover(directory, sync=False)
        checkpoint_now(durable, directory)
        durable.insert(_batch(2, seed=70))
        final_lsn = durable.last_lsn
        expected = durable.index
        durable.close()
        recovered, report = recover(directory, sync=False)
        assert report["checkpoint_lsn"] == 4
        assert report["replayed_records"] == final_lsn - 4
        assert states_identical(recovered.index, expected, queries=data[:2])
        recovered.close()
        # The pruned log can no longer support a full-history reference.
        lsns = [lsn for lsn, _ in list_checkpoints(directory / CHECKPOINT_SUBDIR)]
        assert 0 in lsns and 4 in lsns

    def test_mid_checkpoint_crash_falls_back(self, home):
        directory, data = home
        durable, _ = recover(directory, sync=False)
        path = checkpoint_now(durable, directory)
        durable.close()
        # Simulate a crash mid-checkpoint: the temp file save_index
        # leaves (complete, its header LSN matching, yet never taken for
        # a checkpoint) plus a truncated (corrupt) newest checkpoint.
        ckpt_dir = directory / CHECKPOINT_SUBDIR
        good = path.read_bytes()
        path.with_name(f"{path.name}.tmp-4242").write_bytes(good)
        path.write_bytes(good[: len(good) // 2])
        assert [lsn for lsn, _ in list_checkpoints(ckpt_dir)] == [0, 4]
        recovered, report = recover(directory, sync=False)
        assert report["checkpoint_lsn"] == 0
        assert [s for s in report["checkpoints_skipped"]]
        assert recovered.index.num_points == 249
        recovered.close()
        # Restore the newest checkpoint: recovery prefers it again.
        path.write_bytes(good)
        recovered, report = recover(directory, sync=False)
        assert report["checkpoint_lsn"] == 4
        assert report["checkpoints_skipped"] == []
        recovered.close()

    def test_latest_checkpoint_skips_header_mismatch(self, home):
        directory, _data = home
        ckpt_dir = directory / CHECKPOINT_SUBDIR
        found = latest_checkpoint(ckpt_dir)
        assert found is not None and found[0] == 0
        # A checkpoint renamed to claim a later LSN is not trusted.
        lied = ckpt_dir / "checkpoint-00000000000000000009.npz"
        lied.write_bytes(found[1].read_bytes())
        assert latest_checkpoint(ckpt_dir)[0] == 0

    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "nothing")

    def test_create_refuses_existing_home(self, home):
        directory, _data = home
        index, _ = _build()
        with pytest.raises(InvalidParameterError):
            create(index, directory, sync=False)


class TestWalFeed:
    def test_poll_is_incremental_and_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync=False, segment_bytes=256)
        feed = WalFeed(tmp_path)
        assert feed.poll() == []
        for i in range(5):
            wal.append_insert(_batch(2, seed=i), np.arange(2 * i, 2 * i + 2))
        first = feed.poll()
        assert [r.lsn for r in first] == [1, 2, 3, 4, 5]
        assert feed.poll() == []
        # New records after rotation are still picked up.
        for i in range(5, 9):
            wal.append_insert(_batch(2, seed=i), np.arange(2 * i, 2 * i + 2))
        assert [r.lsn for r in feed.poll()] == [6, 7, 8, 9]
        assert feed.lag() == 0
        wal.close()

    def test_idle_poll_decodes_no_frame(self, tmp_path, monkeypatch):
        """A poll reads only the bytes past the feed's offset: once the
        tail segment is drained, polling it decodes nothing, and a new
        record costs one decode."""
        import repro.durability.wal as wal_module

        with WriteAheadLog(tmp_path, sync=False) as wal:
            for i in range(20):
                wal.append_insert(_batch(2, seed=i), np.arange(2 * i, 2 * i + 2))
            feed = WalFeed(tmp_path)
            assert [r.lsn for r in feed.poll()] == list(range(1, 21))
            decoded = []
            decode = wal_module._decode_body

            def counting_decode(body):
                decoded.append(body)
                return decode(body)

            monkeypatch.setattr(wal_module, "_decode_body", counting_decode)
            assert feed.poll() == [] and feed.poll() == []
            assert decoded == []
            wal.append_remove(np.array([3]))
            assert [r.lsn for r in feed.poll()] == [21]
            assert len(decoded) == 1

    def test_start_lsn_skips_checkpointed_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path, sync=False) as wal:
            for i in range(4):
                wal.append_remove(np.array([i]))
        feed = WalFeed(tmp_path, start_lsn=2)
        assert [r.lsn for r in feed.poll()] == [3, 4]

    def test_resume_across_rotation_between_polls(self, tmp_path):
        # Regression: the writer rotates to a new segment *between* two
        # polls; the resumed poll must step from the drained segment to
        # the new one without skipping or replaying a record.
        wal = WriteAheadLog(tmp_path, sync=False, segment_bytes=256)
        feed = WalFeed(tmp_path)
        for i in range(3):
            wal.append_remove(np.array([i]))
        assert [r.lsn for r in feed.poll()] == [1, 2, 3]
        before = len(list_segments(tmp_path))
        lsn = 3
        while len(list_segments(tmp_path)) == before:
            lsn = wal.append_remove(np.array([lsn]))
        assert [r.lsn for r in feed.poll()] == list(range(4, lsn + 1))
        assert feed.poll() == [] and feed.lag() == 0
        wal.close()

    def test_max_records_stop_resumes_across_rotation(self, tmp_path):
        # One-record polls walk the whole multi-segment log exactly
        # once even though every poll stops mid-segment.
        with WriteAheadLog(tmp_path, sync=False, segment_bytes=256) as wal:
            for i in range(12):
                wal.append_insert(
                    _batch(2, seed=i), np.arange(2 * i, 2 * i + 2)
                )
        assert len(list_segments(tmp_path)) > 1
        feed = WalFeed(tmp_path)
        seen = []
        while chunk := feed.poll(max_records=1):
            seen.extend(r.lsn for r in chunk)
        assert seen == list(range(1, 13))

    def test_torn_tail_completed_between_polls(self, tmp_path):
        from repro.durability import WalRecord, encode_wal_record

        with WriteAheadLog(tmp_path, sync=False) as wal:
            for i in range(3):
                wal.append_remove(np.array([i]))
        feed = WalFeed(tmp_path)
        assert [r.lsn for r in feed.poll()] == [1, 2, 3]
        frame = encode_wal_record(
            WalRecord(lsn=4, op="remove", ids=np.array([9]))
        )
        segment = list_segments(tmp_path)[-1][1]
        with segment.open("ab") as handle:
            handle.write(frame[: len(frame) // 2])
        assert feed.poll() == []  # torn tail: wait for the writer
        with segment.open("ab") as handle:
            handle.write(frame[len(frame) // 2 :])
        assert [r.lsn for r in feed.poll()] == [4]

    @staticmethod
    def _write_segment(directory, lsns):
        """Hand-build one segment file holding remove records ``lsns``."""
        from repro.durability import WalRecord, encode_wal_record

        path = directory / f"segment-{lsns[0]:020d}.wal"
        path.write_bytes(
            b"".join(
                encode_wal_record(
                    WalRecord(lsn=lsn, op="remove", ids=np.array([lsn]))
                )
                for lsn in lsns
            )
        )
        return path

    def test_prune_of_consumed_segments_relocates(self, tmp_path):
        # Pruning a segment the feed already fully delivered must not
        # disturb it: the next poll relocates to the surviving segment.
        seg_a = self._write_segment(tmp_path, [1, 2, 3, 4])
        self._write_segment(tmp_path, [5, 6, 7, 8])
        feed = WalFeed(tmp_path)
        assert [r.lsn for r in feed.poll(max_records=4)] == [1, 2, 3, 4]
        seg_a.unlink()  # a checkpoint pruned the drained prefix
        assert [r.lsn for r in feed.poll()] == [5, 6, 7, 8]

    def test_poll_after_pruned_position_raises_typed_error(self, tmp_path):
        # Regression: pruning the log past a feed's position used to
        # make poll() return [] forever while lag() kept growing — the
        # records were silently lost.  It must raise a typed error so
        # the consumer re-bootstraps from a checkpoint.
        from repro.durability import WalTruncatedError

        seg_a = self._write_segment(tmp_path, [1, 2, 3, 4])
        self._write_segment(tmp_path, [5, 6, 7, 8])
        feed = WalFeed(tmp_path)
        assert [r.lsn for r in feed.poll(max_records=2)] == [1, 2]
        seg_a.unlink()  # records 3 and 4 will never reappear
        with pytest.raises(WalTruncatedError) as excinfo:
            feed.poll()
        assert excinfo.value.code == "wal_truncated"
        assert excinfo.value.requested == 3
        assert excinfo.value.first_available == 5

    def test_checkpoint_prune_past_live_feed_raises(self, tmp_path):
        # Same contract through the real checkpoint path: insert-heavy
        # records force rotation, checkpoint_now prunes everything but
        # the tail, and a feed stuck in the pruned prefix must fail
        # loudly instead of silently skipping records.
        from repro.durability import WalTruncatedError

        index, _ = _build()
        durable = create(index, tmp_path, sync=False, segment_bytes=256)
        feed = WalFeed(tmp_path / WAL_SUBDIR)
        for i in range(8):
            durable.insert(_batch(2, seed=i))
        assert len(list_segments(tmp_path / WAL_SUBDIR)) > 2
        assert [r.lsn for r in feed.poll(max_records=1)] == [1]
        checkpoint_now(durable, tmp_path)  # prunes the acked prefix
        durable.insert(_batch(1, seed=99))
        with pytest.raises(WalTruncatedError) as excinfo:
            feed.poll()
        assert excinfo.value.requested == 2
        assert excinfo.value.first_available > 2
        durable.close()


class TestLiveServicePropagation:
    """WAL-fed fleet must answer bit-identically to the writer's index."""

    @staticmethod
    def _assert_identical(flat, sharded):
        np.testing.assert_array_equal(flat.ids, sharded.ids)
        np.testing.assert_array_equal(flat.distances, sharded.distances)
        assert flat.io.total == sharded.io.total
        assert flat.rounds == sharded.rounds
        assert flat.termination == sharded.termination

    def test_fleet_tracks_wal_bit_identically(self, tmp_path):
        from repro.serve import ShardedSearchService

        writer_index, data = _build()
        writer = create(writer_index, tmp_path, sync=False)
        served_index, _ = _build()  # deterministic twin of the snapshot
        feed = WalFeed(tmp_path / WAL_SUBDIR)
        queries = [data[5], data[100], np.full(10, 77.0)]
        with ShardedSearchService(served_index, n_shards=2) as svc:
            for q in queries:
                self._assert_identical(
                    writer.knn(q, 5, p=1.0), svc.search(q, 5, p=1.0)
                )
            # Three update records: insert, remove, insert.
            writer.insert(_batch(7, seed=80))
            writer.remove([4, 100])
            fresh = _batch(4, seed=81)
            writer.insert(fresh)
            assert svc.ingest(feed.poll()) == 3
            assert svc.acked_lsn == 3 and svc.epoch == 3
            for q in queries + [fresh[0], fresh[3]]:
                self._assert_identical(
                    writer.knn(q, 5, p=1.0), svc.search(q, 5, p=1.0)
                )
            wal_health = svc.health()["wal"]
            assert wal_health["acked_lsn"] == 3
            assert wal_health["extra_points"] == 11
            # Ingesting the same records again is a no-op (idempotent).
            assert svc.ingest(feed.poll()) == 0
        writer.close()

    def test_insert_with_wrong_ids_rejected(self):
        """The service applies records the way recovery does: an insert
        carrying other ids than the index would assign raises
        WalCorruptionError and leaves service and index unchanged."""
        from repro.durability.wal import WalRecord
        from repro.serve import ShardedSearchService

        index, data = _build()
        rows = index.num_rows
        before = index.knn(data[5], 5, p=1.0)
        with ShardedSearchService(index, n_shards=2) as svc:
            record = WalRecord(
                lsn=1, op="insert", ids=np.arange(rows + 1, rows + 4),
                points=_batch(3),
            )
            with pytest.raises(WalCorruptionError, match="would assign"):
                svc.ingest([record])
            assert svc.acked_lsn == 0 and svc.epoch == 0
            assert svc.updates_applied == 0
            assert index.num_rows == rows and index.data.shape[0] == rows
            self._assert_identical(before, svc.search(data[5], 5, p=1.0))

    def test_gap_in_update_stream_rejected(self, tmp_path):
        from repro.durability.wal import WalRecord
        from repro.serve import ShardedSearchService

        index, _data = _build()
        with ShardedSearchService(index, n_shards=2) as svc:
            record = WalRecord(lsn=5, op="remove", ids=np.array([1]))
            with pytest.raises(ReproError, match="update gap"):
                svc.ingest([record])

    def test_gap_error_is_typed_with_both_lsns(self, tmp_path):
        # The gap error must carry the expected *and* received LSN so a
        # replication follower can surface it as a typed wire error.
        from repro.durability.wal import WalRecord
        from repro.errors import WalGapError
        from repro.serve import ShardedSearchService

        index, _data = _build()
        with ShardedSearchService(index, n_shards=2) as svc:
            record = WalRecord(lsn=7, op="remove", ids=np.array([1]))
            with pytest.raises(WalGapError) as excinfo:
                svc.ingest([record])
            assert excinfo.value.code == "wal_gap"
            assert excinfo.value.expected == 1
            assert excinfo.value.received == 7
            assert "expected LSN 1" in str(excinfo.value)
            assert "received 7" in str(excinfo.value)

    @pytest.mark.parametrize("kind", ["eager", "mmap"])
    def test_respawned_workers_catch_up(self, tmp_path, monkeypatch, kind):
        """A respawned worker attaches the coordinator's current index:
        after inserts, removes and kills — including a second death
        during a repair — answers stay bit-identical to the writer, and
        no spill the service wrote outlives its attach."""
        from repro.serve import ShardedSearchService

        spills = _record_spills(monkeypatch)
        writer_index, data = _build()
        writer = create(writer_index, tmp_path / "home", sync=False)
        served_index = _build()[0]
        if kind == "mmap":
            served_index = load_index(save_index(served_index, tmp_path / "served"))
        assert served_index.storage_info()["backend"] == kind
        feed = WalFeed(tmp_path / "home" / WAL_SUBDIR)
        queries = (data[8], data[30], np.full(10, 12.0))
        with ShardedSearchService(served_index, n_shards=2) as svc:
            # Workers attach through a spill, over a built index and a
            # mapped one alike.
            assert len(spills) == 1
            assert not any(path.exists() for path in spills)
            writer.insert(_batch(6, seed=90))
            writer.remove([8])
            svc.ingest(feed.poll())
            # Kill a worker after it applied updates: the next ingest
            # repairs it from the current index before shipping.
            svc._crash_worker(0)
            writer.insert(_batch(3, seed=91))
            writer.remove([30])
            svc.ingest(feed.poll())
            assert svc.restarts == 1
            assert not any(path.exists() for path in spills)
            for q in queries:
                self._assert_identical(
                    writer.knn(q, 5, p=1.0), svc.search(q, 5, p=1.0)
                )
            # The other worker dying *during* the next repair restarts
            # the repair.
            real_spawn = svc._spawn
            second = []

            def spawn_then_kill_other(sid, path):
                real_spawn(sid, path)
                if not second:
                    other = svc._procs[1 - sid]
                    second.append(other.pid)
                    os.kill(other.pid, signal.SIGKILL)
                    other.join(timeout=5)

            monkeypatch.setattr(svc, "_spawn", spawn_then_kill_other)
            svc._crash_worker(1)
            for q in queries:
                self._assert_identical(
                    writer.knn(q, 5, p=1.0), svc.search(q, 5, p=1.0)
                )
            assert second and svc.restarts == 3
            # One spill per start and per repair (a restarted repair
            # reuses its spill).
            assert len(spills) == 3
            assert not any(path.exists() for path in spills)
        assert not any(path.exists() for path in spills)
        writer.close()

    @pytest.mark.parametrize(
        "wide, start_method",
        [(False, "spawn"), (True, None)],
        ids=["spawn", "wide_domain"],
    )
    def test_spilled_fleet_identity(self, monkeypatch, wide, start_method):
        """Spawned workers, and a hash domain wider than int32 (whose
        spill carries int64 runs), answer like the index before and
        after a respawn."""
        from repro.serve import ShardedSearchService

        spills = _record_spills(monkeypatch)
        if wide:
            data = make_synthetic(300, 6, seed=5) * 100.0
            index = LazyLSH(
                LazyLSHConfig(
                    c=3.0, p_min=0.5, seed=3, mc_samples=20_000, mc_buckets=100
                )
            ).build(data)
            assert index.store.compact_shard(np.arange(1))[0]["rel"].dtype == np.int64
            queries = (data[7], data[123] + 50.0)
        else:
            index, data = _build()
            queries = (data[8], np.full(10, 12.0))
        index.remove([3, 9])
        index.insert(data[:4] * 1.5)
        with ShardedSearchService(
            index, n_shards=2, start_method=start_method
        ) as svc:
            for q in queries:
                self._assert_identical(index.knn(q, 5, p=0.8), svc.search(q, 5, p=0.8))
            svc._crash_worker(0)
            for q in queries:
                self._assert_identical(index.knn(q, 5, p=0.8), svc.search(q, 5, p=0.8))
            assert svc.restarts == 1
        assert len(spills) == 2
        assert not any(path.exists() for path in spills)
