"""Tests for the memory-mapped open of saved indexes (DESIGN.md section 12).

Covers the format-v3 binary layout (round trip, header, corruption
errors), ``load_index``'s one open mode — a mapped index must answer
every query bit-identically to the index it was saved from — the
sharded service over a mapped index at 1, 2 and 4 shards (including an
all-tombstoned shard, tombstones set after load, and respawns after the
index's path was replaced or removed), WAL ingest against a mapped
fleet (materialise-on-update), and v3 checkpoint/recovery.
"""

import os
import shutil

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.datasets import make_synthetic
from repro.durability import CHECKPOINT_SUBDIR, WAL_SUBDIR, WalFeed, create, recover
from repro.durability.checkpoint import (
    checkpoint_name,
    checkpoint_now,
    states_identical,
    write_checkpoint,
)
from repro.persistence import (
    IndexFormatError,
    load_index,
    open_v3_arrays,
    read_header,
    save_index,
)

CFG = dict(c=3.0, p_min=0.7, seed=43, mc_samples=10_000, mc_buckets=60)
TOMBSTONES = [3, 77, 150, 299]


def _build(n=300, d=10, seed=44):
    data = make_synthetic(n, d, value_range=(0, 200), seed=seed)
    return LazyLSH(LazyLSHConfig(**CFG)).build(data), data


@pytest.fixture(scope="module")
def corpus():
    """A built index with a few tombstones, plus its data."""
    index, data = _build()
    index.remove(TOMBSTONES)
    return index, data


@pytest.fixture(scope="module")
def v3_path(corpus, tmp_path_factory):
    index, _ = corpus
    path = tmp_path_factory.mktemp("v3") / "idx.npz"
    return save_index(index, path, wal_lsn=9, wal_epoch=2)


def _queries(data):
    return [data[0], data[123], np.full(data.shape[1], 99.0)]


def _assert_identical(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    assert a.io.sequential == b.io.sequential
    assert a.io.random == b.io.random
    assert a.rounds == b.rounds
    assert a.candidates == b.candidates
    assert a.termination == b.termination


class TestV3RoundTrip:
    def test_eager_and_mmap_bit_identical(self, corpus, v3_path):
        """The mapped index answers like the in-memory one it was saved from."""
        index, data = corpus
        mapped = load_index(v3_path)
        for q in _queries(data):
            for p in (0.7, 1.0):
                _assert_identical(index.knn(q, 5, p=p), mapped.knn(q, 5, p=p))

    def test_backend_kind_and_storage_info(self, corpus, v3_path):
        """The open mode is read off the arrays: a loaded v3 index maps
        its runs, data and hash bank from its file; a built or
        inserted-into one holds its runs and data in RAM."""
        mapped = load_index(v3_path)

        def memmap_bytes():
            return sum(
                value.nbytes
                for owner in (mapped, mapped._bank, mapped.store)
                for value in vars(owner).values()
                if isinstance(value, np.memmap)
            )

        for name in ("rel32", "ids32", "row_top", "data", "projections", "offsets"):
            assert isinstance(mapped.mapped_regions()[name], np.memmap)
        assert not isinstance(mapped._alive, np.memmap)
        info = mapped.storage_info()
        assert info["backend"] == "mmap"
        assert info["mapped_bytes"] == memmap_bytes()
        assert info["source_path"] == str(v3_path)
        # Mutable state (alive mask) stays resident even when mapped.
        assert 0 < info["resident_bytes"] < info["mapped_bytes"]
        index, data = corpus
        built = index.storage_info()
        assert built["backend"] == "eager"
        assert built["source_path"] is None
        assert built["mapped_bytes"] == 0
        assert built["resident_bytes"] > 0
        mapped.insert(data[:2] + 0.5)
        info = mapped.storage_info()
        assert info["backend"] == "eager"
        assert info["source_path"] is None
        # The hash bank is never rewritten, so it stays mapped.
        assert set(mapped.mapped_regions()) == {"projections", "offsets"}
        assert info["mapped_bytes"] == memmap_bytes() > 0

    def test_read_header_v3(self, v3_path):
        header = read_header(v3_path)
        assert header["format_version"] == 3
        assert header["wal_lsn"] == 9
        assert header["wal_epoch"] == 2
        assert header["live_count"] == 300 - len(TOMBSTONES)

    def test_open_v3_arrays(self, corpus, v3_path):
        index, _ = corpus
        header, arrays = open_v3_arrays(v3_path)
        assert header["format_version"] == 3
        values, ids = index.store.runs()
        rel = arrays["rel32"].reshape(values.shape)
        assert np.array_equal(rel + header["v3"]["vmin"], values)
        assert np.array_equal(arrays["ids32"].reshape(ids.shape), ids)

    def test_insert_materialises_mmap_index(self, corpus, v3_path):
        _, data = corpus
        mapped = load_index(v3_path)
        twin = load_index(v3_path)
        assert mapped.storage_info()["backend"] == "mmap"
        batch = make_synthetic(5, data.shape[1], value_range=(0, 200), seed=9)
        mapped.insert(batch)
        twin.insert(batch)
        assert mapped.storage_info()["backend"] == "eager"
        for q in (_queries(data)[0], batch[2]):
            _assert_identical(twin.knn(q, 5, p=1.0), mapped.knn(q, 5, p=1.0))

    def test_remove_on_mmap_index(self, corpus, v3_path):
        _, data = corpus
        mapped = load_index(v3_path)
        twin = load_index(v3_path)
        mapped.remove([10, 20])
        twin.remove([10, 20])
        for q in _queries(data):
            _assert_identical(twin.knn(q, 5, p=1.0), mapped.knn(q, 5, p=1.0))


class TestErrors:
    def test_mmap_rejected_for_v2(self, legacy_v2_path):
        # A v2 file holds no runs to map: it loads into RAM by re-hashing.
        index = load_index(legacy_v2_path)
        assert index.storage_info()["backend"] == "eager"
        assert index.num_points == read_header(legacy_v2_path)["live_count"]

    def test_truncated_v3_rejected(self, v3_path, tmp_path):
        stub = tmp_path / "torn.npz"
        stub.write_bytes(v3_path.read_bytes()[: v3_path.stat().st_size // 2])
        with pytest.raises(IndexFormatError, match="truncated or corrupt"):
            load_index(stub)

    def test_open_v3_arrays_rejects_npz(self, legacy_v2_path):
        with pytest.raises(IndexFormatError, match="only v3"):
            open_v3_arrays(legacy_v2_path)

    def test_unwritable_format_version(self, corpus, tmp_path):
        # v3 is the one written format: no writer takes a format choice.
        index, _ = corpus
        with pytest.raises(TypeError, match="format_version"):
            save_index(index, tmp_path / "x.npz", format_version=2)
        with pytest.raises(TypeError, match="compress"):
            write_checkpoint(index, tmp_path, lsn=0, compress=False)


class TestShardedIdentity:
    """Fleets over a mapped index must answer exactly like in-memory ones."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shm_vs_mmap_vs_flat(self, corpus, v3_path, n_shards):
        from repro.serve import ShardedSearchService

        index, data = corpus
        mapped = load_index(v3_path)
        with ShardedSearchService(
            index, n_shards=n_shards
        ) as shm_svc, ShardedSearchService(
            mapped, n_shards=n_shards
        ) as mm_svc:
            for q in _queries(data):
                for p in (0.7, 1.0):
                    flat = index.knn(q, 5, p=p)
                    _assert_identical(flat, shm_svc.search(q, 5, p=p))
                    _assert_identical(flat, mm_svc.search(q, 5, p=p))
            health = mm_svc.health()
            assert health["storage"]["backend"] == "mmap"
            for shard in health["shards"]:
                assert shard["alive"] is True

    def test_all_tombstoned_shard(self, tmp_path):
        from repro.serve import ShardedSearchService

        index, data = _build(n=200, seed=46)
        # With 4 contiguous shards over 200 points, shard 0 owns [0, 50):
        # tombstone all of it so one worker scans only dead entries.
        index.remove(np.arange(50))
        path = save_index(index, tmp_path / "dead.npz")
        mapped = load_index(path)
        with ShardedSearchService(
            index, n_shards=4
        ) as shm_svc, ShardedSearchService(
            mapped, n_shards=4
        ) as mm_svc:
            for q in (data[0], data[120]):
                flat = index.knn(q, 5, p=1.0)
                assert np.all(flat.ids >= 50)
                _assert_identical(flat, shm_svc.search(q, 5, p=1.0))
                _assert_identical(flat, mm_svc.search(q, 5, p=1.0))

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_tombstones_set_after_load(self, corpus, v3_path, n_shards):
        """Workers serve the coordinator's tombstones, not the file's."""
        from repro.serve import ShardedSearchService

        _, data = corpus
        mapped = load_index(v3_path)
        queries = _queries(data)
        mapped.remove(
            np.unique(np.concatenate([mapped.knn(q, 3, p=1.0).ids for q in queries]))
        )
        with ShardedSearchService(mapped, n_shards=n_shards) as svc:
            assert svc.health()["storage"]["backend"] == "mmap"
            for q in queries:
                for p in (0.7, 1.0):
                    _assert_identical(mapped.knn(q, 5, p=p), svc.search(q, 5, p=p))


    @pytest.mark.parametrize("change", ["replaced", "removed"])
    def test_respawn_after_path_changes(self, corpus, tmp_path, change):
        """A respawned worker attaches the served index, not whatever its
        path names now: saving another index of the same shape over the
        path, or removing it, changes no answer after a worker crash."""
        from repro.serve import ShardedSearchService

        index, data = corpus
        path = save_index(index, tmp_path / "served.npz")
        mapped = load_index(path)
        with ShardedSearchService(mapped, n_shards=2) as svc:
            if change == "replaced":
                other, _ = _build(seed=45)
                assert other.num_rows == index.num_rows and other.eta == index.eta
                save_index(other, path)
            else:
                os.remove(path)
            svc._crash_worker(0)
            for q in _queries(data):
                for p in (0.7, 1.0):
                    _assert_identical(index.knn(q, 5, p=p), svc.search(q, 5, p=p))
            assert svc.restarts == 1


class TestWalIngestMmap:
    def test_mmap_fleet_tracks_wal_bit_identically(self, tmp_path):
        from repro.serve import ShardedSearchService

        writer_index, data = _build(n=240, seed=47)
        path = save_index(writer_index, tmp_path / "snap.npz")
        writer = create(writer_index, tmp_path / "home", sync=False)
        mapped = load_index(path)
        feed = WalFeed(tmp_path / "home" / WAL_SUBDIR)
        queries = [data[5], data[100]]
        try:
            with ShardedSearchService(mapped, n_shards=2) as svc:
                for q in queries:
                    _assert_identical(
                        writer.knn(q, 5, p=1.0), svc.search(q, 5, p=1.0)
                    )
                batch = np.random.default_rng(48).uniform(
                    0.0, 200.0, size=(7, data.shape[1])
                )
                writer.insert(batch)
                writer.remove([4, 100])
                assert svc.ingest(feed.poll()) == 2
                # Workers materialised on the first update; answers must
                # still match the writer exactly.
                for q in queries + [batch[0], batch[6]]:
                    _assert_identical(
                        writer.knn(q, 5, p=1.0), svc.search(q, 5, p=1.0)
                    )
        finally:
            writer.close()


class TestCheckpointRecovery:
    def test_v3_checkpoint_recovers_on_both_backends(self, tmp_path):
        index, data = _build(n=220, seed=49)
        reference, _ = _build(n=220, seed=49)
        durable = create(index, tmp_path, sync=False)
        batch = np.random.default_rng(50).uniform(
            0.0, 200.0, size=(6, data.shape[1])
        )
        durable.insert(batch)
        durable.remove([17])
        reference.insert(batch)
        reference.remove([17])
        ckpt = checkpoint_now(durable, tmp_path)
        durable.close()
        assert read_header(ckpt)["format_version"] == 3
        recovered, report = recover(tmp_path, sync=False)
        try:
            assert report["backend"] == "mmap"
            assert states_identical(
                recovered.index, reference, queries=data[:3], k=5
            )
        finally:
            recovered.close()

    def test_mmap_recovery_falls_back_on_v2_checkpoint(
        self, legacy_v2_path, tmp_path
    ):
        ckpt_dir = tmp_path / CHECKPOINT_SUBDIR
        ckpt_dir.mkdir()
        shutil.copy(legacy_v2_path, ckpt_dir / checkpoint_name(0))
        recovered, report = recover(tmp_path, sync=False)
        try:
            assert report["backend"] == "eager"
        finally:
            recovered.close()

    def test_uncompressed_checkpoint(self, tmp_path):
        index, data = _build(n=200, seed=52)
        reference, _ = _build(n=200, seed=52)
        durable = create(index, tmp_path, sync=False)
        durable.remove([5, 6])
        reference.remove([5, 6])
        checkpoint_now(durable, tmp_path)
        durable.close()
        recovered, _report = recover(tmp_path, sync=False)
        try:
            assert states_identical(
                recovered.index, reference, queries=data[:2], k=5
            )
        finally:
            recovered.close()
