"""Tests for index save/load round-trips."""

import json

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.datasets import make_synthetic
from repro.durability.checkpoint import states_identical
from repro.errors import IndexNotBuiltError, InvalidParameterError
from repro.persistence import (
    FORMAT_VERSION,
    IndexFormatError,
    load_index,
    open_v3_arrays,
    read_header,
    save_index,
)
from repro.storage import InvertedListStore


def _tampered_v2(src, dst, edit):
    """Copy the v2 archive ``src`` to ``dst``, applying ``edit`` to its header."""
    with np.load(src) as archive:
        fields = {name: archive[name] for name in archive.files}
    header = json.loads(fields["header"].tobytes().decode())
    edit(header)
    fields["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(dst, **fields)
    return dst


def _strip_to_v1(header):
    """Drop the v2 fields to simulate a pre-durability snapshot."""
    header["format_version"] = 1
    for key in ("wal_lsn", "wal_epoch", "live_count"):
        header.pop(key, None)


def _in_ram(index):
    """``index`` with its data and runs copied out of any file mapping.

    The runs are re-adopted the way a one-shard worker holds them:
    :meth:`InvertedListStore.compact_shard` over every id, then
    :meth:`InvertedListStore.from_compact`.
    """
    store = index.store
    compact, state = store.compact_shard(np.arange(store.num_points))
    index._store = InvertedListStore.from_compact(
        compact["rel"], compact["ids"], compact["row_top"], state, store.layout
    )
    index._data = np.array(index.data)
    return index


def _legacy_reference():
    """A fresh build of the index the legacy fixtures hold."""
    data = make_synthetic(100, 8, value_range=(0, 100), seed=5)
    config = LazyLSHConfig(
        c=5.0, p_min=0.7, seed=7, mc_samples=10_000, mc_buckets=60
    )
    index = LazyLSH(config).build(data)
    index.remove([3, 50])
    return index


class TestRoundTrip:
    def test_identical_query_results(self, built_index, small_split, tmp_path):
        path = save_index(built_index, tmp_path / "index.npz")
        restored = load_index(path)
        for p in (0.5, 0.8, 1.0):
            original = built_index.knn(small_split.queries[0], 10, p=p)
            loaded = restored.knn(small_split.queries[0], 10, p=p)
            np.testing.assert_array_equal(original.ids, loaded.ids)
            np.testing.assert_allclose(original.distances, loaded.distances)
            assert original.io.total == loaded.io.total

    def test_metadata_preserved(self, built_index, small_split, tmp_path):
        path = save_index(built_index, tmp_path / "index.npz")
        restored = load_index(path)
        assert restored.eta == built_index.eta
        assert restored.beta == built_index.beta
        assert restored.config == built_index.config
        assert restored.num_points == built_index.num_points
        assert restored.index_size_mb() == built_index.index_size_mb()

    def test_suffix_appended(self, built_index, tmp_path):
        path = save_index(built_index, tmp_path / "index")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_int32_domain_file_holds_only_compact_runs(self, built_index, tmp_path):
        path = save_index(built_index, tmp_path / "index.npz")
        header, arrays = open_v3_arrays(path)
        assert header["format_version"] == FORMAT_VERSION == 3
        assert arrays["rel32"].dtype == np.int32
        assert not {"values", "ids"} & arrays.keys()
        # 8 bytes per entry, plus the other sections and page padding
        # (one page for superblock and header, at most one per section).
        entries = built_index.eta * built_index.num_rows
        other = sum(
            arr.nbytes
            for name, arr in arrays.items()
            if name not in ("rel32", "ids32")
        )
        pages = (len(arrays) + 1) * 4096
        assert path.stat().st_size <= 8 * entries + other + pages

    def test_range_query_round_trip(self, built_index, small_split, tmp_path):
        path = save_index(built_index, tmp_path / "index.npz")
        restored = load_index(path)
        query = small_split.queries[1]
        a = built_index.range_query(query, 50.0, 1.0)
        b = restored.range_query(query, 50.0, 1.0)
        assert a.found == b.found
        assert a.point_id == b.point_id


class TestTombstoneRoundTrip:
    @pytest.fixture
    def mutated_index(self):
        data = make_synthetic(300, 10, value_range=(0, 200), seed=21)
        cfg = LazyLSHConfig(
            c=3.0, p_min=0.7, seed=22, mc_samples=10_000, mc_buckets=60
        )
        index = LazyLSH(cfg).build(data)
        index.remove([4, 9, 250])
        index.insert(
            np.random.default_rng(23).uniform(0, 200, size=(6, 10))
        )
        return index, data

    def test_live_set_preserved(self, mutated_index, tmp_path):
        index, _data = mutated_index
        path = save_index(index, tmp_path / "dyn.npz")
        restored = load_index(path)
        assert restored.num_points == index.num_points
        assert restored.num_rows == index.num_rows
        np.testing.assert_array_equal(restored._alive, index._alive)

    def test_header_carries_live_count(self, mutated_index, tmp_path):
        index, _data = mutated_index
        path = save_index(index, tmp_path / "dyn.npz", wal_lsn=17, wal_epoch=3)
        header = read_header(path)
        assert header["format_version"] == FORMAT_VERSION
        assert header["live_count"] == index.num_points
        assert header["wal_lsn"] == 17
        assert header["wal_epoch"] == 3

    def test_knn_identical_after_round_trip(self, mutated_index, tmp_path):
        index, data = mutated_index
        path = save_index(index, tmp_path / "dyn.npz")
        restored = load_index(path)
        for query in (data[4], data[100], np.full(10, 50.0)):
            a = index.knn(query, 5, p=1.0)
            b = restored.knn(query, 5, p=1.0)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert 4 not in b.ids and 9 not in b.ids

    def test_corrupt_live_count_rejected(self, legacy_v2_path, tmp_path):
        path = _tampered_v2(
            legacy_v2_path,
            tmp_path / "dyn.npz",
            lambda header: header.update(live_count=header["live_count"] + 1),
        )
        with pytest.raises(IndexFormatError, match="live rows"):
            load_index(path)


class TestErrors:
    def test_unbuilt_index_rejected(self, small_config, tmp_path):
        with pytest.raises(IndexNotBuiltError):
            save_index(LazyLSH(small_config), tmp_path / "x.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_index(tmp_path / "nope.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_tampered_header_rejected(self, legacy_v2_path, tmp_path):
        path = _tampered_v2(
            legacy_v2_path,
            tmp_path / "index.npz",
            lambda header: header.update(format_version=999),
        )
        with pytest.raises(
            IndexFormatError,
            match=r"uses format version 999; this library reads versions",
        ):
            load_index(path)

    def test_version_1_headers_still_load(self, legacy_v2_path, tmp_path):
        path = _tampered_v2(legacy_v2_path, tmp_path / "index.npz", _strip_to_v1)
        restored = load_index(path)
        assert restored.num_points == read_header(legacy_v2_path)["live_count"]
        assert read_header(path)["wal_lsn"] == 0


class TestLegacyFiles:
    """Files from retired writers load and answer bit-identically.

    ``legacy_v2.npz`` (the v2 ``.npz`` writer) and ``legacy_v3.npz`` (a
    v3 file carrying int64 ``values``/``ids`` runs beside the compact
    ones) were saved from :func:`_legacy_reference`'s index at commit
    0021820; the v1-header archive is derived from the v2 one.
    """

    @pytest.fixture(scope="class")
    def reference(self):
        return _legacy_reference()

    @pytest.mark.parametrize("kind", ["eager", "mmap"])
    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_loads_bit_identically(
        self, reference, legacy_v2_path, legacy_v3_path, tmp_path, version, kind
    ):
        """``kind`` is where the opened index's runs live: mapped from
        the file as ``load_index`` leaves them, or copied into RAM."""
        if version == "v1":
            path = _tampered_v2(legacy_v2_path, tmp_path / "v1.npz", _strip_to_v1)
        else:
            path = legacy_v2_path if version == "v2" else legacy_v3_path
        loaded = load_index(path)
        if kind == "eager":
            loaded = _in_ram(loaded)
        # v1/v2 files hold no runs: they load into RAM by re-hashing.
        expected = kind if version == "v3" else "eager"
        assert loaded.storage_info()["backend"] == expected
        assert states_identical(loaded, reference)
        for query in (reference.data[0], reference.data[77] + 1.0, np.full(8, 50.0)):
            for p in (0.7, 1.0):
                a = reference.knn(query, 5, p=p)
                b = loaded.knn(query, 5, p=p)
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.distances, b.distances)
                assert (a.io.sequential, a.io.random) == (b.io.sequential, b.io.random)
                assert (a.rounds, a.termination) == (b.rounds, b.termination)
