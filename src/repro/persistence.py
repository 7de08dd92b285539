"""Saving and loading built LazyLSH indexes.

An index is fully determined by its configuration, the indexed data and
the materialised hash bank (projection vectors + offsets).
:func:`save_index` writes one format, v3: those inputs plus the store's
*sorted runs and search keys* as page-aligned sections behind a fixed
superblock, so :func:`load_index` memory-maps the runs instead of
re-hashing the data — an O(1) open, and the OS page cache becomes the
buffer pool the paper's 4 KB page accounting simulates (Sec. 5.2).

Format history
--------------

* **version 1** — ``.npz`` archive: header (config, rehashing, eta,
  beta) + ``data``, ``alive``, ``projections``, ``offsets``.
* **version 2** — adds durability metadata to the v1 header:
  ``wal_lsn`` (the write-ahead-log sequence number the snapshot covers),
  ``wal_epoch`` (the serving fleet's update-epoch counter at checkpoint
  time) and ``live_count`` (non-tombstoned rows, cross-checked against
  ``alive`` on load).  v1 files load with their WAL fields zeroed.
* **version 3** — raw binary layout (no zip container): a 48-byte
  superblock (magic ``LZLSHIX3``, version, section count, wal_lsn/epoch,
  JSON header locator), a section table, the JSON header, then the
  arrays as 4096-byte-aligned sections — ``data``, ``alive``,
  ``projections``, ``offsets`` and the store's compact runs (``ids32``,
  ``rel32``, ``row_top``; 8 bytes per entry).  A hash domain too wide
  for int32 runs stores int64 ``values``/``ids`` runs instead, and older
  v3 files may carry both run sets; the loader reads either.

v1/v2 files still load, into RAM, by re-hashing the data;
``save_index(load_index(old), new)`` upgrades one.  The writer is
atomic (tmp file + ``os.replace``), so a reader never observes a
partially written index, and a mapping keeps the file it opened alive
even after a newer save replaces or a prune removes its path.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.config import LazyLSHConfig
from repro.core.hashing import StableHashBank
from repro.core.lazylsh import LazyLSH
from repro.core.params import ParameterEngine
from repro.errors import IndexNotBuiltError, InvalidParameterError, ReproError
from repro.storage.inverted_index import _TOP_STRIDE, InvertedListStore, SearchState
from repro.storage.pages import PageLayout

#: The layout :func:`save_index` writes.
FORMAT_VERSION = 3

#: Versions :func:`load_index` knows how to read.
SUPPORTED_FORMAT_VERSIONS = frozenset({1, 2, 3})

#: v3 superblock: magic, version, section count, wal_lsn, wal_epoch,
#: JSON header offset, JSON header length.
_V3_MAGIC = b"LZLSHIX3"
_V3_SUPERBLOCK = struct.Struct("<8sIIQQQQ")

#: v3 section-table entry: name (NUL-padded), numpy dtype string, ndim,
#: padding, shape[0], shape[1], byte offset, byte length.
_V3_SECTION = struct.Struct("<16s8sIIQQQQ")

#: Section payloads start on 4096-byte boundaries so ``np.memmap`` views
#: are page-aligned and a run's simulated pages line up with real pages.
_V3_ALIGN = 4096

#: The compact run sections a v3 store opens from when a file has them.
_V3_COMPACT = ("rel32", "ids32", "row_top")


class IndexFormatError(ReproError):
    """The file is not a LazyLSH index or uses an incompatible format."""


@dataclass(frozen=True)
class _Section:
    """One parsed v3 section-table entry."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    offset: int
    nbytes: int


def save_index(
    index: LazyLSH, path: str | Path, *, wal_lsn: int = 0, wal_epoch: int = 0
) -> Path:
    """Serialise a built index to ``path`` (``.npz`` appended if absent).

    Writes the format-v3 layout atomically (tmp file + rename).
    ``wal_lsn``/``wal_epoch`` stamp the snapshot with the write-ahead-log
    position it covers (zero for a plain manual save); recovery replays
    only records newer than ``wal_lsn``.  Returns the path written.
    """
    if not index.is_built:
        raise IndexNotBuiltError("cannot save an index that was never built")
    if wal_lsn < 0 or wal_epoch < 0:
        raise InvalidParameterError(
            f"wal_lsn/wal_epoch must be >= 0, got {wal_lsn}/{wal_epoch}"
        )
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    store = index._store
    bank = index._bank
    assert store is not None and bank is not None
    compact = store._rel.dtype == np.int32
    header = {
        "format_version": FORMAT_VERSION,
        "library": "repro-lazylsh",
        "config": asdict(index.config),
        "rehashing": index.rehashing,
        "eta": index.eta,
        "beta": index.beta,
        "wal_lsn": int(wal_lsn),
        "wal_epoch": int(wal_epoch),
        "live_count": int(index._alive.sum()),
        "v3": {
            "vmin": int(store._vmin),
            "stride": int(store._stride),
            # Wide-domain files record no coarse keys.
            "top_per_row": int(store._top_per_row) if compact else 0,
            "top_stride": int(_TOP_STRIDE),
        },
    }
    header_bytes = json.dumps(header).encode("utf-8")
    sections = [
        ("data", np.ascontiguousarray(index.data)),
        ("alive", np.ascontiguousarray(index._alive.astype(bool))),
        ("projections", np.ascontiguousarray(bank._projections)),
        ("offsets", np.ascontiguousarray(bank._offsets)),
    ]
    if compact:
        sections += [
            ("ids32", store._ids),
            ("rel32", store._rel),
            ("row_top", store._row_top),
        ]
    else:
        sections += list(zip(("values", "ids"), store.runs()))
    table_size = len(sections) * _V3_SECTION.size
    json_offset = _V3_SUPERBLOCK.size + table_size
    cursor = json_offset + len(header_bytes)
    placed: list[tuple[str, np.ndarray, int]] = []
    for name, arr in sections:
        offset = -(-cursor // _V3_ALIGN) * _V3_ALIGN
        placed.append((name, arr, offset))
        cursor = offset + arr.nbytes
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(
            _V3_SUPERBLOCK.pack(
                _V3_MAGIC,
                FORMAT_VERSION,
                len(sections),
                int(wal_lsn),
                int(wal_epoch),
                json_offset,
                len(header_bytes),
            )
        )
        for name, arr, offset in placed:
            shape = arr.shape if arr.ndim == 2 else (arr.shape[0], 0)
            fh.write(
                _V3_SECTION.pack(
                    name.encode("ascii"),
                    arr.dtype.str.encode("ascii"),
                    arr.ndim,
                    0,
                    shape[0],
                    shape[1],
                    offset,
                    arr.nbytes,
                )
            )
        fh.write(header_bytes)
        for _name, arr, offset in placed:
            fh.write(b"\0" * (offset - fh.tell()))
            arr.tofile(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def _is_v3(path: Path) -> bool:
    """Sniff the v3 magic — format detection never trusts the suffix."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_V3_MAGIC)) == _V3_MAGIC
    except OSError:  # pragma: no cover - racing deletion
        return False


def _read_v3_layout(path: Path) -> tuple[dict, dict[str, _Section]]:
    """Parse a v3 file's superblock, section table and JSON header."""
    file_size = path.stat().st_size
    with open(path, "rb") as fh:
        raw = fh.read(_V3_SUPERBLOCK.size)
        if len(raw) < _V3_SUPERBLOCK.size:
            raise IndexFormatError(f"{path} is truncated: superblock missing")
        (
            magic,
            _version,
            n_sections,
            _wal_lsn,
            _wal_epoch,
            json_offset,
            json_len,
        ) = _V3_SUPERBLOCK.unpack(raw)
        if magic != _V3_MAGIC:  # pragma: no cover - callers sniff first
            raise IndexFormatError(f"{path} is not a v3 LazyLSH index")
        table = fh.read(n_sections * _V3_SECTION.size)
        if len(table) < n_sections * _V3_SECTION.size:
            raise IndexFormatError(f"{path} is truncated: section table missing")
        fh.seek(json_offset)
        header_bytes = fh.read(json_len)
        if len(header_bytes) < json_len:
            raise IndexFormatError(f"{path} is truncated: header missing")
    sections: dict[str, _Section] = {}
    for i in range(n_sections):
        name_raw, dtype_raw, ndim, _pad, shape0, shape1, offset, nbytes = (
            _V3_SECTION.unpack_from(table, i * _V3_SECTION.size)
        )
        name = name_raw.rstrip(b"\0").decode("ascii")
        try:
            dtype = np.dtype(dtype_raw.rstrip(b"\0").decode("ascii"))
        except TypeError as exc:
            raise IndexFormatError(
                f"{path} section {name!r} has a corrupt dtype: {exc}"
            ) from exc
        shape = (shape0,) if ndim == 1 else (shape0, shape1)
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if expected != nbytes or offset + nbytes > file_size:
            raise IndexFormatError(
                f"{path} is truncated or corrupt: section {name!r} claims "
                f"[{offset}, {offset + nbytes}) of a {file_size}-byte file"
            )
        sections[name] = _Section(name, dtype, shape, offset, nbytes)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"{path} has a corrupt header: {exc}") from exc
    return header, sections


def _validate_header(path: Path, header: dict) -> None:
    if header.get("library") != "repro-lazylsh":
        raise IndexFormatError(f"{path} was not written by save_index")
    version = header.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        supported = sorted(SUPPORTED_FORMAT_VERSIONS)
        raise IndexFormatError(
            f"{path} uses format version {version}; this library reads "
            f"versions {supported}"
        )


def read_header(path: str | Path) -> dict:
    """Parse and validate the JSON header of a saved index.

    Cheap relative to a full :func:`load_index` (the arrays are not
    decompressed or mapped beyond the header); used by checkpoint recovery
    to rank candidate snapshots by their ``wal_lsn`` before loading one.
    Works on every supported format — v3 files are sniffed by magic.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidParameterError(f"no such index file: {path}")
    if _is_v3(path):
        header, _sections = _read_v3_layout(path)
        _validate_header(path, header)
        header.setdefault("wal_lsn", 0)
        header.setdefault("wal_epoch", 0)
        return header
    try:
        with np.load(path, allow_pickle=False) as archive:
            try:
                header_bytes = archive["header"].tobytes()
            except KeyError as exc:
                raise IndexFormatError(
                    f"{path} is missing field {exc}; not a LazyLSH index file"
                ) from exc
    except (OSError, ValueError) as exc:
        raise IndexFormatError(f"{path} is not a readable .npz file: {exc}") from exc
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexFormatError(f"{path} has a corrupt header: {exc}") from exc
    _validate_header(path, header)
    # Version-1 files predate the durability metadata.
    header.setdefault("wal_lsn", 0)
    header.setdefault("wal_epoch", 0)
    return header


def _assemble_index(
    path: Path,
    header: dict,
    data: np.ndarray,
    alive: np.ndarray,
    projections: np.ndarray,
    offsets: np.ndarray,
) -> tuple[LazyLSH, PageLayout]:
    """Rebuild everything but the store from validated header + arrays."""
    config = LazyLSHConfig(**header["config"])
    index = LazyLSH(config, rehashing=header["rehashing"])
    n, d = data.shape
    eta = int(header["eta"])
    if projections.shape != (d, eta) or offsets.shape != (eta,):
        raise IndexFormatError(
            f"{path} has inconsistent bank shapes "
            f"{projections.shape}/{offsets.shape} for d={d}, eta={eta}"
        )
    if alive.shape != (n,):
        raise IndexFormatError(
            f"{path} has an alive mask of shape {alive.shape} for n={n} rows"
        )
    stored_live = header.get("live_count")
    if stored_live is not None and int(stored_live) != int(alive.sum()):
        raise IndexFormatError(
            f"{path} header claims {stored_live} live rows but the alive "
            f"mask holds {int(alive.sum())}; the file is corrupt"
        )
    # Reconstruct the internals without re-drawing randomness.
    index._beta = float(header["beta"])
    index._engine = ParameterEngine(
        d,
        c=config.c,
        epsilon=config.epsilon,
        beta=index._beta,
        r0=config.r0,
        base_p=config.base_p,
        mc_samples=config.mc_samples,
        mc_buckets=config.mc_buckets,
        seed=config.seed,
    )
    index._eta = eta
    bank = StableHashBank.__new__(StableHashBank)
    bank.d = d
    bank.eta = eta
    bank.r0 = config.r0
    bank.c = config.c
    bank.base_p = config.base_p
    bank._projections = projections
    bank._offsets = offsets
    bank.offset_upper = float(offsets.max()) if eta else 0.0
    index._bank = bank
    layout = PageLayout(page_size=config.page_size, entry_size=config.entry_size)
    return index, layout


def open_v3_arrays(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Memory-map every section of a v3 file without restoring a :class:`LazyLSH`.

    No ``ParameterEngine``, no hash bank — just the validated header and
    read-only ``np.memmap`` views of the sections by name.  The kernel
    maps the file and faults pages in on first touch, so this is O(1) in
    index size.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidParameterError(f"no such index file: {path}")
    if not _is_v3(path):
        raise IndexFormatError(
            f"{path} is not a format-version-3 index; only v3 files can be "
            "memory-mapped"
        )
    header, sections = _read_v3_layout(path)
    _validate_header(path, header)
    arrays = {
        name: np.memmap(
            str(path), dtype=s.dtype, mode="r", offset=s.offset, shape=s.shape
        )
        for name, s in sections.items()
    }
    return header, arrays


def _load_v3(path: Path) -> LazyLSH:
    """A v3 file's index over memory-mapped sections.

    Data, projections, offsets and compact runs stay ``np.memmap`` views
    of the file; the tombstone mask, which ``remove`` mutates in place,
    is a RAM copy.  A file without compact runs (a hash domain too wide
    for int32) compacts its int64 ``values``/``ids`` runs in RAM.
    """
    header, arrays = open_v3_arrays(path)
    compact = "v3" in header and all(n in arrays for n in _V3_COMPACT)
    runs = _V3_COMPACT if compact else ("values", "ids")
    for name in ("data", "alive", "projections", "offsets") + runs:
        if name not in arrays:
            raise IndexFormatError(
                f"{path} is missing field {name!r}; not a LazyLSH index file"
            )
    data = arrays["data"]
    alive = np.array(arrays["alive"], dtype=bool)
    index, layout = _assemble_index(
        path, header, data, alive, arrays["projections"], arrays["offsets"]
    )
    if compact:
        shape = (int(header["eta"]), int(data.shape[0]))
        state = header["v3"]
        index._store = InvertedListStore.from_compact(
            arrays["rel32"].reshape(shape),
            arrays["ids32"].reshape(shape),
            arrays["row_top"],
            SearchState(
                vmin=int(state["vmin"]),
                stride=int(state["stride"]),
                top_per_row=int(state["top_per_row"]),
            ),
            layout,
        )
    else:
        index._store = InvertedListStore.from_runs(
            arrays["values"], arrays["ids"], layout
        )
    index._data = data
    index._alive = alive
    return index


def load_index(path: str | Path) -> LazyLSH:
    """Restore an index saved by :func:`save_index`.

    The restored index answers queries identically to the original: the
    hash bank's random projections are loaded, not re-drawn, and the
    tombstone (``alive``) mask is restored bit for bit.

    A format-v3 file is memory-mapped (:func:`open_v3_arrays`): opening
    costs O(1) in index size and pages fault in as queries touch them.
    The first ``insert`` copies what it touches into RAM.  v1/v2 files
    hold no runs, so they load by re-hashing the data.
    """
    path = Path(path)
    if _is_v3(path):
        return _load_v3(path)
    header = read_header(path)
    with np.load(path, allow_pickle=False) as archive:
        try:
            data = archive["data"]
            alive = archive["alive"]
            projections = archive["projections"]
            offsets = archive["offsets"]
        except KeyError as exc:
            raise IndexFormatError(
                f"{path} is missing field {exc}; not a LazyLSH index file"
            ) from exc
    alive = alive.astype(bool)
    index, layout = _assemble_index(
        path, header, data, alive, projections, offsets
    )
    bank = index._bank
    assert bank is not None
    index._store = InvertedListStore(bank.hash_points(data), layout)
    index._data = np.ascontiguousarray(data)
    index._alive = alive
    return index
