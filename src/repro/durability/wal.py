"""Write-ahead log: segmented, CRC-framed durability for index updates.

The WAL makes ``insert``/``remove`` mutations survive crashes.  Every
update is appended — and optionally fsynced — *before* it is applied to
the in-memory :class:`~repro.core.lazylsh.LazyLSH`, so the on-disk log
is always at least as new as the served index, and recovery can rebuild
the exact live set by replaying the log over the last checkpoint
(:mod:`repro.durability.checkpoint`).

On-disk format (DESIGN §11)
---------------------------

A log is a directory of fixed-prefix segment files::

    wal/segment-00000000000000000001.wal
    wal/segment-00000000000000000431.wal      # first LSN in the file

Each segment holds a stream of self-delimiting records::

    record := crc32(u32 LE) | body_len(u32 LE) | body
    body   := lsn(u64 LE) | op(u8) | payload

``crc32`` covers the whole body, so a torn write (power loss mid
``write``) is detected on open.  ``lsn`` is a monotonically increasing
log sequence number starting at 1 with *no gaps*; a record whose LSN is
not ``previous + 1`` is treated as corruption.  Ops:

=====  ========  ====================================================
``1``  insert    ``n(u32) d(u32) ids(n x i64) points(n*d x f64)``
``2``  remove    ``n(u32) ids(n x i64)``
=====  ========  ====================================================

Torn-tail rule: a short or CRC-failing frame at the end of the *last*
segment is the expected signature of a crash mid-append — the tail is
truncated on open and logging resumes from the last good record.  The
same damage in any earlier segment means acknowledged history was lost
(bit rot, manual truncation) and raises :class:`WalCorruptionError`
instead of being silently dropped.

``fsync`` policy: with ``sync=True`` (default) every commit fsyncs the
segment file before returning, so an acknowledged LSN survives SIGKILL
and power loss.  ``sync=False`` trades that guarantee for throughput —
the OS flushes on its own schedule — which is exactly the ingest
throughput ablation ``benchmarks/bench_wal.py`` measures.
"""

from __future__ import annotations

import logging
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.errors import InvalidParameterError, ReproError
from repro.obs.registry import MetricsRegistry

logger = logging.getLogger("repro.durability.wal")

#: Operation codes stored in record bodies.
OP_INSERT = 1
OP_REMOVE = 2

_OP_NAMES = {OP_INSERT: "insert", OP_REMOVE: "remove"}

#: ``crc32 | body_len`` frame header.
_FRAME = struct.Struct("<II")
#: ``lsn | op`` body header.
_BODY = struct.Struct("<QB")

#: Default segment rotation threshold (bytes).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".wal"

#: fsync-latency buckets (seconds): SSD sub-ms to pathological seconds.
_FSYNC_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 1.0,
)


class WalCorruptionError(ReproError):
    """Acknowledged WAL history is unreadable (non-tail corruption)."""

    code = "wal_corruption"


class WalTruncatedError(ReproError):
    """The log no longer reaches back to the requested position.

    Raised by :meth:`~repro.durability.feed.WalFeed.poll` when a
    checkpoint pruned segments past the feed's resume point: the records
    between ``last_lsn`` and the oldest surviving segment are gone, so
    tailing cannot continue.  A replication consumer must re-bootstrap
    from a checkpoint at or above :attr:`first_available` instead of
    waiting for records that will never appear.
    """

    code = "wal_truncated"

    def __init__(self, requested: int, first_available: int) -> None:
        self.requested = int(requested)
        self.first_available = int(first_available)
        super().__init__(
            f"WAL truncated: records from LSN {self.requested} were "
            f"pruned by a checkpoint; the log now starts at LSN "
            f"{self.first_available} — re-bootstrap from a checkpoint"
        )

    def __reduce__(self):
        return (WalTruncatedError, (self.requested, self.first_available))


@dataclass(frozen=True)
class WalRecord:
    """One durably logged update.

    ``op`` is ``"insert"`` or ``"remove"``; ``points`` is the ``(n, d)``
    float64 matrix of an insert (``None`` for removes); ``ids`` the
    affected point ids.
    """

    lsn: int
    op: str
    ids: np.ndarray
    points: np.ndarray | None = None


def segment_name(first_lsn: int) -> str:
    """File name of the segment whose first record has ``first_lsn``."""
    return f"{_SEGMENT_PREFIX}{first_lsn:020d}{_SEGMENT_SUFFIX}"


def _segment_first_lsn(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_segments(directory: Path) -> list[tuple[int, Path]]:
    """``(first_lsn, path)`` of every segment file, ascending by LSN."""
    found = []
    for path in Path(directory).iterdir():
        first = _segment_first_lsn(path)
        if first is not None:
            found.append((first, path))
    found.sort()
    return found


def encode_record(lsn: int, op: int, payload: bytes) -> bytes:
    """Frame one record: CRC + length header over the body bytes."""
    body = _BODY.pack(lsn, op) + payload
    return _FRAME.pack(zlib.crc32(body) & 0xFFFFFFFF, len(body)) + body


def encode_wal_record(record: WalRecord) -> bytes:
    """One decoded :class:`WalRecord` back to its CRC-framed bytes.

    The output is byte-identical to the frame the writer appended, so a
    replication transport can ship frames verbatim and the follower can
    verify the same CRC the durable log did.
    """
    if record.op == "insert":
        assert record.points is not None
        payload = _encode_insert(
            np.asarray(record.points), np.asarray(record.ids)
        )
        return encode_record(int(record.lsn), OP_INSERT, payload)
    if record.op == "remove":
        payload = _encode_remove(np.asarray(record.ids))
        return encode_record(int(record.lsn), OP_REMOVE, payload)
    raise InvalidParameterError(f"unknown WAL op {record.op!r}")


def _parse_frame(data: bytes, offset: int) -> tuple[WalRecord, int]:
    """The one frame parser: the record framed at ``offset`` in ``data``
    and the offset where its frame ends.

    Raises :class:`WalCorruptionError` on a frame too short for its
    headers, a body running past the end of ``data``, a CRC mismatch or
    an undecodable body.
    """
    if offset + _FRAME.size + _BODY.size > len(data):
        raise WalCorruptionError(
            f"WAL frame too short: {len(data) - offset} bytes"
        )
    crc, body_len = _FRAME.unpack_from(data, offset)
    body_end = offset + _FRAME.size + body_len
    if body_end > len(data):
        raise WalCorruptionError(
            f"WAL frame length mismatch: header says {body_len} body "
            f"bytes, frame carries {len(data) - offset - _FRAME.size}"
        )
    body = data[offset + _FRAME.size:body_end]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise WalCorruptionError("WAL frame CRC mismatch")
    try:
        return _decode_body(body), body_end
    except (ValueError, struct.error) as exc:
        raise WalCorruptionError(f"undecodable WAL body: {exc}") from exc


def decode_wal_record(frame: bytes) -> WalRecord:
    """Decode one CRC-framed record (the inverse of
    :func:`encode_wal_record`).

    Raises :class:`WalCorruptionError` on a short frame, trailing bytes,
    a CRC mismatch or an undecodable body — a wire consumer has no
    "torn tail" excuse, so every defect is fatal for the frame.
    """
    record, end = _parse_frame(frame, 0)
    if end != len(frame):
        raise WalCorruptionError(
            f"WAL frame length mismatch: header says {end - _FRAME.size} "
            f"body bytes, frame carries {len(frame) - _FRAME.size}"
        )
    return record


def _encode_insert(points: np.ndarray, ids: np.ndarray) -> bytes:
    n, d = points.shape
    return (
        struct.pack("<II", n, d)
        + np.ascontiguousarray(ids, dtype="<i8").tobytes()
        + np.ascontiguousarray(points, dtype="<f8").tobytes()
    )


def _encode_remove(ids: np.ndarray) -> bytes:
    return (
        struct.pack("<I", ids.shape[0])
        + np.ascontiguousarray(ids, dtype="<i8").tobytes()
    )


def _decode_body(body: bytes) -> WalRecord:
    lsn, op = _BODY.unpack_from(body)
    payload = body[_BODY.size:]
    if op == OP_INSERT:
        n, d = struct.unpack_from("<II", payload)
        off = 8
        ids = np.frombuffer(payload, dtype="<i8", count=n, offset=off)
        off += 8 * n
        points = np.frombuffer(
            payload, dtype="<f8", count=n * d, offset=off
        ).reshape(n, d)
        if off + 8 * n * d != len(payload):
            raise ValueError("insert payload length mismatch")
        return WalRecord(lsn=lsn, op="insert", ids=ids.copy(), points=points.copy())
    if op == OP_REMOVE:
        (n,) = struct.unpack_from("<I", payload)
        ids = np.frombuffer(payload, dtype="<i8", count=n, offset=4)
        if 4 + 8 * n != len(payload):
            raise ValueError("remove payload length mismatch")
        return WalRecord(lsn=lsn, op="remove", ids=ids.copy())
    raise ValueError(f"unknown WAL op code {op}")


def iter_segment_records(path: Path, start: int = 0) -> Iterator[tuple[WalRecord, int]]:
    """Yield ``(record, end_offset)`` for each intact frame in ``path``.

    Reads only the bytes from ``start`` on, which must be a frame
    boundary (0, or an ``end_offset`` yielded before); offsets stay
    absolute.  Stops silently at the first torn or corrupt frame —
    callers decide whether that position is an acceptable tail (last
    segment) or fatal corruption (earlier segments, via
    :func:`read_segment`).
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read()
    offset = 0
    while True:
        try:
            record, offset = _parse_frame(data, offset)
        except WalCorruptionError:
            return
        yield record, start + offset


def read_segment(path: Path) -> tuple[list[WalRecord], int]:
    """All intact records of one segment plus the clean-end offset."""
    records: list[WalRecord] = []
    end = 0
    for record, offset in iter_segment_records(path):
        records.append(record)
        end = offset
    return records, end


class _WalMetrics:
    """The WAL's ``lazylsh_wal_*`` instruments in its registry."""

    def __init__(self, registry) -> None:
        self.records = registry.counter(
            "lazylsh_wal_records_total", "WAL records committed, by op"
        )
        self.bytes = registry.counter(
            "lazylsh_wal_bytes_total", "WAL bytes appended"
        )
        self.last_lsn = registry.gauge(
            "lazylsh_wal_last_lsn", "Highest committed log sequence number"
        )
        self.fsync = registry.histogram(
            "lazylsh_wal_fsync_seconds",
            "fsync latency of WAL commits",
            buckets=_FSYNC_BUCKETS,
        )
        self.truncated = registry.counter(
            "lazylsh_wal_torn_tail_bytes_total",
            "Bytes dropped by torn-tail truncation on open",
        )


class WriteAheadLog:
    """Append-only segmented log of insert/remove records.

    Parameters
    ----------
    directory:
        Log directory (created if missing).  One log per directory.
    segment_bytes:
        Rotation threshold; a segment holding at least one record rolls
        over once appending would exceed this size.
    sync:
        fsync every commit (durability) vs. leave flushing to the OS
        (throughput).  See the module docstring.
    registry:
        :class:`~repro.obs.registry.MetricsRegistry` the log publishes
        its ``lazylsh_wal_*`` instruments in (commit counts/bytes,
        fsync latency, the last LSN); a private one when omitted.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: bool = True,
        registry=None,
    ) -> None:
        if segment_bytes < 64:
            raise InvalidParameterError(
                f"segment_bytes must be >= 64, got {segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.sync = bool(sync)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = _WalMetrics(self.registry)
        self._file = None
        self._file_size = 0
        self.last_lsn = 0
        self.torn_bytes_dropped = 0
        self._open_existing()

    # ------------------------------------------------------------------
    # Open / recovery scan
    # ------------------------------------------------------------------

    def _open_existing(self) -> None:
        """Scan segments, verify LSN continuity, truncate a torn tail.

        The log need not start at LSN 1 — checkpointing prunes whole
        leading segments (:meth:`truncate_through`) — but the segments
        that remain must be gap-free.
        """
        segments = list_segments(self.directory)
        self.first_lsn = segments[0][0] if segments else 1
        expected = self.first_lsn
        for idx, (first, path) in enumerate(segments):
            if first != expected:
                raise WalCorruptionError(
                    f"WAL segment {path.name} starts at LSN {first}, "
                    f"expected {expected}: a segment is missing"
                )
            records, end = read_segment(path)
            size = path.stat().st_size
            last_segment = idx == len(segments) - 1
            if end < size:
                if not last_segment:
                    raise WalCorruptionError(
                        f"WAL segment {path.name} is corrupt at offset {end} "
                        "but is not the tail segment; acknowledged history "
                        "was lost"
                    )
                dropped = size - end
                logger.warning(
                    "truncating torn tail of WAL segment %s: dropping "
                    "%d byte(s) after offset %d",
                    path.name, dropped, end,
                )
                with open(path, "r+b") as fh:
                    fh.truncate(end)
                    fh.flush()
                    os.fsync(fh.fileno())
                self.torn_bytes_dropped += dropped
                self._metrics.truncated.inc(dropped)
            for record in records:
                if record.lsn != expected:
                    raise WalCorruptionError(
                        f"WAL segment {path.name} holds LSN {record.lsn} "
                        f"where {expected} was expected"
                    )
                expected += 1
        self.last_lsn = expected - 1
        if segments:
            logger.info(
                "opened WAL: %d segment(s), LSN range [%d, %d]",
                len(segments), self.first_lsn, self.last_lsn,
            )
        self._metrics.last_lsn.set(self.last_lsn)
        if segments:
            tail = segments[-1][1]
            self._file = open(tail, "ab")
            self._file_size = tail.stat().st_size

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------

    def _rotate(self, first_lsn: int) -> None:
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
        path = self.directory / segment_name(first_lsn)
        logger.debug("rotating WAL to segment %s", path.name)
        self._file = open(path, "ab")
        self._file_size = 0
        if self.sync:
            # Make the new directory entry itself durable.
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def _commit(self, op: int, payload: bytes) -> int:
        if self._file is None or (
            self._file_size > 0
            and self._file_size + _FRAME.size + _BODY.size + len(payload)
            > self.segment_bytes
        ):
            self._rotate(self.last_lsn + 1)
        assert self._file is not None
        lsn = self.last_lsn + 1
        frame = encode_record(lsn, op, payload)
        self._file.write(frame)
        self._file.flush()
        if self.sync:
            t0 = time.perf_counter()
            os.fsync(self._file.fileno())
            self._metrics.fsync.observe(time.perf_counter() - t0)
        self._file_size += len(frame)
        self.last_lsn = lsn
        self._metrics.records.inc(op=_OP_NAMES[op])
        self._metrics.bytes.inc(len(frame))
        self._metrics.last_lsn.set(lsn)
        return lsn

    def append_insert(self, points: np.ndarray, ids: np.ndarray) -> int:
        """Durably log an insert of ``points`` under ``ids``; returns the LSN."""
        points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        ids = np.ascontiguousarray(np.atleast_1d(ids), dtype=np.int64)
        if points.ndim != 2 or ids.shape != (points.shape[0],):
            raise InvalidParameterError(
                f"insert record needs (n, d) points and n ids, got "
                f"{points.shape} / {ids.shape}"
            )
        return self._commit(OP_INSERT, _encode_insert(points, ids))

    def append_remove(self, ids: np.ndarray) -> int:
        """Durably log a removal of ``ids``; returns the LSN."""
        ids = np.ascontiguousarray(np.atleast_1d(ids), dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise InvalidParameterError(
                f"remove record needs a non-empty 1-D id array, got shape "
                f"{ids.shape}"
            )
        return self._commit(OP_REMOVE, _encode_remove(ids))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def replay(self, start_lsn: int = 0) -> Iterator[WalRecord]:
        """Yield every committed record with ``lsn > start_lsn`` in order."""
        segments = list_segments(self.directory)
        for idx, (first, path) in enumerate(segments):
            # Skip segments wholly below start_lsn: the next segment's
            # first LSN bounds this one's last record.
            if idx + 1 < len(segments) and segments[idx + 1][0] <= start_lsn + 1:
                continue
            for record, _offset in iter_segment_records(path):
                if record.lsn > start_lsn:
                    yield record

    def truncate_through(self, lsn: int) -> int:
        """Delete whole segments made obsolete by a checkpoint at ``lsn``.

        A segment can be dropped when every record it holds has
        ``lsn <= lsn`` — i.e. the *next* segment starts at or below
        ``lsn + 1``.  The active tail segment is never deleted.  Returns
        the number of segments removed.
        """
        segments = list_segments(self.directory)
        removed = 0
        for idx, (first, path) in enumerate(segments):
            is_tail = idx == len(segments) - 1
            if is_tail:
                break
            next_first = segments[idx + 1][0]
            if next_first <= lsn + 1:
                path.unlink()
                removed += 1
        return removed

    def close(self) -> None:
        """Flush, fsync and close the active segment (idempotent)."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class DurableIndex:
    """A :class:`LazyLSH` whose mutations are journaled before applying.

    The write path is strict WAL discipline: validate the mutation
    read-only, append it to the log (fsync per the log's policy), then
    apply it to the in-memory index.  A crash between commit and apply
    is repaired by recovery replay; a validation failure leaves both the
    log and the index untouched.

    Query methods (``knn``, ``range_query``, ...) are delegated to the
    wrapped index unchanged.  Snapshot it with
    :func:`~repro.durability.checkpoint.checkpoint_now`.

    Listeners registered with :meth:`subscribe` are called with each
    committed :class:`WalRecord` *after* it is applied — this is how a
    same-process :class:`~repro.serve.ShardedSearchService` receives
    live updates without tailing the log through the filesystem.
    """

    def __init__(self, index, wal: WriteAheadLog) -> None:
        if not getattr(index, "is_built", False):
            raise InvalidParameterError(
                "DurableIndex wraps a built LazyLSH; call build(data) first"
            )
        self.index = index
        self.wal = wal
        self._listeners: list[Callable[[WalRecord], None]] = []

    # -- mutation (journal-then-apply) ---------------------------------

    def insert(self, points: np.ndarray) -> np.ndarray:
        """Journal then apply an insert; returns the new ids."""
        points = self.index._validate_insert(points)
        start = self.index.num_rows
        ids = np.arange(start, start + points.shape[0], dtype=np.int64)
        lsn = self.wal.append_insert(points, ids)
        self._apply(WalRecord(lsn=lsn, op="insert", ids=ids, points=points))
        return ids

    def remove(self, point_ids) -> None:
        """Journal then apply a removal (validated read-only first)."""
        ids = self.index._validate_remove(point_ids)
        if ids.size == 0:
            return
        self._apply(WalRecord(lsn=self.wal.append_remove(ids), op="remove", ids=ids))

    def _apply(self, record: WalRecord) -> None:
        """Apply one committed record as recovery would, then notify."""
        apply_record(self.index, record)
        for listener in self._listeners:
            listener(record)

    def subscribe(self, listener: Callable[[WalRecord], None]) -> None:
        """Register a callback invoked after every committed record."""
        self._listeners.append(listener)

    # -- delegation -----------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the newest committed record."""
        return self.wal.last_lsn

    @property
    def is_built(self) -> bool:
        return self.index.is_built

    @property
    def num_points(self) -> int:
        return self.index.num_points

    @property
    def num_rows(self) -> int:
        return self.index.num_rows

    def knn(self, *args, **kwargs):
        return self.index.knn(*args, **kwargs)

    def range_query(self, *args, **kwargs):
        return self.index.range_query(*args, **kwargs)

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def apply_record(index, record: WalRecord):
    """Apply one logged record to a built index; the one applier.

    Recovery, the reference replay and the sharded service's ingest all
    apply records through here.  An insert must carry the ids the index
    would assign; it returns the store's
    :class:`~repro.storage.inverted_index.InsertPlan`, which the service
    ships to its shard workers.  A remove returns ``None``.
    """
    if record.op == "remove":
        index.remove(record.ids)
        return None
    if record.op != "insert":  # pragma: no cover - decoder rejects unknown ops
        raise WalCorruptionError(f"unknown op {record.op!r} at LSN {record.lsn}")
    start = index.num_rows
    expected = np.arange(start, start + record.ids.shape[0], dtype=np.int64)
    if not np.array_equal(record.ids, expected):
        raise WalCorruptionError(
            f"insert at LSN {record.lsn} carries ids [{record.ids[0]}..] but "
            f"the index would assign [{start}..]: log and index disagree"
        )
    return index._apply_insert(record.points)[1]
