"""Checkpointing and crash recovery for the durable update plane.

A checkpoint is an ordinary :func:`repro.persistence.save_index` snapshot
stamped with the WAL LSN it covers, written atomically::

    checkpoints/
        checkpoint-00000000000000000000.npz      # initial (build-time)
        checkpoint-00000000000000000431.npz      # covers LSNs 1..431

Atomicity: :func:`~repro.persistence.save_index` writes the snapshot to
a ``.tmp-<pid>`` sibling (never matched by the recovery glob), fsyncs
it and :func:`os.replace`\\ s it onto its final name; the checkpoint
then fsyncs the directory so the name itself survives power loss.  A
crash mid-checkpoint leaves either no new checkpoint (plus an ignorable
temp file) or a complete one, never a half-written file under a
recoverable name.

Recovery (:func:`recover`) is the classic ARIES-lite sequence:

1. open the newest good checkpoint (:func:`latest_checkpoint`, the one
   definition every consumer uses): newest first, skipping any whose
   header LSN does not match its name or whose file does not open.
   A v3 checkpoint opens mapped; the mapping keeps its file alive, so a
   later prune of that checkpoint pulls no pages from under the index;
2. open the WAL (which itself truncates a torn tail);
3. replay every record with ``lsn > checkpoint_lsn`` in order;
4. hand back a :class:`~repro.durability.wal.DurableIndex` ready for
   more writes.

The recovered index is bit-identical — same data, tombstones, inverted
lists and therefore same kNN answers — to an index that applied exactly
the durably-acked mutation prefix, which is the invariant the crash
tests pin down.
"""

from __future__ import annotations

import logging
import os
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.durability.wal import (
    DurableIndex,
    WalCorruptionError,
    WriteAheadLog,
    apply_record,
)
from repro.errors import InvalidParameterError, ReproError
from repro.persistence import IndexFormatError, load_index, read_header, save_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.lazylsh import LazyLSH

logger = logging.getLogger("repro.durability.checkpoint")

_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".npz"

#: Subdirectory names of a durable index home directory.
WAL_SUBDIR = "wal"
CHECKPOINT_SUBDIR = "checkpoints"


class RecoveryError(ReproError):
    """No usable checkpoint/WAL state could be recovered."""


def checkpoint_name(lsn: int) -> str:
    """File name of the checkpoint covering WAL records ``1..lsn``."""
    return f"{_CHECKPOINT_PREFIX}{lsn:020d}{_CHECKPOINT_SUFFIX}"


def _checkpoint_lsn(path: Path) -> int | None:
    name = path.name
    if not (
        name.startswith(_CHECKPOINT_PREFIX) and name.endswith(_CHECKPOINT_SUFFIX)
    ):
        return None
    digits = name[len(_CHECKPOINT_PREFIX):-len(_CHECKPOINT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_checkpoints(directory: str | Path) -> list[tuple[int, Path]]:
    """``(lsn, path)`` of every checkpoint file, ascending by LSN.

    Temp files of crashed half-writes (``checkpoint-<lsn>.npz.tmp-<pid>``)
    are deliberately excluded.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        lsn = _checkpoint_lsn(path)
        if lsn is not None:
            found.append((lsn, path))
    found.sort()
    return found


def write_checkpoint(
    index,
    directory: str | Path,
    *,
    lsn: int,
    epoch: int = 0,
) -> Path:
    """Atomically snapshot ``index`` as the checkpoint covering ``lsn``.

    The snapshot is a format-v3 file, so recovery maps it in O(1)
    without re-hashing.  :func:`~repro.persistence.save_index` fsyncs
    it and renames it into place; the directory fsync here makes the
    new name itself survive power loss.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = save_index(
        index, directory / checkpoint_name(lsn), wal_lsn=lsn, wal_epoch=epoch
    )
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return final


def latest_checkpoint(
    directory: str | Path,
) -> tuple[int, Path, LazyLSH] | None:
    """The newest good checkpoint: ``(lsn, path, index)``, or None.

    Good means its header LSN matches its file name and the file opens
    (:func:`~repro.persistence.load_index`).  Candidates are tried
    newest-first; a corrupt, truncated or misnamed file is skipped, so
    every consumer (recovery, ``serve --wal``, the cluster leader and a
    bootstrapping follower) degrades to the same older snapshot instead
    of failing outright.
    """
    for lsn, path in reversed(list_checkpoints(directory)):
        try:
            header_lsn = int(read_header(path).get("wal_lsn", 0))
            if header_lsn != lsn:
                raise IndexFormatError(
                    f"header LSN {header_lsn} does not match the file name"
                )
            return lsn, path, load_index(path)
        except (IndexFormatError, InvalidParameterError, zipfile.BadZipFile,
                OSError, ValueError, KeyError) as exc:
            logger.warning("skipping checkpoint %s: %s", path.name, exc)
    return None


def create(
    index,
    directory: str | Path,
    *,
    sync: bool = True,
    segment_bytes: int | None = None,
    registry=None,
) -> DurableIndex:
    """Initialise a durable home directory around a freshly built index.

    Writes the initial (LSN 0) checkpoint and opens an empty WAL.  The
    directory must not already contain durable state.
    """
    directory = Path(directory)
    ckpt_dir = directory / CHECKPOINT_SUBDIR
    wal_dir = directory / WAL_SUBDIR
    if list_checkpoints(ckpt_dir):
        raise InvalidParameterError(
            f"{directory} already holds checkpoints; use recover() instead"
        )
    write_checkpoint(index, ckpt_dir, lsn=0)
    kwargs: dict = {"sync": sync, "registry": registry}
    if segment_bytes is not None:
        kwargs["segment_bytes"] = segment_bytes
    wal = WriteAheadLog(wal_dir, **kwargs)
    if wal.last_lsn != 0:
        wal.close()
        raise InvalidParameterError(
            f"{wal_dir} already holds {wal.last_lsn} WAL records; use recover()"
        )
    return DurableIndex(index, wal)


def recover(
    directory: str | Path,
    *,
    sync: bool = True,
    segment_bytes: int | None = None,
    registry=None,
) -> tuple[DurableIndex, dict]:
    """Rebuild the durable index from ``directory`` after a crash.

    Returns ``(durable_index, report)`` where ``report`` records what
    recovery did: the checkpoint used, records replayed, torn-tail bytes
    dropped, and checkpoints skipped as corrupt.

    A v3 checkpoint opens mapped (:func:`~repro.persistence.load_index`)
    — cold recovery of a large, mostly-checkpointed index starts in
    milliseconds and pages in on demand (a v1/v2 checkpoint loads by
    re-hashing).  WAL replay onto a mapped index materialises the
    mutated arrays in RAM, exactly as live inserts do.
    """
    directory = Path(directory)
    ckpt_dir = directory / CHECKPOINT_SUBDIR
    wal_dir = directory / WAL_SUBDIR
    found = latest_checkpoint(ckpt_dir)
    if found is None:
        raise RecoveryError(
            f"{ckpt_dir} holds no loadable checkpoint; nothing to recover"
        )
    ckpt_lsn, ckpt_path, index = found
    skipped = [
        path.name for lsn, path in list_checkpoints(ckpt_dir) if lsn > ckpt_lsn
    ]
    kwargs: dict = {"sync": sync, "registry": registry}
    if segment_bytes is not None:
        kwargs["segment_bytes"] = segment_bytes
    wal = WriteAheadLog(wal_dir, **kwargs)
    if wal.last_lsn < ckpt_lsn:
        wal.close()
        raise RecoveryError(
            f"checkpoint {ckpt_path.name} covers LSN {ckpt_lsn} but the WAL "
            f"only reaches {wal.last_lsn}; the log was truncated below its "
            "newest checkpoint"
        )
    if wal.last_lsn > ckpt_lsn and wal.first_lsn > ckpt_lsn + 1:
        wal.close()
        raise RecoveryError(
            f"the WAL starts at LSN {wal.first_lsn} but checkpoint "
            f"{ckpt_path.name} only covers LSN {ckpt_lsn}; records "
            f"{ckpt_lsn + 1}..{wal.first_lsn - 1} are missing"
        )
    replayed = 0
    try:
        for record in wal.replay(start_lsn=ckpt_lsn):
            apply_record(index, record)
            replayed += 1
    except WalCorruptionError:
        wal.close()
        raise
    durable = DurableIndex(index, wal)
    report = {
        "checkpoint": ckpt_path.name,
        "checkpoint_lsn": int(ckpt_lsn),
        "backend": index.storage_info()["backend"],
        "last_lsn": int(wal.last_lsn),
        "replayed_records": int(replayed),
        "torn_tail_bytes_dropped": int(wal.torn_bytes_dropped),
        "checkpoints_skipped": skipped,
        "live_points": int(index.num_points),
        "total_rows": int(index.num_rows),
    }
    wal.registry.counter(
        "lazylsh_wal_replayed_records_total",
        "WAL records replayed during recovery",
    ).inc(replayed)
    return durable, report


def checkpoint_now(durable: DurableIndex, directory: str | Path) -> Path:
    """Checkpoint a durable index's home ``directory`` and prune the log."""
    directory = Path(directory)
    path = write_checkpoint(
        durable.index, directory / CHECKPOINT_SUBDIR, lsn=durable.wal.last_lsn
    )
    durable.wal.truncate_through(durable.wal.last_lsn)
    return path


def _reference_index_from(directory: str | Path):
    """Fresh index equal to the recovered state — test/benchmark helper.

    Loads the *initial* (LSN 0) checkpoint and replays the entire log
    onto it in one pass, yielding the ground-truth index that any
    recovery path must match bit for bit.
    """
    directory = Path(directory)
    candidates = list_checkpoints(directory / CHECKPOINT_SUBDIR)
    if not candidates or candidates[0][0] != 0:
        raise RecoveryError(
            f"{directory} has no initial (LSN 0) checkpoint to rebuild from"
        )
    index = load_index(candidates[0][1])
    wal = WriteAheadLog(directory / WAL_SUBDIR, sync=False)
    try:
        if wal.last_lsn > 0 and wal.first_lsn > 1:
            raise RecoveryError(
                f"the WAL was pruned (starts at LSN {wal.first_lsn}); a "
                "full-history reference replay is no longer possible"
            )
        for record in wal.replay(start_lsn=0):
            apply_record(index, record)
    finally:
        wal.close()
    return index


def states_identical(a, b, *, queries: np.ndarray | None = None, k: int = 5) -> bool:
    """True when two indexes hold identical durable state (and answers).

    Compares data, tombstone masks and the inverted-list runs; when
    ``queries`` is given, also requires bit-identical kNN ids/distances.
    """
    if a.num_rows != b.num_rows or a.num_points != b.num_points:
        return False
    if not np.array_equal(a.data, b.data):
        return False
    if not np.array_equal(a._alive, b._alive):
        return False
    for run_a, run_b in zip(a._store.runs(), b._store.runs()):
        if not np.array_equal(run_a, run_b):
            return False
    if queries is not None:
        for q in np.atleast_2d(queries):
            ra = a.knn(q, k, p=1.0)
            rb = b.knn(q, k, p=1.0)
            if not np.array_equal(ra.ids, rb.ids):
                return False
            if not np.array_equal(ra.distances, rb.distances):
                return False
    return True
