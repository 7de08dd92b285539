"""Shard planning and zero-copy shard export for the query service.

The sharded service partitions the point set into ``n_shards``
contiguous id ranges.  For each shard it extracts, per hash function,
the sub-run of inverted-list entries owned by the shard in the round
kernel's compact int32 form (:meth:`~repro.storage.inverted_index.
InvertedListStore.compact_shard`) plus the shard's data rows and alive
mask, and publishes all of it through one
:class:`multiprocessing.shared_memory.SharedMemory` block.  Workers
attach read-only views as a compact store — queries ship only window
bounds and crossing summaries over the pipes, never index data.

Shared-memory lifetime rules (see DESIGN.md section 9):

* the parent creates each segment, keeps the handle for the service's
  lifetime, and is the only unlinker (``close()``/context-manager exit);
* workers attach by name and immediately deregister the segment from
  their ``resource_tracker`` so a worker death (or the crash test hook)
  cannot reap memory the parent still owns;
* all views are read-only by convention — workers never write to the
  segment, so respawned workers can re-attach mid-flight.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.errors import InvalidParameterError
from repro.storage.backend import SearchState

#: Serialises the Python < 3.13 ``resource_tracker.register`` patch in
#: :func:`attach_shard`: the patch swaps a process-global attribute, so
#: two concurrent attaches could otherwise restore the wrong original.
_TRACKER_PATCH_LOCK = threading.Lock()


def plan_shards(n_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous id ranges ``[lo, hi)`` covering ``n_rows``.

    The first ``n_rows % n_shards`` shards take one extra point, so
    shard sizes differ by at most one.  ``n_shards`` is clamped to
    ``n_rows`` (a shard must own at least one point).
    """
    if n_rows < 1:
        raise InvalidParameterError(f"need at least one row, got {n_rows}")
    if n_shards < 1:
        raise InvalidParameterError(
            f"n_shards must be >= 1, got {n_shards}"
        )
    n_shards = min(n_shards, n_rows)
    base, extra = divmod(n_rows, n_shards)
    ranges = []
    lo = 0
    for s in range(n_shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to attach one shard (picklable).

    ``arrays`` maps array name to ``(offset, shape, dtype_str)`` inside
    the shared-memory block named ``shm_name``; ``search_state`` is the
    packed sub-runs' window-search state.
    """

    shard_id: int
    lo: int
    hi: int
    shm_name: str
    arrays: dict = field(default_factory=dict)
    search_state: SearchState | None = None


@dataclass(frozen=True)
class MmapShardSpec:
    """Zero-copy attach: the worker maps the v3 index file itself.

    Nothing is packed — the spec is the shard's id range, the path of
    the format-v3 index file every worker opens read-only
    (:func:`open_mmap_shard`) and the coordinator's ``alive`` slice for
    the range.  Worker start stays O(1) in index size and the OS page
    cache acts as the shared buffer pool the shm path emulates with an
    explicit segment.  The file's own ``alive`` section is never read:
    tombstones set after the file was written live only in the
    coordinator's mask.
    """

    shard_id: int
    lo: int
    hi: int
    path: str
    alive: np.ndarray


def open_mmap_shard(spec: MmapShardSpec) -> dict:
    """Open a worker's view of an mmap-attached shard.

    Returns the *full-index* mmap-backed ``store`` (the round kernel keeps
    the entries the shard owns), the shard's ``data`` rows as a read-only
    memmap slice, and a private, writable copy of the spec's ``alive``
    slice (tombstones are per-worker copy-on-write state).
    """
    from repro.persistence import open_v3_store

    store, arrays = open_v3_store(Path(spec.path))
    return {
        "store": store,
        "data": arrays["data"][spec.lo : spec.hi],
        "alive": np.array(spec.alive, dtype=bool),
    }


#: Array layout of one shard segment, in packing order.
_SHARD_ARRAYS = ("rel", "ids", "positions", "row_top", "data", "alive")


def pack_shard(
    shard_id: int,
    lo: int,
    hi: int,
    store,
    data: np.ndarray,
    alive: np.ndarray,
) -> tuple[ShardSpec, shared_memory.SharedMemory]:
    """Export shard ``[lo, hi)`` into a fresh shared-memory segment.

    Returns the spec to hand to the worker and the parent-side handle
    (the caller owns closing and unlinking it).
    """
    arrays, state = store.compact_shard(lo, hi)
    arrays["data"] = np.ascontiguousarray(data[lo:hi])
    arrays["alive"] = np.ascontiguousarray(alive[lo:hi])
    manifest: dict = {}
    offset = 0
    for name in _SHARD_ARRAYS:
        arr = arrays[name]
        if arr is None:  # no coarse keys for very wide hash domains
            continue
        # 8-byte alignment keeps every int64/float64 view well-formed.
        offset = (offset + 7) & ~7
        manifest[name] = (offset, arr.shape, arr.dtype.str)
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for name in manifest:
        arr = arrays[name]
        off, shape, dtype = manifest[name]
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view[...] = arr
    spec = ShardSpec(
        shard_id=shard_id,
        lo=lo,
        hi=hi,
        shm_name=shm.name,
        arrays=manifest,
        search_state=state,
    )
    return spec, shm


def attach_shard(
    spec: ShardSpec,
) -> tuple[dict, shared_memory.SharedMemory]:
    """Attach a packed shard in a worker process.

    Returns ``(arrays, shm)`` where ``arrays`` maps name to a read-only
    numpy view over the segment.  The attach is kept out of the
    ``resource_tracker`` so a worker's exit (clean or not) never unlinks
    or deregisters memory the parent still serves from.
    """
    try:
        shm = shared_memory.SharedMemory(name=spec.shm_name, track=False)
    except TypeError:
        # Python < 3.13 has no track= parameter and registers every
        # attach with the (process-tree-wide) resource tracker, which
        # would let a worker's exit clobber the parent's registration.
        # Suppress the registration for the duration of the attach; the
        # lock keeps concurrent attaches from racing the save/restore of
        # the process-global attribute.
        with _TRACKER_PATCH_LOCK:
            original = resource_tracker.register

            def _skip(name: str, rtype: str) -> None:
                if rtype != "shared_memory":  # pragma: no cover
                    original(name, rtype)

            resource_tracker.register = _skip
            try:
                shm = shared_memory.SharedMemory(name=spec.shm_name)
            finally:
                resource_tracker.register = original
    arrays = {}
    for name, (off, shape, dtype) in spec.arrays.items():
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        view.flags.writeable = False
        arrays[name] = view
    return arrays, shm
