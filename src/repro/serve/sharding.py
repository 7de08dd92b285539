"""Shard planning and the worker attach spec for the query service.

The sharded service partitions the point set into ``n_shards``
contiguous id ranges; points inserted later join the least-loaded
shard.  Every worker attaches the same way, at start and at respawn: it
maps a format-v3 spill of the coordinator's current index, takes
:meth:`~repro.storage.inverted_index.InvertedListStore.compact_shard`
over the ids it owns, copies its data rows and adopts the alive slice,
LSN and epoch its :class:`ShardSpec` carries.  Queries then ship only
window bounds and crossing summaries over the pipes, never index data.
The file's lifetime is the service's business (DESIGN.md section 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError


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
    """Everything a worker needs to attach its shard (picklable).

    ``path`` is a v3 spill holding the coordinator's current runs and
    data rows; ``ids`` the sorted global ids the shard owns and
    ``alive`` their tombstone bits (the file's own ``alive`` section is
    ignored: the coordinator's mask is the current one).  The worker
    starts at ``acked_lsn``/``epoch``, the state the file already holds.
    """

    shard_id: int
    path: str
    ids: np.ndarray
    alive: np.ndarray
    acked_lsn: int
    epoch: int
