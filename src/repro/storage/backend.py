"""Storage backends for :class:`~repro.storage.inverted_index.InvertedListStore`.

The store's execution engine only ever *reads* its arrays (the compact
value-relative runs, int32 ids and coarse search keys); mutation
allocates fresh arrays.  That makes the array source pluggable: an
:class:`EagerBackend` owns plain in-RAM ``ndarray`` objects, while an
:class:`MmapBackend` holds read-only ``np.memmap`` views into the
page-aligned ``rel32``/``ids32``/``row_top`` sections of a format-v3
index file (:mod:`repro.persistence`).  Opening an mmap-backed store is
O(1) in index size — the kernel maps the file and faults pages in on
first touch, so the OS page cache plays the role of the buffer pool that
:class:`~repro.storage.pages.PageTracker` merely simulates.

Both backends carry the precomputed two-level search state
(:class:`SearchState`) written by the v3 saver, so a store restored
through :meth:`InvertedListStore.from_backend` never scans the runs at
open time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["SearchState", "StorageBackend", "EagerBackend", "MmapBackend"]


@dataclass(frozen=True)
class SearchState:
    """Two-level window-search state of a compact sorted store.

    ``vmin`` is the value the runs are relative to, ``stride`` the value
    range plus two (the gap separating neighbouring runs' composite
    search keys) and ``top_per_row`` the coarse keys per run, so a reader
    can restore the search index without touching the runs.
    """

    vmin: int
    stride: int
    top_per_row: int


@dataclass
class StorageBackend:
    """Array source for an :class:`InvertedListStore`.

    ``rel``/``ids`` are the ``(num_functions, num_points)`` compact runs
    — hash values relative to ``search_state.vmin`` (int32, or int64 for
    wide hash domains) and int32 point ids — and ``row_top`` their flat
    coarse search keys (``None`` for domains too wide for them).
    """

    kind = "eager"

    rel: np.ndarray
    ids: np.ndarray
    row_top: np.ndarray | None
    search_state: SearchState
    source_path: Path | None = field(default=None)

    def __post_init__(self) -> None:
        if self.rel.ndim != 2 or self.rel.shape != self.ids.shape:
            raise InvalidParameterError(
                "backend rel/ids must be matching 2-D run matrices, got "
                f"{self.rel.shape} / {self.ids.shape}"
            )


class EagerBackend(StorageBackend):
    """Plain in-RAM arrays — the classic store representation."""

    kind = "eager"


class MmapBackend(StorageBackend):
    """Read-only ``np.memmap`` views into a v3 index file.

    The arrays stay valid as long as the mappings are alive; the file on
    disk must not be rewritten in place (the v3 writer's tmp+rename
    protocol guarantees readers never observe a partial file).
    """

    kind = "mmap"
