"""Simulated disk substrate with the paper's I/O accounting (Sec. 5.2).

The original LazyLSH evaluation measures cost as simulated I/Os against
4 KB pages: loading one block of an inverted list counts as one
*sequential* I/O, and visiting one data object to compute its true distance
counts as one *random* I/O.  This package reproduces exactly that model:

* :mod:`repro.storage.io_stats` — counters shared by index and baselines,
* :mod:`repro.storage.pages` — block-layout arithmetic for fixed-size
  records on 4 KB pages,
* :mod:`repro.storage.inverted_index` — the per-hash-function sorted
  ``(hash value, id)`` runs that back virtual/query-centric rehashing,
  held in RAM or mapped from a saved index file.
"""

from repro.storage.inverted_index import InvertedListStore, SearchState
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout, DEFAULT_PAGE_SIZE, DEFAULT_ENTRY_SIZE

__all__ = [
    "DEFAULT_ENTRY_SIZE",
    "DEFAULT_PAGE_SIZE",
    "IOStats",
    "InvertedListStore",
    "PageLayout",
    "SearchState",
]
