"""Block-layout arithmetic for fixed-size records on simulated 4 KB pages.

The inverted lists of the base index are modelled as densely packed runs of
fixed-size entries (a 4-byte hash value plus a 4-byte point id, as in the
C2LSH/LazyLSH C++ implementations).  A :class:`PageLayout` translates entry
ranges into page ranges, and a :class:`PageTracker` is one query's buffer
pool: a reader charges the pages of every entry range it reads through
it, so a page re-read later in the query costs one sequential I/O.  The
store itself charges nothing; the scalar readers use a tracker, and the
flat engine's merge step does the same interval arithmetic on
per-function page hulls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError

#: Page size used throughout the paper's evaluation.
DEFAULT_PAGE_SIZE = 4096

#: Bytes per inverted-list entry: 4-byte hash value + 4-byte point id.
DEFAULT_ENTRY_SIZE = 8


@dataclass(frozen=True)
class PageLayout:
    """Maps entry indices of a packed run onto fixed-size pages."""

    page_size: int = DEFAULT_PAGE_SIZE
    entry_size: int = DEFAULT_ENTRY_SIZE

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise InvalidParameterError(f"page_size must be > 0, got {self.page_size}")
        if self.entry_size <= 0:
            raise InvalidParameterError(
                f"entry_size must be > 0, got {self.entry_size}"
            )
        if self.entry_size > self.page_size:
            raise InvalidParameterError(
                "entry_size must not exceed page_size "
                f"({self.entry_size} > {self.page_size})"
            )

    @property
    def entries_per_page(self) -> int:
        """How many whole entries fit on one page (no entry spans pages)."""
        return self.page_size // self.entry_size

    def page_of_entry(self, entry_index: int) -> int:
        """Page number holding ``entry_index``."""
        if entry_index < 0:
            raise InvalidParameterError(f"entry index must be >= 0, got {entry_index}")
        return entry_index // self.entries_per_page

    def pages_for_range(self, start: int, stop: int) -> int:
        """Number of pages overlapped by entries ``[start, stop)``.

        An empty range costs zero pages.
        """
        if start < 0 or stop < start:
            raise InvalidParameterError(
                f"invalid entry range [{start}, {stop})"
            )
        if stop == start:
            return 0
        first = self.page_of_entry(start)
        last = self.page_of_entry(stop - 1)
        return last - first + 1

    def page_span(self, start: int, stop: int) -> tuple[int, int]:
        """Half-open page-number interval covering entries ``[start, stop)``.

        Returns ``(first_page, last_page + 1)``; empty range returns an
        empty interval anchored at the start page.
        """
        if stop == start:
            first = self.page_of_entry(max(start, 0)) if start >= 0 else 0
            return first, first
        first = self.page_of_entry(start)
        last = self.page_of_entry(stop - 1)
        return first, last + 1

    def pages_for_bytes(self, n_bytes: int) -> int:
        """Pages needed to hold ``n_bytes`` of packed data."""
        if n_bytes < 0:
            raise InvalidParameterError(f"byte count must be >= 0, got {n_bytes}")
        return -(-n_bytes // self.page_size)

    def size_bytes(self, n_entries: int) -> int:
        """Total on-disk bytes of a run with ``n_entries``, page-aligned."""
        return self.pages_for_bytes(n_entries * self.entry_size) * self.page_size


class PageTracker:
    """Per-query buffer pool tracked as disjoint page intervals.

    A query's window scans touch contiguous, mostly-nested page runs, so
    the pages already charged for one inverted list form one (rarely a
    few) intervals.  Charging a new scan is then interval arithmetic —
    O(number of intervals) instead of O(pages in the scan) — with
    exactly the counts of a ``set`` of ``(function, page)`` keys.
    """

    __slots__ = ("_intervals",)

    def __init__(self) -> None:
        self._intervals: dict[int, list[tuple[int, int]]] = {}

    def charge(self, func: int, first: int, stop: int) -> int:
        """Record pages ``[first, stop)`` of ``func`` as read.

        Returns how many of them were *new* (not previously charged).
        """
        if stop <= first:
            return 0
        runs = self._intervals.get(func)
        if runs is None:
            self._intervals[func] = [(first, stop)]
            return stop - first
        lo, hi = first, stop
        new = stop - first
        left = []
        right = []
        for a, b in runs:
            if b < lo:
                left.append((a, b))
            elif a > hi:
                right.append((a, b))
            else:
                new -= max(0, min(b, stop) - max(a, first))
                lo = min(lo, a)
                hi = max(hi, b)
        self._intervals[func] = left + [(lo, hi)] + right
        return new
