"""Real paging metrics: major faults and page-cache residency.

A loaded v3 index is memory-mapped, and its storage report
(``lazylsh_store_{resident,mapped}_bytes``) says how much of it is
mapped; this module adds ``mincore(2)`` residency of those regions and
the process-level half of the picture, so operators can tell
*simulated* I/O charge (the paper's cost model) apart from *actual*
disk traffic:

* ``lazylsh_major_faults_total`` — cumulative major page faults of the
  process, parsed from ``/proc/self/stat`` field 12 (``majflt``).  A
  major fault is a page that had to come from disk — on a warm page
  cache the counter stays flat even while the simulated charge grows;
* ``lazylsh_minor_faults_total`` — field 10 (``minflt``), for contrast;
* ``lazylsh_page_cache_resident_ratio`` — resident fraction of a mapped
  region per ``mincore(2)``, published per-store by
  :func:`residency_ratio`.

Everything degrades gracefully off Linux: probes return None and the
updater publishes nothing, so importing this module is always safe.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import mmap
import sys
from typing import Any

import numpy as np

from repro.obs.registry import MetricsRegistry

_PAGE_SIZE = mmap.PAGESIZE

#: /proc/<pid>/stat fields (1-based, per proc(5)): minflt=10, majflt=12.
_STAT_MINFLT_INDEX = 9
_STAT_MAJFLT_INDEX = 11


def read_fault_counts() -> tuple[int, int] | None:
    """Cumulative ``(minor, major)`` page faults, or None off Linux.

    Parses ``/proc/self/stat``; the executable name (field 2) may
    contain spaces and parentheses, so fields are counted from the
    *last* ``)``.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        with open("/proc/self/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    try:
        rest = raw[raw.rindex(")") + 2 :].split()
        # ``rest`` starts at field 3 (state); translate the 1-based
        # proc(5) indices.
        minflt = int(rest[_STAT_MINFLT_INDEX - 2])
        majflt = int(rest[_STAT_MAJFLT_INDEX - 2])
    except (ValueError, IndexError):
        return None
    return minflt, majflt


_libc: Any = None
_mincore_missing = False


def _get_mincore() -> Any:
    global _libc, _mincore_missing
    if _mincore_missing:
        return None
    if _libc is None:
        if not sys.platform.startswith("linux"):
            _mincore_missing = True
            return None
        name = ctypes.util.find_library("c")
        try:
            _libc = ctypes.CDLL(name, use_errno=True)
            _libc.mincore  # probe
        except (OSError, AttributeError):
            _mincore_missing = True
            return None
    return _libc.mincore


def residency_ratio(buffer: Any) -> float | None:
    """Resident fraction (0..1) of a buffer's pages, or None.

    ``buffer`` is anything exposing the buffer protocol over a mapped
    region (an ``mmap.mmap`` or a numpy array backed by one).  Returns
    None when ``mincore`` is unavailable or the address cannot be
    probed (e.g. anonymous CoW memory on some kernels).
    """
    mincore = _get_mincore()
    if mincore is None:
        return None
    try:
        # numpy resolves the base address even for read-only buffers
        # (ctypes.from_buffer refuses those).
        flat = np.frombuffer(buffer, dtype=np.uint8)
    except (TypeError, ValueError, BufferError):
        return None
    length = flat.size
    if length == 0:
        return None
    address = int(flat.__array_interface__["data"][0])
    offset = address % _PAGE_SIZE
    start = address - offset
    span = length + offset
    n_pages = (span + _PAGE_SIZE - 1) // _PAGE_SIZE
    vec = (ctypes.c_ubyte * n_pages)()
    rc = mincore(
        ctypes.c_void_p(start), ctypes.c_size_t(span), vec
    )
    del flat
    if rc != 0:
        return None
    resident = sum(1 for b in vec if b & 1)
    return resident / n_pages


class PagingMetrics:
    """Publishes fault counters and residency gauges into a registry.

    Counters are cumulative from *process start* even though
    ``/proc/self/stat`` predates this object: the first :meth:`update`
    baselines at the construction-time reading, then increments by
    deltas, so the exported series is monotone and restart-safe.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._c_major = registry.counter(
            "lazylsh_major_faults_total",
            "Major page faults (disk reads) since metrics start",
        )
        self._c_minor = registry.counter(
            "lazylsh_minor_faults_total",
            "Minor page faults since metrics start",
        )
        self._g_residency = registry.gauge(
            "lazylsh_page_cache_resident_ratio",
            "Resident fraction of a store's mapped pages per mincore(2)",
        )
        self._last: tuple[int, int] | None = read_fault_counts()
        self.supported = self._last is not None

    def update(self, stores: dict[str, Any] | None = None) -> dict:
        """Refresh fault counters and, optionally, per-store residency.

        ``stores`` maps a label (e.g. ``"shard0"``) to a buffer handed
        to :func:`residency_ratio`.  Returns the readings for callers
        that also want them as plain numbers (``repro top``).
        """
        report: dict[str, Any] = {"supported": self.supported}
        counts = read_fault_counts()
        if counts is not None and self._last is not None:
            d_minor = max(0, counts[0] - self._last[0])
            d_major = max(0, counts[1] - self._last[1])
            self._last = counts
            if d_minor:
                self._c_minor.inc(d_minor)
            if d_major:
                self._c_major.inc(d_major)
            report["minor_faults"] = counts[0]
            report["major_faults"] = counts[1]
        if stores:
            residency = {}
            for label, buffer in stores.items():
                ratio = residency_ratio(buffer)
                if ratio is not None:
                    self._g_residency.set(ratio, store=str(label))
                    residency[str(label)] = ratio
            report["residency"] = residency
        return report
