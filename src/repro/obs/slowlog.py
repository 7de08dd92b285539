"""Ring-buffer slow-query log.

A production service cannot keep every :class:`~repro.obs.query_trace.
QueryTrace` — the north-star workload serves millions of queries — but
the *interesting* traces are exactly the ones that blow past a latency
or I/O budget.  :class:`SlowQueryLog` keeps the last ``capacity``
offending queries in a fixed-size ring.  An entry is the query's one
record, :meth:`~repro.obs.query_trace.QueryTrace.to_dict` (for sharded
runs with ``shard_io``, ``request_id`` and ``trace_id``), plus
``captured_at``, so an operator can ask "what did the slowest recent
queries actually do, round by round?" without a tracing backend, and
an entry validates with :func:`~repro.obs.query_trace.validate_trace_dict`.

The log is wired through :meth:`repro.obs.telemetry.Telemetry.record`
— the single chokepoint every engine (scalar, flat, batch, sharded
service) already funnels finished traces through — so core modules
never import it directly and the no-telemetry fast path stays a single
``is None`` check per query.

Thread safety: ``offer`` and the read methods take one lock, so the
exporter thread can serve ``/slowlog`` while the query thread appends.
"""

from __future__ import annotations

import threading
import time

from repro.errors import InvalidParameterError
from repro.obs.query_trace import QueryTrace


class SlowQueryLog:
    """Fixed-capacity ring of slow-query records.

    Parameters
    ----------
    capacity:
        Maximum retained entries; the oldest entry is evicted first.
    latency_threshold_seconds:
        Capture queries whose ``elapsed_seconds`` meets or exceeds this.
    io_threshold:
        Capture queries whose total simulated I/O (sequential + random)
        meets or exceeds this.

    A query is captured when it crosses *either* threshold.  With both
    thresholds ``None`` every offered query is captured — useful for
    tests and 100%-sampled smoke runs.
    """

    def __init__(
        self,
        capacity: int = 128,
        *,
        latency_threshold_seconds: float | None = None,
        io_threshold: int | None = None,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"slow-query log capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self.latency_threshold_seconds = latency_threshold_seconds
        self.io_threshold = io_threshold
        self._entries: list[dict] = []
        self._next = 0  # ring write position once the buffer is full
        self._offered = 0
        self._captured = 0
        self._lock = threading.Lock()

    # -- write side ------------------------------------------------------

    def _qualifies(self, trace: QueryTrace) -> bool:
        lat = self.latency_threshold_seconds
        io = self.io_threshold
        if lat is None and io is None:
            return True
        if lat is not None and trace.elapsed_seconds >= lat:
            return True
        if io is not None and (trace.io.sequential + trace.io.random) >= io:
            return True
        return False

    def offer(self, trace: QueryTrace) -> bool:
        """Consider one finished trace; capture it if it is slow.

        The entry is the trace's record plus ``captured_at``; a sharded
        trace's ``request_id``/``trace_id`` link it to its request and
        its ``/trace/<id>`` span tree, so a slow query found in
        ``/slowlog`` is one hop from its full cross-process timeline.
        Returns True when captured.
        """
        with self._lock:
            self._offered += 1
            if not self._qualifies(trace):
                return False
            entry = {"captured_at": time.time(), **trace.to_dict()}
            if len(self._entries) < self.capacity:
                self._entries.append(entry)
            else:
                self._entries[self._next] = entry
                self._next = (self._next + 1) % self.capacity
            self._captured += 1
            return True

    def clear(self) -> None:
        """Drop all captured entries (thresholds and stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._next = 0

    # -- read side -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def to_dicts(self) -> list[dict]:
        """Captured entries, oldest first (JSON-serialisable)."""
        with self._lock:
            if len(self._entries) < self.capacity:
                return list(self._entries)
            return self._entries[self._next:] + self._entries[: self._next]

    def stats(self) -> dict:
        """Offer/capture counters and the active thresholds."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "offered": self._offered,
                "captured": self._captured,
                "latency_threshold_seconds": self.latency_threshold_seconds,
                "io_threshold": self.io_threshold,
            }
