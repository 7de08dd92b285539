"""Read-only WAL tailing for live update propagation.

:class:`WalFeed` is the coordinator side of the update pipeline: it
follows a write-ahead log directory *written by another process* and
yields each newly committed :class:`~repro.durability.wal.WalRecord`
exactly once, in LSN order.  Unlike :class:`WriteAheadLog`, the feed
never truncates or repairs anything — a torn frame at the tail simply
means "no more complete records yet" and the feed waits for the writer
to finish (or a recovery pass to truncate) it.

The feed remembers ``(segment, offset, last_lsn)`` between polls, so a
poll is one ``stat`` plus a read of only the new bytes, and handles
segment rotation by stepping to the segment whose first LSN is the next
expected one.
"""

from __future__ import annotations

from pathlib import Path

from repro.durability.wal import (
    WalRecord,
    WalTruncatedError,
    iter_segment_records,
    list_segments,
)
from repro.obs.registry import MetricsRegistry

#: Lag gauge buckets are not needed — lag is a plain gauge.


class WalFeed:
    """Incremental reader of a (possibly live) WAL directory.

    Parameters
    ----------
    directory:
        The WAL directory to follow.
    start_lsn:
        Records with ``lsn <= start_lsn`` are skipped — pass the
        consumer's acked LSN to resume mid-log.
    registry:
        Metrics registry the feed publishes ``lazylsh_wal_feed_lsn``
        (last LSN delivered) and ``lazylsh_wal_feed_records_total`` in;
        a private one when omitted.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        start_lsn: int = 0,
        registry=None,
    ) -> None:
        self.directory = Path(directory)
        self.last_lsn = int(start_lsn)
        self._segment: Path | None = None
        self._offset = 0
        if registry is None:
            registry = MetricsRegistry()
        self._lsn_gauge = registry.gauge(
            "lazylsh_wal_feed_lsn", "Last LSN delivered by the WAL feed"
        )
        self._records_counter = registry.counter(
            "lazylsh_wal_feed_records_total", "Records delivered by the feed"
        )

    def _locate(self) -> bool:
        """Position on the segment containing ``last_lsn + 1``.

        Returns False when that segment does not exist yet.  Raises
        :class:`~repro.durability.wal.WalTruncatedError` when every
        surviving segment starts *beyond* the target: a checkpoint
        pruned the records this feed still needed, and polling would
        otherwise return empty forever while the log races ahead.
        """
        if not self.directory.is_dir():
            return False
        segments = list_segments(self.directory)
        if not segments:
            return False
        target = self.last_lsn + 1
        best: Path | None = None
        for first, path in segments:
            if first <= target:
                best = path
            else:
                break
        if best is None:
            raise WalTruncatedError(target, segments[0][0])
        if self._segment != best:
            self._segment = best
            self._offset = 0
        return True

    def poll(self, max_records: int | None = None) -> list[WalRecord]:
        """All records committed since the last poll (possibly empty).

        Reads across segment rotations; stops at the first incomplete
        frame (a write in progress) or after ``max_records``.  Raises
        :class:`~repro.durability.wal.WalTruncatedError` when the
        writer's checkpoints pruned the log past this feed's position —
        the consumer must re-bootstrap from a checkpoint, because the
        missing records will never reappear.
        """
        out: list[WalRecord] = []
        drained: Path | None = None
        relocations = 0
        while True:
            if not self._locate():
                break
            assert self._segment is not None
            if self._segment == drained:
                # No rotation since this poll drained it — done.
                break
            seg = self._segment
            stop = False
            try:
                for record, end in iter_segment_records(seg, self._offset):
                    self._offset = end
                    if record.lsn <= self.last_lsn:
                        continue
                    if record.lsn != self.last_lsn + 1:
                        # Gap inside a located segment: the log is
                        # damaged (segment LSNs are contiguous by
                        # construction).  Stop delivering rather than
                        # skip — the consumer decides what to do.
                        stop = True
                        break
                    out.append(record)
                    self.last_lsn = record.lsn
                    if max_records is not None and len(out) >= max_records:
                        stop = True
                        break
            except FileNotFoundError:
                # The segment was pruned between _locate's listing and
                # the read (checkpoint racing the poll).  Re-locate: if
                # the records we still need survive elsewhere we step
                # there; if they were pruned, _locate raises
                # WalTruncatedError.
                self._segment = None
                self._offset = 0
                relocations += 1
                if relocations > 8:  # pragma: no cover - defensive
                    break
                continue
            if stop:
                break
            drained = seg
        if out:
            self._lsn_gauge.set(self.last_lsn)
            self._records_counter.inc(len(out))
        return out

    def lag(self) -> int:
        """Committed records not yet delivered (scan of the tail segment).

        Intended for health endpoints; costs one directory listing plus a
        parse of at most one segment.
        """
        segments = list_segments(self.directory)
        if not segments:
            return 0
        first, tail = segments[-1]
        newest = first - 1
        for record, _end in iter_segment_records(tail):
            newest = record.lsn
        return max(0, newest - self.last_lsn)
