"""Spans recorded from outside the program, and their self-time fold.

A traced run wraps the calls into each layer (``knn_batch``, the
service handed to ``Frontend``, ``DurableIndex.insert``, ``recover``)
and records one span per call: name, start, end, thread CPU, parent and
a few attributes.  Spans stay in memory until the run ends, then go to
JSONL and into a per-layer table.  Nothing is recorded inside ``src/``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    cpu: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span store; parents follow each thread's stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sid = self._next_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, cpu, parent, attrs))

    def add(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record a span timed elsewhere (e.g. an HTTP request)."""
        span = Span(self._next_id(), name, start, end, 0.0, None, attrs)
        with self._lock:
            self.spans.append(span)
        return span

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), default=str) + "\n")


def maybe_span(recorder: SpanRecorder | None, name: str, **attrs):
    """``recorder.span(name, **attrs)``, or a no-op when not tracing."""
    return nullcontext() if recorder is None else recorder.span(name, **attrs)


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(parent: Span, children) -> float:
    """A span's duration minus the part of it its children cover."""
    return parent.duration - covered(
        parent.start, parent.end, [(c.start, c.end) for c in children]
    )


def fold(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total and self milliseconds, thread CPU."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(
            s.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "cpu_ms": 0.0}
        )
        row["count"] += 1
        row["total_ms"] += s.duration * 1e3
        row["self_ms"] += self_time(s, children.get(s.id, ())) * 1e3
        row["cpu_ms"] += s.cpu * 1e3
    return table


def query_digest(query) -> str:
    """The same exact-query digest the frontend's cache keys on."""
    q = np.ascontiguousarray(np.asarray(query, dtype=np.float64))
    return hashlib.sha1(q.tobytes()).hexdigest()


class RecordingService:
    """Delegates to a ``ShardedSearchService``, recording spans around
    ``search_batch`` and ``ingest``.

    Every other attribute (``lock``, ``index``, ``epoch``, ``stats``, ...)
    passes through untouched, so ``Frontend`` cannot tell the difference.
    """

    def __init__(self, service, recorder: SpanRecorder) -> None:
        self._service = service
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._service, name)

    def search_batch(self, queries, k=None, **kwargs):
        rows = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        with self._recorder.span(
            "service.search_batch",
            rows=int(rows.shape[0]),
            p=kwargs.get("p"),
            digests=[query_digest(r) for r in rows],
        ):
            return self._service.search_batch(queries, k, **kwargs)

    def ingest(self, records):
        records = list(records)
        with self._recorder.span("service.ingest", records=len(records)):
            return self._service.ingest(records)
