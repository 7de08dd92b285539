"""Continuous sampling profiler: folded stacks and per-phase attribution.

The metrics/tracing planes can say *that* a query was slow; this module
says *where the time went*.  :class:`ContinuousProfiler` is a wall-clock
sampling profiler over :func:`sys._current_frames`: a daemon thread
wakes ``hz`` times per second, snapshots every other thread's Python
stack, and aggregates the snapshots into folded-stack counts —
the ``frame;frame;frame count`` text format flamegraph tooling consumes
directly (Brendan Gregg's ``flamegraph.pl``, speedscope, etc.).

Two attribution axes ride every sample:

* **per thread** — the sampled thread's name is the first folded
  segment, so the coordinator, the frontend planner and the exporter
  separate cleanly in one capture;
* **per phase** — each stack is classified into one of LazyLSH's
  serving phases (``hash`` / ``scan`` / ``merge`` / ``wave``, DESIGN
  §15) by matching frame file/function names against the code paths the
  existing span names (``serve.search_batch``, ``worker.round``,
  ``serve.merge``) already delimit.  Stacks parked in waits classify as
  ``idle``; anything else is ``other``.

Overhead discipline (same as tracing, DESIGN §10): a sample is one
``sys._current_frames()`` call plus a dict update — no tracing hooks,
no interpreter instrumentation — and the sampler publishes its own
measured duty cycle as ``lazylsh_profile_overhead_ratio`` so the
obs-smoke gate can assert the documented <= 3% budget against a live
fleet rather than trusting the design.

The exporter serves captures at ``GET /profile`` (the continuous
aggregate) and ``GET /profile?seconds=N`` (a fresh on-demand capture).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Iterable, Mapping

from repro.errors import InvalidParameterError
from repro.obs.registry import MetricsRegistry

#: Phase labels, most specific classification first; ``other`` and
#: ``idle`` are the fallthroughs.
PHASES = ("hash", "scan", "merge", "wave", "other", "idle")

#: Frame-name patterns per phase.  A pattern matches a frame when the
#: file's basename contains the first element and (if non-empty) the
#: function name starts with one of the listed prefixes.  Classification
#: walks the stack leaf-first, so the innermost phase-bearing frame
#: wins — the engine's merge step running under the service's
#: ``_run_wave`` is ``merge``, its scan kernel under ``knn_batch`` or a
#: worker's ``round`` is ``scan``.  Every prefix names a function of its
#: module (``tests/test_workload_intelligence.py`` checks).
_PHASE_RULES: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("hash", "hashing", ()),
    ("hash", "", ("hash_points",)),
    ("scan", "worker", ("round",)),
    ("scan", "inverted_index", ()),
    ("scan", "engine", ("scan",)),
    ("merge", "engine", ("merge",)),
    ("merge", "lazylsh", ("_lane_result",)),
    ("wave", "service", ("_run_wave", "_broadcast", "_send", "_recv",
                         "_execute", "search_batch", "search")),
    ("wave", "frontend", ("_execute_plan", "_run_scans", "_run_wave")),
)

#: Leaf function names that mean "parked, not burning CPU".
_IDLE_LEAVES = frozenset(
    (
        "wait", "sleep", "select", "poll", "epoll", "accept", "recv",
        "recv_bytes", "read", "readinto", "readline", "_recv", "get",
        "acquire", "run_forever", "serve_forever", "_run_once",
        "handle_request", "get_request",
    )
)


def classify_frames(frames: Iterable[tuple[str, str]]) -> str:
    """Phase of one sampled stack; ``frames`` are (filename, funcname).

    The stack is scanned leaf-first (callers pass root-first order, as
    stored in folded form).  Returns the first matching phase, ``idle``
    when the leaf is a known wait, else ``other``.
    """
    stack = list(frames)
    for filename, func in reversed(stack):
        for phase, file_part, func_prefixes in _PHASE_RULES:
            if file_part and file_part not in filename:
                continue
            if func_prefixes and not any(
                func.startswith(prefix) for prefix in func_prefixes
            ):
                continue
            if not file_part and not func_prefixes:  # pragma: no cover
                continue
            return phase
    if stack and stack[-1][1] in _IDLE_LEAVES:
        return "idle"
    return "other"


def _frame_label(filename: str, func: str) -> str:
    """``basename:func`` — short, stable across checkouts."""
    base = filename.rsplit("/", 1)[-1]
    if base.endswith(".py"):
        base = base[:-3]
    return f"{base}:{func}"


class ContinuousProfiler:
    """Daemon-thread wall-clock sampler with folded-stack aggregation.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        given, per-phase sample counts, the configured rate and the
        measured sampling duty cycle are published as
        ``lazylsh_profile_*`` instruments.
    hz:
        Target sampling rate (samples per second), in ``(0, 1000]``.
        The default 29 Hz deliberately avoids divisors of common
        scheduler quanta (lockstep sampling aliases periodic work) and
        keeps the sampling duty cycle well under 1% even on a
        single-core host, where the sampler thread steals wall-clock
        directly from the serving path (the <=3% overhead gate in
        ``benchmarks/obs_smoke.py`` is measured, not assumed).
    max_depth:
        Frames kept per stack (leaf-most beyond it are truncated).
    max_stacks:
        Distinct folded stacks retained; the rarest stacks are dropped
        first once the table is full, so a long-running server's
        profile stays bounded.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        hz: float = 29.0,
        max_depth: int = 64,
        max_stacks: int = 4096,
    ) -> None:
        if not 0 < hz <= 1000:
            raise InvalidParameterError(
                f"profiler hz must be in (0, 1000], got {hz}"
            )
        if max_depth < 1:
            raise InvalidParameterError(
                f"profiler max_depth must be >= 1, got {max_depth}"
            )
        if max_stacks < 1:
            raise InvalidParameterError(
                f"profiler max_stacks must be >= 1, got {max_stacks}"
            )
        self.hz = float(hz)
        self.max_depth = int(max_depth)
        self.max_stacks = int(max_stacks)
        self._lock = threading.Lock()
        #: (thread_name, phase, folded_frames) -> sample count
        self._folded: dict[tuple[str, str, str], int] = {}
        self._phase_counts: dict[str, int] = {}
        self._thread_counts: dict[str, int] = {}
        self.samples = 0
        self._dropped_stacks = 0
        self._sampling_seconds = 0.0
        self._started_at: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._c_samples = None
        self._g_hz = None
        self._g_overhead = None
        self._c_captures = None
        if registry is not None:
            self._c_samples = registry.counter(
                "lazylsh_profile_samples_total",
                "Profiler stack samples by serving phase",
            )
            self._g_hz = registry.gauge(
                "lazylsh_profile_hz", "Configured profiler sampling rate"
            )
            self._g_overhead = registry.gauge(
                "lazylsh_profile_overhead_ratio",
                "Measured fraction of wall time spent taking samples",
            )
            self._c_captures = registry.counter(
                "lazylsh_profile_captures_total",
                "On-demand /profile?seconds=N captures served",
            )
            self._g_hz.set(self.hz)

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ContinuousProfiler":
        """Begin continuous sampling on a daemon thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread and join it (idempotent)."""
        thread = self._thread
        self._thread = None
        self._stop.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    def __enter__(self) -> "ContinuousProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.is_set():
            t0 = time.perf_counter()
            self.sample_once()
            spent = time.perf_counter() - t0
            with self._lock:
                self._sampling_seconds += spent
            if self._g_overhead is not None and self._started_at is not None:
                wall = time.perf_counter() - self._started_at
                if wall > 0:
                    self._g_overhead.set(self._sampling_seconds / wall)
            self._stop.wait(max(0.0, interval - spent))

    # -- sampling --------------------------------------------------------

    def sample_once(
        self, accumulator: dict[tuple[str, str, str], int] | None = None
    ) -> int:
        """Take one snapshot of every other thread's stack.

        Folds each stack into the continuous aggregate (or into
        ``accumulator`` for on-demand captures) and returns the number
        of threads sampled.  Exposed directly so tests can drive the
        profiler deterministically without the timer thread.
        """
        me = threading.get_ident()
        frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        sampled = 0
        records = []
        for tid, frame in frames.items():
            if tid == me:
                continue
            stack: list[tuple[str, str]] = []
            f = frame
            while f is not None and len(stack) < self.max_depth:
                code = f.f_code
                stack.append((code.co_filename, code.co_name))
                f = f.f_back
            stack.reverse()  # root-first, like a flame graph
            phase = classify_frames(stack)
            folded = ";".join(_frame_label(fn, fu) for fn, fu in stack)
            thread_name = names.get(tid, f"tid-{tid}")
            records.append((thread_name, phase, folded))
            sampled += 1
        del frames  # drop frame references promptly
        with self._lock:
            target = self._folded if accumulator is None else accumulator
            for key in records:
                target[key] = target.get(key, 0) + 1
                if accumulator is None:
                    thread_name, phase, _ = key
                    self.samples += 1
                    self._phase_counts[phase] = (
                        self._phase_counts.get(phase, 0) + 1
                    )
                    self._thread_counts[thread_name] = (
                        self._thread_counts.get(thread_name, 0) + 1
                    )
            if accumulator is None and len(self._folded) > self.max_stacks:
                self._evict_locked()
        if accumulator is None and self._c_samples is not None:
            for _, phase, _ in records:
                self._c_samples.inc(phase=phase)
        return sampled

    def _evict_locked(self) -> None:
        """Drop the rarest stacks until the table fits (lock held)."""
        keep = sorted(
            self._folded.items(), key=lambda kv: kv[1], reverse=True
        )[: self.max_stacks]
        self._dropped_stacks += len(self._folded) - len(keep)
        self._folded = dict(keep)

    def capture(self, seconds: float, *, hz: float | None = None) -> str:
        """Blocking on-demand capture; returns its folded-stack text.

        Samples into a private accumulator for ``seconds`` (at ``hz``,
        default the profiler's own rate) without disturbing the
        continuous aggregate.  This is what ``GET /profile?seconds=N``
        serves; it works whether or not the continuous thread runs.
        """
        if not 0 < seconds <= 60:
            raise InvalidParameterError(
                f"capture seconds must be in (0, 60], got {seconds}"
            )
        rate = self.hz if hz is None else float(hz)
        if not 0 < rate <= 1000:
            raise InvalidParameterError(
                f"capture hz must be in (0, 1000], got {rate}"
            )
        interval = 1.0 / rate
        local: dict[tuple[str, str, str], int] = {}
        deadline = time.perf_counter() + float(seconds)
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            self.sample_once(accumulator=local)
            time.sleep(max(0.0, interval - (time.perf_counter() - t0)))
        if self._c_captures is not None:
            self._c_captures.inc()
        return self.render_folded(local)

    # -- read side -------------------------------------------------------

    @staticmethod
    def render_folded(
        folded: Mapping[tuple[str, str, str], int]
    ) -> str:
        """Folded accumulator -> flamegraph text, one stack per line.

        Lines read ``thread;phase:<phase>;frame;...;frame count`` —
        plain semicolon-folded stacks with the thread and phase as the
        two root segments, so standard flamegraph tooling groups by
        thread then phase for free.
        """
        lines = []
        for (thread, phase, stack), count in sorted(
            folded.items(), key=lambda kv: kv[1], reverse=True
        ):
            root = f"{thread};phase:{phase}"
            lines.append(
                f"{root};{stack} {count}" if stack else f"{root} {count}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def folded(self) -> str:
        """The continuous aggregate as flamegraph folded text."""
        with self._lock:
            return self.render_folded(dict(self._folded))

    def phase_table(self) -> dict[str, dict]:
        """Per-phase sample counts and fractions (``repro top`` fodder)."""
        with self._lock:
            total = self.samples
            return {
                phase: {
                    "samples": count,
                    "fraction": (count / total) if total else 0.0,
                }
                for phase, count in sorted(
                    self._phase_counts.items(),
                    key=lambda kv: kv[1],
                    reverse=True,
                )
            }

    def thread_table(self) -> dict[str, int]:
        """Per-thread sample counts."""
        with self._lock:
            return dict(self._thread_counts)

    def stats(self) -> dict:
        """JSON-serialisable sampler state (served beside the capture)."""
        with self._lock:
            wall = (
                time.perf_counter() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            return {
                "running": self.running,
                "hz": self.hz,
                "samples": self.samples,
                "distinct_stacks": len(self._folded),
                "dropped_stacks": self._dropped_stacks,
                "sampling_seconds": self._sampling_seconds,
                "duty_cycle": (
                    self._sampling_seconds / wall if wall > 0 else 0.0
                ),
            }

    def clear(self) -> None:
        """Reset the continuous aggregate (rate and lifecycle are kept)."""
        with self._lock:
            self._folded.clear()
            self._phase_counts.clear()
            self._thread_counts.clear()
            self.samples = 0
            self._dropped_stacks = 0
            self._sampling_seconds = 0.0
            if self._started_at is not None:
                self._started_at = time.perf_counter()
