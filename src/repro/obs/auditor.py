"""Online guarantee auditor: live recall vs the Theorem 1 bound.

LazyLSH's whole pitch — one l1 index answering kNN under every
``lp, p in [0.5, 1]`` — rests on Theorem 1: each query succeeds (every
reported i-th neighbour is within ``c`` times the true i-th distance)
with probability at least ``1/2 - beta``.  That guarantee is proven for
the hash family, not observed; a served index whose data drifted, whose
parameters were mis-tuned, or whose shards lost rows would silently
degrade.  :class:`GuaranteeAuditor` closes the loop: it Bernoulli-
samples live queries at a configurable rate, re-answers each sample
*exactly* by linear scan (:class:`~repro.baselines.linear_scan.
LinearScan`) on a background thread, and publishes rolling quality
gauges next to the serving metrics:

==========================================  =======  ====================
metric                                      kind     meaning
==========================================  =======  ====================
``lazylsh_audit_recall_at_k``               gauge    rolling mean recall@k
``lazylsh_audit_overall_ratio``             gauge    rolling mean ratio
``lazylsh_audit_success_rate``              gauge    fraction of sampled
                                                     queries meeting the
                                                     c-approximation
``lazylsh_audit_guarantee_bound``           gauge    ``max(0, 1/2 - beta)``
``lazylsh_audit_samples_total``             counter  audited queries
``lazylsh_audit_dropped_total``             counter  samples shed (queue
                                                     full)
``lazylsh_audit_alerts_total``              counter  bound violations
==========================================  =======  ====================

When the rolling success rate (after ``min_samples`` audits) drops
below the bound, the auditor logs one warning per violation episode and
bumps the alert counter — the operator-facing signal that the served
quality no longer matches the theory.

The audit path is deliberately *off* the query path: ``observe`` does
an O(1) coin flip plus a non-blocking queue put; the linear scans run
on a daemon thread (``background=False`` audits inline, for tests).
"""

from __future__ import annotations

import logging
import queue
import threading
from collections import deque
from typing import Any

import numpy as np

from repro.baselines.linear_scan import LinearScan
from repro.errors import InvalidParameterError
from repro.eval.ratio import overall_ratio
from repro.eval.recall import recall_at_k
from repro.obs.registry import MetricsRegistry

logger = logging.getLogger("repro.obs.auditor")

#: Relative slack on the c-approximation check, absorbing float64
#: round-off between the engine's and the oracle's distance kernels.
_SUCCESS_EPS = 1e-9


class GuaranteeAuditor:
    """Samples served queries and audits them against exact linear scan.

    Parameters
    ----------
    index:
        The live :class:`~repro.core.lazylsh.LazyLSH` index.  The
        auditor snapshots its alive rows at construction; rebuild the
        auditor after compaction/removals.
    registry:
        Metrics registry the audit gauges are published into; a fresh
        private one by default (pass the serving telemetry's registry
        so ``/metrics`` carries the audit series).
    sample_rate:
        Bernoulli probability of auditing each observed query, in
        [0, 1].  1.0 audits everything (smoke runs); production rates
        are typically <= 0.01 since each audit is a full linear scan.
    window:
        Rolling window length (audited queries) for the gauges.
    min_samples:
        Violation alerts stay quiet until this many audits landed, so
        one unlucky early sample cannot page anyone.
    queue_size:
        Bound on the audit backlog; excess samples are shed (and
        counted) rather than blocking the query path.
    seed:
        Seed for the sampling coin.
    background:
        Run audits on a daemon thread (default).  ``False`` audits
        synchronously inside :meth:`observe` — deterministic for tests.
    flight_recorder:
        Optional :class:`~repro.obs.flight_recorder.FlightRecorder`;
        tripped with reason ``guarantee_violation`` when a violation
        episode *starts* (once per episode, like the alert counter).
    """

    def __init__(
        self,
        index: Any,
        *,
        registry: MetricsRegistry | None = None,
        sample_rate: float = 0.01,
        window: int = 256,
        min_samples: int = 8,
        queue_size: int = 64,
        seed: int = 0,
        background: bool = True,
        flight_recorder: Any = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise InvalidParameterError(
                f"sample_rate must lie in [0, 1], got {sample_rate}"
            )
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        self.sample_rate = float(sample_rate)
        self.min_samples = int(min_samples)
        self.c = float(index.config.c)
        self.bound = max(0.0, 0.5 - float(index.beta))
        # Oracle over the live rows only; tombstoned rows must not count
        # as "true" neighbours the approximate engine missed.
        self._alive_ids = np.flatnonzero(index._alive).astype(np.int64)
        self._oracle = LinearScan(index.data[self._alive_ids])
        self._rng = np.random.default_rng(seed)
        self._window: deque[dict] = deque(maxlen=int(window))
        self._lock = threading.Lock()
        self._in_violation = False
        self.flight_recorder = flight_recorder

        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        self._g_recall = reg.gauge(
            "lazylsh_audit_recall_at_k",
            "Rolling mean recall@k of audited queries vs exact linear scan",
        )
        self._g_ratio = reg.gauge(
            "lazylsh_audit_overall_ratio",
            "Rolling mean overall ratio of audited queries (1.0 = exact)",
        )
        self._g_success = reg.gauge(
            "lazylsh_audit_success_rate",
            "Fraction of audited queries meeting the c-approximation",
        )
        self._g_bound = reg.gauge(
            "lazylsh_audit_guarantee_bound",
            "Theorem 1 per-query success probability bound (1/2 - beta)",
        )
        self._g_bound.set(self.bound)
        self._c_samples = reg.counter(
            "lazylsh_audit_samples_total", "Queries audited by linear scan"
        )
        self._c_successes = reg.counter(
            "lazylsh_audit_successes_total",
            "Audited queries meeting the c-approximation (SLO SLI numerator)",
        )
        self._c_dropped = reg.counter(
            "lazylsh_audit_dropped_total",
            "Sampled queries shed because the audit queue was full",
        )
        self._c_alerts = reg.counter(
            "lazylsh_audit_alerts_total",
            "Episodes where the rolling success rate undercut the bound",
        )

        self._queue: queue.Queue | None = None
        self._thread: threading.Thread | None = None
        if background:
            self._queue = queue.Queue(maxsize=int(queue_size))
            self._thread = threading.Thread(
                target=self._worker,
                args=(self._queue,),
                name="guarantee-auditor",
                daemon=True,
            )
            self._thread.start()

    # -- query-path hook -------------------------------------------------

    def observe(
        self,
        query: np.ndarray,
        *,
        k: int,
        p: float,
        ids: np.ndarray,
        distances: np.ndarray,
    ) -> bool:
        """Offer one served query for auditing.

        ``ids``/``distances`` are the engine's reported neighbours
        (ascending).  Returns True when the query was sampled (it may
        still be shed if the audit queue is full).
        """
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return False
        item = {
            "query": np.array(query, dtype=np.float64, copy=True),
            "k": int(k),
            "p": float(p),
            "ids": np.array(ids, dtype=np.int64, copy=True),
            "distances": np.array(distances, dtype=np.float64, copy=True),
        }
        if self._queue is None:
            self._audit(item)
            return True
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self._c_dropped.inc()
        return True

    # -- audit machinery -------------------------------------------------

    def _worker(self, q: queue.Queue) -> None:
        # The queue is passed in (not read off self) so close() can null
        # self._queue without racing the final task_done.
        while True:
            item = q.get()
            if item is None:  # close() sentinel
                q.task_done()
                return
            try:
                self._audit(item)
            except Exception:
                logger.exception("guarantee audit failed; sample skipped")
            finally:
                q.task_done()

    def _audit(self, item: dict) -> None:
        k = min(item["k"], self._oracle.num_points)
        truth = self._oracle.knn(item["query"], k, p=item["p"])
        true_ids = self._alive_ids[truth.ids]
        true_dists = truth.distances
        reported_ids = item["ids"][:k]
        reported_dists = item["distances"][:k]
        recall = recall_at_k(reported_ids, true_ids)
        ratio = (
            overall_ratio(reported_dists, true_dists)
            if reported_dists.size == true_dists.size
            and reported_dists.size > 0
            else float("nan")
        )
        # Theorem 1 success: every reported i-th distance within c times
        # the true i-th distance (and a full result set was returned).
        success = bool(
            reported_dists.size == true_dists.size
            and np.all(
                reported_dists
                <= self.c * true_dists * (1.0 + _SUCCESS_EPS) + _SUCCESS_EPS
            )
        )
        with self._lock:
            self._window.append(
                {"recall": recall, "ratio": ratio, "success": success}
            )
            self._c_samples.inc()
            if success:
                self._c_successes.inc()
            rolled = list(self._window)
            n = len(rolled)
            recall_mean = float(np.mean([s["recall"] for s in rolled]))
            ratios = [s["ratio"] for s in rolled if np.isfinite(s["ratio"])]
            ratio_mean = float(np.mean(ratios)) if ratios else float("nan")
            success_rate = float(
                np.mean([1.0 if s["success"] else 0.0 for s in rolled])
            )
            self._g_recall.set(recall_mean)
            if np.isfinite(ratio_mean):
                self._g_ratio.set(ratio_mean)
            self._g_success.set(success_rate)
            violating = n >= self.min_samples and success_rate < self.bound
            episode_started = violating and not self._in_violation
            if episode_started:
                self._c_alerts.inc()
                logger.warning(
                    "guarantee violation: rolling success rate %.3f over "
                    "%d audited queries undercuts the 1/2 - beta bound "
                    "%.3f (c=%g)",
                    success_rate,
                    n,
                    self.bound,
                    self.c,
                )
            self._in_violation = violating
        # Outside the lock: the recorder snapshots the registry, which
        # may itself read auditor gauges.
        if episode_started and self.flight_recorder is not None:
            self.flight_recorder.trigger(
                "guarantee_violation",
                success_rate=success_rate,
                bound=self.bound,
                window=n,
            )

    # -- lifecycle / introspection ---------------------------------------

    def drain(self, timeout: float | None = None) -> None:
        """Block until every queued sample has been audited.

        ``timeout`` bounds the wait (None = wait forever); background
        mode only — inline mode has nothing to drain.
        """
        q = self._queue
        if q is None:
            return
        if timeout is None:
            q.join()
            return
        done = threading.Event()

        def waiter() -> None:
            q.join()
            done.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        if not done.wait(timeout):
            raise TimeoutError(
                f"audit queue did not drain within {timeout:g}s"
            )

    def close(self) -> None:
        """Stop the background thread after finishing queued audits."""
        q, thread = self._queue, self._thread
        self._queue = None
        self._thread = None
        if q is not None:
            q.put(None)
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "GuaranteeAuditor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def summary(self) -> dict:
        """Rolling-window aggregates as a plain dict."""
        with self._lock:
            rolled = list(self._window)
        n = len(rolled)
        ratios = [s["ratio"] for s in rolled if np.isfinite(s["ratio"])]
        return {
            "samples": int(self._c_samples.value()),
            "window": n,
            "recall_at_k": (
                float(np.mean([s["recall"] for s in rolled])) if n else None
            ),
            "overall_ratio": float(np.mean(ratios)) if ratios else None,
            "success_rate": (
                float(np.mean([s["success"] for s in rolled])) if n else None
            ),
            "bound": self.bound,
            "alerts": int(self._c_alerts.value()),
            "dropped": int(self._c_dropped.value()),
        }
