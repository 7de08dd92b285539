"""Structured per-query trace records for Algorithm 4 executions.

A :class:`QueryTrace` captures what the paper's evaluation (Section 5)
reads off internal counters, but per query and per rehashing round:
collision counts, threshold crossings (candidate promotions), cumulative
candidate / within-radius counters, the simulated I/O delta of each
round, and why the query terminated.  Every run builds one, with or
without telemetry, and its result carries it as ``result.trace``.  The
flat and scalar engines build it through the same
:class:`QueryTraceBuilder` hook surface, so a trace is comparable across
execution plans — round structure, I/O deltas and the termination reason
are bit-identical between the two.  The sharded service
(:mod:`repro.serve`) builds one *merged* trace per query under
``engine="sharded"``, again through the same hooks and with the same
cross-plan invariants.

Serialisation is one JSON object per query (JSONL for a whole run);
:func:`validate_trace_dict` checks a record against :data:`TRACE_SCHEMA`
without any external schema library.  That dict is the one record of a
query run: EXPLAIN (the front door's ``"explain"`` section) is it, and a
slow-query log entry is it plus ``captured_at``.  Four optional serving
fields ride on it: the candidate budget ``cap``, the sharded service's
per-shard I/O list ``shard_io`` and the request's ``request_id`` and
``trace_id``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import ReproError
from repro.storage.io_stats import IOStats

#: Query stopped because ``k`` candidates lay within ``c * delta``
#: (Algorithm 4 line 15).
TERMINATION_K_WITHIN = "k_within_radius"

#: Query stopped because the candidate budget ``k + beta * n`` was
#: exhausted (Algorithm 4 line 16).
TERMINATION_CAP = "candidate_cap"

TERMINATION_REASONS = (TERMINATION_K_WITHIN, TERMINATION_CAP)

#: Trace record version; bump on breaking schema changes.
TRACE_VERSION = 1


class TraceSchemaError(ReproError, ValueError):
    """A trace record does not conform to :data:`TRACE_SCHEMA`."""


#: JSON-Schema-shaped description of one serialised :class:`QueryTrace`.
#: Kept data-only so external tooling can consume it; the in-repo
#: validator (:func:`validate_trace_dict`) implements exactly this.
TRACE_SCHEMA: dict = {
    "type": "object",
    "required": [
        "version",
        "p",
        "k",
        "engine",
        "rehashing",
        "termination",
        "candidates",
        "num_rounds",
        "io",
        "rounds",
    ],
    "properties": {
        "version": {"type": "integer", "const": TRACE_VERSION},
        "query_id": {"type": ["integer", "null"]},
        "p": {"type": "number", "exclusiveMinimum": 0},
        "k": {"type": "integer", "minimum": 1},
        "engine": {"type": "string", "enum": ["flat", "scalar", "sharded"]},
        "rehashing": {"type": "string"},
        "termination": {"type": "string", "enum": list(TERMINATION_REASONS)},
        "candidates": {"type": "integer", "minimum": 0},
        "num_rounds": {"type": "integer", "minimum": 1},
        "elapsed_seconds": {"type": ["number", "null"], "minimum": 0},
        "io": {
            "type": "object",
            "required": ["sequential", "random"],
            "properties": {
                "sequential": {"type": "integer", "minimum": 0},
                "random": {"type": "integer", "minimum": 0},
            },
        },
        "cap": {"type": ["integer", "null"], "minimum": 1},
        "shard_io": {
            "type": ["array", "null"],
            "items": {"type": "object", "required": ["sequential", "random"]},
        },
        "request_id": {"type": ["string", "null"]},
        "trace_id": {"type": ["string", "null"]},
        "rounds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "round",
                    "level",
                    "radius",
                    "collisions",
                    "crossings",
                    "candidates",
                    "within",
                    "io",
                ],
                "properties": {
                    "round": {"type": "integer", "minimum": 1},
                    "level": {"type": "number"},
                    "radius": {"type": "number"},
                    "collisions": {"type": "integer", "minimum": 0},
                    "crossings": {"type": "integer", "minimum": 0},
                    "candidates": {"type": "integer", "minimum": 0},
                    "within": {"type": "integer", "minimum": 0},
                    "io": {
                        "type": "object",
                        "required": ["sequential", "random"],
                    },
                },
            },
        },
    },
}


@dataclass
class RoundRecord:
    """One rehashing round of one query.

    ``collisions`` counts inverted-list entries consumed (collision
    counter increments), ``crossings`` the candidates promoted this
    round; ``candidates``/``within`` are cumulative at round end, and
    ``io`` is the round's simulated I/O *delta*.
    """

    round: int
    level: float
    radius: float
    collisions: int
    crossings: int
    candidates: int
    within: int
    io: IOStats = field(default_factory=IOStats)

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "level": self.level,
            "radius": self.radius,
            "collisions": self.collisions,
            "crossings": self.crossings,
            "candidates": self.candidates,
            "within": self.within,
            "io": self.io.to_dict(),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RoundRecord":
        return cls(
            round=record["round"],
            level=record["level"],
            radius=record["radius"],
            collisions=record["collisions"],
            crossings=record["crossings"],
            candidates=record["candidates"],
            within=record["within"],
            io=IOStats.from_dict(record["io"]),
        )


@dataclass
class QueryTrace:
    """Complete structured record of one ``Np(q, k, c)`` execution.

    ``cap`` is the candidate budget (``k + beta * n`` truncated, or the
    caller's override); ``shard_io``, ``request_id`` and ``trace_id``
    are set by the sharded service only.
    """

    p: float
    k: int
    engine: str
    rehashing: str
    termination: str
    candidates: int
    io: IOStats
    rounds: list[RoundRecord] = field(default_factory=list)
    query_id: int | None = None
    elapsed_seconds: float | None = None
    cap: int | None = None
    shard_io: list[IOStats] | None = None
    request_id: str | None = None
    trace_id: str | None = None

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def io_delta_sum(self) -> IOStats:
        """Sum of the per-round I/O deltas (equals :attr:`io` exactly)."""
        total = IOStats()
        for record in self.rounds:
            total.add_sequential(record.io.sequential)
            total.add_random(record.io.random)
        return total

    def to_dict(self) -> dict:
        return {
            "version": TRACE_VERSION,
            "query_id": self.query_id,
            "p": self.p,
            "k": self.k,
            "engine": self.engine,
            "rehashing": self.rehashing,
            "termination": self.termination,
            "candidates": self.candidates,
            "num_rounds": self.num_rounds,
            "elapsed_seconds": self.elapsed_seconds,
            "io": self.io.to_dict(),
            "cap": self.cap,
            "shard_io": (
                None if self.shard_io is None
                else [io.to_dict() for io in self.shard_io]
            ),
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "rounds": [record.to_dict() for record in self.rounds],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "QueryTrace":
        return cls(
            p=record["p"],
            k=record["k"],
            engine=record["engine"],
            rehashing=record["rehashing"],
            termination=record["termination"],
            candidates=record["candidates"],
            io=IOStats.from_dict(record["io"]),
            rounds=[RoundRecord.from_dict(r) for r in record["rounds"]],
            query_id=record.get("query_id"),
            elapsed_seconds=record.get("elapsed_seconds"),
            cap=record.get("cap"),
            shard_io=(
                None if record.get("shard_io") is None
                else [IOStats.from_dict(io) for io in record["shard_io"]]
            ),
            request_id=record.get("request_id"),
            trace_id=record.get("trace_id"),
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceSchemaError(message)


def validate_trace_dict(record: dict) -> None:
    """Validate one serialised trace against :data:`TRACE_SCHEMA`.

    Raises :class:`TraceSchemaError` on the first violation.  Also checks
    the cross-field invariant the schema cannot express: the per-round
    I/O deltas must sum to the trace's I/O totals exactly.  The serving
    fields are optional, so records written before they existed still
    validate.
    """
    _require(isinstance(record, dict), "trace record must be an object")
    for name in TRACE_SCHEMA["required"]:
        _require(name in record, f"trace record missing field {name!r}")
    _require(
        record["version"] == TRACE_VERSION,
        f"unsupported trace version {record['version']!r}",
    )
    _require(
        isinstance(record["p"], (int, float)) and record["p"] > 0,
        "p must be a positive number",
    )
    _require(
        isinstance(record["k"], int) and record["k"] >= 1,
        "k must be an integer >= 1",
    )
    _require(
        record["engine"] in ("flat", "scalar", "sharded"),
        f"unknown engine {record['engine']!r}",
    )
    _require(
        record["termination"] in TERMINATION_REASONS,
        f"unknown termination reason {record['termination']!r}",
    )
    _require(
        isinstance(record["candidates"], int) and record["candidates"] >= 0,
        "candidates must be a non-negative integer",
    )
    qid = record.get("query_id")
    _require(
        qid is None or isinstance(qid, int),
        "query_id must be an integer or null",
    )
    elapsed = record.get("elapsed_seconds")
    _require(
        elapsed is None or (isinstance(elapsed, (int, float)) and elapsed >= 0),
        "elapsed_seconds must be a non-negative number or null",
    )
    cap = record.get("cap")
    _require(
        cap is None or (isinstance(cap, int) and cap >= 1),
        "cap must be a positive integer or null",
    )
    for name in ("request_id", "trace_id"):
        value = record.get(name)
        _require(
            value is None or isinstance(value, str),
            f"{name} must be a string or null",
        )

    def check_io(io: object, where: str) -> tuple[int, int]:
        _require(isinstance(io, dict), f"{where} io must be an object")
        for axis in ("sequential", "random"):
            _require(
                isinstance(io.get(axis), int) and io[axis] >= 0,
                f"{where} io.{axis} must be a non-negative integer",
            )
        return io["sequential"], io["random"]

    total_seq, total_rnd = check_io(record["io"], "trace")
    shard_io = record.get("shard_io")
    if shard_io is not None:
        _require(isinstance(shard_io, list), "shard_io must be a list or null")
        for s, io in enumerate(shard_io):
            check_io(io, f"shard_io[{s}]")
    rounds = record["rounds"]
    _require(isinstance(rounds, list) and rounds, "rounds must be non-empty")
    _require(
        record["num_rounds"] == len(rounds),
        f"num_rounds={record['num_rounds']} but {len(rounds)} round records",
    )
    sum_seq = sum_rnd = 0
    for j, rnd in enumerate(rounds):
        where = f"round[{j}]"
        _require(isinstance(rnd, dict), f"{where} must be an object")
        for name in (
            "round",
            "level",
            "radius",
            "collisions",
            "crossings",
            "candidates",
            "within",
            "io",
        ):
            _require(name in rnd, f"{where} missing field {name!r}")
        _require(rnd["round"] == j + 1, f"{where} has round={rnd['round']}")
        for name in ("collisions", "crossings", "candidates", "within"):
            _require(
                isinstance(rnd[name], int) and rnd[name] >= 0,
                f"{where}.{name} must be a non-negative integer",
            )
        seq, rnd_io = check_io(rnd["io"], where)
        sum_seq += seq
        sum_rnd += rnd_io
    _require(
        (sum_seq, sum_rnd) == (total_seq, total_rnd),
        f"per-round I/O deltas sum to ({sum_seq}, {sum_rnd}) but the trace "
        f"total is ({total_seq}, {total_rnd})",
    )


class QueryTraceBuilder:
    """Incremental :class:`QueryTrace` construction hook for the engines.

    The engines call ``begin_round`` / ``add_collisions`` /
    ``add_crossings`` / ``end_round`` as Algorithm 4 progresses and
    ``finish`` once the query terminates.  The builder snapshots the
    query's :class:`IOStats` at round boundaries, so round records carry
    exact I/O deltas without the engine exposing private counters.
    """

    def __init__(
        self,
        *,
        p: float,
        k: int,
        engine: str,
        rehashing: str,
        query_id: int | None = None,
        cap: float | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.p = p
        self.k = k
        self.engine = engine
        self.rehashing = rehashing
        self.query_id = query_id
        self.cap = None if cap is None else int(cap)
        self.rounds: list[RoundRecord] = []
        self._clock = clock
        self._t0 = clock()
        self._cur: dict | None = None

    def begin_round(self, *, level: float, radius: float, io: IOStats) -> None:
        """Open a round record; ``io`` is snapshotted for the delta."""
        self._cur = {
            "level": float(level),
            "radius": float(radius),
            "seq0": io.sequential,
            "rnd0": io.random,
            "collisions": 0,
            "crossings": 0,
        }

    def add_collisions(self, count: int) -> None:
        """Record ``count`` collision-counter increments this round."""
        self._cur["collisions"] += int(count)

    def add_crossings(self, count: int) -> None:
        """Record ``count`` threshold crossings (promotions) this round."""
        self._cur["crossings"] += int(count)

    def end_round(self, *, io: IOStats, candidates: int, within: int) -> None:
        """Close the open round with cumulative counters and I/O delta."""
        cur = self._cur
        self.rounds.append(
            RoundRecord(
                round=len(self.rounds) + 1,
                level=cur["level"],
                radius=cur["radius"],
                collisions=cur["collisions"],
                crossings=cur["crossings"],
                candidates=int(candidates),
                within=int(within),
                io=IOStats(
                    sequential=io.sequential - cur["seq0"],
                    random=io.random - cur["rnd0"],
                ),
            )
        )
        self._cur = None

    def finish(
        self,
        *,
        termination: str,
        io: IOStats,
        candidates: int,
        shard_io: list[IOStats] | None = None,
        request_id: str | None = None,
        trace_id: str | None = None,
    ) -> QueryTrace:
        """Seal the trace with the termination reason and I/O totals.

        The sharded service also passes its serving fields.
        """
        return QueryTrace(
            p=self.p,
            k=self.k,
            engine=self.engine,
            rehashing=self.rehashing,
            termination=termination,
            candidates=int(candidates),
            io=io.snapshot(),
            rounds=self.rounds,
            query_id=self.query_id,
            elapsed_seconds=self._clock() - self._t0,
            cap=self.cap,
            shard_io=shard_io,
            request_id=request_id,
            trace_id=trace_id,
        )


def summarize_traces(traces: Iterable[QueryTrace]) -> dict:
    """Compact run summary: queries, I/O, terminations, rounds, candidates."""
    total = {"sequential": 0, "random": 0}
    reasons: dict[str, int] = {}
    queries = rounds = candidates = 0
    for trace in traces:
        queries += 1
        total["sequential"] += trace.io.sequential
        total["random"] += trace.io.random
        reasons[trace.termination] = reasons.get(trace.termination, 0) + 1
        rounds += trace.num_rounds
        candidates += trace.candidates
    return {
        "queries": queries,
        "io": total,
        "terminations": reasons,
        "rounds": rounds,
        "candidates": candidates,
    }


def write_traces_jsonl(
    traces: Iterable[QueryTrace], path: str | Path
) -> Path:
    """Write traces as one JSON object per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(json.dumps(trace.to_dict()) + "\n")
    return path


def load_traces_jsonl(
    path: str | Path, *, validate: bool = True
) -> list[QueryTrace]:
    """Read (and by default validate) traces from a JSONL file."""
    traces = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if validate:
                validate_trace_dict(record)
            traces.append(QueryTrace.from_dict(record))
    return traces
