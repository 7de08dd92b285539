"""Query EXPLAIN: the plan/cost report of one Np(q, k, c) run.

LazyLSH has no optimizer, but Algorithm 4 still executes a *plan*: a
sequence of rehashing rounds, each scanning wider query windows over the
same base index (radius ``delta * c^j``), promoting candidates whose
collision counters cross the threshold, until either ``k`` neighbours
sit within ``c * delta`` (``k_within_radius``) or the candidate budget
``k + beta * n`` is exhausted (``candidate_cap``).

An EXPLAIN record is the query's trace record,
:meth:`~repro.obs.query_trace.QueryTrace.to_dict`: per-round
``collisions`` (window entries scanned), ``crossings`` (candidates
promoted), cumulative ``candidates`` and ``within`` counts and the
round's simulated I/O delta, plus ``termination``, ``cap``, the
sharded service's per-shard ``shard_io`` and the request's
``request_id``/``trace_id``.  There is no second instrumentation path
and no second schema: :func:`~repro.obs.query_trace.validate_trace_dict`
checks it, including the rule that the per-round I/O deltas sum to the
totals.  The service carries it on ``SearchResult.explain`` when asked
with ``explain=True``, the v1 wire codec ships it as a plain dict, and
:func:`render_explain` prints it for humans (the ``repro explain``
subcommand), working out each round's progress towards ``k`` and the
cap and the skew between the busiest shard and the mean as it prints.
"""

from __future__ import annotations


def render_explain(record: dict) -> str:
    """Human-readable rendering of one query record (CLI output)."""
    lines = []
    header = (
        f"EXPLAIN  Np(q, k={record['k']}, p={record['p']})"
        f"  engine={record['engine']}  rehashing={record['rehashing']}"
    )
    lines.append(header)
    ids = [
        f"{name}={record[name]}"
        for name in ("query_id", "request_id", "trace_id")
        if record.get(name) is not None
    ]
    if ids:
        lines.append("  " + "  ".join(ids))
    cap = record.get("cap")
    lines.append(
        f"  terminated: {record['termination']}"
        f"  candidates={record['candidates']}"
        + (f"/{cap} cap" if cap is not None else "")
        + (
            f"  elapsed={record['elapsed_seconds'] * 1e3:.2f}ms"
            if record.get("elapsed_seconds") is not None
            else ""
        )
    )
    io = record["io"]
    lines.append(
        f"  io: sequential={io['sequential']}  random={io['random']}"
        f"  (simulated page charges)"
    )
    lines.append("")
    lines.append(
        "  round  radius      windows  promoted  cand.  within  "
        "k-prog  cap-prog  io(seq/rnd)"
    )
    for rnd in record["rounds"]:
        cap_cell = (
            f"{rnd['candidates'] / cap:>8.0%}" if cap else f"{'-':>8}"
        )
        lines.append(
            f"  {rnd['round']:>5}  {rnd['radius']:<10.4g}"
            f"  {rnd['collisions']:>7}  {rnd['crossings']:>8}"
            f"  {rnd['candidates']:>5}  {rnd['within']:>6}"
            f"  {rnd['within'] / record['k']:>6.0%}  {cap_cell}"
            f"  {rnd['io']['sequential']}/{rnd['io']['random']}"
        )
    shard_io = record.get("shard_io")
    if shard_io:
        random_io = [int(io["random"]) for io in shard_io]
        mean = sum(random_io) / len(random_io)
        busiest = max(range(len(random_io)), key=random_io.__getitem__)
        lines.append("")
        lines.append(
            f"  shards: {len(random_io)}"
            f"  random_io={random_io}"
            f"  busiest=shard[{busiest}]"
            + (f"  skew={max(random_io) / mean:.2f}x mean" if mean > 0 else "")
        )
    return "\n".join(lines) + "\n"
