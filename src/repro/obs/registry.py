"""Process-local metrics registry: counters, gauges and histograms.

The paper's entire evaluation (Section 5) is read off internal counters —
simulated I/Os, candidate counts, rounds — so the query engine needs a
first-class place to put them.  :class:`MetricsRegistry` keeps named
instruments, each optionally keyed by a small label set, and exports the
whole registry either as a plain dict (for JSON run records) or in the
Prometheus text exposition format (for scraping a long-running server).

Instruments are deliberately minimal and dependency-free:

* :class:`Counter` — monotonically increasing float,
* :class:`Gauge` — last-written float,
* :class:`Histogram` — fixed upper-bound buckets chosen at creation time
  (no dynamic rebucketing; the registry is on the query path).

Every mutation is O(1) on a dict keyed by the sorted label items, so the
registry is cheap enough to update once per query.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import InvalidParameterError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical hashable key for a label set (values stringified)."""
    if not labels:
        return ()
    for name in labels:
        if not _LABEL_RE.match(name):
            raise InvalidParameterError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring per the text exposition format.

    Only backslash and line feed are escaped on HELP lines (quotes are
    legal there, unlike in label values).
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared naming/labelling machinery of all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise InvalidParameterError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    def reset(self) -> None:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def render(self) -> list[str]:
        raise NotImplementedError

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _Series(_Instrument):
    """One float per label set: the body Counter and Gauge share."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def value(self, **labels: Any) -> float:
        """Current value of the labelled series (0 if never written)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labelled series (0.0 when never written).

        The SLO engine reads SLIs off counters that the query path keys
        by engine/shard labels; the objective cares about the aggregate.
        """
        return sum(self._values.values())

    def reset(self) -> None:
        self._values.clear()

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }

    def render(self) -> list[str]:
        lines = self._header()
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_number(self._values[key])}"
            )
        return lines


class Counter(_Series):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Series):
    """Last-written value, optionally labelled."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Overwrite the labelled series with ``value``."""
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    An observation lands in the first bucket whose bound is >= value.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", *, buckets: Sequence[float]
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise InvalidParameterError(
                f"histogram {name} needs at least one bucket bound"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidParameterError(
                f"histogram {name} buckets must be strictly increasing, "
                f"got {bounds}"
            )
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf bucket is implicit
        self.buckets = bounds
        self._series: dict[LabelKey, dict] = {}

    def _get(self, key: LabelKey) -> dict:
        series = self._series.get(key)
        if series is None:
            series = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation in the labelled series."""
        series = self._get(_label_key(labels))
        series["counts"][bisect_left(self.buckets, float(value))] += 1
        series["sum"] += float(value)
        series["count"] += 1

    def count(self, **labels: Any) -> int:
        """Number of observations in the labelled series."""
        series = self._series.get(_label_key(labels))
        return 0 if series is None else series["count"]

    def sum(self, **labels: Any) -> float:
        """Sum of observed values in the labelled series."""
        series = self._series.get(_label_key(labels))
        return 0.0 if series is None else series["sum"]

    def bucket_counts(self, **labels: Any) -> list[int]:
        """Per-bucket (non-cumulative) counts, last entry is +Inf."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        return list(series["counts"])

    def reset(self) -> None:
        self._series.clear()

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": [
                {
                    "labels": dict(key),
                    "counts": list(series["counts"]),
                    "sum": series["sum"],
                    "count": series["count"],
                }
                for key, series in sorted(self._series.items())
            ],
        }

    def render(self) -> list[str]:
        lines = self._header()
        bounds = [_format_number(b) for b in self.buckets] + ["+Inf"]
        for key in sorted(self._series):
            series = self._series[key]
            cumulative = 0
            for bound, count in zip(bounds, series["counts"]):
                cumulative += count
                labels = _render_labels(key, (("le", bound),))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_number(series['sum'])}"
            )
            lines.append(
                f"{self.name}_count{_render_labels(key)} {series['count']}"
            )
        return lines


class MetricsRegistry:
    """Named instruments with get-or-create registration.

    Registration is idempotent — asking for an existing name returns the
    existing instrument — but the kind (and, for histograms, the bucket
    bounds) must match, so two subsystems cannot silently fight over one
    name.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise InvalidParameterError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind}, not a {cls.kind}"
                )
            if cls is Histogram and "buckets" in kwargs:
                bounds = tuple(float(b) for b in kwargs["buckets"])
                if bounds[-1] == float("inf"):
                    bounds = bounds[:-1]
                if bounds != existing.buckets:
                    raise InvalidParameterError(
                        f"histogram {name!r} re-registered with different "
                        f"buckets"
                    )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", *, buckets: Sequence[float]
    ) -> Histogram:
        """Get or create a :class:`Histogram` with the given buckets."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        """The registered instrument, or None."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """Registered metric names, in registration order."""
        return list(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterable[_Instrument]:
        return iter(self._instruments.values())

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of every instrument."""
        return {
            name: instrument.to_dict()
            for name, instrument in self._instruments.items()
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        One ``# HELP``/``# TYPE`` header per metric family (emitted once
        even when the family has many labeled children), label values
        escaped per the exposition rules.  Iterates over a snapshot of
        the instrument table so a background exporter thread can render
        while the query path registers new instruments.
        """
        lines: list[str] = []
        for instrument in list(self._instruments.values()):
            lines.extend(instrument.render())
        return "\n".join(lines) + ("\n" if lines else "")


#: Shared process-wide registry for callers that want one aggregation
#: point across many indexes / telemetry objects.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-local shared registry (created on import)."""
    return _DEFAULT_REGISTRY
