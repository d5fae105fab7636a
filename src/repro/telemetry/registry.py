"""Metrics registry: counters, gauges, fixed-bucket histograms, collectors.

The registry is the numeric half of the telemetry layer (the structured
half is :mod:`repro.telemetry.tracer`).  Two usage modes coexist:

- **direct instruments** — a component asks the registry for a
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` once and updates
  it at observation points.  Instruments are keyed by ``(name, labels)``
  so repeated lookups return the same object;
- **collectors** — a component registers a zero-argument callable that
  yields :class:`Sample` objects on demand.  Collection happens only at
  export time (:meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.to_prometheus`), so mirroring counters that the
  component already tracks as plain ints costs *nothing* on the hot
  path — this is how the POSG scheduler and instance trackers export
  their statistics without touching the vectorized data plane.

Everything here is dependency-free (stdlib + numpy, which the repo
already requires); there is no global default registry — recorders own
their registry explicitly so concurrent runs never share state.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

#: label set normalized to a sorted tuple of (key, value) pairs
Labels = tuple[tuple[str, str], ...]


def _normalize_labels(labels: dict[str, object] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


@dataclass(frozen=True)
class Sample:
    """One exported metric value (what collectors yield)."""

    name: str
    value: float
    kind: str = "gauge"  # "counter" | "gauge"
    labels: Labels = ()
    help: str = ""

    @property
    def key(self) -> str:
        """Flat ``name{label="v",...}`` key used by snapshots."""
        return self.name + _render_labels(self.labels)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels: Labels = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[Sample]:
        return [Sample(self.name, self._value, "counter", self.labels, self.help)]


class Gauge:
    """Value that can go up and down."""

    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels: Labels = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[Sample]:
        return [Sample(self.name, self._value, "gauge", self.labels, self.help)]


#: default histogram buckets, in milliseconds (completion-time oriented)
DEFAULT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0,
)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    Bucket bounds are upper edges; an implicit ``+Inf`` bucket catches
    everything above the last bound (including non-finite observations).
    """

    __slots__ = ("name", "help", "labels", "_uppers", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
        labels: Labels = (),
    ) -> None:
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise ValueError("histogram needs at least one bucket bound")
        if any(u != u for u in uppers):  # NaN guard
            raise ValueError("bucket bounds must not be NaN")
        self.name = name
        self.help = help
        self.labels = labels
        self._uppers = uppers
        self._counts = [0] * (len(uppers) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        for index, upper in enumerate(self._uppers):
            if value <= upper:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    def observe_many(self, values) -> None:
        """Bulk :meth:`observe` (one vectorized pass over an array)."""
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        finite = array[np.isfinite(array)]
        slots = np.searchsorted(np.asarray(self._uppers), finite, side="left")
        binned = np.bincount(slots, minlength=len(self._uppers) + 1)
        for index, count in enumerate(binned):
            self._counts[index] += int(count)
        self._counts[-1] += int(array.size - finite.size)
        self._sum += float(array.sum())
        self._count += int(array.size)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> dict[str, int]:
        """Cumulative counts keyed by the ``le`` bound (Prometheus style)."""
        out: dict[str, int] = {}
        running = 0
        for upper, count in zip(self._uppers, self._counts):
            running += count
            out[_format_bound(upper)] = running
        out["+Inf"] = running + self._counts[-1]
        return out

    def samples(self) -> list[Sample]:
        out = []
        for bound, cumulative in self.bucket_counts().items():
            out.append(
                Sample(
                    self.name + "_bucket",
                    cumulative,
                    "counter",
                    self.labels + (("le", bound),),
                    self.help,
                )
            )
        out.append(Sample(self.name + "_sum", self._sum, "counter", self.labels, self.help))
        out.append(Sample(self.name + "_count", self._count, "counter", self.labels, self.help))
        return out


def _format_bound(bound: float) -> str:
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


Collector = Callable[[], Iterable[Sample]]


class Stat(NamedTuple):
    """One statistic a component keeps in a plain attribute, declared once:
    its ``stats()`` key, the attribute, its help text and, unless
    ``metric`` is ``None``, the sample it exports under the owner's label
    set named ``labels``."""

    key: str
    attr: str
    help: str
    metric: str | None = None
    kind: str = "counter"
    labels: str = ""


def stat_values(owner, table: tuple[Stat, ...]) -> dict:
    """``{key: value}`` of every row, in table order."""
    return {row.key: getattr(owner, row.attr) for row in table}


def stat_samples(owner, table: tuple[Stat, ...], labels: dict) -> list[Sample]:
    """One sample per exported row, labelled with ``labels[row.labels]``."""
    return [
        Sample(
            row.metric, getattr(owner, row.attr), row.kind, labels[row.labels], row.help
        )
        for row in table
        if row.metric is not None
    ]


def stat_properties(table: tuple[Stat, ...]):
    """Class decorator: a read-only property, named without the leading
    underscore, per row whose ``attr`` is private (a public ``attr`` names
    a hand-written property)."""

    def install(cls):
        for row in table:
            if row.attr.startswith("_"):
                accessor = property(attrgetter(row.attr), doc=row.help)
                setattr(cls, row.attr[1:], accessor)
        return cls

    return install


@dataclass
class _Family:
    """All instruments sharing one metric name (label variants)."""

    kind: str
    help: str
    instruments: dict[Labels, object] = field(default_factory=dict)


class MetricsRegistry:
    """Get-or-create registry of instruments plus on-demand collectors."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list[Collector] = []

    # ------------------------------------------------------------------
    # instrument factories (get-or-create by (name, labels))
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labels: dict | None = None
    ) -> Counter:
        return self._instrument(Counter, "counter", name, help, labels)

    def gauge(self, name: str, help: str = "", labels: dict | None = None) -> Gauge:
        return self._instrument(Gauge, "gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
        labels: dict | None = None,
    ) -> Histogram:
        key = _normalize_labels(labels)
        family = self._family("histogram", name, help)
        instrument = family.instruments.get(key)
        if instrument is None:
            instrument = Histogram(name, buckets=buckets, help=help, labels=key)
            family.instruments[key] = instrument
        return instrument  # type: ignore[return-value]

    def _instrument(self, cls, kind, name, help, labels):
        key = _normalize_labels(labels)
        family = self._family(kind, name, help)
        instrument = family.instruments.get(key)
        if instrument is None:
            instrument = cls(name, help=help, labels=key)
            family.instruments[key] = instrument
        return instrument

    def _family(self, kind: str, name: str, help: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(kind=kind, help=help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}"
            )
        return family

    # ------------------------------------------------------------------
    # collectors
    # ------------------------------------------------------------------
    def register_collector(self, collector: Collector) -> None:
        """Register a callable yielding :class:`Sample` at export time."""
        self._collectors.append(collector)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def samples(self) -> list[Sample]:
        """Every sample: direct instruments first, then collectors."""
        out: list[Sample] = []
        for family in self._families.values():
            for instrument in family.instruments.values():
                out.extend(instrument.samples())  # type: ignore[attr-defined]
        for collector in self._collectors:
            out.extend(collector())
        return out

    def snapshot(self) -> dict[str, float]:
        """Flat ``{key: value}`` view of every sample (tests, reports)."""
        return {sample.key: sample.value for sample in self.samples()}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        The 0.0.4 spec requires all samples of one metric family in a
        single group; collectors (e.g. one per instance tracker) each
        emit their own slice of shared families, so samples are grouped
        by base name here — in first-appearance order — before the
        HELP/TYPE headers are printed once per family.
        """
        grouped: dict[str, list[Sample]] = {}
        for sample in self.samples():
            grouped.setdefault(_base_name(sample.name), []).append(sample)
        lines: list[str] = []
        for base, samples in grouped.items():
            first = samples[0]
            help_text = (
                first.help or self._families.get(base, _Family("", "")).help
            )
            kind = (
                self._families[base].kind
                if base in self._families
                else ("counter" if first.kind == "counter" else "gauge")
            )
            if help_text:
                lines.append(f"# HELP {base} {help_text}")
            lines.append(f"# TYPE {base} {kind}")
            for sample in samples:
                lines.append(f"{sample.key} {_format_value(sample.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _base_name(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)
