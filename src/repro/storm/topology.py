"""Topology definition: spouts, bolts, and the builder wiring them.

Follows Storm's ``TopologyBuilder`` API shape:

.. code-block:: python

    builder = TopologyBuilder()
    builder.set_spout("source", lambda: MySpout(), parallelism=1)
    builder.set_bolt("worker", lambda: MyBolt(), parallelism=5) \\
           .shuffle_grouping("source")
    topology = builder.build()

Components are instantiated per *task* from the given factory, so each
task owns independent state (Storm serializes and copies; we call the
factory).
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bounds import COUNT
from repro.storm.grouping import ShuffleGrouping, StreamGrouping
from repro.storm.tuples import StormTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.storm.executor import BoltCollector, SpoutCollector, TaskContext


class Spout(abc.ABC):
    """A stream source.

    Virtual-time deviation from Storm: :meth:`next_tuple` returns the
    delay (in simulated milliseconds) until the engine should call it
    again, or ``None`` to use the cluster's idle backoff.  Emitting zero
    or more tuples per call is allowed, as in Storm.
    """

    def open(self, context: "TaskContext", collector: "SpoutCollector") -> None:
        """Called once before the first :meth:`next_tuple`."""

    @abc.abstractmethod
    def next_tuple(self) -> float | None:
        """Emit pending tuples via the collector; return the next-call delay."""

    def ack(self, msg_id) -> None:
        """A tuple tree rooted at ``msg_id`` completed."""

    def fail(self, msg_id) -> None:
        """A tuple tree rooted at ``msg_id`` failed or timed out."""

    def close(self) -> None:
        """Called at topology shutdown."""


class Bolt(abc.ABC):
    """A processing operator.

    Virtual-time deviation from Storm: :meth:`work_time` declares the
    simulated execution duration of a tuple (stand-in for the measured
    wall-clock time of ``execute`` in the paper's prototype; their test
    bolts busy-waited for a content-dependent duration).
    """

    def prepare(self, context: "TaskContext", collector: "BoltCollector") -> None:
        """Called once before the first :meth:`execute`."""

    def work_time(self, tup: StormTuple) -> float:
        """Simulated execution duration in milliseconds (default: instant)."""
        return 0.0

    @abc.abstractmethod
    def execute(self, tup: StormTuple) -> None:
        """Process one tuple; emit/ack/fail through the collector."""

    def cleanup(self) -> None:
        """Called at topology shutdown."""


@dataclass
class SpoutSpec:
    """A named spout with its task factory and parallelism."""

    name: str
    factory: Callable[[], Spout]
    parallelism: int
    output_fields: tuple[str, ...]


@dataclass
class _Subscription:
    """One inbound edge of a bolt: (source component -> grouping)."""

    source: str
    grouping: StreamGrouping


@dataclass
class BoltSpec:
    """A named bolt with its factory, parallelism and subscriptions."""

    name: str
    factory: Callable[[], Bolt]
    parallelism: int
    output_fields: tuple[str, ...]
    subscriptions: list[_Subscription] = field(default_factory=list)

    # -- grouping declaration API (chainable, like Storm's InputDeclarer) --
    def shuffle_grouping(self, source: str) -> "BoltSpec":
        """Subscribe with Storm's stock shuffle grouping (ASSG)."""
        self.subscriptions.append(_Subscription(source, ShuffleGrouping()))
        return self

    def custom_grouping(self, source: str, grouping: StreamGrouping) -> "BoltSpec":
        """Subscribe with a user grouping (how POSG plugs in)."""
        self.subscriptions.append(_Subscription(source, grouping))
        return self


@dataclass(frozen=True)
class Topology:
    """An immutable, validated topology ready for submission."""

    spouts: dict[str, SpoutSpec]
    bolts: dict[str, BoltSpec]

    def component(self, name: str) -> SpoutSpec | BoltSpec:
        """Look up any component by name."""
        if name in self.spouts:
            return self.spouts[name]
        if name in self.bolts:
            return self.bolts[name]
        raise KeyError(f"unknown component {name!r}")

    def downstream_of(self, source: str) -> list[tuple[BoltSpec, StreamGrouping]]:
        """Every (bolt, grouping) subscribed to ``source``."""
        return [
            (bolt, sub.grouping)
            for bolt in self.bolts.values()
            for sub in bolt.subscriptions
            if sub.source == source
        ]


class TopologyBuilder:
    """Collects component declarations and validates the graph."""

    def __init__(self) -> None:
        self._spouts: dict[str, SpoutSpec] = {}
        self._bolts: dict[str, BoltSpec] = {}

    def set_spout(
        self,
        name: str,
        factory: Callable[[], Spout],
        parallelism: int = 1,
        output_fields: tuple[str, ...] = ("value",),
    ) -> SpoutSpec:
        """Declare a spout; returns its spec."""
        self._check_name(name)
        parallelism = COUNT.check("parallelism", parallelism)
        spec = SpoutSpec(name, factory, parallelism, tuple(output_fields))
        self._spouts[name] = spec
        return spec

    def set_bolt(
        self,
        name: str,
        factory: Callable[[], Bolt],
        parallelism: int = 1,
        output_fields: tuple[str, ...] = ("value",),
    ) -> BoltSpec:
        """Declare a bolt; returns its spec for grouping declarations."""
        self._check_name(name)
        parallelism = COUNT.check("parallelism", parallelism)
        spec = BoltSpec(name, factory, parallelism, tuple(output_fields))
        self._bolts[name] = spec
        return spec

    def _check_name(self, name: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        if name in self._spouts or name in self._bolts:
            raise ValueError(f"component {name!r} already declared")

    def build(self) -> Topology:
        """Validate and freeze the topology."""
        if not self._spouts:
            raise ValueError("a topology needs at least one spout")
        known = set(self._spouts) | set(self._bolts)
        for bolt in self._bolts.values():
            if not bolt.subscriptions:
                raise ValueError(f"bolt {bolt.name!r} subscribes to nothing")
            for sub in bolt.subscriptions:
                if sub.source not in known:
                    raise ValueError(
                        f"bolt {bolt.name!r} subscribes to unknown component "
                        f"{sub.source!r}"
                    )
        self._check_acyclic()
        return Topology(spouts=dict(self._spouts), bolts=dict(self._bolts))

    def _check_acyclic(self) -> None:
        """Topologies are DAGs; reject subscription cycles."""
        edges: dict[str, set[str]] = {name: set() for name in self._bolts}
        for bolt in self._bolts.values():
            for sub in bolt.subscriptions:
                if sub.source in self._bolts:
                    edges[bolt.name].add(sub.source)
        visiting: set[str] = set()
        done: set[str] = set()

        def visit(node: str) -> None:
            if node in done:
                return
            if node in visiting:
                raise ValueError(f"topology contains a cycle through {node!r}")
            visiting.add(node)
            for upstream in edges[node]:
                visit(upstream)
            visiting.discard(node)
            done.add(node)

        for name in edges:
            visit(name)
