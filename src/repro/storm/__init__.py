"""A miniature Apache-Storm-like stream processing engine.

The paper evaluates a POSG prototype "implemented as a custom grouping
function within the Apache Storm framework" on an Azure cluster (Section
V-C).  Storm and the cluster are unavailable here, so this package
implements the relevant slice of Storm's execution model from scratch,
running on the virtual-time event engine of :mod:`repro.simulator`:

- **topologies** of spouts and bolts with per-component parallelism
  (:mod:`~repro.storm.topology`);
- **stream groupings** — Storm's stock shuffle grouping (round-robin,
  called *ASSG* in the paper), the all grouping, and the
  ``CustomStreamGrouping`` extension point POSG plugs into
  (:mod:`~repro.storm.grouping`, :mod:`~repro.storm.posg_grouping`);
- **reliability**: XOR-based ack tracking, per-tuple timeouts and
  ``max.spout.pending`` backpressure (:mod:`~repro.storm.acker`), which
  produce the tuple-timeout behaviour Figures 11/12 report for ASSG;
- a **local cluster** driver (:mod:`~repro.storm.cluster`).

Virtual time substitutes for wall-clock time: bolts declare the simulated
work a tuple costs (``work_time``), standing in for the busy-waiting the
paper's prototype used.
"""

from repro.storm.tuples import StormTuple, Values
from repro.storm.topology import (
    Bolt,
    BoltSpec,
    Spout,
    SpoutSpec,
    TopologyBuilder,
    Topology,
)
from repro.storm.grouping import (
    AllGrouping,
    CustomStreamGrouping,
    ShuffleGrouping,
    StreamGrouping,
)
from repro.storm.acker import AckTracker
from repro.storm.cluster import ClusterConfig, LocalCluster
from repro.storm.metrics import TopologyMetrics
from repro.storm.posg_grouping import POSGShuffleGrouping

__all__ = [
    "StormTuple",
    "Values",
    "Spout",
    "Bolt",
    "SpoutSpec",
    "BoltSpec",
    "TopologyBuilder",
    "Topology",
    "StreamGrouping",
    "ShuffleGrouping",
    "AllGrouping",
    "CustomStreamGrouping",
    "AckTracker",
    "ClusterConfig",
    "LocalCluster",
    "TopologyMetrics",
    "POSGShuffleGrouping",
]
