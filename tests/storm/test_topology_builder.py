"""Tests for the topology builder and grouping declarations."""

import pytest

from repro.storm.components import ForwardingBolt, WorkBolt
from repro.storm.grouping import AllGrouping, ShuffleGrouping
from repro.storm.topology import TopologyBuilder
from repro.storm.tuples import StormTuple

import numpy as np


def dummy_spout():
    from repro.storm.components import StreamSpout
    from repro.workloads.synthetic import Stream
    stream = Stream(
        items=np.array([0]),
        base_times=np.array([1.0]),
        arrivals=np.array([0.0]),
        n=1,
        time_table=np.array([1.0]),
    )
    return StreamSpout(stream)


def dummy_bolt():
    return WorkBolt(np.array([1.0]))


class TestBuilder:
    def test_basic_build(self):
        builder = TopologyBuilder()
        builder.set_spout("src", dummy_spout, output_fields=("value", "index"))
        builder.set_bolt("op", dummy_bolt, parallelism=3).shuffle_grouping("src")
        topology = builder.build()
        assert topology.spouts["src"].parallelism == 1
        assert topology.bolts["op"].parallelism == 3

    def test_duplicate_name_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("x", dummy_spout)
        with pytest.raises(ValueError):
            builder.set_bolt("x", dummy_bolt)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TopologyBuilder().set_spout("", dummy_spout)

    def test_zero_parallelism_rejected(self):
        with pytest.raises(ValueError):
            TopologyBuilder().set_spout("s", dummy_spout, parallelism=0)

    def test_no_spout_rejected(self):
        builder = TopologyBuilder()
        builder.set_bolt("op", dummy_bolt).shuffle_grouping("op")
        with pytest.raises(ValueError):
            builder.build()

    def test_unsubscribed_bolt_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("src", dummy_spout)
        builder.set_bolt("op", dummy_bolt)
        with pytest.raises(ValueError):
            builder.build()

    def test_unknown_source_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("src", dummy_spout)
        builder.set_bolt("op", dummy_bolt).shuffle_grouping("ghost")
        with pytest.raises(ValueError):
            builder.build()

    def test_cycle_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("src", dummy_spout)
        builder.set_bolt("a", ForwardingBolt).shuffle_grouping("b")
        builder.set_bolt("b", ForwardingBolt).shuffle_grouping("a")
        with pytest.raises(ValueError):
            builder.build()

    def test_downstream_of(self):
        builder = TopologyBuilder()
        builder.set_spout("src", dummy_spout)
        builder.set_bolt("a", dummy_bolt).shuffle_grouping("src")
        builder.set_bolt("b", dummy_bolt).shuffle_grouping("src")
        topology = builder.build()
        names = {bolt.name for bolt, _ in topology.downstream_of("src")}
        assert names == {"a", "b"}

    def test_component_lookup(self):
        builder = TopologyBuilder()
        builder.set_spout("src", dummy_spout)
        builder.set_bolt("op", dummy_bolt).shuffle_grouping("src")
        topology = builder.build()
        assert topology.component("src").name == "src"
        assert topology.component("op").name == "op"
        with pytest.raises(KeyError):
            topology.component("nope")


def edge_tuple(values, fields=("value", "index")):
    return StormTuple(
        values=list(values), fields=fields, source_component="s", source_task=0
    )


class TestGroupings:
    def test_shuffle_round_robin(self):
        grouping = ShuffleGrouping()
        grouping.prepare("src", [0, 1, 2])
        picks = [grouping.choose_tasks(edge_tuple([i, i]))[0] for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_all_grouping(self):
        grouping = AllGrouping()
        grouping.prepare("src", [0, 1])
        assert grouping.choose_tasks(edge_tuple([1, 1])) == [0, 1]

    def test_prepare_requires_tasks(self):
        with pytest.raises(ValueError):
            ShuffleGrouping().prepare("src", [])
