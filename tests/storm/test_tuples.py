"""Tests for StormTuple."""

import pytest

from repro.storm.tuples import StormTuple


def make_tuple(values=(42, 7), fields=("value", "index")):
    return StormTuple(
        values=list(values),
        fields=tuple(fields),
        source_component="spout",
        source_task=0,
    )


class TestFields:
    def test_value_by_field(self):
        tup = make_tuple()
        assert tup.value("value") == 42
        assert tup.value("index") == 7

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            make_tuple().value("missing")

    def test_select(self):
        assert make_tuple().select(("index", "value")) == (7, 42)


class TestAnchoring:
    def test_unanchored_by_default(self):
        assert not make_tuple().anchored

    def test_anchored_with_root(self):
        tup = make_tuple()
        tup.root_id = 5
        assert tup.anchored
