"""Tests for the scaffold the run-level experiments share."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.grouping import POSGGrouping
from repro.experiments.scaffold import compact_setup, engines_agree, simulate


def _result():
    """A stand-in carrying exactly the fields ``engines_agree`` reads."""
    flight = [[(0, "fold", 3)], [(1, "route", 4)]]
    lineage = [[(7, 0.0, 1.0, 2.0)]]
    return SimpleNamespace(
        stats=SimpleNamespace(
            completions=np.array([1.0, 2.5, 4.0]),
            assignments=np.array([0, 1, 2]),
        ),
        state_transitions=[(10, "send_all"), (12, "wait_all")],
        control_messages=6,
        control_bits=640,
        flight=SimpleNamespace(timelines=lambda: flight),
        lineage=SimpleNamespace(timelines=lambda: lineage),
    )


def _flip_completion(result):
    result.stats.completions[1] += 1e-9


def _flip_assignment(result):
    result.stats.assignments[2] = 0


def _flip_transition(result):
    result.state_transitions[1] = (13, "wait_all")


def _flip_control_messages(result):
    result.control_messages += 1


def _flip_control_bits(result):
    result.control_bits += 64


def _flip_flight_record(result):
    timelines = copy.deepcopy(result.flight.timelines())
    timelines[1][0] = (1, "route", 5)
    result.flight = SimpleNamespace(timelines=lambda: timelines)


def _flip_lineage_record(result):
    timelines = copy.deepcopy(result.lineage.timelines())
    timelines[0][0] = (7, 0.0, 1.0, 2.5)
    result.lineage = SimpleNamespace(timelines=lambda: timelines)


def _detach_flight(result):
    result.flight = None


class TestEnginesAgree:
    def test_identical_runs_agree(self):
        assert engines_agree(_result(), _result(), _result()) is True

    def test_recorders_are_optional(self):
        plain = [_result() for _ in range(2)]
        for result in plain:
            result.flight = result.lineage = None
        assert engines_agree(*plain) is True

    @pytest.mark.parametrize(
        "flip",
        [
            _flip_completion,
            _flip_assignment,
            _flip_transition,
            _flip_control_messages,
            _flip_control_bits,
            _flip_flight_record,
            _flip_lineage_record,
            _detach_flight,
        ],
    )
    def test_one_flipped_element_of_any_field_disagrees(self, flip):
        mutant = _result()
        flip(mutant)
        assert engines_agree(_result(), mutant) is False
        # ...wherever the mutant sits among the compared runs
        assert engines_agree(_result(), _result(), mutant) is False
        assert engines_agree(mutant, _result()) is False


class TestSimulate:
    def test_compact_sizing_has_a_floor_and_a_scaled_window(self):
        small = compact_setup(0.01, seed=0, chunk_size=2048)
        assert (small.m, small.k, small.window) == (8_192, 5, 64)
        assert small.config.sketch_shape == (2, 16)
        full = compact_setup(1.0, seed=0, chunk_size=2048)
        assert (full.m, full.window) == (32_768, 256)

    def test_engine_names_select_the_engine_and_runs_agree(self):
        setup = compact_setup(0.01, seed=3, chunk_size=512)
        runs = {
            engine: simulate(setup, POSGGrouping(setup.config), engine)
            for engine in ("reference", "chunked")
        }
        assert runs["reference"].engine["path"] == "reference"
        assert runs["chunked"].engine["path"] == "segment"
        assert engines_agree(runs["reference"], runs["chunked"])
        with pytest.raises(KeyError):
            simulate(setup, POSGGrouping(setup.config), "segment")
