"""Validation and semantics of the declarative fault plans."""

import pytest

from repro.faults import (
    NO_FAULTS,
    CrashFault,
    FaultPlan,
    MessageFaults,
)


class TestMessageFaults:
    def test_defaults_are_inactive(self):
        assert not MessageFaults().active
        assert not NO_FAULTS.active

    @pytest.mark.parametrize("name", ["drop", "duplicate", "delay", "reorder"])
    def test_probabilities_validated(self, name):
        kwargs = {name: 1.5}
        if name == "delay":
            kwargs["delay_ms"] = 1.0
        with pytest.raises(ValueError, match=name):
            MessageFaults(**kwargs)
        with pytest.raises(ValueError, match=name):
            MessageFaults(**{name: -0.1})

    def test_negative_ms_rejected(self):
        with pytest.raises(ValueError, match="delay_ms"):
            MessageFaults(delay_ms=-1.0)
        with pytest.raises(ValueError, match="reorder_ms"):
            MessageFaults(reorder_ms=-1.0)

    def test_delay_requires_delay_ms(self):
        with pytest.raises(ValueError, match="delay_ms"):
            MessageFaults(delay=0.5)
        assert MessageFaults(delay=0.5, delay_ms=3.0).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop": 0.1},
            {"duplicate": 0.1},
            {"delay": 0.1, "delay_ms": 2.0},
            {"reorder": 0.1},
        ],
    )
    def test_any_probability_activates(self, kwargs):
        assert MessageFaults(**kwargs).active

    def test_summary_round_trips_fields(self):
        faults = MessageFaults(drop=0.2, reorder=0.1, reorder_ms=4.0)
        summary = faults.summary()
        assert summary["drop"] == 0.2
        assert summary["reorder_ms"] == 4.0


class TestScriptedFaults:
    def test_crash_validation(self):
        with pytest.raises(ValueError, match="instance"):
            CrashFault(instance=-1, at_ms=0.0)
        with pytest.raises(ValueError, match="at_ms"):
            CrashFault(instance=0, at_ms=-1.0)
        with pytest.raises(ValueError, match="outage_ms"):
            CrashFault(instance=0, at_ms=0.0, outage_ms=-1.0)


class TestFaultPlan:
    def test_empty_plan_is_inactive(self):
        assert not FaultPlan().active

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(crashes=[CrashFault(instance=0, at_ms=1.0)])
        assert isinstance(plan.crashes, tuple)

    def test_wrong_event_types_rejected(self):
        with pytest.raises(TypeError, match="CrashFault"):
            FaultPlan(crashes=("nope",))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"matrices": MessageFaults(drop=0.1)},
            {"sync_requests": MessageFaults(drop=0.1)},
            {"sync_replies": MessageFaults(duplicate=0.1)},
            {"crashes": (CrashFault(instance=0, at_ms=1.0),)},
        ],
    )
    def test_any_fault_activates(self, kwargs):
        assert FaultPlan(**kwargs).active

    def test_summary_is_json_shaped(self):
        plan = FaultPlan(
            matrices=MessageFaults(drop=0.1),
            crashes=(CrashFault(instance=1, at_ms=5.0, outage_ms=2.0),),
            seed=7,
        )
        summary = plan.summary()
        assert summary["seed"] == 7
        assert summary["matrices"]["drop"] == 0.1
        assert summary["crashes"] == [
            {"instance": 1, "at_ms": 5.0, "outage_ms": 2.0}
        ]
