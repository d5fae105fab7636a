"""Tests for the simulation engine and its heap of events."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Simulation


class TestEventQueue:
    """The simulation's heap of events, through ``at`` / ``step`` /
    ``cancel`` / ``pending``."""

    def test_pops_in_time_order(self):
        sim = Simulation()
        order = []
        sim.at(2.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(3.0, lambda: order.append("c"))
        while sim.step():
            pass
        assert order == ["a", "b", "c"]

    def test_ties_break_by_priority_then_insertion(self):
        sim = Simulation()
        order = []
        sim.at(1.0, lambda: order.append("late"), priority=1)
        sim.at(1.0, lambda: order.append("first"), priority=-1)
        sim.at(1.0, lambda: order.append("second"), priority=-1)
        while sim.step():
            pass
        assert order == ["first", "second", "late"]

    def test_cancel_skips_event(self):
        sim = Simulation()
        handle = sim.at(1.0, lambda: None)
        sim.cancel(handle)
        assert sim.step() is False

    def test_len_ignores_cancelled(self):
        sim = Simulation()
        handle = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.cancel(handle)
        assert sim.pending == 1

    def test_peek_time(self):
        sim = Simulation()
        assert sim.step() is False
        sim.at(5.0, lambda: None)
        assert sim.step() is True
        assert sim.now == 5.0

    def test_rejects_infinite_time(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.at(float("inf"), lambda: None)
        with pytest.raises(ValueError):
            sim.at(float("nan"), lambda: None)

    def test_bool(self):
        sim = Simulation()
        assert not sim.pending
        sim.at(1.0, lambda: None)
        assert sim.pending

    def test_cancelling_twice_or_after_firing_is_a_no_op(self):
        sim = Simulation()
        fired = []
        first = sim.at(1.0, fired.append, 1)
        second = sim.at(2.0, fired.append, 2)
        sim.at(3.0, fired.append, 3)
        assert sim.step() is True
        sim.cancel(first)  # already fired
        sim.cancel(second)
        sim.cancel(second)
        assert sim.pending == 1
        sim.run()
        assert fired == [1, 3]
        assert sim.events_processed == 2
        assert sim.pending == 0


class TestSimulation:
    def test_clock_advances(self):
        sim = Simulation()
        times = []
        sim.at(1.0, lambda: times.append(sim.now))
        sim.at(3.5, lambda: times.append(sim.now))
        final = sim.run()
        assert times == [1.0, 3.5]
        assert final == 3.5

    def test_after_relative_scheduling(self):
        sim = Simulation()
        seen = []
        sim.at(2.0, lambda: sim.after(1.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.5]

    def test_rejects_past_scheduling(self):
        sim = Simulation()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_rejects_negative_delay(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)

    def test_run_until(self):
        sim = Simulation()
        seen = []
        sim.at(1.0, lambda: seen.append(1))
        sim.at(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_max_events(self):
        sim = Simulation()
        for t in range(5):
            sim.at(float(t), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        assert sim.pending == 2

    def test_step(self):
        sim = Simulation()
        seen = []
        sim.at(1.0, lambda: seen.append(1))
        assert sim.step() is True
        assert sim.step() is False
        assert seen == [1]

    def test_cascading_events_same_time(self):
        """An event may schedule another event at the current instant."""
        sim = Simulation()
        order = []
        def first():
            order.append("first")
            sim.after(0.0, lambda: order.append("chained"))
        sim.at(1.0, first)
        sim.at(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "chained"]

    def test_reentrant_run_rejected(self):
        sim = Simulation()
        def nested():
            sim.run()
        sim.at(1.0, nested)
        with pytest.raises(RuntimeError):
            sim.run()


# ----------------------------------------------------------------------
# the ordering contract, against a sorted reference model
# ----------------------------------------------------------------------
#: few distinct values, so timestamps tie and delays of 0 are common
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
PRIORITIES = st.sampled_from([-1, 0, 1])
#: an event: (time or delay, priority, events it schedules when it fires,
#: earlier-created events it cancels when it fires)
EVENTS = st.recursive(
    st.tuples(TIMES, PRIORITIES, st.just([]), st.lists(st.integers(0, 30), max_size=2)),
    lambda children: st.tuples(
        TIMES, PRIORITIES, st.lists(children, max_size=3),
        st.lists(st.integers(0, 30), max_size=2),
    ),
    max_leaves=12,
)
SCHEDULES = st.lists(EVENTS, min_size=1, max_size=8)


def reference_run(schedule):
    """Firing order ``[(label, time)]`` under (time, priority, insertion),
    and the number of live events left after each firing."""
    pending = []  # [time, priority, insertion, spec, live]
    fired = []
    live_after = []

    def add(time, spec):
        pending.append([time, spec[1], len(pending), spec, True])

    for spec in schedule:
        add(spec[0], spec)
    while True:
        live = [entry for entry in pending if entry[4]]
        if not live:
            return fired, live_after
        entry = min(live, key=lambda e: e[:3])
        entry[4] = False
        now, _, label, spec, _ = entry
        fired.append((label, now))
        for target in spec[3]:
            pending[target % len(pending)][4] = False
        for child in spec[2]:
            add(now + child[0], child)
        live_after.append(sum(entry[4] for entry in pending))


def reference_order(schedule):
    return reference_run(schedule)[0]


class Driver:
    """Plays a schedule on a real ``Simulation``, labelling events by
    creation order exactly like the reference model."""

    def __init__(self, schedule):
        self.sim = Simulation()
        self.handles = []
        self.fired = []
        for spec in schedule:
            self.handles.append(
                self.sim.at(
                    spec[0], self.fire, len(self.handles), spec, priority=spec[1]
                )
            )

    def fire(self, label, spec):
        self.fired.append((label, self.sim.now))
        for target in spec[3]:
            self.sim.cancel(self.handles[target % len(self.handles)])
        for child in spec[2]:
            self.handles.append(
                self.sim.after(
                    child[0], self.fire, len(self.handles), child, priority=child[1]
                )
            )


class TestOrderingContract:
    @given(SCHEDULES)
    @settings(max_examples=200, deadline=None)
    def test_run_fires_in_reference_order(self, schedule):
        expected = reference_order(schedule)
        driver = Driver(schedule)
        final = driver.sim.run()
        assert driver.fired == expected
        assert driver.sim.events_processed == len(expected)
        assert final == (expected[-1][1] if expected else 0.0)
        assert driver.sim.pending == 0

    @given(SCHEDULES)
    @settings(max_examples=100, deadline=None)
    def test_step_and_pending_agree_with_the_model(self, schedule):
        expected, live_after = reference_run(schedule)
        driver = Driver(schedule)
        steps = 0
        while driver.sim.step():
            steps += 1
            assert driver.fired == expected[:steps]
            assert driver.sim.now == expected[steps - 1][1]
            assert driver.sim.pending == live_after[steps - 1]
        assert steps == len(expected)
        assert driver.sim.pending == 0

    @given(SCHEDULES, TIMES)
    @settings(max_examples=100, deadline=None)
    def test_until_splits_the_run_without_reordering(self, schedule, until):
        expected = reference_order(schedule)
        before = [entry for entry in expected if entry[1] <= until]
        driver = Driver(schedule)
        driver.sim.run(until=until)
        assert driver.fired == before
        if len(before) < len(expected):
            assert driver.sim.now == until
            assert driver.sim.pending > 0
        driver.sim.run()
        assert driver.fired == expected

    @given(SCHEDULES, st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_max_events_stops_after_exactly_that_many(self, schedule, budget):
        expected = reference_order(schedule)
        driver = Driver(schedule)
        driver.sim.run(max_events=budget)
        assert driver.fired == expected[:budget]
        assert driver.sim.events_processed == min(budget, len(expected))
        driver.sim.run()
        assert driver.fired == expected


class TestSchedulingChecks:
    def test_after_passes_arguments(self):
        sim = Simulation()
        seen = []
        sim.after(1.0, lambda *args: seen.append(args), "a", 2, priority=0)
        sim.at(2.0, seen.append, "plain")
        sim.run()
        assert seen == [("a", 2), "plain"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, bad):
        sim = Simulation()
        with pytest.raises(ValueError, match="finite"):
            sim.at(bad, lambda: None)
        with pytest.raises(ValueError, match="finite"):
            sim.after(bad, lambda: None)
        assert sim.pending == 0

    def test_rejects_negative_delay_and_the_past_mid_run(self):
        sim = Simulation()
        errors = []

        def misbehave():
            for schedule in (
                lambda: sim.after(-0.5, misbehave),
                lambda: sim.at(sim.now - 0.5, misbehave),
                lambda: sim.at(-math.inf, misbehave),
            ):
                try:
                    schedule()
                except ValueError as error:
                    errors.append(str(error))

        sim.at(3.0, misbehave)
        sim.run()
        assert len(errors) == 3
        assert sim.events_processed == 1

    def test_cancelling_a_fired_event_is_harmless(self):
        sim = Simulation()
        fired = []
        first = sim.at(1.0, fired.append, 1)
        sim.at(2.0, sim.cancel, first)
        sim.at(3.0, fired.append, 3)
        sim.run()
        assert fired == [1, 3]


# ----------------------------------------------------------------------
# the run loop's contract: ``run()`` with no limit takes a separate loop
# that counts fired events locally; ``after`` pushes onto the heap itself
# ----------------------------------------------------------------------
class Boom(Exception):
    pass


class TestRunLoopContract:
    @pytest.mark.parametrize("limits", [{}, {"until": 100.0}, {"max_events": 100}])
    def test_events_processed_is_exact_after_a_callback_raises(self, limits):
        sim = Simulation()
        fired = []

        def fire(label):
            fired.append(label)
            if label == 2:
                raise Boom

        for label in range(5):
            sim.at(float(label), fire, label)
        with pytest.raises(Boom):
            sim.run(**limits)
        # events 0 and 1 completed; the raising event 2 is gone, uncounted
        assert fired == [0, 1, 2]
        assert sim.events_processed == 2
        assert sim.now == 2.0
        assert sim.pending == 2
        assert sim.run() == 4.0  # not left "running"
        assert fired == [0, 1, 2, 3, 4]
        assert sim.events_processed == 4

    def test_limits_keep_their_semantics_around_unlimited_runs(self):
        sim = Simulation()
        fired = []
        for time in (1.0, 2.0, 3.0, 4.0):
            sim.at(time, fired.append, time)
        cancelled = sim.at(2.5, fired.append, "cancelled")
        sim.cancel(cancelled)
        sim.run(until=2.5)
        assert fired == [1.0, 2.0] and sim.now == 2.5
        assert sim.events_processed == 2
        sim.run(max_events=1)
        assert fired == [1.0, 2.0, 3.0] and sim.events_processed == 3
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0] and sim.now == 4.0
        assert sim.events_processed == 4
        # a drained simulation takes new events under both limits again
        sim.after(1.0, fired.append, 5.0)
        sim.after(2.0, fired.append, 6.0)
        sim.after(3.0, fired.append, 7.0)
        assert sim.run(max_events=0) == 4.0 and sim.events_processed == 4
        assert sim.run(until=5.5) == 5.5
        assert fired[-1] == 5.0 and sim.events_processed == 5
        sim.run(max_events=1)
        assert fired[-1] == 6.0 and sim.events_processed == 6
        # ``until`` past the last event leaves the clock at that event
        assert sim.run(until=100.0) == 7.0
        assert sim.events_processed == 7 and sim.pending == 0

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    @pytest.mark.parametrize("mid_run", [False, True])
    def test_bad_delays_raise_value_error_and_queue_nothing(self, delay, mid_run):
        sim = Simulation()
        errors = []

        def schedule():
            try:
                sim.after(delay, errors.append, "scheduled")
            except ValueError as error:
                errors.append(type(error))

        if mid_run:
            sim.at(2.0, schedule)
            sim.run()
            assert sim.events_processed == 1
        else:
            schedule()
        assert errors == [ValueError]
        assert sim.pending == 0
        assert sim._heap == []
        # the simulation carries on: ties still fire in insertion order
        order = []
        sim.after(0.0, order.append, "first")
        sim.at(sim.now, order.append, "second")
        sim.run()
        assert order == ["first", "second"]
