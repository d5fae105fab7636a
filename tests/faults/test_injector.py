"""Behaviour of the seeded fault injector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.config import POSGConfig
from repro.core.messages import MatricesMessage, SyncReply
from repro.faults import CrashFault, FaultInjector, FaultPlan, MessageFaults, SlowdownFault


def make_matrices(instance=0):
    config = POSGConfig(rows=2, cols=8)
    hashes = make_shared_hashes(config, np.random.default_rng(0))
    return MatricesMessage(instance=instance, matrices=FWPair(hashes),
                           tuples_observed=0)


class TestValidation:
    def test_scripted_instance_out_of_range_rejected(self):
        plan = FaultPlan(crashes=(CrashFault(instance=5, at_ms=1.0),))
        with pytest.raises(ValueError, match="instance 5"):
            FaultInjector(plan, k=3)

    def test_slowdown_out_of_range_rejected(self):
        plan = FaultPlan(
            slowdowns=(SlowdownFault(instance=9, at_ms=0.0,
                                     duration_ms=1.0, factor=2.0),)
        )
        with pytest.raises(ValueError, match="instance 9"):
            FaultInjector(plan, k=4)

    def test_unknown_k_accepts_anything(self):
        plan = FaultPlan(crashes=(CrashFault(instance=99, at_ms=1.0),))
        assert FaultInjector(plan).active


class TestDeliverTimes:
    def test_inactive_kind_passes_through(self):
        injector = FaultInjector(FaultPlan())
        assert injector.deliver_times(make_matrices(), 3.0) == [3.0]

    def test_drop_returns_empty(self):
        plan = FaultPlan(matrices=MessageFaults(drop=1.0))
        injector = FaultInjector(plan)
        assert injector.deliver_times(make_matrices(), 3.0) == []
        assert injector.report()["injected"]["dropped"]["matrices"] == 1

    def test_duplicate_returns_two_copies(self):
        plan = FaultPlan(matrices=MessageFaults(duplicate=1.0))
        injector = FaultInjector(plan)
        times = injector.deliver_times(make_matrices(), 3.0)
        assert times == [3.0, 3.0]

    def test_delay_shifts_delivery(self):
        plan = FaultPlan(sync_replies=MessageFaults(delay=1.0, delay_ms=7.0))
        injector = FaultInjector(plan)
        reply = SyncReply(instance=0, epoch=1, delta=0.0)
        assert injector.deliver_times(reply, 2.0) == [9.0]

    def test_reorder_adds_bounded_jitter(self):
        plan = FaultPlan(sync_replies=MessageFaults(reorder=1.0, reorder_ms=4.0))
        injector = FaultInjector(plan)
        reply = SyncReply(instance=0, epoch=1, delta=0.0)
        (when,) = injector.deliver_times(reply, 2.0)
        assert 2.0 <= when < 6.0

    def test_same_seed_same_decisions(self):
        plan = FaultPlan(
            matrices=MessageFaults(drop=0.5, duplicate=0.3, reorder=0.4),
            seed=42,
        )
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(plan)
            outcomes.append(
                [injector.deliver_times(make_matrices(), 1.0) for _ in range(50)]
            )
        assert outcomes[0] == outcomes[1]

    def test_drop_request_counts_and_is_seeded(self):
        plan = FaultPlan(sync_requests=MessageFaults(drop=0.5), seed=3)
        first = [FaultInjector(plan).drop_request() for _ in range(1)]
        second = [FaultInjector(plan).drop_request() for _ in range(1)]
        assert first == second
        injector = FaultInjector(plan)
        fired = sum(injector.drop_request() for _ in range(200))
        assert 0 < fired < 200
        assert injector.report()["injected"]["dropped"]["sync_request"] == fired


class TestInstanceFaults:
    def test_crashes_sorted_by_time(self):
        plan = FaultPlan(
            crashes=(
                CrashFault(instance=0, at_ms=9.0),
                CrashFault(instance=1, at_ms=2.0),
            )
        )
        injector = FaultInjector(plan)
        assert [c.at_ms for c in injector.crashes] == [2.0, 9.0]

    def test_execution_factor_inside_window(self):
        plan = FaultPlan(
            slowdowns=(SlowdownFault(instance=1, at_ms=10.0,
                                     duration_ms=5.0, factor=3.0),)
        )
        injector = FaultInjector(plan)
        assert injector.execution_factor(1, 5.0) == 1.0
        assert injector.execution_factor(1, 12.0) == 3.0
        assert injector.execution_factor(0, 12.0) == 1.0
        assert injector.execution_factor(1, 15.0) == 1.0
        assert injector.report()["injected"]["slowed_tuples"] == 1

    def test_overlapping_slowdowns_compound(self):
        plan = FaultPlan(
            slowdowns=(
                SlowdownFault(instance=0, at_ms=0.0, duration_ms=10.0, factor=2.0),
                SlowdownFault(instance=0, at_ms=5.0, duration_ms=10.0, factor=3.0),
            )
        )
        injector = FaultInjector(plan)
        assert injector.execution_factor(0, 7.0) == 6.0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 40),
                st.integers(1, 30),
                st.sampled_from([0.5, 2.0, 3.0, 0.1]),
            ),
            max_size=5,
        ),
        st.lists(st.integers(0, 60), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_slowdown_regions_replay_execution_factor(self, windows, clock):
        """Hoisted index ranges against the per-tuple lookup, on a clock
        with repeated arrivals and windows that start and end on them."""
        arrivals = [float(t) for t in sorted(clock)]
        plan = FaultPlan(
            slowdowns=[
                SlowdownFault(instance, float(at), float(span), factor)
                for instance, at, span, factor in windows
            ]
        )
        hoisted = {}
        for instance, lo, hi, factor in FaultInjector(plan).slowdown_regions(
            arrivals
        ):
            assert factor != 1.0 and 0 <= lo < hi <= len(arrivals)
            for j in range(lo, hi):
                assert (instance, j) not in hoisted, "regions overlap"
                hoisted[instance, j] = factor
        per_tuple = FaultInjector(plan)
        for instance in range(3):
            for j, now in enumerate(arrivals):
                assert hoisted.get((instance, j), 1.0) == (
                    per_tuple.execution_factor(instance, now)
                )
        assert per_tuple.report()["injected"]["slowed_tuples"] == len(hoisted)

    def test_noted_slowed_tuples_land_in_the_report(self):
        injector = FaultInjector(FaultPlan())
        injector.note_slowed_tuples(7)
        assert injector.report()["injected"]["slowed_tuples"] == 7

    def test_crash_bookkeeping(self):
        injector = FaultInjector(FaultPlan())
        injector.note_crash(2, 100.0)
        injector.note_restart(2, 150.0)
        injected = injector.report()["injected"]
        assert injected["crashes"] == 1
        assert injected["restarts"] == 1
