"""Behaviour of the seeded fault injector."""

import numpy as np
import pytest

from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.config import POSGConfig
from repro.core.messages import MatricesMessage, SyncReply
from repro.faults import CrashFault, FaultInjector, FaultPlan, MessageFaults


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

    def test_crash_bookkeeping(self):
        injector = FaultInjector(FaultPlan())
        injector.note_crash(2, 100.0)
        injector.note_restart(2, 150.0)
        injected = injector.report()["injected"]
        assert injected["crashes"] == 1
        assert injected["restarts"] == 1
