"""The reactive-scheduling baseline (Section III's rejected alternative).

The paper motivates POSG by dismissing two classical designs: offline
cost models (inflexible) and *reactive* scheduling, where the scheduler
"periodically collect[s] the load of the operator instances" and routes
tuples "on the basis of a previous, possibly stale, load state", paying
"a periodic overhead even if the load distribution ... does not change".

:class:`ReactiveGrouping` implements a fair version of that design so
the claim is measurable:

- every instance reports its measured cumulated execution time after
  each ``report_interval`` executed tuples (the periodic overhead);
- the scheduler routes each tuple to the instance minimizing
  ``reported_time + in_flight * mean_tuple_cost``, where ``in_flight``
  is the number of tuples assigned to the instance since its last
  report — i.e. it extrapolates with the instance's own
  *average* cost (falling back to the global average before an instance
  has one) because, unlike POSG, it knows nothing about the
  content-dependence of execution times;
- instances that have not reported yet keep receiving round-robin
  shares: with no load figure there is nothing to rank them by, and
  projecting them as ``0 + in_flight * mean_cost`` would let one early
  report herd the whole stream onto the silent instances.

It reacts to load imbalance with one report-latency of staleness but can
never anticipate that a particular tuple is expensive — exactly the gap
POSG's sketches close.
"""

from __future__ import annotations

import numpy as np

from repro.bounds import COUNT
from repro.core.grouping import GroupingPolicy, InstanceAgent, RouteDecision
from repro.core.messages import ControlMessage, LoadReport, SyncRequest


class _ReportingAgent(InstanceAgent):
    """Instance-side half: emit a LoadReport every ``interval`` tuples."""

    def __init__(self, instance_id: int, interval: int) -> None:
        self.instance_id = instance_id
        self.interval = interval
        self.cumulated_time = 0.0
        self.tuples_executed = 0

    def on_executed(
        self,
        item: int,
        execution_time: float,
        sync_request: SyncRequest | None = None,
    ) -> list[ControlMessage]:
        self.cumulated_time += execution_time
        self.tuples_executed += 1
        if self.tuples_executed % self.interval == 0:
            return [
                LoadReport(
                    instance=self.instance_id,
                    cumulated_time=self.cumulated_time,
                    tuples_executed=self.tuples_executed,
                )
            ]
        return []


class ReactiveGrouping(GroupingPolicy):
    """Schedule on periodically reported (stale) per-instance loads."""

    name = "reactive"

    def __init__(self, report_interval: int = 256) -> None:
        super().__init__()
        self._interval = COUNT.check("report_interval", report_interval)
        self._reported: np.ndarray | None = None
        self._reported_executed: np.ndarray | None = None
        self._assigned: np.ndarray | None = None
        self._assigned_at_report: np.ndarray | None = None
        self._mean_costs: np.ndarray | None = None
        self._has_reported: np.ndarray | None = None
        self._rr_counter = 0
        self._reports_received = 0

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        super().setup(k, rng)
        self._reported = np.zeros(k, dtype=np.float64)
        self._reported_executed = np.zeros(k, dtype=np.float64)
        self._assigned = np.zeros(k, dtype=np.float64)
        self._assigned_at_report = np.zeros(k, dtype=np.float64)
        self._mean_costs = np.zeros(k, dtype=np.float64)
        self._has_reported = np.zeros(k, dtype=bool)
        self._rr_counter = 0
        self._reports_received = 0

    def route(self, item: int) -> RouteDecision:
        self.k  # raises before setup
        if not self._has_reported.all():
            # keep round-robin over the instances still missing a report:
            # they carry no load figure to rank by, and each needs
            # executions before it can produce one
            silent = np.flatnonzero(~self._has_reported)
            instance = int(silent[self._rr_counter % len(silent)])
            self._rr_counter += 1
        else:
            # tuples assigned but not covered by the last report: the
            # assigned-minus-executed backlog where reports lag behind
            # the queue, and never less than the assignments made after
            # the report arrived (which it cannot have covered)
            in_flight = np.maximum(
                self._assigned - self._reported_executed,
                self._assigned - self._assigned_at_report,
            )
            # each instance extrapolates with its own mean cost (a slow
            # instance's in-flight tuples are worth more virtual time);
            # the global mean stands in where a report carried no mean
            fallback = self._global_mean_cost()
            costs = np.where(self._mean_costs > 0.0, self._mean_costs, fallback)
            projected = self._reported + in_flight * costs
            instance = int(np.argmin(projected))
        self._assigned[instance] += 1.0
        return RouteDecision(instance)

    def _global_mean_cost(self) -> float:
        executed = float(self._reported_executed.sum())
        return float(self._reported.sum()) / executed if executed > 0 else 0.0

    def on_control(self, message: ControlMessage) -> None:
        self.on_control_batch([message])

    def on_control_batch(self, messages: "list[ControlMessage]") -> None:
        """Validate the whole batch, then apply it (atomic delivery)."""
        for message in messages:
            if not isinstance(message, LoadReport):
                raise TypeError(f"reactive scheduler got {message!r}")
            if not 0 <= message.instance < self.k:
                raise ValueError(
                    f"load report from unknown instance {message.instance}"
                )
        for message in messages:
            instance = message.instance
            self._reported[instance] = message.cumulated_time
            self._reported_executed[instance] = message.tuples_executed
            self._assigned_at_report[instance] = self._assigned[instance]
            if message.tuples_executed > 0:
                self._mean_costs[instance] = (
                    message.cumulated_time / message.tuples_executed
                )
            self._has_reported[instance] = True
            self._reports_received += 1

    def create_instance_agent(self, instance_id: int) -> InstanceAgent:
        return _ReportingAgent(instance_id, self._interval)

    @property
    def reports_received(self) -> int:
        """Load reports delivered so far (overhead accounting)."""
        return self._reports_received
