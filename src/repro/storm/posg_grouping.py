"""POSG as a Storm ``CustomStreamGrouping`` (the paper's prototype).

Figure 1's deployment: the grouping runs inside the upstream component's
output path (our scheduler-side FSM); every downstream bolt task hosts an
:class:`~repro.core.instance.InstanceTracker` (the instance-side FSM)
whose control messages travel back to the grouping over the cluster's
control plane with latency.

The piggy-backing of sync requests (Figure 1.D) uses the tuple's
``sync_request`` slot: :meth:`choose_tasks` stores the request on the
prototype tuple and the cluster attaches it to the chosen task's copy.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.core.scheduler import POSGScheduler, SchedulerState
from repro.storm.grouping import CustomStreamGrouping
from repro.storm.tuples import StormTuple


class POSGShuffleGrouping(CustomStreamGrouping):
    """Drop-in replacement for Storm's shuffle grouping.

    One grouping serves one subscription: :meth:`prepare` sets its
    scheduler up for one source (and refuses a second binding), and the
    cluster reports to it the executions of the tuples from that source
    alone, the tuples its scheduler routed.

    Parameters
    ----------
    item_field:
        Name of the tuple field carrying the attribute value that drives
        the execution time (the paper's single "fixed and known attribute").
    config:
        POSG parameters; paper defaults when omitted.
    rng:
        Seeds the shared hash functions.
    telemetry:
        Optional :class:`~repro.telemetry.recorder.TelemetryRecorder`;
        forwarded to the scheduler- and instance-side FSMs so their
        transitions land in the same registry/tracer as the cluster's.
    """

    def __init__(
        self,
        item_field: str = "value",
        config: POSGConfig | None = None,
        rng: np.random.Generator | None = None,
        telemetry=None,
    ) -> None:
        self._policy = POSGGrouping(config, telemetry=telemetry)
        self._item_field = item_field
        self._rng = rng
        #: the subscription's source component, once prepared
        self._source: str | None = None
        #: the last ``fields`` tuple seen and the item field's index in it
        self._fields: tuple[str, ...] | None = None
        self._item_index = 0

    def prepare(self, source: str, target_tasks: list[int]) -> None:
        if self._source is not None:
            raise ValueError(
                f"POSGShuffleGrouping already bound to source {self._source!r}; "
                f"subscribe {source!r} with a grouping of its own"
            )
        super().prepare(source, target_tasks)
        self._source = source
        policy = self._policy
        policy.setup(len(self._target_tasks), self._rng)
        self._trackers = [
            policy.create_instance_agent(position).tracker
            for position in range(len(self._target_tasks))
        ]
        self._submit = policy.scheduler.submit

    def _item(self, tup: StormTuple) -> int:
        """The tuple's item, through the index cached for its ``fields``."""
        fields = tup.fields
        if fields is not self._fields:
            tup.value(self._item_field)  # KeyError on a tuple without it
            self._item_index = fields.index(self._item_field)
            self._fields = fields
        return int(tup.values[self._item_index])

    def choose_tasks(self, tup: StormTuple) -> list[int]:
        decision = self._submit(self._item(tup))
        tup.sync_request = decision.sync_request
        return [self._target_tasks[decision.instance]]

    def wants_execution_reports(self) -> bool:
        return True

    def on_execution(self, task: int, tup: StormTuple, duration: float) -> list:
        """Report one execution to ``task``'s tracker, which answers any
        piggy-backed sync request at once and folds its sketches when a
        window closes (:class:`~repro.core.instance.InstanceTracker`)."""
        return self._trackers[task].execute(self._item(tup), duration, tup.sync_request)

    def on_control(self, message) -> None:
        self._policy.on_control(message)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> POSGScheduler:
        """The scheduler-side FSM."""
        return self._policy.scheduler

    @property
    def state(self) -> SchedulerState:
        """Scheduler FSM state."""
        return self._policy.scheduler.state

    @property
    def policy(self) -> POSGGrouping:
        """The underlying engine-agnostic policy."""
        return self._policy
