"""Per-topology metrics: completion latencies, timeouts, task activity."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.telemetry.registry import Sample


class TopologyMetrics:
    """Collected while a topology runs on the local cluster."""

    def __init__(self) -> None:
        self._completions: dict[Any, float] = {}
        self._timeouts: list[Any] = []
        self._failures: list[Any] = []
        #: bolt name -> its executors, whose ``executed`` counters these
        #: metrics read (bound by the cluster at submission)
        self._bolt_executors: dict[str, list] = {}
        self._emitted = 0
        self._control_messages = 0
        self._control_bits = 0

    # ------------------------------------------------------------------
    # recording (called by the cluster)
    # ------------------------------------------------------------------
    def record_emit(self) -> None:
        self._emitted += 1

    def record_completion(self, msg_id: Any, latency: float) -> None:
        self._completions[msg_id] = latency

    def record_timeout(self, msg_id: Any) -> None:
        self._timeouts.append(msg_id)

    def record_failure(self, msg_id: Any) -> None:
        self._failures.append(msg_id)

    def bind_executors(self, bolt_executors: dict[str, list]) -> None:
        """Read per-task execution counts from these bolt executors.

        ``bolt_executors`` maps a bolt's name to its executors by task
        index; each counts the tuples it executed in ``executed``.
        """
        self._bolt_executors = bolt_executors

    def record_control_message(self, bits: int = 0) -> None:
        """Count one control-plane message and its wire size in bits.

        The paper's overhead figures are expressed in traffic volume, not
        message count, so the cluster passes each message's
        ``size_bits()`` alongside (0 for legacy callers).
        """
        self._control_messages += 1
        self._control_bits += bits

    # ------------------------------------------------------------------
    # reading (after the run)
    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Anchored tuples emitted by spouts."""
        return self._emitted

    @property
    def completed(self) -> int:
        """Tuple trees fully acked."""
        return len(self._completions)

    @property
    def timed_out(self) -> int:
        """Tuple trees failed by timeout (the Figure 11/12 statistic)."""
        return len(self._timeouts)

    @property
    def failed(self) -> int:
        """Tuple trees failed explicitly by a bolt."""
        return len(self._failures)

    @property
    def control_messages(self) -> int:
        """Control-plane messages exchanged (POSG overhead accounting)."""
        return self._control_messages

    @property
    def control_bits(self) -> int:
        """Control-plane traffic in bits (POSG overhead accounting)."""
        return self._control_bits

    def samples(self) -> list[Sample]:
        """Metric samples for a telemetry registry collector.

        The cluster registers this when constructed with a live recorder
        (``LocalCluster(config, telemetry=...)``); reads happen only at
        export time, so the run itself pays nothing.
        """
        return [
            Sample(
                "storm_tuples_emitted_total", self._emitted, "counter",
                help="Anchored tuples emitted by spouts",
            ),
            Sample(
                "storm_tuples_completed_total", len(self._completions),
                "counter", help="Tuple trees fully acked",
            ),
            Sample(
                "storm_tuples_timed_out_total", len(self._timeouts),
                "counter", help="Tuple trees failed by timeout",
            ),
            Sample(
                "storm_tuples_failed_total", len(self._failures), "counter",
                help="Tuple trees failed explicitly by a bolt",
            ),
            Sample(
                "storm_control_messages_total", self._control_messages,
                "counter", help="Control-plane messages exchanged",
            ),
            Sample(
                "storm_control_bits_total", self._control_bits, "counter",
                help="Control-plane traffic in bits",
            ),
        ] + [
            Sample(
                "storm_task_executed_total", executor.executed, "counter",
                (("component", component), ("task", str(executor.task_index))),
                help="Tuples executed per task",
            )
            for component, executors in sorted(self._bolt_executors.items())
            for executor in executors
            if executor.executed
        ]

    def completion_latencies(self) -> np.ndarray:
        """Latencies of completed trees, ordered by message id.

        Message ids must be sortable (the stream spouts use the tuple's
        stream index).
        """
        if not self._completions:
            return np.array([], dtype=np.float64)
        ordered = sorted(self._completions)
        return np.array([self._completions[mid] for mid in ordered])

    def completed_ids(self) -> list:
        """Sorted message ids of completed trees."""
        return sorted(self._completions)

    def average_completion_time(self) -> float:
        """Mean completion latency over *completed* tuples (paper's L)."""
        latencies = self.completion_latencies()
        if latencies.size == 0:
            raise ValueError("no tuple completed")
        return float(latencies.mean())

    def executions(self, component: str, task_index: int) -> int:
        """Tuples executed by one task (0 for a task that does not exist)."""
        executors = self._bolt_executors.get(component, ())
        if 0 <= task_index < len(executors):
            return executors[task_index].executed
        return 0

    def task_execution_counts(self, component: str, parallelism: int) -> np.ndarray:
        """Executed-tuple counts for every task of a component."""
        return np.array(
            [self.executions(component, index) for index in range(parallelism)]
        )
