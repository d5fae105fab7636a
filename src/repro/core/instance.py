"""Operator-instance side of POSG: the START/STABILIZING state machine.

Figure 2 of the paper.  Each instance folds every executed tuple into its
:class:`~repro.core.matrices.FWPair` and, every ``N`` executed tuples:

- in START: creates a snapshot ``S = W/F`` and moves to STABILIZING
  (Figure 2.A);
- in STABILIZING with relative error ``eta > mu``: refreshes the snapshot
  and stays (Figure 2.B);
- in STABILIZING with ``eta <= mu``: ships a copy of ``(F, W)`` to the
  scheduler, resets both matrices and returns to START (Figure 2.C).

The tracker also keeps the instance's measured cumulated execution time
``C_op`` needed to answer :class:`~repro.core.messages.SyncRequest`
messages with ``Delta_op = C_op - C_hat[op]``.

Only a window close reads the matrices, so the tracker records executed
tuples and folds them in one exact-order batch when something reads the
pair (a window close, :meth:`InstanceTracker.restart`,
:attr:`InstanceTracker.matrices`); ``C_op``, the counters, the window
count and sync replies move at once.
"""

from __future__ import annotations

import enum
import math
import operator

import numpy as np

from repro.bounds import INDEX
from repro.core.config import POSGConfig
from repro.core.matrices import FWPair
from repro.core.messages import ControlMessage, MatricesMessage, SyncReply, SyncRequest
from repro.sketches.count_min import running_total
from repro.sketches.hashing import TwoUniversalHashFamily
from repro.telemetry.recorder import NULL_RECORDER
from repro.telemetry.registry import (
    Sample,
    Stat,
    stat_properties,
    stat_samples,
    stat_values,
)

#: histogram bucket bounds for the stability error ``eta`` (Eq. 1); the
#: paper's default tolerance mu = 0.05 sits on a bucket edge
ETA_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

#: the tracker's counters in ``stats()`` order (``instance`` and
#: ``state`` come first); every exported one carries the instance label
STATS = (
    Stat("tuples_executed", "_tuples_executed", "Tuples executed by this instance",
         "posg_instance_tuples_executed_total", "counter", "instance"),
    Stat("cumulated_time_ms", "_cumulated_time",
         "Measured cumulated execution time C_op",
         "posg_instance_cumulated_time_ms", "gauge", "instance"),
    Stat("matrices_sent", "_matrices_sent",
         "Stable (F, W) pairs shipped to the scheduler",
         "posg_instance_matrices_sent_total", "counter", "instance"),
    Stat("matrices_rebroadcasts", "_matrices_rebroadcasts",
         "Recovery re-sends of the last stable (F, W) pair",
         "posg_instance_matrices_rebroadcasts_total", "counter", "instance"),
    Stat("snapshot_refreshes", "_snapshot_refreshes",
         "Snapshot refreshes forced by instability (eta > mu)",
         "posg_instance_snapshot_refreshes_total", "counter", "instance"),
    Stat("window_count", "_window_count", "Tuples executed in the current window"),
    Stat("generation", "_generation", "Crash-restart counter (0 = never restarted)"),
    Stat("restarts", "_restarts", "Crash-restarts this instance has gone through"),
)


class InstanceState(enum.Enum):
    """States of the per-instance FSM (Figure 2)."""

    START = "start"
    STABILIZING = "stabilizing"


@stat_properties(STATS)
class InstanceTracker:
    """Tracks tuple execution times on one operator instance.

    Parameters
    ----------
    instance_id:
        Index of this instance in ``[0, k)``.
    config:
        Shared POSG parameters (window size ``N``, tolerance ``mu``, ...).
    hashes:
        The hash family shared with the scheduler; *must* be the same
        object (or an equal family) across all parties.

    Usage
    -----
    The hosting engine calls :meth:`execute` once per tuple *after*
    measuring its execution time, passing along any
    :class:`~repro.core.messages.SyncRequest` that was piggy-backed on the
    tuple, or :meth:`execute_batch` for a run of tuples without one.  The
    returned control messages must be delivered to the scheduler (with
    whatever latency the engine models).
    """

    def __init__(
        self,
        instance_id: int,
        config: POSGConfig,
        hashes: TwoUniversalHashFamily,
        telemetry=NULL_RECORDER,
    ) -> None:
        instance_id = INDEX.check("instance_id", instance_id)
        rows, cols = config.sketch_shape
        if (hashes.rows, hashes.cols) != (rows, cols):
            raise ValueError(
                f"hash family shape {(hashes.rows, hashes.cols)} does not match "
                f"config sketch shape {(rows, cols)}"
            )
        self._instance_id = instance_id
        self._config = config
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._pair = FWPair(hashes, telemetry=self._telemetry)
        # executed tuples not yet folded into the pair, in execution
        # order: whole batches, then the scalar tail recorded since
        self._batches: list[tuple] = []
        self._items: list = []
        self._times: list = []
        self._state = InstanceState.START
        self._snapshot: np.ndarray | None = None
        self._window_count = 0
        self._cumulated_time = 0.0
        self._tuples_executed = 0
        self._matrices_sent = 0
        self._snapshot_refreshes = 0
        self._generation = 0
        self._restarts = 0
        # last stable (F, W) pair retained for the recovery rebroadcast
        self._last_shipped: FWPair | None = None
        self._last_shipped_tuples = 0
        self._boundaries_since_ship = 0
        self._matrices_rebroadcasts = 0
        # eta observations happen only at window boundaries (cold path)
        self._eta_histogram = self._telemetry.registry.histogram(
            "posg_instance_eta",
            buckets=ETA_BUCKETS,
            help="Snapshot relative error eta at STABILIZING window checks",
            labels={"instance": instance_id},
        )
        self._telemetry.registry.register_collector(self._collect_samples)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def execute(
        self,
        item: int,
        execution_time: float,
        sync_request: SyncRequest | None = None,
    ) -> list[ControlMessage]:
        """Record one executed tuple; return control messages to deliver.

        ``sync_request``, if given, is the request piggy-backed on this
        tuple; under FIFO execution, answering it *now* means ``C_op``
        covers exactly the tuples assigned up to and including this one,
        which is the prefix the scheduler's ``c_hat_at_send`` estimated.
        """
        if not 0.0 <= execution_time < math.inf:  # false for NaN
            raise ValueError(
                f"execution_time must be finite and >= 0, got {execution_time}"
            )
        # the fold takes int64 items: a float or a string is a TypeError here
        if not -(1 << 63) <= operator.index(item) < 1 << 63:
            raise ValueError(f"item must fit in 64 bits, got {item}")
        outgoing: list[ControlMessage] = []
        self._items.append(item)
        self._times.append(execution_time)
        self._cumulated_time += execution_time
        self._tuples_executed += 1
        self._window_count += 1

        if sync_request is not None:
            if sync_request.instance != self._instance_id:
                raise ValueError(
                    f"sync request for instance {sync_request.instance} "
                    f"delivered to instance {self._instance_id}"
                )
            outgoing.append(
                SyncReply(
                    instance=self._instance_id,
                    epoch=sync_request.epoch,
                    # _cumulated_time is the instance's TOTAL measured
                    # time — under multi-source scheduling this is what
                    # re-baselines each shard against the global load,
                    # not just the shard's own share.
                    delta=self._cumulated_time - sync_request.c_hat_at_send,
                    generation=self._generation,
                    source=sync_request.source,
                )
            )

        if self._window_count >= self._config.window_size:
            self._window_count = 0
            message = self._window_boundary()
            if message is not None:
                outgoing.append(message)
        return outgoing

    def execute_batch(self, items, execution_times) -> list[ControlMessage]:
        """Record a batch of executed tuples that carry no sync request.

        Bit-identical to calling :meth:`execute` per tuple: ``C_op``
        accumulates term by term
        (:func:`~repro.sketches.count_min.running_total`) and the fold
        keeps per-tuple float semantics (``FWPair.fold``).
        ``items`` and ``execution_times`` are arrays or sequences of
        equal length; an array is kept until the next fold, so the caller
        must not write to it.  The batch may end on the window boundary
        and then returns that tuple's messages (Figure 2); one that would
        cross it, or that holds a negative or non-finite time, raises
        ``ValueError`` with the tracker untouched.
        """
        items = np.asarray(items, dtype=np.int64)
        times = np.asarray(execution_times, dtype=np.float64)
        if items.ndim != 1 or items.shape != times.shape:
            raise ValueError(
                "items and execution_times must be 1-D and of equal length, "
                f"got shapes {items.shape} and {times.shape}"
            )
        if not (np.isfinite(times).all() and (times >= 0.0).all()):
            raise ValueError("execution times must be finite and >= 0")
        count = times.size
        if self._window_count + count > self._config.window_size:
            raise ValueError(
                f"batch of {count} tuples would cross the window boundary "
                f"({self._window_count}/{self._config.window_size} used)"
            )
        if self._items:
            self._batches.append((self._items, self._times))
            self._items, self._times = [], []
        self._batches.append((items, times))
        self._cumulated_time = running_total(self._cumulated_time, times)
        self._tuples_executed += count
        self._window_count += count
        if self._window_count < self._config.window_size:
            return []
        self._window_count = 0
        message = self._window_boundary()
        return [] if message is None else [message]

    def _fold(self) -> None:
        """Fold every recorded tuple into the pair, in execution order."""
        batches = self._batches
        if self._items:
            batches.append((self._items, self._times))
            self._items, self._times = [], []
        if batches:
            # every tuple was checked when it was recorded
            self._pair.fold(
                np.concatenate([items for items, _ in batches], dtype=np.int64),
                np.concatenate([times for _, times in batches], dtype=np.float64),
            )
            batches.clear()

    @property
    def matrices(self) -> FWPair:
        """The instance's ``(F, W)`` pair with every executed tuple folded in."""
        self._fold()
        return self._pair

    @property
    def window_remaining(self) -> int:
        """Tuples left before the next FSM window boundary (Figure 2)."""
        return self._config.window_size - self._window_count

    # ------------------------------------------------------------------
    # fault model
    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Crash-restart the instance: wipe all in-memory state.

        Models a process restart — the matrices, the snapshot, the FSM
        position and the measured ``C_op`` all live in memory and are
        lost; the new incarnation starts from START with zeroed matrices
        and bumps its ``generation`` so the scheduler can tell pre-crash
        messages from post-crash ones.  Lifetime counters
        (``tuples_executed``, ``matrices_sent``, ...) are telemetry-side
        accounting and survive, mirroring an external metrics store.
        """
        self._fold()
        self._pair.reset()
        self._snapshot = None
        self._state = InstanceState.START
        self._window_count = 0
        self._cumulated_time = 0.0
        self._last_shipped = None
        self._last_shipped_tuples = 0
        self._boundaries_since_ship = 0
        self._generation += 1
        self._restarts += 1
        if self._telemetry.enabled:
            self._telemetry.tracer.emit(
                "instance_restart",
                instance=self._instance_id,
                generation=self._generation,
                executed=self._tuples_executed,
            )

    def _window_boundary(self) -> MatricesMessage | None:
        """FSM transition after ``N`` executed tuples (Figure 2)."""
        self._fold()
        self._boundaries_since_ship += 1
        if self._state is InstanceState.START:
            self._snapshot = self._pair.snapshot()
            self._state = InstanceState.STABILIZING
            self._emit_window("snapshot", InstanceState.START, None, 0)
            return self._maybe_rebroadcast()
        # STABILIZING
        assert self._snapshot is not None
        eta = self._pair.relative_error(self._snapshot)
        self._eta_histogram.observe(eta)
        if eta > self._config.mu:
            self._snapshot = self._pair.snapshot()
            self._snapshot_refreshes += 1
            self._emit_window("refresh", InstanceState.STABILIZING, eta, 0)
            return self._maybe_rebroadcast()
        shipped = self._pair.copy()
        message = MatricesMessage(
            instance=self._instance_id,
            matrices=shipped,
            tuples_observed=self._pair.tuples_seen,
            generation=self._generation,
        )
        recovery = self._config.recovery
        if recovery is not None and recovery.rebroadcast_windows is not None:
            # keep a private copy: the scheduler owns the shipped pair
            self._last_shipped = shipped.copy()
            self._last_shipped_tuples = self._pair.tuples_seen
        self._boundaries_since_ship = 0
        self._pair.reset()
        self._snapshot = None
        self._state = InstanceState.START
        self._matrices_sent += 1
        self._emit_window("ship", InstanceState.STABILIZING, eta, message.size_bits())
        return message

    def _maybe_rebroadcast(self) -> MatricesMessage | None:
        """Re-send the last stable matrices when a ship is overdue.

        The scheduler replaces an instance's matrices on receipt, so a
        rebroadcast is idempotent there; it repairs a dropped matrices
        message (or a watchdog-discarded one) without waiting for a
        fresh stabilization cycle.  Armed only under
        :class:`~repro.core.config.RecoveryConfig`.
        """
        recovery = self._config.recovery
        if (
            recovery is None
            or recovery.rebroadcast_windows is None
            or self._last_shipped is None
            or self._boundaries_since_ship < recovery.rebroadcast_windows
        ):
            return None
        self._boundaries_since_ship = 0
        self._matrices_rebroadcasts += 1
        message = MatricesMessage(
            instance=self._instance_id,
            matrices=self._last_shipped.copy(),
            tuples_observed=self._last_shipped_tuples,
            generation=self._generation,
        )
        self._emit_window("rebroadcast", self._state, None, message.size_bits())
        return message

    def _emit_window(
        self,
        outcome: str,
        from_state: InstanceState,
        eta: float | None,
        bits: int,
    ) -> None:
        """Trace one Figure 2 window-boundary decision."""
        if not self._telemetry.enabled:
            return
        self._telemetry.tracer.emit(
            "instance_window",
            instance=self._instance_id,
            outcome=outcome,
            **{"from": from_state.value, "to": self._state.value},
            eta=eta,
            bits=bits,
            executed=self._tuples_executed,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Instance-side FSM accounting as one flat dict."""
        return {
            "instance": self._instance_id,
            "state": self._state.value,
            **stat_values(self, STATS),
        }

    def _collect_samples(self) -> list[Sample]:
        """Export-time metric samples (registered as a collector)."""
        labels = (("instance", str(self._instance_id)),)
        samples = stat_samples(self, STATS, {"instance": labels})
        samples.append(Sample(
            "posg_instance_state_info", 1, "gauge",
            labels + (("state", self._state.value),),
            "Current instance FSM state (label carries the state)",
        ))
        return samples

    @property
    def instance_id(self) -> int:
        """Index of this instance."""
        return self._instance_id

    @property
    def state(self) -> InstanceState:
        """Current FSM state."""
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InstanceTracker(id={self._instance_id}, state={self._state.value}, "
            f"executed={self._tuples_executed}, sent={self._matrices_sent})"
        )
