"""Scheduler side of POSG: the four-state machine of Figure 3.

The scheduler owns:

- ``C_hat`` — a length-``k`` vector of *estimated* cumulated execution
  times, one per operator instance;
- the latest ``(F, W)`` matrix pair received from each instance.

States and transitions (Figure 3):

- **ROUND_ROBIN** — bootstrap: no execution-time information yet, tuples
  are assigned round-robin and ``C_hat`` is not updated.  Incoming
  matrices are collected (3.A); once a pair has arrived from *every*
  instance the scheduler moves to SEND_ALL (3.B).
- **SEND_ALL** — the next ``k`` tuples are assigned round-robin
  (``i mod k``), each piggy-backing a :class:`SyncRequest` carrying the
  scheduler's estimate for its target; ``C_hat`` is updated with
  estimates.  After all ``k`` requests are out, WAIT_ALL (3.C).
- **WAIT_ALL** — scheduling already runs greedily (SUBMIT + UPDATEC);
  :class:`SyncReply` messages are collected (3.D) and, once complete,
  ``C_hat[op] += Delta_op`` for every instance and the scheduler enters
  RUN (3.E).
- **RUN** — steady state: each tuple goes to ``argmin C_hat`` and
  ``C_hat`` grows by the tuple's estimated execution time.

In any state but ROUND_ROBIN, receiving an updated matrix pair restarts
the synchronization: the epoch counter bumps and the scheduler re-enters
SEND_ALL (3.F); replies from stale epochs are discarded.  These edges,
and the recovery-only ones below, are the :data:`TRANSITIONS` table.

Beyond the paper, the scheduler optionally defends itself against a
lossy control plane (see :class:`~repro.core.config.RecoveryConfig`):
a sync-round timeout re-issues requests for missing replies with the
*same* epoch (so stale-reply dropping stays correct across
retransmissions), a staleness watchdog falls back to ROUND_ROBIN when
an instance goes silent, and generation tags on instance messages
re-baseline ``C_hat`` after a crash-restart.  With ``config.recovery``
left ``None`` every defense is disabled and the scheduler is
bit-identical to the paper's protocol.
"""

from __future__ import annotations

import enum
from array import array
from typing import NamedTuple

import numpy as np

from repro.bounds import COUNT
from repro.core.config import POSGConfig
from repro.core.estimate_table import EstimateTable, float_column, span
from repro.core.matrices import FWPair
from repro.core.messages import ControlMessage, MatricesMessage, SyncReply, SyncRequest
from repro.telemetry.recorder import NULL_RECORDER
from repro.telemetry.registry import (
    Sample,
    Stat,
    stat_properties,
    stat_samples,
    stat_values,
)


class SchedulerState(enum.Enum):
    """States of the scheduler FSM (Figure 3)."""

    ROUND_ROBIN = "round_robin"
    SEND_ALL = "send_all"
    WAIT_ALL = "wait_all"
    RUN = "run"


class Edge(NamedTuple):
    """Why the FSM may take one edge: the Figure 3 label, the recovery
    defences that also take it, or both.  ``figure=None`` marks an edge
    that exists only under :class:`~repro.core.config.RecoveryConfig`."""

    figure: str | None
    recovery: tuple[str, ...] = ()


_RR, _SA, _WA, _RUN = SchedulerState

#: every edge :meth:`POSGScheduler._transition` may take; any other raises
TRANSITIONS: dict[tuple[SchedulerState, SchedulerState], Edge] = {
    (_RR, _SA): Edge("3.B"),
    (_SA, _SA): Edge("3.F"),
    (_SA, _WA): Edge("3.C"),
    (_WA, _SA): Edge("3.F", ("retransmit",)),
    (_WA, _RUN): Edge("3.E", ("abandon", "immediate resync")),
    (_RUN, _SA): Edge("3.F"),
    (_WA, _RR): Edge(None, ("watchdog",)),
    (_RUN, _RR): Edge(None, ("watchdog",)),
}

#: the scheduler's counters in ``stats()`` order (``state`` comes first);
#: ``scheduler``-labelled samples carry the shard id under multi-source
#: scheduling, ``shard``-labelled ones follow the cross-shard convention
STATS = (
    Stat("epoch", "_epoch", "Current synchronization epoch",
         "posg_scheduler_epoch", "gauge", "scheduler"),
    Stat("tuples_scheduled", "_tuples_scheduled",
         "Tuples submitted to the POSG scheduler",
         "posg_scheduler_tuples_scheduled_total", "counter", "scheduler"),
    Stat("sync_rounds_completed", "_sync_rounds_completed",
         "Completed WAIT_ALL -> RUN synchronizations",
         "posg_scheduler_sync_rounds_total", "counter", "scheduler"),
    Stat("matrices_received", "_matrices_received",
         "(F, W) pairs received from instances",
         "posg_scheduler_matrices_received_total", "counter", "scheduler"),
    Stat("stale_replies_dropped", "_stale_replies_dropped",
         "Sync replies dropped because their epoch was preempted",
         "posg_scheduler_stale_replies_total", "counter", "scheduler"),
    Stat("control_bits_sent", "_control_bits_sent",
         "Control-plane bits sent by the scheduler",
         "posg_scheduler_control_bits_sent_total", "counter", "scheduler"),
    Stat("control_bits_received", "_control_bits_received",
         "Control-plane bits received by the scheduler",
         "posg_scheduler_control_bits_received_total", "counter", "scheduler"),
    Stat("control_bits", "control_bits",
         "Sent plus received control bits (derived, not exported)"),
    Stat("sync_retransmits", "_sync_retransmits",
         "SEND_ALL retransmission rounds triggered by timeout",
         "posg_scheduler_sync_retransmits_total", "counter", "scheduler"),
    Stat("sync_rounds_abandoned", "_sync_rounds_abandoned",
         "Sync rounds abandoned after exhausting retries",
         "posg_scheduler_sync_rounds_abandoned_total", "counter", "scheduler"),
    Stat("watchdog_fallbacks", "_watchdog_fallbacks",
         "ROUND_ROBIN fallbacks forced by the staleness watchdog",
         "posg_scheduler_watchdog_fallbacks_total", "counter", "scheduler"),
    Stat("restarts_detected", "_restarts_detected",
         "Instance crash-restarts detected via generation tags",
         "posg_scheduler_restarts_detected_total", "counter", "scheduler"),
    Stat("deltas_folded", "_deltas_folded",
         "Delta_op folds applied to C_hat (per shard)",
         "posg_scheduler_deltas_folded_total", "counter", "shard"),
    Stat("sync_latency_tuples", "_sync_latency_tuples",
         "Last sync round's SEND_ALL->fold latency in tuples",
         "posg_scheduler_sync_latency_tuples", "gauge", "shard"),
    Stat("sync_latency_total", "_sync_latency_total",
         "Cumulated sync-round latency in tuples (per shard)",
         "posg_scheduler_sync_latency_tuples_total", "counter", "shard"),
)


class SchedulingDecision(NamedTuple):
    """Outcome of submitting one tuple to the scheduler.

    ``sync_request`` must be piggy-backed on the tuple and handed to the
    target instance by the hosting engine.  ``estimate`` is the believed
    execution time just added to ``C_hat[instance]`` (0.0 in
    ROUND_ROBIN, where ``C_hat`` is not updated) — the cross-shard
    gossip layer forwards it to sibling shards.  A named tuple: one is
    built per submitted tuple, at about half a frozen dataclass's cost.
    """

    instance: int
    sync_request: SyncRequest | None
    state: SchedulerState
    estimate: float = 0.0


@stat_properties(STATS)
class POSGScheduler:
    """The POSG scheduling operator ``S`` (Listing III.2 + Figure 3).

    Parameters
    ----------
    k:
        Number of parallel instances of the downstream operator.
    config:
        Shared POSG parameters.
    source:
        Scheduler shard id under multi-source scheduling (see
        :class:`~repro.core.multisource.MultiSourcePOSGGrouping`).  When
        set, outgoing :class:`SyncRequest`\\ s are stamped with it (the
        instance echoes it back so replies route to the right shard) and
        every telemetry sample / trace event carries a ``scheduler``
        label.  ``None`` (the default) keeps the single-scheduler
        behaviour bit-identical: requests carry ``source=0`` (the
        dataclass default) and no extra labels are emitted.

    The hosting engine drives the scheduler through two entry points:
    :meth:`submit` for every data tuple and :meth:`on_message` for every
    control message arriving from the instances.
    """

    def __init__(
        self,
        k: int,
        config: POSGConfig | None = None,
        latency_hints: "np.ndarray | list[float] | None" = None,
        telemetry=NULL_RECORDER,
        source: int | None = None,
    ) -> None:
        k = COUNT.check("k", k)
        self._k = k
        self._source = source
        self._source_id = 0 if source is None else int(source)
        # pre-built label/kwarg extras so the single-scheduler hot path
        # pays nothing and multi-source telemetry is distinguishable; the
        # ``shard`` label set follows the flight recorder's cross-shard
        # convention, so the attribution tooling joins layers by one key
        self._source_trace: dict = {} if source is None else {"scheduler": source}
        self._labels = {
            name: () if source is None else ((name, str(source)),)
            for name in ("scheduler", "shard")
        }
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self._config = config if config is not None else POSGConfig()
        coordination = self._config.coordination
        self._two_choices = bool(
            coordination is not None and coordination.two_choices
        )
        if latency_hints is None:
            self._latency_hints = None
        else:
            hints = np.asarray(latency_hints, dtype=np.float64)
            if hints.shape != (k,):
                raise ValueError(
                    f"latency_hints must have shape ({k},), got {hints.shape}"
                )
            if not np.all(np.isfinite(hints) & (hints >= 0)):
                raise ValueError("latency hints must be >= 0 and finite")
            if self._two_choices:
                # The probe compares post-add *loads*; nothing defines it
                # against a latency debt, so the pair is refused rather
                # than routed as if two-choices were off.
                raise ValueError(
                    "CoordinationConfig(two_choices=True) cannot be combined "
                    "with latency_hints"
                )
            self._latency_hints = hints
        # Latency-aware extension: per-instance cumulated delivery cost.
        # Kept separate from C_hat so the Delta synchronization (which
        # re-aligns C_hat with the instances' measured *execution* time)
        # does not erase it.
        self._latency_debt = np.zeros(k, dtype=np.float64)
        self._state = SchedulerState.ROUND_ROBIN
        self._c_hat = np.zeros(k, dtype=np.float64)
        self._matrices: dict[int, FWPair] = {}
        # Pooled-estimate fast path: the pair list is re-walked for every
        # tuple, so it is materialized once per matrices message instead
        # of per estimate (dict insertion order is preserved, keeping the
        # float summation order of the per-tuple path).
        self._pairs: tuple[FWPair, ...] = ()
        # The bucket-column cache every stored pair shares, or ``None``
        # when the pairs sit on more than one hash family (hand-built
        # tests): with one family an item is hashed once for all pairs.
        self._family = None
        # Bumped wherever ``_matrices``/``_pairs`` change (a matrices
        # delivery, the watchdog dropping silent instances) and nowhere
        # else: estimate columns gathered under one stamp stay valid
        # until it moves, whatever else the control plane delivers.
        self._matrices_version = 0
        # Per-tuple estimates repeat (a skewed stream routes the same hot
        # items between two deliveries): one memo per instance, keyed by
        # item, voided only when that instance's pair moves.  A miss scans
        # a ``tolist()`` mirror of the pair's F and W rows (plain float
        # indexing), built on first use and dropped with the memo.
        self._memos: list[dict[int, float]] = [{} for _ in range(k)]
        self._mirrors: list[tuple | None] = [None] * k
        # Block estimates repeat far more (every window re-reads the same
        # hot items for every instance): one value per (instance, item
        # id), valid until that instance's pair moves.  Held by reference:
        # shards that store the same pairs share one table.
        self._table = EstimateTable(k)
        self._rr_counter = 0
        self._epoch = 0
        self._sendall_counter = 0
        self._pending_replies: set[int] = set()
        self._pending_deltas: dict[int, float] = {}
        # fault tolerance (RecoveryConfig defenses + restart detection)
        self._recovery = self._config.recovery
        self._resend_targets: list[int] | None = None
        self._sync_retries = 0
        self._current_timeout = (
            self._recovery.sync_timeout if self._recovery is not None else 0
        )
        self._wait_entered = 0
        self._last_matrices_at = [0] * k
        self._generations = [0] * k
        self._c_offsets = [0.0] * k
        # statistics
        self._tuples_scheduled = 0
        self._sync_rounds_completed = 0
        self._matrices_received = 0
        self._stale_replies_dropped = 0
        self._control_bits_received = 0
        self._control_bits_sent = 0
        self._sync_retransmits = 0
        self._sync_rounds_abandoned = 0
        self._watchdog_fallbacks = 0
        self._restarts_detected = 0
        # per-shard sync-round accounting (clocked in tuples scheduled)
        self._sync_started_at = 0
        self._sync_latency_tuples = 0
        self._sync_latency_total = 0
        self._deltas_folded = 0
        # optional cross-shard flight recorder (attach_flight)
        self._flight = None
        # optional fold observer (cross-shard sync-reply snooping)
        self._fold_hook = None
        # Zero-hot-path-cost export: the registry reads these plain ints
        # through a collector only when someone asks for a snapshot.
        self._telemetry.registry.register_collector(self._collect_samples)

    def attach_flight(self, flight) -> None:
        """Route this scheduler's control events into a flight recorder.

        The recorder must already be bound (:meth:`FlightRecorder.bind`)
        to the deployment's shard count; this scheduler reports as shard
        ``source`` (0 when ``source=None``).  Every record point is
        keyed on ``tuples_scheduled``, which both simulator engines keep
        identical at control-delivery points, so the recorded timeline
        is engine-invariant.
        """
        self._flight = flight

    def attach_fold_hook(self, hook) -> None:
        """Observe completed delta folds (cross-shard snooping).

        ``hook(scheduler, instances)`` fires at the end of every
        :meth:`_resynchronize` with the instances whose deltas were
        folded, in fold order.  The multi-source layer uses it to
        publish the freshly re-baselined global ``C_hat`` values to
        sibling shards (see
        :class:`~repro.core.config.CoordinationConfig`).
        """
        self._fold_hook = hook

    # ------------------------------------------------------------------
    # data path (SUBMIT + UPDATEC, Listing III.2)
    # ------------------------------------------------------------------
    def submit(self, item: int) -> SchedulingDecision:
        """Choose the instance for one incoming tuple."""
        self._tuples_scheduled += 1
        if self._recovery is not None:
            self._defense_tick()
        if self._state is SchedulerState.ROUND_ROBIN:
            instance = self._rr_counter % self._k
            self._rr_counter += 1
            return SchedulingDecision(instance, None, SchedulerState.ROUND_ROBIN)

        if self._state is SchedulerState.SEND_ALL:
            targets = self._resend_targets
            if targets is None:
                instance = self._sendall_counter % self._k
                done = self._sendall_counter + 1 >= self._k
            else:
                # retransmission round: only the missing instances
                instance = targets[self._sendall_counter]
                done = self._sendall_counter + 1 >= len(targets)
            self._sendall_counter += 1
            estimate = self.estimate(item, instance)
            self._c_hat[instance] += estimate
            request = SyncRequest(
                instance=instance,
                epoch=self._epoch,
                c_hat_at_send=float(self._c_hat[instance]),
                source=self._source_id,
            )
            self._control_bits_sent += request.size_bits()
            if self._telemetry.enabled:
                self._trace(
                    "sync_request",
                    instance=instance,
                    epoch=self._epoch,
                    c_hat=request.c_hat_at_send,
                    bits=request.size_bits(),
                )
            if self._flight is not None:
                self._flight.record_sync_request(
                    self._source_id, self._tuples_scheduled, instance, self._epoch
                )
            if done:
                self._enter_wait_all()
            return SchedulingDecision(
                instance, request, SchedulerState.SEND_ALL, estimate
            )

        # WAIT_ALL and RUN schedule greedily (Greedy Online Scheduler).
        # The latency-aware extension (the paper's stated future work)
        # charges every assignment its instance's delivery latency, so
        # distant instances receive a proportionally smaller share.
        if self._latency_hints is None:
            instance = int(self._c_hat.argmin())
            estimate = self.estimate(item, instance)
            if self._two_choices and self._k > 1:
                # Deterministic power-of-two-choices probe: compare the
                # argmin candidate against the alternate ``item mod k``
                # (bumped past the candidate on collision) and keep the
                # target whose post-add belief is lower.
                alt = item % self._k
                if alt == instance:
                    alt = alt + 1 if alt + 1 < self._k else 0
                alt_estimate = self.estimate(item, alt)
                if (
                    self._c_hat[alt] + alt_estimate
                    < self._c_hat[instance] + estimate
                ):
                    instance = alt
                    estimate = alt_estimate
        else:
            instance = int(
                np.argmin(self._c_hat + self._latency_debt + self._latency_hints)
            )
            self._latency_debt[instance] += self._latency_hints[instance]
            estimate = self.estimate(item, instance)
        self._c_hat[instance] += estimate
        return SchedulingDecision(instance, None, self._state, estimate)

    def _trace(self, kind: str, **fields) -> None:
        """Emit one control event stamped with the scheduler clock."""
        self._telemetry.tracer.emit(
            kind, **fields, at=self._tuples_scheduled, **self._source_trace
        )

    def _transition(self, new_state: SchedulerState) -> None:
        """Take one :data:`TRANSITIONS` edge, tracing it when telemetry is
        live; an edge the table lacks, or a recovery-only edge with
        recovery off, raises ``RuntimeError`` with the FSM untouched."""
        old_state = self._state
        edge = TRANSITIONS.get((old_state, new_state))
        if edge is None or (edge.figure is None and self._recovery is None):
            raise RuntimeError(
                f"illegal scheduler transition {old_state.name} -> {new_state.name}"
            )
        self._state = new_state
        if self._telemetry.enabled and new_state is not old_state:
            self._trace(
                "scheduler_state",
                **{"from": old_state.value, "to": new_state.value},
                epoch=self._epoch,
            )

    def _enter_wait_all(self) -> None:
        """SEND_ALL done: start (or resume) waiting for the replies."""
        self._transition(SchedulerState.WAIT_ALL)
        if self._recovery is not None:
            self._wait_entered = self._tuples_scheduled
            self._resend_targets = None
            if not self._pending_replies:
                # every reply already arrived while we were still sending
                # (possible under reordering faults); without this the
                # resync condition in _on_sync_reply can never fire again
                # and the round would hang until the next matrices.
                self._resynchronize()

    # ------------------------------------------------------------------
    # fault-tolerance defenses (RecoveryConfig)
    # ------------------------------------------------------------------
    def _defense_deadlines(self) -> tuple[int | None, int | None]:
        """``(stale_at, timeout_at)``: the ``tuples_scheduled`` values at
        which the staleness watchdog (instance ``i`` is stale from
        ``last[i] + staleness_limit + 1`` on) and the sync-round timeout
        act, ``None`` for one that cannot.  The one rule
        :meth:`_defense_tick` and :meth:`defense_deadline` read; recovery
        must be armed and the state WAIT_ALL or RUN."""
        limit = self._recovery.staleness_limit
        stale_at = None if limit is None else min(self._last_matrices_at) + limit + 1
        timeout_at = None
        if self._state is SchedulerState.WAIT_ALL and self._pending_replies:
            timeout_at = self._wait_entered + self._current_timeout
        return stale_at, timeout_at

    def _defense_tick(self) -> None:
        """Act on a reached recovery deadline, the watchdog first; the
        clock is tuples scheduled."""
        state = self._state
        if state is not SchedulerState.WAIT_ALL and state is not SchedulerState.RUN:
            return
        stale_at, timeout_at = self._defense_deadlines()
        now = self._tuples_scheduled
        if stale_at is not None and now >= stale_at:
            last, limit = self._last_matrices_at, self._recovery.staleness_limit
            self._watchdog_fallback(
                [i for i in range(self._k) if now >= last[i] + limit + 1]
            )
        elif timeout_at is not None and now >= timeout_at:
            if self._sync_retries >= self._recovery.sync_max_retries:
                self._abandon_sync_round()
            else:
                self._start_retransmission()

    def defense_deadline(self) -> int | None:
        """The ``tuples_scheduled`` value at which a defence next acts.

        The :meth:`submit` that raises ``tuples_scheduled`` to the
        returned value is the first whose :meth:`_defense_tick`
        retransmits, abandons the round or falls back to ROUND_ROBIN;
        every earlier one only advances the clock.  ``None`` while no
        defence can act (recovery disabled, or ROUND_ROBIN / SEND_ALL,
        where the tick is idle).  Everything read here changes only in
        :meth:`on_message`, in a SEND_ALL ``submit`` or when a defence
        acts, so the answer holds until one of those happens — which is
        what lets an engine route whole control-quiet segments without
        ticking per tuple.
        """
        state = self._state
        if self._recovery is None or (
            state is not SchedulerState.WAIT_ALL and state is not SchedulerState.RUN
        ):
            return None
        deadline, timeout_at = self._defense_deadlines()
        if deadline is None or (timeout_at is not None and timeout_at < deadline):
            deadline = timeout_at
        if deadline is None:
            return None
        # an overdue deadline acts at the very next submit
        return max(deadline, self._tuples_scheduled + 1)

    def _start_retransmission(self) -> None:
        """Re-enter SEND_ALL for the missing replies only (same epoch)."""
        recovery = self._recovery
        self._sync_retries += 1
        self._current_timeout = min(
            int(self._current_timeout * recovery.sync_backoff),
            recovery.sync_timeout_max,
        )
        self._resend_targets = sorted(self._pending_replies)
        self._sendall_counter = 0
        self._sync_retransmits += 1
        if self._telemetry.enabled:
            self._trace(
                "sync_retransmit",
                epoch=self._epoch,
                targets=list(self._resend_targets),
                retry=self._sync_retries,
                timeout=self._current_timeout,
            )
        self._transition(SchedulerState.SEND_ALL)

    def _abandon_sync_round(self) -> None:
        """Give up on the missing replies; fold the partial deltas."""
        self._sync_rounds_abandoned += 1
        missing = sorted(self._pending_replies)
        self._pending_replies = set()
        if self._telemetry.enabled:
            self._trace(
                "sync_round_abandoned",
                epoch=self._epoch,
                missing=missing,
                retries=self._sync_retries,
            )
        self._resynchronize()

    def _watchdog_fallback(self, stale: list[int]) -> None:
        """Drop silent instances' matrices and re-bootstrap (Figure 3.B)."""
        for instance in stale:
            self._matrices.pop(instance, None)
        self._matrices_changed(stale)
        self._pending_replies = set()
        self._pending_deltas = {}
        self._resend_targets = None
        self._watchdog_fallbacks += 1
        if self._telemetry.enabled:
            self._trace("watchdog_fallback", stale=list(stale), epoch=self._epoch)
        self._transition(SchedulerState.ROUND_ROBIN)

    def _note_restart(self, instance: int, generation: int) -> None:
        """Re-baseline ``C_hat[instance]`` after a detected crash-restart.

        The restarted instance measures ``C_op`` from zero, so every
        subsequent delta from its new generation must be shifted by the
        estimate the scheduler had accumulated for its previous life —
        otherwise the first resync would collapse ``C_hat[instance]`` to
        roughly zero and the greedy policy would flood the instance.
        """
        self._generations[instance] = generation
        self._c_offsets[instance] = float(self._c_hat[instance])
        self._restarts_detected += 1
        if self._telemetry.enabled:
            self._trace(
                "instance_restart_detected",
                instance=instance,
                generation=generation,
                c_offset=self._c_offsets[instance],
            )

    # ------------------------------------------------------------------
    # block fast path (vectorized data plane)
    # ------------------------------------------------------------------
    def begin_block(self, items: np.ndarray, profiler=None) -> "_BlockRouter | None":
        """Start routing a *control-quiet* block of tuples.

        Returns a :class:`_BlockRouter` whose ``route_next()`` replays
        :meth:`submit` bit-for-bit over plain Python floats — per-instance
        estimate columns for the block are pre-gathered in one vectorized
        pass, and the per-tuple ``np.argmin`` becomes a tight scalar scan.
        The caller must guarantee that no control message is delivered
        while the block is open (delivering one invalidates the routing
        state), must stop at or before ``len(items)`` tuples, and must
        call ``commit()`` to fold the routed prefix back into the
        scheduler.  After a delivery the same block carries on over the
        rest of ``items`` through ``resume()``, which re-reads the
        routing state and keeps the estimate columns until the matrices
        version moves.

        Returns ``None`` in SEND_ALL (every tuple piggy-backs a
        :class:`SyncRequest` there, so the per-tuple path is required).

        ``profiler`` (a :class:`~repro.telemetry.profiler.PhaseProfiler`,
        duck-typed) wraps the block hashing and estimate gathering in
        "hash"/"estimate" spans.
        """
        if self._state is SchedulerState.SEND_ALL:
            return None
        return _BlockRouter(self, items, profiler)

    def _block_estimates(
        self, items: np.ndarray, profiler=None
    ) -> "list[array]":
        """Per-instance estimate columns for a block: ``[k][count]``.

        All pairs ship from instances sharing one hash family (Listing
        III.1 line 4), so a block whose ids the family's bucket cache
        tables densely is read out of the estimate table, after the
        cells it misses are evaluated.  Any other block — ids outside
        ``[0, limit]``, an instance without matrices, or pairs with a
        foreign family (hand-built tests) — is gathered afresh: hashed
        once and every pair evaluated against the same cells.
        """
        items = np.asarray(items, dtype=np.int64)
        count = items.shape[0]
        pairs = self._pairs
        table = self._table
        table.requests += self._k * count
        row_pairs = self._row_pairs()
        if row_pairs is not None and table.gather(items, row_pairs, profiler):
            with span(profiler, "estimate"):
                return table.columns(
                    items, self._matrices, self._config.pooled_estimates
                )
        table.gathers += 1
        cells = None
        if self._family is not None:
            with span(profiler, "hash"):
                cells = self._family.cells_many(items)
        with span(profiler, "estimate"):
            return self._gather_columns(items, count, pairs, cells)

    def _row_pairs(self) -> "list[FWPair] | None":
        """Every instance's pair in instance order, what the estimate table
        evaluates, if all ``k`` are stored on one hash family."""
        if len(self._pairs) == self._k and self._family is not None:
            return [self._matrices[instance] for instance in range(self._k)]
        return None

    def _gather_columns(
        self, items: np.ndarray, count: int, pairs, cells
    ) -> "list[array]":
        def column(pair: FWPair) -> np.ndarray:
            self._table.evaluations += count
            if cells is not None:
                return pair.estimate_many_cells(cells)
            return pair.estimate_many(items)

        if self._config.pooled_estimates and pairs:
            total = np.zeros(count, dtype=np.float64)
            for pair in pairs:
                total = total + column(pair)
            return [float_column(total / len(pairs))] * self._k
        zeros = None
        columns = []
        for instance in range(self._k):
            pair = self._matrices.get(instance)
            if pair is None:
                if zeros is None:
                    zeros = float_column(np.zeros(count, dtype=np.float64))
                columns.append(zeros)
            else:
                columns.append(float_column(column(pair)))
        return columns

    def estimate(self, item: int, instance: int) -> float:
        """Estimated execution time of ``item`` on ``instance``.

        Paper behaviour (Listing III.2): read the target instance's
        matrices.  With ``config.pooled_estimates`` the estimate averages
        over every instance's matrices instead (see
        :class:`~repro.core.config.POSGConfig`), summed left to right in
        ``_pairs`` order from the per-instance memos.  A pooled miss is
        nearly always an item's first sighting, missing on every
        instance: on one hash family its columns are read once for all.
        """
        memos = self._memos
        if self._config.pooled_estimates and self._pairs:
            family = self._family
            columns = None
            total = 0.0
            for index in self._matrices:
                value = memos[index].get(item)
                if value is None:
                    if columns is None and family is not None:
                        columns = family.columns(item)
                    value = self._evaluate(item, index, columns)
                total += value
            return total / len(self._pairs)
        value = memos[instance].get(item)
        if value is None:
            value = self._evaluate(item, instance)
        return value

    def _evaluate(self, item: int, instance: int, columns=None) -> float:
        """``instance``'s own estimate of ``item`` (0 without a pair), memoised.

        ``columns`` are the item's bucket columns on the pair's family,
        read here when not given.
        """
        pair = self._matrices.get(instance)
        if pair is None:
            value = 0.0
        else:
            mirror = self._mirrors[instance]
            if mirror is None:
                mirror = self._mirrors[instance] = pair.rows()
            if columns is None:
                columns = pair.freq.bucket_cache.columns(item)
            value = pair.estimate_in(mirror, columns)
        self._memos[instance][item] = value
        return value

    def row_estimates(
        self, item: int, instance: int
    ) -> "list[tuple[float, float]] | None":
        """Per-row ``(F, W/F)`` cells behind :meth:`estimate`, or ``None``.

        Exposes the target instance's pair row by row so the estimator
        audit can diagnose Count-Min collisions (rows disagreeing on the
        count mean some row took a collision).  Returns ``None`` before
        the instance's first matrices arrive.  Read-only: no scheduler
        state changes.
        """
        pair = self._matrices.get(instance)
        return pair.row_values(item) if pair is not None else None

    # ------------------------------------------------------------------
    # control path
    # ------------------------------------------------------------------
    def on_message(self, message: ControlMessage) -> None:
        """Deliver a control message (matrices or sync reply)."""
        if isinstance(message, MatricesMessage):
            self._on_matrices(message)
        elif isinstance(message, SyncReply):
            self._on_sync_reply(message)
        else:
            raise TypeError(f"unexpected control message: {message!r}")

    def _matrices_changed(self, instances) -> None:
        """Every write to ``_matrices`` ends here: whatever was derived
        from the old pairs of ``instances`` (gathered columns, their
        memoised estimates and row mirrors, their rows of the estimate
        table) is void."""
        pairs = self._pairs = tuple(self._matrices.values())
        self._family = (
            pairs[0].freq.bucket_cache
            if pairs and all(pair.hashes is pairs[0].hashes for pair in pairs)
            else None
        )
        self._matrices_version += 1
        for instance in instances:
            self._memos[instance].clear()
            self._mirrors[instance] = None
        self._table.void(instances)

    def _on_matrices(self, message: MatricesMessage) -> None:
        if not 0 <= message.instance < self._k:
            raise ValueError(f"matrices from unknown instance {message.instance}")
        stored = self._matrices.get(message.instance)
        restarted = message.generation > self._generations[message.instance]
        if restarted:
            # A new incarnation: its matrices describe only post-crash
            # tuples, so any stored pre-crash pair must be replaced, not
            # merged into.
            self._note_restart(message.instance, message.generation)
        if stored is not None and self._config.merge_matrices and not restarted:
            # The instance reset after shipping, so the incoming pair holds
            # only fresh samples; merging accumulates the full history
            # (Count-Min sketches are linear).  An optional decay ages the
            # history so stale load characteristics fade out.
            if self._config.merge_decay < 1.0:
                stored.scale(self._config.merge_decay)
            stored.freq.merge(message.matrices.freq)
            stored.work.merge(message.matrices.work)
        else:
            self._matrices[message.instance] = message.matrices
        self._matrices_changed((message.instance,))
        self._matrices_received += 1
        self._last_matrices_at[message.instance] = self._tuples_scheduled
        self._control_bits_received += message.size_bits()
        if self._telemetry.enabled:
            self._trace(
                "matrices_received",
                instance=message.instance,
                tuples_observed=message.tuples_observed,
                bits=message.size_bits(),
                merged=bool(stored is not None and self._config.merge_matrices),
            )
        if self._flight is not None:
            self._flight.record_matrices(
                self._source_id, self._tuples_scheduled, message.instance
            )
        if self._state is SchedulerState.ROUND_ROBIN:
            if len(self._matrices) == self._k:
                self._begin_sync_round()  # Figure 3.B
        else:
            self._begin_sync_round()  # Figure 3.F

    def _begin_sync_round(self) -> None:
        """Enter SEND_ALL with a fresh epoch."""
        self._epoch += 1
        self._sendall_counter = 0
        self._sync_started_at = self._tuples_scheduled
        self._pending_replies = set(range(self._k))
        self._pending_deltas = {}
        if self._recovery is not None:
            self._sync_retries = 0
            self._current_timeout = self._recovery.sync_timeout
            self._resend_targets = None
        self._transition(SchedulerState.SEND_ALL)

    def _on_sync_reply(self, reply: SyncReply) -> None:
        outdated = False
        if 0 <= reply.instance < self._k:
            known = self._generations[reply.instance]
            if reply.generation > known:
                # The restart surfaced through a reply before any
                # post-crash matrices did; re-baseline immediately.
                self._note_restart(reply.instance, reply.generation)
            elif reply.generation < known:
                # Pre-crash measurement from a dead incarnation.
                outdated = True
        stale = (
            outdated
            or reply.epoch != self._epoch
            or reply.instance not in self._pending_replies
        )
        if stale:
            self._stale_replies_dropped += 1
        else:
            self._control_bits_received += reply.size_bits()
        if self._telemetry.enabled:
            self._trace(
                "sync_reply",
                instance=reply.instance,
                epoch=reply.epoch,
                delta=reply.delta,
                bits=reply.size_bits(),
                stale=stale,
            )
        if self._flight is not None:
            self._flight.record_sync_reply(
                self._source_id, self._tuples_scheduled, reply.instance,
                reply.epoch, stale,
            )
        if stale:
            return
        delta = reply.delta
        offset = self._c_offsets[reply.instance]
        if offset != 0.0:
            # Shift the new incarnation's delta so the fold reconstructs
            # the lifetime cumulated time (see _note_restart).
            delta += offset
        self._pending_replies.discard(reply.instance)
        self._pending_deltas[reply.instance] = delta
        if not self._pending_replies and self._state is SchedulerState.WAIT_ALL:
            self._resynchronize()  # Figure 3.E

    def _resynchronize(self) -> None:
        """Fold every ``Delta_op`` into ``C_hat`` and enter RUN."""
        folded = len(self._pending_deltas)
        folded_instances = list(self._pending_deltas)
        for instance, delta in self._pending_deltas.items():
            self._c_hat[instance] += delta
        self._pending_deltas = {}
        self._sync_rounds_completed += 1
        self._deltas_folded += folded
        latency = self._tuples_scheduled - self._sync_started_at
        self._sync_latency_tuples = latency
        self._sync_latency_total += latency
        if self._flight is not None:
            self._flight.record_fold(
                self._source_id, self._tuples_scheduled, self._epoch, folded
            )
        if self._telemetry.enabled:
            self._trace(
                "sync_round_complete",
                epoch=self._epoch,
                rounds=self._sync_rounds_completed,
            )
        self._transition(SchedulerState.RUN)
        if self._fold_hook is not None and folded_instances:
            self._fold_hook(self, folded_instances)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Control- and data-plane accounting as one flat dict.

        This is the scheduler-side counterpart of
        :attr:`repro.storm.metrics.TopologyMetrics.control_bits`: both
        layers report control overhead in *bits* so Figure 12's overhead
        numbers are comparable across substrates.
        """
        return {"state": self._state.value, **stat_values(self, STATS)}

    def _collect_samples(self) -> list[Sample]:
        """Export-time metric samples (registered as a collector): the
        ``scheduler`` / ``shard`` label sets tell shards apart under
        multi-source scheduling and are empty when ``source`` is None."""
        extra = self._labels["scheduler"]
        samples = stat_samples(self, STATS, self._labels)
        samples.append(Sample(
            "posg_scheduler_state_info", 1, "gauge",
            (("state", self._state.value),) + extra,
            "Current scheduler FSM state (label carries the state)",
        ))
        samples.extend(
            Sample(
                "posg_scheduler_c_hat_ms", value, "gauge",
                (("instance", str(instance)),) + extra,
                "Estimated cumulated execution time per instance",
            )
            for instance, value in enumerate(self._c_hat.tolist())
        )
        return samples

    @property
    def k(self) -> int:
        """Number of downstream instances."""
        return self._k

    @property
    def source(self) -> int | None:
        """Scheduler shard id, or ``None`` outside multi-source mode."""
        return self._source

    @property
    def config(self) -> POSGConfig:
        """The POSG configuration in force."""
        return self._config

    @property
    def state(self) -> SchedulerState:
        """Current FSM state."""
        return self._state

    @property
    def c_hat(self) -> np.ndarray:
        """Read-only view of the estimated cumulated execution times."""
        view = self._c_hat.view()
        view.flags.writeable = False
        return view

    @property
    def matrices_version(self) -> int:
        """Stamp that moves exactly when the stored matrices change."""
        return self._matrices_version

    @property
    def recovery(self):
        """The :class:`RecoveryConfig` in force, or ``None`` (disabled)."""
        return self._recovery

    @property
    def pending_replies(self) -> frozenset[int]:
        """Instances whose reply for the current epoch is still missing."""
        return frozenset(self._pending_replies)

    @property
    def control_bits(self) -> int:
        """Total control-plane traffic touched by the scheduler, in bits."""
        return self._control_bits_received + self._control_bits_sent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"POSGScheduler(k={self._k}, state={self._state.value}, "
            f"epoch={self._epoch}, scheduled={self._tuples_scheduled})"
        )


class _BlockRouter:
    """Scalar-loop replay of :meth:`POSGScheduler.submit` for one block.

    In ROUND_ROBIN mode (``_estimates is None``) it advances the round-robin
    counter; in greedy mode it scans a plain-float copy of ``C_hat`` (plus
    latency debt/hints when configured) with the same first-minimum
    tie-breaking as ``np.argmin``, applies the two-choices probe when the
    scheduler has it armed, and accrues the pre-gathered estimates.
    All arithmetic happens on the exact same IEEE doubles the per-tuple
    path would touch, so the routed sequence is bit-identical.

    ``_c`` is snapshotted in both modes: cross-shard gossip writes sibling
    adds into it even while its owner is still in ROUND_ROBIN.
    """

    __slots__ = (
        "_scheduler",
        "_items",
        "_columns",
        "_version",
        "_estimates",
        "_k",
        "_pos",
        "_committed",
        "_rr",
        "_c",
        "_debt",
        "_hints",
    )

    def __init__(self, scheduler: POSGScheduler, items, profiler=None) -> None:
        self._scheduler = scheduler
        self._items = items
        self._k = scheduler._k
        self._pos = self._committed = 0
        self._columns = None
        self._version = -1
        self.resume(profiler)

    def resume(self, profiler=None) -> None:
        """Re-open the block at ``_pos`` for another control-quiet segment.

        Re-reads what control deliveries may have changed — the FSM mode,
        ``C_hat``, the round-robin counter, the latency debt — and
        re-gathers the estimate columns only if the scheduler's matrices
        version moved since they were gathered: sync replies and snooped
        folds change ``C_hat`` but never an estimate.
        """
        scheduler = self._scheduler
        self._c = scheduler._c_hat.tolist()
        self._rr = self._estimates = self._debt = self._hints = None
        if scheduler._state is SchedulerState.ROUND_ROBIN:
            self._rr = scheduler._rr_counter
            return
        if self._version != scheduler._matrices_version:
            self._columns = scheduler._block_estimates(self._items, profiler)
            self._version = scheduler._matrices_version
        self._estimates = self._columns
        if scheduler._latency_hints is not None:
            self._hints = scheduler._latency_hints.tolist()
            self._debt = scheduler._latency_debt.tolist()

    def route_next(self) -> int:
        """Route one tuple; returns its instance (no sync payloads here)."""
        pos = self._pos
        self._pos = pos + 1
        if self._estimates is None:
            instance = self._rr % self._k
            self._rr += 1
            return instance
        c = self._c
        if self._hints is None:
            best = c[0]
            instance = 0
            for i in range(1, self._k):
                value = c[i]
                if value < best:
                    best = value
                    instance = i
            estimate = self._estimates[instance][pos]
            if self._scheduler._two_choices and self._k > 1:
                alt = int(self._items[pos]) % self._k
                if alt == instance:
                    alt = alt + 1 if alt + 1 < self._k else 0
                alt_estimate = self._estimates[alt][pos]
                if c[alt] + alt_estimate < c[instance] + estimate:
                    instance = alt
                    estimate = alt_estimate
        else:
            debt, hints = self._debt, self._hints
            best = (c[0] + debt[0]) + hints[0]
            instance = 0
            for i in range(1, self._k):
                value = (c[i] + debt[i]) + hints[i]
                if value < best:
                    best = value
                    instance = i
            debt[instance] += hints[instance]
            estimate = self._estimates[instance][pos]
        c[instance] += estimate
        return instance

    def commit(self) -> None:
        """Fold the tuples routed since the last commit into the scheduler."""
        scheduler = self._scheduler
        scheduler._tuples_scheduled += self._pos - self._committed
        self._committed = self._pos
        scheduler._c_hat[:] = self._c
        if self._estimates is None:
            scheduler._rr_counter = self._rr
        elif self._hints is not None:
            scheduler._latency_debt[:] = self._debt
