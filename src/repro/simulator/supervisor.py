"""Worker supervision for the multi-process parallel data plane.

The parallel engine (:mod:`repro.simulator.parallel`) runs the shard
route loops in worker processes.  Before this module a crashed worker
was a hard ``RuntimeError`` for the whole run and a hung-but-alive
worker blocked the parent's ack wait forever.  The
:class:`WorkerSupervisor` turns both into routine, *recoverable*
events:

- **detection** — every dispatched segment carries a per-worker ack
  deadline; a worker that dies (process exit, external SIGKILL, an
  injected crash fault) or misses the deadline (GC pause, live-lock,
  an injected hang fault) is flagged;
- **kill + respawn** — the failed worker is terminated (escalating to
  ``kill()``), a fresh process is spawned from the frozen
  :class:`~repro.core.multisource.ShardWorkerSpec` after an
  exponential backoff, and the *same* segment is re-dispatched;
- **degraded mode** — after ``max_respawns`` kills, the worker's
  shards are routed inline by the parent for the rest of the run (or,
  under ``degraded_policy="raise"``, the failure is escalated).

Respawn-replay is safe **by construction**: workers route
speculatively against frozen shared-memory state (the parent writes
every input region before dispatch and workers only write their own
output regions), and the parent commits only merged prefixes.  An
unacked segment is therefore uncommitted, its arena inputs are still
exactly as dispatched, and re-routing it — on a fresh worker or in the
parent — replays the identical IEEE-754 operation sequence.  A run
that loses and respawns workers is **bit-identical** to an undisturbed
run, and hence to the sequential engines (gated by
``tests/simulator/test_supervision.py`` and
``python -m repro.experiments chaos --parallel``).

The supervisor is always in the loop: without an explicit
:class:`SupervisionConfig` the engine runs a *strict* policy
(``max_respawns=0``, ``degraded_policy="raise"``, a generous
:data:`DEFAULT_ACK_DEADLINE_S`), so even unsupervised runs surface a
hung worker as a deadline error instead of spinning forever.

All supervisor clocks are wall-clock (``perf_counter``) on the parent
side only; no deterministic quantity ever reads them, so the engine's
seed discipline is untouched.
"""

from __future__ import annotations

import multiprocessing.connection
import time
from dataclasses import dataclass
from time import perf_counter

from repro.bounds import check_bounds, integer, real
from repro.telemetry.recorder import NULL_RECORDER

#: ack deadline (seconds per segment) when no SupervisionConfig is given —
#: generous enough for any honest segment, finite so a hung worker trips
#: an error instead of blocking the parent forever
DEFAULT_ACK_DEADLINE_S = 120.0

#: how long the supervisor's multiplexed ack wait sleeps between checks
_POLL_S = 0.05

#: what to do once a worker exhausts its respawn budget
DEGRADED_POLICIES = ("inline", "raise")


@dataclass(frozen=True)
class SupervisionConfig:
    """Policy knobs for :class:`WorkerSupervisor`.

    Parameters
    ----------
    ack_deadline_s:
        Per-segment ack deadline.  A worker that has not acked a
        dispatched segment within this many seconds is declared hung,
        killed, and (budget permitting) respawned.  The clock resets on
        every (re)dispatch.
    max_respawns:
        Kill + respawn budget *per worker*.  ``0`` disables healing:
        the first failure escalates straight to the degraded policy.
    backoff_base_s, backoff_factor, backoff_max_s:
        Exponential backoff before respawn attempt ``n``:
        ``min(backoff_base_s * backoff_factor**(n-1), backoff_max_s)``
        seconds.  Purely wall-clock; never affects results.
    degraded_policy:
        ``"inline"`` — after the respawn budget is spent, the parent
        routes the worker's shards itself for the rest of the run
        (bit-identical: the inline router replays the exact worker
        code path over the same arena).  ``"raise"`` — escalate the
        failure as a ``RuntimeError`` (the pre-supervision behaviour).
    spawn_grace_s:
        Extra allowance added to the ack deadline of the *first*
        segment each worker incarnation answers.  A freshly (re)spawned
        process still pays interpreter startup and imports — expensive
        under the ``spawn`` start method — and must not be misread as
        hung before it has ever acked.
    """

    ack_deadline_s: float = real(30.0, low=0, open_low=True)
    max_respawns: int = integer(2, low=0)
    backoff_base_s: float = real(0.05, low=0)
    backoff_factor: float = real(2.0, low=1)
    backoff_max_s: float = real(1.0, low=0)
    degraded_policy: str = "inline"
    spawn_grace_s: float = real(10.0, low=0)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                "backoff_max_s must be >= backoff_base_s, got "
                f"{self.backoff_max_s} < {self.backoff_base_s}"
            )
        if self.degraded_policy not in DEGRADED_POLICIES:
            raise ValueError(
                f"degraded_policy must be one of {DEGRADED_POLICIES}, "
                f"got {self.degraded_policy!r}"
            )

    @classmethod
    def strict(cls) -> "SupervisionConfig":
        """The implicit policy of unsupervised runs: detect, never heal.

        Reads :data:`DEFAULT_ACK_DEADLINE_S` at call time so tests can
        shrink the deadline without rebuilding configs.
        """
        return cls(
            ack_deadline_s=DEFAULT_ACK_DEADLINE_S,
            max_respawns=0,
            degraded_policy="raise",
        )

    def summary(self) -> dict:
        """Plain-dict form for run reports."""
        return {
            "ack_deadline_s": self.ack_deadline_s,
            "max_respawns": self.max_respawns,
            "backoff_base_s": self.backoff_base_s,
            "backoff_factor": self.backoff_factor,
            "backoff_max_s": self.backoff_max_s,
            "degraded_policy": self.degraded_policy,
            "spawn_grace_s": self.spawn_grace_s,
        }


class WorkerFailure(RuntimeError):
    """A worker failed and the supervision policy forbids healing it."""


class WorkerSupervisor:
    """Spawns, watches, heals, and retires shard-routing workers.

    The supervisor owns the worker processes and their pipes.  The
    engine drives it with one call per control-quiet segment
    (:meth:`route_segment`) and one at teardown (:meth:`shutdown`); it
    never touches the processes directly.

    Parameters
    ----------
    ctx:
        The ``multiprocessing`` context (start method already chosen).
    target:
        The worker entry point (``_worker_main``); called with
        ``(spec, layout, shm_name, shard_ids, conn,
        flight_every, lineage_every, worker_faults)``.
    spec, layout, shm_name:
        The frozen respawn recipe: everything a fresh worker needs to
        attach the arena and route, shipped by value.
    worker_shards:
        ``worker_shards[w]`` = shard ids owned by worker ``w``.
    flight_every:
        Flight-recorder sampling stride shipped to workers (0 = off).
    lineage_every:
        Lineage-tracer sampling stride shipped to workers (0 = off).
    config:
        The supervision policy; ``None`` selects
        :meth:`SupervisionConfig.strict` (detect-only).
    worker_faults:
        Scripted :class:`~repro.faults.plan.WorkerFault` events to ship
        into the workers (chaos testing).  Faults already fired are
        filtered out of a respawned worker's list so a replayed segment
        cannot re-crash deterministically forever.
    inline_router:
        ``inline_router(shard, start, end)`` routes one shard's slice
        in the parent — the degraded-mode fallback.  Must replay the
        worker code path exactly (the engine passes a closure over
        ``_route_shard``).
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector` to book
        injected worker faults and respawns into.
    recorder:
        Telemetry recorder for lifecycle tracer events.
    flight:
        Optional :class:`~repro.telemetry.flightrecorder.FlightRecorder`;
        lifecycle events land in its (non-deterministic) worker-event
        side channel.
    """

    def __init__(
        self,
        *,
        ctx,
        target,
        spec,
        layout,
        shm_name: str,
        worker_shards: list[list[int]],
        flight_every: int,
        lineage_every: int = 0,
        config: "SupervisionConfig | None" = None,
        worker_faults: tuple = (),
        inline_router=None,
        injector=None,
        recorder=NULL_RECORDER,
        flight=None,
    ) -> None:
        self._ctx = ctx
        self._target = target
        self._spec = spec
        self._layout = layout
        self._shm_name = shm_name
        self._worker_shards = worker_shards
        self._flight_every = flight_every
        self._lineage_every = lineage_every
        self._enabled = config is not None
        self._config = config if config is not None else SupervisionConfig.strict()
        self._inline_router = inline_router
        self._injector = injector
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._flight = flight

        n = len(worker_shards)
        self._n = n
        self._procs: list = [None] * n
        self._conns: list = [None] * n
        self._degraded = [False] * n
        self._respawns = [0] * n
        #: True until an incarnation's first ok ack — its next deadline
        #: carries the spawn grace on top of the ack deadline
        self._warming = [True] * n
        #: armed faults of each worker's *current incarnation*, keyed by
        #: segment — mirrors the dict the worker itself pops from
        self._armed: list[dict] = [
            {f.segment: f for f in worker_faults if f.worker == w}
            for w in range(n)
        ]
        self._segment_index = 0
        self._crashes_detected = 0
        self._hangs_detected = 0
        self._worker_errors = 0
        self._replayed_segments = 0
        self._inline_segments = 0
        self._faults_shipped = {"crash": 0, "hang": 0, "stall": 0}
        self._lifecycle: list[dict] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def config(self) -> SupervisionConfig:
        return self._config

    @property
    def segments_dispatched(self) -> int:
        return self._segment_index

    def start(self) -> None:
        """Spawn every worker (incarnation 0)."""
        for w in range(self._n):
            self._spawn(w)

    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        incarnation_faults = tuple(
            sorted(self._armed[w].values(), key=lambda f: f.segment)
        )
        process = self._ctx.Process(
            target=self._target,
            args=(
                self._spec,
                self._layout,
                self._shm_name,
                self._worker_shards[w],
                child_conn,
                self._flight_every,
                self._lineage_every,
                incarnation_faults,
            ),
            name=f"posg-shard-worker-{w}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._procs[w] = process
        self._conns[w] = parent_conn
        self._warming[w] = True

    def _kill(self, w: int) -> None:
        """Force one worker down: terminate, then escalate to kill."""
        process = self._procs[w]
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout=2)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        else:
            process.join(timeout=1)
        conn = self._conns[w]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self._conns[w] = None

    def shutdown(self) -> None:
        """Teardown with escalation; never raises, never leaves zombies.

        Graceful first (the ``None`` sentinel), then ``terminate()``,
        then ``kill()`` for anything still alive — a hung or wedged
        worker cannot outlive an aborted run.
        """
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for process in self._procs:
            if process is None:
                continue
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        for w, conn in enumerate(self._conns):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
                self._conns[w] = None

    # ------------------------------------------------------------------
    # the per-segment drive
    # ------------------------------------------------------------------
    def route_segment(self, start: int, end: int) -> float:
        """Route ``[start, end)`` across all workers; heal as needed.

        Returns the wall-clock seconds the parent spent waiting
        (the engine's ``merge_stall`` contribution).  Raises
        :class:`WorkerFailure` only when a worker fails and the policy
        says ``raise`` (strict mode, or inline budget exhausted under
        ``degraded_policy="raise"``).
        """
        seg = self._segment_index
        self._segment_index += 1
        stall0 = perf_counter()
        deadline = self._config.ack_deadline_s
        pending: dict[int, float] = {}
        for w in range(self._n):
            if self._degraded[w]:
                self._route_inline(w, start, end)
            else:
                self._dispatch(w, start, end, seg)
                pending[w] = perf_counter() + deadline + (
                    self._config.spawn_grace_s if self._warming[w] else 0.0
                )
        while pending:
            ready = multiprocessing.connection.wait(
                [self._conns[w] for w in pending], timeout=_POLL_S
            )
            ready_set = set(ready)
            now = perf_counter()
            for w in sorted(pending):
                conn = self._conns[w]
                if conn in ready_set:
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        self._heal(w, "crash", seg, start, end, pending)
                        continue
                    if reply[0] == "ok":
                        self._warming[w] = False
                        del pending[w]
                    else:  # ("error", text): in-worker exception
                        self._heal(
                            w, "error", seg, start, end, pending,
                            detail=reply[1],
                        )
                elif not self._procs[w].is_alive():
                    self._heal(w, "crash", seg, start, end, pending)
                elif now > pending[w]:
                    self._heal(w, "hang", seg, start, end, pending)
        return perf_counter() - stall0

    def _dispatch(self, w: int, start: int, end: int, seg: int) -> None:
        fault = self._armed[w].pop(seg, None)
        if fault is not None:
            # booked at dispatch: the fault *will* fire in the worker,
            # even when (e.g. a short hang) the parent can't detect it
            self._faults_shipped[fault.kind] += 1
            if self._injector is not None:
                self._injector.note_worker_fault(fault)
            self._event("worker_fault_shipped", w, seg, fault_kind=fault.kind)
        try:
            self._conns[w].send((start, end, seg))
        except (OSError, BrokenPipeError):
            # death between segments; the ack wait will heal it, but the
            # send itself must not take the run down
            pass

    def _route_inline(self, w: int, start: int, end: int) -> None:
        """Degraded fallback: the parent routes the worker's shards."""
        if self._inline_router is None:
            raise WorkerFailure(
                f"worker {w} is degraded but no inline router is available"
            )
        for shard in self._worker_shards[w]:
            self._inline_router(shard, start, end)
        self._inline_segments += 1

    def _heal(
        self,
        w: int,
        cause: str,
        seg: int,
        start: int,
        end: int,
        pending: dict,
        detail: str | None = None,
    ) -> None:
        """One worker failed this segment: kill, then respawn or degrade."""
        self._kill(w)
        exitcode = getattr(self._procs[w], "exitcode", None)
        if cause == "crash":
            self._crashes_detected += 1
        elif cause == "hang":
            self._hangs_detected += 1
        else:
            self._worker_errors += 1
        self._event(
            f"worker_{cause}_detected", w, seg,
            exitcode=exitcode,
            respawns_used=self._respawns[w],
        )
        # faults at or before the failed segment belong to the dead
        # incarnation; dropping them keeps a replayed segment from
        # re-firing the same scripted crash forever
        self._armed[w] = {
            s: f for s, f in self._armed[w].items() if s > seg
        }
        if self._respawns[w] < self._config.max_respawns:
            self._respawns[w] += 1
            backoff = min(
                self._config.backoff_base_s
                * self._config.backoff_factor ** (self._respawns[w] - 1),
                self._config.backoff_max_s,
            )
            if backoff > 0.0:
                time.sleep(backoff)
            self._spawn(w)
            if self._injector is not None:
                self._injector.note_worker_respawn(w)
            self._event(
                "worker_respawned", w, seg, attempt=self._respawns[w]
            )
            self._replayed_segments += 1
            self._dispatch(w, start, end, seg)
            # a fresh incarnation is always warming
            pending[w] = (
                perf_counter()
                + self._config.ack_deadline_s
                + self._config.spawn_grace_s
            )
            return
        # respawn budget spent
        pending.pop(w, None)
        if self._config.degraded_policy == "raise":
            message = (
                f"parallel worker {w} {cause} on segment {seg} "
                f"(exit code {exitcode}, "
                f"{self._respawns[w]}/{self._config.max_respawns} "
                "respawns used)"
            )
            if detail:
                message += f":\n{detail}"
            raise WorkerFailure(message)
        self._degraded[w] = True
        self._event("worker_degraded", w, seg)
        self._route_inline(w, start, end)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _event(self, kind: str, worker: int, segment: int, **extra) -> None:
        record = {"event": kind, "worker": worker, "segment": segment}
        record.update({k: v for k, v in extra.items() if v is not None})
        self._lifecycle.append(record)
        if self._recorder.enabled:
            self._recorder.tracer.emit(kind, worker=worker, segment=segment, **extra)
        if self._flight is not None:
            self._flight.record_worker_event(worker, kind, segment)

    @property
    def failures_detected(self) -> int:
        return self._crashes_detected + self._hangs_detected + self._worker_errors

    @property
    def degraded_workers(self) -> list[int]:
        return [w for w in range(self._n) if self._degraded[w]]

    def report(self) -> dict:
        """The run report's ``supervision`` block.

        ``recovered`` means every detected failure was healed by a
        respawn — the run finished at full worker strength.  A degraded
        run still produces bit-identical output, but the report flags
        it so operators know capacity was lost.
        """
        return {
            "enabled": self._enabled,
            "config": self._config.summary(),
            "workers": self._n,
            "segments": self._segment_index,
            "crashes_detected": self._crashes_detected,
            "hangs_detected": self._hangs_detected,
            "worker_errors": self._worker_errors,
            "respawns": list(self._respawns),
            "respawns_total": sum(self._respawns),
            "replayed_segments": self._replayed_segments,
            "degraded_workers": self.degraded_workers,
            "inline_segments": self._inline_segments,
            "injected_worker_faults": dict(self._faults_shipped),
            "lifecycle": list(self._lifecycle),
            "recovered": not any(self._degraded),
        }
