"""Multi-process data plane for the sharded POSG policy.

The paper deploys one scheduler in one process; this module is the one
place the simulator runs the ``s`` shard schedulers of
:class:`~repro.core.multisource.MultiSourcePOSGGrouping` in worker
processes.  Tuple ``i`` is routed by shard ``i mod s``, so within a
*control-quiet segment* (no control-message delivery, no FSM
transition) each shard's routing decisions depend only on its own
frozen ``C_hat`` and stored ``(F, W)`` matrices and its own strided
slice of the segment: ``s`` independent greedy scans.

Architecture
------------
- **Shared-memory arena** (:class:`ShardArena`): one
  ``multiprocessing.shared_memory`` block with an explicit layout
  holding the stream items, per shard the routing state (FSM mode,
  round-robin counter, ``C_hat``, the stored ``F``/``W`` matrices with
  their total weights and ``_pairs`` iteration order) and the per-segment
  outputs (assigned instance, estimate used, post-segment ``C_hat``).
- **Workers**: long-lived processes, each owning a fixed subset of
  shards.  A worker rebuilds the hash family from
  :meth:`~repro.core.multisource.MultiSourcePOSGGrouping.worker_spec`
  once, wraps the shared matrices in view-backed
  :class:`~repro.core.matrices.FWPair` objects and replays the
  sequential block router's estimate gathering and first-minimum
  greedy scan over its slice: the same float operations in the same
  per-shard order.  A worker that dies, raises or misses the ack
  deadline fails the run with ``RuntimeError``.
- **Deterministic merge**: the parent interleaves the per-shard
  decisions back into arrival order (a strided scatter) and replays
  everything that depends on the merged order: per-instance FIFO
  chains, instance-side sketch folds, window boundaries and control
  messages.  A window-boundary message can end the segment early;
  routed tuples past the new bound are *speculative* and discarded,
  and each truncated shard's ``C_hat`` is rebuilt by replaying the
  committed prefix's adds in order.

Workers draw no random numbers and read no clocks, so a run is
bit-identical to :func:`~repro.simulator.run.simulate_stream` for fixed
seeds: completions, assignments, FSM transitions and control traffic.
Any shard in SEND_ALL (tuples piggy-back sync requests) sends the tuple
through the sequential per-tuple step instead.

The pool runs the plain policy only: fault plans, observers, latency
models, queue samples, recovery defences and cross-shard coordination
all run through :func:`~repro.simulator.run.simulate_stream`, and the
last two are refused here before any state moves.
"""

from __future__ import annotations

import bisect
import heapq
import multiprocessing
import multiprocessing.connection
from multiprocessing import shared_memory
from time import perf_counter

import numpy as np

from repro.bounds import COUNT, index_arg
from repro.core.matrices import FWPair
from repro.core.multisource import MultiSourcePOSGGrouping, ShardWorkerSpec
from repro.core.scheduler import SchedulerState
from repro.simulator.metrics import CompletionStats
from repro.simulator.run import _INFINITY, SimulationResult
from repro.sketches.bucket_cache import get_bucket_cache
from repro.sketches.hashing import TwoUniversalHashFamily
from repro.workloads.synthetic import Stream

#: FSM mode codes in the arena's per-shard control record
_MODE_ROUND_ROBIN = 0
_MODE_GREEDY = 1

#: per-shard control record: [mode, rr_counter, pair_count, out_count]
_CTRL_FIELDS = 4

#: seconds a worker may take to ack one segment: generous for any
#: honest segment, finite so a stuck worker fails the run instead of
#: blocking it; read at call time
ACK_DEADLINE_S = 120.0

#: how long the parent's multiplexed ack wait sleeps between checks
_POLL_S = 0.05

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without telling the resource tracker.

    CPython < 3.13 registers shared-memory *attachments* with the
    resource tracker as if they were creations, and every worker — fork
    or spawn — shares the parent's tracker process (spawn ships the
    tracker fd in its preparation data).  The tracker's cache is a
    *set*, so concurrent register/unregister pairs from several workers
    collapse and the excess unregisters surface as ``KeyError`` noise
    on stderr.  Suppressing the registration at attach time keeps the
    parent — which created the block and will unlink it — the only
    process the tracker ever hears about, which is also exactly the
    process whose abnormal death should trigger the tracker's cleanup.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(rname, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShardArena:
    """Explicit-layout shared-memory arena for the pool.

    One ``SharedMemory`` block, partitioned into 8-byte-aligned
    C-contiguous regions (all ``float64``/``int64``, so alignment is
    automatic):

    ========  ==================  =======================================
    region    dtype / shape       contents
    ========  ==================  =======================================
    items     int64[m]            the stream's items (written once)
    ctrl      int64[s, 4]         per shard: mode, rr_counter,
                                  pair_count, out_count
    c_hat     float64[s, k]       per shard: C_hat at segment start
    order     int64[s, k]         per shard: ``_pairs`` iteration order
                                  (first ``pair_count`` slots valid)
    valid     int64[s, k]         per shard: 1 if instance has matrices
    totals    float64[s, k, 2]    per shard/instance: (freq, work)
                                  sketch total weights
    freq      float64[s, k, r, c] per shard/instance: F matrix
    work      float64[s, k, r, c] per shard/instance: W matrix
    out_inst  int64[s, cap]       per shard: routed instance per slice
                                  position (worker output)
    out_est   float64[s, cap]     per shard: estimate added to C_hat
                                  per slice position (worker output)
    c_final   float64[s, k]       per shard: C_hat after the full
                                  speculative slice (worker output)
    ========  ==================  =======================================

    ``cap`` bounds a shard's slice of one segment:
    ``ceil(chunk_size / s)`` (the parent never dispatches more).  The
    parent creates the block; workers attach by name.  Both sides build
    numpy views with explicit offsets over ``shm.buf``, so the layout is
    a function of the six integers ``(s, k, rows, cols, m, cap)``.
    """

    _REGIONS = (
        "items", "ctrl", "c_hat", "order", "valid", "totals",
        "freq", "work", "out_inst", "out_est", "c_final",
    )

    def __init__(
        self,
        sources: int,
        k: int,
        rows: int,
        cols: int,
        m: int,
        cap: int,
        name: str | None = None,
    ) -> None:
        self.sources = sources
        self.k = k
        self.rows = rows
        self.cols = cols
        self.m = m
        self.cap = cap

        shapes = {
            "items": ((m,), _I64),
            "ctrl": ((sources, _CTRL_FIELDS), _I64),
            "c_hat": ((sources, k), _F64),
            "order": ((sources, k), _I64),
            "valid": ((sources, k), _I64),
            "totals": ((sources, k, 2), _F64),
            "freq": ((sources, k, rows, cols), _F64),
            "work": ((sources, k, rows, cols), _F64),
            "out_inst": ((sources, cap), _I64),
            "out_est": ((sources, cap), _F64),
            "c_final": ((sources, k), _F64),
        }
        offsets = {}
        offset = 0
        for region in self._REGIONS:
            offsets[region] = offset
            offset += 8 * int(np.prod(shapes[region][0]))
        self.nbytes = offset

        if name is None:
            self.shm = shared_memory.SharedMemory(create=True, size=self.nbytes)
            self.owner = True
        else:
            self.shm = _attach_untracked(name)
            self.owner = False

        for region in self._REGIONS:
            shape, dtype = shapes[region]
            setattr(
                self,
                region,
                np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=offsets[region]),
            )

    @property
    def name(self) -> str:
        return self.shm.name

    def layout(self) -> tuple[int, int, int, int, int, int]:
        """The six integers a worker needs to attach with identical views."""
        return (self.sources, self.k, self.rows, self.cols, self.m, self.cap)

    def close(self) -> None:
        """Drop this process's views and mapping (owner keeps the block)."""
        # release ndarray references into shm.buf before closing the map
        for region in self._REGIONS:
            if hasattr(self, region):
                delattr(self, region)
        self.shm.close()

    def unlink(self) -> None:
        """Free the underlying block (owner only, after close).

        Idempotent: a block already gone (double unlink, or an external
        cleanup racing an aborted run's teardown) is not an error.
        """
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _attach_pair_views(family, arena: ShardArena, shard: int) -> list[FWPair]:
    """View-backed ``FWPair`` per instance over the shard's shared F/W.

    The pairs reuse the production estimate kernel
    (:meth:`FWPair.estimate_many_cells`), so worker estimates are the same
    code path — hence the same bits — as the sequential scheduler's
    block gathering.  Total weights are refreshed from the arena before
    every segment (they drive the never-observed global-mean fallback).
    """
    pairs = []
    for instance in range(arena.k):
        pair = FWPair(family)
        pair.freq._matrix = arena.freq[shard][instance]
        pair.work._matrix = arena.work[shard][instance]
        pairs.append(pair)
    return pairs


def _route_shard(
    arena: ShardArena,
    shard: int,
    pairs: list[FWPair],
    cache,
    pooled: bool,
    start: int,
    end: int,
) -> None:
    """Route shard ``shard``'s slice of the segment ``[start, end)``.

    Replays the sequential engine exactly: bucket columns once per
    slice, per-instance estimate columns via the same pooled /
    per-instance gathering as ``POSGScheduler._gather_columns``, then
    the first-minimum greedy scan (same tie-breaking as ``np.argmin``)
    over plain Python floats.
    """
    sources = arena.sources
    k = arena.k
    ctrl = arena.ctrl[shard]
    first = start + ((shard - start) % sources)
    if first >= end:
        ctrl[3] = 0
        return
    n = (end - first + sources - 1) // sources

    if int(ctrl[0]) == _MODE_ROUND_ROBIN:
        rr = int(ctrl[1])
        np.mod(
            np.arange(rr, rr + n, dtype=np.int64), k, out=arena.out_inst[shard][:n]
        )
        ctrl[3] = n
        return

    sub = arena.items[first:end:sources]
    cells = cache.cells_many(np.ascontiguousarray(sub))
    pair_count = int(ctrl[2])
    totals = arena.totals[shard]
    order = arena.order[shard]
    valid = arena.valid[shard]
    for instance in range(k):
        if valid[instance]:
            pair = pairs[instance]
            pair.freq._total_weight = float(totals[instance, 0])
            pair.work._total_weight = float(totals[instance, 1])

    if pooled and pair_count:
        total = np.zeros(n, dtype=np.float64)
        for slot in range(pair_count):
            total = total + pairs[int(order[slot])].estimate_many_cells(cells)
        pooled_column = (total / pair_count).tolist()
        columns = [pooled_column] * k
    else:
        zeros = None
        columns = []
        for instance in range(k):
            if valid[instance]:
                columns.append(pairs[instance].estimate_many_cells(cells).tolist())
            else:
                if zeros is None:
                    zeros = [0.0] * n
                columns.append(zeros)

    c = arena.c_hat[shard].tolist()
    inst_out: list[int] = []
    est_out: list[float] = []
    inst_append = inst_out.append
    est_append = est_out.append
    k_range = range(1, k)
    for pos in range(n):
        best = c[0]
        instance = 0
        for i in k_range:
            value = c[i]
            if value < best:
                best = value
                instance = i
        est = columns[instance][pos]
        c[instance] += est
        inst_append(instance)
        est_append(est)
    arena.out_inst[shard][:n] = inst_out
    arena.out_est[shard][:n] = est_out
    arena.c_final[shard][:] = c
    ctrl[3] = n


def _worker_main(
    spec: ShardWorkerSpec,
    layout: tuple[int, int, int, int, int, int],
    shm_name: str,
    shard_ids: list[int],
    conn,
) -> None:
    """Worker loop: attach the arena, route dispatched segments forever.

    Messages on ``conn``: ``(start, end)`` dispatches one segment (the
    worker routes every shard it owns and acks ``("ok",)``), ``None``
    shuts down.  Any exception is reported back as ``("error", text)``.
    """
    arena = None
    pairs: dict[int, list[FWPair]] = {}
    try:
        arena = ShardArena(*layout, name=shm_name)
        family = TwoUniversalHashFamily.from_dict(spec.hashes)
        cache = get_bucket_cache(family)
        for shard in shard_ids:
            pairs[shard] = _attach_pair_views(family, arena, shard)
        while True:
            task = conn.recv()
            if task is None:
                break
            start, end = task
            for shard in shard_ids:
                _route_shard(
                    arena, shard, pairs[shard], cache, spec.pooled_estimates,
                    start, end,
                )
            conn.send(("ok",))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    except Exception as error:  # surface worker failures to the parent
        import traceback

        try:
            conn.send(("error", f"{error!r}\n{traceback.format_exc()}"))
        except (OSError, EOFError, BrokenPipeError):
            pass
    finally:
        # drop the matrix views held by the FWPair wrappers before unmapping
        pairs.clear()
        if arena is not None:
            arena.close()
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Pool:
    """The worker processes and their pipes: start, dispatch, tear down.

    Strict: a worker that dies, reports an exception or misses
    :data:`ACK_DEADLINE_S` on a segment is killed and the run raises
    ``RuntimeError``; nothing is retried.
    """

    def __init__(self) -> None:
        self._procs: list = []
        self._conns: list = []

    def start(self, ctx, spec, layout, shm_name, worker_shards) -> None:
        for w, shards in enumerate(worker_shards):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(spec, layout, shm_name, shards, child_conn),
                name=f"posg-shard-worker-{w}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)

    def route_segment(self, start: int, end: int) -> None:
        """Route ``[start, end)`` on every worker and wait for all acks."""
        for w, conn in enumerate(self._conns):
            try:
                conn.send((start, end))
            except (OSError, BrokenPipeError):
                self._fail(w, "crashed", start, end)
        deadline = perf_counter() + ACK_DEADLINE_S
        pending = set(range(len(self._conns)))
        while pending:
            ready = set(
                multiprocessing.connection.wait(
                    [self._conns[w] for w in pending], timeout=_POLL_S
                )
            )
            for w in sorted(pending):
                if self._conns[w] in ready:
                    try:
                        reply = self._conns[w].recv()
                    except (EOFError, OSError):
                        self._fail(w, "crashed", start, end)
                    if reply[0] != "ok":
                        self._fail(w, "raised", start, end, reply[1])
                    pending.discard(w)
                elif not self._procs[w].is_alive():
                    self._fail(w, "crashed", start, end)
                elif perf_counter() > deadline:
                    self._fail(
                        w, f"hung (no ack within {ACK_DEADLINE_S:g} s)", start, end
                    )

    def _fail(self, w: int, what: str, start: int, end: int, detail: str = "") -> None:
        process = self._procs[w]
        process.kill()
        process.join(timeout=5)
        message = (
            f"parallel worker {w} {what} on segment [{start}, {end}) "
            f"(exit code {process.exitcode})"
        )
        raise RuntimeError(f"{message}:\n{detail}" if detail else message)

    def shutdown(self) -> None:
        """Teardown with escalation; never raises, never leaves zombies.

        Graceful first (the ``None`` sentinel), then ``terminate()``,
        then ``kill()`` for anything still alive.
        """
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


def simulate_stream_parallel(
    stream: Stream,
    policy: MultiSourcePOSGGrouping,
    workers: int,
    k: int = 5,
    rng: np.random.Generator | None = None,
    chunk_size: int = 2048,
    start_method: str | None = None,
) -> SimulationResult:
    """Simulate one stream with the shard route loops in worker processes.

    Bit-identical to :func:`~repro.simulator.run.simulate_stream` with
    the same ``policy``, ``k``, ``rng`` and ``chunk_size`` (see the
    module docstring for why), with the greedy scans of control-quiet
    segments run by ``workers`` processes over shared memory.

    workers:
        Worker processes to start; clamped to the shard count ``s``
        (``workers=4`` over ``s=1`` runs one worker).
    chunk_size:
        As in ``simulate_stream`` but must be >= 1 (there is no
        per-tuple parallel engine).
    start_method:
        Multiprocessing start method (``"fork"``/``"spawn"``/...).
        Defaults to ``fork`` where available (cheap worker startup),
        falling back to the platform default; the worker bootstrap is
        picklable, so any method works.

    ``result.parallel`` holds ``workers``, ``start_method``,
    ``worker_shards`` and the segment accounting: ``segments``,
    ``fallback_tuples`` (routed by the SEND_ALL per-tuple step) and
    ``discarded_speculative_tuples``.

    Raises ``TypeError`` for a policy that is not a
    ``MultiSourcePOSGGrouping`` and ``ValueError`` for one with recovery
    defences or a ``CoordinationConfig``, both before the policy is set
    up or any process starts.
    """
    if not isinstance(policy, MultiSourcePOSGGrouping):
        raise TypeError(
            "simulate_stream_parallel needs a MultiSourcePOSGGrouping "
            f"policy (got {getattr(policy, 'name', policy)!r}); wrap a "
            "single-scheduler deployment as MultiSourcePOSGGrouping(1, ...)"
        )
    k = COUNT.check("k", k)
    chunk_size = index_arg("chunk_size", chunk_size)
    if chunk_size < 1:
        raise ValueError(
            f"chunk_size must be >= 1 for the parallel engine, got {chunk_size}"
        )
    workers = COUNT.check("workers", workers)
    config = policy.config
    for refused, what in (
        (config.recovery, "recovery defences tick per routed tuple"),
        (config.coordination, "cross-shard coordination couples the shard scans"),
    ):
        if refused is not None:
            raise ValueError(
                f"{what}; the parallel engine does not support it — "
                "use simulate_stream"
            )

    m = stream.m
    items_array = np.ascontiguousarray(stream.items, dtype=np.int64)
    arrivals_array = np.ascontiguousarray(stream.arrivals, dtype=np.float64)

    policy.setup(k, rng)
    sources = policy.sources
    spec = policy.worker_spec()
    n_workers = min(workers, sources)
    worker_shards = [
        [shard for shard in range(sources) if shard % n_workers == w]
        for w in range(n_workers)
    ]
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    ctx = multiprocessing.get_context(start_method)

    cap = (chunk_size + sources - 1) // sources + 1
    arena = ShardArena(sources, k, spec.rows, spec.cols, m, cap)
    pool = _Pool()
    try:
        arena.items[:] = items_array
        pool.start(ctx, spec, arena.layout(), arena.name, worker_shards)
        run_info = _parallel_loop(
            items=items_array.tolist(),
            arrivals=arrivals_array.tolist(),
            base_times=stream.base_times.tolist(),
            policy=policy,
            k=k,
            chunk_size=chunk_size,
            arena=arena,
            pool=pool,
        )
    finally:
        pool.shutdown()
        arena.close()
        arena.unlink()

    return SimulationResult(
        stats=CompletionStats(
            np.asarray(run_info.pop("finishes"), dtype=np.float64) - arrivals_array,
            np.asarray(run_info.pop("assignments"), dtype=np.int64),
        ),
        policy=policy,
        state_transitions=run_info.pop("state_transitions"),
        control_messages=run_info.pop("control_messages"),
        control_bits=run_info.pop("control_bits"),
        parallel={
            "workers": n_workers,
            "start_method": start_method,
            "worker_shards": worker_shards,
            **run_info,
        },
    )


def _parallel_loop(
    *,
    items: list[int],
    arrivals: list[float],
    base_times: list[float],
    policy: MultiSourcePOSGGrouping,
    k: int,
    chunk_size: int,
    arena: ShardArena,
    pool: _Pool,
) -> dict:
    """The dispatch/merge/commit loop.  Returns the run's bookkeeping."""
    m = len(items)
    control_lat = 1.0  # simulate_stream's default control latency
    agents = [policy.create_instance_agent(instance) for instance in range(k)]
    trackers = [agent.tracker for agent in agents]
    schedulers = list(policy.schedulers)
    sources = policy.sources
    window_size = policy.config.window_size

    busy = [0.0] * k
    finishes: list[float] = []
    assignments: list[int] = []
    control_queue: list[tuple[float, int, object]] = []
    control_seq = 0
    control_messages = 0
    control_bits = 0
    state_transitions: list[tuple[int, SchedulerState]] = []
    previous_state = policy.state

    # Instance-side batching: routed tuples fold into their instance's
    # sketches in one batch at the next window close or per-tuple step.
    pending_items: list[list[int]] = [[] for _ in range(k)]
    pending_times: list[list[float]] = [[] for _ in range(k)]
    window_left = [tracker.window_remaining for tracker in trackers]

    #: each shard's ``matrices_version`` as of its last arena mirror
    mirrored_version = [-1] * sources
    segments = 0
    fallback_tuples = 0
    discarded = 0

    send_all = SchedulerState.SEND_ALL
    heappush = heapq.heappush
    heappop = heapq.heappop
    bisect_left = bisect.bisect_left
    ctrl = arena.ctrl
    c_hat_region = arena.c_hat
    out_inst_region = arena.out_inst
    out_est_region = arena.out_est
    c_final_region = arena.c_final

    def _flush(instance: int) -> None:
        if pending_items[instance]:
            trackers[instance].execute_batch(
                pending_items[instance], pending_times[instance]
            )
            pending_items[instance].clear()
            pending_times[instance].clear()

    def _window_boundary(
        instance: int,
        item: int,
        execution_time: float,
        finish: float,
        lo: int,
        next_due: float,
        end: int,
    ) -> tuple[float, int]:
        """Window close: flush the batch, run the boundary tuple through
        the FSM, enqueue its messages, re-tighten the segment bound."""
        nonlocal control_seq, control_messages, control_bits
        _flush(instance)
        for message in trackers[instance].execute(item, execution_time, None):
            heappush(control_queue, (finish + control_lat, control_seq, message))
            control_seq += 1
            control_messages += 1
            control_bits += message.size_bits()
        if control_queue and control_queue[0][0] < next_due:
            next_due = control_queue[0][0]
            end = bisect_left(arrivals, next_due, lo, end)
        return next_due, end

    def _sync_shard(shard: int) -> None:
        """Refresh the shard's arena mirror from its live scheduler."""
        scheduler = schedulers[shard]
        record = ctrl[shard]
        record[0] = (
            _MODE_ROUND_ROBIN
            if scheduler.state is SchedulerState.ROUND_ROBIN
            else _MODE_GREEDY
        )
        record[1] = scheduler._rr_counter
        c_hat_region[shard][:] = scheduler._c_hat
        if mirrored_version[shard] == scheduler.matrices_version:
            return
        matrices = scheduler._matrices
        record[2] = len(matrices)
        valid = arena.valid[shard]
        valid[:] = 0
        order = arena.order[shard]
        totals = arena.totals[shard]
        for slot, (instance, pair) in enumerate(matrices.items()):
            order[slot] = instance
            valid[instance] = 1
            arena.freq[shard][instance][:] = pair.freq._matrix
            arena.work[shard][instance][:] = pair.work._matrix
            totals[instance, 0] = pair.freq.total_weight
            totals[instance, 1] = pair.work.total_weight
        mirrored_version[shard] = scheduler.matrices_version

    j = 0
    while j < m:
        arrival = arrivals[j]

        if control_queue and control_queue[0][0] <= arrival:
            batch = []
            while control_queue and control_queue[0][0] <= arrival:
                batch.append(heappop(control_queue)[2])
            policy.on_control_batch(batch)

        if any(s.state is send_all for s in schedulers):
            # ------------------------------------------------------
            # SEND_ALL fallback: sequential reference per-tuple step.
            # ------------------------------------------------------
            fallback_tuples += 1
            decision = policy.route(items[j])
            instance = decision.instance
            b = busy[instance]
            start = arrival if arrival > b else b
            execution_time = base_times[j]
            finish = start + execution_time
            busy[instance] = finish
            finishes.append(finish)
            assignments.append(instance)
            _flush(instance)
            messages = trackers[instance].execute(
                items[j], execution_time, decision.sync_request
            )
            window_left[instance] = trackers[instance].window_remaining
            for message in messages:
                heappush(control_queue, (finish + control_lat, control_seq, message))
                control_seq += 1
                control_messages += 1
                control_bits += message.size_bits()
            if decision.sync_request is not None:
                control_messages += 1
                control_bits += decision.sync_request.size_bits()
            current_state = policy.state
            if current_state is not previous_state:
                state_transitions.append((j, current_state))
                previous_state = current_state
            j += 1
            continue

        # ----------------------------------------------------------
        # Control-quiet segment: dispatch the shard slices to workers.
        # ----------------------------------------------------------
        segments += 1
        if control_queue:
            next_due = control_queue[0][0]
            end = bisect_left(arrivals, next_due, j + 1, min(j + chunk_size, m))
        else:
            next_due = _INFINITY
            end = min(j + chunk_size, m)
        # Drain-induced transition: recorded at the next routed index,
        # which this segment routes (same as the chunked engine).
        current_state = policy.state
        if current_state is not previous_state:
            state_transitions.append((j, current_state))
            previous_state = current_state

        for shard in range(sources):
            _sync_shard(shard)
        pool.route_segment(j, end)
        # Deterministic k-way merge of the shard decision streams:
        # shard sigma produced the decisions for positions
        # first_sigma, first_sigma + s, ... — a strided interleave.
        end0 = end
        seg_len0 = end0 - j
        seg_asg_np = np.empty(seg_len0, dtype=np.int64)
        for shard in range(sources):
            first = j + ((shard - j) % sources)
            if first >= end0:
                continue
            n_shard = (end0 - first + sources - 1) // sources
            seg_asg_np[first - j :: sources] = out_inst_region[shard][:n_shard]
        seg_asg = seg_asg_np.tolist()

        # Per-instance FIFO chains between window boundaries: each
        # instance's positions in the segment, walked in arrival order
        # up to the next tuple that closes some instance's window.
        seg_fin_np = np.empty(seg_len0, dtype=np.float64)
        occ = [np.nonzero(seg_asg_np == instance)[0] + j for instance in range(k)]
        occ_size = [int(arr.size) for arr in occ]
        ptr = [0] * k
        cur = j
        while True:
            safe_end = end
            for i in range(k):
                pidx = ptr[i] + window_left[i] - 1
                if pidx < occ_size[i]:
                    cand = occ[i][pidx]
                    if cand < safe_end:
                        safe_end = int(cand)
            if safe_end > cur:
                for i in range(k):
                    arr = occ[i]
                    p_lo = ptr[i]
                    p_hi = int(np.searchsorted(arr, safe_end, side="left"))
                    n_i = p_hi - p_lo
                    if not n_i:
                        continue
                    positions = arr[p_lo:p_hi]
                    pos_list = positions.tolist()
                    xs = [base_times[t] for t in pos_list]
                    fl: list[float] = []
                    fa = fl.append
                    b = busy[i]
                    for t, w in zip(pos_list, xs):
                        at = arrivals[t]
                        if at > b:
                            b = at
                        b += w
                        fa(b)
                    busy[i] = b
                    seg_fin_np[positions - j] = fl
                    pending_items[i].extend(items[t] for t in pos_list)
                    pending_times[i].extend(xs)
                    window_left[i] -= n_i
                    ptr[i] = p_hi
                cur = safe_end
            if cur >= end:
                break
            # Window-boundary tuple: reference per-tuple step.
            t = cur
            instance = seg_asg[t - j]
            at = arrivals[t]
            b = busy[instance]
            if at > b:
                b = at
            execution_time = base_times[t]
            finish = b + execution_time
            busy[instance] = finish
            seg_fin_np[t - j] = finish
            next_due, end = _window_boundary(
                instance, items[t], execution_time, finish, t + 1, next_due, end,
            )
            window_left[instance] = window_size
            ptr[instance] += 1
            cur = t + 1
        count = end - j
        finishes.extend(seg_fin_np[:count].tolist())
        assignments.extend(seg_asg[:count])

        # ----------------------------------------------------------
        # Commit: fold each shard's committed prefix back into its
        # scheduler.  A truncated shard replays its C_hat adds in
        # order (same IEEE sequence as routing only the prefix).
        # ----------------------------------------------------------
        discarded += end0 - end
        for shard in range(sources):
            first = j + ((shard - j) % sources)
            n_committed = 0 if end <= first else (end - first + sources - 1) // sources
            scheduler = schedulers[shard]
            scheduler._tuples_scheduled += n_committed
            if int(ctrl[shard][0]) == _MODE_ROUND_ROBIN:
                scheduler._rr_counter += n_committed
            elif n_committed == 0:
                pass  # shard untouched this segment; c_final is stale
            elif n_committed == int(ctrl[shard][3]):
                scheduler._c_hat[:] = c_final_region[shard]
            else:
                c_hat = scheduler._c_hat
                inst_out = out_inst_region[shard][:n_committed].tolist()
                est_out = out_est_region[shard][:n_committed].tolist()
                for instance, estimate in zip(inst_out, est_out):
                    c_hat[instance] += estimate
        policy.sync_cursor(end)
        j = end

    # Fold the tail batches so tracker state ends exactly where the
    # sequential engines leave it.
    for instance in range(k):
        _flush(instance)

    return {
        "finishes": finishes,
        "assignments": assignments,
        "state_transitions": state_transitions,
        "control_messages": control_messages,
        "control_bits": control_bits,
        "segments": segments,
        "fallback_tuples": fallback_tuples,
        "discarded_speculative_tuples": discarded,
    }
