"""Multi-process parallel data plane for the sharded POSG policy.

The chunked engine (:mod:`repro.simulator.run`) peaks near one million
tuples/second on a single core, and the per-layer benchmarks show the
sequential route loop — not the hashing or sketch kernels — is the
wall.  This module parallelizes the route loop across the ``s`` shard
schedulers of :class:`~repro.core.multisource.MultiSourcePOSGGrouping`:
tuple ``i`` is routed by shard ``i mod s``, so within a *control-quiet
segment* (no control-message delivery, no FSM transition) each shard's
routing decisions depend only on its own frozen ``C_hat`` and stored
``(F, W)`` matrices and its own cursor-interleaved subsequence of the
block — ``s`` embarrassingly parallel greedy scans.

Architecture
------------
- **Shared-memory arena** (:class:`ShardArena`): one
  ``multiprocessing.shared_memory`` block with an explicit dtype/stride
  layout holding the stream items plus, per shard, the mutable routing
  state (FSM mode, round-robin counter, ``C_hat``, the stored ``F``/``W``
  matrices with their total weights and ``_pairs`` iteration order) and
  the per-segment output regions (assigned instance, estimate used, and
  the shard's post-segment ``C_hat``).
- **Workers**: long-lived processes, each owning a fixed subset of
  shards.  A worker never holds live scheduler objects; it rebuilds the
  (picklable) hash family from
  :meth:`~repro.core.multisource.MultiSourcePOSGGrouping.worker_spec`
  once, wraps the shared matrices in view-backed
  :class:`~repro.core.matrices.FWPair` objects, and replays the chunked
  engine's estimate gathering (:meth:`FWPair.estimate_many_cells` over the
  family's bucket cache) and first-minimum greedy scan over its slice —
  the exact float operations of the sequential block router, in the
  exact per-shard order.
- **Deterministic merge**: the parent interleaves the per-shard
  decision streams back into arrival order (positions ``i mod s`` are
  shard ``i``'s, so the merge is a strided scatter — a deterministic
  ``k``-way merge on stream position) and then replays everything that
  depends on the *merged* order sequentially: per-instance busy chains
  and finish times, instance-side sketch folds and window boundaries,
  control-message generation/delivery, fault injection, queue samples
  and audit observations.  Window-boundary messages re-tighten the
  segment bound exactly as in the sequential engine; routed tuples past
  the tightened bound are *speculative* and are discarded, with each
  shard's ``C_hat`` recomputed by replaying the committed prefix's adds
  in order.

Determinism ("seed discipline")
-------------------------------
Workers perform **no** random draws and **no** time reads: the hash
family is drawn once in the parent (from the caller's ``rng``) and
shipped by value; bucket caches rebuild deterministically from the
family parameters; every RNG consumer (latency models, fault injector)
runs in the parent in per-tuple stream order.  Worker floats are plain
IEEE-754 double ops on the same values in the same order as the
sequential engine, so the run is **bit-identical** to
``simulate_stream`` for fixed seeds — completions, assignments, FSM
transitions, control traffic, queue samples, fault report and audit
report — which ``tests/simulator/test_parallel_equivalence.py`` sweeps
across workers × shards × faults × audit.

When any shard is in SEND_ALL (tuples piggy-back sync requests), the
engine falls back to the sequential per-tuple reference step for that
tuple, preserving delivery order and FSM semantics exactly.

Not supported (raises ``ValueError``): recovery defenses (per-tuple
watchdog ticks), latency hints, non-constant data-latency models, and
scenarios without bulk ``multiplier_matrix`` evaluation.  All of these
run through :func:`~repro.simulator.run.simulate_stream`.
"""

from __future__ import annotations

import bisect
import heapq
import multiprocessing
import os
from multiprocessing import shared_memory
from time import perf_counter, sleep

import numpy as np

from repro.bounds import COUNT, OPTIONAL_COUNT, index_arg
from repro.core.matrices import FWPair
from repro.core.multisource import MultiSourcePOSGGrouping, ShardWorkerSpec
from repro.core.scheduler import SchedulerState
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.simulator.metrics import CompletionStats
from repro.simulator.network import ConstantLatency, LatencyModel
from repro.simulator.run import (
    _INFINITY,
    SimulationResult,
    _as_latency,
    _as_latency_list,
    _fire_due_crashes,
    _record_run_telemetry,
)
from repro.simulator.supervisor import SupervisionConfig, WorkerSupervisor
from repro.sketches.bucket_cache import get_bucket_cache
from repro.sketches.hashing import TwoUniversalHashFamily
from repro.telemetry.observers import Observers
from repro.telemetry.recorder import NULL_RECORDER
from repro.workloads.synthetic import Stream

#: FSM mode codes in the arena's per-shard control record
_MODE_ROUND_ROBIN = 0
_MODE_GREEDY = 1

#: exit code of a worker taken down by an injected crash fault
_WORKER_CRASH_EXIT = 70

#: per-shard control record:
#: [mode, rr_counter, pair_count, out_count, flight_count, lineage_count]
_CTRL_FIELDS = 6

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
    """Explicit-layout shared-memory arena for the parallel data plane.

    One ``SharedMemory`` block, partitioned into 8-byte-aligned
    C-contiguous regions (all ``float64``/``int64``, so alignment is
    automatic):

    ========  ==================  =======================================
    region    dtype / shape       contents
    ========  ==================  =======================================
    items     int64[m]            the stream's items (written once)
    ctrl      int64[s, 6]         per shard: mode, rr_counter,
                                  pair_count, out_count, flight_count,
                                  lineage_count
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
    fl_idx    int64[s, fcap]      per shard: global stream index of each
                                  flight route sample (worker output)
    fl_bel    float64[s, fcap, k] per shard: believed per-instance loads
                                  at each flight sample (worker output)
    ln_idx    int64[s, lcap]      per shard: global stream index of each
                                  lineage sample (worker output)
    ln_bel    float64[s, lcap, k] per shard: believed per-instance loads
                                  at each lineage sample (worker output)
    gl_est    float64[s * cap]    the segment's estimate stream in
                                  *global* arrival order (coupled-router
                                  output, used only when cross-shard
                                  gossip is on): slot ``p - start``
                                  holds the estimate tuple ``p``'s owner
                                  added — the value gossiped to every
                                  sibling — so a truncated commit can
                                  replay the committed prefix's adds
                                  into all shards at once
    wk_busy   float64[s]          per shard: cumulative routing seconds
                                  (wall-clock telemetry, never read by
                                  any deterministic path)
    ========  ==================  =======================================

    ``cap`` bounds a shard's slice of one segment:
    ``ceil(chunk_size / s)`` (the parent never dispatches more).
    ``fcap``/``lcap`` bound the flight-recorder and lineage-tracer
    rings: the samples one shard slice can emit at the effective
    sampling stride (1 when the subsystem is off, keeping the region
    negligible).  The parent creates the block; workers attach by name.
    Both sides build numpy views with explicit offset/shape/strides
    over ``shm.buf``, so layout is an invariant of the eight integers
    ``(s, k, rows, cols, m, cap, fcap, lcap)`` and never inferred.
    """

    def __init__(
        self,
        sources: int,
        k: int,
        rows: int,
        cols: int,
        m: int,
        cap: int,
        fcap: int = 1,
        lcap: int = 1,
        name: str | None = None,
    ) -> None:
        self.sources = sources
        self.k = k
        self.rows = rows
        self.cols = cols
        self.m = m
        self.cap = cap
        self.fcap = fcap
        self.lcap = lcap

        cell = rows * cols
        offset = 0

        def region(count: int, itemsize: int = 8) -> tuple[int, int]:
            nonlocal offset
            start = offset
            offset += count * itemsize
            return start, count

        items_at, _ = region(m)
        ctrl_at, _ = region(sources * _CTRL_FIELDS)
        c_hat_at, _ = region(sources * k)
        order_at, _ = region(sources * k)
        valid_at, _ = region(sources * k)
        totals_at, _ = region(sources * k * 2)
        freq_at, _ = region(sources * k * cell)
        work_at, _ = region(sources * k * cell)
        out_inst_at, _ = region(sources * cap)
        out_est_at, _ = region(sources * cap)
        c_final_at, _ = region(sources * k)
        fl_idx_at, _ = region(sources * fcap)
        fl_bel_at, _ = region(sources * fcap * k)
        ln_idx_at, _ = region(sources * lcap)
        ln_bel_at, _ = region(sources * lcap * k)
        gl_est_at, _ = region(sources * cap)
        wk_busy_at, _ = region(sources)
        self.nbytes = offset

        if name is None:
            self.shm = shared_memory.SharedMemory(create=True, size=self.nbytes)
            self.owner = True
        else:
            self.shm = _attach_untracked(name)
            self.owner = False

        buf = self.shm.buf

        def view(at: int, shape: tuple[int, ...], dtype) -> np.ndarray:
            return np.ndarray(shape, dtype=dtype, buffer=buf, offset=at)

        self.items = view(items_at, (m,), _I64)
        self.ctrl = view(ctrl_at, (sources, _CTRL_FIELDS), _I64)
        self.c_hat = view(c_hat_at, (sources, k), _F64)
        self.order = view(order_at, (sources, k), _I64)
        self.valid = view(valid_at, (sources, k), _I64)
        self.totals = view(totals_at, (sources, k, 2), _F64)
        self.freq = view(freq_at, (sources, k, rows, cols), _F64)
        self.work = view(work_at, (sources, k, rows, cols), _F64)
        self.out_inst = view(out_inst_at, (sources, cap), _I64)
        self.out_est = view(out_est_at, (sources, cap), _F64)
        self.c_final = view(c_final_at, (sources, k), _F64)
        self.fl_idx = view(fl_idx_at, (sources, fcap), _I64)
        self.fl_bel = view(fl_bel_at, (sources, fcap, k), _F64)
        self.ln_idx = view(ln_idx_at, (sources, lcap), _I64)
        self.ln_bel = view(ln_bel_at, (sources, lcap, k), _F64)
        self.gl_est = view(gl_est_at, (sources * cap,), _F64)
        self.wk_busy = view(wk_busy_at, (sources,), _F64)

    @property
    def name(self) -> str:
        return self.shm.name

    def layout(self) -> tuple[int, int, int, int, int, int, int, int]:
        """The eight integers a worker needs to attach with identical views."""
        return (
            self.sources, self.k, self.rows, self.cols,
            self.m, self.cap, self.fcap, self.lcap,
        )

    def close(self) -> None:
        """Drop this process's views and mapping (owner keeps the block)."""
        # release ndarray references into shm.buf before closing the map
        for attr in (
            "items", "ctrl", "c_hat", "order", "valid", "totals",
            "freq", "work", "out_inst", "out_est", "c_final",
            "fl_idx", "fl_bel", "ln_idx", "ln_bel", "gl_est", "wk_busy",
        ):
            if hasattr(self, attr):
                delattr(self, attr)
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


def _flight_first_pos(first: int, sources: int, every: int) -> int:
    """Smallest slice position ``pos`` with ``(first + pos*s) % every == 0``.

    The shard's slice covers global positions ``first + pos*s``; flight
    samples fire at global multiples of ``every``.  Because the
    recorder's effective stride is coprime with ``s`` (see
    ``FlightRecorder.bind``), the congruence always has a solution in
    ``[0, every)`` and subsequent samples are exactly ``every`` slice
    positions apart.
    """
    return (-first * pow(sources, -1, every)) % every


def _route_shard(
    arena: ShardArena,
    shard: int,
    pairs: list[FWPair],
    cache,
    pooled: bool,
    start: int,
    end: int,
    flight_every: int = 0,
    lineage_every: int = 0,
    two_choices: bool = False,
) -> None:
    """Route shard ``shard``'s slice of the segment ``[start, end)``.

    Replays the sequential engine exactly: bucket columns once per
    slice, per-instance estimate columns via the same pooled /
    per-instance gathering as ``POSGScheduler._gather_columns``, then
    the first-minimum greedy scan (same tie-breaking as ``np.argmin``)
    over plain Python floats.  With ``two_choices`` the scan layers the
    scheduler's deterministic two-choices probe on top: the item-keyed
    alternate candidate wins when its believed post-add load is
    strictly lower (same float comparison as ``POSGScheduler.submit``).

    With ``flight_every > 0`` the worker additionally emits flight
    route samples into the shard's ``fl_idx``/``fl_bel`` ring: the
    global index of every sampled position and the shard's believed
    per-instance loads right after the pick (the post-add ``c`` — the
    same bits the sequential engines record from
    ``scheduler._c_hat.tolist()``).  ``lineage_every > 0`` does the
    same for lineage samples into ``ln_idx``/``ln_bel`` (the parent
    joins these believed rows with merge-computed clocks at commit).
    """
    sources = arena.sources
    k = arena.k
    ctrl = arena.ctrl[shard]
    first = start + ((shard - start) % sources)
    if first >= end:
        ctrl[3] = 0
        ctrl[4] = 0
        ctrl[5] = 0
        return
    n = (end - first + sources - 1) // sources

    if int(ctrl[0]) == _MODE_ROUND_ROBIN:
        rr = int(ctrl[1])
        out = arena.out_inst[shard]
        np.mod(
            np.arange(rr, rr + n, dtype=np.int64), k, out=out[:n]
        )
        ctrl[3] = n
        nf = 0
        if flight_every:
            # ROUND_ROBIN never touches C_hat, so every sample in the
            # slice believes the frozen segment-start snapshot.
            pos0 = _flight_first_pos(first, sources, flight_every)
            if pos0 < n:
                nf = (n - pos0 + flight_every - 1) // flight_every
                sampled = np.arange(pos0, n, flight_every, dtype=np.int64)
                arena.fl_idx[shard][:nf] = first + sampled * sources
                arena.fl_bel[shard][:nf] = arena.c_hat[shard]
        ctrl[4] = nf
        nl = 0
        if lineage_every:
            pos0 = _flight_first_pos(first, sources, lineage_every)
            if pos0 < n:
                nl = (n - pos0 + lineage_every - 1) // lineage_every
                sampled = np.arange(pos0, n, lineage_every, dtype=np.int64)
                arena.ln_idx[shard][:nl] = first + sampled * sources
                arena.ln_bel[shard][:nl] = arena.c_hat[shard]
        ctrl[5] = nl
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
    two_choices = two_choices and k > 1
    sub_items = sub.tolist() if two_choices else None
    if flight_every:
        next_fs = _flight_first_pos(first, sources, flight_every)
    else:
        next_fs = n  # sentinel: one always-false int compare per tuple
    if lineage_every:
        next_ls = _flight_first_pos(first, sources, lineage_every)
    else:
        next_ls = n
    nf = 0
    nl = 0
    fl_idx_row = arena.fl_idx[shard]
    fl_bel_row = arena.fl_bel[shard]
    ln_idx_row = arena.ln_idx[shard]
    ln_bel_row = arena.ln_bel[shard]
    for pos in range(n):
        best = c[0]
        instance = 0
        for i in k_range:
            value = c[i]
            if value < best:
                best = value
                instance = i
        est = columns[instance][pos]
        if two_choices:
            alt = sub_items[pos] % k
            if alt == instance:
                alt = alt + 1 if alt + 1 < k else 0
            alt_est = columns[alt][pos]
            if c[alt] + alt_est < c[instance] + est:
                instance = alt
                est = alt_est
        c[instance] += est
        inst_append(instance)
        est_append(est)
        if pos == next_fs:
            fl_idx_row[nf] = first + pos * sources
            fl_bel_row[nf] = c
            nf += 1
            next_fs += flight_every
        if pos == next_ls:
            ln_idx_row[nl] = first + pos * sources
            ln_bel_row[nl] = c
            nl += 1
            next_ls += lineage_every
    arena.out_inst[shard][:n] = inst_out
    arena.out_est[shard][:n] = est_out
    arena.c_final[shard][:] = c
    ctrl[3] = n
    ctrl[4] = nf
    ctrl[5] = nl


def _route_segment_coupled(
    arena: ShardArena,
    start: int,
    end: int,
    pairs_by_shard: dict[int, list[FWPair]],
    cache,
    pooled: bool,
    two_choices: bool,
    flight_every: int = 0,
    lineage_every: int = 0,
) -> None:
    """Route one segment across *all* shards in-parent, gossip-coupled.

    With cross-shard gossip on
    (:class:`~repro.core.config.CoordinationConfig`), shard ``sigma``'s
    greedy pick at stream position ``p`` depends on every estimate any
    shard added at positions ``< p`` — the shard scans are no longer
    embarrassingly parallel, so gossiping segments cannot be dispatched
    to workers.  This router walks the segment once in global arrival
    order, maintaining every shard's believed ``C_hat`` simultaneously
    and applying each nonzero estimate to all of them: the exact
    per-tuple float sequence of the sequential engines with gossip on.

    Outputs land in the same arena regions the workers fill
    (``out_inst``/``out_est``/``c_final``, the flight/lineage believed
    rings, the per-shard ``ctrl`` counts), plus ``gl_est`` — the
    estimate stream in global order — which the gossip-aware commit
    replays prefix-only when the segment is truncated.  Billing
    (gossip digests per stride) is deliberately *not* done here: it
    never feeds back into routing, so the parent replays it at commit
    via :meth:`MultiSourcePOSGGrouping.commit_gossip` over the
    committed prefix only.
    """
    sources = arena.sources
    k = arena.k
    two_choices = two_choices and k > 1
    n_by_shard = [0] * sources
    rr_mode = [False] * sources
    rr_base = [0] * sources
    columns_by_shard: list = [None] * sources
    items_by_shard: list = [None] * sources
    c_by_shard: list[list[float]] = []
    for shard in range(sources):
        ctrl = arena.ctrl[shard]
        first = start + ((shard - start) % sources)
        n = 0 if first >= end else (end - first + sources - 1) // sources
        n_by_shard[shard] = n
        rr_mode[shard] = int(ctrl[0]) == _MODE_ROUND_ROBIN
        rr_base[shard] = int(ctrl[1])
        c_by_shard.append(arena.c_hat[shard].tolist())
        if n == 0 or rr_mode[shard]:
            continue
        # Per-shard estimate columns: the identical gathering as
        # `_route_shard` (same bucket cache, same pooled/per-instance
        # split, zeros for never-synced instances).
        sub = arena.items[first:end:sources]
        cells = cache.cells_many(np.ascontiguousarray(sub))
        pairs = pairs_by_shard[shard]
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
                total = total + pairs[int(order[slot])].estimate_many_cells(
                    cells
                )
            pooled_column = (total / pair_count).tolist()
            columns = [pooled_column] * k
        else:
            zeros = None
            columns = []
            for instance in range(k):
                if valid[instance]:
                    columns.append(
                        pairs[instance].estimate_many_cells(cells).tolist()
                    )
                else:
                    if zeros is None:
                        zeros = [0.0] * n
                    columns.append(zeros)
        columns_by_shard[shard] = columns
        if two_choices:
            items_by_shard[shard] = sub.tolist()

    inst_by_shard: list[list[int]] = [[] for _ in range(sources)]
    est_by_shard: list[list[float]] = [[] for _ in range(sources)]
    nf = [0] * sources
    nl = [0] * sources
    pos = [0] * sources
    gl_est = arena.gl_est
    k_range = range(1, k)
    for p in range(start, end):
        shard = p % sources
        c = c_by_shard[shard]
        position = pos[shard]
        pos[shard] = position + 1
        if rr_mode[shard]:
            instance = (rr_base[shard] + position) % k
            est = 0.0
        else:
            best = c[0]
            instance = 0
            for i in k_range:
                value = c[i]
                if value < best:
                    best = value
                    instance = i
            columns = columns_by_shard[shard]
            est = columns[instance][position]
            if two_choices:
                alt = items_by_shard[shard][position] % k
                if alt == instance:
                    alt = alt + 1 if alt + 1 < k else 0
                alt_est = columns[alt][position]
                if c[alt] + alt_est < c[instance] + est:
                    instance = alt
                    est = alt_est
            c[instance] += est
            if est != 0.0:
                # Local delta gossip: every sibling's belief absorbs the
                # owner's add before the next tuple routes (positions are
                # walked in global order, so sibling picks at p' > p see
                # it — the sequential `route()` order exactly).
                for sib in range(sources):
                    if sib != shard:
                        c_by_shard[sib][instance] += est
        inst_by_shard[shard].append(instance)
        est_by_shard[shard].append(est)
        gl_est[p - start] = est
        if flight_every and p % flight_every == 0:
            row = nf[shard]
            arena.fl_idx[shard][row] = p
            arena.fl_bel[shard][row] = c
            nf[shard] += 1
        if lineage_every and p % lineage_every == 0:
            row = nl[shard]
            arena.ln_idx[shard][row] = p
            arena.ln_bel[shard][row] = c
            nl[shard] += 1
    for shard in range(sources):
        n = n_by_shard[shard]
        ctrl = arena.ctrl[shard]
        if n:
            arena.out_inst[shard][:n] = inst_by_shard[shard]
            arena.out_est[shard][:n] = est_by_shard[shard]
        # Written for every shard: with gossip, a shard that routed
        # nothing this segment still absorbed sibling adds.
        arena.c_final[shard][:] = c_by_shard[shard]
        ctrl[3] = n
        ctrl[4] = nf[shard]
        ctrl[5] = nl[shard]


def _worker_main(
    spec: ShardWorkerSpec,
    layout: tuple[int, int, int, int, int, int, int, int],
    shm_name: str,
    shard_ids: list[int],
    conn,
    flight_every: int = 0,
    lineage_every: int = 0,
    worker_faults: tuple = (),
) -> None:
    """Worker loop: attach the arena, route dispatched segments forever.

    Messages on ``conn``: ``(start, end, seg)`` dispatches one segment
    (the worker routes every shard it owns and acks ``("ok", seg)``),
    ``None`` shuts down.  Any exception is reported back as
    ``("error", text)``.

    ``worker_faults`` are scripted
    :class:`~repro.faults.plan.WorkerFault` events for chaos testing,
    keyed by the *global* segment index the parent stamps on every
    dispatch: ``crash`` hard-exits the process (``os._exit``, like a
    SIGKILL — no cleanup, no ack), ``hang`` sleeps ``hang_ms`` before
    routing (tripping the supervisor's ack deadline when long enough),
    and ``stall`` persistently inflates every later segment's wall
    clock by ``stall_factor``.  All three disturb only *when* the
    worker acks, never *what* it writes — routed bytes stay identical.

    Each shard's routing wall-clock accumulates into the arena's
    ``wk_busy`` region — pure telemetry (the parent folds it into the
    run report's per-worker phase spans) that no deterministic path
    ever reads, so the "workers perform no time reads" seed discipline
    holds for every value that can influence a result.
    """
    arena = None
    try:
        arena = ShardArena(*layout, name=shm_name)
        family = TwoUniversalHashFamily.from_dict(spec.hashes)
        cache = get_bucket_cache(family)
        pairs = {
            shard: _attach_pair_views(family, arena, shard)
            for shard in shard_ids
        }
        pooled = spec.pooled_estimates
        faults_by_segment = {fault.segment: fault for fault in worker_faults}
        stall_factor = 1.0
        while True:
            task = conn.recv()
            if task is None:
                break
            start, end, seg = task
            fault = faults_by_segment.pop(seg, None)
            if fault is not None:
                if fault.kind == "crash":
                    os._exit(_WORKER_CRASH_EXIT)
                if fault.kind == "hang":
                    sleep(fault.hang_ms / 1000.0)
                elif fault.kind == "stall":
                    stall_factor = fault.stall_factor
            t_seg = perf_counter()
            for shard in shard_ids:
                t0 = perf_counter()
                _route_shard(
                    arena, shard, pairs[shard], cache, pooled,
                    start, end, flight_every, lineage_every,
                    spec.two_choices,
                )
                arena.wk_busy[shard] += perf_counter() - t0
            if stall_factor > 1.0:
                sleep((stall_factor - 1.0) * (perf_counter() - t_seg))
            conn.send(("ok", seg))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    except Exception as error:  # surface worker failures to the parent
        import traceback

        try:
            conn.send(("error", f"{error!r}\n{traceback.format_exc()}"))
        except (OSError, EOFError, BrokenPipeError):
            pass
    finally:
        if arena is not None:
            # drop matrix views held by the FWPair wrappers first
            try:
                del pairs
            except NameError:
                pass
            arena.close()
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def default_worker_count(sources: int) -> int:
    """Workers to use when the caller does not say: ``min(s, cores)``."""
    return max(1, min(sources, os.cpu_count() or 1))


def simulate_stream_parallel(
    stream: Stream,
    policy: MultiSourcePOSGGrouping,
    workers: int | None = None,
    k: int = 5,
    scenario=None,
    data_latency: "LatencyModel | float | list" = 0.0,
    control_latency: "LatencyModel | float" = 1.0,
    rng: np.random.Generator | None = None,
    sample_queues_every: int | None = None,
    chunk_size: int = 2048,
    telemetry=None,
    faults: "FaultPlan | FaultInjector | None" = None,
    audit=None,
    flight=None,
    lineage=None,
    profiler=None,
    start_method: str | None = None,
    supervision: "SupervisionConfig | None" = None,
) -> SimulationResult:
    """Simulate one stream with the shard route loops in worker processes.

    Drop-in for :func:`~repro.simulator.run.simulate_stream` on a
    :class:`~repro.core.multisource.MultiSourcePOSGGrouping` policy —
    bit-identical results for fixed seeds (see the module docstring for
    why), with the greedy scans of control-quiet segments executed by
    ``workers`` processes over shared memory.

    Extra parameters beyond ``simulate_stream``:

    workers:
        Worker processes to spawn; clamped to the shard count ``s``
        (``workers=4`` over ``s=1`` runs one worker).  Defaults to
        ``min(s, os.cpu_count())``.
    start_method:
        Multiprocessing start method (``"fork"``/``"spawn"``/...).
        Defaults to ``fork`` where available (cheap worker startup),
        falling back to the platform default; the worker bootstrap is
        picklable, so any method works.
    audit, flight, lineage:
        As in ``simulate_stream``, resolved and bound by the same
        :class:`~repro.telemetry.observers.Observers`.  Workers emit
        flight route samples and the believed-load half of each lineage
        span into per-shard shared-memory rings; the parent derives a
        span's clocks during the deterministic merge and copies both
        out in reference event order at segment commit, so the
        recorded timelines are bit-identical to both sequential engines.
    chunk_size:
        As in ``simulate_stream`` but must be >= 1 (there is no
        per-tuple parallel engine).
    supervision:
        A :class:`~repro.simulator.supervisor.SupervisionConfig`
        enabling self-healing: crashed or deadline-missing workers are
        killed and respawned from the frozen worker spec with the
        failed segment replayed (bit-identical — see the supervisor
        module docstring), degrading to in-parent routing after the
        respawn budget.  ``None`` (default) runs the strict policy:
        failures still *detected* (including hangs, via a generous ack
        deadline) but never healed — the run raises, as before.
        Scripted :class:`~repro.faults.plan.WorkerFault` events in the
        fault plan are shipped into the workers either way.

    Raises ``ValueError`` for configurations the parallel engine does
    not support (recovery defenses, latency hints, non-constant data
    latencies, scenarios without ``multiplier_matrix``) — run those
    through ``simulate_stream``.
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
    if scenario is None:
        from repro.workloads.nonstationary import LoadShiftScenario

        scenario = LoadShiftScenario.constant(k)
    if scenario.k < k:
        raise ValueError(
            f"scenario covers {scenario.k} instances but k={k} requested"
        )
    if not hasattr(scenario, "multiplier_matrix"):
        raise ValueError(
            "the parallel engine needs a scenario with bulk "
            "multiplier_matrix evaluation"
        )
    sample_queues_every = OPTIONAL_COUNT.check(
        "sample_queues_every", sample_queues_every
    )
    if policy.config.recovery is not None:
        raise ValueError(
            "recovery defenses tick per routed tuple; the parallel engine "
            "does not support them — use simulate_stream"
        )
    data_lat = _as_latency_list(data_latency, k)
    if not all(isinstance(model, ConstantLatency) for model in data_lat):
        raise ValueError(
            "the parallel engine supports constant data latencies only "
            "(random models draw per tuple in stream order)"
        )
    control_lat = _as_latency(control_latency)
    recorder = telemetry if telemetry is not None else NULL_RECORDER

    if isinstance(faults, FaultInjector):
        injector = faults if faults.active else None
    elif isinstance(faults, FaultPlan):
        injector = (
            FaultInjector(faults, k=k, telemetry=recorder)
            if faults.active
            else None
        )
    elif faults is None:
        injector = None
    else:
        raise TypeError(
            f"faults must be a FaultPlan or FaultInjector, got {faults!r}"
        )
    observers = Observers(audit, flight, lineage, recorder)

    if workers is None:
        workers = default_worker_count(policy.sources)
    workers = COUNT.check("workers", workers)

    if profiler is not None:
        profiler.start("simulate")
    try:
        result = _simulate_parallel(
            stream, policy, int(workers), k, scenario, data_lat, control_lat,
            rng, sample_queues_every, chunk_size, injector, observers,
            recorder, profiler, start_method, supervision,
        )
    finally:
        if profiler is not None:
            profiler.stop()
    result.faults = injector
    if recorder.enabled:
        _record_run_telemetry(recorder, result, k)
        _record_parallel_telemetry(recorder, result)
    return result


def _record_parallel_telemetry(recorder, result: SimulationResult) -> None:
    """Fold the engine's own counters into the run's report.

    Additive to :func:`_record_run_telemetry` (which records the same
    run-level metrics as the sequential engines): per-worker routed
    tuples plus segment/speculation accounting, so one RunReport carries
    the whole parallel run.
    """
    info = result.parallel or {}
    registry = recorder.registry
    registry.counter(
        "sim_parallel_segments_total",
        help="Control-quiet segments dispatched to workers",
    ).inc(info.get("segments", 0))
    registry.counter(
        "sim_parallel_fallback_tuples_total",
        help="Tuples routed through the sequential SEND_ALL fallback",
    ).inc(info.get("fallback_tuples", 0))
    registry.counter(
        "sim_parallel_discarded_tuples_total",
        help="Speculatively routed tuples discarded at segment re-tightening",
    ).inc(info.get("discarded_speculative_tuples", 0))
    for worker, tuples in enumerate(info.get("worker_tuples", ())):
        registry.counter(
            "sim_parallel_worker_tuples_total",
            help="Tuples committed per worker process",
            labels={"worker": worker},
        ).inc(int(tuples))
    for worker, seconds in enumerate(info.get("worker_busy_seconds", ())):
        registry.gauge(
            "sim_parallel_worker_busy_seconds",
            help="Wall-clock seconds each worker spent routing shard slices",
            labels={"worker": worker},
        ).set(float(seconds))
    registry.gauge(
        "sim_parallel_merge_stall_seconds",
        help="Wall-clock seconds the parent spent waiting on worker acks",
    ).set(float(info.get("merge_stall_seconds", 0.0)))
    sup = info.get("supervision") or {}
    registry.counter(
        "posg_supervisor_crashes_detected_total",
        help="Worker process deaths detected by the supervisor",
    ).inc(sup.get("crashes_detected", 0))
    registry.counter(
        "posg_supervisor_hangs_detected_total",
        help="Worker ack-deadline misses detected by the supervisor",
    ).inc(sup.get("hangs_detected", 0))
    registry.counter(
        "posg_supervisor_worker_errors_total",
        help="In-worker exceptions surfaced to the supervisor",
    ).inc(sup.get("worker_errors", 0))
    registry.counter(
        "posg_supervisor_respawns_total",
        help="Workers killed and respawned by the supervisor",
    ).inc(sup.get("respawns_total", 0))
    registry.counter(
        "posg_supervisor_replayed_segments_total",
        help="Failed segments replayed on a respawned worker",
    ).inc(sup.get("replayed_segments", 0))
    registry.counter(
        "posg_supervisor_inline_segments_total",
        help="Segments routed in-parent for degraded workers",
    ).inc(sup.get("inline_segments", 0))
    registry.gauge(
        "posg_supervisor_degraded_workers",
        help="Workers retired to in-parent routing by run end",
    ).set(len(sup.get("degraded_workers", ())))
    recorder.tracer.emit(
        "parallel_run",
        workers=info.get("workers"),
        start_method=info.get("start_method"),
        segments=info.get("segments"),
        fallback_tuples=info.get("fallback_tuples"),
        discarded_speculative_tuples=info.get(
            "discarded_speculative_tuples"
        ),
    )


def _simulate_parallel(
    stream: Stream,
    policy: MultiSourcePOSGGrouping,
    workers: int,
    k: int,
    scenario,
    data_lat: list[LatencyModel],
    control_lat: LatencyModel,
    rng: np.random.Generator | None,
    sample_queues_every: int | None,
    chunk_size: int,
    injector: FaultInjector | None,
    observers: Observers,
    recorder,
    profiler,
    start_method: str | None,
    supervision: "SupervisionConfig | None" = None,
) -> SimulationResult:
    m = stream.m
    items_array = np.ascontiguousarray(stream.items, dtype=np.int64)
    items = items_array.tolist()
    arrivals_array = np.ascontiguousarray(stream.arrivals, dtype=np.float64)
    arrivals = arrivals_array.tolist()
    base_times = stream.base_times.tolist()

    # Hoisted execution-time columns, identical to the chunked engine:
    # a unit multiplier column is the base times themselves.
    multipliers = scenario.multiplier_matrix(m)
    execution_columns = [
        base_times
        if np.all(multipliers[:, instance] == 1.0)
        else (stream.base_times * multipliers[:, instance]).tolist()
        for instance in range(k)
    ]
    # Per-instance arrival-at-instance columns (constant latencies only;
    # x + 0.0 == x keeps the zero-latency column the arrival list).
    latency_values = [model.value for model in data_lat]
    at_cols = [
        arrivals
        if value == 0.0
        else (arrivals_array + value).tolist()
        for value in latency_values
    ]

    policy.setup(k, rng)
    if policy.scheduler._latency_hints is not None:
        raise ValueError(
            "latency hints change the greedy objective per tuple; the "
            "parallel engine does not support them — use simulate_stream"
        )
    observers.bind(policy)
    flight, lineage = observers.flight, observers.lineage
    flight_every = flight.sample_every if flight is not None else 0
    lineage_every = lineage.sample_every if lineage is not None else 0
    agents = [policy.create_instance_agent(instance) for instance in range(k)]
    trackers = [agent.tracker for agent in agents]
    schedulers = list(policy.schedulers)
    sources = policy.sources
    spec = policy.worker_spec()
    window_size = policy.config.window_size

    n_workers = max(1, min(workers, sources))
    worker_faults = injector.worker_faults if injector is not None else ()
    for fault in worker_faults:
        if fault.worker >= n_workers:
            raise ValueError(
                f"scripted worker fault targets worker {fault.worker} "
                f"but only {n_workers} worker processes will run"
            )
    cap = (chunk_size + sources - 1) // sources + 1
    fcap = (cap // flight_every + 2) if flight_every else 1
    lcap = (cap // lineage_every + 2) if lineage_every else 1
    arena = ShardArena(sources, k, spec.rows, spec.cols, m, cap, fcap, lcap)

    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    ctx = multiprocessing.get_context(start_method)

    worker_shards = [
        [shard for shard in range(sources) if shard % n_workers == w]
        for w in range(n_workers)
    ]

    # Degraded-mode fallback: the parent routes a retired worker's
    # shards through the identical worker code path (same pair views,
    # same bucket cache, same `_route_shard`), so degraded segments are
    # bit-identical to worker-routed ones.  Views are built lazily (the
    # healthy path never pays for them) and must be dropped before the
    # arena unmaps.
    inline_state: dict = {}

    def _inline_route(shard: int, start: int, end: int) -> None:
        if "cache" not in inline_state:
            family = TwoUniversalHashFamily.from_dict(spec.hashes)
            inline_state["family"] = family
            inline_state["cache"] = get_bucket_cache(family)
            inline_state["pairs"] = {}
        pairs = inline_state["pairs"].get(shard)
        if pairs is None:
            pairs = _attach_pair_views(inline_state["family"], arena, shard)
            inline_state["pairs"][shard] = pairs
        _route_shard(
            arena, shard, pairs, inline_state["cache"],
            spec.pooled_estimates, start, end, flight_every, lineage_every,
            spec.two_choices,
        )

    def _coupled_route(start: int, end: int) -> None:
        # Gossip couples the shard scans, so the whole segment routes
        # in-parent through the same lazily-built views as the
        # degraded-mode fallback (workers stay idle for gossip runs).
        if "cache" not in inline_state:
            family = TwoUniversalHashFamily.from_dict(spec.hashes)
            inline_state["family"] = family
            inline_state["cache"] = get_bucket_cache(family)
            inline_state["pairs"] = {}
        pairs_by_shard = inline_state["pairs"]
        for shard in range(sources):
            if shard not in pairs_by_shard:
                pairs_by_shard[shard] = _attach_pair_views(
                    inline_state["family"], arena, shard
                )
        _route_segment_coupled(
            arena, start, end, pairs_by_shard, inline_state["cache"],
            spec.pooled_estimates, spec.two_choices,
            flight_every, lineage_every,
        )

    supervisor = WorkerSupervisor(
        ctx=ctx,
        target=_worker_main,
        spec=spec,
        layout=arena.layout(),
        shm_name=arena.name,
        worker_shards=worker_shards,
        flight_every=flight_every,
        lineage_every=lineage_every,
        config=supervision,
        worker_faults=worker_faults,
        inline_router=_inline_route,
        injector=injector,
        recorder=recorder,
        flight=flight,
    )
    run_info: dict = {}
    try:
        arena.items[:] = items_array
        supervisor.start()

        run_info = _parallel_loop(
            m=m,
            items=items,
            arrivals=arrivals,
            arrivals_array=arrivals_array,
            execution_columns=execution_columns,
            at_cols=at_cols,
            latency_values=latency_values,
            control_lat=control_lat,
            policy=policy,
            schedulers=schedulers,
            sources=sources,
            k=k,
            agents=agents,
            trackers=trackers,
            window_size=window_size,
            chunk_size=chunk_size,
            arena=arena,
            supervisor=supervisor,
            injector=injector,
            observers=observers,
            sample_queues_every=sample_queues_every,
            profiler=profiler,
            coupled_router=_coupled_route,
        )
        run_info["shard_busy_seconds"] = arena.wk_busy.tolist()
    finally:
        supervisor.shutdown()
        # drop the inline fallback's matrix views before unmapping
        inline_state.clear()
        arena.close()
        arena.unlink()

    shard_tuples = run_info.pop("shard_tuples")
    worker_tuples = [
        sum(shard_tuples[shard] for shard in shards)
        for shards in worker_shards
    ]
    shard_busy = run_info.pop("shard_busy_seconds", [0.0] * sources)
    worker_busy = [
        sum(shard_busy[shard] for shard in shards)
        for shards in worker_shards
    ]
    result = SimulationResult(
        stats=CompletionStats(
            run_info.pop("completions"),
            np.asarray(run_info.pop("assignments"), dtype=np.int64),
        ),
        policy=policy,
        state_transitions=run_info.pop("state_transitions"),
        control_messages=run_info.pop("control_messages"),
        control_bits=run_info.pop("control_bits"),
        queue_samples=(
            np.asarray(run_info.pop("queue_samples"))
            if sample_queues_every is not None
            else None
        ),
        queue_sample_indices=(
            np.asarray(run_info.pop("queue_sample_indices"), dtype=np.int64)
            if sample_queues_every is not None
            else None
        ),
        audit=observers.audit,
        flight=flight,
        lineage=lineage,
        parallel={
            "workers": n_workers,
            "start_method": start_method,
            "worker_shards": worker_shards,
            "worker_tuples": worker_tuples,
            "worker_busy_seconds": worker_busy,
            "shard_busy_seconds": shard_busy,
            "supervision": supervisor.report(),
            **run_info,
        },
    )
    return result


def _parallel_loop(
    *,
    m,
    items,
    arrivals,
    arrivals_array,
    execution_columns,
    at_cols,
    latency_values,
    control_lat,
    policy,
    schedulers,
    sources,
    k,
    agents,
    trackers,
    window_size,
    chunk_size,
    arena: ShardArena,
    supervisor: WorkerSupervisor,
    injector,
    observers: Observers,
    sample_queues_every,
    profiler,
    coupled_router=None,
) -> dict:
    """The dispatch/merge/commit loop.  Returns the run's bookkeeping."""
    busy = [0.0] * k
    finishes: list[float] = []
    assignments: list[int] = []
    control_queue: list[tuple[float, int, object]] = []
    control_seq = 0
    control_messages = 0
    control_bits = 0
    state_transitions: list[tuple[int, SchedulerState]] = []
    queue_samples: list[list[float]] = []
    queue_sample_indices: list[int] = []
    previous_state = policy.state

    every = sample_queues_every
    next_sample = 0 if every is not None else m
    # Workers sample flight and lineage routes into their arena rings on
    # their own strided grids and the merge samples the audit, so this
    # engine keeps its per-observer schedules; only the per-tuple
    # fallback goes through ``Observers.sample_routed``.
    auditor, flight, lineage = observers.audit, observers.flight, observers.lineage
    observed = not (auditor is None and flight is None and lineage is None)
    lineage_every = lineage.sample_every if lineage is not None else 0
    audit_every = auditor.sample_every if auditor is not None else 0
    audit_observe = auditor.observe if auditor is not None else None
    next_audit = 0 if auditor is not None else m

    # Only *control-plane* faults (message channels, instance crashes,
    # slow-node windows) force the per-tuple faulted merge; a plan
    # scripting nothing but process-level worker faults keeps the fast
    # merge — inactive channels draw no RNG in either engine, and
    # worker faults never change what workers write, so the fast path
    # stays bit-identical.
    faulting = injector is not None and injector.plan.control_active
    crash_ptr = 0

    # Instance-side batching (fault-free fast merge only: crashes force
    # per-tuple tracker folds, and faulted runs never batch).
    pending_items: list[list[int]] = [[] for _ in range(k)]
    pending_times: list[list[float]] = [[] for _ in range(k)]
    window_left = [tracker.window_remaining for tracker in trackers]

    #: each shard's ``matrices_version`` as of its last arena mirror
    mirrored_version = [-1] * sources
    shard_tuples = [0] * sources
    segments = 0
    fallback_tuples = 0
    discarded = 0
    merge_stall = 0.0
    # Cross-shard gossip couples the per-shard scans: segments route
    # in-parent through `coupled_router` and C_hat folds back for all
    # shards at once (see the commit step).
    gossip_coupled = policy._gossip_on

    send_all = SchedulerState.SEND_ALL
    heappush = heapq.heappush
    heappop = heapq.heappop
    bisect_left = bisect.bisect_left
    ctrl = arena.ctrl
    c_hat_region = arena.c_hat
    out_inst_region = arena.out_inst
    out_est_region = arena.out_est
    c_final_region = arena.c_final
    fl_idx_region = arena.fl_idx
    fl_bel_region = arena.fl_bel
    ln_idx_region = arena.ln_idx
    ln_bel_region = arena.ln_bel
    #: merge-computed clock halves of this segment's lineage samples,
    #: keyed by stream index — joined with the worker-emitted believed
    #: rows at commit: ``{p: (at_instance, start, finish, window_left)}``
    lin_pending: dict[int, tuple[float, float, float, int]] = {}

    def _window_boundary(
        instance: int,
        item: int,
        execution_time: float,
        finish: float,
        lo: int,
        next_due: float,
        end: int,
    ) -> tuple[float, int]:
        """Fault-free window close: flush the batch, run the boundary
        tuple through the FSM, enqueue its messages, re-tighten the
        segment bound.  Mirrors the chunked engine's closure exactly."""
        nonlocal control_seq, control_messages, control_bits
        tracker = trackers[instance]
        batch = pending_items[instance]
        if profiler is not None:
            profiler.start("window_close")
        if batch:
            if profiler is not None:
                profiler.start("fold")
            tracker.execute_batch(batch, pending_times[instance])
            if profiler is not None:
                profiler.stop()
            batch.clear()
            pending_times[instance].clear()
        messages = tracker.execute(item, execution_time, None)
        for message in messages:
            delivery = finish + control_lat.sample()
            heappush(control_queue, (delivery, control_seq, message))
            control_seq += 1
            control_messages += 1
            control_bits += message.size_bits()
        if control_queue and control_queue[0][0] < next_due:
            next_due = control_queue[0][0]
            end = bisect_left(arrivals, next_due, lo, end)
        if profiler is not None:
            profiler.stop()
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
            if profiler is not None:
                profiler.start("control")
            batch = []
            while control_queue and control_queue[0][0] <= arrival:
                batch.append(heappop(control_queue)[2])
            policy.on_control_batch(batch)
            if profiler is not None:
                profiler.stop()

        if any(s.state is send_all for s in schedulers):
            # ------------------------------------------------------
            # SEND_ALL fallback: sequential reference per-tuple step.
            # ------------------------------------------------------
            fallback_tuples += 1
            if j == next_sample:
                queue_sample_indices.append(j)
                queue_samples.append([max(0.0, b - arrival) for b in busy])
                next_sample += every
            if faulting:
                crash_ptr = _fire_due_crashes(
                    injector, crash_ptr, arrival, agents, busy
                )
            if profiler is not None:
                profiler.start("route")
            decision = policy.route(items[j])
            if profiler is not None:
                profiler.stop()
            instance = decision.instance
            shard_tuples[j % sources] += 1
            at_instance = arrival + latency_values[instance]
            b = busy[instance]
            start = at_instance if at_instance > b else b
            execution_time = execution_columns[instance][j]
            sync_request = decision.sync_request
            if faulting:
                factor = injector.execution_factor(instance, arrival)
                if factor != 1.0:
                    execution_time = execution_time * factor
                if sync_request is not None and injector.drop_request(
                    sync_request
                ):
                    sync_request = None
            finish = start + execution_time
            busy[instance] = finish
            finishes.append(finish)
            assignments.append(instance)
            if observed:
                # window_left drifts in faulted runs (the faulted merge
                # only refreshes it at boundaries) but batches are never
                # pending there, so the tracker's own counter is exact;
                # fault-free runs may hold un-folded batches, where
                # window_left is the accurate logical counter.
                observers.sample_routed(
                    j, items[j], instance, arrival, at_instance, start,
                    finish, execution_time,
                    trackers[instance].window_remaining
                    if faulting
                    else window_left[instance],
                )
                if j == next_audit:
                    next_audit += audit_every
            if profiler is not None:
                profiler.start("fold")
            if pending_items[instance]:
                trackers[instance].execute_batch(
                    pending_items[instance], pending_times[instance]
                )
                pending_items[instance].clear()
                pending_times[instance].clear()
            messages = trackers[instance].execute(
                items[j], execution_time, sync_request
            )
            window_left[instance] = trackers[instance].window_remaining
            if profiler is not None:
                profiler.stop()
            for message in messages:
                delivery = finish + control_lat.sample()
                control_messages += 1
                control_bits += message.size_bits()
                if faulting:
                    for when in injector.deliver_times(message, delivery):
                        heappush(control_queue, (when, control_seq, message))
                        control_seq += 1
                else:
                    heappush(control_queue, (delivery, control_seq, message))
                    control_seq += 1
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

        if profiler is not None:
            profiler.start("route")
        for shard in range(sources):
            _sync_shard(shard)
        if gossip_coupled:
            coupled_router(j, end)
        else:
            merge_stall += supervisor.route_segment(j, end)
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
        if profiler is not None:
            profiler.stop()

        if profiler is not None:
            profiler.start("merge")
        if faulting:
            # --------------------------------------------------
            # Faulted merge: replay the reference per-tuple step
            # (minus routing) in arrival order — crashes, slowdown
            # factors and message-fault draws happen at the exact
            # sequential points.
            # --------------------------------------------------
            t = j
            while t < end:
                ar_t = arrivals[t]
                if t == next_sample:
                    queue_sample_indices.append(t)
                    queue_samples.append(
                        [max(0.0, b - ar_t) for b in busy]
                    )
                    next_sample += every
                crash_ptr = _fire_due_crashes(
                    injector, crash_ptr, ar_t, agents, busy
                )
                instance = seg_asg[t - j]
                at_instance = at_cols[instance][t]
                b = busy[instance]
                start = at_instance if at_instance > b else b
                execution_time = execution_columns[instance][t]
                factor = injector.execution_factor(instance, ar_t)
                if factor != 1.0:
                    execution_time = execution_time * factor
                finish = start + execution_time
                busy[instance] = finish
                finishes.append(finish)
                assignments.append(instance)
                if t == next_audit:
                    audit_observe(t, items[t], instance, execution_time)
                    next_audit += audit_every
                if lineage_every and t % lineage_every == 0:
                    # Pre-execute read: faulted runs never batch, so the
                    # tracker's counter is the exact reference value.
                    lin_pending[t] = (
                        at_instance, start, finish,
                        trackers[instance].window_remaining,
                    )
                messages = trackers[instance].execute(
                    items[t], execution_time, None
                )
                if messages:
                    for message in messages:
                        delivery = finish + control_lat.sample()
                        control_messages += 1
                        control_bits += message.size_bits()
                        for when in injector.deliver_times(message, delivery):
                            heappush(
                                control_queue, (when, control_seq, message)
                            )
                            control_seq += 1
                    window_left[instance] = trackers[
                        instance
                    ].window_remaining
                    if control_queue and control_queue[0][0] < next_due:
                        next_due = control_queue[0][0]
                        end = bisect_left(arrivals, next_due, t + 1, end)
                t += 1
        else:
            # --------------------------------------------------
            # Fast merge: de-interleaved per-instance busy chains
            # between window boundaries (the generalization of the
            # chunked engine's ROUND_ROBIN segment merge to an
            # arbitrary precomputed assignment).
            # --------------------------------------------------
            seg_fin_np = np.empty(seg_len0, dtype=np.float64)
            occ = [
                np.nonzero(seg_asg_np == instance)[0] + j
                for instance in range(k)
            ]
            occ_size = [int(arr.size) for arr in occ]
            ptr = [0] * k
            cur = j
            while True:
                nb = end
                for i in range(k):
                    pidx = ptr[i] + window_left[i] - 1
                    if pidx < occ_size[i]:
                        cand = occ[i][pidx]
                        if cand < nb:
                            nb = int(cand)
                safe_end = nb
                if safe_end > cur:
                    sampling = next_sample < safe_end
                    if lineage_every:
                        # First sampled index at or after ``cur``
                        # (samples land on multiples of the stride).
                        ls0 = -(-cur // lineage_every) * lineage_every
                        lin_here = ls0 < safe_end
                    else:
                        lin_here = False
                    collect = sampling or lin_here
                    start_busy = busy[:] if collect else None
                    base_ptr = ptr[:] if collect else None
                    base_wl = window_left[:] if lin_here else None
                    chains: list[list[float]] = []
                    for i in range(k):
                        arr = occ[i]
                        p_lo = ptr[i]
                        p_hi = int(np.searchsorted(arr, safe_end, side="left"))
                        fl: list[float] = []
                        n_i = p_hi - p_lo
                        if n_i:
                            positions = arr[p_lo:p_hi]
                            pos_list = positions.tolist()
                            at_col_i = at_cols[i]
                            x_col_i = execution_columns[i]
                            xs = [x_col_i[t] for t in pos_list]
                            b = busy[i]
                            fa = fl.append
                            for t, w in zip(pos_list, xs):
                                at = at_col_i[t]
                                if at > b:
                                    b = at
                                b += w
                                fa(b)
                            busy[i] = b
                            seg_fin_np[positions - j] = fl
                            pending_items[i].extend(
                                items[t] for t in pos_list
                            )
                            pending_times[i].extend(xs)
                            window_left[i] -= n_i
                            ptr[i] = p_hi
                        if collect:
                            chains.append(fl)
                    while next_sample < safe_end:
                        sidx = next_sample
                        ar_s = arrivals[sidx]
                        sample = []
                        for i in range(k):
                            cnt = (
                                int(np.searchsorted(occ[i], sidx))
                                - base_ptr[i]
                            )
                            bi = (
                                start_busy[i]
                                if cnt <= 0
                                else chains[i][cnt - 1]
                            )
                            sample.append(max(0.0, bi - ar_s))
                        queue_sample_indices.append(sidx)
                        queue_samples.append(sample)
                        next_sample += every
                    while next_audit < safe_end:
                        sidx = next_audit
                        instance = seg_asg[sidx - j]
                        audit_observe(
                            sidx,
                            items[sidx],
                            instance,
                            execution_columns[instance][sidx],
                        )
                        next_audit += audit_every
                    if lin_here:
                        # Replay each sampled tuple's clocks off the
                        # de-interleaved busy chains (the queue-sample
                        # reconstruction, plus finish and window math).
                        for p in range(ls0, safe_end, lineage_every):
                            i = seg_asg[p - j]
                            cnt = (
                                int(np.searchsorted(occ[i], p))
                                - base_ptr[i]
                            )
                            prev_b = (
                                start_busy[i]
                                if cnt == 0
                                else chains[i][cnt - 1]
                            )
                            at = at_cols[i][p]
                            lin_pending[p] = (
                                at,
                                at if at > prev_b else prev_b,
                                chains[i][cnt],
                                base_wl[i] - cnt,
                            )
                    cur = safe_end
                if cur >= end:
                    break
                # Window-boundary tuple: reference per-tuple step.
                t = cur
                if t == next_sample:
                    ar_t = arrivals[t]
                    queue_sample_indices.append(t)
                    queue_samples.append(
                        [max(0.0, b - ar_t) for b in busy]
                    )
                    next_sample += every
                instance = seg_asg[t - j]
                at_instance = at_cols[instance][t]
                b = busy[instance]
                if at_instance > b:
                    b = at_instance
                execution_time = execution_columns[instance][t]
                finish = b + execution_time
                busy[instance] = finish
                seg_fin_np[t - j] = finish
                if lineage_every and t % lineage_every == 0:
                    # window_left is still the pre-close value (always
                    # 1 at a boundary tuple), reset only below.
                    lin_pending[t] = (
                        at_instance, b, finish, window_left[instance]
                    )
                next_due, end = _window_boundary(
                    instance, items[t], execution_time, finish,
                    t + 1, next_due, end,
                )
                window_left[instance] = window_size
                ptr[instance] += 1
                if t == next_audit:
                    audit_observe(t, items[t], instance, execution_time)
                    next_audit += audit_every
                cur = t + 1
            count = end - j
            finishes.extend(seg_fin_np[:count].tolist())
            assignments.extend(seg_asg[:count])
        if profiler is not None:
            profiler.stop()

        # ----------------------------------------------------------
        # Commit: fold each shard's committed prefix back into its
        # scheduler.  A truncated shard replays its C_hat adds in
        # order (same IEEE sequence as routing only the prefix).
        # ----------------------------------------------------------
        discarded += end0 - end
        for shard in range(sources):
            first = j + ((shard - j) % sources)
            n_committed = (
                0 if end <= first else (end - first + sources - 1) // sources
            )
            n_routed = int(ctrl[shard][3])
            scheduler = schedulers[shard]
            scheduler._tuples_scheduled += n_committed
            shard_tuples[shard] += n_committed
            if int(ctrl[shard][0]) == _MODE_ROUND_ROBIN:
                scheduler._rr_counter += n_committed
            elif gossip_coupled:
                pass  # C_hat folds for all shards at once, below
            elif n_committed == 0:
                pass  # shard untouched this segment; c_final is stale
            elif n_committed == n_routed:
                scheduler._c_hat[:] = c_final_region[shard]
            else:
                c_hat = scheduler._c_hat
                inst_out = out_inst_region[shard][:n_committed].tolist()
                est_out = out_est_region[shard][:n_committed].tolist()
                for instance, estimate in zip(inst_out, est_out):
                    c_hat[instance] += estimate
            if flight is not None:
                # Merge the shard's flight ring in reference event
                # order: samples are stored by ascending stream index,
                # and route events for this segment sit between the
                # control events drained at the segment's boundaries —
                # exactly where the sequential engines record them.
                # Samples past the (possibly re-tightened) commit bound
                # are speculative; the next segment re-routes and
                # re-samples them.
                nf = int(ctrl[shard][4])
                if nf:
                    fl_idx_row = fl_idx_region[shard]
                    fl_bel_row = fl_bel_region[shard]
                    for r in range(nf):
                        p = int(fl_idx_row[r])
                        if p >= end:
                            break
                        flight.record_route(
                            shard, p, seg_asg[p - j], fl_bel_row[r].tolist()
                        )
            if lineage is not None:
                # Join the worker-emitted believed rows with the clocks
                # the merge derived.  Rows past the commit bound are
                # speculative (re-routed next segment); every committed
                # row has pending clocks, so the pop fails loudly if
                # the two halves ever disagree.
                nl = int(ctrl[shard][5])
                if nl:
                    ln_idx_row = ln_idx_region[shard]
                    ln_bel_row = ln_bel_region[shard]
                    for r in range(nl):
                        p = int(ln_idx_row[r])
                        if p >= end:
                            break
                        clocks = lin_pending.pop(p)
                        lineage.record_sample(
                            shard, p, seg_asg[p - j],
                            ln_bel_row[r].tolist(), arrivals[p],
                            clocks[0], clocks[1], clocks[2], clocks[3],
                        )
        if gossip_coupled:
            # Gossip-coupled C_hat fold: every nonzero estimate was
            # added to every shard's belief, so a full commit snapshots
            # each shard's coupled c_final, and a truncated one replays
            # the committed prefix's adds — in global order, into all
            # shards at once (the same IEEE add sequence per slot as
            # routing only the prefix).
            if end == end0:
                for shard in range(sources):
                    schedulers[shard]._c_hat[:] = c_final_region[shard]
            else:
                count = end - j
                if count:
                    c_hats = [s._c_hat for s in schedulers]
                    gl = arena.gl_est[:count].tolist()
                    for idx, estimate in enumerate(gl):
                        if estimate != 0.0:
                            instance = seg_asg[idx]
                            for c_hat in c_hats:
                                c_hat[instance] += estimate
            # Billing replay over the committed prefix only: digests are
            # a pure observability cost, so they fold at commit rather
            # than during speculative routing.
            for shard in range(sources):
                if int(ctrl[shard][0]) == _MODE_ROUND_ROBIN:
                    continue
                first = j + ((shard - j) % sources)
                n_committed = (
                    0
                    if end <= first
                    else (end - first + sources - 1) // sources
                )
                if n_committed:
                    policy.commit_gossip(
                        shard,
                        int(
                            np.count_nonzero(
                                out_est_region[shard][:n_committed]
                            )
                        ),
                    )
        policy.sync_cursor(end)
        j = end

    # Fold the tail batches so tracker state ends exactly where the
    # sequential engines leave it.
    for instance in range(k):
        if pending_items[instance]:
            if profiler is not None:
                profiler.start("fold")
            trackers[instance].execute_batch(
                pending_items[instance], pending_times[instance]
            )
            if profiler is not None:
                profiler.stop()

    completions = np.asarray(finishes, dtype=np.float64) - arrivals_array
    return {
        "completions": completions,
        "assignments": assignments,
        "state_transitions": state_transitions,
        "control_messages": control_messages,
        "control_bits": control_bits,
        "queue_samples": queue_samples,
        "queue_sample_indices": queue_sample_indices,
        "segments": segments,
        "fallback_tuples": fallback_tuples,
        "discarded_speculative_tuples": discarded,
        "merge_stall_seconds": merge_stall,
        "shard_tuples": shard_tuples,
    }
