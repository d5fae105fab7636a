"""Multi-source (sharded) POSG scheduling.

The paper deploys a *single* scheduling operator ``S`` in front of the
``k`` instances of operator ``O``.  Real topologies have ``s`` parallel
upstream executors, each running its own shuffle-grouping scheduler over
the *same* downstream instances — so each scheduler only routes (and
therefore only estimates) its own share of the stream.  This module
models that deployment:

- ``s`` independent :class:`~repro.core.scheduler.POSGScheduler`\\ s, one
  per upstream source, each with its own FSM, epoch counter and
  ``C_hat`` vector;
- **one** :class:`~repro.core.instance.InstanceTracker` per downstream
  instance, shared by every scheduler — the instance measures its total
  cumulated execution time ``C_op`` across *all* sources;
- stable ``(F, W)`` matrices are **broadcast**: every scheduler receives
  each instance's matrices message (a private copy only when it will
  merge into its stored pair), so all shards estimate with the same
  information — from one shared estimate table when they do not merge;
- :class:`~repro.core.messages.SyncRequest`\\ s carry the originating
  shard id (``source``), and the instance echoes it on the
  :class:`~repro.core.messages.SyncReply` so the reply is routed back to
  the shard that asked.

The crucial consequence of sharing the trackers is what ``Delta_op``
means under sharding.  A scheduler's ``C_hat[op]`` only accumulates the
estimates of *its own* assignments (roughly ``1/s`` of the load), but
the instance computes ``Delta_op = C_op - c_hat_at_send`` against its
**total** measured time.  Folding that delta therefore re-baselines the
shard's estimate to the instance's *global* load: after each completed
sync round every scheduler greedily balances against what the instance
actually executed for everyone, not just for its own shard.  Between
rounds the shards drift apart again (each sees only its own share of
the arrivals), which is the degradation EXPERIMENTS.md's "Sharding,
measured once" table records.

With ``sources=1`` the subsystem collapses to the paper's deployment
and is bit-identical to :class:`~repro.core.grouping.POSGGrouping`:
one scheduler is built with ``source=None`` (so telemetry carries no
extra labels), matrices "broadcast" to exactly that scheduler without
copying, and every ``SyncReply`` carries ``source=0`` and routes to
scheduler 0 — the same object graph and the same float operations in
the same order as the single-scheduler path.

Cross-shard coordination
------------------------
The drift between folds is the dominant cost of sharding (56-74% of
the excess latency is staleness regret; EXPERIMENTS.md, "Sharding,
measured once").  Arming :class:`~repro.core.config.CoordinationConfig`
on the shared :class:`~repro.core.config.POSGConfig` keeps sibling
beliefs fresh between folds:

- **delta gossip** — after shard ``j``'s scheduler adds its believed
  estimate ``e`` to its own ``C_hat[i]``, the same ``e`` is added to
  every sibling's ``C_hat[i]`` (the shards share this object, so the
  update is an in-process array write; it is billed as control bits at
  ``gossip_stride`` to keep the paper's cost model honest).  Round-
  robin decisions gossip nothing (``e = 0``: ROUND_ROBIN never updates
  ``C_hat``), and the replay invariant is simple: every tuple's
  estimate lands in *every* shard's ``C_hat`` in global arrival order.
- **sync-reply snooping** — when a completed round folds into shard
  ``j``, the freshly re-baselined ``C_hat[op]`` values are copied to
  every sibling whose generation tag for ``op`` matches and that has
  no in-flight measurement of its own for ``op`` (a shard about to
  fold its own delta for ``op`` must not be re-baselined twice).

All coordination state mutates in deterministic per-tuple order, so
coordinated runs stay bit-identical across the reference and chunked
engines.  The process pool (``repro.simulator.parallel``) refuses
coordination: gossip couples the shard scans it runs apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bounds import COUNT
from repro.core.config import POSGConfig
from repro.core.grouping import GroupingPolicy, POSGGrouping, RouteDecision
from repro.core.matrices import make_shared_hashes
from repro.core.messages import ControlMessage, MatricesMessage, SyncReply
from repro.core.scheduler import STATS, POSGScheduler
from repro.telemetry.recorder import NULL_RECORDER

#: billed size of one gossiped load digest per shard edge (a packed
#: ``(instance, estimate)`` delta, same 64-bit convention as the sync
#: protocol messages)
GOSSIP_BITS = 64
#: billed size of one snooped ``C_hat[op]`` publication per sibling
SNOOP_BITS = 64


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Picklable description of the sharded policy's *static* state.

    The parallel engine (``repro.simulator.parallel``) runs the ``s``
    shard schedulers' greedy route loops in worker processes.  Workers
    never hold live scheduler objects: everything immutable travels once
    in this spec (hash-family coefficients, sketch shape, shard count,
    estimate pooling), while the mutable per-shard state — ``C_hat``,
    the stored ``(F, W)`` matrices, FSM mode — lives in a shared-memory
    arena the parent refreshes between control-quiet segments.  The
    spec is a frozen dataclass of builtins, so it pickles under both
    the ``fork`` and ``spawn`` start methods.
    """

    sources: int
    k: int
    rows: int
    cols: int
    pooled_estimates: bool
    #: ``TwoUniversalHashFamily.to_dict()`` payload (shared by the
    #: scheduler-side and instance-side sketches)
    hashes: dict


class MultiSourcePOSGGrouping(POSGGrouping):
    """POSG sharded across ``s`` upstream sources (one scheduler each).

    Drop-in replacement for :class:`~repro.core.grouping.POSGGrouping`
    in both engines: the ``s`` sub-streams are interleaved
    deterministically by arrival index (tuple ``i`` is routed by
    scheduler ``i mod s``, matching ``s`` upstream executors fed
    round-robin by a balanced ingest layer).

    Parameters
    ----------
    sources:
        Number of upstream schedulers ``s`` (>= 1).
    config, telemetry:
        As for :class:`~repro.core.grouping.POSGGrouping`; shared by
        every shard.
    """

    name = "posg_multisource"

    def __init__(
        self,
        sources: int = 2,
        config: POSGConfig | None = None,
        telemetry=NULL_RECORDER,
    ) -> None:
        sources = COUNT.check("sources", sources)
        super().__init__(config, telemetry=telemetry)
        self._sources = sources
        self._schedulers: list[POSGScheduler] = []
        self._cursor = 0
        # cross-shard coordination (armed in setup; counters live here so
        # stats() is callable before the policy is bound)
        self._gossip_on = False
        self._gossip_stride = 0
        self._gossip_updates = 0
        self._gossip_billed = 0
        self._snoop_published = 0
        self._gossip_events: list[int] = []
        self._gossip_targets: list[tuple[np.ndarray, ...]] = []
        self._gossip_siblings: list[tuple[POSGScheduler, ...]] = []
        self._gossip_digest_bits = 0

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        GroupingPolicy.setup(self, k, rng)
        self._hashes = make_shared_hashes(self._config, rng=rng)
        if self._sources == 1:
            # source=None keeps the collapsed deployment bit-identical
            # to POSGGrouping (no scheduler labels on telemetry).
            shard_ids: list[int | None] = [None]
        else:
            shard_ids = list(range(self._sources))
        self._schedulers = [
            POSGScheduler(
                k,
                self._config,
                telemetry=self._telemetry,
                source=shard,
            )
            for shard in shard_ids
        ]
        self._scheduler = self._schedulers[0]
        if not self._config.merge_matrices:
            # every shard stores the broadcast pair itself, so one table
            # (whose rows know the pair that filled them) serves them all
            for scheduler in self._schedulers[1:]:
                scheduler._table = self._scheduler._table
        self._agents = {}
        self._cursor = 0
        coordination = self._config.coordination
        multi = self._sources > 1
        self._gossip_on = bool(
            coordination is not None and coordination.gossip and multi
        )
        self._gossip_stride = (
            coordination.gossip_stride if coordination is not None else 0
        )
        self._gossip_updates = 0
        self._gossip_billed = 0
        self._snoop_published = 0
        self._gossip_events = [0] * self._sources
        if self._gossip_on:
            # Per-source sibling views, precomputed so the hot path is a
            # tuple walk (the arrays alias each scheduler's live C_hat).
            self._gossip_siblings = [
                tuple(
                    sibling
                    for sibling in self._schedulers
                    if sibling is not owner
                )
                for owner in self._schedulers
            ]
            self._gossip_targets = [
                tuple(sibling._c_hat for sibling in siblings)
                for siblings in self._gossip_siblings
            ]
            self._gossip_digest_bits = (self._sources - 1) * GOSSIP_BITS
        else:
            self._gossip_siblings = []
            self._gossip_targets = []
            self._gossip_digest_bits = 0
        if coordination is not None and coordination.snoop and multi:
            for scheduler in self._schedulers:
                scheduler.attach_fold_hook(self._publish_fold)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def route(self, item: int) -> RouteDecision:
        """Route one tuple through the next shard in arrival order."""
        self.k  # raises before setup
        source = self._cursor
        cursor = source + 1
        self._cursor = 0 if cursor == self._sources else cursor
        decision = self._schedulers[source].submit(item)
        if self._gossip_on:
            estimate = decision.estimate
            # ROUND_ROBIN decisions carry estimate == 0.0 (C_hat is not
            # updated there); skipping them keeps sibling floats exactly
            # on the "every estimate lands everywhere" replay and means
            # the segment engine can reconstruct billing from the
            # nonzero-estimate count alone.
            if estimate != 0.0:
                instance = decision.instance
                for sibling_c_hat in self._gossip_targets[source]:
                    sibling_c_hat[instance] += estimate
                self._gossip_updates += 1
                events = self._gossip_events
                events[source] += 1
                stride = self._gossip_stride
                if stride and events[source] % stride == 0:
                    self._bill_gossip_digest(source)
        return RouteDecision(decision.instance, decision.sync_request)

    def _bill_gossip_digest(self, source: int, digests: int = 1) -> None:
        """Charge ``digests`` batched gossip digests from ``source``.

        Billing only touches the control-bit counters — never the
        believed loads — so a ``gossip_stride`` change (including 0,
        which disables billing) cannot change routing.
        """
        bits = digests * self._gossip_digest_bits
        self._schedulers[source]._control_bits_sent += bits
        for sibling in self._gossip_siblings[source]:
            sibling._control_bits_received += digests * GOSSIP_BITS
        self._gossip_billed += digests

    # ------------------------------------------------------------------
    # control path
    # ------------------------------------------------------------------
    def on_control(self, message: ControlMessage) -> None:
        """Broadcast matrices to every shard; route replies by source.

        A shard gets a private *copy* of the matrices only when it will
        merge into the pair it stores: with ``config.merge_matrices`` the
        scheduler merges later counters into that pair in place, so one
        object across shards would double-count every merge.  Otherwise
        every shard stores the message's pair itself, and the estimate
        table they share evaluates it once.
        """
        if isinstance(message, MatricesMessage):
            merge = self._config.merge_matrices
            for shard, scheduler in enumerate(self._schedulers):
                scheduler.on_message(
                    replace(message, matrices=message.matrices.copy())
                    if merge and shard
                    else message
                )
        elif isinstance(message, SyncReply):
            if not 0 <= message.source < self._sources:
                raise ValueError(
                    f"sync reply for unknown scheduler shard {message.source} "
                    f"(have {self._sources})"
                )
            self._schedulers[message.source].on_message(message)
        else:
            raise TypeError(f"unexpected control message: {message!r}")

    def on_control_batch(self, messages) -> None:
        """Atomically deliver every control message due at one arrival.

        The whole batch is validated *before* any message is applied:
        a reply addressed to an unknown shard (or a foreign message
        type) must not leave replies earlier in the same batch already
        folded, which is what per-message delivery did.
        """
        for message in messages:
            if isinstance(message, MatricesMessage):
                continue
            if isinstance(message, SyncReply):
                if not 0 <= message.source < self._sources:
                    raise ValueError(
                        f"sync reply for unknown scheduler shard "
                        f"{message.source} (have {self._sources})"
                    )
            else:
                raise TypeError(f"unexpected control message: {message!r}")
        for message in messages:
            self.on_control(message)

    # ------------------------------------------------------------------
    # cross-shard coordination (CoordinationConfig)
    # ------------------------------------------------------------------
    def _publish_fold(self, owner: POSGScheduler, instances: list[int]) -> None:
        """Sync-reply snooping: push a fold's fresh globals to siblings.

        ``owner`` just folded its deltas, so its ``C_hat[op]`` for each
        ``op`` in ``instances`` is re-baselined to the instance's
        *global* measured load.  Each value is copied to every sibling
        that (a) agrees on the instance's generation — a shard that has
        not yet observed a crash-restart keeps its own baseline, and a
        shard already past it must not be dragged back — and (b) has no
        in-flight measurement of its own for ``op`` (its imminent fold
        re-baselines ``op`` anyway; snooping first would double-apply).
        Billed at :data:`SNOOP_BITS` per published value per sibling,
        piggy-backed on the reply traffic (no extra messages).
        """
        owner_generations = owner._generations
        owner_c_hat = owner._c_hat
        published = 0
        for sibling in self._schedulers:
            if sibling is owner:
                continue
            sibling_generations = sibling._generations
            sibling_c_hat = sibling._c_hat
            for op in instances:
                if sibling_generations[op] != owner_generations[op]:
                    continue
                if op in sibling._pending_replies or op in sibling._pending_deltas:
                    continue
                sibling_c_hat[op] = owner_c_hat[op]
                owner._control_bits_sent += SNOOP_BITS
                sibling._control_bits_received += SNOOP_BITS
                published += 1
        if published:
            self._snoop_published += published
            flight = owner._flight
            if flight is not None:
                flight.record_snoop(
                    owner._source_id, owner._tuples_scheduled, published
                )

    def commit_gossip(self, source: int, gossiped: int) -> None:
        """Fold a committed segment's gossip accounting.

        The chunked engine's segment kernel applies the gossip *array*
        updates itself while it routes; this replays only the
        event/billing counters for the ``gossiped``
        nonzero-estimate tuples shard ``source`` contributed, producing
        the same digest count the per-tuple path would have billed
        (digests fire at every ``gossip_stride``-th event, so the count
        over an event interval is a floor-difference).
        """
        if not self._gossip_on or gossiped <= 0:
            return
        self._gossip_updates += gossiped
        events = self._gossip_events
        before = events[source]
        after = before + gossiped
        events[source] = after
        stride = self._gossip_stride
        if stride:
            self._bill_gossip_digest(source, after // stride - before // stride)

    # ------------------------------------------------------------------
    # process-pool attachment
    # ------------------------------------------------------------------
    def worker_spec(self) -> ShardWorkerSpec:
        """The picklable static state workers need to route for a shard.

        Only valid after :meth:`setup` (the hash family is drawn there).
        """
        if self._hashes is None:
            raise RuntimeError("worker_spec() requires setup() first")
        return ShardWorkerSpec(
            sources=self._sources,
            k=self._k,
            rows=self._hashes.rows,
            cols=self._hashes.cols,
            pooled_estimates=self._config.pooled_estimates,
            hashes=self._hashes.to_dict(),
        )

    def sync_cursor(self, position: int) -> None:
        """Restore the shard interleave after externally-routed tuples.

        The segment engines route whole segments without calling
        :meth:`route`; before handing a tuple at stream position ``p``
        back to the per-tuple path (SEND_ALL fallback) they must
        restore the invariant ``cursor == p mod s`` so the tuple reaches
        the same shard the reference engine would pick.

        ``position`` is the global stream index of the *next* tuple to
        route, so it must lie in ``[0, tuples routed so far]`` — a
        negative or beyond-the-stream position from a buggy restore
        path would silently alias onto some shard via the modulo and
        desynchronize the interleave without a trace.
        """
        if position < 0:
            raise ValueError(
                f"cursor position must be >= 0, got {position}"
            )
        routed = sum(
            scheduler._tuples_scheduled for scheduler in self._schedulers
        )
        if position > routed:
            raise ValueError(
                f"cursor position {position} is beyond the {routed} "
                f"tuples routed so far"
            )
        self._cursor = position % self._sources

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def sources(self) -> int:
        """Number of upstream scheduler shards ``s``."""
        return self._sources

    @property
    def schedulers(self) -> tuple[POSGScheduler, ...]:
        """Every shard's scheduler, indexed by source id."""
        return tuple(self._schedulers)

    def stats(self) -> dict:
        """Merged control-plane accounting across every shard.

        Counter fields of the scheduler's ``STATS`` table sum over the
        shards; ``state`` and the gauges (``epoch``, the last sync
        latency) are reported per shard under ``per_source``.
        """
        per_source = [scheduler.stats() for scheduler in self._schedulers]
        merged: dict = {
            "sources": self._sources,
            "per_source": per_source,
            "gossip_updates": self._gossip_updates,
            "gossip_billed": self._gossip_billed,
            "snoop_published": self._snoop_published,
        }
        for row in STATS:
            if row.kind == "counter":
                merged[row.key] = sum(stats[row.key] for stats in per_source)
        return merged
