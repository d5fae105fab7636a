"""POSG algorithm parameters.

Defaults follow the paper's experimental setup (Section V-A): window size
``N = 1024``, stability tolerance ``mu = 0.05``, sketch accuracy
``epsilon = 0.05`` and ``delta = 0.1``.  The paper's quoted matrix shape
for those values is ``r = 4`` rows by ``c = 54`` columns; the analytical
formulas give ``ceil(ln 1/0.1) = 3`` and ``ceil(e/0.05) = 55``, so the
config also accepts explicit ``rows``/``cols`` overrides and the default
constructor pins the paper's 4 x 54 shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bounds import check_bounds, integer, real
from repro.sketches.count_min import dims_for

@dataclass(frozen=True)
class RecoveryConfig:
    """Scheduler-side defenses against a lossy/faulty control plane.

    The paper's synchronization protocol (Figure 3) assumes every control
    message is eventually delivered: a single lost :class:`SyncReply`
    strands the scheduler in WAIT_ALL until the next matrices message
    happens to restart the round.  Attaching a ``RecoveryConfig`` to
    :class:`POSGConfig` arms three defenses in
    :class:`~repro.core.scheduler.POSGScheduler`:

    - **sync-round timeout** — after ``sync_timeout`` tuples scheduled in
      WAIT_ALL with replies still missing, the scheduler re-enters
      SEND_ALL and re-issues :class:`~repro.core.messages.SyncRequest`
      messages *only* for the missing instances, tagged with the same
      epoch (so the existing stale-reply dropping discards whichever of
      the original/retransmitted replies arrives second).  The timeout
      grows by ``sync_backoff`` per retry up to ``sync_timeout_max``;
      after ``sync_max_retries`` retransmissions the round is abandoned
      and the deltas that did arrive are folded (partial resync).
    - **staleness watchdog** — in WAIT_ALL/RUN, when any instance's last
      matrices message is older than ``staleness_limit`` tuples the
      scheduler drops that instance's matrices and falls back to
      ROUND_ROBIN until a full matrix set has been re-collected
      (bootstrap rule of Figure 3.B).
    - **C_hat re-bootstrapping** — handled independently of this config:
      a restarted instance bumps the ``generation`` tag on its messages
      and the scheduler re-baselines its estimate (see
      ``POSGScheduler._note_restart``).
    - **matrices rebroadcast** — the instance-side half of the watchdog:
      every ``rebroadcast_windows`` window boundaries without a fresh
      ship, an instance re-sends its last stable ``(F, W)`` pair.  A
      dropped matrices message (or a watchdog fallback that discarded
      one) is thereby repaired without waiting for the matrices to
      re-stabilize from scratch; ``None`` disables the re-send.

    All thresholds are measured in *tuples scheduled* — the scheduler's
    only clock — so the defenses behave identically under the simulator,
    the Storm-like engine and property-based tests.

    ``None`` (the ``POSGConfig`` default) disables every defense and
    keeps the scheduler bit-identical to the paper's protocol.
    """

    #: tuples scheduled in WAIT_ALL before the first retransmission
    sync_timeout: int = integer(4_096, low=1)
    #: timeout multiplier per retry (bounded exponential backoff)
    sync_backoff: float = real(2.0, low=1)
    #: upper bound on the per-retry timeout
    sync_timeout_max: int = integer(65_536, low=1)
    #: retransmissions before the round is abandoned (partial resync)
    sync_max_retries: int = integer(8, low=0)
    #: tuples since an instance's last matrices before the ROUND_ROBIN
    #: fallback; ``None`` disables the watchdog
    staleness_limit: int | None = integer(262_144, low=1, optional=True)
    #: instance window boundaries without a ship before the last stable
    #: matrices are re-sent; ``None`` disables the rebroadcast
    rebroadcast_windows: int | None = integer(8, low=1, optional=True)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.sync_timeout_max < self.sync_timeout:
            raise ValueError(
                f"sync_timeout_max ({self.sync_timeout_max}) must be >= "
                f"sync_timeout ({self.sync_timeout})"
            )


@dataclass(frozen=True)
class CoordinationConfig:
    """Cross-shard coordination for multi-source (sharded) POSG.

    Most of the excess latency behind the sharded degradation curve
    ``L(s)/L(1)`` is *staleness regret* (EXPERIMENTS.md, "Sharding,
    measured once"): each shard re-baselines its ``C_hat`` only at its
    own sync rounds and otherwise routes blind to what its siblings just
    scheduled.  This config arms two composable repairs inside
    :class:`~repro.core.multisource.MultiSourcePOSGGrouping` (both are
    no-ops under ``sources=1``); every shard still routes each tuple to
    the argmin of its own ``C_hat`` (Listing III.2):

    - **local delta gossip** (``gossip``) — after shard ``j`` routes a
      tuple to instance ``i``, the estimate it just believed is added to
      every sibling shard's ``C_hat[i]``.  Shards share the parent
      process, so the update is a deterministic O(s) array write, not a
      message — but it is *billed* as control traffic (64 bits per
      shard edge) once every ``gossip_stride`` gossiped tuples per
      shard, modelling a batched background digest.  ``gossip_stride=0``
      gossips without billing (free-coordination ablation; routing is
      unchanged because billing never feeds back into decisions).
    - **sync-reply snooping** (``snoop``) — when a completed sync round
      folds into shard ``j``, the freshly re-baselined global
      ``C_hat[op]`` values are published to every sibling whose
      ``generation`` tag for ``op`` matches (a sibling that has not yet
      observed a crash-restart keeps its own baseline).  Piggy-backed on
      the existing reply traffic: zero extra messages, 64 bits billed
      per published value per sibling.
    """

    gossip: bool = True
    #: bill one 64-bit digest per shard edge every N gossiped tuples
    #: per shard; 0 disables billing (never affects routing)
    gossip_stride: int = integer(16, low=0)
    snoop: bool = True

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class POSGConfig:
    """Configuration shared by the POSG scheduler and operator instances.

    Parameters
    ----------
    epsilon:
        Count-Min precision parameter; controls the number of columns
        ``c = ceil(e / epsilon)`` unless ``cols`` is given.
    delta:
        Count-Min failure probability; controls the number of rows
        ``r = ceil(ln 1/delta)`` unless ``rows`` is given.
    window_size:
        ``N`` — number of executed tuples between FSM checks on each
        operator instance (Figure 2).
    mu:
        Stability tolerance on the snapshot relative error (Eq. 1).
    rows, cols:
        Explicit sketch dimensions overriding the analytic sizing.
    merge_matrices:
        How the scheduler treats a newly received ``(F, W)`` pair
        (Figure 3.F says it "updates" its local pair, which is ambiguous
        because the instance *resets* its matrices after shipping):
        ``False`` (default) replaces the stored pair — maximum
        adaptivity, matching the recovery behaviour of Figure 10;
        ``True`` merges the new counters into the stored pair (Count-Min
        sketches are linear), accumulating samples and sharpening
        estimates over time at the cost of slower adaptation.
    pooled_estimates:
        Beyond-paper variance-reduction ablation: estimate a tuple's
        execution time by averaging over *every* instance's matrices
        instead of only the target's.  For uniform instances this removes
        the cross-instance estimate variance that makes the greedy
        scheduler systematically favour under-estimating instances
        (adverse selection); for heterogeneous instances it biases the
        estimate toward the fleet average, so it is off by default.
    recovery:
        Optional :class:`RecoveryConfig` arming the scheduler's
        fault-tolerance defenses (sync-round retransmission, staleness
        watchdog).  ``None`` (default) keeps the paper's fault-free
        protocol bit for bit.
    coordination:
        Optional :class:`CoordinationConfig` arming cross-shard
        coordination under multi-source scheduling (delta gossip and
        sync-reply snooping).  ``None`` (default)
        keeps sharded runs bit-identical to the uncoordinated protocol.
    """

    epsilon: float = real(0.05, low=0, high=1, open_low=True)
    delta: float = real(0.1, low=0, high=1, open_low=True, open_high=True)
    window_size: int = integer(1024, low=1)
    mu: float = real(0.05, low=0)
    rows: int | None = integer(None, low=1, optional=True)
    cols: int | None = integer(None, low=1, optional=True)
    merge_matrices: bool = False
    pooled_estimates: bool = False
    recovery: RecoveryConfig | None = None
    coordination: CoordinationConfig | None = None

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def sketch_shape(self) -> tuple[int, int]:
        """Effective ``(rows, cols)`` of the F and W matrices."""
        auto_rows, auto_cols = dims_for(self.epsilon, self.delta)
        return (
            self.rows if self.rows is not None else auto_rows,
            self.cols if self.cols is not None else auto_cols,
        )

    @classmethod
    def paper_defaults(cls) -> "POSGConfig":
        """The exact configuration of Section V-A: N=1024, mu=0.05, r=4, c=54."""
        return cls(epsilon=0.05, delta=0.1, window_size=1024, mu=0.05, rows=4, cols=54)

    def memory_bits(self, stream_length: int, universe_size: int) -> int:
        """Rough per-instance memory footprint in bits (Theorem 3.2).

        Two ``r x c`` matrices of counters of ``log2(m)`` bits plus the hash
        function domain of ``log2(n)`` bits per row.
        """
        rows, cols = self.sketch_shape
        counter_bits = max(1, math.ceil(math.log2(max(2, stream_length))))
        domain_bits = max(1, math.ceil(math.log2(max(2, universe_size))))
        return 2 * rows * cols * counter_bits + rows * domain_bits
