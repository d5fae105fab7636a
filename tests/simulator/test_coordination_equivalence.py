"""Equivalence sweeps for cross-shard coordination.

Two contracts, both bit-exact:

1. **Coordination off is a no-op.**  A ``POSGConfig`` without a
   ``coordination`` block must reproduce the pre-coordination engines
   byte for byte.  The pinned digests below were captured from the
   repository state *before* the coordination layer landed (same
   stream, seeds and engine parameters), so any accidental drift in
   the refactored hot paths — the scheduler's inlined ``C_hat`` add,
   the batched control drain, the parallel dispatch gate — fails here.

2. **Coordination on is engine-invariant.**  Gossip and snooping are
   defined per tuple; the chunked engine must reproduce the reference
   engine exactly, and stride-0 billing must never change routing.
   The process pool refuses coordination, so it takes part only in the
   coordination-off pins.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import CoordinationConfig, POSGConfig
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.simulator.parallel import simulate_stream_parallel
from repro.simulator.run import simulate_stream
from repro.workloads.synthetic import default_stream

M = 2_048
K = 5
CHUNK = 512

#: sha256 over (assignments int64 bytes, completions float64 bytes,
#: str(control_bits)) of the coordination-free engines at HEAD before
#: this layer landed: default_stream(seed=3, m=2048, n=128),
#: POSGConfig(window_size=64, rows=2, cols=16), k=5, rng seed 7,
#: chunk_size=512 for the chunked/parallel legs.
HEAD_PINS = {
    1: "fc3ec227e7af34a4c904066f58a41c007bd7226e92c069fbb6c2fba42db18a0e",
    2: "5e6f88796802f46931334733075c07ce3a7d8398f36d79305b39d341a2d6b39f",
    4: "9e91a2ed93564e4211163f67fbc5e85f35717712097cddd430598438cdb64923",
    8: "52bfb7134ee06ec6ce7d0facb5abcbad0b4c1d545ffeb1c346e82cd2c3bc6eb1",
}


def digest(result) -> str:
    h = hashlib.sha256()
    h.update(
        np.ascontiguousarray(result.stats.assignments, dtype=np.int64).tobytes()
    )
    h.update(
        np.ascontiguousarray(
            result.stats.completions, dtype=np.float64
        ).tobytes()
    )
    h.update(str(result.control_bits).encode())
    return h.hexdigest()


def make_config(coordination=None):
    return POSGConfig(
        window_size=64, rows=2, cols=16, coordination=coordination
    )


def run(sources, coordination, engine, start_method="fork"):
    stream = default_stream(seed=3, m=M, n=128)
    policy = MultiSourcePOSGGrouping(sources, make_config(coordination))
    rng = np.random.default_rng(7)
    if engine == "reference":
        return simulate_stream(stream, policy, k=K, rng=rng, chunk_size=0)
    if engine == "chunked":
        return simulate_stream(stream, policy, k=K, rng=rng, chunk_size=CHUNK)
    return simulate_stream_parallel(
        stream,
        policy,
        workers=2,
        k=K,
        rng=rng,
        chunk_size=CHUNK,
        start_method=start_method,
    )


class TestCoordinationOffMatchesHead:
    """Property: no coordination block -> byte-identical to HEAD."""

    @pytest.mark.parametrize("sources", [1, 2, 4, 8])
    @pytest.mark.parametrize("engine", ["reference", "chunked", "parallel"])
    def test_engine_matches_pin(self, sources, engine):
        assert digest(run(sources, None, engine)) == HEAD_PINS[sources]

    @pytest.mark.parametrize("sources", [1, 4])
    def test_spawn_matches_pin(self, sources):
        result = run(sources, None, "parallel", start_method="spawn")
        assert digest(result) == HEAD_PINS[sources]


class TestCoordinationOnEngineInvariance:
    """Property: coordination-on runs are bit-identical across engines."""

    @pytest.mark.parametrize(
        "coordination",
        [
            CoordinationConfig(),
            CoordinationConfig(snoop=False),
            CoordinationConfig(gossip=False),
        ],
        ids=["gossip+snoop", "gossip", "snoop"],
    )
    @pytest.mark.parametrize("sources", [2, 8])
    def test_three_engines_agree(self, sources, coordination):
        digests = {
            digest(run(sources, coordination, engine))
            for engine in ("reference", "chunked")
        }
        assert len(digests) == 1

    def test_single_source_gossip_is_inert(self):
        # s=1 has no siblings: gossip/snoop collapse to the pinned HEAD
        # behavior
        result = run(1, CoordinationConfig(), "reference")
        assert digest(result) == HEAD_PINS[1]


class TestBillingNeverRoutes:
    """Property: gossip_stride changes bits, never placement."""

    @pytest.mark.parametrize("sources", [2, 8])
    def test_stride_zero_routing_identical(self, sources):
        billed = run(sources, CoordinationConfig(gossip_stride=16), "chunked")
        unbilled = run(sources, CoordinationConfig(gossip_stride=0), "chunked")
        np.testing.assert_array_equal(
            billed.stats.assignments, unbilled.stats.assignments
        )
        np.testing.assert_array_equal(
            billed.stats.completions, unbilled.stats.completions
        )
        stats_billed = billed.policy.stats()
        stats_unbilled = unbilled.policy.stats()
        assert (
            stats_billed["gossip_updates"] == stats_unbilled["gossip_updates"]
        )
        assert stats_billed["gossip_billed"] > 0
        assert stats_unbilled["gossip_billed"] == 0
        assert (
            stats_billed["control_bits_sent"]
            > stats_unbilled["control_bits_sent"]
        )

    def test_counters_engine_invariant(self):
        coordination = CoordinationConfig()
        keys = ("gossip_updates", "gossip_billed", "snoop_published")
        per_engine = []
        for engine in ("reference", "chunked"):
            stats = run(4, coordination, engine).policy.stats()
            per_engine.append(tuple(stats[key] for key in keys))
        assert per_engine[0] == per_engine[1]
        assert per_engine[0][0] > 0  # gossip actually flowed


class TestGossipFlattensDegradation:
    def test_completion_curve_improves_at_eight_shards(self):
        # The coordination claim at test scale: it recovers most of the
        # sharding penalty.  The full-scale reading (L(8)/L(1) 15.76 ->
        # 0.92) is EXPERIMENTS.md's dated "Sharding, measured once" table.
        mean_off = run(8, None, "chunked").stats.average_completion_time
        mean_on = run(
            8, CoordinationConfig(), "chunked"
        ).stats.average_completion_time
        mean_single = run(1, None, "chunked").stats.average_completion_time
        assert mean_on < mean_off
        # at least half the sharding *excess* (L(8)/L(1) - 1) recovered
        excess_off = mean_off / mean_single - 1.0
        excess_on = mean_on / mean_single - 1.0
        assert excess_on < 0.6 * excess_off
