"""Bit-identity of the process pool.

The acceptance contract of ``repro.simulator.parallel``: for fixed
seeds, :func:`simulate_stream_parallel` produces the *exact* run the
sequential per-tuple reference engine (``chunk_size=0``) produces —
completions, assignments, FSM transitions and control traffic — across
every worker count and shard count.  Workers perform no random draws,
so the worker count can never change a result; these tests sweep it
anyway to catch layout/merge bugs that only appear when shards split
across processes.

Reference results are computed once per shard count (module-scoped
cache): the sequential runs dominate the runtime.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.config import CoordinationConfig, POSGConfig, RecoveryConfig
from repro.core.grouping import POSGGrouping
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.simulator import parallel
from repro.simulator.parallel import ShardArena, simulate_stream_parallel
from repro.simulator.run import simulate_stream
from repro.workloads.synthetic import default_stream

M = 8_000
K = 5


def config(**keywords):
    return POSGConfig(window_size=128, **keywords)


def run_reference(sources):
    return simulate_stream(
        default_stream(seed=0, m=M),
        MultiSourcePOSGGrouping(sources, config()),
        k=K,
        rng=np.random.default_rng(1),
        chunk_size=0,
    )


def run_parallel(sources, workers, **kwargs):
    return simulate_stream_parallel(
        default_stream(seed=0, m=M),
        MultiSourcePOSGGrouping(sources, config()),
        workers=workers,
        k=K,
        rng=np.random.default_rng(1),
        **kwargs,
    )


@pytest.fixture(scope="module")
def reference():
    cache = {}

    def get(sources):
        if sources not in cache:
            cache[sources] = run_reference(sources)
        return cache[sources]

    return get


def assert_run_identical(a, b):
    np.testing.assert_array_equal(a.stats.completions, b.stats.completions)
    np.testing.assert_array_equal(a.stats.assignments, b.stats.assignments)
    assert a.state_transitions == b.state_transitions
    assert a.control_messages == b.control_messages
    assert a.control_bits == b.control_bits


class TestBitIdentity:
    @pytest.mark.parametrize("sources", [1, 2, 4, 8])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_reference(self, reference, sources, workers):
        parallel = run_parallel(sources, workers)
        assert_run_identical(reference(sources), parallel)

    def test_chunk_size_sweep(self, reference):
        for chunk in (64, 1000, 4096):
            parallel = run_parallel(4, 2, chunk_size=chunk)
            assert_run_identical(reference(4), parallel)

    def test_spawn_start_method_matches(self, reference):
        parallel = run_parallel(2, 2, start_method="spawn")
        assert_run_identical(reference(2), parallel)
        assert parallel.parallel["start_method"] == "spawn"


class TestRunAccounting:
    def test_parallel_info_shape(self):
        result = run_parallel(4, 2)
        info = result.parallel
        assert info["workers"] == 2
        assert info["worker_shards"] == [[0, 2], [1, 3]]
        assert info["segments"] > 0
        # every shard spends exactly K tuples per SEND_ALL round
        assert info["fallback_tuples"] % K == 0
        assert info["discarded_speculative_tuples"] >= 0

    def test_workers_clamped_to_sources(self):
        result = run_parallel(2, 8)
        assert result.parallel["workers"] == 2


class TestValidation:
    def test_rejects_non_multisource_policy(self):
        with pytest.raises(TypeError, match="MultiSourcePOSGGrouping"):
            simulate_stream_parallel(
                default_stream(seed=0, m=256), POSGGrouping(config()), workers=1, k=K
            )

    def test_rejects_per_tuple_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_parallel(2, 2, chunk_size=0)

    def test_rejects_recovery_config(self):
        policy = MultiSourcePOSGGrouping(2, config(recovery=RecoveryConfig()))
        with pytest.raises(ValueError, match="recovery"):
            simulate_stream_parallel(
                default_stream(seed=0, m=256), policy, workers=1, k=K
            )

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_parallel(2, 0)

    @pytest.mark.parametrize(
        "keyword",
        ["scenario", "data_latency", "faults", "audit", "flight", "telemetry"],
    )
    def test_sequential_only_keywords_are_not_parameters(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            run_parallel(2, 1, **{keyword: None})


class TestRefusesBeforeAnyStateMoves:
    """A refused policy leaves the caller's generator where it was, the
    policy un-set-up, and starts no process and no arena."""

    REFUSED = {
        "recovery": lambda: MultiSourcePOSGGrouping(
            2, config(recovery=RecoveryConfig())
        ),
        "coordination": lambda: MultiSourcePOSGGrouping(
            2, config(coordination=CoordinationConfig())
        ),
    }

    @pytest.mark.parametrize("what", sorted(REFUSED))
    def test_refusal_moves_nothing(self, what, monkeypatch):
        arenas = []

        class RecordingArena(ShardArena):
            def __init__(self, *args, **kwargs):
                arenas.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ShardArena", RecordingArena)
        policy = self.REFUSED[what]()
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=what):
            simulate_stream_parallel(
                default_stream(seed=0, m=256), policy, workers=2, k=K, rng=rng
            )
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k
        assert multiprocessing.active_children() == []
        assert arenas == []


class TestShardArenaLayout:
    def test_views_are_disjoint_and_attachable(self):
        arena = ShardArena(sources=3, k=5, rows=4, cols=54, m=100, cap=50)
        try:
            arena.items[:] = np.arange(100)
            arena.freq[2][4][:] = 7.0
            arena.work[0][0][:] = 3.0
            arena.c_hat[1][:] = np.arange(5)
            arena.out_est[2][:] = 1.5
            attached = ShardArena(
                3, 5, 4, 54, 100, 50, name=arena.name
            )
            try:
                np.testing.assert_array_equal(
                    attached.items, np.arange(100)
                )
                assert float(attached.freq[2][4][0, 0]) == 7.0
                # regions must not alias: freq write didn't leak anywhere
                assert float(attached.work[2][4][0, 0]) == 0.0
                assert float(attached.work[0][0][-1, -1]) == 3.0
                np.testing.assert_array_equal(
                    attached.c_hat[1], np.arange(5)
                )
                assert float(attached.out_est[2][-1]) == 1.5
            finally:
                attached.close()
        finally:
            arena.close()
            arena.unlink()
