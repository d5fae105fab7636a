"""Chunked engine vs per-tuple reference: bit-for-bit equivalence.

``simulate_stream(chunk_size=0)`` runs the original per-tuple loop;
any positive chunk size runs the batched data plane.  The two must agree
exactly — same completion times (IEEE-equal), same assignments, same FSM
transitions, same control traffic, same queue samples — because the
chunked engine only reorders bookkeeping, never arithmetic.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.config import CoordinationConfig, POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.core.messages import MatricesMessage
from repro.core.scheduler import SchedulerState
from repro.simulator.network import UniformLatency
from repro.simulator.run import simulate_stream
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import default_stream

M = 12_000


def run_both(policy_factory, **kwargs):
    results = []
    for chunk in (0, 1024):
        kw = dict(kwargs)
        if "latency_factory" in kw:
            kw["data_latency"] = kw.pop("latency_factory")()
        stream = default_stream(seed=0, m=M)
        results.append(
            simulate_stream(
                stream,
                policy_factory(),
                k=5,
                rng=np.random.default_rng(1),
                sample_queues_every=500,
                chunk_size=chunk,
                **kw,
            )
        )
    return results


def assert_identical(reference, chunked):
    np.testing.assert_array_equal(
        reference.stats.completions, chunked.stats.completions
    )
    np.testing.assert_array_equal(
        reference.stats.assignments, chunked.stats.assignments
    )
    assert reference.state_transitions == chunked.state_transitions
    assert reference.control_messages == chunked.control_messages
    assert reference.control_bits == chunked.control_bits
    np.testing.assert_array_equal(
        reference.queue_sample_indices, chunked.queue_sample_indices
    )
    np.testing.assert_array_equal(
        reference.queue_samples, chunked.queue_samples
    )


class TestPOSGEquivalence:
    def test_load_shift_scenario(self):
        """The issue's canonical case: POSG on the Figure 10 load shift.

        A small FSM window makes the scheduler cycle through its full
        state machine (matrices, SEND_ALL syncs, RUN) well within the
        shortened stream."""
        ref, chunked = run_both(
            lambda: POSGGrouping(POSGConfig(window_size=256)),
            scenario=LoadShiftScenario.paper_figure10(M),
        )
        assert_identical(ref, chunked)
        # the run must actually exercise the adaptive path
        assert ref.state_transitions
        assert ref.control_messages > 0

    def test_paper_defaults_config(self):
        ref, chunked = run_both(
            lambda: POSGGrouping(POSGConfig.paper_defaults())
        )
        assert_identical(ref, chunked)

    def test_per_instance_constant_latency(self):
        ref, chunked = run_both(
            lambda: POSGGrouping(),
            data_latency=[0.0, 0.05, 0.1, 0.15, 0.2],
        )
        assert_identical(ref, chunked)

    def test_random_latency_model(self):
        """Fresh latency models per run (same seed) — the chunked engine
        must consume the latency RNG in the same per-instance order."""
        ref, chunked = run_both(
            lambda: POSGGrouping(),
            latency_factory=lambda: UniformLatency(
                0.0, 0.2, rng=np.random.default_rng(7)
            ),
        )
        assert_identical(ref, chunked)

    def test_latency_hints(self):
        ref, chunked = run_both(
            lambda: POSGGrouping(latency_hints=[0.0, 0.05, 0.1, 0.15, 0.2])
        )
        assert_identical(ref, chunked)

    def test_chunk_size_invariance(self):
        """Different chunk sizes all reproduce the reference exactly."""
        outputs = []
        for chunk in (0, 64, 1000, 4096):
            stream = default_stream(seed=0, m=M)
            outputs.append(
                simulate_stream(
                    stream,
                    POSGGrouping(),
                    k=5,
                    rng=np.random.default_rng(1),
                    sample_queues_every=500,
                    chunk_size=chunk,
                )
            )
        for other in outputs[1:]:
            assert_identical(outputs[0], other)


class TestRelabelledIds:
    """Ids are labels: ``items -> -items - 1`` (all negative, so every
    block takes the untabled gather) must leave the two engines agreeing,
    which they did not while the bulk hash wrapped signed ids."""

    @pytest.mark.parametrize("pooled", [False, True])
    def test_negative_ids_reference_equals_chunked(self, pooled):
        stream = default_stream(seed=0, m=M)
        relabelled = dataclasses.replace(stream, items=-stream.items - 1)
        config = POSGConfig(window_size=256, pooled_estimates=pooled)
        results = [
            simulate_stream(
                relabelled, POSGGrouping(config), k=5,
                rng=np.random.default_rng(1), sample_queues_every=500,
                chunk_size=chunk,
            )
            for chunk in (0, 1024)
        ]
        assert_identical(*results)
        engine = results[1].engine
        assert results[1].run_entry_index() is not None
        # nothing is tabled, so every requested estimate is evaluated
        assert engine["estimate_evaluations"] == engine["estimate_requests"] > 0


class TestBaselineEquivalence:
    def test_round_robin(self):
        ref, chunked = run_both(lambda: RoundRobinGrouping())
        assert_identical(ref, chunked)

    def test_full_knowledge(self):
        ref, chunked = run_both(lambda: FullKnowledgeGrouping)
        assert_identical(ref, chunked)


class TestBlockRouterEquivalence:
    def test_block_routing_matches_submit(self):
        """A pre-gathered block routes the same instance sequence as
        per-tuple ``submit`` from the same scheduler state."""
        stream = default_stream(seed=0, m=M)
        policy = POSGGrouping()
        simulate_stream(
            stream, policy, k=5, rng=np.random.default_rng(1)
        )
        scheduler = policy.scheduler
        items = np.arange(0, 200, dtype=np.int64)
        per_tuple = copy.deepcopy(scheduler)
        blocked = copy.deepcopy(scheduler)
        expected = [per_tuple.submit(int(item)).instance for item in items]
        block = blocked.begin_block(items)
        got = [block.route_next() for _ in items]
        block.commit()
        assert got == expected
        np.testing.assert_array_equal(blocked.c_hat, per_tuple.c_hat)

    @staticmethod
    def greedy_scheduler(coordination=None):
        """A scheduler warmed past ROUND_ROBIN and out of SEND_ALL."""
        policy = POSGGrouping(
            POSGConfig(
                window_size=64, rows=2, cols=16, coordination=coordination
            )
        )
        simulate_stream(
            default_stream(seed=0, m=4_096, n=64), policy, k=5,
            rng=np.random.default_rng(1),
        )
        scheduler = policy.scheduler
        while scheduler.state is SchedulerState.SEND_ALL:
            scheduler.submit(0)
        assert scheduler.state is not SchedulerState.ROUND_ROBIN
        return scheduler

    def test_block_replays_the_two_choices_probe(self):
        per_tuple = self.greedy_scheduler(CoordinationConfig(two_choices=True))
        blocked = copy.deepcopy(per_tuple)
        items = np.arange(0, 256, dtype=np.int64) % 64
        expected = [per_tuple.submit(int(item)).instance for item in items]
        block = blocked.begin_block(items)
        assert [block.route_next() for _ in items] == expected
        block.commit()
        np.testing.assert_array_equal(blocked.c_hat, per_tuple.c_hat)
        assert blocked.tuples_scheduled == per_tuple.tuples_scheduled

    def test_resumed_block_keeps_columns_until_matrices_version_moves(self):
        per_tuple = self.greedy_scheduler()
        blocked = copy.deepcopy(per_tuple)
        items = np.arange(0, 96, dtype=np.int64) % 64

        def both(action):
            action(per_tuple)
            action(blocked)

        def route_both(lo, hi):
            got = [block.route_next() for _ in range(lo, hi)]
            block.commit()
            assert got == [
                per_tuple.submit(int(item)).instance for item in items[lo:hi]
            ]
            np.testing.assert_array_equal(blocked.c_hat, per_tuple.c_hat)
            assert blocked.tuples_scheduled == per_tuple.tuples_scheduled

        block = blocked.begin_block(items)
        columns, gathers = block._estimates, blocked._table.gathers
        route_both(0, 32)
        # a snooped fold rewrites C_hat but no matrix: same columns
        both(lambda scheduler: scheduler._c_hat.__setitem__(2, 1e6))
        block.resume()
        assert block._estimates is columns
        assert blocked._table.gathers == gathers
        route_both(32, 64)
        # a matrices delivery moves the version: SEND_ALL runs per tuple
        # (on tuples outside the block), then the block gathers afresh
        fresh = blocked._matrices[0].copy()
        fresh.scale(3.0)
        both(
            lambda scheduler: scheduler.on_message(
                MatricesMessage(0, fresh.copy(), tuples_observed=64)
            )
        )
        assert blocked.matrices_version == per_tuple.matrices_version
        assert blocked.begin_block(items) is None
        while blocked.state is SchedulerState.SEND_ALL:
            both(lambda scheduler: scheduler.submit(7))
        block.resume()
        assert block._estimates is not columns
        assert blocked._table.gathers == gathers + 1
        route_both(64, 96)
