"""Tests for the fast single-stage simulation."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    KeyGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.core.scheduler import SchedulerState
from repro.simulator.parallel import simulate_stream_parallel
from repro.simulator.run import simulate_stream
from repro.simulator.topology import StageTopology
from repro.workloads.distributions import UniformItems, ZipfItems
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import (
    Stream,
    StreamSpec,
    default_stream,
    generate_stream,
)


def small_stream(seed=0, m=2048, n=256, k=5, **overrides):
    spec = StreamSpec(m=m, n=n, k=k, **overrides)
    return generate_stream(ZipfItems(n, 1.0), spec, np.random.default_rng(seed))


def tiny_config():
    return POSGConfig(window_size=64, rows=2, cols=16)


class TestRoundRobinBaseline:
    def test_assignments_cycle(self):
        stream = small_stream(m=10, k=2)
        result = simulate_stream(stream, RoundRobinGrouping(), k=2)
        np.testing.assert_array_equal(result.stats.assignments % 2,
                                      np.arange(10) % 2)

    def test_section_ii_example(self):
        """The a0,b1,a2 example: RR wastes 8s of queuing delay."""
        stream = Stream(
            items=np.array([0, 1, 0]),
            base_times=np.array([10.0, 1.0, 10.0]),
            arrivals=np.array([0.0, 1.0, 2.0]),
            n=2,
            time_table=np.array([10.0, 1.0]),
        )
        result = simulate_stream(stream, RoundRobinGrouping(), k=2)
        assert result.stats.total_completion_time == pytest.approx(29.0)

    def test_full_knowledge_beats_rr_on_example(self):
        stream = Stream(
            items=np.array([0, 1, 0]),
            base_times=np.array([10.0, 1.0, 10.0]),
            arrivals=np.array([0.0, 1.0, 2.0]),
            n=2,
            time_table=np.array([10.0, 1.0]),
        )
        result = simulate_stream(
            stream, lambda oracle: FullKnowledgeGrouping(oracle), k=2
        )
        assert result.stats.total_completion_time == pytest.approx(21.0)


class TestInvariants:
    def test_completions_at_least_execution_time(self):
        stream = small_stream()
        result = simulate_stream(stream, RoundRobinGrouping(), k=5)
        assert np.all(result.stats.completions >= stream.base_times - 1e-9)

    def test_fifo_per_instance(self):
        """Tuples on the same instance finish in assignment order."""
        stream = small_stream(m=500)
        result = simulate_stream(stream, RoundRobinGrouping(), k=3)
        finish = stream.arrivals + result.stats.completions
        for instance in range(3):
            mask = result.stats.assignments == instance
            assert np.all(np.diff(finish[mask]) >= -1e-9)

    def test_data_latency_adds_to_completion(self):
        stream = small_stream(m=200, over_provisioning=5.0)
        base = simulate_stream(stream, RoundRobinGrouping(), k=5)
        delayed = simulate_stream(
            stream, RoundRobinGrouping(), k=5, data_latency=3.0
        )
        # With a heavily over-provisioned system there is no queuing, so
        # the 3ms network hop shifts every completion by exactly 3ms.
        np.testing.assert_allclose(
            delayed.stats.completions, base.stats.completions + 3.0
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            simulate_stream(small_stream(), RoundRobinGrouping(), k=0)

    def test_rejects_short_scenario(self):
        with pytest.raises(ValueError):
            simulate_stream(
                small_stream(), RoundRobinGrouping(), k=5,
                scenario=LoadShiftScenario.constant(2),
            )

    def test_heterogeneous_instances_slow_down(self):
        stream = small_stream(m=1000)
        uniform = simulate_stream(stream, RoundRobinGrouping(), k=5)
        slowed = simulate_stream(
            stream, RoundRobinGrouping(), k=5,
            scenario=LoadShiftScenario.constant(5, (2.0, 2.0, 2.0, 2.0, 2.0)),
        )
        assert (
            slowed.stats.average_completion_time
            > uniform.stats.average_completion_time
        )


class TestPOSGLifecycle:
    def test_posg_reaches_run_state(self):
        stream = small_stream(m=4096)
        policy = POSGGrouping(tiny_config())
        result = simulate_stream(
            stream, policy, k=5, rng=np.random.default_rng(1)
        )
        assert policy.state is SchedulerState.RUN
        assert result.run_entry_index() is not None
        assert policy.scheduler.sync_rounds_completed >= 1

    def test_state_transitions_ordered(self):
        stream = small_stream(m=4096)
        policy = POSGGrouping(tiny_config())
        result = simulate_stream(stream, policy, k=5, rng=np.random.default_rng(1))
        indices = [index for index, _ in result.state_transitions]
        assert indices == sorted(indices)
        states = [state for _, state in result.state_transitions]
        assert states[0] is SchedulerState.SEND_ALL

    def test_control_messages_counted(self):
        stream = small_stream(m=4096)
        policy = POSGGrouping(tiny_config())
        result = simulate_stream(stream, policy, k=5, rng=np.random.default_rng(1))
        assert result.control_messages > 0
        assert result.control_bits > 0

    def test_rr_has_no_control_traffic(self):
        result = simulate_stream(small_stream(m=256), RoundRobinGrouping(), k=5)
        assert result.control_messages == 0
        assert result.state_transitions == []

    def test_posg_beats_rr_on_skewed_stream(self):
        """The headline claim, on one seeded stream."""
        stream = small_stream(seed=3, m=8192)
        rr = simulate_stream(stream, RoundRobinGrouping(), k=5)
        posg = simulate_stream(
            stream, POSGGrouping(POSGConfig(window_size=256)), k=5,
            rng=np.random.default_rng(2),
        )
        assert posg.stats.speedup_over(rr.stats) > 1.0

    def test_full_knowledge_at_least_as_good_as_posg(self):
        stream = small_stream(seed=4, m=8192)
        posg = simulate_stream(
            stream, POSGGrouping(POSGConfig(window_size=256)), k=5,
            rng=np.random.default_rng(2),
        )
        fk = simulate_stream(
            stream, lambda oracle: FullKnowledgeGrouping(oracle), k=5
        )
        # allow 5% tolerance: FK is a greedy heuristic, not the optimum
        assert (
            fk.stats.average_completion_time
            <= posg.stats.average_completion_time * 1.05
        )


class TestLatencyModels:
    def test_constant_latency_validation(self):
        with pytest.raises(ValueError, match="^data_latency must be >= 0"):
            simulate_stream(
                small_stream(m=64), RoundRobinGrouping(), k=5, data_latency=-1.0
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: StageTopology(3, RoundRobinGrouping(), data_latency=bad),
        ],
        ids=["constant"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_are_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    @pytest.mark.parametrize(
        "keywords",
        [
            {"data_latency": float("nan")},
            {"data_latency": float("inf")},
            {"data_latency": [0.0, float("nan"), 0.0, 0.0, 0.0]},
            {"control_latency": float("nan")},
            {"control_latency": float("inf")},
        ],
        ids=["data-nan", "data-inf", "data-list", "control-nan", "control-inf"],
    )
    @pytest.mark.parametrize("chunk_size", [0, 2048])
    def test_non_finite_latency_is_rejected_before_the_run(
        self, keywords, chunk_size
    ):
        """Not after every tuple ran, as a complaint about completions."""
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = POSGGrouping(tiny_config())
        with pytest.raises(ValueError, match="finite"):
            simulate_stream(
                small_stream(m=64), policy, k=5, rng=rng,
                chunk_size=chunk_size, **keywords,
            )
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k

    @pytest.mark.parametrize(
        "keywords",
        [
            {"data_latency": True},
            {"data_latency": "1"},
            {"data_latency": np.full(5, 1.0)},
            {"data_latency": [0.0, False, 0.0, 0.0, 0.0]},
            {"control_latency": True},
            {"control_latency": "1"},
        ],
        ids=[
            "data-bool", "data-str", "data-array", "data-list-bool",
            "control-bool", "control-str",
        ],
    )
    @pytest.mark.parametrize(
        "entry", ["reference", "chunked", "topology"]
    )
    def test_non_real_latency_is_rejected_before_the_run(self, keywords, entry):
        """A bool, a string or an array is refused with a ``TypeError``
        naming the argument, not converted through ``float()`` (``True``
        ran as 1 ms), before ``policy.setup`` draws from ``rng``."""
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = MultiSourcePOSGGrouping(1, tiny_config())
        stream = small_stream(m=64)
        name = next(iter(keywords))
        with pytest.raises(TypeError, match=rf"^{name}(\[1\])? must be a real number"):
            if entry == "topology":
                StageTopology(5, policy, rng=rng, **keywords).run(stream)
            else:
                simulate_stream(
                    stream, policy, k=5, rng=rng,
                    chunk_size=0 if entry == "reference" else 512, **keywords,
                )
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k

    @pytest.mark.parametrize(
        "chunk_size", [2.5, np.float64(512.0)], ids=["float", "numpy-float"]
    )
    def test_non_integer_chunk_size_is_rejected_before_the_run(self, chunk_size):
        """Before ``policy.setup`` draws from the caller's ``rng``, not
        somewhere inside the loops that slice with it."""
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = POSGGrouping(tiny_config())
        with pytest.raises(TypeError):
            simulate_stream(
                small_stream(m=64), policy, k=5, rng=rng, chunk_size=chunk_size
            )
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k

    @pytest.mark.parametrize("chunk_size", [0, 512], ids=["reference", "chunked"])
    def test_non_integer_sample_queues_every_is_rejected_before_the_run(
        self, chunk_size
    ):
        """Both engines refuse ``sample_queues_every=100.5`` up front: left
        to the loops, the reference engine sampled every 201st arrival
        and the chunked one every 100th."""
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = POSGGrouping(tiny_config())
        with pytest.raises(TypeError, match="^sample_queues_every must be an integer"):
            simulate_stream(
                small_stream(m=64), policy, k=5, rng=rng, chunk_size=chunk_size,
                sample_queues_every=100.5,
            )
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("chunk_size", 2.5),
            ("chunk_size", np.float64(512.0)),
            ("workers", 1.5),
        ],
        ids=["chunk-float", "chunk-numpy-float", "workers-float"],
    )
    def test_parallel_engine_rejects_non_integers_before_the_run(
        self, argument, value
    ):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = MultiSourcePOSGGrouping(1, tiny_config())
        with pytest.raises(TypeError, match=f"^{argument} must be an integer"):
            simulate_stream_parallel(
                small_stream(m=64), policy, k=5, rng=rng,
                **{"workers": 1, argument: value},
            )
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k

    def test_numpy_integer_sample_queues_every_samples_alike_on_both_engines(self):
        stream = small_stream(m=512)
        samples = [
            simulate_stream(
                stream, POSGGrouping(tiny_config()), k=5, chunk_size=chunk_size,
                rng=np.random.default_rng(3), sample_queues_every=np.int64(100),
            ).queue_samples
            for chunk_size in (0, 512)
        ]
        assert len(samples[0]) == 6
        assert np.array_equal(samples[0], samples[1])

    @pytest.mark.parametrize(
        "k", [2.5, np.float64(5.0), "5"], ids=["float", "numpy-float", "str"]
    )
    def test_non_integer_k_is_rejected_before_the_run(self, k):
        """``k`` is normalised beside ``chunk_size``: a ``TypeError`` that
        names it, before ``policy.setup`` draws from the caller's ``rng``."""
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        policy = POSGGrouping(tiny_config())
        with pytest.raises(TypeError, match="^k must be an integer"):
            simulate_stream(small_stream(m=64), policy, k=k, rng=rng)
        assert rng.bit_generator.state == before
        with pytest.raises(RuntimeError, match="not set up"):
            policy.k

    def test_numpy_integer_k_is_a_k(self):
        stream = small_stream(m=256)
        plain, numpy_int = (
            simulate_stream(
                stream, POSGGrouping(tiny_config()), k=k,
                rng=np.random.default_rng(5),
            )
            for k in (5, np.int64(5))
        )
        np.testing.assert_array_equal(
            plain.stats.completions, numpy_int.stats.completions
        )

    def test_numpy_integer_chunk_size_is_a_chunk_size(self):
        stream = small_stream(m=256)
        plain, numpy_int = (
            simulate_stream(
                stream, POSGGrouping(tiny_config()), k=5,
                rng=np.random.default_rng(5), chunk_size=size,
            )
            for size in (64, np.int64(64))
        )
        np.testing.assert_array_equal(
            plain.stats.completions, numpy_int.stats.completions
        )


class TestMemoryPerTuple:
    """The chunked engine keeps the stream in arrays and lists one
    ``chunk_size`` window at a time: what a run allocates per tuple is
    its result buffers (``finishes`` 8 B, ``assignments`` 4 B, the
    returned completions and assignments 8 B each) plus window-sized
    constants.  A whole-stream Python list costs ~32 B per tuple per
    column and four of them once put every loop near 190 B."""

    M = 2**16
    LIMIT = 80  # bytes per tuple; measured 32-45 here, 184-410 before

    @pytest.mark.parametrize(
        "make_policy, path",
        [
            (lambda: POSGGrouping(POSGConfig.paper_defaults()), "segment"),
            (
                lambda: MultiSourcePOSGGrouping(4, POSGConfig.paper_defaults()),
                "segment",
            ),
            (RoundRobinGrouping, "segment"),
            (lambda: FullKnowledgeGrouping, "segment"),
            (KeyGrouping, "generic"),
        ],
        ids=["posg", "posg-s4", "round-robin", "full-knowledge", "generic"],
    )
    def test_no_loop_holds_a_whole_stream_list(self, make_policy, path):
        spec = StreamSpec(m=self.M, k=5)
        stream = generate_stream(
            ZipfItems(spec.n, 1.0), spec, np.random.default_rng(0)
        )
        # the first call fills the process-wide caches (bucket columns,
        # estimate tables); the second is what every later run costs
        simulate_stream(stream, make_policy(), k=5, rng=np.random.default_rng(1))
        tracemalloc.start()
        try:
            result = simulate_stream(
                stream, make_policy(), k=5, rng=np.random.default_rng(1)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.engine["path"] == path
        assert result.engine["window_tuples"] == self.M
        assert peak / self.M <= self.LIMIT


#: sha256 of completions, assignments and state transitions of a run with
#: two slow-node windows on arrival time -- instance 1 x 3.0 over stream
#: indices [4000, 9000) and instance 3 x 0.5 over [7000, 14000), the
#: second opening before the first closes -- recorded under both engines
#: with the slow-node fault kind the fault plan used to have
SLOW_NODE_DIGESTS = (
    "b8f0ddbaefc67274a8f90e5bc13d837d4b028edb618574a2e829e06184f8d835",
    "8741d074394d999367eb09cb3a9e9a6ab91ed0f63b468353408586dc4e517124",
    "8b97607af1d33851bb2d3a602a4d5f99e53cca2ac4347495ab55c6d24dd6cbe2",
)


@pytest.mark.parametrize("chunk_size", [0, 2048])
def test_slow_node_window_is_a_scenario_phase(chunk_size):
    """A slow node is a multiplier phase: the same windows written as
    scenario boundaries reproduce the recorded run bit for bit."""
    ones = (1.0,) * 5
    scenario = LoadShiftScenario(
        phases=(
            ones,
            (1.0, 3.0, 1.0, 1.0, 1.0),
            (1.0, 3.0, 1.0, 0.5, 1.0),
            (1.0, 1.0, 1.0, 0.5, 1.0),
            ones,
        ),
        boundaries=(4_000, 7_000, 9_000, 14_000),
    )
    result = simulate_stream(
        default_stream(seed=0, m=20_000),
        POSGGrouping(POSGConfig(window_size=128, mu=0.3)),
        k=5, scenario=scenario, rng=np.random.default_rng(1),
        chunk_size=chunk_size,
    )
    transitions = [(j, state.name) for j, state in result.state_transitions]
    assert len(transitions) == 91
    assert tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            result.stats.completions.tobytes(),
            result.stats.assignments.tobytes(),
            repr(transitions).encode(),
        )
    ) == SLOW_NODE_DIGESTS
