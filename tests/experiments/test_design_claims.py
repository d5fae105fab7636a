"""The design choices DESIGN.md §5 ablates and the beyond-paper
extensions, as measured claims: POSG variants against Round-Robin on
the same paired streams (window size N, stability tolerance mu, replace
vs merge, pooled estimates on uniform and heterogeneous fleets, the
Delta sync), then Poisson arrivals and the paper's three-policy
ordering.
"""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.core.grouping import (
    FullKnowledgeGrouping,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.core.messages import SyncReply
from repro.simulator.run import simulate_stream
from repro.workloads.distributions import ZipfItems
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import StreamSpec, generate_stream


class ZeroDeltaPOSG(POSGGrouping):
    """POSG with the Delta resynchronization neutralized: sync replies are
    forced to delta = 0, so the FSM still reaches RUN but C_hat never
    re-aligns with the instances' true cumulated load."""

    def on_control(self, message) -> None:
        if isinstance(message, SyncReply):
            message = SyncReply(
                instance=message.instance, epoch=message.epoch, delta=0.0
            )
        super().on_control(message)


#: (stream seed, POSG seed) of each of the ablations' three paired streams
ABLATION_SEEDS = [(100 + rep, 100 + 31 * rep) for rep in range(3)]


def paired_speedup(config, seeds=ABLATION_SEEDS, spec=StreamSpec(m=32_768, k=5),
                   scenario=None, policy_class=POSGGrouping):
    """Mean speedup of POSG(config) over RR across paired Zipf-1.0
    streams, one per ``(stream seed, POSG seed)`` pair."""
    speedups = []
    for stream_seed, posg_seed in seeds:
        stream = generate_stream(
            ZipfItems(4096, 1.0), spec, np.random.default_rng(stream_seed)
        )
        rr = simulate_stream(stream, RoundRobinGrouping(), k=spec.k,
                             scenario=scenario)
        posg = simulate_stream(
            stream, policy_class(config), k=spec.k, scenario=scenario,
            rng=np.random.default_rng(posg_seed),
        )
        speedups.append(
            rr.stats.total_completion_time / posg.stats.total_completion_time
        )
    return float(np.mean(speedups))


class TestAblations:
    def test_window_size(self):
        """Small windows bootstrap fast and sync often; N = 1024 leaves
        most of a 32k stream in the Round-Robin phase."""
        by_window = {
            n: paired_speedup(
                POSGConfig(window_size=n, rows=4, cols=54, merge_matrices=True)
            )
            for n in (128, 256, 512, 1024)
        }
        best = max(by_window, key=by_window.get)
        assert best <= 512, "small windows must win at m = 32,768"
        assert by_window[256] > by_window[1024]

    def test_stability_tolerance(self):
        """The snapshot tolerance mu gates matrix shipping (Eq. 1): a
        strict mu delays the first shipment (long Round-Robin phase), a
        loose one ships matrices eagerly.

        Measured finding (recorded in EXPERIMENTS.md): at m = 32,768 the
        stability gate is a net cost — eager shipping (mu = 1.0, i.e.
        send after every second window) clearly beats the paper's
        mu = 0.05, and an ultra-strict mu = 0.005 never ships at all
        (speedup 1.0).  The gate's value is avoiding *noisy* matrices,
        which only matters on streams long enough that a bad shipment
        lingers."""
        by_mu = {
            mu: paired_speedup(
                POSGConfig(window_size=256, rows=4, cols=54, mu=mu,
                           merge_matrices=True, pooled_estimates=True)
            )
            for mu in (0.005, 0.05, 0.2, 1.0)
        }
        # stricter tolerances ship later: speedup is monotone in mu here
        assert by_mu[0.005] <= by_mu[0.05] + 0.05
        assert by_mu[0.05] <= by_mu[1.0] + 0.05
        # an ultra-strict gate starves the scheduler entirely
        assert by_mu[0.005] == pytest.approx(1.0, abs=0.05)

    def test_merge_matrices(self):
        """Merging accumulates samples; it must not lose to replace on a
        stationary stream."""
        replace = paired_speedup(
            POSGConfig(window_size=256, rows=4, cols=54, merge_matrices=False)
        )
        merge = paired_speedup(
            POSGConfig(window_size=256, rows=4, cols=54, merge_matrices=True)
        )
        assert merge >= replace - 0.05

    def test_pooled_estimates(self):
        """Pooling across instances removes cross-instance estimate
        variance; with uniform instances it must be at least
        competitive."""
        per_instance = paired_speedup(
            POSGConfig(window_size=256, rows=4, cols=54, merge_matrices=True)
        )
        pooled = paired_speedup(
            POSGConfig(window_size=256, rows=4, cols=54, merge_matrices=True,
                       pooled_estimates=True)
        )
        assert pooled >= per_instance - 0.1

    def test_pooled_under_heterogeneity(self):
        """The paper keeps *per-instance* matrices so each instance's own
        execution function g_i is learned (Section II allows g_i to
        differ).  Pooling, which wins on uniform fleets, must lose when
        instances are strongly heterogeneous — validating the paper's
        design choice."""
        scenario = LoadShiftScenario.constant(5, (0.25, 0.5, 1.0, 2.0, 4.0))
        per_instance, pooled = (
            paired_speedup(
                POSGConfig(window_size=256, rows=4, cols=54,
                           merge_matrices=True, pooled_estimates=pooled),
                seeds=[(200 + rep, 300 + rep) for rep in range(3)],
                scenario=scenario,
            )
            for pooled in (False, True)
        )
        assert per_instance > pooled

    def test_synchronization(self):
        """Dropping the Delta resynchronization lets estimate drift
        accumulate; the full protocol must not lose to the ablated one."""
        config = POSGConfig(window_size=256, rows=4, cols=54, merge_matrices=True)
        with_sync = paired_speedup(config)
        without_sync = paired_speedup(config, policy_class=ZeroDeltaPOSG)
        assert with_sync >= without_sync - 0.05


class TestExtensions:
    def test_poisson_arrival_robustness(self):
        """Beyond-paper robustness: the paper's constant-rate source is
        the friendliest arrival process; POSG's gain must survive Poisson
        burstiness (where queues are strictly harder, cf. Kingman)."""
        config = POSGConfig(window_size=128, rows=4, cols=54,
                            merge_matrices=True, pooled_estimates=True)
        by_process = {
            process: paired_speedup(
                config, seeds=[(500 + rep, 600 + rep) for rep in range(3)],
                spec=StreamSpec(m=32_768, k=5, arrival_process=process),
            )
            for process in ("constant", "poisson")
        }
        assert by_process["poisson"] > 1.0
        # burstiness must not erase the gain entirely
        assert by_process["poisson"] > 0.5 * by_process["constant"]

    def test_policy_tournament(self):
        """The paper's ordering (Sec. V) on one skewed stream: Round-Robin,
        then POSG, then Full Knowledge."""
        stream = generate_stream(
            ZipfItems(4096, 1.0), StreamSpec(m=32_768, k=5),
            np.random.default_rng(42),
        )
        config = POSGConfig(window_size=128, rows=4, cols=54,
                            merge_matrices=True, pooled_estimates=True)
        ls = {
            name: simulate_stream(
                stream, policy, k=5, rng=rng
            ).stats.average_completion_time
            for name, policy, rng in [
                ("round_robin", RoundRobinGrouping(), None),
                ("posg", POSGGrouping(config), np.random.default_rng(3)),
                ("full_knowledge", lambda o: FullKnowledgeGrouping(o), None),
            ]
        }
        assert ls["posg"] < ls["round_robin"]
        assert ls["full_knowledge"] < ls["posg"]
