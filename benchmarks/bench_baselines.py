"""Related-work baselines, benchmarked against POSG.

- **Reactive scheduling** (Section III's rejected alternative): periodic
  load reports + stale-state scheduling.  Measured finding: with a fast,
  fresh control plane reactive is competitive; under realistic control
  latency or infrequent reports POSG's proactive estimates win — the
  paper's robustness argument, quantified.
- **Key grouping** (Section VI): hash-based key grouping loses to even
  Round-Robin shuffle grouping when execution time depends on content,
  because a heavy key cannot be split across instances.
"""

import numpy as np

from repro.core.config import POSGConfig
from repro.core.grouping import KeyGrouping, POSGGrouping, RoundRobinGrouping
from repro.core.reactive import ReactiveGrouping
from repro.simulator.run import simulate_stream
from repro.workloads.distributions import ZipfItems
from repro.workloads.synthetic import StreamSpec, generate_stream


POSG_CONFIG = POSGConfig(window_size=64, rows=4, cols=54,
                         merge_matrices=True, pooled_estimates=True)


def run_pair(policy_factory, control_latency=1.0, reps=3, m=16_384, k=4):
    """Mean L of a policy and of RR over paired streams."""
    policy_L, rr_L = [], []
    for seed in range(reps):
        stream = generate_stream(
            ZipfItems(512, 1.2), StreamSpec(m=m, n=512, k=k),
            np.random.default_rng(seed),
        )
        result = simulate_stream(
            stream, policy_factory(), k=k, control_latency=control_latency,
            rng=np.random.default_rng(1),
        )
        rr = simulate_stream(stream, RoundRobinGrouping(), k=k)
        policy_L.append(result.stats.average_completion_time)
        rr_L.append(rr.stats.average_completion_time)
    return float(np.mean(policy_L)), float(np.mean(rr_L))


def test_proactive_vs_reactive(benchmark):
    def run():
        out = {}
        for label, control_latency, interval in [
            ("fresh (1ms, report/64)", 1.0, 64),
            ("stale (200ms, report/256)", 200.0, 256),
        ]:
            reactive_L, _ = run_pair(
                lambda: ReactiveGrouping(report_interval=interval),
                control_latency=control_latency,
            )
            posg_L, _ = run_pair(
                lambda: POSGGrouping(POSG_CONFIG),
                control_latency=control_latency,
            )
            out[label] = (reactive_L, posg_L)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for label, (reactive_L, posg_L) in results.items():
        print(f"{label}: reactive={reactive_L:.0f}ms posg={posg_L:.0f}ms")

    stale_reactive, stale_posg = results["stale (200ms, report/256)"]
    fresh_reactive, _ = results["fresh (1ms, report/64)"]
    # POSG wins once the control plane is realistic
    assert stale_posg < stale_reactive
    # staleness is what hurts reactive (it degrades vs its fresh self)
    assert stale_reactive > fresh_reactive


def test_key_grouping_contrast(benchmark):
    def run():
        key_L, rr_L = run_pair(lambda: KeyGrouping())
        posg_L, _ = run_pair(lambda: POSGGrouping(POSG_CONFIG))
        return {"key": key_L, "round_robin": rr_L, "posg": posg_L}

    ls = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + "  ".join(f"{k}={v:.0f}ms" for k, v in ls.items()))
    # key affinity loses to shuffle grouping here
    assert ls["round_robin"] < ls["key"]
    assert ls["posg"] < ls["round_robin"]
