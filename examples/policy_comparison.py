#!/usr/bin/env python
"""Tournament: the paper's policies, and key grouping, on the same stream.

Compares, on one seeded Zipf-1.0 stream (Section V-A parameters):

- ``key``             — hash-partitioning (key grouping, for contrast);
- ``round_robin``     — the stock baseline (Storm's ASSG);
- ``posg``            — the paper's contribution (sketch estimates);
- ``full_knowledge``  — greedy with exact execution times (upper bound).

Run:  python examples/policy_comparison.py [m] [k]
"""

import sys

import numpy as np

from repro.core import (
    FullKnowledgeGrouping,
    POSGConfig,
    POSGGrouping,
    RoundRobinGrouping,
)
from repro.core.grouping import KeyGrouping
from repro.simulator import simulate_stream
from repro.workloads import StreamSpec, ZipfItems, generate_stream


def main() -> None:
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 32_768
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 5

    stream = generate_stream(
        ZipfItems(4_096, 1.0), StreamSpec(m=m, k=k), np.random.default_rng(42)
    )
    posg_config = POSGConfig(window_size=128, rows=4, cols=54,
                             merge_matrices=True, pooled_estimates=True)
    policies = {
        "key": lambda oracle: KeyGrouping(),
        "round_robin": lambda oracle: RoundRobinGrouping(),
        "posg": lambda oracle: POSGGrouping(posg_config),
        "full_knowledge": lambda oracle: FullKnowledgeGrouping(oracle),
    }

    results = {}
    for name, factory in policies.items():
        results[name] = simulate_stream(
            stream, factory, k=k, rng=np.random.default_rng(7)
        )

    baseline = results["round_robin"].stats
    print(f"{'policy':>15}  {'L (ms)':>9}  {'p99 (ms)':>9}  {'speedup':>8}  "
          f"{'worst/avg inst.':>15}")
    order = sorted(results, key=lambda n: results[n].stats.average_completion_time)
    for name in order:
        stats = results[name].stats
        counts = stats.instance_tuple_counts(k)
        work = np.array([
            stream.base_times[stats.assignments == i].sum() for i in range(k)
        ])
        imbalance = work.max() / work.mean()
        print(f"{name:>15}  {stats.average_completion_time:>9.1f}  "
              f"{stats.percentile(99):>9.1f}  "
              f"{stats.speedup_over(baseline):>8.2f}  {imbalance:>15.3f}")

    print("\nNotes: 'key' pins every item to one instance, so a heavy item "
          "overloads it permanently — the paper's Section VI point that "
          "key-grouping balancers underperform for stateless operators. "
          "'full_knowledge' cheats: it reads the true execution time; "
          "POSG only ever sees its sketches.")


if __name__ == "__main__":
    main()
