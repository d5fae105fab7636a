"""Parallel data-plane throughput: sharded route loops across processes.

Measures :func:`repro.simulator.parallel.simulate_stream_parallel` on the
multi-source configuration (s = 4 shard schedulers, k = 5 instances)
against the sequential chunked engine, sweeping the worker count, and
writes ``BENCH_parallel.json`` at the repo root.  Before timing, every
worker count is checked bit-identical to the sequential run — a fast
parallel engine that drifts from the reference is a bug, not a result.

The ">= 3x sequential at 4 workers" target is **report-only**.  It was
set when sharded runs took the per-tuple loop in-process (~94k t/s);
since the chunked engine routes them through its own segment router
the baseline is ~2.5x faster, and failing the run against it would
blame the workers for the sequential engine's gain.  The sweep prints
in-process against 1/2/4 workers and records whether the old target is
met; the only failure is a bit-identity mismatch.  The embedded
provenance carries ``cpu_count`` and the start method so a 1-core
figure is never mistaken for a 16-core one.

Usage::

    python benchmarks/bench_parallel.py          # full run
    REPRO_REPS=2 REPRO_SCALE=0.1 python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.core.config import POSGConfig
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.simulator.parallel import simulate_stream_parallel
from repro.simulator.run import simulate_stream
from repro.telemetry.provenance import provenance
from repro.workloads.synthetic import default_stream

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_parallel.json"

SOURCES = 4
K = 5
WORKER_SWEEP = (1, 2, 4)
SPEEDUP_TARGET = 3.0


def _policy() -> MultiSourcePOSGGrouping:
    return MultiSourcePOSGGrouping(SOURCES, POSGConfig.paper_defaults())


def _sequential_run(m: int):
    stream = default_stream(seed=0, m=m)
    t0 = time.perf_counter()
    result = simulate_stream(
        stream,
        _policy(),
        k=K,
        rng=np.random.default_rng(1),
        chunk_size=2048,
    )
    return result, m / (time.perf_counter() - t0)


def _parallel_run(m: int, workers: int):
    stream = default_stream(seed=0, m=m)
    t0 = time.perf_counter()
    result = simulate_stream_parallel(
        stream,
        _policy(),
        workers=workers,
        k=K,
        rng=np.random.default_rng(1),
        chunk_size=2048,
    )
    return result, m / (time.perf_counter() - t0)


def _identical(a, b) -> bool:
    return (
        np.array_equal(a.stats.completions, b.stats.completions)
        and np.array_equal(a.stats.assignments, b.stats.assignments)
        and a.state_transitions == b.state_transitions
        and a.control_messages == b.control_messages
        and a.control_bits == b.control_bits
    )


def main() -> int:
    reps = max(1, int(os.environ.get("REPRO_REPS", "5")))
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    m = max(1024, int(131_072 * scale))
    cpu_count = os.cpu_count() or 1

    sequential_result, _ = _sequential_run(m)  # warmup + equivalence anchor
    sequential = max(_sequential_run(m)[1] for _ in range(reps))

    sweep: dict[str, dict] = {}
    failed_identity = []
    for workers in WORKER_SWEEP:
        result, _ = _parallel_run(m, workers)  # warmup + identity check
        if not _identical(sequential_result, result):
            failed_identity.append(workers)
            continue
        rate = max(_parallel_run(m, workers)[1] for _ in range(reps))
        sweep[str(workers)] = {
            "tuples_per_sec": rate,
            "speedup_vs_sequential": rate / sequential,
            "segments": result.parallel["segments"],
            "fallback_tuples": result.parallel["fallback_tuples"],
            "discarded_speculative_tuples": result.parallel[
                "discarded_speculative_tuples"
            ],
        }

    w4 = sweep.get("4", {})
    payload = {
        "schema": "posg-bench-parallel/v1",
        "provenance": provenance(REPO_ROOT, workers=max(WORKER_SWEEP)),
        "config": {
            "m": m,
            "k": K,
            "sources": SOURCES,
            "chunk_size": 2048,
            "reps": reps,
            "scale": scale,
            "worker_sweep": list(WORKER_SWEEP),
        },
        "sequential_tuples_per_sec": sequential,
        "parallel": sweep,
        "speedup_target": SPEEDUP_TARGET,
        "target_met": w4.get("speedup_vs_sequential", 0.0) >= SPEEDUP_TARGET,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"in-process (chunked, s={SOURCES}, path "
        f"{sequential_result.engine['path']}): {sequential:,.0f} t/s"
    )
    for workers, entry in sweep.items():
        print(
            f"parallel w={workers}: {entry['tuples_per_sec']:,.0f} t/s "
            f"({entry['speedup_vs_sequential']:.2f}x in-process)"
        )

    if failed_identity:
        print(
            "FAIL: parallel run diverged from the sequential engine at "
            f"workers={failed_identity}"
        )
        return 1
    print(
        f"{SPEEDUP_TARGET:.1f}x-at-4-workers target (report-only, "
        f"cpu_count={cpu_count}, scale={scale}): "
        + ("met" if payload["target_met"] else "not met")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
