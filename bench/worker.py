"""One workload in one fresh process: set-up only, measurement, or trace.

``python -m bench`` starts this module once per workload and mode, from
the repository root, and reads the JSON object it prints last.  Set-up
time runs from the first statement below to the end of the cold run:
imports, stream generation, policy and plan construction, and the first
call, which fills ``BucketColumnCache`` and other lazy state.
"""

from time import perf_counter

ENTRY = perf_counter()

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPETITIONS = 3


def set_up(name: str, seed: int, smoke: bool):
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro was imported from {repro.__file__}, not this checkout")
    from bench import workloads

    workload = workloads.build(name, seed, smoke)
    start = perf_counter()
    cold = workload.run()
    end = perf_counter()
    return workload, cold, {"setup_s": end - ENTRY, "cold_run_s": end - start}


def measure(workload, cold, seconds: float) -> dict:
    """Check outputs once, then time repetitions for ``seconds`` seconds."""
    problems = workload.check(cold)
    expected = cold.exact()
    walls = []
    failed = 0
    repeats = True
    deadline = perf_counter() + seconds
    while len(walls) < MIN_REPETITIONS or perf_counter() < deadline:
        gc.collect()  # the last repetition's garbage is not this one's cost
        start = perf_counter()
        outcome = workload.run()
        walls.append(perf_counter() - start)
        failed += outcome.failed
        repeats = repeats and outcome.exact() == expected
    if not repeats:
        problems.append("a repetition's exact metrics differ from the cold run's")
    return {
        "walls_s": walls,
        "exact": expected,
        "attempted": workload.m * len(walls),
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload, cold_run_s: float, seconds: float) -> dict:
    """Untraced and traced runs side by side, then the layer replay."""
    from bench import layers
    from bench.spans import SpanRecorder

    recorder = SpanRecorder()
    traced = []

    def traced_run():
        traced.append(layers.traced_run(workload, recorder))

    rounds = max(layers.PAIR_ROUNDS, int(seconds / 4 / cold_run_s))
    walls = layers.alternate(
        {"untraced": workload.run, "traced": traced_run}, rounds, warm_up=False
    )
    outcome, transitions = traced[-1]
    context = layers.Context(
        workload=workload,
        outcome=outcome,
        recorder=recorder,
        untraced_s=statistics.median(walls["untraced"]),
        tracing_overhead_ratio=layers.paired_ratio(walls, "traced", "untraced"),
        cold_run_s=cold_run_s,
        transitions=transitions,
    )
    metrics, reasons = layers.run_probes(context)
    return {
        "metrics": metrics,
        "reasons": reasons,
        "spans": recorder.report()["spans"],
        "attempted": workload.m * rounds,
        "failed": sum(outcome.failed for outcome, _ in traced),
        "problems": workload.check(outcome),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload, cold, record = set_up(args.workload, args.seed, args.smoke)
    record.update(workload=args.workload, seed=args.seed, m=workload.m)
    if args.mode == "measure":
        record.update(measure(workload, cold, args.seconds))
    elif args.mode == "trace":
        record.update(trace(workload, record["cold_run_s"], args.seconds))
    if args.mode != "setup":
        from repro.telemetry.provenance import provenance

        record["provenance"] = provenance(ROOT)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
