"""``python -m bench``: the pinned benchmark's one command.

Without ``--workload`` it runs every workload of ``BENCHMARK.json``, each
in fresh worker processes, one after another, single-threaded: an
untraced measurement (end-to-end metrics), then a traced run (per-layer
metrics).  It prints every metric by name with its unit, checks outputs,
and exits non-zero if a check fails.

With ``--workload NAME`` it runs that one workload and prints, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics under ``--trace 0``, the per-layer metrics under
``--trace 1``, both when ``--trace`` is left out.

``--aa N`` runs N untraced sets of every workload on one seed and prints
each end-to-end metric's spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}
#: simulated results: they repeat bit for bit under one seed
EXACT = ("avg_completion_ms", "p99_completion_ms", "control_bits_per_tuple", "failed_share")
#: the workloads that leave ``_run_posg`` for ``_run_generic``
CLIFF = ("sharded_s4", "coordinated_s4", "faulted_recovery", "observed_s4")
#: fresh processes that set up per measurement
SETUPS = 3
WORKER_TIMEOUT_S = 170


def worker(mode: str, args, workload: str) -> dict:
    """Run one worker process to its end and return the record it printed."""
    command = [
        sys.executable, "-m", "bench.worker", "--mode", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.smoke:
        command.append("--smoke")
    # keeps the provenance stamp's ``git rev-parse`` inside this checkout
    environment = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(
        command, cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench worker failed ({mode}, {workload}): exit {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    """Median, interquartile range and count of a timing series, and the
    median of its fastest half.

    Other tenants of the box only ever add time, in bursts that last
    seconds: over ten runs the plain median of the repetitions spread by
    9-16% where the median of the fastest half spread by 5-7%, so the
    end-to-end metrics are computed from the latter.
    """
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "iqr": quartiles[2] - quartiles[0],
        "n": len(values),
        "fastest_half_median": statistics.median(
            sorted(values)[: (len(values) + 1) // 2]
        ),
    }


def measure(args, workload: str) -> dict:
    """The untraced measurement: end-to-end metrics of one workload."""
    record = worker("measure", args, workload)
    setups = [record["setup_s"]] + [
        worker("setup", args, workload)["setup_s"] for _ in range(SETUPS - 1)
    ]
    timing = {"wall_s": summary(record["walls_s"]), "setup_s": summary(setups)}
    record["timing"] = timing
    record["metrics"] = {
        "tuples_per_s": record["m"] / timing["wall_s"]["fastest_half_median"],
        "setup_s": timing["setup_s"]["fastest_half_median"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return record


def show_provenance(args, record: dict) -> None:
    stamp = record["provenance"]
    print(
        f"# git {stamp['git_sha']}  python {stamp['python']}  numpy {stamp['numpy']}  "
        f"{stamp['platform']}  cpu_count {stamp['cpu_count']}"
    )
    print(
        f"# workload {record['workload']}  seed {args.seed}  m {record['m']}  "
        f"seconds {args.seconds}"
        + ("  SMOKE: sizes shrunk, numbers not comparable" if args.smoke else "")
    )


def show_measurement(args, record: dict) -> None:
    show_provenance(args, record)
    for name, label in (("wall_s", "repetition"), ("setup_s", "fresh process")):
        timing = record["timing"][name]
        print(
            f"  {name} per {label}: median {timing['median']:.4f}  "
            f"IQR {timing['iqr']:.4f}  n {timing['n']}  "
            f"median of fastest half {timing['fastest_half_median']:.4f}"
        )
    for name, value in record["metrics"].items():
        print(f"  {name:<28} {value:>16.4f} {END_TO_END[name]['unit']}")
    for name in EXACT:
        print(f"  {name:<28} {record['exact'][name]:>16.6f} (exact under this seed)")
    show_problems(record)


def show_trace(args, record: dict) -> None:
    show_provenance(args, record)
    for name, value in record["metrics"].items():
        unit = PER_LAYER[name]["unit"]
        if value is None:
            print(f"  {name:<56} {'null':>18} {unit}  ({record['reasons'][name]})")
        else:
            print(f"  {name:<56} {value:>18.6g} {unit}")
    print("  spans (path, calls, total_ms, self_ms):")
    for span in record["spans"]:
        print(
            f"    {'/'.join(span['path']):<44} {span['calls']:>5} "
            f"{span['total_ns'] / 1e6:>10.2f} {span['self_ns'] / 1e6:>10.2f}"
        )
    show_problems(record)


def show_problems(record: dict) -> None:
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if not record["problems"]:
        print("  outputs checked: ok")


def result_line(records: list[dict]) -> dict:
    """The contract's last line for one workload's records."""
    correct = not any(record["problems"] for record in records)
    attempted = sum(record["attempted"] for record in records)
    units = {**END_TO_END, **PER_LAYER}
    metrics = {
        name: {"value": value, "unit": units[name]["unit"]}
        for record in records
        for name, value in record["metrics"].items()
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(record["failed"] for record in records) if correct else attempted,
        "metrics": metrics,
    }


def run_workload(args, workload: str) -> tuple[list[dict], bool]:
    records = []
    if args.trace != 1:
        records.append(measure(args, workload))
        show_measurement(args, records[-1])
    if args.trace != 0:
        records.append(worker("trace", args, workload))
        show_trace(args, records[-1])
    return records, not any(record["problems"] for record in records)


def run_all(args) -> int:
    """Every workload, then the dispatch cliff on one page."""
    rows = {}
    ok = True
    for workload in WORKLOADS:
        print(f"== {workload}")
        records, correct = run_workload(args, workload)
        ok = ok and correct
        rows[workload] = {
            name: value for record in records for name, value in record["metrics"].items()
        }
        if args.trace != 1:
            rows[workload].update(records[0]["exact"])
            if not correct:
                rows[workload]["failed_share"] = 1.0
    if args.trace != 1:
        print("== end to end, one row per workload")
        columns = list(END_TO_END) + list(EXACT)
        print(f"{'workload':<18}" + "".join(f"{name:>24}" for name in columns))
        for workload, row in rows.items():
            print(f"{workload:<18}" + "".join(f"{row[name]:>24.4f}" for name in columns))
        fast = rows["fast_single"]["tuples_per_s"]
        print("== dispatch cliff: _run_posg (fast_single) against _run_generic")
        print(f"{'fast_single':<18}{fast:>14.0f} tuples/s")
        for workload in CLIFF:
            rate = rows[workload]["tuples_per_s"]
            print(f"{workload:<18}{rate:>14.0f} tuples/s   fast_single / this = {fast / rate:.2f}")
    if args.trace != 0:
        ratio = rows["fast_single"]["simulator.run.generic_vs_fast_ratio"]
        print(
            "simulator.run.generic_vs_fast_ratio (recovery-armed, unfaulted wall / "
            f"fast wall, equal m): {ratio:.2f}"
        )
    print("ALL CHECKS PASSED" if ok else "A CHECK FAILED")
    return 0 if ok else 1


def run_aa(args) -> int:
    """N sets of the same tree: spread of each metric against its bound."""
    sets = []
    for index in range(args.aa):
        print(f"== A/A set {index + 1} of {args.aa}")
        sets.append({workload: measure(args, workload) for workload in WORKLOADS})
    ok = True
    print(f"{'workload':<18}{'metric':<26}{'spread':>10}{'bound':>8}  verdict  values")
    for workload in WORKLOADS:
        records = [entry[workload] for entry in sets]
        ok = ok and not any(record["problems"] for record in records)
        for name, entry in END_TO_END.items():
            values = [record["metrics"][name] for record in records]
            spread = (max(values) - min(values)) / statistics.median(values)
            within = spread <= entry["bound"]
            ok = ok and within
            print(
                f"{workload:<18}{name:<26}{spread:>10.4f}{entry['bound']:>8.2f}  "
                + ("within   " if within else "BEYOND   ")
                + " ".join(f"{value:.4f}" for value in values)
            )
        same = all(record["exact"] == records[0]["exact"] for record in records)
        ok = ok and same
        print(f"{workload:<18}{'exact metrics':<26}{'':>10}{0:>8}  " + (
            "bit for bit" if same else "DIFFER"
        ))
    print("A/A AGREES" if ok else "A/A DISAGREES")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="shrink m for self-tests; output is not comparable")
    parser.add_argument("--aa", type=int, metavar="N")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.aa is not None:
        return run_aa(args)
    if args.workload is None:
        return run_all(args)
    records, correct = run_workload(args, args.workload)
    print(json.dumps(result_line(records)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
