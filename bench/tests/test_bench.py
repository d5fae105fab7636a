"""Self-tests of the benchmark, at ``--smoke`` scale.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*arguments: str, module: str = "bench", cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "-m", module, *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_is_within_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("higher", "lower")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "SMOKE" in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {e["name"]: e["unit"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    for entry in SPEC["end_to_end"]:
        assert result["metrics"][entry["name"]]["value"] > 0


def test_trace_flag_selects_the_metric_set():
    done = bench(
        "--workload", "fast_single", "--seed", "0", "--seconds", "1", "--trace", "0",
        "--smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert set(metrics) == {entry["name"] for entry in SPEC["end_to_end"]}


def test_exact_metrics_repeat_under_one_seed():
    runs = [
        bench(
            "--mode", "measure", "--workload", "coordinated_s4", "--seed", "7",
            "--seconds", "0.1", "--smoke", module="bench.worker",
        )
        for _ in range(2)
    ]
    records = [json.loads(run.stdout.splitlines()[-1]) for run in runs]
    assert records[0]["problems"] == []
    assert records[0]["exact"] == records[1]["exact"]
    assert records[0]["exact"]["avg_completion_ms"] > 0


def test_span_self_time_arithmetic():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        time.sleep(0.002)
        for _ in range(3):
            with recorder.span("inner"):
                time.sleep(0.001)
                with recorder.span("leaf"):
                    time.sleep(0.001)
    report = recorder.report()
    spans = {tuple(span["path"]): span for span in report["spans"]}
    assert set(spans) == {("outer",), ("outer", "inner"), ("outer", "inner", "leaf")}
    outer, inner, leaf = (spans[path] for path in sorted(spans))
    assert (outer["calls"], inner["calls"], leaf["calls"]) == (1, 3, 3)
    assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
    assert inner["self_ns"] == inner["total_ns"] - leaf["total_ns"]
    assert leaf["self_ns"] == leaf["total_ns"]
    assert sum(span["self_ns"] for span in spans.values()) == report["total_ns"]
    assert recorder.seconds("outer", "inner", self_time=True) == inner["self_ns"] / 1e9
    # raw rows: name, start, end, parent
    name, start, end, parent = recorder.spans[2]
    assert (name, parent) == ("leaf", 1) and start < end


def test_span_report_has_the_phase_profiler_shape():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.telemetry.profiler import PhaseProfiler
    finally:
        sys.path.remove(str(ROOT / "src"))
    ours, theirs = SpanRecorder(), PhaseProfiler()
    for profiler in (ours, theirs):
        profiler.start("a")
        profiler.start("b")
        profiler.stop()
        profiler.stop()
    assert [sorted(span) for span in ours.report()["spans"]] == [
        sorted(span) for span in theirs.report()["spans"]
    ]


def test_open_spans_cannot_be_reported():
    recorder = SpanRecorder()
    recorder.start("open")
    with pytest.raises(RuntimeError):
        recorder.report()


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(
        "--workload", "fast_single", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
