"""Run reports: construction from simulations, JSON round-trip, stats."""

import json

import numpy as np

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping, RoundRobinGrouping
from repro.core.scheduler import SchedulerState
from repro.simulator.run import simulate_stream
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.report import SCHEMA, RunReport
from repro.workloads.nonstationary import LoadShiftScenario
from repro.workloads.synthetic import default_stream

# long enough for the scaled-down FSM window to reach RUN in-stream
M = 12_000
K = 5


def _posg_run(recorder=None):
    stream = default_stream(seed=0, m=M)
    policy = POSGGrouping(POSGConfig(window_size=256), telemetry=recorder)
    return simulate_stream(
        stream,
        policy,
        k=K,
        scenario=LoadShiftScenario.paper_figure10(M),
        rng=np.random.default_rng(1),
        chunk_size=1024,
        telemetry=recorder,
    )


class TestRunReport:
    def test_fields_from_simulation(self):
        with TelemetryRecorder() as recorder:
            result = _posg_run(recorder)
            baseline = simulate_stream(
                default_stream(seed=0, m=M), RoundRobinGrouping(), k=K,
                scenario=LoadShiftScenario.paper_figure10(M), chunk_size=1024,
            )
            report = RunReport.from_simulation(
                result, K, baseline=baseline, telemetry=recorder
            )
        assert report.schema == SCHEMA
        assert report.policy == "posg"
        assert report.m == M
        assert report.k == K
        assert report.average_completion_ms > 0
        assert report.speedup_vs_baseline is not None
        assert sum(report.instance_tuple_counts) == M
        assert report.imbalance >= 0
        assert report.control_messages > 0
        assert report.control_bits > 0
        # the scaled-down window makes the scheduler reach RUN in-stream
        assert report.run_entry_index is not None
        assert ["%d" % report.state_transitions[0][0]]  # index is an int
        assert report.scheduler["state"] in {s.value for s in SchedulerState}
        assert report.scheduler["tuples_scheduled"] == M
        assert len(report.instances) == K
        assert sum(i["tuples_executed"] for i in report.instances) == M
        assert len(report.fsm_timeline) > 0
        assert report.metrics["sim_tuples_total"] == M

    def test_json_round_trip(self, tmp_path):
        with TelemetryRecorder() as recorder:
            result = _posg_run(recorder)
            report = RunReport.from_simulation(result, K, telemetry=recorder)
        path = report.save(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert payload["m"] == M
        assert payload["metrics"]["sim_tuples_total"] == M

    def test_summary_is_human_readable(self):
        result = _posg_run()
        report = RunReport.from_simulation(result, K)
        text = report.summary()
        assert "policy=posg" in text
        assert "L (avg completion)" in text

    def test_flightrecorder_and_tracer_blocks(self):
        from repro.telemetry.flightrecorder import FlightRecorderConfig

        with TelemetryRecorder() as recorder:
            stream = default_stream(seed=0, m=M)
            policy = POSGGrouping(
                POSGConfig(window_size=256), telemetry=recorder
            )
            result = simulate_stream(
                stream,
                policy,
                k=K,
                rng=np.random.default_rng(1),
                chunk_size=1024,
                telemetry=recorder,
                flight=FlightRecorderConfig(sample_every=97),
            )
            report = RunReport.from_simulation(result, K, telemetry=recorder)
        flight = report.flightrecorder
        assert flight["schema"] == "posg-flight/v1"
        assert flight["sources"] == 1
        assert flight["per_shard"][0]["route_samples"] > 0
        assert report.tracer["emitted"] >= len(report.fsm_timeline)
        assert report.tracer["dropped"] == 0
        assert report.to_dict()["flightrecorder"]["sources"] == 1

    def test_truncated_tracer_flagged_in_summary(self):
        from repro.telemetry.tracer import Tracer

        with TelemetryRecorder(tracer=Tracer(capacity=8)) as recorder:
            result = _posg_run(recorder)
            report = RunReport.from_simulation(result, K, telemetry=recorder)
        assert report.tracer["dropped"] > 0
        assert "fsm_timeline is truncated" in report.summary()

    def test_round_robin_report_has_no_scheduler_section(self):
        result = simulate_stream(
            default_stream(seed=0, m=2048), RoundRobinGrouping(), k=K,
        )
        report = RunReport.from_simulation(result, K)
        assert report.policy == "round_robin"
        assert report.scheduler is None
        assert report.instances is None
        assert report.speedup_vs_baseline is None


class TestSchedulerStats:
    def test_stats_dict(self):
        with TelemetryRecorder() as recorder:
            result = _posg_run(recorder)
        stats = result.policy.scheduler.stats()
        assert stats["tuples_scheduled"] == M
        assert stats["state"] in {s.value for s in SchedulerState}
        assert stats["sync_rounds_completed"] >= 1
        assert stats["matrices_received"] >= 1
        assert stats["control_bits"] == (
            stats["control_bits_sent"] + stats["control_bits_received"]
        )
