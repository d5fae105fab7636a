"""Smoke test for the chaos experiment (fault-injected POSG run)."""

import json

from repro.experiments.cli import main


class TestChaosExperiment:
    def test_runs_recovers_and_writes_artifacts(self, tmp_path, capsys):
        # --scale below the floor still clamps to the minimum stream that
        # leaves a restarted instance room to re-stabilize
        code = main(["chaos", "--scale", "0.01", "--output", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        assert "recovered=True" in out

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "posg-run-report/v6"
        assert report["faults"] is not None
        assert report["faults"]["injected"]["crashes"] == 1
        assert sum(report["faults"]["injected"]["dropped"].values()) > 0
        assert report["speedup_vs_baseline"] > 0

        # v3: the estimator audit splits at the crash, quality is present
        assert report["audit"]["samples"] > 0
        segments = report["audit"]["segments"]
        assert len(segments) == 2
        assert segments[0]["samples"] > 0 and segments[1]["samples"] > 0
        assert "estimator audit" in out and "before crash" in out
        quality = report["quality"]
        assert quality["makespan"]["achieved_vs_oracle"] >= 1.0
        assert 0.0 <= quality["regret"]["misroute_fraction"] <= 1.0

        prom = (tmp_path / "metrics.prom").read_text()
        assert "posg_fault_" in prom
        assert "posg_scheduler_sync_retransmits_total" in prom
        trace = (tmp_path / "trace.jsonl").read_text()
        assert "fault_" in trace

    def test_prints_engine_records_and_gates_on_the_segment_path(
        self, monkeypatch, capsys
    ):
        assert main(["chaos", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert out.count("'path': 'segment'") == 2
        assert "engine [chaos]" in out and "'cuts'" in out

        # the reference engine is not a dispatch regression
        from repro.experiments import chaos
        from repro.simulator import run as simulator_run

        assert chaos.run(scale=0.01, chunk_size=0) == 0
        assert "'path': 'reference'" in capsys.readouterr().out

        monkeypatch.setattr(
            simulator_run, "_choose_loop",
            lambda *args: ("generic", "forced off the segment path"),
        )
        assert main(["chaos", "--scale", "0.01"]) == 1
        assert "left the segment path" in capsys.readouterr().err

    def test_listed_in_cli(self, capsys):
        assert main(["list"]) == 0
        assert "chaos" in capsys.readouterr().out


class TestChaosParallelExperiment:
    def test_runs_heals_and_writes_recovery_report(self, tmp_path, capsys):
        code = main(
            ["chaos", "--parallel", "2", "--scale", "0.01",
             "--output", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gate: bit-identical to sequential engine = True" in out
        assert "gate: fully recovered via respawn-replay = True" in out

        recovery = json.loads((tmp_path / "recovery_report.json").read_text())
        assert recovery["schema"] == "posg-recovery-report/v1"
        assert recovery["gates"]["bit_identical"] is True
        assert recovery["gates"]["recovered"] is True
        supervision = recovery["supervision"]
        assert supervision["crashes_detected"] >= 1
        assert supervision["hangs_detected"] >= 1
        assert supervision["respawns_total"] >= 2
        assert supervision["degraded_workers"] == []
        kinds = [event["event"] for event in supervision["lifecycle"]]
        assert "worker_crash_detected" in kinds
        assert "worker_respawned" in kinds
        assert recovery["timing_seconds"]["recovery_overhead"] is not None

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "posg-run-report/v6"
        assert report["supervision"]["recovered"] is True
        assert report["faults"]["injected"]["worker_faults"]["crash"] == 1
        assert report["faults"]["injected"]["worker_faults"]["hang"] == 1
        assert report["faults"]["injected"]["worker_respawns"] == 2

        trace = (tmp_path / "trace.jsonl").read_text()
        assert "fault_worker" in trace
        assert "worker_respawn" in trace
