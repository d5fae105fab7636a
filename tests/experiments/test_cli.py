"""Tests for the experiments CLI."""

import os
import pathlib

import pytest

from repro.experiments.cli import (
    COMMANDS,
    FIGURES,
    RUN_LEVEL,
    Command,
    build_parser,
    main,
)
from repro.experiments.figures import FigureResult
from repro.experiments.runner import env_reps, env_scale

#: the files each run-level command documents under ``--output``
ARTEFACTS = {
    "telemetry": {"report.json", "metrics.prom", "trace.jsonl"},
    "chaos": {"report.json", "metrics.prom", "trace.jsonl"},
    "observe": {
        "quality_report.json", "quality_report.html", "metrics.prom",
        "profile.json", "flamegraph.txt",
    },
    "multisource": {"multisource.json"},
    "attribution": {"attribution.json", "attribution.html"},
    "latency": {
        "latency_report.json", "latency_report.html", "metrics.prom",
    },
}


class TestParser:
    def test_figure_choices(self):
        parser = build_parser()
        args = parser.parse_args(["figure4", "--reps", "2"])
        assert args.command == "figure4"
        assert args.reps == 2

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_all_nine_figures_registered(self):
        assert len(FIGURES) == 9
        assert set(FIGURES) == {f"figure{i}" for i in range(4, 13)}

    def test_every_command_is_a_table_row(self):
        assert set(COMMANDS) == set(FIGURES) | set(RUN_LEVEL) | {"all", "list"}
        assert set(RUN_LEVEL) == set(ARTEFACTS)


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(COMMANDS)
        for line, command in zip(lines, COMMANDS.values()):
            assert line.endswith(command.summary)

    def test_runs_one_figure_tiny(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_REPS", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        code = main(["figure5", "--reps", "1", "--scale", "0.03125"])
        assert code == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "over_provisioning" in out

    def test_figure_sees_reps_and_scale_and_environment_is_restored(
        self, monkeypatch, capsys
    ):
        monkeypatch.delenv("REPRO_REPS", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        before = dict(os.environ)
        seen = []

        def figure():
            seen.append((env_reps(), env_scale()))
            return FigureResult(name="figure5", description="", columns=[])

        monkeypatch.setitem(FIGURES, "figure5", figure)
        assert main(["figure5", "--reps", "1", "--scale", "0.03125"]) == 0
        assert seen == [(1, 0.03125)]
        assert dict(os.environ) == before

    def test_environment_is_restored_when_a_figure_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "7")
        before = dict(os.environ)

        def figure():
            raise RuntimeError("boom")

        monkeypatch.setitem(FIGURES, "figure5", figure)
        with pytest.raises(RuntimeError):
            main(["figure5", "--reps", "1"])
        assert dict(os.environ) == before

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("attribution", ["--parallel", "4"]),
            ("latency", ["--parallel", "2"]),
            ("telemetry", ["--plot"]),
            ("chaos", ["--reps", "3"]),
            ("multisource", ["--plot"]),
            ("observe", ["--reps", "1"]),
            ("figure4", ["--parallel", "2"]),
            ("all", ["--parallel", "2"]),
            ("list", ["--scale", "1"]),
            ("list", ["--output", "out"]),
        ],
    )
    def test_refuses_a_flag_the_command_does_not_take(
        self, command, flag, capsys
    ):
        with pytest.raises(SystemExit) as refusal:
            main([command, *flag])
        assert refusal.value.code == 2
        assert f"{command} does not take {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["figure5", "--reps", "0"], "--reps: value must be >= 1, got 0"),
            (["figure5", "--reps", "2.5"], "--reps"),
            (["figure5", "--scale", "-1"], "--scale: value must be > 0, got -1.0"),
            (["figure5", "--scale", "nan"], "--scale: value must be finite, got nan"),
            (["chaos", "--scale", "nan"], "--scale: value must be finite, got nan"),
            (["chaos", "--parallel", "0"], "--parallel: value must be >= 1, got 0"),
        ],
    )
    def test_a_bad_count_or_scale_is_a_usage_error_before_anything_runs(
        self, argv, message, capsys, monkeypatch
    ):
        ran = []
        monkeypatch.setitem(FIGURES, "figure5", lambda: ran.append("figure5"))
        chaos = Command("", lambda args: ran.append("chaos"), ("scale", "parallel"))
        monkeypatch.setitem(COMMANDS, "chaos", chaos)
        with pytest.raises(SystemExit) as refusal:
            main(argv)
        assert refusal.value.code == 2
        assert message in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize(
        "name, value, reader",
        [
            ("REPRO_REPS", "0", env_reps),
            ("REPRO_SCALE", "-1", env_scale),
            ("REPRO_SCALE", "nan", env_scale),
            ("REPRO_SCALE", "inf", env_scale),
        ],
    )
    def test_environment_readers_refuse_out_of_range_values(
        self, name, value, reader, monkeypatch
    ):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            reader()

    @pytest.mark.parametrize("command", list(RUN_LEVEL))
    def test_run_level_command_writes_its_artefacts(
        self, command, tmp_path, capsys
    ):
        code = main([command, "--scale", "0.01", "--output", str(tmp_path)])
        assert code == 0
        assert {path.name for path in tmp_path.iterdir()} == ARTEFACTS[command]
        out = capsys.readouterr().out
        for name in ARTEFACTS[command]:
            assert f"wrote {tmp_path / name}" in out


class TestSmokeGates:
    def test_every_run_level_command_has_a_ci_smoke_entry(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        workflow = (root / ".github" / "workflows" / "ci.yml").read_text()
        smoke = workflow[workflow.index("  experiment-smoke:"):]
        for name in RUN_LEVEL:
            assert f"          - name: {name}\n" in smoke, name
            assert f"python -m repro.experiments {name} " in smoke, name
