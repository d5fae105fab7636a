"""Tests for FigureResult JSON persistence and the CLI --output flag."""

import json

from repro.experiments.cli import main
from repro.experiments.figures import FigureResult


class TestFigureResultPersistence:
    def test_round_trip(self, tmp_path):
        result = FigureResult(
            name="figureX", description="demo", columns=["a", "b"],
            rows=[{"a": 1, "b": 2.5}], notes=["hello"],
            facts={"run_entry": 10_690, "resync": None},
        )
        path = tmp_path / "fig.json"
        result.save(path)
        with open(path) as handle:
            assert FigureResult(**json.load(handle)) == result

    def test_json_is_plain(self, tmp_path):
        result = FigureResult(name="f", description="d", columns=["x"],
                              rows=[{"x": 1.0}])
        path = tmp_path / "f.json"
        result.save(path)
        payload = json.loads(path.read_text())
        assert payload["rows"] == [{"x": 1.0}]


class TestCliOutput:
    def test_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_REPS", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        code = main([
            "figure5", "--reps", "1", "--scale", "0.03125",
            "--output", str(tmp_path / "results"),
        ])
        assert code == 0
        saved = tmp_path / "results" / "figure5.json"
        assert saved.exists()
        with open(saved) as handle:
            loaded = json.load(handle)
        assert loaded["name"] == "figure5"
        assert loaded["rows"]
