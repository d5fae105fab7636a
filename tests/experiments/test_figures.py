"""Structural tests for the figure harness (tiny scale: shapes of the
output, not of the science — the claims ``all`` checks assert the
science, see tests/experiments/test_claims.py)."""

import numpy as np
import pytest

from repro.core.config import POSGConfig
from repro.experiments.figures import (
    figure4_distributions,
    figure5_overprovisioning,
    figure8_instances,
    figure9_epsilon,
    figure10_timeseries,
    figure11_prototype_timeseries,
    figure12_twitter,
)
from repro.experiments.runner import ExperimentSettings


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_REPS", "2")
    monkeypatch.setenv("REPRO_SCALE", "0.03125")  # m = 1024 everywhere


def tiny_settings(k=2):
    return ExperimentSettings(
        k=k, reps=2, base_seed=3,
        posg_config=POSGConfig(window_size=32, rows=2, cols=16),
    )


class TestSweepFigures:
    def test_figure4_structure(self):
        result = figure4_distributions(tiny_settings())
        assert result.name == "figure4"
        # 7 distributions x 3 policies
        assert len(result.rows) == 21
        assert {row["policy"] for row in result.rows} == {
            "round_robin", "posg", "full_knowledge"
        }

    def test_figure5_structure(self):
        result = figure5_overprovisioning(
            tiny_settings(), percentages=(0.95, 1.0, 1.05)
        )
        assert [row["over_provisioning"] for row in result.rows] == [0.95, 1.0, 1.05]
        assert all("mean" in row for row in result.rows)

    def test_figure8_structure(self):
        result = figure8_instances(tiny_settings(), instance_counts=(1, 2))
        assert [row["k"] for row in result.rows] == [1, 2]
        # k=1: speedup must be ~1 even at tiny scale
        assert result.rows[0]["mean"] == pytest.approx(1.0, abs=0.02)

    def test_figure9_structure(self):
        result = figure9_epsilon(tiny_settings(), epsilons=(0.05, 1.0))
        assert [row["epsilon"] for row in result.rows] == [0.05, 1.0]
        assert result.rows[0]["cols"] == 55
        assert result.rows[1]["cols"] == 3


class TestTimeSeriesFigures:
    def test_figure10_structure(self):
        result = figure10_timeseries(
            m=4096, k=2, bin_size=512,
            posg_config=POSGConfig(window_size=64, rows=2, cols=16),
        )
        assert len(result.rows) == 8
        assert any("entered RUN" in note for note in result.notes)
        # the notes print the facts the claims read
        assert set(result.facts) == {"run_entry", "resync", "sync_rounds"}
        assert f"sync rounds completed: {result.facts['sync_rounds']}" in result.notes
        for row in result.rows:
            assert row["posg_min"] <= row["posg_mean"] <= row["posg_max"]

    def test_figure11_structure(self):
        result = figure11_prototype_timeseries(
            m=4096, k=2, bin_size=1024,
            posg_config=POSGConfig(window_size=64, rows=2, cols=16),
        )
        assert len(result.rows) == 4
        assert any(note.startswith("POSG timeouts") for note in result.notes)
        assert any(note.startswith("ASSG timeouts") for note in result.notes)
        assert f"ASSG timeouts: {result.facts['assg_timeouts']}" in result.notes

    def test_figure12_structure(self):
        result = figure12_twitter(
            instance_counts=(1, 2), m=2000,
            posg_config=POSGConfig(window_size=64, rows=2, cols=16),
        )
        assert [row["k"] for row in result.rows] == [1, 2]
        for row in result.rows:
            assert row["posg_L"] > 0
            assert row["assg_L"] > 0
