"""The latency experiment: round-robin and POSG (s = 1), decomposed."""

import json

import pytest

from repro.experiments import latency


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    directory = tmp_path_factory.mktemp("latency")
    code = latency.run(scale=0.01, output=str(directory))
    return code, json.loads((directory / "latency_report.json").read_text())


class TestLatencyExperiment:
    def test_writes_exactly_the_two_single_scheduler_rows(self, written):
        code, payload = written
        assert code == 0
        assert [(row["strategy"], row["sources"]) for row in payload["sweep"]] == [
            ("round_robin", 1),
            ("posg", 1),
        ]
        assert "workers" not in payload

    def test_every_row_is_identical_across_engines_and_sampled(self, written):
        _, payload = written
        for row in payload["sweep"]:
            assert row["timelines_identical"] is True
            assert row["lineage"]["samples_total"] > 0
            assert row["lineage"]["dropped_samples"] == 0

    def test_scheduling_changes_where_tuples_wait_not_their_work(self, written):
        _, payload = written
        rr, posg = (row["lineage"]["components"] for row in payload["sweep"])
        # the same sampled tuples and work; the means may part in the
        # last bit, from the order the spans are summed in
        assert rr["service_time"]["mean_ms"] == pytest.approx(
            posg["service_time"]["mean_ms"], rel=1e-12
        )
        assert posg["queue_wait"]["mean_ms"] < rr["queue_wait"]["mean_ms"]

    def test_a_span_that_does_not_partition_fails_the_run(
        self, monkeypatch, capsys
    ):
        from repro.telemetry import lineage

        exact = lineage.decompose

        def off_by_one_ulp(record):
            span = exact(record)
            span["service_time"] += 1e-9
            return span

        monkeypatch.setattr(lineage, "decompose", off_by_one_ulp)
        assert latency.run(scale=0.01) == 1
        assert "latency partition not exact" in capsys.readouterr().err

    def test_engines_that_disagree_fail_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(latency, "engines_agree", lambda *runs: False)
        assert latency.run(scale=0.01) == 1
        assert (
            "lineage timelines diverged across engines for "
            "['round_robin', 'posg']"
        ) in capsys.readouterr().err
