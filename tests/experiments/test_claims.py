"""Tests for the claim gate ``python -m repro.experiments all`` ends with.

The figures are stubbed with canned results shaped like the paper's;
the theorem checks run for real, once per module.
"""

import json

import pytest

from repro.experiments import claims
from repro.experiments.cli import FIGURES, main
from repro.experiments.figures import FigureResult

DISTRIBUTIONS = ("uniform", "zipf-0.5", "zipf-1", "zipf-1.5", "zipf-2",
                 "zipf-2.5", "zipf-3")
EPSILONS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


def _figure(name, rows, **facts):
    return FigureResult(name=name, description="canned", columns=[],
                        rows=rows, facts=facts)


def _rr_and_posg(key, values, rr_mean):
    """Figures 6/7: Round-Robin and POSG rows, POSG 1.2x faster."""
    return [
        {key: value, "policy": policy,
         "mean": rr_mean(value) / speedup, "speedup_mean": speedup}
        for value in values
        for policy, speedup in (("round_robin", 1.0), ("posg", 1.2))
    ]


def canned_figures():
    """One result per figure, every claim holding with margin."""
    sweep = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    bins = range(0, 150_000, 2_000)
    return {
        "figure4": _figure("figure4", [
            {"distribution": d, "policy": policy, "mean": (100 - 5 * i) * factor}
            for i, d in enumerate(DISTRIBUTIONS)
            for policy, factor in (("round_robin", 1.0), ("posg", 0.8),
                                   ("full_knowledge", 0.7))
        ]),
        "figure5": _figure("figure5", [
            {"over_provisioning": p, "mean": s} for p, s in zip(
                (0.95, 0.98, 1.0, 1.02, 1.05, 1.09, 1.15),
                (1.0, 1.1, 1.2, 1.26, 1.2, 1.1, 1.05))
        ]),
        "figure6": _figure("figure6", _rr_and_posg("w_max", sweep, float)),
        "figure7": _figure("figure7", _rr_and_posg(
            "w_n", sweep, lambda w: 200.0 if w == 2 else 100.0)),
        "figure8": _figure("figure8", [
            {"k": k, "mean": 1.0 if k == 1 else 1.3 - 0.3 / k}
            for k in range(1, 11)
        ]),
        "figure9": _figure("figure9", [
            {"epsilon": e, "mean": s}
            for e, s in zip(EPSILONS, (1.1, 1.15, 1.2, 1.25, 1.2, 1.1, 1.0))
        ]),
        "figure10": _figure("figure10", [
            {"index": i, "posg_mean": 100.0 if i < 10_000 else 80.0,
             "rr_mean": 100.0}
            for i in bins
        ], run_entry=10_690, resync=84_912, sync_rounds=12),
        "figure11": _figure("figure11", [
            {"bin_start": i, "posg_mean": 100.0 if i < 6_000 else 80.0,
             "assg_mean": 100.0}
            for i in bins
        ], posg_timeouts=0, assg_timeouts=1_600, posg_control_messages=916),
        "figure12": _figure("figure12", [
            {"k": k, "posg_L": 100.0 / k, "assg_L": 137.0 / k,
             "posg_control_messages": 916}
            for k in range(1, 11)
        ]),
    }


@pytest.fixture(scope="module")
def theorem_verdicts():
    return {name: check() for name, check in claims.CHECKS.items()
            if name not in FIGURES}


@pytest.fixture
def stub_figures(monkeypatch, theorem_verdicts):
    """Replace every figure with its canned result (and every theorem
    check with its verdicts from this module's one real run); return the
    results so a test can plant a violation before running ``all``."""
    results = canned_figures()
    for name in FIGURES:
        monkeypatch.setitem(FIGURES, name, lambda name=name: results[name])
    for name, verdicts in theorem_verdicts.items():
        monkeypatch.setitem(claims.CHECKS, name, lambda verdicts=verdicts: verdicts)
    return results


class TestGate:
    def test_every_claim_holding_exits_zero(self, stub_figures, tmp_path, capsys):
        assert main(["all", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{len(claims.CLAIMS)}/{len(claims.CLAIMS)} claims pass" in out
        verdicts = {line.split()[0]: line.split()[-1] for line in out.splitlines()
                     if line.split() and line.split()[0] in claims.CLAIMS}
        assert verdicts == dict.fromkeys(claims.CLAIMS, "PASS")
        written = json.loads((tmp_path / "claims.json").read_text())
        assert written["failed"] == []
        assert [row["claim"] for row in written["claims"]] == list(claims.CLAIMS)

    def test_a_planted_miss_exits_one_and_names_the_claim(
        self, stub_figures, capsys
    ):
        for row in stub_figures["figure4"].rows:
            if row["distribution"] == "zipf-1" and row["policy"] == "posg":
                row["mean"] = 200.0  # POSG >= RR at Zipf-1
        assert main(["all"]) == 1
        out = capsys.readouterr().out
        assert "FAIL figure4.order" in out.splitlines()
        assert "FAIL figure4.gain" in out.splitlines()
        assert "FAIL figure4.skew" not in out

    def test_posg_never_entering_run_is_a_failed_row_not_an_error(
        self, stub_figures, capsys
    ):
        stub_figures["figure10"].facts["run_entry"] = None
        assert main(["all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        for claim in ("figure10.bootstrap", "figure10.diverge"):
            line = next(line for line in lines if line.split()[:1] == [claim])
            assert "POSG never entered RUN" in line and line.endswith("FAIL")

    def test_a_check_that_raises_fails_only_its_own_rows(self, stub_figures):
        figures = canned_figures()
        del figures["figure9"]
        rows = {row["claim"]: row for row in claims.evaluate(figures)}
        for claim, row in rows.items():
            expected = "FAIL" if claims.source(claim) == "figure9" else "PASS"
            assert row["verdict"] == expected, claim
        assert rows["figure9.best"]["measured"] == "KeyError: 'figure9'"


class TestTable:
    def test_every_figure_has_a_claim_and_every_claim_a_source(self):
        sources = {claims.source(claim) for claim in claims.CLAIMS}
        assert set(FIGURES) <= sources
        assert sources == set(claims.CHECKS)
        theorems = set(claims.CHECKS) - set(FIGURES)
        assert theorems == {"theorem3.1", "theorem3.2", "theorem3.3",
                            "theorem4.2", "theorem4.3"}
