"""The paper's figure and theorem claims: one table, one gate.

After ``python -m repro.experiments all`` has run every figure,
:func:`gate` prints one row per :data:`CLAIMS` entry (claim, paper,
measured, PASS/FAIL) and ``all`` exits 1 on a FAIL.  A claim id names
its source, a key of :data:`CHECKS`: a figure's check reads that
figure's ``rows`` and ``facts``, never its notes; a theorem's runs it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.analysis.bounds import gusfield_worst_case, verify_theorem_42
from repro.analysis.estimation import (
    expected_estimator_ratio,
    paper_numerical_application,
    simulate_estimator_ratios,
)
from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.core.instance import InstanceTracker
from repro.core.matrices import make_shared_hashes
from repro.experiments.report import format_table
from repro.experiments.scaffold import wrote
from repro.simulator.run import simulate_stream
from repro.workloads.distributions import ZipfItems
from repro.workloads.synthetic import StreamSpec, generate_stream

#: claim id -> what the paper says
CLAIMS: dict[str, str] = {
    "figure4.order": "FK <= POSG < RR from Zipf-1.0 on",
    "figure4.gain": "POSG ~25% below RR at Zipf-1.0",
    "figure4.skew": "higher skew helps every policy",
    "figure5.undersized": "speedup ~1 when undersized (95%)",
    "figure5.sized": "speedup >= 1.15 when correctly sized",
    "figure5.peak": "peak speedup 1.26 at 102%",
    "figure6.growth": "L grows with w_max",
    "figure6.gain": "POSG speedup ~1.19 across w_max",
    "figure7.worst": "L stabilizes from w_n >= 16",
    "figure7.gain": "POSG gain ~19%, unaffected by w_n",
    "figure8.k1": "speedup 1 at k = 1",
    "figure8.gain": "speedup > 1 from k = 2 on",
    "figure8.flattening": "speedup growth flattens in k",
    "figure9.operating": "speedup > 1 at eps <= 0.09",
    "figure9.coarse": "coarse sketches gain less",
    "figure9.best": "best speedup from a fine sketch",
    "figure10.bootstrap": "POSG == RR until RUN (tuple 10,690)",
    "figure10.diverge": "POSG below RR once in RUN",
    "figure10.recovery": "POSG recovers after the shift",
    "figure10.resync": "the shift triggers a resync",
    "figure11.bootstrap": "POSG == ASSG during the bootstrap",
    "figure11.gain": "POSG below ASSG after the shift",
    "figure11.timeouts": "ASSG times out 1,600 tuples, POSG none",
    "figure11.control": "916 control messages, negligible",
    "figure12.wins": "POSG below ASSG at every k, mean 1.37",
    "figure12.trend": "POSG's L falls with k, no anomaly",
    "figure12.control": "control overhead negligible",
    "theorem3.1.update": "O(log 1/delta) update: rows cells, any n",
    "theorem3.2.space": "two r x c matrices: 2rc log m + r log n bits",
    "theorem3.3.messages": "O(km/N) control messages",
    "theorem4.2.bound": "GOS <= (2 - 1/k) OPT, tight",
    "theorem4.3.expectation": "E{W_v/C_v} in [32.08, 32.92]",
    "theorem4.3.tail": "Pr{min rows >= 48} <= 0.024",
    "theorem4.3.monte_carlo": "closed form matches simulation",
}


def source(claim: str) -> str:
    """The figure or theorem a claim id names."""
    return claim.rsplit(".", 1)[0]


def _by(result, key: str, column: str = "mean", **where) -> dict:
    """``{row[key]: row[column]}`` over the rows matching ``where``."""
    return {row[key]: row[column] for row in result.rows
            if all(row[name] == value for name, value in where.items())}


def _figure4(result) -> dict:
    rr, posg, fk = (_by(result, "distribution", policy=p)
                    for p in ("round_robin", "posg", "full_knowledge"))
    skewed = ("zipf-1", "zipf-1.5", "zipf-2", "zipf-2.5", "zipf-3")
    return {"figure4.order": (all(fk[d] <= 1.02 * posg[d] and posg[d] < rr[d] for d in skewed),
                              {d: (fk[d], posg[d], rr[d]) for d in skewed}),
            "figure4.gain": (posg["zipf-1"] < 0.9 * rr["zipf-1"],
                             {"POSG/RR zipf-1": posg["zipf-1"] / rr["zipf-1"]}),
            "figure4.skew": (rr["zipf-3"] < rr["zipf-1"],
                             {"RR zipf-1": rr["zipf-1"], "zipf-3": rr["zipf-3"]})}


def _figure5(result) -> dict:
    S = _by(result, "over_provisioning")
    peak = max(S, key=S.get)
    return {"figure5.undersized": (0.95 <= S[0.95] <= 1.1, {"S(95%)": S[0.95]}),
            "figure5.sized": (S[1.0] > 1.1, {"S(100%)": S[1.0]}),
            "figure5.peak": (0.98 <= peak <= 1.09, {"peak at": peak})}


def _figure6(result) -> dict:
    rr, posg = (list(_by(result, "w_max", policy=p).values()) for p in ("round_robin", "posg"))
    S = list(_by(result, "w_max", "speedup_mean", policy="posg").values())
    wins = sum(s > 1.0 for s in S)
    return {"figure6.growth": (rr[-1] > rr[0] and posg[-1] > posg[0],
                               {"RR": (rr[0], rr[-1]), "POSG": (posg[0], posg[-1])}),
            "figure6.gain": (np.mean(S) > 1.05 and wins >= 0.7 * len(S),
                             {"mean S": np.mean(S), "S > 1": wins})}


def _figure7(result) -> dict:
    worst = {f"{p} w_n=2/plateau": (L[2], np.mean([L[w] for w in (64, 128, 256, 512, 1024)]))
             for p in ("round_robin", "posg") for L in [_by(result, "w_n", policy=p)]}
    S = _by(result, "w_n", "speedup_mean", policy="posg")
    mean, large = np.mean(list(S.values())), np.mean([s for w, s in S.items() if w >= 64])
    return {"figure7.worst": (all(two > plateau for two, plateau in worst.values()), worst),
            "figure7.gain": (mean > 1.05 and large > 1.0, {"mean S": mean, "w_n >= 64": large})}


def _figure8(result) -> dict:
    S = _by(result, "k")
    wins = sum(S[k] > 1.0 for k in range(2, 11))
    return {"figure8.k1": (abs(S[1] - 1.0) < 0.02, {"S(1)": S[1]}),
            "figure8.gain": (wins >= 7, {"k >= 2 with S > 1": wins}),
            "figure8.flattening": (S[10] - S[9] <= max(S[3] - S[2], 0.05) + 0.05,
                                   {"S(3)-S(2)": S[3] - S[2], "S(10)-S(9)": S[10] - S[9]})}


def _figure9(result) -> dict:
    S = _by(result, "epsilon")
    best = max(S, key=S.get)
    return {"figure9.operating": (S[0.05] > 1.1, {"S(0.05)": S[0.05]}),
            "figure9.coarse": (S[1.0] < S[0.05], {"S(1)": S[1.0]}),
            "figure9.best": (best <= 0.1, {"best eps": best})}


def _figure10(result) -> dict:
    index, posg, rr = np.array([[row["index"], row["posg_mean"], row["rr_mean"]]
                                for row in result.rows], dtype=float).T
    facts, entry = result.facts, result.facts["run_entry"]
    tail = index > index.max() * 0.75
    verdicts = dict.fromkeys(("figure10.bootstrap", "figure10.diverge"),
                             (False, "POSG never entered RUN"))
    if entry is not None:
        before, after = index < entry - 2000, index > entry
        verdicts = {
            "figure10.bootstrap": (before.sum() >= 2 and np.allclose(
                posg[before], rr[before], rtol=1e-9, atol=0),
                {"RUN at": entry, "bins before": before.sum()}),
            "figure10.diverge": (posg[after].mean() < rr[after].mean(),
                                 {"POSG/RR in RUN": (posg[after].mean(), rr[after].mean())})}
    return {**verdicts,
            "figure10.recovery": (posg[tail].mean() < rr[tail].mean(), {
                "last quarter POSG/RR": (posg[tail].mean(), rr[tail].mean()),
                "resync at": facts["resync"]}),
            "figure10.resync": (facts["sync_rounds"] >= 2, {"sync rounds": facts["sync_rounds"]})}


def _figure11(result) -> dict:
    posg, assg = np.array([[row["posg_mean"], row["assg_mean"]] for row in result.rows]).T
    head = ~(np.isnan(posg) | np.isnan(assg))
    tail = head.copy()
    head[3:], tail[:len(tail) // 2] = False, False
    late = posg[tail].mean(), assg[tail].mean()
    timeouts = result.facts["posg_timeouts"], result.facts["assg_timeouts"]
    messages = result.facts["posg_control_messages"]
    return {"figure11.bootstrap": (np.allclose(posg[head], assg[head], rtol=1e-6, atol=0),
                                   {"bins": head.sum()}),
            "figure11.gain": (late[0] < late[1], {"second half POSG/ASSG": late}),
            "figure11.timeouts": (timeouts[0] == 0 < timeouts[1], {"POSG/ASSG": timeouts}),
            "figure11.control": (messages < 10_000, {"messages": messages})}


def _figure12(result) -> dict:
    rows = sorted((row for row in result.rows if row["k"] >= 2), key=lambda row: row["k"])
    S = [row["assg_L"] / row["posg_L"] for row in rows]
    L = tuple(row["posg_L"] for row in rows)
    wins = sum(s > 1 for s in S)
    most = max(row["posg_control_messages"] for row in result.rows)
    return {"figure12.wins": (wins >= len(S) - 2 and np.mean(S) > 1.1,
                              {"wins": wins, "mean S": np.mean(S)}),
            "figure12.trend": (L[-1] < L[0] and all(b < 2.0 * a for a, b in zip(L, L[1:])),
                               {"POSG L": L}),
            "figure12.control": (most < 10_000, {"most messages": most})}


def _tracker(rows: int, cols: int = 54) -> InstanceTracker:
    config = POSGConfig(rows=rows, cols=cols, window_size=10**9)
    return InstanceTracker(0, config, make_shared_hashes(config, np.random.default_rng(0)))


def _theorem31() -> dict:
    """One ``execute`` changes ``rows`` cells of F and of W, any ``n``."""
    cells = {}
    for rows, n in ((4, 64), (4, 10**9), (1, 4096), (16, 4096)):
        tracker = _tracker(rows)
        before = tracker.matrices.freq.matrix.copy(), tracker.matrices.work.matrix.copy()
        tracker.execute(int(np.random.default_rng(5).integers(0, n)), 1.0)
        after = tracker.matrices.freq.matrix, tracker.matrices.work.matrix
        cells[rows, n] = tuple(int(np.count_nonzero(a != b)) for a, b in zip(after, before))
    return {"theorem3.1.update": (all(c == (rows, rows) for (rows, _), c in cells.items()),
                                  {f"r={r} n={n} F/W cells": c for (r, n), c in cells.items()})}


def _theorem32() -> dict:
    trackers = _tracker(rows=2, cols=10), _tracker(rows=4, cols=100)
    sizes = tuple(t.matrices.freq.matrix.nbytes + t.matrices.work.matrix.nbytes for t in trackers)
    bits = POSGConfig(rows=4, cols=54).memory_bits(stream_length=32_768, universe_size=4_096)
    return {"theorem3.2.space": (sizes == (2 * 2 * 10 * 8, 2 * 4 * 100 * 8)
                                 and bits == 2 * 4 * 54 * 15 + 4 * 12,
                                 {"bytes at 2x10, 4x100": sizes, "bits at 4x54": bits})}


def _theorem33(k: int = 5, window: int = 256) -> dict:
    spec = StreamSpec(m=32_768, k=k)
    stream = generate_stream(ZipfItems(spec.n, 1.0), spec, np.random.default_rng(6))
    policy = POSGGrouping(POSGConfig(rows=4, cols=54, window_size=window))
    messages = simulate_stream(stream, policy, k=k, rng=np.random.default_rng(7)).control_messages
    # ~3 messages per instance per sync round: matrices, request, reply
    bound = 3 * k * spec.m / window + 3 * k
    return {"theorem3.3.messages": (messages <= bound and messages < 0.05 * spec.m,
                                    {"messages": messages, "bound": bound, "m": spec.m})}


def _theorem42() -> dict:
    rng, checks = np.random.default_rng(0), []
    for k in (2, 3, 5, 10, 55):
        checks += [verify_theorem_42(rng.uniform(1.0, 64.0, size=500).tolist(), k)
                   for _ in range(50)]
        checks.append(gusfield_worst_case(k))
    broken, tight = sum(not c.holds for c in checks), sum(c.tight for c in checks)
    return {"theorem4.2.bound": (broken == 0 and tight >= 5, {
        "sequences": len(checks), "violations": broken, "tight": tight,
        "worst ratio/bound": max(c.ratio / c.bound for c in checks)})}


def _theorem43() -> dict:
    app = paper_numerical_application()
    weights = np.repeat(np.arange(1.0, 65.0), 4096 // 64)
    ratios = simulate_estimator_ratios(weights, cols=55, trials=200, rng=np.random.default_rng(1))
    error = max(abs(ratios[:, v].mean() / expected_estimator_ratio(weights[v], weights, 55) - 1)
                for v in (0, 2048, 4095))
    E, tail = (app.expectation_low, app.expectation_high), app.min_rows_bound_at_48
    return {"theorem4.3.expectation": (abs(E[0] - 32.08) <= 0.01 and abs(E[1] - 32.92) <= 0.01,
                                       {"E": E}),
            "theorem4.3.tail": (tail <= 0.024, {"Pr": tail}),
            "theorem4.3.monte_carlo": (
                error <= 0.03 and ratios.min() >= 1.0 - 1e-9 and ratios.max() <= 64.0 + 1e-9,
                {"relative error": error, "ratio range": (ratios.min(), ratios.max())})}


#: source -> its check (a figure's takes that figure's result), which
#: returns {claim id: (passed, measured: name -> number, or a sentence)}
CHECKS: dict[str, Callable[..., dict]] = {
    "figure4": _figure4, "figure5": _figure5, "figure6": _figure6,
    "figure7": _figure7, "figure8": _figure8, "figure9": _figure9,
    "figure10": _figure10, "figure11": _figure11, "figure12": _figure12,
    "theorem3.1": _theorem31, "theorem3.2": _theorem32, "theorem3.3": _theorem33,
    "theorem4.2": _theorem42, "theorem4.3": _theorem43,
}


def _text(measured: "dict | str") -> str:
    def number(value) -> str:
        if isinstance(value, tuple):
            return "/".join(map(number, value))
        return f"{value:.4g}" if isinstance(value, float) else str(value)
    return measured if isinstance(measured, str) else ", ".join(
        f"{name} {number(value)}" for name, value in measured.items())


def evaluate(figures: dict) -> list[dict]:
    """One table row per claim; a check that finds its figure missing or
    malformed fails its rows instead of stopping the table."""
    verdicts = {}
    for name, check in CHECKS.items():
        try:
            verdicts.update(check(figures[name]) if name.startswith("figure") else check())
        except (LookupError, ArithmeticError, TypeError, ValueError) as error:
            verdicts.update({claim: (False, f"{type(error).__name__}: {error}")
                             for claim in CLAIMS if source(claim) == name})
    return [{"claim": claim, "paper": paper, "measured": _text(measured),
             "verdict": "PASS" if passed else "FAIL"}
            for claim, paper in CLAIMS.items()
            for passed, measured in [verdicts.get(claim, (False, "not measured"))]]


def gate(figures: dict, directory=None) -> int:
    """Print the claim table, write ``claims.json``; 1 if a claim fails."""
    rows = evaluate(figures)
    failed = [row["claim"] for row in rows if row["verdict"] == "FAIL"]
    print("== claims: the paper's figures and theorems ==")
    print(format_table(rows, ["claim", "paper", "measured", "verdict"]))
    print(f"{len(rows) - len(failed)}/{len(rows)} claims pass"
          + "".join(f"\nFAIL {claim}" for claim in failed))
    if directory is not None:
        wrote(directory / "claims.json", {"claims": rows, "failed": failed})
    return 1 if failed else 0
