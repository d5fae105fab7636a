"""FIFO service landed after routing (``repro.simulator.run._Service``).

The segment loops only route; each instance's finish times are written
later, by ``_fifo_chain``, wherever a busy clock or a tracker is read,
and the same batch is reported to the instance's tracker.  These tests
hold the chain to the reference engine's per-tuple recurrence, hold a
run that samples lineage at every tuple to the reference engine, and
count the landings and the trackers' folds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import POSGConfig
from repro.core.grouping import POSGGrouping
from repro.core.instance import InstanceTracker
from repro.core.matrices import FWPair
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.faults import CrashFault, FaultPlan
from repro.simulator.run import _SCALAR_RUN, _SPAN, _fifo_chain, simulate_stream
from repro.telemetry.lineage import LineageConfig
from repro.workloads.synthetic import default_stream


def scalar_chain(busy, at, times):
    """The reference engine's per-tuple FIFO recurrence."""
    b = busy
    finishes = []
    for a, x in zip(at.tolist(), times.tolist()):
        if a > b:
            b = a
        b = b + x
        finishes.append(b)
    return np.array(finishes, dtype=np.float64), b


@st.composite
def runs(draw):
    """One instance's run: ``(busy, at, times, ordered)``.

    Each arrival is placed against the previous finish: queued behind
    it, exactly on it (a tie), or after it (an idle gap, which restarts
    the running sum), in proportions drawn per run so that some runs
    restart more often than the scalar cut-over allows, and some stretch
    past one running sum's span.  An ``ordered`` run has its arrivals
    sorted, as constant latencies leave them.
    """
    n = draw(
        st.one_of(
            st.integers(0, 2),
            st.integers(0, 3 * _SCALAR_RUN),
            st.integers(_SPAN - 2, 2 * _SPAN + 40),
        )
    )
    busy = draw(st.sampled_from([0.0, 0.25, 7.5, 1e6]))
    gap = draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]))
    tie = draw(st.sampled_from([0.0, 0.1, 0.5]))
    zero = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.exponential(1.0, n)
    times[rng.random(n) < zero] = 0.0
    at = np.empty(n)
    b = busy
    for position, kind in enumerate(rng.random(n)):
        if kind < gap:
            a = b + rng.exponential(2.0)
        elif kind < gap + tie:
            a = b
        else:
            a = max(0.0, b - rng.exponential(4.0))
        at[position] = a
        if a > b:
            b = a
        b = b + times[position]
    ordered = draw(st.booleans())
    if ordered:
        at.sort()
    return busy, at, times, ordered


class TestFifoChain:
    @settings(max_examples=300, deadline=None)
    @given(runs())
    @example((0.0, np.empty(0), np.empty(0), False))
    @example((3.5, np.array([1.0]), np.array([0.0]), True))
    @example((3.5, np.array([4.0]), np.array([2.0]), False))
    def test_matches_the_scalar_recurrence_bit_for_bit(self, run):
        busy, at, times, ordered = run
        finishes, after = _fifo_chain(busy, at, times, ordered)
        expected, expected_after = scalar_chain(busy, at, times)
        assert finishes.dtype == np.float64
        assert finishes.tobytes() == expected.tobytes()
        assert type(after) is float
        assert after == expected_after

    def test_an_idle_gap_restarts_at_the_arrival(self):
        # busy from 10; a tuple arriving at 100 finds the instance idle
        at = np.array([0.0] * _SCALAR_RUN + [100.0] + [100.0] * _SCALAR_RUN)
        times = np.full(at.shape[0], 0.1)
        finishes, after = _fifo_chain(10.0, at, times, ordered=True)
        expected, _ = scalar_chain(10.0, at, times)
        assert finishes.tobytes() == expected.tobytes()
        assert finishes[_SCALAR_RUN] == 100.0 + 0.1
        assert after == finishes[-1]


def crash_plan(stream):
    return FaultPlan(
        seed=5,
        crashes=(
            CrashFault(
                instance=1,
                at_ms=float(stream.arrivals[stream.m // 3]),
                outage_ms=300.0,
            ),
        ),
    )


class TestServiceAtEverySample:
    """Lineage at ``sample_every=1`` records a placeholder span at every
    tuple the kernel routes, which the next landing fills, beside window
    closes, a crash and per-instance data latencies; the reference
    engine records its clocks inline."""

    @pytest.mark.parametrize("sources", [1, 3])
    def test_lineage_reports_match_the_reference(self, sources):
        stream = default_stream(seed=2, m=6_000, n=64)
        config = POSGConfig(window_size=64, rows=2, cols=16)
        results = []
        for chunk_size, lineage in ((0, True), (256, True), (256, False)):
            results.append(
                simulate_stream(
                    stream,
                    MultiSourcePOSGGrouping(sources, config),
                    k=5,
                    rng=np.random.default_rng(4),
                    chunk_size=chunk_size,
                    data_latency=[0.0, 3.0, 0.5, 1.5, 3.0],
                    faults=crash_plan(stream),
                    lineage=LineageConfig(sample_every=1) if lineage else None,
                )
            )
        reference, chunked, unobserved = results
        assert chunked.engine["path"] == "segment"
        assert chunked.engine["kernel"] == f"k=5 s={sources}"
        assert chunked.faults.report()["injected"]["crashes"] == 1
        np.testing.assert_array_equal(
            reference.stats.completions, chunked.stats.completions
        )
        np.testing.assert_array_equal(
            reference.stats.assignments, chunked.stats.assignments
        )
        assert reference.lineage.timelines() == chunked.lineage.timelines()
        assert reference.lineage.report() == chunked.lineage.report()
        assert len(chunked.lineage.records()) == stream.m
        # a sample lands nothing of its own
        assert chunked.engine["serves"] == unobserved.engine["serves"]


class TestTrackerFolds:
    """The trackers fold their sketches once per window close (plus once
    per crash), however often the engine lands their reports."""

    @pytest.mark.parametrize("crash", [False, True], ids=["plain", "crash"])
    def test_one_fold_per_window_close(self, crash, monkeypatch):
        folds, closes = Counter(), Counter()
        fold = FWPair.fold
        window_boundary = InstanceTracker._window_boundary

        def counting_folds(pair, items, times):
            folds[id(pair)] += 1
            fold(pair, items, times)

        def counting_closes(tracker):
            closes[tracker.instance_id] += 1
            return window_boundary(tracker)

        monkeypatch.setattr(FWPair, "fold", counting_folds)
        monkeypatch.setattr(InstanceTracker, "_window_boundary", counting_closes)
        stream = default_stream(seed=0, m=2**15)
        result = simulate_stream(
            stream, POSGGrouping(POSGConfig.paper_defaults()), k=5,
            rng=np.random.default_rng(1),
            faults=crash_plan(stream) if crash else None,
        )
        engine = result.engine
        assert engine["path"] == "segment" and engine["fallback_tuples"] > 0
        counted = dict(folds)
        trackers = [result.policy.tracker(instance) for instance in range(5)]
        assert sum(t.restarts for t in trackers) == crash
        for instance, tracker in enumerate(trackers):
            assert closes[instance] > 0
            assert counted[id(tracker.matrices)] == closes[instance] + tracker.restarts
