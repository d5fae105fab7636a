"""The scheduler FSM's edge table, ``TRANSITIONS``.

``POSGScheduler._transition`` is the only writer of the FSM state and
refuses any edge the table lacks, and any recovery-only edge (no
Figure 3 label) while ``config.recovery`` is ``None``.  The scripted
scenarios below take every edge of the table, so it carries no dead
edge, and DESIGN §1 renders the same table.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage, SyncReply
from repro.core.scheduler import TRANSITIONS, Edge, POSGScheduler, SchedulerState

RR, SA, WA, RUN = SchedulerState
K = 2
DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def scheduler_for(recovery=None) -> POSGScheduler:
    return POSGScheduler(K, POSGConfig(rows=2, cols=8, recovery=recovery))


def deliver_matrices(scheduler, instances=range(K)) -> None:
    hashes = make_shared_hashes(scheduler.config, np.random.default_rng(0))
    for instance in instances:
        scheduler.on_message(
            MatricesMessage(instance=instance, matrices=FWPair(hashes), tuples_observed=0)
        )


def submit_until(scheduler, done, limit=200) -> None:
    for _ in range(limit):
        if done():
            return
        scheduler.submit(0)
    raise AssertionError("scenario did not reach its state")


def reply_all(scheduler) -> None:
    for instance in range(K):
        scheduler.on_message(
            SyncReply(instance=instance, epoch=scheduler.epoch, delta=0.0)
        )


def paper_scenario() -> None:
    scheduler = scheduler_for()
    deliver_matrices(scheduler)  # RR -> SA
    deliver_matrices(scheduler, [0])  # SA -> SA
    submit_until(scheduler, lambda: scheduler.state is WA)  # SA -> WA
    deliver_matrices(scheduler, [0])  # WA -> SA
    submit_until(scheduler, lambda: scheduler.state is WA)
    reply_all(scheduler)  # WA -> RUN
    deliver_matrices(scheduler, [1])  # RUN -> SA


def retransmit_and_abandon_scenario() -> None:
    scheduler = scheduler_for(
        RecoveryConfig(sync_timeout=2, sync_timeout_max=4, sync_max_retries=1,
                       staleness_limit=None, rebroadcast_windows=None)
    )
    deliver_matrices(scheduler)
    submit_until(scheduler, lambda: scheduler.state is WA)
    submit_until(scheduler, lambda: scheduler.sync_retransmits == 1)  # WA -> SA
    submit_until(scheduler, lambda: scheduler.state is RUN)  # WA -> RUN, abandoned
    assert scheduler.sync_rounds_abandoned == 1


def watchdog_scenario() -> None:
    scheduler = scheduler_for(
        RecoveryConfig(sync_timeout=1_000, sync_timeout_max=1_000,
                       staleness_limit=10, rebroadcast_windows=None)
    )
    deliver_matrices(scheduler)
    submit_until(scheduler, lambda: scheduler.state is WA)
    submit_until(scheduler, lambda: scheduler.state is RR)  # WA -> RR
    deliver_matrices(scheduler)
    submit_until(scheduler, lambda: scheduler.state is WA)
    reply_all(scheduler)
    submit_until(scheduler, lambda: scheduler.state is RR)  # RUN -> RR
    assert scheduler.watchdog_fallbacks == 2


def test_scripted_scenarios_take_every_edge(monkeypatch):
    taken = set()
    transition = POSGScheduler._transition

    def recording(self, new_state):
        taken.add((self.state, new_state))
        transition(self, new_state)

    monkeypatch.setattr(POSGScheduler, "_transition", recording)
    paper_scenario()
    retransmit_and_abandon_scenario()
    watchdog_scenario()
    assert taken == set(TRANSITIONS)


@pytest.mark.parametrize(
    "edge",
    [(a, b) for a in SchedulerState for b in SchedulerState if (a, b) not in TRANSITIONS],
    ids=lambda edge: f"{edge[0].name}->{edge[1].name}",
)
def test_an_edge_missing_from_the_table_raises(edge):
    source, target = edge
    scheduler = scheduler_for(RecoveryConfig())
    scheduler._state = source
    with pytest.raises(RuntimeError, match="illegal scheduler transition"):
        scheduler._transition(target)
    assert scheduler.state is source


def test_recovery_only_edges_are_refused_without_recovery():
    recovery_only = [edge for edge, why in TRANSITIONS.items() if why.figure is None]
    assert (WA, RR) in recovery_only
    scheduler = scheduler_for()
    deliver_matrices(scheduler)
    submit_until(scheduler, lambda: scheduler.state is WA)
    with pytest.raises(RuntimeError, match="WAIT_ALL -> ROUND_ROBIN"):
        scheduler._transition(RR)
    assert scheduler.state is WA


def test_design_renders_the_table():
    section = DESIGN.read_text().split("\n## 2.")[0]
    rows = re.findall(
        r"^\| ([A-Z_]+) \| ([A-Z_]+) \| ([^|]*)\| ([^|]*)\|$", section, re.MULTILINE
    )
    rendered = {
        (SchedulerState[source], SchedulerState[target]): Edge(
            figure.strip() or None,
            tuple(cause for cause in causes.strip().split(", ") if cause),
        )
        for source, target, figure, causes in rows
    }
    assert len(rows) == len(rendered)
    assert rendered == TRANSITIONS
