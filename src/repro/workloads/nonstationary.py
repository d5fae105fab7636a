"""Non-stationary load scenarios (Figures 10 and 11).

The paper's time-series experiment runs a stream of ``m = 150,000``
tuples split into two halves.  Tuple execution times on instances
``1..5`` are multiplied by ``(1.05, 1.025, 1.0, 0.975, 0.95)`` during the
first 75,000 tuples and by ``(0.90, 0.95, 1.0, 1.05, 1.10)`` for the
rest, mimicking an abrupt exogenous change in the instances' load
characteristics.

:class:`LoadShiftScenario` generalizes this to arbitrary phase schedules
and instance counts; engines query ``multiplier(instance, tuple_index)``
when a tuple starts executing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import POSITIVE

#: the paper's phase multipliers for k = 5 (Figure 10)
PAPER_PHASE1 = (1.05, 1.025, 1.0, 0.975, 0.95)
PAPER_PHASE2 = (0.90, 0.95, 1.0, 1.05, 1.10)


@dataclass(frozen=True)
class LoadShiftScenario:
    """Per-instance execution-time multipliers changing at phase boundaries.

    Parameters
    ----------
    phases:
        Sequence of per-instance multiplier tuples, one per phase.
    boundaries:
        Tuple indices at which the next phase begins; must be ascending
        and contain exactly ``len(phases) - 1`` entries.
    """

    phases: tuple[tuple[float, ...], ...]
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("need at least one phase")
        if len(self.boundaries) != len(self.phases) - 1:
            raise ValueError(
                f"{len(self.phases)} phases need {len(self.phases) - 1} "
                f"boundaries, got {len(self.boundaries)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly ascending")
        k = len(self.phases[0])
        if any(len(phase) != k for phase in self.phases):
            raise ValueError("all phases must cover the same instance count")
        for phase in self.phases:
            for multiplier in phase:
                POSITIVE.check("multipliers", multiplier)

    @property
    def k(self) -> int:
        """Instance count covered by the schedule."""
        return len(self.phases[0])

    def phase_of(self, tuple_index: int) -> int:
        """Phase active when the ``tuple_index``-th tuple executes."""
        return int(np.searchsorted(self.boundaries, tuple_index, side="right"))

    def multiplier(self, instance: int, tuple_index: int) -> float:
        """Execution-time multiplier for one instance at one stream position."""
        return self.phases[self.phase_of(tuple_index)][instance]

    def multiplier_matrix(self, m: int) -> np.ndarray:
        """Vectorized multipliers for positions ``0..m-1``: shape ``(m, k)``.

        ``multiplier_matrix(m)[j, i] == multiplier(i, j)`` exactly (the
        table holds the same Python floats, merely gathered in bulk); the
        chunked simulator uses this to hoist the per-tuple
        ``np.searchsorted`` out of the hot loop.  A single-phase schedule
        returns a read-only view of its one row repeated ``m`` times
        (``k`` floats, zero stride along the stream); callers that need
        to write take a copy.
        """
        phase_table = np.asarray(self.phases, dtype=np.float64)
        if not self.boundaries:
            return np.broadcast_to(phase_table[0], (m, self.k))
        indices = np.searchsorted(
            np.asarray(self.boundaries), np.arange(m), side="right"
        )
        return phase_table[indices]

    @classmethod
    def paper_figure10(cls, m: int = 150_000) -> "LoadShiftScenario":
        """The exact scenario of Figures 10/11: shift at ``m // 2``."""
        return cls(phases=(PAPER_PHASE1, PAPER_PHASE2), boundaries=(m // 2,))

    @classmethod
    def constant(cls, k: int, multipliers: tuple[float, ...] | None = None) -> "LoadShiftScenario":
        """A single-phase (stationary) schedule; uniform by default."""
        phase = multipliers if multipliers is not None else tuple([1.0] * k)
        return cls(phases=(phase,), boundaries=())
