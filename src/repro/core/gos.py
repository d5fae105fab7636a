"""The Greedy Online Scheduler (GOS) and makespan utilities.

Section III-A / IV-A of the paper: schedule a sequence of independent,
non-preemptible tasks online on ``k`` machines by always assigning the
next task to the least-loaded machine.  Theorem 4.2 proves
``C_GOS <= (2 - 1/k) * C_OPT`` and the bound is tight (Gusfield 1984).

These standalone functions back the theoretical analysis and the
``Full Knowledge`` baseline; the runtime scheduler lives in
:mod:`repro.core.scheduler`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from repro.bounds import COUNT


def greedy_online_schedule(
    weights: Iterable[float], k: int
) -> tuple[list[int], list[float]]:
    """Assign each task to the currently least-loaded machine.

    Parameters
    ----------
    weights:
        Task processing times, in arrival order.
    k:
        Number of identical machines.

    Returns
    -------
    (assignment, loads):
        ``assignment[j]`` is the machine of task ``j``; ``loads`` the final
        per-machine cumulated load.  Ties break toward the lowest machine
        index, matching ``numpy.argmin`` in the runtime scheduler.
    """
    k = COUNT.check("k", k)
    # (load, machine) heap gives O(m log k); machine index tie-breaks.
    heap = [(0.0, machine) for machine in range(k)]
    loads = [0.0] * k
    assignment: list[int] = []
    for weight in weights:
        if weight < 0:
            raise ValueError(f"task weights must be >= 0, got {weight}")
        load, machine = heapq.heappop(heap)
        assignment.append(machine)
        load += weight
        loads[machine] = load
        heapq.heappush(heap, (load, machine))
    return assignment, loads


def makespan(loads: Sequence[float]) -> float:
    """Makespan of a schedule: the maximum machine load."""
    if not loads:
        raise ValueError("loads must be non-empty")
    return max(loads)


def opt_lower_bound(weights: Sequence[float], k: int) -> float:
    """Lower bound on the optimal makespan (Eqs. 3 and 4 of the paper).

    ``C_OPT >= max(sum(w)/k, max(w))``.
    """
    k = COUNT.check("k", k)
    weights = list(weights)
    if not weights:
        return 0.0
    return max(sum(weights) / k, max(weights))


def gos_approximation_ratio(weights: Sequence[float], k: int) -> float:
    """Observed ``C_GOS / lower_bound(C_OPT)``; Theorem 4.2 caps it at 2-1/k.

    Because the true ``C_OPT`` is NP-hard, the ratio is computed against
    the lower bound, which only makes the check *stricter*.
    """
    _, loads = greedy_online_schedule(weights, k)
    bound = opt_lower_bound(weights, k)
    if bound == 0:
        return 1.0
    return makespan(loads) / bound


def lpt_schedule(weights: Sequence[float], k: int) -> tuple[list[int], list[float]]:
    """Offline Longest-Processing-Time-first schedule (4/3-approximation).

    A classical offline comparator: sort descending, then greedy.  Used by
    the analysis benchmarks to contextualize the online penalty.
    ``assignment`` is indexed by the *original* task positions.
    """
    order = sorted(range(len(weights)), key=lambda j: -weights[j])
    sorted_assignment, loads = greedy_online_schedule(
        [weights[j] for j in order], k
    )
    assignment = [0] * len(weights)
    for rank, original in enumerate(order):
        assignment[original] = sorted_assignment[rank]
    return assignment, loads


def adversarial_sequence(k: int, w_max: float = 1.0) -> list[float]:
    """The tight worst case for GOS (Section IV-A, after Theorem 4.2).

    ``k*(k-1)`` tasks of weight ``w_max/k`` followed by one task of weight
    ``w_max``: GOS ends with makespan ``w_max * (2 - 1/k)`` while OPT packs
    the small tasks on ``k-1`` machines and achieves ``w_max``.
    """
    k = COUNT.check("k", k)
    return [w_max / k] * (k * (k - 1)) + [w_max]


def completion_times_online(
    arrivals: Sequence[float],
    weights: Sequence[float],
    assignment: Sequence[int],
    k: int,
) -> list[float]:
    """Per-task completion times under FIFO queues and a fixed assignment.

    Task ``j`` arrives at ``arrivals[j]``, is routed to machine
    ``assignment[j]``, waits for every earlier task on that machine, runs
    ``weights[j]``, and its completion time is ``finish - arrivals[j]``.
    This is the queueing model behind the paper's metric ``L``.
    """
    if not len(arrivals) == len(weights) == len(assignment):
        raise ValueError("arrivals, weights and assignment must align")
    busy_until = [0.0] * k
    completions: list[float] = []
    for arrival, weight, machine in zip(arrivals, weights, assignment):
        start = max(arrival, busy_until[machine])
        finish = start + weight
        busy_until[machine] = finish
        completions.append(finish - arrival)
    return completions
