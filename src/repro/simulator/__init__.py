"""Discrete-event simulation substrate.

The paper's simulation results (Figures 4–10) come from a custom
simulator of a single scheduling stage: a source injects tuples at a
constant rate, a scheduler operator ``S`` routes each tuple to one of
``k`` downstream operator instances, and each instance executes its FIFO
queue without preemption.

Two execution paths are provided:

- :func:`~repro.simulator.run.simulate_stream` — a fast direct simulation
  of the single-stage topology (the workhorse behind every figure);
- :mod:`~repro.simulator.engine` + :mod:`~repro.simulator.topology` — a
  general discrete-event engine with explicit source / scheduler /
  instance processes, used by the Storm-like engine and to cross-validate
  the fast path (they must agree tuple-for-tuple).
"""

from repro.simulator.engine import Simulation
from repro.simulator.network import (
    ConstantLatency,
    LatencyModel,
    LognormalLatency,
    UniformLatency,
)
from repro.simulator.metrics import CompletionStats
from repro.simulator.parallel import simulate_stream_parallel
from repro.simulator.run import SimulationResult, simulate_stream
from repro.simulator.topology import StageTopology

__all__ = [
    "Simulation",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "CompletionStats",
    "SimulationResult",
    "simulate_stream",
    "simulate_stream_parallel",
    "StageTopology",
]
