"""What every run-level experiment shares, written once.

``telemetry``, ``chaos``, ``observe`` and ``latency`` all size a
compact stream the same way, pick an engine the same way, gate on
engines agreeing and write artefacts under ``--output``.  Those four
decisions live here; the experiment modules keep only what they measure
and print.  Each runs the paper's one scheduler in one process.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

from repro.core.config import POSGConfig
from repro.experiments.runner import env_scale
from repro.simulator.run import SimulationResult, simulate_stream
from repro.workloads.synthetic import Stream, default_stream


@dataclass(frozen=True)
class Setup:
    """The fixed inputs of one run-level experiment."""

    stream: Stream
    config: POSGConfig
    seed: int
    chunk_size: int
    k: int = 5

    @property
    def m(self) -> int:
        return self.stream.m

    @property
    def window(self) -> int:
        return self.config.window_size


def compact_setup(scale: float | None, seed: int, chunk_size: int) -> Setup:
    """The compact configuration the control-plane experiments share.

    They stress synchronization and faults, not sketch accuracy: a
    small Count-Min (2 x 16) over a 128-item universe stabilizes within
    the first third of the stream at every scale.  The 8,192-tuple floor
    leaves a restarted instance room to re-stabilize; the window scales
    with the stream so short smoke runs still complete sync rounds.
    """
    scale = scale if scale is not None else env_scale()
    m = max(8_192, int(32_768 * scale))
    window = min(256, max(64, m // 128))
    return Setup(
        stream=default_stream(seed=seed, m=m, n=128),
        config=POSGConfig(window_size=window, rows=2, cols=16),
        seed=seed,
        chunk_size=chunk_size,
    )


def simulate(
    setup: Setup, policy, engine: str = "chunked", **options
) -> SimulationResult:
    """Run ``policy`` over the setup's stream on one engine.

    ``engine`` is ``"reference"`` (per-tuple, ``chunk_size=0``) or
    ``"chunked"`` (the setup's ``chunk_size``; 0 there selects the
    reference engine too).  Every run draws from the same
    ``seed + 1`` generator, which is what makes engines comparable;
    ``options`` (``faults=``, ``telemetry=``, ``audit=``, ``flight=``,
    ``lineage=``, ``scenario=``, ...) pass through unchanged.
    """
    options.update(k=setup.k, rng=np.random.default_rng(setup.seed + 1))
    chunk_size = {"reference": 0, "chunked": setup.chunk_size}[engine]
    return simulate_stream(
        setup.stream, policy, chunk_size=chunk_size, **options
    )


def _timelines(result: SimulationResult) -> tuple:
    return tuple(
        observer.timelines() if observer is not None else None
        for observer in (result.flight, result.lineage)
    )


def engines_agree(reference: SimulationResult, *others: SimulationResult) -> bool:
    """Whether every other run reproduced ``reference`` bit for bit.

    Compares completions, assignments, FSM transitions, control
    messages and bits, and the flight / lineage timelines of whichever
    recorders were attached (attached on one side only is a mismatch).
    """
    expected = _timelines(reference)
    return all(
        np.array_equal(reference.stats.completions, other.stats.completions)
        and np.array_equal(
            reference.stats.assignments, other.stats.assignments
        )
        and reference.state_transitions == other.state_transitions
        and reference.control_messages == other.control_messages
        and reference.control_bits == other.control_bits
        and _timelines(other) == expected
        for other in others
    )


def output_directory(output: str | None) -> pathlib.Path | None:
    """The ``--output`` directory, created; ``None`` without the flag."""
    if output is None:
        return None
    directory = pathlib.Path(output)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def wrote(path: pathlib.Path, content: "str | dict | None" = None) -> None:
    """Announce one artefact, writing ``content`` to it first when given.

    A dict is written as indented JSON; ``None`` announces a file some
    other writer (a report's ``save``, a tracer sink) already produced.
    """
    if isinstance(content, dict):
        content = json.dumps(content, indent=2) + "\n"
    if content is not None:
        path.write_text(content)
    print(f"wrote {path}")
