"""Experiment harness regenerating every table and figure of the paper.

Each ``figure*`` function in :mod:`~repro.experiments.figures` rebuilds
one plot of Section V as structured rows; the ``benchmarks/`` tree wraps
them in pytest-benchmark targets that print the same series the paper
reports.  The run-level experiments (``telemetry``, ``chaos``,
``observe``, ``multisource``, ``attribution``, ``latency``) are one
module each on :mod:`~repro.experiments.scaffold`, and
:mod:`~repro.experiments.cli` holds the one table of commands
``python -m repro.experiments`` accepts.

Cost scaling: the paper aggregates over 100 randomized streams per
configuration; that is hours of CPU.  ``REPRO_REPS`` (default 5) sets
the repetition count and ``REPRO_SCALE`` (default 1.0) scales stream
lengths; shapes are stable from roughly 5-10 repetitions.  The CLI's
``--reps`` / ``--scale`` set them for one command and restore them.
"""

from repro.experiments.runner import (
    ExperimentSettings,
    PolicyOutcome,
    SWEEP_POSG_CONFIG,
    compare_policies,
    env_reps,
    env_scale,
)
from repro.experiments.figures import (
    FigureResult,
    figure4_distributions,
    figure5_overprovisioning,
    figure6_wmax,
    figure7_wn,
    figure8_instances,
    figure9_epsilon,
    figure10_timeseries,
    figure11_prototype_timeseries,
    figure12_twitter,
)
from repro.experiments.report import format_table, render_figure

__all__ = [
    "ExperimentSettings",
    "PolicyOutcome",
    "SWEEP_POSG_CONFIG",
    "compare_policies",
    "env_reps",
    "env_scale",
    "FigureResult",
    "figure4_distributions",
    "figure5_overprovisioning",
    "figure6_wmax",
    "figure7_wn",
    "figure8_instances",
    "figure9_epsilon",
    "figure10_timeseries",
    "figure11_prototype_timeseries",
    "figure12_twitter",
    "format_table",
    "render_figure",
]
