"""Workload substrate: the streams the paper evaluates on.

Section V-A of the paper describes synthetic streams (item frequencies
drawn from Uniform or Zipf-alpha distributions, execution times drawn from
``w_n`` distinct values in ``[w_min, w_max]`` with a randomized
item-to-time association) and one real dataset (tweets mentioning Italian
political entities).  We have no access to the proprietary Twitter crawl,
so :mod:`repro.workloads.twitter` generates a synthetic stream *fitted to
every statistic the paper reports* about it — see DESIGN.md for the
substitution rationale.
"""

from repro.workloads.distributions import (
    ItemDistribution,
    UniformItems,
    ZipfItems,
)
from repro.workloads.exectime import ExecutionTimeModel, Spacing
from repro.workloads.synthetic import Stream, StreamSpec, generate_stream
from repro.workloads.twitter import TwitterDatasetSpec, generate_twitter_stream
from repro.workloads.nonstationary import LoadShiftScenario

__all__ = [
    "ItemDistribution",
    "UniformItems",
    "ZipfItems",
    "ExecutionTimeModel",
    "Spacing",
    "Stream",
    "StreamSpec",
    "generate_stream",
    "TwitterDatasetSpec",
    "generate_twitter_stream",
    "LoadShiftScenario",
]
