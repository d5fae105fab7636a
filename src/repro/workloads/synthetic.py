"""Synthetic stream generation (Section V-A).

A generated :class:`Stream` bundles, for ``m`` tuples:

- ``items`` — the attribute value driving the execution time;
- ``base_times`` — the execution time of each tuple on a *nominal*
  (multiplier 1.0) instance, in milliseconds;
- ``arrivals`` — the injection timestamps, from a constant-rate arrival
  process derived from the *over-provisioning percentage*: with ``W_bar``
  the stream's average execution time, the maximum sustainable throughput
  of ``k`` instances is ``k / W_bar``; an over-provisioning of ``p``
  (e.g. 1.0 = 100 %) sets the actual input rate to ``(k / W_bar) / p``,
  i.e. inter-arrival ``p * W_bar / k``.

``p > 1`` means the system is over-provisioned (queues drain), ``p < 1``
undersized (queues grow) — matching Figure 5's x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import check_bounds, integer, real
from repro.workloads.distributions import ItemDistribution, ZipfItems
from repro.workloads.exectime import ExecutionTimeModel, Spacing


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of a synthetic stream (defaults = Section V-A).

    ``arrival_process`` selects the injection process: ``"constant"``
    (the paper's fixed inter-arrival delay) or ``"poisson"`` (exponential
    inter-arrivals with the same mean rate — a burstiness robustness
    extension; queues are strictly harder under Poisson arrivals).
    """

    m: int = integer(32_768, low=1)
    n: int = integer(4_096, low=1)
    w_n: int = integer(64, low=1)
    w_min: float = real(1.0, low=0, open_low=True)
    w_max: float = real(64.0, low=0, open_low=True)
    spacing: Spacing = Spacing.LINEAR
    k: int = integer(5, low=1)
    over_provisioning: float = real(1.0, low=0, open_low=True)
    arrival_process: str = "constant"

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.arrival_process not in ("constant", "poisson"):
            raise ValueError(
                f"arrival_process must be 'constant' or 'poisson', "
                f"got {self.arrival_process!r}"
            )


@dataclass(frozen=True)
class Stream:
    """A fully materialized input stream."""

    items: np.ndarray
    base_times: np.ndarray
    arrivals: np.ndarray
    n: int = integer(low=1)
    #: item -> nominal execution time lookup (for oracles and heterogeneity)
    time_table: np.ndarray
    label: str = "stream"

    def __post_init__(self) -> None:
        check_bounds(self)
        if not (len(self.items) == len(self.base_times) == len(self.arrivals)):
            raise ValueError("items, base_times and arrivals must align")

    @property
    def m(self) -> int:
        """Stream length."""
        return len(self.items)

    @property
    def average_time(self) -> float:
        """Empirical mean execution time ``W_bar`` (milliseconds)."""
        return float(self.base_times.mean())

    def time_of(self, item: int) -> float:
        """Nominal execution time of an item (oracle access)."""
        return float(self.time_table[item])


def arrival_times(
    m: int,
    k: int,
    average_time: float,
    over_provisioning: float,
    process: str = "constant",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Arrival timestamps for the given provisioning level.

    ``process="constant"`` gives the paper's fixed inter-arrival delay;
    ``"poisson"`` draws exponential inter-arrivals with the same mean.
    """
    if average_time <= 0:
        # Degenerate all-zero-work stream: arrivals collapse to time zero.
        return np.zeros(m)
    inter_arrival = over_provisioning * average_time / k
    if process == "constant":
        return np.arange(m, dtype=np.float64) * inter_arrival
    if process == "poisson":
        rng = rng if rng is not None else np.random.default_rng()
        gaps = rng.exponential(inter_arrival, size=m)
        gaps[0] = 0.0
        return np.cumsum(gaps)
    raise ValueError(f"unknown arrival process {process!r}")


def generate_stream(
    distribution: ItemDistribution,
    spec: StreamSpec | None = None,
    rng: np.random.Generator | None = None,
) -> Stream:
    """Generate one randomized stream per the paper's recipe.

    The item-to-execution-time association is re-randomized per call (the
    paper generates 100 such streams per configuration), so repeated calls
    with the same ``rng`` yield *different* streams with the same law.
    """
    spec = spec if spec is not None else StreamSpec()
    rng = rng if rng is not None else np.random.default_rng()
    if distribution.n != spec.n:
        raise ValueError(
            f"distribution universe ({distribution.n}) != spec.n ({spec.n})"
        )
    model = ExecutionTimeModel(
        n=spec.n,
        w_n=spec.w_n,
        w_min=spec.w_min,
        w_max=spec.w_max,
        spacing=spec.spacing,
        rng=rng,
    )
    items = distribution.sample(spec.m, rng)
    base_times = model.times_of(items)
    arrivals = arrival_times(
        spec.m, spec.k, float(base_times.mean()), spec.over_provisioning,
        process=spec.arrival_process, rng=rng,
    )
    return Stream(
        items=items,
        base_times=base_times,
        arrivals=arrivals,
        n=spec.n,
        time_table=model.table(),
        label=distribution.label,
    )


def default_stream(seed: int = 0, **overrides) -> Stream:
    """The paper's default stream: Zipf-1.0 with Section V-A parameters."""
    spec = StreamSpec(**overrides)
    return generate_stream(
        ZipfItems(spec.n, 1.0), spec, np.random.default_rng(seed)
    )
