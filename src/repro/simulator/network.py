"""Network latency models.

The paper's completion-time metric includes network latencies (Section
II); its simulations focus on queuing delay, so the default everywhere is
zero data-plane latency and a small constant control-plane latency (the
matrices/sync round trips of Figure 1 travel over the network and the
time series of Figure 10 shows the resulting adaptation lag).
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.bounds import NONNEGATIVE


class LatencyModel(abc.ABC):
    """Per-message network delay, in milliseconds."""

    @abc.abstractmethod
    def sample(self) -> float:
        """Delay for the next message."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` milliseconds."""

    def __init__(self, value: float = 0.0) -> None:
        self._value = NONNEGATIVE.check("latency", value)

    @property
    def value(self) -> float:
        """The constant delay."""
        return self._value

    def sample(self) -> float:
        return self._value


class UniformLatency(LatencyModel):
    """Uniform jitter in ``[low, high]`` milliseconds."""

    def __init__(
        self, low: float, high: float, rng: np.random.Generator | None = None
    ) -> None:
        if not (0 <= low <= high and math.isfinite(high)):
            raise ValueError(
                f"need 0 <= low <= high, both finite, got [{low}, {high}]"
            )
        self._low = low
        self._high = high
        self._rng = rng if rng is not None else np.random.default_rng()

    def sample(self) -> float:
        return float(self._rng.uniform(self._low, self._high))


class LognormalLatency(LatencyModel):
    """Heavy-tailed delay: ``base + Lognormal(mean, sigma)`` milliseconds.

    Wide-area control-plane latencies are famously heavy-tailed, and a
    heavy tail is what makes message *reordering* interesting: one slow
    matrices message can arrive after the sync round it preempted.
    ``mean`` and ``sigma`` parameterize the underlying normal (the
    standard numpy convention); ``base`` adds a constant propagation
    floor.
    """

    def __init__(
        self,
        mean: float,
        sigma: float,
        base: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not math.isfinite(mean):
            raise ValueError(f"mean must be finite, got {mean}")
        self._mean = mean
        self._sigma = NONNEGATIVE.check("sigma", sigma)
        self._base = NONNEGATIVE.check("base", base)
        self._rng = rng if rng is not None else np.random.default_rng()

    def sample(self) -> float:
        return self._base + float(self._rng.lognormal(self._mean, self._sigma))
