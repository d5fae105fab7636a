"""Item-frequency distributions over the universe ``[n]``.

The paper's synthetic streams draw each tuple's attribute value from
either a Uniform distribution or a Zipf distribution with skew
``alpha in {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}`` over ``n = 4096`` distinct
items (Section V-A).  Both are *finite-support* distributions; the Zipf
probabilities are ``p_rank = rank^-alpha / H_n(alpha)``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.bounds import COUNT, INDEX, NONNEGATIVE


class ItemDistribution(abc.ABC):
    """A probability distribution over items ``0 .. n-1``."""

    def __init__(self, n: int) -> None:
        self._n = COUNT.check("n", n)

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @abc.abstractmethod
    def probabilities(self) -> np.ndarray:
        """Per-item probabilities, shape ``(n,)``, summing to 1."""

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``m`` items i.i.d. from the distribution."""
        m = INDEX.check("m", m)
        return rng.choice(self._n, size=m, p=self.probabilities())

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short label used in experiment reports (e.g. ``zipf-1.0``)."""


class UniformItems(ItemDistribution):
    """Every item equally likely — the paper's worst case for POSG."""

    def probabilities(self) -> np.ndarray:
        return np.full(self._n, 1.0 / self._n)

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        m = INDEX.check("m", m)
        return rng.integers(0, self._n, size=m)

    @property
    def label(self) -> str:
        return "uniform"


class ZipfItems(ItemDistribution):
    """Finite Zipf: item of rank ``r`` (0-indexed item ``r-1``) has
    probability proportional to ``r^-alpha``.

    Item ids coincide with ranks (item 0 is the most frequent); stream
    generators randomize the item-to-execution-time association separately,
    so this choice loses no generality.
    """

    def __init__(self, n: int, alpha: float) -> None:
        super().__init__(n)
        self._alpha = alpha = NONNEGATIVE.check("alpha", alpha)
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        self._probabilities = weights / weights.sum()

    @property
    def alpha(self) -> float:
        """Skew parameter."""
        return self._alpha

    def probabilities(self) -> np.ndarray:
        return self._probabilities

    @property
    def label(self) -> str:
        return f"zipf-{self._alpha:g}"


def paper_distributions(n: int = 4096) -> list[ItemDistribution]:
    """The seven distributions of Figure 4, in plotting order."""
    return [UniformItems(n)] + [
        ZipfItems(n, alpha) for alpha in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    ]
