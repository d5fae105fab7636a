"""Item-to-execution-time models.

Section V-A: ``w_n`` distinct execution-time values are selected at
constant (or geometric) distance in ``[w_min, w_max]``; the association
between the ``n`` items and the ``w_n`` values is randomized per stream —
for each value, ``n / w_n`` distinct items are drawn uniformly at random.
The default setup is ``w_n = 64``, ``w_min = 1`` ms, ``w_max = 64`` ms,
i.e. execution times in ``{1, 2, ..., 64}`` ms.

All times in this package are expressed in **milliseconds**.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.bounds import COUNT


class Spacing(enum.Enum):
    """How the ``w_n`` values are spread over ``[w_min, w_max]``."""

    LINEAR = "linear"
    GEOMETRIC = "geometric"


def execution_time_values(
    w_n: int, w_min: float, w_max: float, spacing: Spacing = Spacing.LINEAR
) -> np.ndarray:
    """The ``w_n`` distinct execution-time values, ascending."""
    w_n = COUNT.check("w_n", w_n)
    if w_min <= 0 or w_max < w_min:
        raise ValueError(f"need 0 < w_min <= w_max, got [{w_min}, {w_max}]")
    if w_n == 1:
        return np.array([w_min], dtype=np.float64)
    if spacing is Spacing.LINEAR:
        return np.linspace(w_min, w_max, w_n)
    return np.geomspace(w_min, w_max, w_n)


class ExecutionTimeModel:
    """Maps every item of ``[n]`` to one of ``w_n`` execution-time values.

    Parameters
    ----------
    n:
        Universe size.
    w_n:
        Number of distinct execution-time values.
    w_min, w_max:
        Value range in milliseconds.
    spacing:
        Linear (paper default) or geometric value placement.
    rng:
        Randomizes the item-to-value association; each value receives
        ``n / w_n`` items (the remainder spreads over the first values),
        exactly as described in Section V-A.
    """

    def __init__(
        self,
        n: int,
        w_n: int = 64,
        w_min: float = 1.0,
        w_max: float = 64.0,
        spacing: Spacing = Spacing.LINEAR,
        rng: np.random.Generator | None = None,
    ) -> None:
        n = COUNT.check("n", n)
        if w_n > n:
            raise ValueError(f"w_n ({w_n}) cannot exceed n ({n})")
        rng = rng if rng is not None else np.random.default_rng()
        self._n = n
        self._values = execution_time_values(w_n, w_min, w_max, spacing)
        # Shuffle items, then deal them out to the w_n values round-robin:
        # each value gets floor(n/w_n) or ceil(n/w_n) distinct items.
        permutation = rng.permutation(n)
        self._time_of_item = np.empty(n, dtype=np.float64)
        self._time_of_item[permutation] = self._values[np.arange(n) % w_n]

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def values(self) -> np.ndarray:
        """The distinct execution-time values (ascending)."""
        return self._values

    @property
    def w_min(self) -> float:
        """Smallest execution time."""
        return float(self._values[0])

    @property
    def w_max(self) -> float:
        """Largest execution time."""
        return float(self._values[-1])

    def time_of(self, item: int) -> float:
        """Base execution time of one item, in milliseconds."""
        return float(self._time_of_item[item])

    def times_of(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`time_of`."""
        return self._time_of_item[np.asarray(items)]

    def table(self) -> np.ndarray:
        """The full item -> time lookup table (copy)."""
        return self._time_of_item.copy()

    def average_time(self, probabilities: np.ndarray) -> float:
        """Expected execution time under an item distribution."""
        probabilities = np.asarray(probabilities)
        if probabilities.shape != (self._n,):
            raise ValueError(
                f"probabilities must have shape ({self._n},), got {probabilities.shape}"
            )
        return float(self._time_of_item @ probabilities)


class ClassBasedTimeModel:
    """Execution time by item *class* (the Twitter application of Fig. 12).

    Items carry a class id; every class has a fixed execution time (the
    paper models media 25 ms, politicians 5 ms, others 1 ms of busy
    waiting).
    """

    def __init__(self, class_of_item: np.ndarray, time_of_class: dict[int, float]) -> None:
        class_of_item = np.asarray(class_of_item)
        missing = set(np.unique(class_of_item).tolist()) - set(time_of_class)
        if missing:
            raise ValueError(f"classes without a time: {sorted(missing)}")
        if any(t < 0 for t in time_of_class.values()):
            raise ValueError("class times must be >= 0")
        self._class_of_item = class_of_item
        self._time_of_class = dict(time_of_class)
        lookup = np.zeros(int(class_of_item.max()) + 1, dtype=np.float64)
        for cls, time in time_of_class.items():
            lookup[cls] = time
        self._time_of_item = lookup[class_of_item]

    @property
    def n(self) -> int:
        """Universe size."""
        return self._class_of_item.shape[0]

    def class_of(self, item: int) -> int:
        """Class id of one item."""
        return int(self._class_of_item[item])

    def time_of(self, item: int) -> float:
        """Execution time of one item, in milliseconds."""
        return float(self._time_of_item[item])

    def times_of(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`time_of`."""
        return self._time_of_item[np.asarray(items)]

    def table(self) -> np.ndarray:
        """The full item -> time lookup table (copy)."""
        return self._time_of_item.copy()
