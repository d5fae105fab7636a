"""Theorem 4.3 — expectation of the sketch estimator under uniform
frequencies, and the tail bounds of Section IV-B.

With ``n`` items of equal frequency hashed into ``c`` columns, the
estimator ``W_v / C_v`` of item ``v``'s execution time ``w_v`` satisfies

    E{W_v / C_v} = (S - w_v)/(n - 1)
                   - c (S - n w_v) / (n (n - 1)) * (1 - (1 - 1/c)^n)

where ``S = sum_u w_u`` (the paper writes the column count as ``k``).
The expectation is independent of the stream length ``m``.

The paper's numerical application takes ``c = 55``, ``n = 4096`` and
execution times ``1..64`` (each held by 64 items): every
``E{W_v/C_v}`` lands in ``[32.08, 32.92]`` — i.e. the estimator
collapses toward the global mean under uniform frequencies, which is why
POSG shines on *skewed* streams.  The Markov bound gives
``Pr{W_v/C_v >= 64a} <= 33/(64a)`` and row independence sharpens it to
``(33/(64a))^r``; with ``a = 3/4`` and ``r = 10``:
``Pr{min_rows >= 48} <= (11/16)^10 <= 0.024``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bounds import COUNT, POSITIVE, Bound
from repro.sketches.hashing import random_hash_family


def expected_estimator_ratio(
    w_v: float, weights: Sequence[float], cols: int
) -> float:
    """Closed-form ``E{W_v/C_v}`` of Theorem 4.3.

    Parameters
    ----------
    w_v:
        The item's true execution time.
    weights:
        Execution times of *all* ``n`` items (including ``v``).
    cols:
        Number of columns ``c`` of one sketch row.
    """
    n = len(weights)
    if n < 2:
        raise ValueError("Theorem 4.3 needs at least two items")
    cols = COUNT.check("cols", cols)
    total = float(np.sum(weights))
    collision_factor = 1.0 - (1.0 - 1.0 / cols) ** n
    return (total - w_v) / (n - 1) - (
        cols * (total - n * w_v) / (n * (n - 1))
    ) * collision_factor


def markov_tail_bound(expectation: float, threshold: float) -> float:
    """``Pr{W_v/C_v >= x} <= E{W_v/C_v} / x`` (capped at 1)."""
    POSITIVE.check("threshold", threshold)
    return min(1.0, expectation / threshold)


def independent_rows_bound(row_probability: float, rows: int) -> float:
    """``Pr{min over r rows >= x} = p^r`` by row independence."""
    Bound(float, 0, 1).check("row_probability", row_probability)
    rows = COUNT.check("rows", rows)
    return row_probability**rows


@dataclass(frozen=True)
class NumericalApplication:
    """The worked example at the end of Section IV-B."""

    cols: int
    n: int
    expectation_low: float
    expectation_high: float
    markov_bound_at_48: float
    min_rows_bound_at_48: float


def paper_numerical_application(
    cols: int = 55, n: int = 4096, w_values: int = 64, a: float = 0.75, rows: int = 10
) -> NumericalApplication:
    """Reproduce the paper's numbers: E in [32.08, 32.92], tail <= 0.024."""
    if n % w_values != 0:
        raise ValueError("n must be a multiple of w_values (64 items per value)")
    weights = np.repeat(np.arange(1, w_values + 1, dtype=np.float64), n // w_values)
    expectations = [
        expected_estimator_ratio(float(w), weights, cols)
        for w in range(1, w_values + 1)
    ]
    # The paper bounds every E{W_v/C_v} by 33 before applying Markov.
    markov = markov_tail_bound(33.0, w_values * a)
    return NumericalApplication(
        cols=cols,
        n=n,
        expectation_low=float(min(expectations)),
        expectation_high=float(max(expectations)),
        markov_bound_at_48=markov,
        min_rows_bound_at_48=independent_rows_bound(markov, rows),
    )


def simulate_estimator_ratios(
    weights: Sequence[float],
    cols: int,
    occurrences: int = 64,
    trials: int = 100,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Monte-Carlo distribution of ``W_v/C_v`` over random hash draws.

    Feeds a single sketch row with every item appearing ``occurrences``
    times (the theorem's uniform-frequency regime; the result is
    independent of ``occurrences``) and returns the matrix of per-item
    ratios, shape ``(trials, n)``.  Used to validate Theorem 4.3
    empirically.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    rng = rng if rng is not None else np.random.default_rng()
    ratios = np.empty((trials, n))
    items = np.arange(n)
    for trial in range(trials):
        family = random_hash_family(1, cols, rng=rng)
        buckets = family.hash_vector(items)[0]
        freq = np.bincount(buckets, minlength=cols).astype(np.float64)
        work = np.bincount(buckets, weights=weights, minlength=cols)
        # occurrences cancels in the ratio: (occ*work)/(occ*freq)
        ratios[trial] = work[buckets] / freq[buckets]
    return ratios
