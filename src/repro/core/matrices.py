"""The F/W Count-Min matrix pair at the heart of POSG.

Each operator instance maintains two Count-Min sketches sharing the same
2-universal hash functions (Figure 1.A of the paper):

- ``F`` tracks per-item frequencies ``f_t`` (update value 1);
- ``W`` tracks per-item *cumulated* execution times
  ``W_t = sum of measured w_t`` (update value = measured time).

The per-item execution time estimate is the cell ratio ``W/F`` taken at
the row where ``F``'s cell is minimal (Listing III.2, UPDATEC), i.e. the
row least polluted by collisions.

This module also implements the *snapshot* ``S[i,j] = W[i,j]/F[i,j]`` and
the relative-error stability criterion of Eq. 1:

    eta = sum_ij |S[i,j] - W[i,j]/F[i,j]| / sum_ij S[i,j]  <=  mu
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import POSGConfig
from repro.sketches.count_min import CountMinSketch
from repro.sketches.hashing import TwoUniversalHashFamily, random_hash_family
from repro.telemetry.recorder import NULL_RECORDER


def make_shared_hashes(
    config: POSGConfig, rng: np.random.Generator | None = None
) -> TwoUniversalHashFamily:
    """Draw the hash family shared by the scheduler and every instance.

    The POSG protocol requires all parties to use the *same* functions
    (Listing III.1 line 4), so engines call this once and distribute the
    result.
    """
    rows, cols = config.sketch_shape
    return random_hash_family(rows, cols, rng=rng)


def _ratio_at_min_freq(
    freq: np.ndarray, work: np.ndarray, cells: np.ndarray, unobserved: np.ndarray
) -> np.ndarray:
    """``W/F`` at each id's first minimum-``F`` row (Listing III.2).

    ``freq`` and ``work`` are flat matrices, ``cells`` the ``(rows,
    count)`` flat cell indices into them; ``unobserved`` holds the value
    of the ids whose minimum ``F`` cell is empty and receives the result.
    """
    best_rows = freq.take(cells).argmin(0)
    chosen = cells[best_rows, np.arange(cells.shape[1])]
    best_freq = freq.take(chosen)
    np.divide(work.take(chosen), best_freq, out=unobserved, where=best_freq > 0)
    return unobserved


class FWPair:
    """The two Count-Min matrices of one operator instance.

    Parameters
    ----------
    hashes:
        Hash family shared with the scheduler and sibling instances.
    telemetry:
        Optional recorder; snapshot/reset/scale lifecycle events (all
        cold-path, window-boundary-driven) are counted when live.
    """

    __slots__ = ("_freq", "_work", "_telemetry")

    def __init__(
        self, hashes: TwoUniversalHashFamily, telemetry=NULL_RECORDER
    ) -> None:
        self._freq = CountMinSketch(hashes)
        self._work = CountMinSketch(hashes)
        self._telemetry = telemetry if telemetry is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    # ingestion (Listing III.1)
    # ------------------------------------------------------------------
    def update(self, item: int, execution_time: float) -> None:
        """Fold one executed tuple into both matrices.

        A negative or non-finite execution time raises before either
        matrix moves, as in :meth:`update_batch`.
        """
        if not 0.0 <= execution_time < math.inf:  # false for NaN
            raise ValueError(
                f"execution_time must be finite and >= 0, got {execution_time}"
            )
        # Both sketches share the hash family, so the tuple is hashed once
        # (a cached column lookup) and applied to F and W.
        columns = self._freq.bucket_cache.columns(item)
        self._freq.update_at(columns, 1.0)
        self._work.update_at(columns, execution_time)

    def update_batch(self, items, execution_times) -> None:
        """Fold a batch of executed tuples, bit-identical to per-tuple
        :meth:`update` (see ``CountMinSketch.fold_batch_exact``).

        The chunked simulator collects the tuples an instance executed
        between window boundaries and folds them in one scatter; callers
        must not let a batch straddle a window boundary, since the FSM of
        Figure 2 inspects the matrices exactly there.  A negative or
        non-finite execution time anywhere in the batch raises before
        either matrix moves (:meth:`update` refuses the same values tuple
        by tuple; a NaN would poison ``W`` for the rest of the run).
        """
        items = np.asarray(items, dtype=np.int64)
        times = np.asarray(execution_times, dtype=np.float64)
        if items.ndim != 1 or items.shape != times.shape:
            raise ValueError(
                "items and execution_times must be 1-D and of equal length, "
                f"got shapes {items.shape} and {times.shape}"
            )
        if items.size == 0:
            return
        if not (np.isfinite(times).all() and (times >= 0.0).all()):
            raise ValueError("execution times must be finite and >= 0")
        cells = self._freq.bucket_cache.cells_many(items)
        self._freq.fold_batch_exact(cells, None)
        self._work.fold_batch_exact(cells, times)

    # ------------------------------------------------------------------
    # estimation (Listing III.2, UPDATEC)
    # ------------------------------------------------------------------
    def estimate(self, item: int) -> float:
        """Estimated execution time of ``item``: ``W/F`` at the min-F row.

        If the item hashes only to empty cells (never observed, e.g. right
        after a reset) the estimate falls back to the global mean execution
        time seen by this pair, or ``0.0`` on a completely empty pair.  The
        paper does not specify this corner case; the fallback keeps the
        scheduler's greedy choice meaningful during warm-up.
        """
        # Plain scalar indexing over cached columns beats numpy fancy
        # indexing at these matrix sizes.  The scheduler runs the same scan
        # over a list mirror (:meth:`estimate_in`); tests hold the two equal.
        freq_matrix = self._freq._matrix
        work_matrix = self._work._matrix
        best_freq = float("inf")
        best_work = 0.0
        for row, col in enumerate(self._freq.bucket_cache.columns(item)):
            cell = freq_matrix[row, col]
            if cell < best_freq:
                best_freq = cell
                best_work = work_matrix[row, col]
        if best_freq <= 0:
            return self.mean_execution_time()
        return float(best_work / best_freq)

    def rows(self) -> tuple[list, list]:
        """``(F, W)`` as nested lists: a read-only mirror for :meth:`estimate_in`.

        The mirror is a copy; it goes stale the moment either matrix
        moves, and its holder must drop it then.
        """
        return self._freq._matrix.tolist(), self._work._matrix.tolist()

    def estimate_in(self, rows: tuple[list, list], columns: tuple[int, ...]) -> float:
        """:meth:`estimate` read from ``rows`` (see :meth:`rows`) at an
        item's bucket ``columns`` (``freq.bucket_cache.columns(item)``).

        The same scan over the same floats with list indexing, so the
        result is bit-identical while the mirror is current.
        """
        freq_rows, work_rows = rows
        best_freq = math.inf
        best_work = 0.0
        for row, col in enumerate(columns):
            cell = freq_rows[row][col]
            if cell < best_freq:
                best_freq = cell
                best_work = work_rows[row][col]
        if best_freq <= 0:
            return self.mean_execution_time()
        return best_work / best_freq

    def estimate_many(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`estimate` over a batch (shape ``(len(items),)``).

        Bit-identical to the scalar path: the minimum-``F`` row is found
        with the same first-minimum tie-breaking (``np.argmin``), the
        ratio is the same IEEE division, and never-observed items fall
        back to the same global mean.  The scheduler's block router uses
        this to pre-gather per-chunk estimates.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return self.estimate_many_cells(self._freq.bucket_cache.cells_many(items))

    def estimate_many_cells(self, cells: np.ndarray) -> np.ndarray:
        """:meth:`estimate_many` over pre-hashed flat cell indices.

        ``cells`` is a ``(rows, count)`` matrix from the family's shared
        bucket cache (``cells_many``, *not* bucket columns).  The scheduler
        calls this only for blocks its estimate table cannot serve (ids the
        cache does not table, an instance without matrices); the rest goes
        cell by cell through :meth:`estimate_many_stacked`.  Both run the
        same elementwise operations (:func:`_ratio_at_min_freq`), so a
        value is the same float whichever of the two produced it.
        """
        return _ratio_at_min_freq(
            self._freq._flat(),
            self._work._flat(),
            cells,
            np.full(cells.shape[1], self.mean_execution_time()),
        )

    @staticmethod
    def estimate_many_stacked(
        pairs, which: np.ndarray, cells: np.ndarray
    ) -> np.ndarray:
        """:meth:`estimate_many_cells` across several pairs in one pass.

        Column ``j`` of ``cells`` is evaluated against
        ``pairs[which[j]]``: entry ``j`` of the result is
        ``pairs[which[j]].estimate_many_cells(cells[:, j:j + 1])[0]``.
        The pairs must share the hash family ``cells`` came from.
        Their flat matrices are laid end to end and each column reads
        its pair's stretch (cells shifted by ``which * rows * cols``), so
        any set of ``(pair, id)`` cells costs the numpy calls of one pair.
        """
        freq = [pair._freq._flat() for pair in pairs]
        means = np.array([pair.mean_execution_time() for pair in pairs])
        return _ratio_at_min_freq(
            np.concatenate(freq),
            np.concatenate([pair._work._flat() for pair in pairs]),
            cells + which * freq[0].shape[0],
            means[which],
        )

    def row_values(self, item: int) -> list[tuple[float, float]]:
        """Per-row ``(F cell, W/F ratio)`` for ``item`` — the cells that
        :meth:`estimate` scans, exposed for collision diagnostics.

        Rows whose ``F`` cell is empty report the global-mean fallback
        as their ratio (what :meth:`estimate` would return if that row
        won).  Diagnostic path (the estimator audit); not used for
        routing.
        """
        freq_item = self._freq._matrix.item
        work_item = self._work._matrix.item
        out: list[tuple[float, float]] = []
        mean = None
        for row, col in enumerate(self._freq.bucket_cache.columns(item)):
            freq = freq_item(row, col)
            if freq > 0:
                out.append((freq, work_item(row, col) / freq))
            else:
                if mean is None:
                    mean = self.mean_execution_time()
                out.append((freq, mean))
        return out

    def mean_execution_time(self) -> float:
        """Average measured execution time over everything folded in."""
        if self._freq.total_weight <= 0:
            return 0.0
        return self._work.total_weight / self._freq.total_weight

    # ------------------------------------------------------------------
    # snapshots and stability (Figure 2 / Eq. 1)
    # ------------------------------------------------------------------
    def snapshot(self) -> np.ndarray:
        """Elementwise ratio matrix ``S = W / F`` (0 where ``F`` is 0)."""
        if self._telemetry.enabled:
            self._telemetry.registry.counter(
                "posg_fwpair_snapshots_total",
                help="Snapshot matrices S = W/F materialized",
            ).inc()
        freq = self._freq.matrix
        work = self._work.matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(freq > 0, work / np.where(freq > 0, freq, 1.0), 0.0)
        return ratio

    def relative_error(self, previous_snapshot: np.ndarray) -> float:
        """Relative error ``eta`` between a previous snapshot and now (Eq. 1).

        Returns ``0.0`` when the previous snapshot is entirely zero and the
        matrices still are, and ``inf`` when the previous snapshot is zero
        but the matrices are not (any change from nothing is unstable).
        """
        current = self.snapshot()
        denominator = float(previous_snapshot.sum())
        numerator = float(np.abs(previous_snapshot - current).sum())
        if denominator <= 0:
            return 0.0 if numerator == 0.0 else float("inf")
        return numerator / denominator

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero both matrices (after shipping them to the scheduler)."""
        if self._telemetry.enabled:
            self._telemetry.registry.counter(
                "posg_fwpair_resets_total",
                help="Matrix resets after shipping to the scheduler",
            ).inc()
        self._freq.reset()
        self._work.reset()

    def copy(self) -> "FWPair":
        """Deep copy (what actually travels in a :class:`MatricesMessage`).

        The copy is *not* instrumented: it leaves this process's scope
        (conceptually travelling over the wire), so its lifecycle belongs
        to the receiver.
        """
        clone = FWPair.__new__(FWPair)
        clone._freq = self._freq.copy()
        clone._work = self._work.copy()
        clone._telemetry = NULL_RECORDER
        return clone

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def freq(self) -> CountMinSketch:
        """The frequency sketch ``F``."""
        return self._freq

    @property
    def work(self) -> CountMinSketch:
        """The cumulated-execution-time sketch ``W``."""
        return self._work

    @property
    def hashes(self) -> TwoUniversalHashFamily:
        """The shared hash family."""
        return self._freq.hashes

    @property
    def tuples_seen(self) -> int:
        """Number of tuples folded in since the last reset."""
        return self._freq.update_count

    def message_size_bits(self, counter_bits: int = 64) -> int:
        """Wire size of shipping this pair, for communication accounting."""
        rows, cols = self._freq.shape
        return 2 * rows * cols * counter_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self._freq.shape
        return f"FWPair(rows={rows}, cols={cols}, tuples_seen={self.tuples_seen})"
