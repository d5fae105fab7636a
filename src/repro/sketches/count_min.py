"""Count-Min sketch (Cormode & Muthukrishnan, 2005).

The sketch is an ``r x c`` matrix of counters with one 2-universal hash
function per row.  Reading item ``t`` increments ``F[i, h_i(t)]`` on every
row; a point query returns the minimum cell over the item's row cells,
which overestimates the true frequency by at most ``eps * (m - f_t)`` with
probability at least ``1 - delta`` when ``r = ceil(ln 1/delta)`` and
``c = ceil(e / eps)``.

POSG (Section III of the paper) uses two variants side by side:

- the plain frequency sketch ``F`` (``update value = 1``);
- the generalized sketch ``W`` where each update carries a non-negative
  value ``v_t`` (the measured execution time), so a cell accumulates the
  cumulated execution time of all items colliding there.

Both are served by :class:`CountMinSketch`, which accepts an arbitrary
update weight.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bounds import FRACTION, NONNEGATIVE, Bound
from repro.sketches.bucket_cache import get_bucket_cache
from repro.sketches.hashing import TwoUniversalHashFamily, random_hash_family


def running_total(start: float, terms: np.ndarray) -> float:
    """``start + terms[0] + terms[1] + ...``, added strictly left to right.

    ``np.add.accumulate`` performs one addition per element in index
    order (a running sum cannot be pairwise-reassociated), so the result
    carries the exact rounding of a Python ``total += term`` loop — what
    per-tuple updates produce (float addition is not associative).
    """
    chain = np.empty(terms.shape[0] + 1, dtype=np.float64)
    chain[0] = start
    chain[1:] = terms
    return float(np.add.accumulate(chain, out=chain)[-1])


def dims_for(epsilon: float, delta: float) -> tuple[int, int]:
    """Return the sketch dimensions ``(rows, cols)`` for an accuracy target.

    ``rows = ceil(ln(1/delta))`` and ``cols = ceil(e/epsilon)`` guarantee an
    ``(epsilon, delta)``-additive approximation of point queries.

    Examples from the paper: ``epsilon=0.05 -> cols=55`` (the paper rounds
    to 54), ``delta=0.1 -> rows=3`` (the paper rounds up to 4; we use
    ``ceil`` which gives 3 for 0.1 — callers wanting the paper's exact
    r=4/c=54 can pass dimensions explicitly).
    """
    FRACTION.check("epsilon", epsilon)
    Bound(float, 0, 1, open_low=True, open_high=True).check("delta", delta)
    rows = max(1, math.ceil(math.log(1.0 / delta)))
    cols = max(1, math.ceil(math.e / epsilon))
    return rows, cols


class CountMinSketch:
    """A Count-Min sketch with optional weighted updates.

    Parameters
    ----------
    hashes:
        The shared hash family; its ``rows``/``cols`` fix the matrix shape.
    dtype:
        Counter dtype; ``float64`` by default because POSG accumulates
        execution times (fractions of milliseconds).

    Notes
    -----
    The sketch exposes its matrix as the read-only property :attr:`matrix`
    so POSG can snapshot, serialize and merge sketches; mutate only through
    :meth:`update`/:meth:`reset`/:meth:`merge`.
    """

    __slots__ = ("_hashes", "_cache", "_matrix", "_total_weight", "_update_count")

    def __init__(self, hashes: TwoUniversalHashFamily, dtype=np.float64) -> None:
        self._hashes = hashes
        self._cache = get_bucket_cache(hashes)
        self._matrix = np.zeros((hashes.rows, hashes.cols), dtype=dtype)
        self._total_weight = 0.0
        self._update_count = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_accuracy(
        cls,
        epsilon: float,
        delta: float,
        rng: np.random.Generator | None = None,
    ) -> "CountMinSketch":
        """Build a sketch sized for an ``(epsilon, delta)`` guarantee."""
        rows, cols = dims_for(epsilon, delta)
        return cls(random_hash_family(rows, cols, rng=rng))

    # ------------------------------------------------------------------
    # stream ingestion
    # ------------------------------------------------------------------
    def update(self, item: int, weight: float = 1.0) -> None:
        """Fold one occurrence of ``item`` (with ``weight``) into the sketch.

        Time complexity is ``O(rows) = O(log 1/delta)`` (Theorem 3.1).
        A negative or non-finite weight raises with the sketch untouched.
        """
        self.update_at(self._cache.columns(item), weight)

    def update_at(self, columns, weight: float = 1.0) -> None:
        """Fold one occurrence whose bucket columns are already known.

        ``columns`` must be the item's per-row column tuple as returned by
        the family's shared :class:`~repro.sketches.bucket_cache.\
BucketColumnCache`; callers updating several sketches with the same hash
        family (the F/W pair) use this to hash each tuple once.  A
        negative or non-finite weight raises with the sketch untouched.
        """
        if not 0.0 <= weight < math.inf:  # false for NaN
            raise ValueError(f"weight must be finite and >= 0, got {weight}")
        matrix = self._matrix
        for row, col in enumerate(columns):
            matrix[row, col] += weight
        self._total_weight += weight
        self._update_count += 1

    def update_conservative(self, item: int, weight: float = 1.0) -> None:
        """Conservative update (Estan & Varghese): raise each of the
        item's cells only up to ``query(item) + weight``.

        Tightens point-query overestimates for frequency counting while
        preserving the no-underestimate guarantee.  Note that POSG's
        ``W/F`` ratio estimator requires ``F`` and ``W`` to grow in
        lockstep (cell ratios are then mixture means), so the runtime
        algorithm uses plain updates; this variant exists for sketch-level
        comparisons and downstream users.

        Conservative sketches lose linearity: :meth:`merge` of two
        conservatively-built sketches still never underestimates, but may
        overestimate more than a single conservatively-built sketch of
        the concatenated stream.
        """
        if not 0.0 <= weight < math.inf:  # false for NaN
            raise ValueError(f"weight must be finite and >= 0, got {weight}")
        matrix = self._matrix
        cells = list(enumerate(self._cache.columns(item)))
        target = min(matrix[row, col] for row, col in cells) + weight
        for row, col in cells:
            if matrix[row, col] < target:
                matrix[row, col] = target
        self._total_weight += weight
        self._update_count += 1

    def update_many(self, items: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Vectorized bulk update (used by workload preprocessing).

        The scatter is a per-row ``bincount`` — orders of magnitude faster
        than ``np.add.at`` for the batch sizes workloads use — so per-cell
        sums are grouped per batch; mixing :meth:`update` and
        :meth:`update_many` therefore yields the same counters up to
        float-addition reassociation (exactly equal for integer-valued
        weights such as frequency counts).
        """
        items = np.asarray(items)
        if items.size == 0:
            return
        buckets = self._cache.columns_many(items)
        if weights is None:
            weights = np.ones(items.shape[0], dtype=self._matrix.dtype)
        else:
            weights = np.asarray(weights, dtype=self._matrix.dtype)
            if weights.shape != items.shape:
                raise ValueError("items and weights must have the same shape")
            if not (np.isfinite(weights).all() and (weights >= 0).all()):
                raise ValueError("weights must be finite and >= 0")
        cols = self._matrix.shape[1]
        for row in range(buckets.shape[0]):
            self._matrix[row] += np.bincount(
                buckets[row], weights=weights, minlength=cols
            )
        self._total_weight += float(weights.sum())
        self._update_count += items.shape[0]

    def _flat(self) -> np.ndarray:
        """The matrix as one writable 1-D view, cell ``row * cols + column``
        (what ``BucketColumnCache.cells_many`` indexes).  Only a
        C-contiguous matrix always reshapes to a view; a fold through a
        *copy* would move the counters and not the matrix, so anything
        else is refused here, the one place the view is taken."""
        if not self._matrix.flags.c_contiguous:
            raise ValueError(
                "sketch matrix is not C-contiguous: its flat view would not "
                "share memory with it"
            )
        return self._matrix.reshape(-1)

    def fold_batch_exact(self, cells: np.ndarray, weights: "np.ndarray | None") -> None:
        """Fold a pre-hashed batch with *per-tuple* float semantics.

        Unlike :meth:`update_many`, every cell receives its updates one by
        one in stream order (``np.add.at`` is unbuffered and sequential)
        and ``total_weight`` accumulates term by term
        (:func:`running_total`), so the resulting sketch state is
        bit-for-bit identical to calling :meth:`update` once per tuple.
        ``weights=None`` means unit weights and requires
        a sketch that has only ever seen unit weights (the frequency
        sketch ``F``): all counters are then small integers, exactly
        representable, and the scatter collapses to a ``bincount``.
        The chunked simulator uses this to batch instance-side sketch
        maintenance without perturbing POSG's estimates.

        ``cells`` is a ``(rows, batch)`` matrix of flat cell indices (from
        :meth:`~repro.sketches.bucket_cache.BucketColumnCache.\
cells_many`, *not* bucket columns); validation is the caller's job —
        this is a hot path.
        """
        rows, batch = cells.shape
        if batch == 0:
            return
        flat = self._flat()
        indices = cells.reshape(-1)
        if weights is None:
            # Unit weights: cell sums are small integers, exactly
            # representable, so a bincount scatter is bit-identical.
            flat += np.bincount(indices, minlength=flat.shape[0])
            self._total_weight += float(batch)
        else:
            np.add.at(flat, indices, np.tile(weights, rows))
            self._total_weight = running_total(self._total_weight, weights)
        self._update_count += batch

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, item: int) -> float:
        """Point query: ``min_i matrix[i, h_i(item)]`` (never underestimates)."""
        matrix = self._matrix
        return float(
            min(matrix[row, col] for row, col in enumerate(self._cache.columns(item)))
        )

    def query_many(self, items: np.ndarray) -> np.ndarray:
        """Vectorized point queries (shape ``(len(items),)``)."""
        items = np.asarray(items)
        if items.size == 0:
            return np.empty(0, dtype=np.float64)
        buckets = self._cache.columns_many(items)
        rows = np.arange(buckets.shape[0])[:, None]
        return self._matrix[rows, buckets].min(axis=0).astype(np.float64)

    def cells(self, item: int) -> np.ndarray:
        """Return the item's cell values on every row (shape ``(rows,)``)."""
        cols = self._cache.columns(item)
        return self._matrix[np.arange(self._hashes.rows), list(cols)]

    def argmin_row(self, item: int) -> int:
        """Row index whose cell for ``item`` holds the minimum value."""
        values = self.cells(item)
        return int(np.argmin(values))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter (POSG resets after shipping matrices)."""
        self._matrix.fill(0)
        self._total_weight = 0.0
        self._update_count = 0

    def copy(self) -> "CountMinSketch":
        """Deep copy sharing the (immutable) hash family."""
        clone = CountMinSketch(self._hashes, dtype=self._matrix.dtype)
        clone._matrix = self._matrix.copy()
        clone._total_weight = self._total_weight
        clone._update_count = self._update_count
        return clone

    def scale(self, factor: float) -> None:
        """Multiply every counter by ``factor`` (exponential aging).

        Scaling preserves all cell *ratios* (the quantity POSG estimates
        from) while down-weighting history relative to future merges.
        """
        NONNEGATIVE.check("factor", factor)
        self._matrix *= factor
        self._total_weight *= factor

    def merge(self, other: "CountMinSketch") -> None:
        """Add ``other``'s counters into this sketch (linear sketch property).

        Both sketches must have been built from the *same* hash family.
        """
        if other._hashes is not self._hashes and other._hashes != self._hashes:
            raise ValueError("cannot merge sketches with different hash families")
        if other._matrix.shape != self._matrix.shape:
            raise ValueError("cannot merge sketches with different shapes")
        self._matrix += other._matrix
        self._total_weight += other._total_weight
        self._update_count += other._update_count

    # ------------------------------------------------------------------
    # serialization (what actually crosses the network in a deployment)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot, including the hash family."""
        return {
            "hashes": self._hashes.to_dict(),
            "matrix": self._matrix.tolist(),
            "total_weight": self._total_weight,
            "update_count": self._update_count,
        }

    @classmethod
    def from_dict(
        cls, payload: dict, hashes: TwoUniversalHashFamily | None = None
    ) -> "CountMinSketch":
        """Rebuild from :meth:`to_dict`; pass ``hashes`` to share an
        existing family object (required for :meth:`merge` with ``is``
        identity)."""
        family = (
            hashes
            if hashes is not None
            else TwoUniversalHashFamily.from_dict(payload["hashes"])
        )
        sketch = cls(family)
        # C order: the batch fold writes through the matrix's flat view
        matrix = np.ascontiguousarray(payload["matrix"], dtype=sketch._matrix.dtype)
        if matrix.shape != sketch._matrix.shape:
            raise ValueError(
                f"matrix shape {matrix.shape} does not match family shape "
                f"{sketch._matrix.shape}"
            )
        sketch._matrix = matrix
        sketch._total_weight = float(payload["total_weight"])
        sketch._update_count = int(payload["update_count"])
        return sketch

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hashes(self) -> TwoUniversalHashFamily:
        """The hash family shared with sibling sketches."""
        return self._hashes

    @property
    def bucket_cache(self):
        """The family's shared column cache (see :mod:`bucket_cache`)."""
        return self._cache

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the ``rows x cols`` counter matrix.

        The view is non-writeable (same convention as
        ``POSGScheduler.c_hat``) so external code cannot invalidate the
        cached fast paths; mutate only through
        :meth:`update`/:meth:`reset`/:meth:`merge`/:meth:`scale`.
        """
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, cols)`` of the counter matrix."""
        return self._matrix.shape

    @property
    def total_weight(self) -> float:
        """Sum of all update weights seen since the last reset."""
        return self._total_weight

    @property
    def update_count(self) -> int:
        """Number of updates folded in since the last reset."""
        return self._update_count

    def error_bound(self) -> float:
        """The additive error ``eps * m`` implied by the current width.

        With width ``c``, the per-row overestimate of a point query has
        expectation at most ``total_weight / c``; the Count-Min guarantee
        bounds it by ``(e/c) * total_weight`` with per-row probability
        ``1/e``.
        """
        return math.e / self._matrix.shape[1] * self._total_weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self.shape
        return (
            f"CountMinSketch(rows={rows}, cols={cols}, "
            f"updates={self._update_count}, weight={self._total_weight:.3f})"
        )
