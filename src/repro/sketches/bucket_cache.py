"""Per-family bucket-column cache.

Every sketch-level operation — Count-Min update, point query, the F/W
ratio estimate of POSG — starts by evaluating the same ``rows`` hash
functions on the same item.  The item universes of the paper are small
(``n = 4096`` synthetic, ~35k Twitter entities), so the ``(rows, n)``
table fits comfortably in memory and can be computed once per
hash family and shared by every sketch built from it: the scheduler's
``C_hat`` estimates, all ``k`` instance-side F/W pairs and any
workload-preprocessing sketch then reduce hashing to an array lookup.

The table holds each item's *flat cell index* ``row * cols + column`` on
every row — its place in ``matrix.reshape(-1)``, which is what the vector
kernels (F/W batch fold, estimate fills) index; bucket columns are the
same table minus the row offsets.

The cache fills lazily: items are hashed in bulk (via the vectorized
Mersenne kernel of :mod:`repro.sketches.hashing`) the first time they
are seen, so unbounded or unknown universes still work — only the
columns actually touched are materialized.  Items outside the cacheable
range (negative, or beyond :data:`MAX_CACHED_ITEM`) bypass the table and
are hashed directly, which keeps the cache a pure accelerator with no
behavioural footprint.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.sketches.hashing import TwoUniversalHashFamily

#: items above this id are hashed directly instead of cached, bounding the
#: column table to a few hundred MB even for adversarial item ids
MAX_CACHED_ITEM = (1 << 22) - 1


class BucketColumnCache:
    """Lazy ``(rows, universe)`` cell table for one hash family.

    Two complementary lookup structures are kept in sync:

    - a Python ``dict`` mapping ``item -> tuple(cols)`` serving the
      scalar per-tuple hot paths (sketch update, estimate) without any
      numpy call;
    - a dense ``(rows, capacity)`` ``int64`` table of flat cell indices
      plus a ``known`` bitmap serving vectorized bulk lookups
      (``cells_many``, and ``columns_many`` derived from it).
    """

    __slots__ = ("_hashes", "_rows", "_offsets", "_scalar", "_table", "_known")

    def __init__(
        self, hashes: TwoUniversalHashFamily, initial_capacity: int = 1024
    ) -> None:
        self._hashes = hashes
        self._rows = hashes.rows
        # flat index of each row's first cell, as a column: cells - columns
        self._offsets = (np.arange(self._rows, dtype=np.int64) * hashes.cols)[:, None]
        self._scalar: dict[int, tuple[int, ...]] = {}
        capacity = max(1, initial_capacity)
        self._table = np.zeros((self._rows, capacity), dtype=np.int64)
        self._known = np.zeros(capacity, dtype=bool)

    @property
    def hashes(self) -> TwoUniversalHashFamily:
        """The family whose columns are cached."""
        return self._hashes

    @property
    def cached_items(self) -> int:
        """Number of items whose columns are materialized."""
        return len(self._scalar)

    # ------------------------------------------------------------------
    # scalar lookup (per-tuple hot path)
    # ------------------------------------------------------------------
    def columns(self, item: int) -> tuple[int, ...]:
        """The item's bucket column on every row (cached)."""
        cols = self._scalar.get(item)
        if cols is None:
            cols = self._hashes.hash_all(item)
            self._scalar[item] = cols
            if 0 <= item <= MAX_CACHED_ITEM:
                self._fill_table(item, cols)
        return cols

    def _fill_table(self, item: int, cols: tuple[int, ...]) -> None:
        if item >= self._table.shape[1]:
            self._grow(item + 1)
        self._table[:, item] = self._offsets[:, 0] + cols
        self._known[item] = True

    def _grow(self, needed: int) -> None:
        capacity = self._table.shape[1]
        while capacity < needed:
            capacity *= 2
        capacity = min(capacity, MAX_CACHED_ITEM + 1)
        grown = np.zeros((self._rows, capacity), dtype=np.int64)
        grown[:, : self._table.shape[1]] = self._table
        self._table = grown
        known = np.zeros(capacity, dtype=bool)
        known[: self._known.shape[0]] = self._known
        self._known = known

    # ------------------------------------------------------------------
    # vectorized lookup (bulk paths)
    # ------------------------------------------------------------------
    def cells_many(self, items: np.ndarray) -> np.ndarray:
        """Flat cell indices ``row * cols + column``, ``(rows, len(items))``.

        Entry ``[row, j]`` is where ``items[j]`` lives on ``row`` in any
        ``matrix.reshape(-1)`` of the family's shape.
        Unknown items are hashed in bulk through the vectorized kernel
        and memoized; items outside the cacheable range fall back to a
        direct (uncached) kernel evaluation.
        """
        items = np.ascontiguousarray(items, dtype=np.int64)
        if items.size == 0:
            return np.empty((self._rows, 0), dtype=np.int64)
        if items.min() < 0 or items.max() > MAX_CACHED_ITEM:
            return self._hashes.hash_vector(items) + self._offsets
        high = int(items.max())
        if high >= self._table.shape[1]:
            self._grow(high + 1)
        missing = ~self._known[items]
        if missing.any():
            fresh = np.unique(items[missing])
            cols = self._hashes.hash_vector(fresh.astype(np.uint64))
            self._table[:, fresh] = cols + self._offsets
            self._known[fresh] = True
            scalar = self._scalar
            for j, item in enumerate(fresh.tolist()):
                scalar[item] = tuple(int(c) for c in cols[:, j])
        return self._table.take(items, axis=1)

    def columns_many(self, items: np.ndarray) -> np.ndarray:
        """Bucket matrix of shape ``(rows, len(items))`` for a batch:
        :meth:`cells_many` less each row's offset."""
        return self.cells_many(items) - self._offsets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BucketColumnCache(rows={self._rows}, "
            f"cached_items={self.cached_items})"
        )


#: one cache per live family object; weak keys let families (and their
#: caches) be garbage collected with the sketches that used them
_SHARED: "weakref.WeakKeyDictionary[TwoUniversalHashFamily, BucketColumnCache]" = (
    weakref.WeakKeyDictionary()
)


def get_bucket_cache(hashes: TwoUniversalHashFamily) -> BucketColumnCache:
    """The shared column cache of a hash family.

    Sketches built from the same family object (the POSG protocol shares
    one family between the scheduler and every instance) receive the
    *same* cache, so columns computed by any party serve all of them.
    """
    cache = _SHARED.get(hashes)
    if cache is None:
        cache = BucketColumnCache(hashes)
        _SHARED[hashes] = cache
    return cache
