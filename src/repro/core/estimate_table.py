"""The estimate table: one POSG estimate per (instance, item id).

Each ``(instance, id)`` estimate (Listing III.2) is evaluated once and
kept until the pair behind its row changes.  Every row records the
:class:`~repro.core.matrices.FWPair` that filled it (its *owner*), and a
reader holding another pair object finds the row missing and claims it:
shards storing the same broadcast pairs share one table and every
evaluation, and none is ever served a value from another pair.
"""

from __future__ import annotations

from array import array
from contextlib import nullcontext

import numpy as np

from repro.core.matrices import FWPair
from repro.sketches.bucket_cache import MAX_CACHED_ITEM

#: the estimate table holds at most this many (instance, id) cells
#: (9 bytes each), so sparse ids cost no more here than the bucket
#: cache's own table; blocks with larger ids are gathered afresh
MAX_TABLE_CELLS = 1 << 22


def float_column(values: np.ndarray) -> array:
    """A float64 vector as an ``array('d')``: one copy of its bytes.  The
    loop reads one estimate in ``k``, so only those become Python floats
    (``tolist()`` would box all of them)."""
    return array("d", values.tobytes())


def span(profiler, name: str):
    """``profiler.span(name)`` for an optional (duck-typed) profiler."""
    return nullcontext() if profiler is None else profiler.span(name)


class EstimateTable:
    """``values[instance, id]`` with a validity bit per cell and an owner
    per row, over the dense ids the hash family's bucket cache tables.

    ``gathers``, ``requests`` and ``evaluations`` count block gathers,
    the ``k x block length`` estimates they asked for and those actually
    computed.  ``prefilled`` marks a window the engine filled for several
    shards at once: a gather that fill served entirely is not counted.
    """

    def __init__(self, k: int) -> None:
        self.limit = min(MAX_CACHED_ITEM, MAX_TABLE_CELLS // k - 1)
        self.values = np.zeros((k, 0), dtype=np.float64)
        self.valid = np.zeros((k, 0), dtype=bool)
        self.owners: list[FWPair | None] = [None] * k
        self.gathers = self.requests = self.evaluations = 0
        self.prefilled = False

    def void(self, instances) -> None:
        """Forget the rows of ``instances``: their pair moved."""
        self.valid[list(instances)] = False

    def gather(self, items: np.ndarray, pairs: list, profiler=None) -> bool:
        """Make the table hold every cell of ``items`` under ``pairs`` (one
        per instance, in instance order, on one hash family); False, with
        nothing done, for an empty block or an id outside ``[0, limit]``.

        A cell misses on the id's first read, after a delivery voided its
        row, or when its row was filled from another pair.  The misses are
        evaluated in one stacked call, each once however many positions
        hold the id, and only when a block is about to read them.
        """
        if not items.shape[0] or items.min() < 0:
            return False
        if (high := int(items.max())) > self.limit:
            return False
        with span(profiler, "estimate"):
            for instance, pair in enumerate(pairs):
                if self.owners[instance] is not pair:
                    self.owners[instance] = pair
                    self.valid[instance] = False
            if high >= self.valid.shape[1]:
                self._grow(high + 1)
            held = bool(self.valid.take(items, axis=1).all())
        if not (held and self.prefilled):
            self.gathers += 1
        if held:
            return True
        with span(profiler, "estimate"):
            capacity = self.valid.shape[1]
            asked = np.zeros(capacity, dtype=bool)
            asked[items] = True
            # flat cell indices: several times cheaper than 2-D nonzero/scatter
            table_cells = np.flatnonzero(asked & ~self.valid)
            rows, ids = np.divmod(table_cells, capacity)
        with span(profiler, "hash"):
            cells = pairs[0].freq.bucket_cache.cells_many(ids)
        with span(profiler, "estimate"):
            self.values.reshape(-1)[table_cells] = FWPair.estimate_many_stacked(
                pairs, rows, cells
            )
            self.valid.reshape(-1)[table_cells] = True
            self.evaluations += table_cells.shape[0]
        return True

    def _grow(self, needed: int) -> None:
        """Double the table's capacity until it holds ``needed`` ids."""
        k, held = self.valid.shape
        capacity = max(1024, held)
        while capacity < needed:
            capacity *= 2
        capacity = min(capacity, self.limit + 1)
        values = np.zeros((k, capacity), dtype=np.float64)
        values[:, :held] = self.values
        valid = np.zeros((k, capacity), dtype=bool)
        valid[:, :held] = self.valid
        self.values = values
        self.valid = valid

    def columns(self, items: np.ndarray, order, pooled: bool) -> list[array]:
        """A block's columns out of the (filled) table; pooled columns sum
        the rows of ``order`` (first-arrival order, as ``estimate``)."""
        columns = self.values.take(items, axis=1)
        if not pooled:
            return [float_column(column) for column in columns]
        total = np.zeros(items.shape[0], dtype=np.float64)
        for instance in order:
            total = total + columns[instance]
        return [float_column(total / len(order))] * columns.shape[0]
