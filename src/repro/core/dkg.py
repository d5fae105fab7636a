"""Distribution-aware Key Grouping (DKG), simplified.

Section VI of the paper cites the authors' own DEBS'15 work on
"efficient key grouping for near-optimal load balancing" and remarks
that key-grouping solutions "would underperform if applied with shuffle
grouping" because key grouping pins every occurrence of a key to one
instance.  This module implements a faithful-in-spirit DKG so that claim
is measurable against POSG:

- a warm-up phase routes by plain hashing while a
  :class:`~repro.sketches.space_saving.SpaceSaving` summary learns the
  key-frequency distribution;
- after warm-up, the heavy hitters are *individually* placed on
  instances by greedy bin packing over estimated tuple counts (heaviest
  first), and the light tail keeps its hash placement;
- the mapping is sticky thereafter — the key-grouping constraint.

DKG balances tuple *counts* near-optimally, but it cannot split a heavy
key across instances nor react to content-dependent execution times —
the two things shuffle grouping with POSG does.
"""

from __future__ import annotations

import numpy as np

from repro.bounds import COUNT, FRACTION
from repro.core.grouping import GroupingPolicy, RouteDecision
from repro.sketches.hashing import random_hash_family
from repro.sketches.space_saving import SpaceSaving


class DKGGrouping(GroupingPolicy):
    """Key grouping with heavy-hitter-aware placement.

    Parameters
    ----------
    warmup:
        Tuples routed by plain hashing while frequencies are learned.
    phi:
        Heavy-hitter threshold (fraction of the stream); keys above it
        get individual greedy placement.
    capacity:
        SpaceSaving capacity; must exceed ``1/phi`` for the guarantee.
    """

    name = "dkg"

    def __init__(
        self, warmup: int = 4096, phi: float = 0.001, capacity: int | None = None
    ) -> None:
        super().__init__()
        self._warmup = COUNT.check("warmup", warmup)
        self._phi = FRACTION.check("phi", phi)
        self._capacity = capacity if capacity is not None else int(2 / phi)
        self._summary = SpaceSaving(self._capacity)
        self._hash = None
        self._routed = 0
        self._placement: dict[int, int] = {}
        self._placed = False

    def setup(self, k: int, rng: np.random.Generator | None = None) -> None:
        super().setup(k, rng)
        self._hash = random_hash_family(1, k, rng=rng)
        self._summary = SpaceSaving(self._capacity)
        self._routed = 0
        self._placement = {}
        self._placed = False

    def _place_heavy_hitters(self) -> None:
        """Greedy bin packing of heavy keys over expected tuple counts."""
        assert self._hash is not None
        # Light-tail load per instance: everything not individually placed
        # stays on its hash bucket; estimate that base load first.
        hitters = self._summary.heavy_hitters(self._phi)
        heavy_items = {item for item, _ in hitters}
        base_load = np.zeros(self.k, dtype=np.float64)
        light_total = self._summary.total - sum(count for _, count in hitters)
        # the light tail spreads nearly uniformly under 2-universal hashing
        base_load += light_total / self.k
        loads = base_load.copy()
        for item, count in hitters:  # heaviest first
            target = int(np.argmin(loads))
            self._placement[item] = target
            loads[target] += count
        self._placed = True

    def route(self, item: int) -> RouteDecision:
        assert self._hash is not None
        self._summary.update(item)
        self._routed += 1
        if not self._placed:
            if self._routed >= self._warmup:
                self._place_heavy_hitters()
            return RouteDecision(self._hash.hash(0, item))
        placed = self._placement.get(item)
        if placed is not None:
            return RouteDecision(placed)
        return RouteDecision(self._hash.hash(0, item))

    @property
    def heavy_hitter_count(self) -> int:
        """Heavy keys individually placed after warm-up."""
        return len(self._placement)

    @property
    def placed(self) -> bool:
        """Whether the warm-up has completed."""
        return self._placed
