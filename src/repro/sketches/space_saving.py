"""The Space-Saving heavy-hitters algorithm (Metwally et al., 2005).

Maintains at most ``capacity`` ``(item, count, error)`` triples.  A
monitored item's counter increments in place; an unmonitored item evicts
the current minimum, inheriting its count (recorded as the new entry's
``error``).  Guarantees, after ``m`` updates:

- every item with true frequency ``> m / capacity`` is monitored;
- for monitored items, ``count - error <= f_item <= count`` and
  ``error <= m / capacity``.

Used by the distribution-aware key grouping baseline
(:class:`repro.core.dkg.DKGGrouping`) to identify the heavy keys whose
placement dominates load balance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds import COUNT, FRACTION


@dataclass
class _Entry:
    item: int
    count: float
    error: float


class SpaceSaving:
    """Fixed-capacity heavy-hitters summary."""

    def __init__(self, capacity: int) -> None:
        self._capacity = COUNT.check("capacity", capacity)
        self._entries: dict[int, _Entry] = {}
        self._total = 0.0
        self._evicted = False

    @property
    def capacity(self) -> int:
        """Maximum number of monitored items."""
        return self._capacity

    @property
    def total(self) -> float:
        """Total weight observed."""
        return self._total

    def update(self, item: int, weight: float = 1.0) -> None:
        """Observe one occurrence of ``item``."""
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        self._total += weight
        entry = self._entries.get(item)
        if entry is not None:
            entry.count += weight
            return
        if len(self._entries) < self._capacity:
            self._entries[item] = _Entry(item=item, count=weight, error=0.0)
            return
        # lowest item id breaks count ties so eviction (and everything
        # downstream of it) is deterministic regardless of insertion order
        victim = min(self._entries.values(), key=lambda e: (e.count, e.item))
        del self._entries[victim.item]
        self._evicted = True
        self._entries[item] = _Entry(
            item=item, count=victim.count + weight, error=victim.count
        )

    def estimate(self, item: int) -> float:
        """Frequency upper bound for ``item`` (0 if unmonitored)."""
        entry = self._entries.get(item)
        return entry.count if entry is not None else 0.0

    def guaranteed_count(self, item: int) -> float:
        """Frequency lower bound (``count - error``)."""
        entry = self._entries.get(item)
        return entry.count - entry.error if entry is not None else 0.0

    def heavy_hitters(self, phi: float) -> list[tuple[int, float]]:
        """Items with estimated frequency ``>= phi * total``, descending.

        Every true ``phi``-heavy hitter is included (no false negatives
        when ``capacity > 1/phi``); some returned items may be lighter.
        """
        FRACTION.check("phi", phi)
        threshold = phi * self._total
        hitters = [
            (entry.item, entry.count)
            for entry in self._entries.values()
            if entry.count >= threshold
        ]
        return sorted(hitters, key=lambda pair: (-pair[1], pair[0]))

    def monitored(self) -> list[tuple[int, float]]:
        """All monitored ``(item, count)`` pairs, descending by count."""
        return sorted(
            ((e.item, e.count) for e in self._entries.values()),
            key=lambda pair: (-pair[1], pair[0]),
        )

    def _unmonitored_bound(self) -> float:
        """Upper bound on the frequency of any *unmonitored* item.

        Zero while nothing was ever evicted (every seen item is still
        monitored); otherwise the minimum monitored count.
        """
        if not self._evicted or not self._entries:
            return 0.0
        return min(entry.count for entry in self._entries.values())

    def merge(self, other: "SpaceSaving") -> None:
        """Fold another summary in (Agarwal et al., "Mergeable Summaries").

        Items monitored on both sides add their counts and errors; an
        item monitored on only one side inherits the other side's
        unmonitored-frequency bound as extra count *and* error, which
        preserves the no-underestimate guarantee
        (``count >= f_A + f_B``) at the cost of looser errors.  The
        merged summary keeps this object's capacity, retaining the
        largest counts.
        """
        bound_self = self._unmonitored_bound()
        bound_other = other._unmonitored_bound()
        combined: dict[int, _Entry] = {}
        for item in set(self._entries) | set(other._entries):
            mine = self._entries.get(item)
            theirs = other._entries.get(item)
            count = error = 0.0
            if mine is not None:
                count += mine.count
                error += mine.error
            else:
                count += bound_self
                error += bound_self
            if theirs is not None:
                count += theirs.count
                error += theirs.error
            else:
                count += bound_other
                error += bound_other
            combined[item] = _Entry(item=item, count=count, error=error)
        survivors = sorted(combined.values(), key=lambda e: (-e.count, e.item))
        if len(survivors) > self._capacity:
            self._evicted = True
        self._evicted = self._evicted or other._evicted
        self._entries = {
            entry.item: entry for entry in survivors[: self._capacity]
        }
        self._total += other._total

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: int) -> bool:
        return item in self._entries
