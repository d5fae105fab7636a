"""Reliability: Storm's XOR ack tracking, timeouts and pending caps.

Every spout emission with a message id registers a *tuple tree*.  Each
edge of the tree carries a random 64-bit ``ack_id``; the acker XORs ids
into a per-tree checksum when edges are created (emit) and when they are
acknowledged (ack).  The checksum returns to zero exactly when every
emitted edge has been acked, at which point the tree is complete and the
spout's ``ack`` callback fires.

Trees that do not complete within ``message_timeout`` (virtual
milliseconds) are failed — this is what produces the "1,600 tuples timed
out" ASSG behaviour of Figure 11 when an overloaded instance's queue
exceeds the timeout.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bounds import POSITIVE

#: ack ids drawn from the generator per call (see ``fresh_ack_id``)
_ACK_ID_BLOCK = 1024


class _PendingTree:
    """Book-keeping for one in-flight spout tuple."""

    __slots__ = ("emitted_at", "checksum", "outstanding")

    def __init__(self, emitted_at: float, checksum: int) -> None:
        self.emitted_at = emitted_at
        self.checksum = checksum
        #: edges created but whose ack hasn't arrived; checksum==0 AND no
        #: outstanding edges means complete
        self.outstanding = 1


class AckTracker:
    """Tracks in-flight tuple trees for one topology.

    The tracker owns ``rng`` from construction on: it draws ack ids ahead
    of use, a block at a time, so a generator shared with another consumer
    would hand that consumer different values than scalar draws did.  Share
    a seed, not a generator, when other draws must be reproducible too.
    """

    def __init__(
        self,
        message_timeout: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._timeout = POSITIVE.check("message_timeout", message_timeout)
        self._rng = rng if rng is not None else np.random.default_rng()
        #: drawn-ahead ids, reversed so ``pop()`` serves them in draw order
        self._ack_ids: list[int] = []
        #: insertion-ordered, so ``emitted_at`` never decreases along it
        self._pending: dict[Any, _PendingTree] = {}
        self._last_emit = float("-inf")
        self._acked = 0
        self._failed = 0
        self._timed_out = 0

    # ------------------------------------------------------------------
    # tree lifecycle
    # ------------------------------------------------------------------
    def fresh_ack_id(self) -> int:
        """A random non-zero 64-bit edge id.

        The draw covers the full non-zero 64-bit range; zero (the XOR
        identity, which could complete a tree early) is excluded by the
        lower bound, so no rejection loop is needed.  Ids come from
        blocks of ``_ACK_ID_BLOCK``: for 64-bit bounded integers numpy
        consumes the bit stream one value at a time, so a block holds
        exactly the values that many scalar draws would have returned.
        """
        ids = self._ack_ids
        if not ids:
            ids = self._ack_ids = self._rng.integers(
                1, 1 << 64, size=_ACK_ID_BLOCK, dtype=np.uint64
            ).tolist()
            ids.reverse()
        return ids.pop()

    def register_root(self, msg_id: Any, ack_id: int, now: float) -> None:
        """A spout emitted an anchored tuple at ``now`` (never decreasing)."""
        if msg_id in self._pending:
            raise ValueError(f"message id {msg_id!r} already pending")
        if now < self._last_emit:
            raise ValueError(
                f"emission time went backwards: {now} < {self._last_emit}"
            )
        self._last_emit = now
        self._pending[msg_id] = _PendingTree(now, ack_id)

    def register_edge(self, msg_id: Any, ack_id: int) -> None:
        """A bolt emitted an anchored descendant tuple."""
        tree = self._pending.get(msg_id)
        if tree is None:
            return  # tree already completed/failed/timed out
        tree.checksum ^= ack_id
        tree.outstanding += 1

    def ack(self, msg_id: Any, ack_id: int) -> tuple[bool, float] | None:
        """One edge acked; returns ``(True, latency)`` when the tree
        completes, ``None`` otherwise."""
        tree = self._pending.get(msg_id)
        if tree is None:
            return None
        tree.checksum ^= ack_id
        tree.outstanding -= 1
        if tree.checksum == 0 and tree.outstanding == 0:
            del self._pending[msg_id]
            self._acked += 1
            return True, tree.emitted_at
        return None

    def fail(self, msg_id: Any) -> bool:
        """Explicit failure of a tree; returns whether it was pending."""
        if self._pending.pop(msg_id, None) is not None:
            self._failed += 1
            return True
        return False

    def expire(self, now: float) -> list[Any]:
        """Fail every tree older than the timeout; returns their ids.

        Trees sit in emission order, so the scan stops at the first one
        still young enough.
        """
        expired = []
        for msg_id, tree in self._pending.items():
            if now - tree.emitted_at < self._timeout:
                break
            expired.append(msg_id)
        for msg_id in expired:
            del self._pending[msg_id]
            self._timed_out += 1
        return expired

    def next_expiry(self) -> float | None:
        """Earliest instant at which a pending tree can time out."""
        for tree in self._pending.values():
            return tree.emitted_at + self._timeout
        return None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """In-flight tuple trees (drives ``max.spout.pending``)."""
        return len(self._pending)

    @property
    def acked(self) -> int:
        """Completed trees."""
        return self._acked

    @property
    def failed(self) -> int:
        """Explicitly failed trees (not counting timeouts)."""
        return self._failed

    @property
    def timed_out(self) -> int:
        """Trees failed by timeout."""
        return self._timed_out

    @property
    def message_timeout(self) -> float:
        """The timeout, in virtual milliseconds."""
        return self._timeout
