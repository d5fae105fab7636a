"""Carter–Wegman 2-universal hash functions.

A family ``H`` of functions ``h : [n] -> [c]`` is 2-universal when, for any
two distinct items ``x != y`` and a function drawn uniformly from ``H``,
``Pr{h(x) = h(y)} <= 1/c``.  Carter and Wegman (1979) construct such a
family as ``h(x) = ((a*x + b) mod p) mod c`` with ``p`` prime, ``p > n``,
``a`` drawn from ``[1, p-1]`` and ``b`` from ``[0, p-1]``.

The implementation is fully deterministic given a seed, supports scalar and
vectorized (numpy) evaluation, and its parameters can be serialized so that
the POSG scheduler and the operator instances share the exact same
functions, as required by the protocol of the paper (Listing III.1/III.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import COUNT, check_bounds, integer

# A Mersenne prime comfortably above every universe size used in the paper
# (n = 4096 synthetic, n ~ 35000 Twitter entities) and large enough that the
# ``mod p`` bias is negligible for any realistic universe.
MERSENNE_PRIME_61 = (1 << 61) - 1

_M61 = np.uint64(MERSENNE_PRIME_61)
_SHIFT_61 = np.uint64(61)
_SHIFT_31 = np.uint64(31)
_SHIFT_30 = np.uint64(30)
_MASK_31 = np.uint64((1 << 31) - 1)
_MASK_30 = np.uint64((1 << 30) - 1)


def _fold_mersenne61(x: np.ndarray) -> np.ndarray:
    """Reduce a ``uint64`` array modulo ``2^61 - 1``.

    Two shift-and-add folds bring any 64-bit value below ``2^62``, after
    which a single conditional subtract lands it in ``[0, p)``.
    """
    x = (x & _M61) + (x >> _SHIFT_61)
    x = (x & _M61) + (x >> _SHIFT_61)
    return np.where(x >= _M61, x - _M61, x)


def _mersenne61_affine(a: np.ndarray, b: np.ndarray, items: np.ndarray) -> np.ndarray:
    """``(a * items + b) mod (2^61 - 1)`` entirely in ``uint64``.

    The 122-bit products are assembled from 30/31-bit limbs:
    with ``a = a_hi*2^31 + a_lo`` and ``x = x_hi*2^31 + x_lo``,

        a*x = a_hi*x_hi*2^62 + (a_hi*x_lo + a_lo*x_hi)*2^31 + a_lo*x_lo

    and ``2^61 = 1 (mod p)`` turns every high limb into a small additive
    term: ``2^62 = 2`` and, writing the middle sum ``m = m_hi*2^30 + m_lo``,
    ``m*2^31 = m_hi + m_lo*2^31``.  Each partial term stays below ``2^62``,
    so the final sum (plus ``b < 2^61``) never overflows ``uint64``.

    ``a`` and ``b`` broadcast against ``items``; all inputs must already be
    reduced modulo ``p``.
    """
    a_hi = a >> _SHIFT_31
    a_lo = a & _MASK_31
    x_hi = items >> _SHIFT_31
    x_lo = items & _MASK_31
    mid = a_hi * x_lo + a_lo * x_hi
    total = (
        np.uint64(2) * (a_hi * x_hi)
        + (mid >> _SHIFT_30)
        + ((mid & _MASK_30) << _SHIFT_31)
        + a_lo * x_lo
    )
    return _fold_mersenne61(total + b)


def _is_prime(value: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if value < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for prime in small_primes:
        if value % prime == 0:
            return value == prime
    d = value - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses are sufficient for all values below 3.3 * 10^24.
    for witness in small_primes:
        x = pow(witness, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(r - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def next_prime(value: int) -> int:
    """Return the smallest prime strictly greater than ``value``."""
    candidate = value + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not _is_prime(candidate):
        candidate += 2
    return candidate


@dataclass(frozen=True)
class TwoUniversalHashFamily:
    """A fixed set of ``r`` 2-universal hash functions ``[n] -> [c]``.

    Parameters
    ----------
    a, b:
        Integer arrays of shape ``(r,)`` holding the Carter–Wegman
        coefficients of each row's function.
    cols:
        The output range ``c``; ``h_i(x) in {0, ..., cols - 1}``.
    prime:
        The field modulus ``p``.

    The family is immutable; use :func:`random_hash_family` to draw one.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    cols: int = integer(low=1)
    prime: int = integer(MERSENNE_PRIME_61)

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError("coefficient vectors a and b must have equal length")
        if len(self.a) == 0:
            raise ValueError("a hash family needs at least one function")
        check_bounds(self)
        if not _is_prime(self.prime):
            raise ValueError(f"prime={self.prime} is not prime")
        if any(not (1 <= ai < self.prime) for ai in self.a):
            raise ValueError("every a_i must lie in [1, prime - 1]")
        if any(not (0 <= bi < self.prime) for bi in self.b):
            raise ValueError("every b_i must lie in [0, prime - 1]")

    @property
    def rows(self) -> int:
        """Number of independent hash functions in the family."""
        return len(self.a)

    def hash(self, row: int, item: int) -> int:
        """Evaluate ``h_row(item)``, a bucket index in ``[0, cols)``."""
        return ((self.a[row] * item + self.b[row]) % self.prime) % self.cols

    def hash_all(self, item: int) -> tuple[int, ...]:
        """Evaluate every row's function on ``item`` (scheduler hot path)."""
        p, c = self.prime, self.cols
        return tuple(((a * item + b) % p) % c for a, b in zip(self.a, self.b))

    def hash_vector(self, items: np.ndarray) -> np.ndarray:
        """Vectorized evaluation: shape ``(rows, len(items))`` bucket matrix.

        Three paths, all bit-identical to scalar :meth:`hash`:

        - ``prime == 2^61 - 1`` (the default): a branch-free ``uint64``
          Mersenne-reduction kernel (see :func:`_mersenne61_affine`) that
          handles arbitrary coefficients and items without overflow;
        - other primes whose worst-case product ``(p-1) * max(a) + max(b)``
          fits in 64 bits: plain ``uint64`` arithmetic (items are reduced
          into the field first, so the guard is exact);
        - everything else: vectorized Python-int (object-dtype) arithmetic,
          correct for arbitrary primes.

        Signed ids are first reduced into the field the way Python's
        ``%`` reduces them in :meth:`hash` (a plain cast to ``uint64``
        would wrap ``-1`` to ``2^64 - 1``, a different residue).
        """
        items = np.asarray(items)
        if items.dtype.kind == "i":
            if self.prime <= np.iinfo(np.int64).max:
                items = items % np.int64(self.prime)
            else:
                items = items.astype(object) % self.prime
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if items.size == 0:
            return np.empty((self.rows, 0), dtype=np.int64)
        cols = np.uint64(self.cols)
        if self.prime == MERSENNE_PRIME_61:
            a = np.asarray(self.a, dtype=np.uint64)[:, None]
            b = np.asarray(self.b, dtype=np.uint64)[:, None]
            mixed = _mersenne61_affine(a, b, _fold_mersenne61(items)[None, :])
            return (mixed % cols).astype(np.int64)
        prime = np.uint64(self.prime)
        # h(x) = h(x mod p), so reduce items into the field first; the
        # overflow guard then bounds the *true* worst-case product.
        reduced = items % prime
        if (self.prime - 1) * max(self.a) + max(self.b) < (1 << 64):
            a = np.asarray(self.a, dtype=np.uint64)[:, None]
            b = np.asarray(self.b, dtype=np.uint64)[:, None]
            mixed = (a * reduced[None, :] + b) % prime
            return (mixed % cols).astype(np.int64)
        # Arbitrary-precision slow path: numpy object arrays hold Python
        # ints, so products cannot overflow no matter the prime.
        a_obj = np.array([int(ai) for ai in self.a], dtype=object)[:, None]
        b_obj = np.array([int(bi) for bi in self.b], dtype=object)[:, None]
        mixed = (a_obj * reduced.astype(object)[None, :] + b_obj) % self.prime
        return (mixed % self.cols).astype(np.int64)

    def to_dict(self) -> dict:
        """Serializable parameter dictionary (shared scheduler/instances)."""
        return {"a": list(self.a), "b": list(self.b), "cols": self.cols, "prime": self.prime}

    @classmethod
    def from_dict(cls, payload: dict) -> "TwoUniversalHashFamily":
        """Rebuild a family from :meth:`to_dict` output."""
        return cls(
            a=tuple(payload["a"]),
            b=tuple(payload["b"]),
            cols=int(payload["cols"]),
            prime=int(payload["prime"]),
        )


def random_hash_family(
    rows: int,
    cols: int,
    rng: np.random.Generator | None = None,
    prime: int = MERSENNE_PRIME_61,
) -> TwoUniversalHashFamily:
    """Draw ``rows`` independent functions ``[n] -> [cols]`` from the family.

    Parameters
    ----------
    rows:
        Number of functions (the sketch depth ``r = ceil(ln 1/delta)``).
    cols:
        Output range (the sketch width ``c = ceil(e/eps)``).
    rng:
        Source of randomness; defaults to a fresh unseeded generator.
    prime:
        Field modulus; must exceed every item in the universe.
    """
    rows = COUNT.check("rows", rows)
    cols = COUNT.check("cols", cols)
    rng = rng if rng is not None else np.random.default_rng()
    a = tuple(int(rng.integers(1, prime)) for _ in range(rows))
    b = tuple(int(rng.integers(0, prime)) for _ in range(rows))
    return TwoUniversalHashFamily(a=a, b=b, cols=cols, prime=prime)
