"""Tests for the vectorized Mersenne-61 hash kernel.

The kernel (:func:`repro.sketches.hashing._mersenne61_affine`) must agree
bit-for-bit with scalar :meth:`TwoUniversalHashFamily.hash` for arbitrary
coefficients and items — including the regime where ``a * item`` far
exceeds 64 bits, which the pre-kernel implementation silently routed to a
pure-Python double loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import hashing
from repro.sketches.hashing import (
    MERSENNE_PRIME_61,
    TwoUniversalHashFamily,
    _fold_mersenne61,
    random_hash_family,
)


class TestFoldMersenne61:
    def test_edge_values_reduced_exactly(self):
        edges = np.array(
            [
                0,
                1,
                MERSENNE_PRIME_61 - 1,
                MERSENNE_PRIME_61,
                MERSENNE_PRIME_61 + 1,
                (1 << 62) - 1,
                (1 << 63) + 17,
                (1 << 64) - 1,
            ],
            dtype=np.uint64,
        )
        reduced = _fold_mersenne61(edges)
        for raw, got in zip(edges.tolist(), reduced.tolist()):
            assert int(got) == int(raw) % MERSENNE_PRIME_61

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_python_modulo(self, value):
        got = _fold_mersenne61(np.array([value], dtype=np.uint64))[0]
        assert int(got) == value % MERSENNE_PRIME_61


class TestKernelVsScalar:
    def test_random_families_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            fam = random_hash_family(4, 54, rng=rng)
            items = rng.integers(0, 1 << 20, size=64)
            buckets = fam.hash_vector(items.astype(np.uint64))
            for j, item in enumerate(items.tolist()):
                assert tuple(buckets[:, j]) == fam.hash_all(item)

    def test_overflow_regime_coefficients(self):
        """a, b near the prime: products reach ~2^122, the exact case the
        old ``max_product < 2^64`` guard could never vectorize."""
        p = MERSENNE_PRIME_61
        fam = TwoUniversalHashFamily(
            a=(p - 1, p - 2, (p - 1) // 2), b=(p - 1, 0, p // 3), cols=54
        )
        items = np.array([0, 1, 4095, (1 << 31) - 1, (1 << 61) - 2], dtype=np.uint64)
        buckets = fam.hash_vector(items)
        for j, item in enumerate(items.tolist()):
            for row in range(3):
                assert buckets[row, j] == fam.hash(row, int(item))

    def test_items_beyond_prime_reduced_first(self):
        """h(x) = h(x mod p): items >= p must hash like their residues."""
        fam = random_hash_family(3, 32, rng=np.random.default_rng(3))
        big = np.array([MERSENNE_PRIME_61, MERSENNE_PRIME_61 + 5, (1 << 64) - 1], dtype=np.uint64)
        buckets = fam.hash_vector(big)
        for j, item in enumerate(big.tolist()):
            reduced = int(item) % MERSENNE_PRIME_61
            assert tuple(buckets[:, j]) == fam.hash_all(reduced)

    @given(
        st.integers(min_value=1, max_value=MERSENNE_PRIME_61 - 1),
        st.integers(min_value=0, max_value=MERSENNE_PRIME_61 - 1),
        st.integers(min_value=0, max_value=MERSENNE_PRIME_61 - 1),
        st.integers(min_value=2, max_value=4096),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_kernel_equals_affine_mod(self, a, b, item, cols):
        fam = TwoUniversalHashFamily(a=(a,), b=(b,), cols=cols)
        got = fam.hash_vector(np.array([item], dtype=np.uint64))[0, 0]
        assert int(got) == ((a * item + b) % MERSENNE_PRIME_61) % cols


class TestSignedAndHugeIds:
    """``hash_vector`` takes signed ids the way scalar ``hash`` does:
    reduced by Python's ``%``, never wrapped to ``2^64 + x`` by a cast
    (which made the chunked engine disagree with the reference)."""

    SIGNED = [-1, -2, -4096, -(1 << 63), 0, 7, (1 << 62) + 5, (1 << 63) - 1]

    @pytest.mark.parametrize(
        "family",
        [
            random_hash_family(4, 54, rng=np.random.default_rng(0)),
            TwoUniversalHashFamily(a=(3, 11), b=(5, 0), cols=16, prime=104729),
            # a prime above int64: the signed reduction falls to Python ints
            TwoUniversalHashFamily(
                a=(3, (1 << 63) + 8), b=(5, 0), cols=16,
                prime=hashing.next_prime(1 << 63),
            ),
        ],
        ids=["mersenne61", "small-prime", "prime-above-int64"],
    )
    def test_signed_ids_hash_like_the_scalar_path(self, family):
        buckets = family.hash_vector(np.array(self.SIGNED, dtype=np.int64))
        for j, item in enumerate(self.SIGNED):
            assert tuple(buckets[:, j]) == family.hash_all(item), item

    def test_unsigned_ids_above_the_signed_range(self):
        family = random_hash_family(4, 54, rng=np.random.default_rng(0))
        huge = [(1 << 62) + 1, (1 << 63) + 3, (1 << 64) - 1]
        buckets = family.hash_vector(np.array(huge, dtype=np.uint64))
        for j, item in enumerate(huge):
            assert tuple(buckets[:, j]) == family.hash_all(item), item

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    @settings(max_examples=200, deadline=None)
    def test_property_any_int64_id(self, item):
        family = random_hash_family(3, 54, rng=np.random.default_rng(2))
        got = family.hash_vector(np.array([item], dtype=np.int64))
        assert tuple(got[:, 0]) == family.hash_all(item)


class TestNoPythonFallbackRegression:
    def test_default_prime_uses_kernel(self, monkeypatch):
        """With the default Mersenne prime, hash_vector must route through
        the uint64 kernel — not the object-dtype Python fallback — for
        any coefficients (the old guard fell back essentially always)."""
        calls = []
        original = hashing._mersenne61_affine

        def spying(a, b, items):
            calls.append(a.shape)
            return original(a, b, items)

        monkeypatch.setattr(hashing, "_mersenne61_affine", spying)
        p = MERSENNE_PRIME_61
        fam = TwoUniversalHashFamily(a=(p - 1, 12345), b=(p - 7, 0), cols=54)
        out = fam.hash_vector(np.arange(100, dtype=np.uint64))
        assert calls, "Mersenne kernel was bypassed"
        assert out.dtype == np.int64

    def test_non_mersenne_prime_small_products_stay_vectorized(self):
        fam = TwoUniversalHashFamily(a=(3, 11), b=(5, 0), cols=16, prime=104729)
        items = np.arange(0, 2000, 7, dtype=np.uint64)
        buckets = fam.hash_vector(items)
        for j, item in enumerate(items.tolist()):
            for row in range(2):
                assert buckets[row, j] == fam.hash(row, int(item))

    def test_empty_batch(self):
        fam = random_hash_family(4, 54, rng=np.random.default_rng(0))
        out = fam.hash_vector(np.empty(0, dtype=np.uint64))
        assert out.shape == (4, 0)
