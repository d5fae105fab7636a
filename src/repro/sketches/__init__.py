"""Streaming-summary substrate: hash families and Count-Min sketches.

This package implements, from scratch, the data-streaming building blocks
the paper relies on (Section III-A of the paper):

- :class:`~repro.sketches.hashing.TwoUniversalHashFamily` — Carter–Wegman
  2-universal hash functions over a prime field.
- :class:`~repro.sketches.count_min.CountMinSketch` — the Cormode &
  Muthukrishnan Count-Min sketch, with both the plain frequency update
  and the generalized weighted update used by POSG's ``W`` matrix.
"""

from repro.sketches.hashing import TwoUniversalHashFamily, random_hash_family
from repro.sketches.bucket_cache import BucketColumnCache, get_bucket_cache
from repro.sketches.count_min import CountMinSketch, dims_for

__all__ = [
    "TwoUniversalHashFamily",
    "random_hash_family",
    "BucketColumnCache",
    "get_bucket_cache",
    "CountMinSketch",
    "dims_for",
]
