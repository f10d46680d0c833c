"""Bloom-filter substrates.

* :class:`~repro.filters.bloom.BloomFilter` — the classic bit-array
  filter (appendix experiment 5).
* :class:`~repro.filters.blocked.BlockedBloomFilter` — register-blocked
  filter after Lang et al. [43], the paper's main filter baseline: all k
  probe bits land in one 64-bit block, found with a single hash.

Both use the paper's hashing economies: one 64-bit hash split into two
32-bit halves driving Kirsch-Mitzenmacher double hashing, and
multiply-shift range reduction instead of modulo
(:mod:`repro.filters.reduction`).  Every filter, the counting and
cuckoo filters too, shares ``in`` and ``measured_fpr``
(:mod:`repro.filters.base`), and a read-only ``hasher``: the engine's
live one.
"""

from repro.filters.aware import FilterBuildReport, build_filter
from repro.filters.blocked import BlockedBloomFilter
from repro.filters.counting import CountingBloomFilter
from repro.filters.cuckoo import CuckooFilter
from repro.filters.bloom import BloomFilter
from repro.filters.reduction import fast_range, split_hash64

__all__ = [
    "BloomFilter",
    "BlockedBloomFilter",
    "CountingBloomFilter",
    "CuckooFilter",
    "build_filter",
    "FilterBuildReport",
    "fast_range",
    "split_hash64",
]
