"""Counting Bloom filter — deletable membership with ELH hashing.

LSM stores and caches sometimes need filters that support *removal*
(e.g. tracking a mutable hot set).  A counting Bloom filter replaces
each bit with a small counter; add increments, remove decrements, and a
query requires every counter nonzero.  With saturating counters the
structure keeps the no-false-negative guarantee for any add/remove
sequence in which removes only target added keys.

Entropy-Learned hashing applies unchanged: the k probes come from one
partial-key hash split by double hashing, exactly like
:class:`~repro.filters.bloom.BloomFilter`.  Hashing routes through the
shared :class:`~repro.engine.HashEngine`, batch paths included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import Key, as_bytes
from repro.core.analysis import bloom_bits_for_fpr, bloom_optimal_k
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import BloomSplitReducer, HashEngine
from repro.filters.base import MembershipFilter

_COUNTER_MAX = 255  # uint8 counters; saturate instead of overflowing
_SPLIT = BloomSplitReducer()


class CountingBloomFilter(MembershipFilter):
    """Bloom filter over uint8 counters with saturating arithmetic.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> f = CountingBloomFilter(EntropyLearnedHasher.full_key("xxh3"),
    ...                         num_counters=1024, num_hashes=3)
    >>> f.add(b"k")
    >>> f.contains(b"k")
    True
    >>> f.remove(b"k")
    True
    >>> f.contains(b"k")
    False
    """

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        num_counters: int,
        num_hashes: int,
    ):
        if num_counters <= 0:
            raise ValueError(f"num_counters must be positive, got {num_counters}")
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        self.engine = HashEngine(hasher)
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        self._counters = np.zeros(num_counters, dtype=np.uint8)
        self._num_items = 0

    @classmethod
    def for_items(
        cls,
        hasher: EntropyLearnedHasher,
        expected_items: int,
        target_fpr: float = 0.03,
    ) -> "CountingBloomFilter":
        """Size like a standard filter (counters instead of bits)."""
        num_counters = bloom_bits_for_fpr(expected_items, target_fpr)
        num_hashes = bloom_optimal_k(num_counters, expected_items)
        return cls(hasher, num_counters=num_counters, num_hashes=num_hashes)

    def _probes(self, key: Key):
        h1, h2 = self.engine.hash_one(as_bytes(key), _SPLIT)
        return [(h1 + i * h2) % self.num_counters for i in range(self.num_hashes)]

    def add(self, key: Key) -> None:
        """Insert one occurrence of ``key``."""
        for pos in self._probes(key):
            if self._counters[pos] < _COUNTER_MAX:
                self._counters[pos] += 1
        self._num_items += 1

    def add_batch(self, keys: Sequence[Key]) -> None:
        """Insert many keys in one engine pass.

        Increments accumulate in a wide work array and are clipped to
        the counter maximum, which matches the scalar saturating rule
        ``min(counter + hits, 255)`` exactly.
        """
        h1, h2 = self.engine.hash_batch(keys, _SPLIT)
        work = self._counters.astype(np.int64)
        for i in range(self.num_hashes):
            positions = ((h1 + np.uint64(i) * h2) % np.uint64(self.num_counters))
            np.add.at(work, positions.astype(np.int64), 1)
        np.clip(work, 0, _COUNTER_MAX, out=work)
        self._counters = work.astype(np.uint8)
        self._num_items += len(h1)

    def remove(self, key: Key) -> bool:
        """Remove one occurrence; returns False (no-op) if the filter
        rules the key out.

        Removing keys that were never added corrupts counting filters;
        the pre-check blocks every form of that misuse the filter can
        detect: a probed counter that is zero, or — when double hashing
        lands several probes on the *same* counter — a counter smaller
        than the probe multiplicity (an added key would have incremented
        it once per probe).  Without the multiplicity check the second
        decrement of a 1-valued counter wraps the uint8 to 255.
        Saturated counters are left untouched on decrement (they can no
        longer be trusted), preserving no-false-negatives.
        """
        needed: dict = {}
        for pos in self._probes(key):
            needed[pos] = needed.get(pos, 0) + 1
        for pos, count in needed.items():
            counter = int(self._counters[pos])
            if counter < _COUNTER_MAX and counter < count:
                return False
        for pos, count in needed.items():
            counter = int(self._counters[pos])
            if counter < _COUNTER_MAX:
                self._counters[pos] = counter - count
        self._num_items = max(0, self._num_items - 1)
        return True

    def contains(self, key: Key) -> bool:
        """Membership test; false positives possible, negatives exact
        (for add/remove sequences that only remove added keys)."""
        return all(self._counters[pos] > 0 for pos in self._probes(key))

    def contains_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Vectorized membership test for many keys."""
        h1, h2 = self.engine.hash_batch(keys, _SPLIT)
        result = np.ones(len(h1), dtype=bool)
        for i in range(self.num_hashes):
            positions = ((h1 + np.uint64(i) * h2) % np.uint64(self.num_counters))
            result &= self._counters[positions.astype(np.int64)] > 0
        return result

    @property
    def num_items(self) -> int:
        """Net items currently represented."""
        return self._num_items

    @property
    def saturated_counters(self) -> int:
        """Counters pinned at the maximum (diagnostics)."""
        return int((self._counters == _COUNTER_MAX).sum())
