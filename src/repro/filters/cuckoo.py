"""Cuckoo filter — fingerprint-based membership with deletion.

Cuckoo filters (Fan et al.; the paper's LSM context cites their use in
key-value stores [25]) store a short *fingerprint* of each key in one of
two buckets, giving Bloom-like FPR with deletion support and better
space at low FPRs.  Two hashing economies matter here, and both
compose with Entropy-Learned Hashing:

* the bucket index and the fingerprint both derive from **one** 64-bit
  hash of the (partial) key;
* the alternate bucket is ``i XOR hash(fingerprint)`` — computable from
  the stored fingerprint alone, which is what makes eviction possible
  without the original key.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import numpy as np

from repro._util import Key, as_bytes, as_bytes_list, next_power_of_two, u64
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import FingerprintReducer, HashEngine
from repro.filters.base import MembershipFilter

BUCKET_SLOTS = 4
MAX_KICKS = 500


def _fingerprint_hash(fingerprint: int) -> int:
    """Mix a fingerprint into a bucket offset (murmur finalizer)."""
    h = u64(fingerprint * 0xFF51AFD7ED558CCD)
    h ^= h >> 33
    return h


class CuckooFilter(MembershipFilter):
    """4-slot-bucket cuckoo filter with 16-bit fingerprints.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> f = CuckooFilter(EntropyLearnedHasher.full_key("xxh3"), capacity=128)
    >>> f.add(b"k")
    True
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
        capacity: int,
        fingerprint_bits: int = 16,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 4 <= fingerprint_bits <= 32:
            raise ValueError(
                f"fingerprint_bits must be in [4, 32], got {fingerprint_bits}"
            )
        self.engine = HashEngine(hasher)
        self.fingerprint_bits = fingerprint_bits
        self._fp_mask = (1 << fingerprint_bits) - 1
        num_buckets = next_power_of_two(
            max(2, (capacity + BUCKET_SLOTS - 1) // BUCKET_SLOTS)
        )
        self._bucket_mask = num_buckets - 1
        self._reducer = FingerprintReducer(self._fp_mask, self._bucket_mask)
        self._buckets: List[List[int]] = [[] for _ in range(num_buckets)]
        self._size = 0
        # Victim cache: when an eviction walk fails, the homeless
        # fingerprint parks here instead of being lost (the reference
        # implementation's approach); further adds fail until it drains.
        self._victim = None  # Optional[Tuple[int, int]] = (index, fingerprint)
        self._rng = random.Random(0xF11E)

    # ---------------------------------------------------------------- helpers

    @property
    def num_buckets(self) -> int:
        return self._bucket_mask + 1

    @property
    def load_factor(self) -> float:
        return self._size / (self.num_buckets * BUCKET_SLOTS)

    def __len__(self) -> int:
        return self._size

    def _index_and_fingerprint(self, key: Key):
        # 0 is the empty marker; the reducer remaps it to 1.
        return self.engine.hash_one(as_bytes(key), self._reducer)

    def _alt_index(self, index: int, fingerprint: int) -> int:
        return (index ^ _fingerprint_hash(fingerprint)) & self._bucket_mask

    # ------------------------------------------------------------- operations

    def add(self, key: Key) -> bool:
        """Insert; returns False when the filter is too full to accept
        the fingerprint (callers should then rebuild bigger).

        A failed eviction walk must not lose the displaced fingerprint
        of some *other* key, so the homeless fingerprint is parked in a
        single-entry victim cache; while it is occupied, further adds
        that cannot be placed directly are refused.
        """
        i1, fingerprint = self._index_and_fingerprint(key)
        return self._add_fingerprint(i1, fingerprint)

    def add_batch(self, keys: Sequence[Key]) -> List[bool]:
        """Insert many keys: one engine pass, scalar placement."""
        keys = as_bytes_list(keys)
        if not keys:
            return []
        indexes, fingerprints = self.engine.hash_batch(keys, self._reducer)
        return [
            self._add_fingerprint(int(index), int(fingerprint))
            for index, fingerprint in zip(indexes, fingerprints)
        ]

    def _add_fingerprint(self, i1: int, fingerprint: int) -> bool:
        i2 = self._alt_index(i1, fingerprint)
        for index in (i1, i2):
            if len(self._buckets[index]) < BUCKET_SLOTS:
                self._buckets[index].append(fingerprint)
                self._size += 1
                return True
        if self._victim is not None:
            return False  # too full: eviction could strand a fingerprint
        # Evict: random walk, relocating fingerprints by their alt index.
        index = self._rng.choice((i1, i2))
        for _ in range(MAX_KICKS):
            slot = self._rng.randrange(BUCKET_SLOTS)
            fingerprint, self._buckets[index][slot] = (
                self._buckets[index][slot], fingerprint
            )
            index = self._alt_index(index, fingerprint)
            if len(self._buckets[index]) < BUCKET_SLOTS:
                self._buckets[index].append(fingerprint)
                self._size += 1
                return True
        # Walk exhausted: park the last displaced fingerprint (it may
        # belong to another key) and count the insert as successful —
        # every previously-added key is still findable.
        self._victim = (index, fingerprint)
        self._size += 1
        return True

    def contains(self, key: Key) -> bool:
        """Membership test (two bucket reads plus the victim cache)."""
        i1, fingerprint = self._index_and_fingerprint(key)
        return self._contains_fingerprint(i1, fingerprint)

    def _contains_fingerprint(self, i1: int, fingerprint: int) -> bool:
        if fingerprint in self._buckets[i1]:
            return True
        i2 = self._alt_index(i1, fingerprint)
        if fingerprint in self._buckets[i2]:
            return True
        if self._victim is not None:
            v_index, v_fp = self._victim
            return v_fp == fingerprint and v_index in (i1, i2)
        return False

    def contains_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Membership for many keys: one engine pass, two reads each."""
        keys = as_bytes_list(keys)
        if not keys:
            return np.zeros(0, dtype=bool)
        indexes, fingerprints = self.engine.hash_batch(keys, self._reducer)
        return np.array(
            [
                self._contains_fingerprint(int(index), int(fingerprint))
                for index, fingerprint in zip(indexes, fingerprints)
            ],
            dtype=bool,
        )

    def remove(self, key: Key) -> bool:
        """Delete one copy of the key's fingerprint if present."""
        i1, fingerprint = self._index_and_fingerprint(key)
        i2 = self._alt_index(i1, fingerprint)
        for index in (i1, i2):
            bucket = self._buckets[index]
            if fingerprint in bucket:
                bucket.remove(fingerprint)
                self._size -= 1
                self._drain_victim()
                return True
        if self._victim is not None:
            v_index, v_fp = self._victim
            if v_fp == fingerprint and v_index in (i1, i2):
                self._victim = None
                self._size -= 1
                return True
        return False

    def _drain_victim(self) -> None:
        """Try to re-home the parked fingerprint after a removal."""
        if self._victim is None:
            return
        index, fingerprint = self._victim
        for candidate in (index, self._alt_index(index, fingerprint)):
            if len(self._buckets[candidate]) < BUCKET_SLOTS:
                self._buckets[candidate].append(fingerprint)
                self._victim = None
                return

    def theoretical_fpr(self) -> float:
        """~ ``2 * BUCKET_SLOTS / 2^f`` at full load (standard bound)."""
        return min(1.0, 2.0 * BUCKET_SLOTS / (1 << self.fingerprint_bits))
