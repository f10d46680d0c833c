"""Cuckoo hash table — a third table design from the literature [56].

Cuckoo hashing gives worst-case O(1) lookups: every key lives in one of
two buckets determined by two hashes, and inserts evict and relocate on
collision.  It is a harsher consumer of hash randomness than probing or
chaining (insertion failure probability depends on joint independence),
which makes it a good stress test for Entropy-Learned Hashing: with
enough partial-key entropy the two derived hashes behave independently
and the table operates normally; colliding partial keys make the two
candidate buckets of the colliding keys coincide and show up as extra
evictions — never as wrong answers.

Design: 4-slot buckets (the practical standard), two hashes derived
from one 64-bit ELH hash by independent finalizers, BFS-free random-walk
eviction with a relocation cap, growth on failure.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import Key, as_bytes, next_power_of_two, u64
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine
from repro.tables.base import HashTable

BUCKET_SLOTS = 4
MAX_RELOCATIONS = 256


def _mix(h: int, salt: int) -> int:
    """Derive an independent-looking bucket index stream from one hash."""
    h = u64(h ^ salt)
    h ^= h >> 33
    h = u64(h * 0xFF51AFD7ED558CCD)
    h ^= h >> 29
    return h


class CuckooTable(HashTable):
    """Bucketed cuckoo hash table with two ELH-derived hash functions.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> t = CuckooTable(EntropyLearnedHasher.full_key(), capacity=16)
    >>> t.insert(b"a", 1)
    >>> t.get(b"a")
    1
    """

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        capacity: int = 16,
        max_load: float = 0.9,
    ):
        if not 0.0 < max_load <= 0.98:
            raise ValueError(f"max_load must be in (0, 0.98], got {max_load}")
        self.engine = HashEngine(hasher)
        self.max_load = max_load
        self._size = 0
        self._rng = random.Random(0xC0C0)
        self._init_buckets(max(1, next_power_of_two(capacity) // BUCKET_SLOTS))
        self.relocations = 0  # eviction-path length accounting
        self.rebuilds = 0

    def _init_buckets(self, num_buckets: int) -> None:
        num_buckets = max(2, num_buckets)
        self._num_buckets = num_buckets
        self._buckets: List[List[Tuple[bytes, Any]]] = [
            [] for _ in range(num_buckets)
        ]

    # ------------------------------------------------------------- internals

    def _bucket_pair(self, key: bytes) -> Tuple[int, int]:
        h = self.engine.hash_one(key)
        b1 = _mix(h, 0x9E3779B97F4A7C15) % self._num_buckets
        b2 = _mix(h, 0xC2B2AE3D27D4EB4F) % self._num_buckets
        if b2 == b1:
            b2 = (b1 + 1) % self._num_buckets
        return b1, b2

    @property
    def num_slots(self) -> int:
        return self._num_buckets * BUCKET_SLOTS

    @property
    def load_factor(self) -> float:
        return self._size / self.num_slots

    # ------------------------------------------------------------ operations

    def get(self, key: Key, default: Any = None) -> Any:
        """Worst-case two-bucket lookup."""
        key = as_bytes(key)
        b1, b2 = self._bucket_pair(key)
        for bucket_index in (b1, b2):
            for existing, value in self._buckets[bucket_index]:
                if existing == key:
                    return value
        return default

    def probe_batch(self, keys: Sequence[Key], default: Any = None) -> List[Any]:
        """Look up many keys: one engine pass, vectorized bucket derivation."""
        keys = [as_bytes(k) for k in keys]
        if not keys:
            return []
        hashes = self.engine.hash_batch(keys)
        b1s, b2s = self._bucket_pairs_from_hashes(hashes)
        results: List[Any] = []
        buckets = self._buckets
        for key, b1, b2 in zip(keys, b1s, b2s):
            found = default
            for bucket_index in (int(b1), int(b2)):
                for existing, value in buckets[bucket_index]:
                    if existing == key:
                        found = value
                        break
                else:
                    continue
                break
            results.append(found)
        return results

    def _bucket_pairs_from_hashes(self, hashes) -> Tuple[Any, Any]:
        """Vectorized :func:`_mix` pair, bit-exact with :meth:`_bucket_pair`."""

        def mix(h, salt):
            h = h ^ np.uint64(salt)
            h ^= h >> np.uint64(33)
            h *= np.uint64(0xFF51AFD7ED558CCD)
            h ^= h >> np.uint64(29)
            return h

        h = np.asarray(hashes, dtype=np.uint64)
        m = np.uint64(self._num_buckets)
        b1 = mix(h, 0x9E3779B97F4A7C15) % m
        b2 = mix(h, 0xC2B2AE3D27D4EB4F) % m
        b2 = np.where(b2 == b1, (b1 + np.uint64(1)) % m, b2)
        return b1, b2

    def insert(self, key: Key, value: Any = None) -> None:
        """Insert or overwrite; grows on load or on eviction failure."""
        key = as_bytes(key)
        if self._update_in_place(key, value):
            return
        if self._size + 1 > self.max_load * self.num_slots:
            self._grow()
        entry = (key, value)
        for _ in range(8):  # retry across growths
            entry = self._place(entry)
            if entry is None:
                self._size += 1
                return
            self._grow()
        raise RuntimeError("cuckoo insertion failed after repeated growth")

    def _update_in_place(self, key: bytes, value: Any) -> bool:
        b1, b2 = self._bucket_pair(key)
        for bucket_index in (b1, b2):
            bucket = self._buckets[bucket_index]
            for i, (existing, _) in enumerate(bucket):
                if existing == key:
                    bucket[i] = (key, value)
                    return True
        return False

    def _place(self, entry: Tuple[bytes, Any]) -> Optional[Tuple[bytes, Any]]:
        """Random-walk insertion; returns the homeless entry on failure."""
        for _ in range(MAX_RELOCATIONS):
            key, _ = entry
            b1, b2 = self._bucket_pair(key)
            for bucket_index in (b1, b2):
                bucket = self._buckets[bucket_index]
                if len(bucket) < BUCKET_SLOTS:
                    bucket.append(entry)
                    return None
            # Both buckets full: evict a random victim from one of them.
            victim_bucket = self._buckets[self._rng.choice((b1, b2))]
            slot = self._rng.randrange(BUCKET_SLOTS)
            entry, victim_bucket[slot] = victim_bucket[slot], entry
            self.relocations += 1
        return entry

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns whether it was present."""
        key = as_bytes(key)
        b1, b2 = self._bucket_pair(key)
        for bucket_index in (b1, b2):
            bucket = self._buckets[bucket_index]
            for i, (existing, _) in enumerate(bucket):
                if existing == key:
                    bucket.pop(i)
                    self._size -= 1
                    return True
        return False

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        for bucket in self._buckets:
            yield from bucket

    # --------------------------------------------------------------- resizing

    def _grow(self) -> None:
        self.rebuilds += 1
        entries = list(self.items())
        num_buckets = self._num_buckets * 2
        while True:
            self._init_buckets(num_buckets)
            self._size = 0
            success = True
            for key, value in entries:
                if self._place((key, value)) is not None:
                    success = False
                    break
                self._size += 1
            if success:
                return
            num_buckets *= 2  # extremely unlikely right after doubling
