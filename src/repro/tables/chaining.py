"""Separate-chaining hash table and the entropy-aware growth wrapper.

The chaining table is the simpler of the paper's two prototypical designs
(Section 4.1.1): an array of buckets, collisions resolved by appending to
the bucket.  It counts key comparisons so experiments can check the
paper's equations (1)-(2) directly.

:class:`EntropyAwareTable` implements paper Section 5's "Creating Hash
Tables": the table knows its maximum capacity before the next rehash and
asks a trained :class:`~repro.core.trainer.EntropyModel` for a hasher
with ``log2(capacity) + 1`` bits; every growth re-consults the model, so
the hash gains words exactly when the data structure's entropy demand
crosses the next frontier step (the Figure 4 life cycle).

All hashing — scalar and batched — routes through one
:class:`~repro.engine.HashEngine`, which compiles the partial-key gather,
fuses the bucket-mask reduction, and owns the collision-monitor fallback.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro._util import Key, as_bytes, iter_ints
from repro.core.hasher import EntropyLearnedHasher
from repro.core.sizing import entropy_for_chaining_table
from repro.engine import MaskReducer
from repro.tables.aware import EntropyAwareMixin
from repro.tables.base import RehashingTable

DEFAULT_MAX_LOAD = 1.0


class SeparateChainingTable(RehashingTable):
    """Array of buckets; each bucket is a list of (key, value) pairs.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> t = SeparateChainingTable(EntropyLearnedHasher.full_key(), capacity=4)
    >>> t.insert(b"k", 42)
    >>> t.get(b"k")
    42
    """

    default_max_load = DEFAULT_MAX_LOAD

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        capacity: int = 16,
        max_load: float = DEFAULT_MAX_LOAD,
    ):
        if max_load <= 0.0:
            raise ValueError(f"max_load must be positive, got {max_load}")
        super().__init__(hasher, capacity, max_load)

    def _init_array(self, num_buckets: int) -> None:
        self._mask = num_buckets - 1
        self._reducer = MaskReducer(self._mask)
        self._buckets: List[List[Tuple[bytes, Any]]] = [[] for _ in range(num_buckets)]

    @property
    def num_buckets(self) -> int:
        return self._mask + 1

    @property
    def load_factor(self) -> float:
        return self._size / self.num_buckets

    @property
    def capacity_before_rehash(self) -> int:
        """Maximum item count the current bucket array will hold."""
        return int(self.max_load * self.num_buckets)

    def _bucket_index(self, key: bytes) -> int:
        return self.engine.hash_one(key, self._reducer)

    # ------------------------------------------------------------ operations

    def _insert_one(self, key: bytes, value: Any, h: Optional[int], plan) -> None:
        """Shared insert step for the scalar and batch paths.

        ``h`` is a precomputed raw hash from the batch pipeline, taken
        under the hasher whose fingerprint is ``plan``; it is recomputed
        once the live hasher's fingerprint differs (growth re-planned
        the hash, or a monitor fallback fired mid-batch).
        """
        if self._size + 1 > self.capacity_before_rehash:
            self._grow()
        bucket = self._buckets[self._bucket_for(key, h, plan)]
        for i, (existing, _) in enumerate(bucket):
            if existing == key:
                bucket[i] = (key, value)
                return
        if self._before_append(len(bucket)):
            # The hook swapped the hasher and rehashed the table, so a
            # batch-precomputed hash is recomputed.
            bucket = self._buckets[self._bucket_for(key, h, plan)]
        bucket.append((key, value))
        self._size += 1

    def _before_append(self, chain: int) -> bool:
        """Pre-append hook: ``chain`` keys already share the new key's
        bucket.  Entropy-aware subclasses feed the collision monitor
        here; True means the hook rehashed the table."""
        return False

    def _bucket_for(self, key: bytes, h: Optional[int], plan) -> int:
        if h is None or plan != self.engine.hasher.fingerprint:
            return self._bucket_index(key)
        return int(h) & self._mask

    def get(self, key: Key, default: Any = None) -> Any:
        """Value stored under ``key``; counts comparisons in ``stats``."""
        key = as_bytes(key)
        bucket = self._buckets[self._bucket_index(key)]
        self.stats.probes += 1
        self.stats.chain_total += len(bucket)
        for existing, value in bucket:
            self.stats.key_comparisons += 1
            if existing == key:
                return value
        return default

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns whether it was present."""
        key = as_bytes(key)
        return self._delete_from(self._buckets[self._bucket_index(key)], key)

    def delete_batch(self, keys: Sequence[bytes], hashes=None) -> List[bool]:
        """Remove many keys; ``hashes``, when given, are their raw hashes
        under this table's current hasher, and nothing is hashed again."""
        if hashes is None:
            return [self.delete(key) for key in keys]
        buckets = self._buckets
        mask = self._mask
        return [self._delete_from(buckets[h & mask], key)
                for key, h in zip(keys, iter_ints(hashes))]

    def _delete_from(self, bucket: List[Tuple[bytes, Any]], key: bytes) -> bool:
        for i, (existing, _) in enumerate(bucket):
            if existing == key:
                bucket.pop(i)
                self._size -= 1
                return True
        return False

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        for bucket in self._buckets:
            yield from bucket

    def probe_batch(self, keys: Sequence[Key]) -> List[Any]:
        """Look up many keys, hashing them in one engine pass."""
        keys = [as_bytes(k) for k in keys]
        indices = self.engine.hash_batch(keys, self._reducer)
        return self._walk(keys, indices.tolist())

    def probe_batch_hashed(self, keys: Sequence[bytes], hashes) -> List[Any]:
        """Probe with precomputed hashes (see LinearProbingTable); the
        walk is :meth:`probe_batch`'s, so it charges the same stats."""
        mask = self._mask
        return self._walk(keys, [h & mask for h in iter_ints(hashes)])

    def _walk(self, keys: Sequence[bytes], indices: List[int]) -> List[Any]:
        """Look each key up in its bucket ``indices[i]``; charges stats."""
        results = []
        buckets = self._buckets
        stats = self.stats
        for key, index in zip(keys, indices):
            bucket = buckets[index]
            stats.probes += 1
            stats.chain_total += len(bucket)
            found = None
            for existing, value in bucket:
                stats.key_comparisons += 1
                if existing == key:
                    found = value
                    break
            results.append(found)
        return results

    # ------------------------------------------------------------ diagnostics

    def chain_length_histogram(self) -> List[int]:
        """Bucket sizes; the quantity chaining analysis reasons about."""
        return [len(b) for b in self._buckets]


class EntropyAwareTable(EntropyAwareMixin, SeparateChainingTable):
    """Chaining table that re-chooses its hash as it grows (Section 5).

    On construction and at every growth, asks the trained model for the
    cheapest partial-key hasher with ``log2(capacity) + 1`` bits for the
    *new* capacity; if the frontier cannot provide it, falls back to
    full-key hashing.  The engine's collision monitor triggers the
    full-key rebuild when observed collisions exceed what the learned
    entropy predicts (the Section 5 robustness story).  It watches only
    with a monitor it is given.
    """

    _requirement = staticmethod(entropy_for_chaining_table)

    def _before_append(self, chain: int) -> bool:
        # Displacement for chaining = how many keys already share the
        # bucket; the cheap signal the paper says to track.  Batch
        # inserts route through here too, so the monitor sees every
        # insert regardless of code path.
        return self._watch_insert(chain, self._size / self.num_buckets,
                                  self._size + 1)
