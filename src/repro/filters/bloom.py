"""Standard Bloom filter with Entropy-Learned hashing support.

Paper Section 4.2: a Bloom filter built on a partial-key hash behaves
exactly like a standard filter over the *distinct* subkeys, plus a
certain false positive whenever a query's subkey collides with a stored
key's subkey (eq. 7).  The class below exposes both the probabilistic
machinery (set-bit counting, the construction-time randomness validation
from Section 5) and exact FPR measurement helpers used by the tests and
the Figure 10 benchmark.

Hashing goes through the shared :class:`~repro.engine.HashEngine`; the
Kirsch-Mitzenmacher (h1, h2) split is a
:class:`~repro.engine.reducers.BloomSplitReducer` fused into the same
vectorized pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import Key, as_bytes
from repro.core.analysis import bloom_bits_for_fpr, bloom_optimal_k
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import BloomSplitReducer, HashEngine
from repro.filters.base import BitArrayFilter

_SPLIT = BloomSplitReducer()


class BloomFilter(BitArrayFilter):
    """Bit-array Bloom filter; one 64-bit hash drives all k probes.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> f = BloomFilter(EntropyLearnedHasher.full_key(), num_bits=1024, num_hashes=3)
    >>> f.add(b"hello")
    >>> f.contains(b"hello")
    True
    """

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        num_bits: int,
        num_hashes: int,
    ):
        if num_bits <= 0:
            raise ValueError(f"num_bits must be positive, got {num_bits}")
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        self.engine = HashEngine(hasher)
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = np.zeros(num_bits, dtype=bool)
        self._num_added = 0

    @property
    def _bits_per_key(self) -> int:
        return self.num_hashes

    # ----------------------------------------------------------- construction

    @classmethod
    def for_items(
        cls,
        hasher: EntropyLearnedHasher,
        expected_items: int,
        target_fpr: float = 0.03,
    ) -> "BloomFilter":
        """Size a filter for ``expected_items`` at ``target_fpr``."""
        num_bits = bloom_bits_for_fpr(expected_items, target_fpr)
        num_hashes = bloom_optimal_k(num_bits, expected_items)
        return cls(hasher, num_bits=num_bits, num_hashes=num_hashes)

    def add(self, key: Key) -> None:
        """Insert one key."""
        h1, h2 = self.engine.hash_one(as_bytes(key), _SPLIT)
        for i in range(self.num_hashes):
            self._bits[(h1 + i * h2) % self.num_bits] = True
        self._num_added += 1

    def add_batch(self, keys: Sequence[Key]) -> None:
        """Insert many keys using the engine's vectorized pass."""
        h1, h2 = self.engine.hash_batch(keys, _SPLIT)
        for i in range(self.num_hashes):
            positions = (h1 + np.uint64(i) * h2) % np.uint64(self.num_bits)
            self._bits[positions.astype(np.int64)] = True
        self._num_added += len(h1)

    # ---------------------------------------------------------------- queries

    def contains(self, key: Key) -> bool:
        """Membership test; false positives possible, negatives exact."""
        h1, h2 = self.engine.hash_one(as_bytes(key), _SPLIT)
        for i in range(self.num_hashes):
            if not self._bits[(h1 + i * h2) % self.num_bits]:
                return False
        return True

    def contains_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Vectorized membership test for many keys."""
        h1, h2 = self.engine.hash_batch(keys, _SPLIT)
        result = np.ones(len(h1), dtype=bool)
        for i in range(self.num_hashes):
            positions = (h1 + np.uint64(i) * h2) % np.uint64(self.num_bits)
            result &= self._bits[positions.astype(np.int64)]
        return result

    # ------------------------------------------------------------ diagnostics

    @property
    def num_set_bits(self) -> int:
        """Population count of the bit array."""
        return int(self._bits.sum())

    def theoretical_fpr(self) -> float:
        """Classic FPR approximation for the current fill."""
        return self.fill_fraction ** self.num_hashes
