"""The runtime Entropy-Learned hash ``H' = H ∘ L``.

An :class:`EntropyLearnedHasher` pairs a base hash (wyhash, xxh3, crc32,
…) with a learned :class:`~repro.core.partial_key.PartialKeyFunction` and
exposes two equivalent paths:

* the **scalar path** (``hasher(key)``) — hash one key at a time, exactly
  like the paper's C++ template instantiations;
* the **batch path** (``hasher.hash_batch(keys)``) — the
  :class:`~repro.engine.HashEngine` pipeline, *bit-exact* with the
  scalar path, used by the throughput benchmarks.

Both apply the Section 3 runtime branch: keys long enough to contain
every selected position hash their subkey; shorter keys hash in full.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro._util import Key, as_bytes, as_bytes_list
from repro.core.partial_key import PartialKeyFunction
from repro.hashing.base import HashFunction, get_hash
from repro.hashing.vectorized import words_per_key


class EntropyLearnedHasher:
    """A 64-bit hash that reads only the learned byte positions.

    >>> from repro.core import PartialKeyFunction
    >>> L = PartialKeyFunction(positions=(0, 8), word_size=8)
    >>> h = EntropyLearnedHasher(L, base="wyhash")
    >>> h(b"0123456789abcdef") == h(b"0123456789abcdef")
    True

    A full-key hasher is the degenerate case with an identity ``L``:

    >>> full = EntropyLearnedHasher.full_key("wyhash")
    >>> full.partial_key.is_full_key
    True
    """

    def __init__(
        self,
        partial_key: PartialKeyFunction,
        base: Union[str, HashFunction] = "wyhash",
        seed: int = 0,
    ):
        if isinstance(base, str):
            base = get_hash(base, seed)
        elif seed != base.seed:
            base = base.with_seed(seed)
        self.base = base
        self.partial_key = partial_key
        self.seed = base.seed
        self._engine = None  # built by the first hash_batch call

    # ------------------------------------------------------------ scalar path

    def __call__(self, key: Key) -> int:
        """Hash one key (applies the length-fallback branch of Section 3)."""
        return self.base.hash_bytes(self.partial_key.hash_input(as_bytes(key)))

    def hash_full_key(self, key: Key) -> int:
        """Hash the complete key, ignoring ``L`` (robustness fallback)."""
        return self.base.hash_bytes(as_bytes(key))

    # ------------------------------------------------------------- batch path

    def hash_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Hash many keys, bit-exact with the scalar path.

        One pass through a private :class:`~repro.engine.HashEngine`, so
        the small-batch cutover, subkey packing and numpy kernels live in
        one module; batch cost is proportional to words read.
        """
        if self._engine is None:
            # Deferred: the engine module imports this one.
            from repro.engine.engine import HashEngine

            self._engine = HashEngine(self)
        return self._engine.hash_batch(keys)

    # ------------------------------------------------------------- accounting

    def bytes_read(self, key: Key) -> int:
        """Bytes of key material this hasher reads for ``key``."""
        key = as_bytes(key)
        if self.partial_key.is_full_key or not self.partial_key.applies_to(key):
            return len(key)
        return self.partial_key.bytes_read

    def average_words_read(self, keys: Sequence[Key]) -> float:
        """Mean 8-byte words read per key over a corpus (cost proxy)."""
        keys = as_bytes_list(keys)
        if self.partial_key.is_full_key:
            return words_per_key(keys)
        return words_per_key(keys, self.partial_key.positions)

    # ----------------------------------------------------------- constructors

    @classmethod
    def full_key(
        cls, base: Union[str, HashFunction] = "wyhash", seed: int = 0
    ) -> "EntropyLearnedHasher":
        """A traditional full-key hasher (the paper's baseline)."""
        return cls(PartialKeyFunction.full_key(), base=base, seed=seed)

    @classmethod
    def from_positions(
        cls,
        positions: Sequence[int],
        word_size: int = 8,
        base: Union[str, HashFunction] = "wyhash",
        seed: int = 0,
    ) -> "EntropyLearnedHasher":
        """Build directly from byte positions (skip training)."""
        L = PartialKeyFunction(tuple(positions), word_size)
        return cls(L, base=base, seed=seed)

    def with_seed(self, seed: int) -> "EntropyLearnedHasher":
        """Same configuration, different seed (for multi-hash structures)."""
        return EntropyLearnedHasher(self.partial_key, self.base, seed=seed)

    def __repr__(self) -> str:
        return (
            f"EntropyLearnedHasher(base={self.base.name!r}, "
            f"positions={self.partial_key.positions}, "
            f"word_size={self.partial_key.word_size})"
        )
