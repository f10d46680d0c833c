"""The runtime Entropy-Learned hash ``H' = H ∘ L``.

An :class:`EntropyLearnedHasher` pairs a base hash (wyhash, xxh3, crc32,
…) with a learned :class:`~repro.core.partial_key.PartialKeyFunction` and
exposes two equivalent paths:

* the **scalar path** (``hasher(key)``) — hash one key at a time, exactly
  like the paper's C++ template instantiations.  ``L`` and the seeded
  base hash are compiled into one closure, ``hasher.hash_bytes``, when
  the hasher is built: a length check against the cutoff, one
  concatenation of the length prefix and the selected slices, one base
  hash call;
* the **batch path** (``hasher.hash_batch(keys)``) — the
  :class:`~repro.engine.HashEngine` pipeline, *bit-exact* with the
  scalar path, used by the throughput benchmarks.

Both apply the Section 3 runtime branch: keys long enough to contain
every selected position hash their subkey; shorter keys hash in full.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Callable, Dict, Sequence, Union

import numpy as np

from repro._util import Key, as_bytes, as_bytes_list
from repro.core.partial_key import PartialKeyFunction
from repro.hashing.base import HashFunction, get_hash
from repro.hashing.vectorized import words_per_key

_pack_length = struct.Struct("<I").pack


def compile_scalar(
    partial_key: PartialKeyFunction, base_hash: Callable[[bytes], int]
) -> Callable[[bytes], int]:
    """``H ∘ L`` over one ``bytes`` key as one closure.

    Bit-exact with ``base_hash(partial_key.hash_input(key))``: a key
    that reaches the cutoff holds every selected word in full, so its
    subkey is the 4-byte length prefix followed by the selected slices,
    with no padding; a shorter key hashes in full.
    """
    if partial_key.is_full_key:
        return base_hash
    cutoff = partial_key.last_byte_used
    w = partial_key.word_size
    slices = [slice(p, p + w) for p in partial_key.positions]
    # One learned word (the serving fleet's URL model reads one 8-byte
    # word) builds its subkey with one ``+``: 1.42 µs per wyhash key
    # against 1.95 µs for the join of a list of slices (best of 41
    # interleaved runs, CPython 3.11, 2-core x86 host).  Two or more
    # words take ``itemgetter``, 1.08x faster than that list.
    if len(slices) == 1:
        (word,) = slices

        def hash_bytes(key: bytes) -> int:
            n = len(key)
            if n < cutoff:
                return base_hash(key)
            return base_hash(_pack_length(n) + key[word])

        return hash_bytes

    words = itemgetter(*slices)
    join = b"".join

    def hash_bytes(key: bytes) -> int:
        n = len(key)
        if n < cutoff:
            return base_hash(key)
        return base_hash(join((_pack_length(n), *words(key))))

    return hash_bytes


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
        # The scalar path over raw ``bytes``, compiled once per hasher.
        self.hash_bytes = compile_scalar(partial_key, base.hash_bytes)
        # Everything that fixes the output: hashers with equal
        # fingerprints hash every key alike, so one's hashes can stand
        # in for the other's (a served key's carried fleet hash).
        self.fingerprint = (
            base.name, self.seed, partial_key.positions, partial_key.word_size
        )

    # ------------------------------------------------------------ scalar path

    def __call__(self, key: Key) -> int:
        """Hash one key (applies the length-fallback branch of Section 3)."""
        return self.hash_bytes(as_bytes(key))

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

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> Dict[str, object]:
        """Hashers cross process boundaries inside shard-child specs:
        the compiled closure is rebuilt on the other side, never
        pickled."""
        state = self.__dict__.copy()
        del state["hash_bytes"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.hash_bytes = compile_scalar(self.partial_key, self.base.hash_bytes)

    def __repr__(self) -> str:
        return (
            f"EntropyLearnedHasher(base={self.base.name!r}, "
            f"positions={self.partial_key.positions}, "
            f"word_size={self.partial_key.word_size})"
        )
