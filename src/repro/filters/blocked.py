"""Register-blocked Bloom filter (Lang et al. [43]).

The paper's throughput-oriented filter: the filter is an array of 64-bit
blocks; one hash picks the block (high bits, via fast-range reduction)
and the k probe bits *within* that single block (low bits, via double
hashing on the 6-bit bit-index space).  A query therefore touches exactly
one cache word — the design the paper's Figure 10 benchmarks use with
xxh3 as the base hash.

Register blocking trades a slightly worse FPR-per-bit for much higher
throughput; :meth:`BlockedBloomFilter.for_items` applies the standard
correction by over-provisioning bits for the blocked layout.  The
(block, probe-mask) split is a
:class:`~repro.engine.reducers.BlockMaskReducer` applied inside the
shared :class:`~repro.engine.HashEngine` pass.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro._util import Key, as_bytes
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import BlockMaskReducer, HashEngine
from repro.filters.base import BitArrayFilter

_BLOCK_BITS = 64
_BLOCK_SHIFT = 6  # log2(64)


class BlockedBloomFilter(BitArrayFilter):
    """One-cache-word-per-query Bloom filter.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> f = BlockedBloomFilter(EntropyLearnedHasher.full_key(), num_blocks=64,
    ...                        num_probe_bits=3)
    >>> f.add(b"key")
    >>> f.contains(b"key")
    True
    """

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        num_blocks: int,
        num_probe_bits: int = 3,
    ):
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if not 1 <= num_probe_bits <= 8:
            raise ValueError(
                f"num_probe_bits must be in [1, 8], got {num_probe_bits}"
            )
        self.engine = HashEngine(hasher)
        self.num_blocks = num_blocks
        self.num_probe_bits = num_probe_bits
        self._reducer = BlockMaskReducer(num_blocks, num_probe_bits)
        self._blocks = np.zeros(num_blocks, dtype=np.uint64)
        self._num_added = 0

    @property
    def _bits_per_key(self) -> int:
        return self.num_probe_bits

    # ----------------------------------------------------------- construction

    @classmethod
    def for_items(
        cls,
        hasher: EntropyLearnedHasher,
        expected_items: int,
        target_fpr: float = 0.03,
        num_probe_bits: int = 3,
    ) -> "BlockedBloomFilter":
        """Size the filter for ``expected_items`` at roughly ``target_fpr``.

        Blocked filters need ~30% more bits than the classic formula for
        the same FPR (variance of per-block load); we apply that factor.
        """
        if expected_items <= 0:
            raise ValueError(f"expected_items must be positive, got {expected_items}")
        base_bits = -expected_items * math.log(target_fpr) / (math.log(2) ** 2)
        bits = int(base_bits * 1.3)
        num_blocks = max(1, (bits + _BLOCK_BITS - 1) // _BLOCK_BITS)
        return cls(hasher, num_blocks=num_blocks, num_probe_bits=num_probe_bits)

    # ------------------------------------------------------------- operations

    def add(self, key: Key) -> None:
        """Insert one key (touches exactly one block)."""
        block, mask = self.engine.hash_one(as_bytes(key), self._reducer)
        self._blocks[block] |= np.uint64(mask)
        self._num_added += 1

    def add_batch(self, keys: Sequence[Key]) -> None:
        """Insert many keys via the engine's vectorized pass."""
        blocks, masks = self.engine.hash_batch(keys, self._reducer)
        np.bitwise_or.at(self._blocks, blocks, masks)
        self._num_added += len(blocks)

    def contains(self, key: Key) -> bool:
        """Membership test against a single block."""
        block, mask = self.engine.hash_one(as_bytes(key), self._reducer)
        mask = np.uint64(mask)
        return bool((self._blocks[block] & mask) == mask)

    def contains_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Vectorized membership test (the Figure 10 inner loop)."""
        blocks, masks = self.engine.hash_batch(keys, self._reducer)
        return (self._blocks[blocks] & masks) == masks

    # ------------------------------------------------------------ diagnostics

    @property
    def num_bits(self) -> int:
        return self.num_blocks * _BLOCK_BITS

    @property
    def num_set_bits(self) -> int:
        return int(np.unpackbits(self._blocks.view(np.uint8)).sum())
