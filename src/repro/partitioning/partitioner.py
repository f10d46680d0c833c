"""Hash partitioning in the paper's three micro-benchmark modes.

Section 6.5 measures three configurations moving from compute-bound to
memory-bound:

1. **pure** — only compute each key's bin (no output writes);
2. **positional** — write each key's index into a per-bin list;
3. **data** — copy the keys themselves into per-bin buffers.

The partitioner mirrors the paper's implementation note: no software
write buffers or non-temporal stores (those don't apply to variable
length keys) — just hash, reduce to a bin, write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro._util import Key, as_bytes_list
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import FastRangeReducer, HashEngine
from repro.engine.backed import EngineBacked

MODES = ("pure", "positional", "data")


@dataclass
class PartitionResult:
    """Outcome of a partitioning pass.

    ``assignments[i]`` is the bin of key ``i``.  ``positions`` /
    ``partitions`` are filled only in the corresponding modes.
    """

    num_partitions: int
    assignments: np.ndarray
    positions: Optional[List[List[int]]] = None
    partitions: Optional[List[List[bytes]]] = None

    @property
    def counts(self) -> np.ndarray:
        """Items per bin."""
        return np.bincount(self.assignments, minlength=self.num_partitions)

    def total_items(self) -> int:
        return int(len(self.assignments))


class Partitioner(EngineBacked):
    """Hash-partition byte keys into ``num_partitions`` bins.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> p = Partitioner(EntropyLearnedHasher.full_key(), num_partitions=4)
    >>> result = p.partition([b"a", b"b", b"c", b"d"], mode="pure")
    >>> result.total_items()
    4
    """

    def __init__(self, hasher: EntropyLearnedHasher, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        self.engine = HashEngine(hasher)
        self.num_partitions = num_partitions
        self._reducer = FastRangeReducer(num_partitions)

    def assign(self, keys: Sequence[Key]) -> np.ndarray:
        """Bin index per key: one engine pass with a fast-range reducer."""
        return self.engine.hash_batch(keys, self._reducer)

    def partition(self, keys: Sequence[Key], mode: str = "data") -> PartitionResult:
        """Partition ``keys`` in one of the paper's three modes."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        keys = as_bytes_list(keys)
        assignments = self.assign(keys)
        result = PartitionResult(
            num_partitions=self.num_partitions, assignments=assignments
        )
        if mode == "pure":
            return result
        if mode == "positional":
            positions: List[List[int]] = [[] for _ in range(self.num_partitions)]
            for i, bin_index in enumerate(assignments):
                positions[bin_index].append(i)
            result.positions = positions
            return result
        partitions: List[List[bytes]] = [[] for _ in range(self.num_partitions)]
        for key, bin_index in zip(keys, assignments):
            partitions[bin_index].append(key)
        result.partitions = partitions
        return result
