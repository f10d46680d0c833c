"""Count-Min sketch with Entropy-Learned hashing.

A Count-Min sketch estimates item frequencies with ``depth`` rows of
``width`` counters.  All rows come from one 64-bit hash per key
(Kirsch–Mitzenmacher): with ``h1`` its high and ``h2`` its low 32-bit
half (forced odd), row ``i`` counts in column
``((h1 + i*h2) mod 2^32) * width >> 32``.  A key costs one engine call
whatever the depth, and a caller that holds a key's hash (the hot-key
tracker holds the router's) counts it without hashing
(:meth:`~CountMinSketch.add_hashed`).  DESIGN.md §7 measures the
overcount against independently seeded rows.

With a partial-key hash, two keys colliding through ``L`` merge their
counts in *every* row — equivalent to treating them as the same item —
so the extra error is bounded by the partial-key collision mass.
Choosing ``H2(L(X)) > log2(width) + c`` keeps that mass below the
sketch's own ``n / width`` error, mirroring the partitioning analysis
(Section 4.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import Key, as_bytes, as_bytes_list
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import BloomSplitReducer, HashEngine

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class CountMinSketch:
    """depth × width counter matrix, query = min over rows.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> sketch = CountMinSketch(EntropyLearnedHasher.full_key(), width=64, depth=3)
    >>> sketch.add(b"x"); sketch.add(b"x")
    >>> sketch.estimate(b"x") >= 2
    True
    """

    def __init__(self, hasher: EntropyLearnedHasher, width: int, depth: int = 4):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self.engine = HashEngine(hasher)
        self._split = BloomSplitReducer()
        # Row i's multiplier of h2, and its counter row, as columns: one
        # broadcast builds or reads every row at once.
        self._steps = np.arange(depth, dtype=np.uint64)[:, None]
        self._rows = np.arange(depth)[:, None]
        self._counts = np.zeros((depth, width), dtype=np.int64)
        self._total = 0

    def _columns(self, hashes) -> np.ndarray:
        """The ``depth × n`` counter columns of raw 64-bit hashes."""
        h1, h2 = self._split.apply(np.asarray(hashes, dtype=np.uint64))
        mixed = (h1 + self._steps * h2) & _LOW32
        return ((mixed * np.uint64(self.width)) >> _SHIFT32).astype(np.intp)

    def add_hashed(self, hashes, count: int = 1, return_estimates: bool = False):
        """Add ``count`` occurrences per raw hash: the one counting path.

        With ``return_estimates`` the post-add estimate of every input
        position comes back as an int64 array for free — the columns
        are already in hand, so callers that add *and* score a stream
        (the hot-key tracker) skip a second pass.  Duplicates all read
        the same final counter, exactly like :meth:`estimate_hashed`
        after the add.
        """
        columns = self._columns(hashes)
        np.add.at(self._counts, (self._rows, columns), count)
        self._total += count * columns.shape[1]
        if return_estimates:
            return self._counts[self._rows, columns].min(axis=0)
        return None

    def estimate_hashed(self, hashes) -> np.ndarray:
        """Estimate per raw hash: the min over rows of its counters."""
        return self._counts[self._rows, self._columns(hashes)].min(axis=0)

    def add(self, key: Key, count: int = 1) -> None:
        """Add ``count`` occurrences of ``key``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.add_hashed([self.engine.hash_one(as_bytes(key))], count)

    def add_batch(self, keys: Sequence[Key], return_estimates: bool = False):
        """Add one occurrence of each key: one engine call, then
        :meth:`add_hashed`."""
        hashes = self.engine.hash_batch(as_bytes_list(keys))
        return self.add_hashed(hashes, return_estimates=return_estimates)

    def estimate(self, key: Key) -> int:
        """Frequency estimate (never underestimates)."""
        return int(self.estimate_hashed([self.engine.hash_one(as_bytes(key))])[0])

    def estimate_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Vectorized :meth:`estimate`: one engine call, bit-identical
        to the scalar loop."""
        return self.estimate_hashed(self.engine.hash_batch(as_bytes_list(keys)))

    @property
    def total(self) -> int:
        """Total occurrences added."""
        return self._total

    def error_bound(self, confidence_rows: int = None) -> float:
        """Classic CM guarantee: error <= e/width * total w.h.p."""
        return float(np.e / self.width * self._total)
