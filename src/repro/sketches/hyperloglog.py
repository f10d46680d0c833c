"""HyperLogLog cardinality estimation with Entropy-Learned hashing.

HyperLogLog [30] splits each hash into a register index (``p`` bits) and
a rank (position of the first 1 in the rest).  A partial-key collision
makes two distinct keys count as one, so HLL *undercounts* by the number
of ``L``-colliding groups — bounded by the usual ``C(n,2) * 2^-H2``
collision mass.  With ``H2(L(X)) > log2(n) + c`` the undercount is
dominated by HLL's own ``1.04/sqrt(2^p)`` standard error.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro._util import Key, as_bytes
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine, IndexRankReducer
from repro.engine.backed import EngineBacked


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog(EngineBacked):
    """Standard HLL with the small-range linear-counting correction.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> hll = HyperLogLog(EntropyLearnedHasher.full_key(), precision=10)
    >>> hll.add_batch([f"user-{i}".encode() for i in range(1000)])
    >>> 800 < hll.estimate() < 1200
    True
    """

    def __init__(self, hasher: EntropyLearnedHasher, precision: int = 12):
        if not 4 <= precision <= 18:
            raise ValueError(f"precision must be in [4, 18], got {precision}")
        self.engine = HashEngine(hasher)
        self.precision = precision
        self.num_registers = 1 << precision
        self._reducer = IndexRankReducer(precision)
        self._registers = np.zeros(self.num_registers, dtype=np.uint8)

    def add(self, key: Key) -> None:
        """Observe one key."""
        index, rank = self.engine.hash_one(as_bytes(key), self._reducer)
        if rank > self._registers[index]:
            self._registers[index] = rank

    def add_batch(self, keys: Sequence[Key]) -> None:
        """Observe many keys in one engine pass."""
        indexes, ranks = self.engine.hash_batch(keys, self._reducer)
        np.maximum.at(self._registers, indexes, ranks.astype(np.uint8))

    def estimate(self) -> float:
        """Estimated number of distinct keys observed."""
        m = self.num_registers
        registers = self._registers.astype(np.float64)
        raw = _alpha(m) * m * m / np.sum(np.power(2.0, -registers))
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * m and zeros > 0:
            return m * math.log(m / zeros)  # linear counting correction
        return float(raw)

    def standard_error(self) -> float:
        """HLL's intrinsic relative standard error: ``1.04 / sqrt(m)``."""
        return 1.04 / math.sqrt(self.num_registers)

    def merge(self, other: "HyperLogLog") -> None:
        """Union with another sketch of identical configuration."""
        if other.precision != self.precision:
            raise ValueError("cannot merge HLLs with different precision")
        np.maximum(self._registers, other._registers, out=self._registers)
