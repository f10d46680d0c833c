"""MinHash signatures — set resemblance sketches (Broder [15]).

MinHash estimates Jaccard similarity between sets by keeping, per
permutation, the minimum hash over a set's elements; it is among the
hash-heaviest sketches (``k`` hashes per element per set), which is why
the paper's introduction lists sketches among ELH's targets.  With an
Entropy-Learned hasher each of the k streams reads only the learned
bytes of each element.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro._util import Key, as_bytes_list
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine

class MinHashSignature:
    """k-permutation MinHash over byte-string elements.

    >>> h = EntropyLearnedHasher.full_key("xxh3")
    >>> a = MinHashSignature.from_items(h, [b"x", b"y", b"z"], k=64)
    >>> b = MinHashSignature.from_items(h, [b"x", b"y", b"w"], k=64)
    >>> 0.0 <= a.jaccard(b) <= 1.0
    True
    """

    def __init__(self, mins: np.ndarray, fingerprint: Optional[tuple] = None):
        self.mins = mins.astype(np.uint64)
        # The building hasher's ``fingerprint`` (base, seed, plan):
        # signatures of different hash functions keep incomparable
        # minima.  None means "unknown provenance" (a hand-built
        # signature); such signatures compare with anything.
        self.fingerprint = fingerprint

    @classmethod
    def from_items(
        cls,
        hasher: EntropyLearnedHasher,
        items: Sequence[Key],
        k: int = 128,
    ) -> "MinHashSignature":
        """Build a signature from a set of elements.

        Each of the k "permutations" is the same engine re-seeded at
        kernel-call time; element hashing is batched, so cost is k
        vectorized passes over one compiled plan.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        items = as_bytes_list(items)
        if not items:
            raise ValueError("need at least one element")
        engine = HashEngine(hasher)
        mins = np.empty(k, dtype=np.uint64)
        for row in range(k):
            mins[row] = engine.hash_batch(items, seed=hasher.seed + row + 1).min()
        return cls(mins, fingerprint=hasher.fingerprint)

    def _check_comparable(self, other: "MinHashSignature") -> None:
        if self.mins.shape != other.mins.shape:
            raise ValueError("signatures must have equal k")
        if (self.fingerprint is not None
                and other.fingerprint is not None
                and self.fingerprint != other.fingerprint):
            raise ValueError(
                "signatures were built with different hashers: "
                f"{self.fingerprint} vs {other.fingerprint}; comparing "
                "their minima element-wise would be meaningless"
            )

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimated Jaccard similarity (fraction of agreeing minima)."""
        self._check_comparable(other)
        return float((self.mins == other.mins).mean())

    def merge(self, other: "MinHashSignature") -> "MinHashSignature":
        """Signature of the union of the two underlying sets."""
        self._check_comparable(other)
        return MinHashSignature(
            np.minimum(self.mins, other.mins),
            fingerprint=(self.fingerprint if self.fingerprint is not None
                         else other.fingerprint),
        )

    @property
    def k(self) -> int:
        return int(self.mins.shape[0])

    def standard_error(self) -> float:
        """Estimator standard error ~ ``1/sqrt(k)``."""
        return 1.0 / self.k ** 0.5
