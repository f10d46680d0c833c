"""Top-k heavy hitters — Count-Min + candidate heap.

The standard sketch-based heavy-hitter pipeline (the network-switch
workload of the paper's introduction [46]): every item updates a
Count-Min sketch, and a small candidate map tracks the current top-k by
estimated count.  Each update hashes the item once through the
Entropy-Learned hasher, and all ``depth`` sketch rows derive from that
one hash, so hashing is exactly the per-packet cost the paper's sketch
motivation targets.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import Key, as_bytes, iter_ints
from repro.core.hasher import EntropyLearnedHasher
from repro.sketches.countmin import CountMinSketch


class TopK:
    """Approximate top-k frequency tracker.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> tracker = TopK(EntropyLearnedHasher.full_key("xxh3"), k=2, width=256)
    >>> for item in [b"a"] * 5 + [b"b"] * 3 + [b"c"]:
    ...     tracker.add(item)
    >>> [key for key, _ in tracker.top()]
    [b'a', b'b']
    """

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        k: int = 10,
        width: int = 1024,
        depth: int = 4,
    ):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.sketch = CountMinSketch(hasher, width=width, depth=depth)
        self._candidates: Dict[bytes, int] = {}

    def add(self, item: Key, count: int = 1) -> None:
        """Observe ``count`` occurrences of ``item``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        item = as_bytes(item)
        self._offer(item, count, self.sketch.engine.hash_one(item))

    def add_batch(self, items: Sequence[Key]) -> None:
        """Observe many items: one engine call over the distinct items,
        then one sketch update per distinct item."""
        counted: Dict[bytes, int] = {}
        for item in items:
            item = as_bytes(item)
            counted[item] = counted.get(item, 0) + 1
        if not counted:
            return
        hashes = self.sketch.engine.hash_batch(list(counted))
        for (item, count), h in zip(counted.items(), iter_ints(hashes)):
            self._offer(item, count, h)

    def _offer(self, item: bytes, count: int, h: int) -> None:
        """Add ``count`` of the item whose raw hash is ``h`` and rank it
        by the estimate that add returns."""
        estimate = int(self.sketch.add_hashed([h], count,
                                              return_estimates=True)[0])
        if item in self._candidates or len(self._candidates) < self.k:
            self._candidates[item] = estimate
        else:
            weakest = min(self._candidates, key=self._candidates.get)
            if estimate > self._candidates[weakest]:
                del self._candidates[weakest]
                self._candidates[item] = estimate

    def top(self, k: Optional[int] = None) -> List[Tuple[bytes, int]]:
        """The current top-k as (item, estimated count), descending."""
        if k is None:
            k = self.k
        return heapq.nlargest(k, self._candidates.items(), key=lambda kv: kv[1])

    def estimate(self, item: Key) -> int:
        """Estimated count of any item (top-k member or not)."""
        return self.sketch.estimate(as_bytes(item))

    @property
    def total(self) -> int:
        return self.sketch.total
