"""Reservoir sampling of recent keys for background re-training.

Re-learning byte positions needs a *sample of the drifted stream*, not
of all history — a classic reservoir over the full lifetime would be
dominated by pre-drift keys and re-learn the stale plan.  We run
Algorithm R within bounded epochs: every ``epoch`` observations the
reservoir is cleared and refilled, so its contents always describe the
last O(epoch) keys while each epoch's sample stays uniform over that
epoch.
"""

from __future__ import annotations

import random
from typing import List

from repro.metrics import Reported


class ReservoirSample(Reported):
    """Epoch-reset Algorithm R over a stream of keys.

    >>> r = ReservoirSample(capacity=8, seed=0)
    >>> for i in range(100):
    ...     r.add(b"key-%d" % i)
    >>> 0 < len(r.sample()) <= 8
    True
    """

    REPORTS = ("capacity", "epoch", "fill=__len__", "seen", "epochs")

    def __init__(self, capacity: int = 256, seed: int = 0, epoch: int = 0):
        if capacity < 4:
            raise ValueError(f"capacity must be >= 4, got {capacity}")
        self.capacity = int(capacity)
        # Default epoch: four reservoir-fulls — old enough to smooth
        # noise, young enough that a drifted stream dominates quickly.
        self.epoch = int(epoch) if epoch else 4 * self.capacity
        if self.epoch < self.capacity:
            raise ValueError("epoch must be >= capacity")
        self._rng = random.Random(seed)
        self._items: List[bytes] = []
        self._seen_in_epoch = 0
        self.seen = 0  # lifetime observations
        self.epochs = 0

    def add(self, key: bytes) -> None:
        if self._seen_in_epoch >= self.epoch:
            self._items.clear()
            self._seen_in_epoch = 0
            self.epochs += 1
        self.seen += 1
        self._seen_in_epoch += 1
        if len(self._items) < self.capacity:
            self._items.append(key)
            return
        j = self._rng.randrange(self._seen_in_epoch)
        if j < self.capacity:
            self._items[j] = key

    def sample(self) -> List[bytes]:
        """A copy of the current reservoir contents."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)
