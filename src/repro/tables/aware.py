"""Section 5's re-planning policy, written once for both entropy-aware tables.

:class:`EntropyAwareMixin` re-plans the hash at construction and at
every growth, stops re-planning once the engine's collision monitor
forced a full-key fallback, and hot-swaps to a re-trained model on drift.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro._util import next_power_of_two
from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import EntropyModel
from repro.engine import CollisionMonitor


class EntropyAwareMixin:
    """Growth re-planning, fallback latch and drift re-learning.

    Mixed in ahead of a host table whose array holds ``_mask + 1``
    buckets or slots.  The subclass names its Section 5 entropy
    requirement and may override the two monitor hooks; a build without
    ``max_load`` keeps the host's ``default_max_load``.  The policy
    never asks which table it serves.

    ``min_entropy`` is a floor under every plan: a serving fleet sets
    it to its partitioning requirement, so a shard table plans exactly
    the hash its router computes, and can probe and insert from the
    router's hashes instead of hashing each key again.
    """

    # Bits a table of n items needs: ``entropy_for_chaining_table`` or
    # ``entropy_for_probing_table``.
    _requirement: Callable[[int], float]
    default_max_load: float

    def __init__(
        self,
        model: EntropyModel,
        capacity: int = 16,
        max_load: Optional[float] = None,
        monitor: Optional[CollisionMonitor] = None,
        seed: int = 0,
        min_entropy: float = 0.0,
    ):
        if max_load is None:
            max_load = self.default_max_load
        self.model = model
        self._seed = seed
        self.min_entropy = min_entropy
        # The geometry a fresh build of the spec'd capacity chooses;
        # relearn() resets to it so transient over-growth (e.g. one
        # shard absorbing a whole drifted stream before migration) does
        # not ratchet the entropy demand up forever.
        self._spec_size = next_power_of_two(max(capacity, 2))
        hasher = self._plan(self._spec_size, max_load)
        super().__init__(hasher, capacity=capacity, max_load=max_load)
        self.engine.monitor = (
            monitor if monitor is not None else self._default_monitor()
        )

    @property
    def monitor(self) -> Optional[CollisionMonitor]:
        return self.engine.monitor

    @monitor.setter
    def monitor(self, monitor: Optional[CollisionMonitor]) -> None:
        self.engine.monitor = monitor

    @property
    def fallen_back(self) -> bool:
        """True once the monitor forced a full-key rebuild."""
        return self.engine.fell_back

    @classmethod
    def required_entropy(
        cls,
        capacity: int,
        max_load: Optional[float] = None,
        min_entropy: float = 0.0,
    ) -> float:
        """Bits the plan must carry for a table built for ``capacity``.

        The requirement of the geometry the table actually builds (the
        power-of-two array times its max load, not the raw capacity),
        never below ``min_entropy``.
        """
        if max_load is None:
            max_load = cls.default_max_load
        size = next_power_of_two(max(capacity, 2))
        return max(cls._requirement(max(1, int(max_load * size))), min_entropy)

    def _plan(self, size: int, max_load: float) -> EntropyLearnedHasher:
        """The model's cheapest hasher for a ``size``-slot array."""
        required = self.required_entropy(size, max_load, self.min_entropy)
        return self.model.hasher_for_entropy(required, seed=self._seed)

    def _plan_entropy(self, hasher: EntropyLearnedHasher) -> Optional[float]:
        """The model's entropy claim for ``hasher``; None for full-key."""
        if hasher.partial_key.is_full_key:
            return None
        return self.model.result.entropy_at(len(hasher.partial_key.positions))

    # ------------------------------------------------------- monitor hooks

    def _default_monitor(self) -> Optional[CollisionMonitor]:
        """The monitor a build without an explicit one watches with."""
        return None

    def _rebase_monitor(self, size: int) -> None:
        """Re-base the monitor on a new ``size``-slot geometry."""

    def _watch_insert(self, displacement: float, expected: float,
                      n: int) -> bool:
        """Feed the engine one insert's ``displacement`` against its
        ideal-hash ``expected`` value; past the entropy budget the
        engine swaps itself to full-key hashing and the table rehashes
        (True).  A rehash's re-inserts replay keys in correlated order,
        so they are not judged."""
        if self._in_rehash or not self.engine.record_insert(
                displacement, expected=expected, n=n):
            return False
        self._rehash(self._mask + 1)
        return True

    # ------------------------------------------------------------ policy

    def _on_grow(self, new_size: int) -> None:
        if self.fallen_back:
            return
        self.engine.set_hasher(self._plan(new_size, self.max_load))
        self._rebase_monitor(new_size)

    def relearn(self, model: EntropyModel) -> None:
        """Hot-swap to a freshly trained model (drift recovery).

        The geometry resets to what a fresh build would choose for the
        live entries (never below the spec'd sizing): re-planning for a
        transiently ballooned geometry would demand its entropy forever
        and lock the table into full-key hashing.  The engine rearms
        (fallback latch cleared, monitor re-based on the new entropy
        claim); a hash precomputed under another plan's fingerprint is
        recomputed on use.
        """
        self.model = model
        fit = next_power_of_two(
            max(int(math.ceil(self._size / self.max_load)), 2)
        )
        size = max(self._spec_size, fit)
        hasher = self._plan(size, self.max_load)
        self.engine.rearm(hasher, entropy=self._plan_entropy(hasher))
        self._rebase_monitor(size)
        self._rehash(size)


__all__ = ["EntropyAwareMixin"]
