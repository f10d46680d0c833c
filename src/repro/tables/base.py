"""The table skeleton: size and membership for every table, and the
insert and growth path of the chaining and probing tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro._util import Key, as_bytes, iter_ints, next_power_of_two
from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine
from repro.engine.backed import EngineBacked


@dataclass
class ProbeStats:
    """Work counters for table operations (reset with :meth:`clear`)."""

    probes: int = 0
    tag_checks: int = 0
    key_comparisons: int = 0
    chain_total: int = 0

    def clear(self) -> None:
        self.probes = 0
        self.tag_checks = 0
        self.key_comparisons = 0
        self.chain_total = 0

    @property
    def comparisons_per_probe(self) -> float:
        """Average full-key comparisons per probe (the paper's P / P')."""
        if self.probes == 0:
            return 0.0
        return self.key_comparisons / self.probes

    @property
    def chain_per_probe(self) -> float:
        """Average probe-chain length per operation."""
        if self.probes == 0:
            return 0.0
        return self.chain_total / self.probes


class HashTable(EngineBacked):
    """Size and membership over the table's own ``get``."""

    _size: int

    def __len__(self) -> int:
        return self._size

    def contains(self, key: Key) -> bool:
        """Membership test (probes exactly like ``get``)."""
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)


class RehashingTable(HashTable):
    """A table whose array holds ``_mask + 1`` buckets or slots and
    doubles by rehashing every entry.  A host supplies the array
    (``_init_array``), ``_insert_one``, ``get``, ``items`` and its
    ``default_max_load``.
    """

    default_max_load: float

    def __init__(self, hasher: EntropyLearnedHasher, capacity: int,
                 max_load: float):
        self.engine = HashEngine(hasher)
        self.max_load = max_load
        self._size = 0
        self._in_rehash = False
        self._init_array(next_power_of_two(max(capacity, 2)))
        self.stats = ProbeStats()

    # ------------------------------------------------------------ operations

    def insert(self, key: Key, value: Any = None) -> None:
        """Insert or overwrite ``key``.

        Grows (×2) when the load would exceed ``max_load``; growth
        calls :meth:`_on_grow`, the hook entropy-aware tables upgrade
        the hash function in (Section 5).
        """
        self._insert_one(as_bytes(key), value, None, None)

    def insert_batch(self, keys: Sequence[Key], values=None, hashes=None) -> None:
        """Insert many keys, hashing them in one engine pass.

        ``values`` defaults to the keys.  Growth is decided per key, as
        the scalar loop decides it, so batch- and scalar-built tables
        end with identical geometry and :class:`ProbeStats`; the raw
        hashes are geometry-independent, so growth keeps them.
        ``hashes``, when given, are the keys' raw hashes under the
        current hasher (a router's carried hashes), and the engine pass
        is skipped.  A key whose insert finds another plan live (a
        growth re-plan, a monitor fallback) is hashed again.
        """
        keys = [as_bytes(k) for k in keys]
        if values is None:
            values = keys
        if len(values) != len(keys):
            raise ValueError("values must match keys in length")
        if not keys:
            return
        plan = self.engine.hasher.fingerprint
        if hashes is None:
            hashes = self.engine.hash_batch(keys)
        for key, value, h in zip(keys, values, iter_ints(hashes)):
            self._insert_one(key, value, h, plan)

    # --------------------------------------------------------------- resizing

    def _grow(self) -> None:
        size = (self._mask + 1) * 2
        self._on_grow(size)
        self._rehash(size)

    def _on_grow(self, size: int) -> None:
        """Growth hook; entropy-aware tables re-plan the hash here."""

    def _rehash(self, size: int) -> None:
        entries = list(self.items())
        self._init_array(size)
        self._size = 0
        # Re-inserts replay keys in old-array order, which is highly
        # correlated; collision monitors must not judge that burst.
        self._in_rehash = True
        try:
            for key, value in entries:
                self.insert(key, value)
        finally:
            self._in_rehash = False

    def rebuild_with_hasher(self, hasher: EntropyLearnedHasher) -> None:
        """Rehash every entry with a new hash (robustness fallback path)."""
        self.engine.set_hasher(hasher)
        self._rehash(self._mask + 1)

