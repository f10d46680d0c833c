"""Linear-probing hash table with SwissTable-style tag bits.

Mirrors the structure of Google's SwissTable (the paper's main hash-table
baseline): every slot carries an 8-bit *tag* derived from the key's hash.
A probe walks the tag array first and only compares full keys when the
tag matches, which is why (as the paper notes) probing for *missing* keys
is cheaper than for present keys — misses usually terminate on tag
mismatches alone.  Batch probes check tags in vectorized rounds, one
numpy gather per round across every unresolved probe, then walk the
short tail of long chains one key at a time; a batch too small to pay
for a round walks one key at a time from the start.

The table counts tag probes, full-key comparisons, and probe-chain
lengths so experiments can validate the paper's comparison-count bounds
(eqs. 3-6) exactly rather than inferring them from timings.

Hashing routes through one :class:`~repro.engine.HashEngine` whose
:class:`~repro.engine.reducers.SlotTagReducer` performs the (slot, tag)
split in the same vectorized pass as the hash itself.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import Key, as_bytes, as_bytes_list, iter_ints
from repro.core.hasher import EntropyLearnedHasher
from repro.core.sizing import entropy_for_probing_table
from repro.engine import CollisionMonitor, SlotTagReducer
from repro.tables.aware import EntropyAwareMixin
from repro.tables.base import ProbeStats, RehashingTable

_EMPTY = 0
_DELETED = 1
# Tags 2..255 encode 254 hash-derived values; 0/1 are control states.
_TAG_STATES = 2

DEFAULT_MAX_LOAD = 0.875

# Batch probes walk in vectorized rounds while at least this many are
# unresolved; below it, a round's numpy calls cost more than walking the
# remaining probes one by one.  Set at the crossover of the
# ``probe_walk_cost`` curve in benchmarks/bench_engine.py.
_ROUND_MIN = 256


class LinearProbingTable(RehashingTable):
    """Open-addressing table: hash → slot, walk right until empty slot.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> t = LinearProbingTable(EntropyLearnedHasher.full_key(), capacity=8)
    >>> t.insert(b"alpha", 1)
    >>> t.get(b"alpha")
    1
    >>> t.get(b"beta") is None
    True
    """

    default_max_load = DEFAULT_MAX_LOAD

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        capacity: int = 16,
        max_load: float = DEFAULT_MAX_LOAD,
    ):
        if not 0.0 < max_load < 1.0:
            raise ValueError(f"max_load must be in (0, 1), got {max_load}")
        super().__init__(hasher, capacity, max_load)

    def _init_array(self, num_slots: int) -> None:
        self._mask = num_slots - 1
        self._reducer = SlotTagReducer(self._mask, tag_states=_TAG_STATES)
        self._tags = bytearray(num_slots)  # every slot starts _EMPTY
        self._keys: List[Optional[bytes]] = [None] * num_slots
        self._values: List[Any] = [None] * num_slots
        self._tombstones = 0

    # ------------------------------------------------------------- internals

    def _slot_and_tag(self, key: bytes) -> Tuple[int, int]:
        return self.engine.hash_one(key, self._reducer)

    def _slot_and_tag_from_hash(self, h: int) -> Tuple[int, int]:
        # High bits pick the slot, low 8 bits (excluding control states)
        # make the tag — disjoint bit ranges, as SwissTable does.
        return self._reducer.apply_one(int(h))

    @property
    def num_slots(self) -> int:
        return self._mask + 1

    @property
    def load_factor(self) -> float:
        return (self._size + self._tombstones) / self.num_slots

    # ------------------------------------------------------------ operations

    def _insert_one(self, key: bytes, value: Any, h: Optional[int], plan) -> None:
        """Shared insert step for the scalar and batch paths.

        ``h`` is a precomputed raw 64-bit hash from the batch pipeline
        (geometry-independent, so it survives growth), taken under the
        hasher whose fingerprint is ``plan``; it is recomputed once the
        live hasher's fingerprint differs — a resize re-planned the hash
        or a monitor fallback fired mid-batch.
        """
        self._ensure_room()
        if h is None or plan != self.engine.hasher.fingerprint:
            slot, tag = self._slot_and_tag(key)
        else:
            slot, tag = self._slot_and_tag_from_hash(h)
        self._insert_at(key, value, slot, tag)

    def _ensure_room(self) -> None:
        """Make room for one more entry.

        Mostly-tombstone tables (``_tombstones >= _size``) compact in
        place — same capacity, tombstones dropped — instead of growing;
        otherwise the table doubles as usual.
        """
        while (self._size + self._tombstones + 1) > self.max_load * self.num_slots:
            if self._tombstones > 0 and self._tombstones >= self._size:
                self._rehash(self.num_slots)
            else:
                self._grow()

    def _insert_at(self, key: bytes, value: Any, slot: int, tag: int) -> None:
        first_deleted = None
        displacement = 0
        while True:
            state = self._tags[slot]
            if state == _EMPTY:
                target = first_deleted if first_deleted is not None else slot
                if first_deleted is not None:
                    self._tombstones -= 1
                self._tags[target] = tag
                self._keys[target] = key
                self._values[target] = value
                self._size += 1
                self._after_insert(displacement)
                return
            if state == _DELETED:
                if first_deleted is None:
                    first_deleted = slot
            elif state == tag and self._keys[slot] == key:
                self._values[slot] = value
                return
            displacement += 1
            slot = (slot + 1) & self._mask

    def _after_insert(self, displacement: int) -> None:
        """Post-insert hook; entropy-aware subclasses feed the collision
        monitor here (the probe distance is the paper's cheap signal)."""

    def get(self, key: Key, default: Any = None) -> Any:
        """Value stored under ``key``, or ``default``."""
        key = as_bytes(key)
        slot, tag = self._slot_and_tag(key)
        self.stats.probes += 1
        chain = 0
        while True:
            state = self._tags[slot]
            chain += 1
            self.stats.tag_checks += 1
            if state == _EMPTY:
                self.stats.chain_total += chain
                return default
            if state == tag:
                self.stats.key_comparisons += 1
                if self._keys[slot] == key:
                    self.stats.chain_total += chain
                    return self._values[slot]
            slot = (slot + 1) & self._mask

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns whether it was present (tombstoned)."""
        key = as_bytes(key)
        return self._delete_at(key, *self._slot_and_tag(key))

    def delete_batch(self, keys: Sequence[bytes], hashes=None) -> List[bool]:
        """Remove many keys; ``hashes``, when given, are their raw hashes
        under this table's current hasher, and nothing is hashed again."""
        if hashes is None:
            return [self.delete(key) for key in keys]
        split = self._reducer.apply_one
        return [self._delete_at(key, *split(h))
                for key, h in zip(keys, iter_ints(hashes))]

    def _delete_at(self, key: bytes, slot: int, tag: int) -> bool:
        while True:
            state = self._tags[slot]
            if state == _EMPTY:
                return False
            if state == tag and self._keys[slot] == key:
                self._tags[slot] = _DELETED
                self._keys[slot] = None
                self._values[slot] = None
                self._size -= 1
                self._tombstones += 1
                return True
            slot = (slot + 1) & self._mask

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        """All (key, value) pairs, in slot order."""
        for i, state in enumerate(self._tags):
            if state >= _TAG_STATES:
                yield self._keys[i], self._values[i]

    def probe_batch(self, keys: Sequence[Key], default: Any = None) -> List[Any]:
        """Probe many keys, hashing them in one engine pass.

        Tags are checked in vectorized rounds (see :meth:`_walk`);
        :class:`ProbeStats` are charged exactly as a loop of :meth:`get`
        calls would charge them.

        >>> t = LinearProbingTable(EntropyLearnedHasher.full_key(), capacity=8)
        >>> t.insert_batch([b"a", b"b"], [1, 2])
        >>> t.probe_batch([b"a", b"x", b"b"])
        [1, None, 2]
        >>> t.probe_batch([b"nope"], default=-1)
        [-1]
        """
        if type(keys) is not list or set(map(type, keys)) - {bytes}:
            keys = as_bytes_list(keys)
        slots, tags = self.engine.hash_batch(keys, self._reducer)
        return self._walk(keys, slots, tags, default)

    def probe_batch_hashed(self, keys: Sequence[bytes], hashes) -> List[Any]:
        """Probe with precomputed hashes (paper-style pipelining).

        Benchmarks compute hashes in one vectorized pass and then walk
        the table, mirroring the paper's probe pipeline and letting the
        hash-computation and table-access costs be measured separately
        (Figure 7's breakdown).  The walk is :meth:`probe_batch`'s, so
        it charges :class:`ProbeStats` the same way.

        A numpy column is split into slots and tags in one vectorized
        pass.  A list (a service call below the router's per-key
        crossover, or a caller's own) too short for a vectorized round
        walks one key at a time, splitting each hash into its slot and
        tag as it goes (``SlotTagReducer.apply_one``, inlined): no
        array is built for it.
        """
        n = len(keys)
        if isinstance(hashes, np.ndarray) or n >= _ROUND_MIN:
            slots, tags = self._reducer.apply(np.asarray(hashes, dtype=np.uint64))
            return self._walk(keys, slots, tags, None)
        mask = self._mask
        states = self._reducer.tag_states
        spread = 256 - states
        return self._walk_each(keys, (
            (probe, (h >> 8) & mask, (h & 0xFF) % spread + states)
            for probe, h in enumerate(hashes)
        ), [None] * n)

    def _walk(
        self,
        keys: Sequence[bytes],
        slots: np.ndarray,
        tags: np.ndarray,
        default: Any,
        floor: int = _ROUND_MIN,
    ) -> List[Any]:
        """Resolve each probe from its home ``slots[i]`` and ``tags[i]``.

        While at least ``floor`` probes are unresolved, every round
        gathers their current slots' tags in one numpy pass: an empty
        slot ends a miss, and only a tag match costs a full-key
        compare.  The last few probes (all of a batch smaller than
        ``floor``) then walk one by one, as :meth:`get` does.  ``floor``
        is ``_ROUND_MIN`` except where ``bench_engine`` measures the
        curve behind it.
        """
        n = len(keys)
        results = [default] * n
        table_tags = self._tags
        table_keys = self._keys
        values = self._values
        mask = self._mask
        checks = 0
        compares = 0
        if n >= floor:
            tag_view = np.frombuffer(table_tags, dtype=np.uint8)
            active = np.arange(n)
            while active.size >= floor:
                # Chains past the last slot wrap to slot 0 in the gather,
                # so ``slots`` only ever counts up.
                states = tag_view.take(slots, mode="wrap")
                checks += active.size
                hit = (states == tags).nonzero()[0]
                if hit.size:
                    compares += hit.size
                    found = bytearray(hit.size)
                    for i, slot, probe in zip(
                        count(), slots[hit].tolist(), active[hit].tolist()
                    ):
                        slot &= mask
                        if table_keys[slot] == keys[probe]:
                            results[probe] = values[slot]
                            found[i] = 1
                    # A found probe is done, as if its slot were empty.
                    states[hit[np.frombuffer(found, dtype=np.bool_)]] = _EMPTY
                keep = states.nonzero()[0]
                active = active[keep]
                tags = tags[keep]
                slots = slots[keep]
                slots += 1
            pending = zip(active.tolist(), (slots & mask).tolist(), tags.tolist())
        else:
            pending = zip(range(n), slots.tolist(), tags.tolist())
        return self._walk_each(keys, pending, results, checks, compares)

    def _walk_each(self, keys: Sequence[bytes], pending, results: List[Any],
                   checks: int = 0, compares: int = 0) -> List[Any]:
        """Walk each ``(probe, slot, tag)`` of ``pending`` one slot at a
        time, as :meth:`get` does, into ``results``; then charge the
        batch's :class:`ProbeStats`, ``checks`` and ``compares`` being
        what earlier rounds already spent."""
        table_tags = self._tags
        table_keys = self._keys
        values = self._values
        mask = self._mask
        for probe, slot, tag in pending:
            key = keys[probe]
            while True:
                state = table_tags[slot]
                checks += 1
                if state == _EMPTY:
                    break
                if state == tag:
                    compares += 1
                    if table_keys[slot] == key:
                        results[probe] = values[slot]
                        break
                slot = (slot + 1) & mask
        stats = self.stats
        stats.probes += len(results)
        stats.tag_checks += checks
        stats.chain_total += checks
        stats.key_comparisons += compares
        return results

    # ------------------------------------------------------------ diagnostics

    def displacement_histogram(self) -> List[int]:
        """How far each stored key sits from its home slot (diagnostics)."""
        result = []
        for i, state in enumerate(self._tags):
            if state < _TAG_STATES:
                continue
            home, _ = self._slot_and_tag(self._keys[i])
            result.append((i - home) & self._mask)
        return result


class EntropyAwareProbingTable(EntropyAwareMixin, LinearProbingTable):
    """Linear-probing table with Section 5's full runtime infrastructure.

    On construction and at every growth it asks a trained model for the
    cheapest hasher with ``log2(capacity) + log2(5)`` bits; the engine's
    collision monitor watches insert displacements and, when they exceed
    what the learned entropy predicts, rebuilds the table with full-key
    hashing (the robustness fallback the appendix's train/test-mismatch
    experiment relies on).  Unless given one, it builds its monitor
    from the plan's entropy claim, and re-bases it on every geometry.
    """

    _requirement = staticmethod(entropy_for_probing_table)

    def _default_monitor(self) -> Optional[CollisionMonitor]:
        entropy = self._plan_entropy(self.engine.hasher)
        if entropy is None:
            return None
        return CollisionMonitor(entropy=entropy, num_slots=self.num_slots)

    def _rebase_monitor(self, size: int) -> None:
        if self.monitor is not None:
            self.monitor.num_slots = size
            self.monitor.reset()

    def _after_insert(self, displacement: int) -> None:
        # Structural baseline: Knuth's expected displacement for an
        # ideal hash at the current load, (Q1(m, n) - 1) / 2.
        alpha = min(0.95, self._size / self.num_slots)
        baseline = 0.5 * (1.0 / (1.0 - alpha) ** 2 - 1.0)
        self._watch_insert(displacement, baseline, self._size)
