"""Trusted oracles the differential fuzzer checks structures against.

Each oracle is a deliberately naive, obviously-correct model of one
structure family's *contract*:

* :class:`DictOracle` — exact mapping semantics (hash tables, the LSM
  store): ``get`` returns the last value put, ``delete`` returns whether
  the key was live.
* :class:`MembershipOracle` — exact membership multiset for approximate
  filters.  Filters may report false positives but never false
  negatives, so the oracle only *convicts* on a missing present key.
* :class:`CounterOracle` — an exact (unsaturated-int) mirror of a
  counting Bloom filter's counter array, computed from reference scalar
  probe positions.  It predicts both each ``remove``'s return value and
  the exact post-state of every counter.
* :class:`FrequencyOracle` — exact frequency counts; Count-Min estimates
  must never undercount.
* :class:`DistinctOracle` — exact distinct count for HyperLogLog
  estimate-accuracy checks.

Oracles never touch the engine's batch pipeline or the hasher's
compiled scalar closure: anything they derive from a hash uses
:func:`reference_hasher`, ``H ∘ L`` by its definition, which is the
bit-exactness reference both paths are tested against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro._util import Key, as_bytes
from repro.core.hasher import EntropyLearnedHasher
from repro.core.partial_key import PartialKeyFunction
from repro.filters.reduction import split_hash64
from repro.hashing.base import registered_hash


class DictOracle:
    """Exact key/value mapping semantics."""

    def __init__(self) -> None:
        self.data: Dict[bytes, Any] = {}

    def insert(self, key: bytes, value: Any) -> None:
        self.data[key] = value

    def get(self, key: bytes, default: Any = None) -> Any:
        return self.data.get(key, default)

    def delete(self, key: bytes) -> bool:
        if key in self.data:
            del self.data[key]
            return True
        return False

    def contains(self, key: bytes) -> bool:
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    def items(self) -> List[Tuple[bytes, Any]]:
        return sorted(self.data.items())


class MembershipOracle:
    """Exact multiset of live additions for approximate filters.

    ``tainted`` flips when the structure legitimately performed an
    operation that voids the no-false-negative guarantee (e.g. a
    counting-filter remove of an absent key that happened to pass the
    counter pre-check).  Once tainted, present-key checks stop
    convicting.
    """

    def __init__(self) -> None:
        self.counts: Dict[bytes, int] = {}
        self.tainted = False

    def add(self, key: bytes) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def remove(self, key: bytes) -> None:
        live = self.counts.get(key, 0)
        if live <= 1:
            self.counts.pop(key, None)
        else:
            self.counts[key] = live - 1

    def contains(self, key: bytes) -> bool:
        return key in self.counts

    def present_keys(self) -> List[bytes]:
        return sorted(self.counts)

    def __len__(self) -> int:
        return sum(self.counts.values())


class CounterOracle:
    """Exact mirror of a counting Bloom filter's counter semantics.

    Uses the reference scalar hash path to compute probe positions, and
    plain Python ints for the counters, applying the documented
    saturating rules: increments stop at ``counter_max``; a saturated
    counter is never decremented; a remove is a checked no-op unless
    every probed counter can afford its probe multiplicity.
    """

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        num_counters: int,
        num_hashes: int,
        counter_max: int = 255,
    ) -> None:
        # The definition, not the subject's hasher object: a subject-side
        # hasher mutation cannot leak into the oracle.
        self.hasher = reference_hasher(hasher)
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        self.counter_max = counter_max
        self.counters = [0] * num_counters

    def probes(self, key: bytes) -> List[int]:
        h1, h2 = split_hash64(self.hasher(key))
        return [(h1 + i * h2) % self.num_counters for i in range(self.num_hashes)]

    def _needed(self, key: bytes) -> Dict[int, int]:
        needed: Dict[int, int] = {}
        for pos in self.probes(key):
            needed[pos] = needed.get(pos, 0) + 1
        return needed

    def add(self, key: bytes) -> None:
        for pos in self.probes(key):
            if self.counters[pos] < self.counter_max:
                self.counters[pos] += 1

    def predict_remove(self, key: bytes) -> bool:
        """Whether a correct filter would accept this remove."""
        for pos, count in self._needed(key).items():
            counter = self.counters[pos]
            if counter < self.counter_max and counter < count:
                return False
        return True

    def remove(self, key: bytes) -> None:
        """Apply an accepted remove's decrements."""
        for pos, count in self._needed(key).items():
            if self.counters[pos] < self.counter_max:
                self.counters[pos] -= count

    def contains(self, key: bytes) -> bool:
        return all(self.counters[pos] > 0 for pos in self.probes(key))


class FrequencyOracle:
    """Exact frequency counts (Count-Min may overcount, never under)."""

    def __init__(self) -> None:
        self.counts: Dict[bytes, int] = {}
        self.total = 0

    def add(self, key: bytes, count: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + count
        self.total += count

    def count(self, key: bytes) -> int:
        return self.counts.get(key, 0)


class DistinctOracle:
    """Exact distinct count for cardinality-estimate accuracy checks."""

    def __init__(self) -> None:
        self.seen: set = set()

    def add(self, key: bytes) -> None:
        self.seen.add(key)

    @property
    def cardinality(self) -> int:
        return len(self.seen)


class StoreOracle(DictOracle):
    """LSM-store semantics: newest write wins, deletes hide older data."""

    def scan(self, start: bytes, end: bytes) -> List[Tuple[bytes, Any]]:
        return sorted(
            (k, v) for k, v in self.data.items() if start <= k < end
        )


class ReferenceHasher:
    """``H ∘ L`` by its definition: the registered two-argument base
    function, under the raw seed, of
    :meth:`~repro.core.partial_key.PartialKeyFunction.hash_input`.

    It shares no code with the hasher's compiled closure (length check,
    one concatenation, seeded base form) or the engine's plans, so a
    fault in either shows as a divergence.
    """

    def __init__(self, partial_key: PartialKeyFunction, base: str, seed: int):
        self.partial_key = partial_key
        self.base = base
        self.seed = seed
        self._func = registered_hash(base)

    def __call__(self, key: Key) -> int:
        return self._func(self.partial_key.hash_input(as_bytes(key)), self.seed)

    def with_seed(self, seed: int) -> "ReferenceHasher":
        return ReferenceHasher(self.partial_key, self.base, seed)

    def full_key(self) -> "ReferenceHasher":
        """The same base and seed without ``L`` (the Section 5 fallback)."""
        return ReferenceHasher(PartialKeyFunction.full_key(), self.base, self.seed)


def reference_hasher(hasher: EntropyLearnedHasher) -> ReferenceHasher:
    """The definitional reference for ``hasher``'s configuration.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> hasher = EntropyLearnedHasher.from_positions((0, 8), seed=3)
    >>> reference_hasher(hasher)(b"0123456789abcdef") == hasher(b"0123456789abcdef")
    True
    """
    return ReferenceHasher(hasher.partial_key, hasher.base.name, hasher.seed)


__all__ = [
    "DictOracle",
    "MembershipOracle",
    "CounterOracle",
    "FrequencyOracle",
    "DistinctOracle",
    "StoreOracle",
    "ReferenceHasher",
    "reference_hasher",
]
