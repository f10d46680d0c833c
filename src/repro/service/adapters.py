"""Structure adapters: the uniform batched facade each shard serves.

A :class:`StructureAdapter` wraps exactly one ELH structure (table,
filter, or LSM store) behind the get/put/delete/contains batch paths
the worker drains segments into, plus the degraded-mode machinery,
written once on the base class over one ``_rebuild(full_key)`` hook per
adapter: ``tripped`` reports whether the structure fell back to
full-key hashing, ``fall_back()`` rebuilds the structure under
full-key hashing without losing a single stored entry,
``restore_partial_key()`` undoes the fallback for a circuit-breaker
probe, and ``force_trip()`` trips the shard for drills and tests — on a
table by injecting a pathological displacement burst through the real
monitor (the same trigger the fuzz harness uses).

Adapters historically lived inside ``service/worker.py``; they moved
here when the execution-backend refactor split the worker into a
transport shell and a pure per-shard core, because a
:class:`~repro.service.backends.ProcessBackend` child must be able to
build its structure *inside* the child process.  That is what
:class:`AdapterSpec` is for: a small picklable recipe (backend name,
capacity, model/hasher, seed) that crosses the process boundary and is
rebuilt into a live adapter on the far side — the structures themselves
never travel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.greedy import GreedyResult
from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import EntropyModel
from repro.engine import CollisionMonitor
from repro.metrics import Reported, scrape
from repro.tables.aware import EntropyAwareMixin

BACKENDS = (
    "chaining", "probing", "lsm", "bloom", "cuckoo_filter", "similarity"
)


def _full_key_model(base: str) -> EntropyModel:
    """A model whose every recommendation is full-key hashing."""
    return EntropyModel(result=GreedyResult(
        positions=[], word_size=8, entropies=[], train_collisions=[],
        train_size=0, eval_size=0,
    ), base=base)


class StructureAdapter(Reported):
    """Uniform batched facade over one ELH structure."""

    REPORTS = ("backend", "fell_back=tripped", "hashes_carried",
               "hashes_recomputed", "size=__len__")

    backend: str = ""
    supported: frozenset = frozenset()
    # True when the structure can hot-swap to a re-learned EntropyModel
    # (only entropy-aware tables, which carry a model to re-plan from).
    rearmable: bool = False

    def __init__(self, hasher: Optional[EntropyLearnedHasher] = None) -> None:
        self._degraded = False
        # Pre-fallback hasher, kept so a breaker probe can restore the
        # learned partial-key configuration after a full-key quarantine
        # (None for the LSM, whose runs each learn their own).
        self._pristine_hasher = hasher
        # Keys served from carried hashes, and keys the structure hashed
        # itself: a shard whose plan drifted off the fleet plan shows up
        # as the second counter growing.
        self.hashes_carried = 0
        self.hashes_recomputed = 0

    def carried(
        self, keys: Sequence[bytes], hashes: Optional[Sequence[int]], plan
    ) -> Optional[Sequence[int]]:
        """A segment's carried ``hashes`` when this structure can probe
        and insert from them, else None: it then hashes the keys itself,
        as it would without them.  ``plan`` is the fingerprint of the
        hasher that computed them.  Counts the segment's keys either
        way; only the tables take carried hashes."""
        self.hashes_recomputed += len(keys)
        return None

    # Batch entry points; ``keys`` is never empty.  ``hashes``, when
    # given, are what :meth:`carried` returned.
    def get_batch(
        self, keys: Sequence[bytes], hashes=None
    ) -> List[Optional[bytes]]:
        raise NotImplementedError

    def put_batch(
        self, keys: Sequence[bytes], values: Sequence[bytes], hashes=None
    ) -> Optional[List[bool]]:
        """Store key/value pairs; a list of per-key acks, or None for all-ok."""
        raise NotImplementedError

    def delete_batch(
        self, keys: Sequence[bytes], hashes=None
    ) -> List[Optional[bool]]:
        raise NotImplementedError

    def contains_batch(self, keys: Sequence[bytes], hashes=None) -> List[bool]:
        raise NotImplementedError

    # Degraded-mode hooks.
    @property
    def tripped(self) -> bool:
        """Did this structure fall back to full-key hashing — through
        the adapter, or through its engine's own monitor?"""
        engine = self.engine
        return self._degraded or (engine is not None and engine.fell_back)

    @property
    def engine(self):
        """The structure's HashEngine, or None (LSM shards own several)."""
        return None

    def _rebuild(self, full_key: bool) -> None:
        """Place every stored entry again under the full-key hasher
        (``full_key``) or the pristine one; no entry is lost."""
        raise NotImplementedError

    def _hasher_for(self, full_key: bool) -> EntropyLearnedHasher:
        """The pristine hasher, or its full-key twin (same base, seed)."""
        h = self._pristine_hasher
        return EntropyLearnedHasher.full_key(h.base, seed=h.seed) if full_key else h

    def fall_back(self) -> None:
        """Rebuild under full-key hashing; every stored entry survives."""
        if self._degraded:
            return
        self._rebuild(full_key=True)
        self._degraded = True

    def restore_partial_key(self) -> None:
        """Undo a fallback: rebuild under the pristine partial-key
        hasher with a reset monitor (the breaker's half-open probe)."""
        if not self.tripped:
            return
        self._rebuild(full_key=False)
        self._degraded = False

    def force_trip(self) -> None:
        """Trip the shard for drills; a structure with no per-insert
        monitor to drive simply falls back."""
        self.fall_back()

    # Drift re-learning hook.
    def rearm_with(self, model: EntropyModel) -> None:
        """Hot-swap the structure to a freshly re-learned model."""
        raise NotImplementedError(
            f"backend {self.backend!r} does not support plan re-learning"
        )

    def __len__(self) -> int:
        raise NotImplementedError


class TableAdapter(StructureAdapter):
    """Chaining/probing hash tables: the full get/put/delete/contains set."""

    supported = frozenset({"get", "put", "delete", "contains"})
    REPORTS = StructureAdapter.REPORTS + ("engine=_engine_counts",)

    def __init__(self, table, backend: str):
        super().__init__(table.engine.hasher)
        self.table = table
        self.backend = backend
        self.rearmable = isinstance(table, EntropyAwareMixin)

    @property
    def engine(self):
        return self.table.engine

    def carried(self, keys, hashes, plan):
        """The carried hashes while ``plan`` is the fingerprint of the
        table's live hasher.  A growth re-plan, a monitor fallback and a
        plan swap that chose another plan all fail that check."""
        if hashes is not None and plan == self.table.engine.hasher.fingerprint:
            self.hashes_carried += len(keys)
            return hashes
        return super().carried(keys, hashes, plan)

    def get_batch(self, keys, hashes=None):
        if hashes is None:
            return self.table.probe_batch(list(keys))
        return self.table.probe_batch_hashed(keys, hashes)

    def put_batch(self, keys, values, hashes=None):
        self.table.insert_batch(list(keys), list(values), hashes)
        return None

    def delete_batch(self, keys, hashes=None):
        return self.table.delete_batch(keys, hashes)

    def contains_batch(self, keys, hashes=None):
        # Stored values are request payload bytes, never None.
        return [v is not None for v in self.get_batch(keys, hashes)]

    def _rebuild(self, full_key):
        engine = self.table.engine
        if not full_key:
            engine.rearm(self._pristine_hasher)
        elif engine.fell_back:
            # The table's own monitor tripped, and the table already
            # rehashed every entry under the full-key hasher.
            return
        else:
            engine.fall_back_to_full_key()
        self.table.rebuild_with_hasher(engine.hasher)

    def force_trip(self):
        """Drive the real CollisionMonitor over its budget (drills)."""
        engine = self.table.engine
        if not engine.hasher.partial_key.is_full_key:
            if engine.monitor is None:
                engine.monitor = CollisionMonitor(
                    entropy=0.0, num_slots=4, min_inserts=1
                )
            engine.monitor.min_inserts = 1
            # A displacement burst no entropy budget survives: the
            # monitor votes FALL_BACK and the engine swaps itself to
            # full-key.  The table never saw the signal, so re-place
            # its entries here.
            if engine.record_insert(1e9, expected=0.0, n=4096):
                self.table.rebuild_with_hasher(engine.hasher)
        self.fall_back()

    def rearm_with(self, model: EntropyModel) -> None:
        """Hot-swap to a re-learned model (drift recovery).

        Unlike :meth:`restore_partial_key`, which rebuilds under the
        *pristine* hasher, this installs a brand-new plan: the table
        re-picks its cheapest hasher from ``model``, the engine rearms
        (monitor re-based on the new entropy claim; hashes carried under
        another fingerprint fail :meth:`carried`), and the pristine
        snapshot is replaced — a later breaker probe
        must restore the re-learned plan, not the stale original.
        """
        if not self.rearmable:
            raise NotImplementedError(
                f"backend {self.backend!r} cannot rearm (no model attached)"
            )
        self.table.relearn(model)
        self._pristine_hasher = self.table.engine.hasher
        self._degraded = False

    def _engine_counts(self) -> Dict[str, object]:
        return scrape(self.table.engine.counters, ("keys_hashed", "batches"))

    def __len__(self):
        return len(self.table)


class FilterAdapter(StructureAdapter):
    """Approximate-membership shards: put=add, contains; no get.

    Keeps the acked key list so a full-key fallback can rebuild the
    filter without losing a member (filters cannot rehash in place).
    """

    def __init__(self, filter_obj, backend: str, capacity: int):
        super().__init__(filter_obj.engine.hasher)
        self.filter = filter_obj
        self.backend = backend
        self.capacity = capacity
        self.supported = frozenset(
            {"put", "contains", "delete"} if backend == "cuckoo_filter"
            else {"put", "contains"}
        )
        self._members: List[bytes] = []

    @property
    def engine(self):
        return self.filter.engine

    # Guarded by `supported`: a filter shard is never asked for values.
    def get_batch(self, keys, hashes=None):  # pragma: no cover
        raise NotImplementedError("filters store membership, not values")

    def put_batch(self, keys, values, hashes=None):
        keys = list(keys)
        if self.backend == "cuckoo_filter":
            acks = list(self.filter.add_batch(keys))
            self._members.extend(k for k, ok in zip(keys, acks) if ok)
            return acks
        self.filter.add_batch(keys)
        self._members.extend(keys)
        return None

    def delete_batch(self, keys, hashes=None):
        results = []
        for key in keys:
            removed = bool(self.filter.remove(key))
            if removed:
                self._members.remove(key)
            results.append(removed)
        return results

    def contains_batch(self, keys, hashes=None):
        return [bool(x) for x in self.filter.contains_batch(list(keys))]

    def _rebuild(self, full_key):
        from repro.filters.bloom import BloomFilter
        from repro.filters.cuckoo import CuckooFilter

        hasher = self._hasher_for(full_key)
        old = self.filter
        if self.backend == "cuckoo_filter":
            self.filter = CuckooFilter(
                hasher, self.capacity,
                fingerprint_bits=old.fingerprint_bits,
            )
        else:
            self.filter = BloomFilter(
                hasher, num_bits=old.num_bits, num_hashes=old.num_hashes
            )
        if self._members:
            self.filter.add_batch(list(self._members))

    def __len__(self):
        return len(self._members)


class LsmAdapter(StructureAdapter):
    """LSM store shard: get/put/delete/contains over runs with filters."""

    backend = "lsm"
    supported = frozenset({"get", "put", "delete", "contains"})
    REPORTS = StructureAdapter.REPORTS + ("runs=store.num_runs",)

    def __init__(self, store):
        super().__init__()
        self.store = store

    def get_batch(self, keys, hashes=None):
        return self.store.multi_get(list(keys))

    def put_batch(self, keys, values, hashes=None):
        for key, value in zip(keys, values):
            self.store.put(key, value)
        return None

    def delete_batch(self, keys, hashes=None):
        # LSM deletes write tombstones; they don't report prior presence.
        for key in keys:
            self.store.delete(key)
        return [None] * len(keys)

    def contains_batch(self, keys, hashes=None):
        missing = object()
        got = self.store.multi_get(list(keys), default=missing)
        return [value is not missing for value in got]

    def _rebuild(self, full_key):
        from repro.kvstore.sstable import SSTable

        self.store.flush()
        # Rebuild every run's filter; entries are carried over verbatim,
        # so no acknowledged write is lost.  model=None retrains a
        # per-run partial-key model, the path a freshly flushed run takes.
        model = _full_key_model("xxh3") if full_key else None
        self.store.runs = [
            SSTable(run.entries(), model=model) for run in self.store.runs
        ]

    def __len__(self):
        return self.store.total_entries()


def _entropy_aware_table(backend: str):
    """The entropy-aware table class a model-built ``backend`` shard
    holds, or None for a backend that is not a table."""
    if backend == "chaining":
        from repro.tables.chaining import EntropyAwareTable

        return EntropyAwareTable
    if backend == "probing":
        from repro.tables.probing import EntropyAwareProbingTable

        return EntropyAwareProbingTable
    return None


@dataclass(frozen=True)
class AdapterSpec:
    """A picklable recipe for one shard's structure, and the one way to
    build it (:meth:`build`).

    The structure is built from a model (production) or a raw hasher
    (tests/fuzzing): exactly one of ``model``/``hasher``.  The spec
    carries only small, serializable inputs — never a live structure —
    so the same spec can build the adapter in the parent (inline
    execution) or inside a freshly spawned shard child (process
    execution), and both builds are bit-identical for a given seed.
    Construction validates the recipe.
    """

    backend: str
    capacity: int
    model: Optional[EntropyModel] = None
    hasher: Optional[EntropyLearnedHasher] = None
    seed: int = 0
    # Backend-specific tuning (the similarity backend's bands, rows, b
    # and shingle_width); the point-op backends take none, and passing
    # them options is an error rather than a silent ignore.  Plain
    # JSON-safe values only, so the spec stays picklable.
    options: Optional[Dict[str, object]] = None
    # The fleet's partitioning requirement in bits: a model-built table
    # never plans below it, so its plan is the one the router hashes
    # with (see fleet_hasher).
    min_entropy: float = 0.0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if (self.model is None) == (self.hasher is None):
            raise ValueError("pass exactly one of model= or hasher=")
        if self.options and self.backend != "similarity":
            raise ValueError(
                f"backend {self.backend!r} takes no options, "
                f"got {sorted(self.options)}"
            )

    def required_entropy(self) -> float:
        """Bits the spec's table plans its hash for at a fresh build —
        the table's own Section 5 requirement at the geometry it builds,
        never below ``min_entropy`` — or ``min_entropy`` alone for a
        backend that does not probe from carried hashes."""
        table = _entropy_aware_table(self.backend)
        if table is None:
            return self.min_entropy
        return table.required_entropy(
            max(self.capacity, 4), min_entropy=self.min_entropy
        )

    def fleet_hasher(self) -> EntropyLearnedHasher:
        """The one hasher a fleet built from this spec hashes keys with.

        The router computes every key's hash with it, and a freshly
        built table plans exactly it (same plan, same seed), so the
        table probes and inserts from the router's hashes: the spec's
        own hasher, or the model's plan for :meth:`required_entropy`.
        """
        if self.model is None:
            return self.hasher
        return self.model.hasher_for_entropy(
            self.required_entropy(), seed=self.seed
        )

    def build(self) -> StructureAdapter:
        backend, model, hasher, seed = (
            self.backend, self.model, self.hasher, self.seed
        )
        capacity = max(self.capacity, 4)
        if backend in ("chaining", "probing"):
            if model is not None:
                table = _entropy_aware_table(backend)(
                    model, capacity=capacity, seed=seed,
                    min_entropy=self.min_entropy,
                )
            elif backend == "chaining":
                from repro.tables.chaining import SeparateChainingTable

                table = SeparateChainingTable(hasher, capacity=capacity)
            else:
                from repro.tables.probing import LinearProbingTable

                table = LinearProbingTable(hasher, capacity=capacity)
            return TableAdapter(table, backend)
        if backend == "lsm":
            from repro.kvstore.store import LSMStore

            return LsmAdapter(LSMStore(memtable_bytes=max(1024, capacity * 8)))
        h = hasher if hasher is not None else model.hasher_for_bloom_filter(
            capacity, seed=seed
        )
        if backend == "similarity":
            from repro.similarity.adapter import SimilarityAdapter

            return SimilarityAdapter(h, capacity, **(self.options or {}))
        if backend == "bloom":
            from repro.filters.bloom import BloomFilter

            return FilterAdapter(
                BloomFilter.for_items(h, capacity), backend, capacity
            )
        from repro.filters.cuckoo import CuckooFilter

        return FilterAdapter(CuckooFilter(h, capacity), backend, capacity)


__all__ = [
    "BACKENDS",
    "StructureAdapter",
    "TableAdapter",
    "FilterAdapter",
    "LsmAdapter",
    "AdapterSpec",
]
