"""The unified batched hash pipeline every structure routes through.

One :class:`HashEngine` owns an
:class:`~repro.core.hasher.EntropyLearnedHasher` and turns every hashing
request — from tables, filters, partitioners, sketches, operators, the
kv-store — into one batch call.  A batch at or above its base's
:data:`SCALAR_CUTOVER` takes a three-step vectorized pass:

1. **gather**: one ``b"".join`` of the batch's keys and one pass over
   their lengths, then row gathers from a zero-copy strided window over
   the join — one per learned word — build the subkey rows (vectorized
   ``L``, bit-exact with
   :meth:`~repro.core.partial_key.PartialKeyFunction.subkey`, including
   the length prefix); keys too short for ``L`` take the full-hash
   branch through one full-key gather per exact length (a group of
   short keys smaller than the cutover hashes through the compiled
   closure instead; a full-key hasher keeps one plan per group).  A
   batch of more than ``_PACK_CHUNK`` keys is joined and hashed in
   chunks of that size, so its temporaries stay bounded;
2. **hash** with the bit-exact numpy kernel of the base hash;
3. **reduce** with the structure's :class:`~repro.engine.reducers.Reducer`
   (bucket mask, fingerprint split, partition id, ...) in the same pass.

A smaller batch, or any batch for a base without a numpy kernel, takes
the scalar loop instead: the hasher's compiled closure
(``hasher.hash_bytes``: length check, one subkey concatenation, the
seeded base hash) per key.  Each numpy call pays a fixed cost of a few
µs, and the served path averages about two keys per call, so
vectorizing there would hide the paper's constant per-key cost behind
that floor; below the cutover a fused reducer runs per key too
(:meth:`~repro.engine.reducers.Reducer.apply_each`), returning the
dtypes ``apply`` would.  Both paths are bit-exact with
``[hasher(k) for k in keys]`` and charge the same counters.

Plans (kernel + row layout per key-length-group) are compiled once
and cached.  The engine also centralizes the Section 5 robustness story:
it owns the optional :class:`~repro.engine.monitor.CollisionMonitor`,
and when observed collisions exceed the entropy budget it rebuilds its
plans around full-key hashing and records the event in ``stats()``.
``hash_one`` is the single-key degenerate case of the same pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro._util import Key, as_bytes, as_bytes_list
from repro.core.hasher import EntropyLearnedHasher
from repro.core.partial_key import PartialKeyFunction
from repro.engine.monitor import CollisionMonitor
from repro.engine.plan import (
    HashPlan,
    compile_fixed_plan,
    compile_subkey_plan,
    join_keys,
)
from repro.engine.reducers import Reducer
from repro.engine.stats import EngineStats
from repro.hashing.base import HashFunction
from repro.metrics import Reported

# Per base with a numpy kernel: batches smaller than this take the
# scalar loop (and a fused reducer runs per key), because below it
# numpy's fixed per-call cost (array setup, gather, a few dozen ufunc
# calls on tiny arrays) exceeds the loop's per-key cost.  Each value is
# the crossover of that base's "hash_batch_cost" records in
# BENCH_engine.json, written by benchmarks/bench_engine.py; a value
# moves only when its crossover moves by more than one grid step.
# Bases without an entry have no kernel and always take the scalar loop.
SCALAR_CUTOVER = {"crc32": 24, "murmur3": 12, "wyhash": 32, "xxh3": 12, "xxh64": 8}

# A larger batch is packed and hashed in chunks of this many keys, which
# bounds the joined bytes, the packed rows and the kernels' n x 8 B
# temporaries.  It is where the plan pass's µs per key stops falling on
# the "hash_batch_cost" records in BENCH_engine.json.
_PACK_CHUNK = 4096

_BYTES = {bytes}


class HashEngine(Reported):
    """Compiled partial-key -> hash -> reduce pipeline with observability.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> engine = HashEngine(EntropyLearnedHasher.from_positions((0, 8)))
    >>> keys = [b"0123456789abcdef", b"0123456789ABCDEF"]
    >>> list(engine.hash_batch(keys)) == [engine.hasher(k) for k in keys]
    True
    >>> engine.stats()["batches"]
    1
    """

    REPORTS = ("*counters", "plans_compiled=_plans.__len__", "fell_back",
               "generation", "base=hasher.base.name",
               "positions=partial_key.positions",
               "word_size=partial_key.word_size")

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        monitor: Optional[CollisionMonitor] = None,
    ):
        self.monitor = monitor
        self._stats = EngineStats()
        self._plans: Dict[tuple, HashPlan] = {}
        self._seeded: Dict[int, EntropyLearnedHasher] = {}
        self._fell_back = False
        self._generation = 0
        self._install(hasher)

    # ----------------------------------------------------------- construction

    @classmethod
    def full_key(
        cls, base: Union[str, HashFunction] = "wyhash", seed: int = 0
    ) -> "HashEngine":
        """An engine around a traditional full-key hasher."""
        return cls(EntropyLearnedHasher.full_key(base, seed=seed))

    # -------------------------------------------------------------- accessors

    @property
    def hasher(self) -> EntropyLearnedHasher:
        """The hasher whose configuration the current plans compile."""
        return self._hasher

    def set_hasher(self, hasher: EntropyLearnedHasher) -> None:
        """Swap the hasher and invalidate every compiled plan."""
        self._install(hasher)
        self._plans.clear()
        self._seeded.clear()
        self._generation += 1

    def _install(self, hasher: EntropyLearnedHasher) -> None:
        """Adopt ``hasher`` and cache what every call reads of it: the
        cutoff (None for full-key hashing), the partial key's bytes
        read, and the base's cutover (None: no kernel, never a plan)."""
        self._hasher = hasher
        L = hasher.partial_key
        self._cutoff = None if L.is_full_key else L.last_byte_used
        self._bytes_read = L.bytes_read
        self._cutover = SCALAR_CUTOVER.get(hasher.base.name)

    @property
    def generation(self) -> int:
        """How many times the hasher was swapped (and every plan dropped).

        A reported count only: whether a precomputed hash still holds is
        decided by ``hasher.fingerprint``, which a swap to the same plan
        keeps.
        """
        return self._generation

    @property
    def partial_key(self) -> PartialKeyFunction:
        return self._hasher.partial_key

    @property
    def seed(self) -> int:
        return self._hasher.seed

    @property
    def fell_back(self) -> bool:
        """True once the monitor forced full-key rebuilding."""
        return self._fell_back

    # ------------------------------------------------------------- batch path

    def hash_batch(
        self,
        keys: Sequence[Key],
        reducer: Optional[Reducer] = None,
        seed: Optional[int] = None,
    ):
        """Hash a batch; optionally fuse the structure's reducer.

        Bit-exact with ``[self.hasher(k) for k in keys]`` (and, with a
        reducer, with ``reducer.apply_one`` of each scalar hash), with
        the dtypes of ``reducer.apply`` at every batch size.
        ``seed`` overrides the hasher's seed for this call only — plans
        are seed-independent, so multi-hash structures (MinHash
        permutations, LSH bands) reuse one engine and one plan cache.
        """
        if type(keys) is not list and type(keys) is not tuple:
            keys = list(keys)
        n = len(keys)
        self._stats.observe_batch(n)
        cutover = self._cutover
        if cutover is None:
            hashes = np.array(self._hash_scalar(keys, seed), dtype=np.uint64)
        elif n < cutover:
            # Per-key cost end to end: the compiled closure per key,
            # then the reducer per hash.
            hashes = self._hash_scalar(keys, seed)
            if reducer is None:
                return np.array(hashes, dtype=np.uint64)
            return reducer.apply_each(hashes)
        else:
            if seed is None:
                seed = self._hasher.seed
            if n <= _PACK_CHUNK:
                hashes = self._hash_planned(keys, seed)
            else:
                hashes = np.concatenate([
                    self._hash_planned(keys[start:start + _PACK_CHUNK], seed)
                    for start in range(0, n, _PACK_CHUNK)
                ])
        if reducer is None:
            return hashes
        return reducer.apply(hashes)

    def _hash_scalar(self, keys: Sequence[Key], seed: Optional[int]) -> List[int]:
        """The scalar loop: the compiled closure per key.  Charges the
        call's counters."""
        if set(map(type, keys)) - _BYTES:
            keys = as_bytes_list(keys)
        self._charge(keys)
        return list(map(self._scalar_hash(seed), keys))

    def _hash_planned(self, keys: Sequence[Key], seed: int) -> np.ndarray:
        """The plan pass over one chunk of at most ``_PACK_CHUNK`` keys.

        One join, then row gathers from it for the kernels: the subkey
        plan for keys that reach the learned cutoff, one full-key plan
        per exact length for the rest.  Charges the chunk's counters.
        """
        blob, starts, lengths = join_keys(keys)
        n = len(lengths)
        base = self._hasher.base.name
        L = self._hasher.partial_key
        if L.is_full_key:
            self._count(n, len(blob))
            return self._hash_full(blob, starts, lengths, seed)
        plan = self._plan(
            ("subkey", base, L.positions, L.word_size),
            lambda: compile_subkey_plan(L, base),
        )
        if lengths.min() >= plan.cutoff:
            # The common case Section 3 designs for: every key takes the
            # partial-key branch; one gather per word, one kernel call.
            self._count(n, len(blob))
            return plan.run(plan.rows(blob, starts, lengths), seed)
        short = lengths < plan.cutoff
        shorts = np.flatnonzero(short)
        applies = np.flatnonzero(~short)
        self._count(n, len(blob), len(shorts), int(lengths[shorts].sum()))
        out = np.empty(n, dtype=np.uint64)
        if len(applies):
            out[applies] = plan.run(
                plan.rows(blob, starts[applies], lengths[applies]), seed
            )
        out[shorts] = self._hash_full(blob, starts[shorts], lengths[shorts], seed)
        return out

    def _charge(self, keys: Sequence[bytes]) -> None:
        """Count the key bytes and short keys of a scalar-path call."""
        lengths = list(map(len, keys))
        cutoff = self._cutoff
        if cutoff is None or not lengths or min(lengths) >= cutoff:
            self._count(len(lengths), sum(lengths))
            return
        shorts = [length for length in lengths if length < cutoff]
        self._count(len(lengths), 0, len(shorts), sum(shorts))

    def _count(
        self, n: int, total: int, shorts: int = 0, short_bytes: int = 0
    ) -> None:
        """Count one call's ``n`` keys of ``total`` bytes, ``shorts`` of
        them (``short_bytes`` in all) too short for the partial key.

        Partial-key hashing reads ``L.bytes_read`` bytes of a key long
        enough for every selected word and the whole of a shorter one
        (Section 3's full-hash branch); full-key hashing reads every byte.
        """
        stats = self._stats
        if self._cutoff is None:
            stats.bytes_hashed += total
        else:
            stats.short_key_fallbacks += shorts
            stats.bytes_hashed += self._bytes_read * (n - shorts) + short_bytes

    def _hash_full(
        self, blob: bytes, starts: np.ndarray, lengths: np.ndarray, seed: int
    ) -> np.ndarray:
        """Full-key hashing, grouped by exact length: one plan per group.

        A partial-key hasher's short keys (shorter than its cutoff, so
        about as short as the subkeys ``SCALAR_CUTOVER`` was measured
        on) take the compiled closure instead when their group is
        smaller than the cutover.  A full-key hasher's groups always
        take a plan: its keys can be of any length, and the closure's
        cost grows with it.
        """
        base = self._hasher.base.name
        out = np.empty(len(lengths), dtype=np.uint64)
        order = np.argsort(lengths)
        ordered = lengths[order]
        edges = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        short_keys = self._cutoff is not None
        for group in np.split(order, edges):
            length = int(lengths[group[0]])
            if short_keys and len(group) < self._cutover:
                scalar = self._scalar_hash(seed)
                out[group] = [
                    scalar(blob[start:start + length])
                    for start in starts[group].tolist()
                ]
                continue
            plan = self._plan(
                ("fixed", base, length),
                lambda length=length: compile_fixed_plan(length, base),
            )
            out[group] = plan.run(plan.rows(blob, starts[group]), seed)
        return out

    def _plan(self, key: tuple, builder) -> HashPlan:
        plan = self._plans.get(key)
        if plan is None:
            self._stats.plan_cache_misses += 1
            plan = builder()
            self._plans[key] = plan
        else:
            self._stats.plan_cache_hits += 1
        return plan

    # ------------------------------------------------------------ scalar path

    def hash_one(
        self,
        key: Key,
        reducer: Optional[Reducer] = None,
        seed: Optional[int] = None,
    ):
        """Hash one key — the degenerate case of the batch pipeline."""
        self._stats.observe_scalar()
        key = as_bytes(key)
        self._charge((key,))
        h = self._scalar_hash(seed)(key)
        if reducer is None:
            return h
        return reducer.apply_one(h)

    def _scalar_hash(self, seed: Optional[int]) -> Callable[[bytes], int]:
        """The compiled closure of the hasher, reseeded if asked."""
        hasher = self._hasher
        if seed is None or seed == hasher.seed:
            return hasher.hash_bytes
        cached = self._seeded.get(seed)
        if cached is None:
            cached = hasher.with_seed(seed)
            self._seeded[seed] = cached
        return cached.hash_bytes

    # --------------------------------------------- robustness / observability

    def record_insert(
        self,
        displacement: float,
        expected: Optional[float] = None,
        n: Optional[int] = None,
    ) -> bool:
        """Feed one insert's collision signal to the central monitor.

        Returns True exactly when this signal pushed the monitor over
        its budget: the engine has already rebuilt its plans around
        full-key hashing, and the caller should rehash its entries with
        the engine's (new) hasher.
        """
        if self.monitor is None or self._fell_back:
            return False
        if self._hasher.partial_key.is_full_key:
            return False
        self.monitor.record_insert(displacement, expected)
        if self.monitor.should_fall_back(n):
            self.fall_back_to_full_key()
            return True
        return False

    def fall_back_to_full_key(self) -> None:
        """Rebuild every plan around the full-key hash (Section 5)."""
        self._fell_back = True
        self._stats.fallback_events += 1
        self.set_hasher(
            EntropyLearnedHasher.full_key(self._hasher.base, seed=self._hasher.seed)
        )

    def rearm(
        self,
        hasher: EntropyLearnedHasher,
        entropy: Optional[float] = None,
    ) -> None:
        """Restore partial-key hashing after a fallback or plan swap.

        The circuit-breaker's half-open probe calls this: the engine
        swaps back to ``hasher`` (normally the pristine pre-fallback
        hasher), clears the fallback latch, and resets the monitor so
        the probe window judges fresh collision statistics rather than
        the history that caused the trip.

        ``entropy``, when given, re-bases the monitor's claimed entropy
        — required when rearming with a *re-learned* plan rather than
        the pristine one, otherwise the monitor would keep judging the
        new plan's collisions against the old plan's entropy claim.
        """
        self.set_hasher(hasher)
        self._fell_back = False
        if self.monitor is not None:
            if entropy is not None:
                self.monitor.entropy = entropy
            self.monitor.reset()

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> Dict[str, object]:
        """Engines cross process boundaries (shard-child specs, spawn
        start methods) without their unpicklable or rebuildable parts:
        compiled plans and the seeded-hasher cache are recompiled
        lazily on first use."""
        state = self.__dict__.copy()
        state["_plans"] = {}
        state["_seeded"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    @property
    def counters(self) -> EngineStats:
        """The live counter object (tests and benchmarks poke at it)."""
        return self._stats

    def __repr__(self) -> str:
        return (
            f"HashEngine(base={self._hasher.base.name!r}, "
            f"positions={self._hasher.partial_key.positions}, "
            f"word_size={self._hasher.partial_key.word_size}, "
            f"fell_back={self._fell_back})"
        )
