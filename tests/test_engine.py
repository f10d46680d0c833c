"""The unified hash engine: bit-exactness, observability, fallback,
and the no-direct-substrate lint over every consumer package.

The engine's contract is that ``hash_batch`` is indistinguishable from
the scalar hasher — for any base hash, any word size, any mix of key
lengths (including keys short enough for the full-hash branch), any
reducer, and any per-call seed override.  These tests pin that contract
down, then check the counters and the monitor-driven full-key rebuild,
and finally grep the consumer packages to ensure nothing bypasses the
engine to call a hash substrate directly in a batch path.
"""

import pickle
import random
import re
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hasher import EntropyLearnedHasher
from repro.core.partial_key import PartialKeyFunction
from repro.engine import (
    BlockMaskReducer,
    BloomSplitReducer,
    CollisionMonitor,
    FastRangeReducer,
    FingerprintReducer,
    HashEngine,
    IndexRankReducer,
    MaskReducer,
    SlotTagReducer,
)
from repro.engine.engine import _PACK_CHUNK, SCALAR_CUTOVER
from repro.engine.stats import _batch_bucket
from repro.hashing.base import get_hash
from repro.hashing.vectorized import BATCH_KERNELS
from repro.verify.oracles import reference_hasher

BASES = ("wyhash", "xxh3", "crc32")
WORD_SIZES = (1, 2, 4, 8)


def _mixed_keys(seed, n=200, max_len=40):
    """Random keys with lengths 0..max_len — plenty below any cutoff."""
    rng = random.Random(seed)
    return [
        bytes(rng.randrange(256) for _ in range(rng.randrange(max_len + 1)))
        for _ in range(n)
    ]


def _definition(hasher, seed=None):
    """``H ∘ L`` by its definition (the registered base function under
    the raw seed, of ``hash_input``) — never the compiled closure."""
    reference = reference_hasher(hasher)
    return reference if seed is None else reference.with_seed(seed)


# ------------------------------------------------------- batch == scalar


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("word_size", WORD_SIZES)
def test_hash_batch_matches_scalar(base, word_size):
    hasher = EntropyLearnedHasher.from_positions(
        (8, 0, 16), word_size=word_size, base=base
    )
    engine = HashEngine(hasher)
    keys = _mixed_keys(seed=word_size * 101)
    batch = engine.hash_batch(keys)
    assert batch.dtype == np.uint64
    assert list(batch) == [_definition(hasher)(k) for k in keys]


@pytest.mark.parametrize("base", BASES)
def test_full_key_engine_matches_scalar(base):
    engine = HashEngine.full_key(base, seed=3)
    keys = _mixed_keys(seed=77)
    reference = _definition(engine.hasher)
    assert list(engine.hash_batch(keys)) == [reference(k) for k in keys]


def test_seed_override_matches_reseeded_hasher():
    hasher = EntropyLearnedHasher.from_positions((0, 8), base="xxh3")
    engine = HashEngine(hasher)
    keys = _mixed_keys(seed=5)
    for seed in (1, 42, 2**31):
        reseeded = _definition(hasher, seed)
        assert list(engine.hash_batch(keys, seed=seed)) == [
            reseeded(k) for k in keys
        ]
        assert [engine.hash_one(k, seed=seed) for k in keys[:5]] == [
            reseeded(k) for k in keys[:5]
        ]
    # The override is per-call: the engine's own seed is untouched.
    assert engine.seed == hasher.seed
    assert list(engine.hash_batch(keys)) == [_definition(hasher)(k) for k in keys]


def test_hash_one_matches_batch():
    engine = HashEngine(EntropyLearnedHasher.from_positions((4,), base="wyhash"))
    keys = _mixed_keys(seed=9, n=50)
    batch = engine.hash_batch(keys)
    reference = _definition(engine.hasher)
    assert [engine.hash_one(k) for k in keys] == list(batch)
    assert list(batch) == [reference(k) for k in keys]


@given(
    keys=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=50),
    positions=st.lists(st.integers(0, 32), min_size=0, max_size=3,
                       unique=True).map(tuple),
    word_size=st.sampled_from(WORD_SIZES),
    base=st.sampled_from(BASES),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_batch_equals_scalar(keys, positions, word_size, base):
    """For any key mix and any L, the engine is the hasher, vectorized."""
    hasher = EntropyLearnedHasher(
        PartialKeyFunction(positions, word_size), base=base
    )
    engine = HashEngine(hasher)
    reference = _definition(hasher)
    assert list(engine.hash_batch(keys)) == [reference(k) for k in keys]
    assert [hasher(k) for k in keys] == [reference(k) for k in keys]


# ---------------------------------------------------------------- reducers


_REDUCERS = (
    MaskReducer(1023),
    SlotTagReducer(511),
    FastRangeReducer(37),
    BloomSplitReducer(),
    BlockMaskReducer(64, 3),
    FingerprintReducer(0xFFF, 255),
    IndexRankReducer(10),
)


@pytest.mark.parametrize("reducer", _REDUCERS, ids=lambda r: type(r).__name__)
def test_reducer_batch_matches_apply_one(reducer):
    engine = HashEngine(EntropyLearnedHasher.from_positions((0, 8)))
    keys = _mixed_keys(seed=31, n=100)
    reduced = engine.hash_batch(keys, reducer)
    hashes = engine.hash_batch(keys)
    if isinstance(reduced, tuple):
        for i, h in enumerate(hashes):
            assert tuple(int(part[i]) for part in reduced) == tuple(
                int(x) for x in reducer.apply_one(int(h))
            )
    else:
        for i, h in enumerate(hashes):
            assert int(reduced[i]) == int(reducer.apply_one(int(h)))


# ------------------------------------------------------------------- stats


def test_stats_counters():
    hasher = EntropyLearnedHasher.from_positions((0,), word_size=4)
    engine = HashEngine(hasher)
    long_keys = [b"x" * 8] * 100
    engine.hash_batch(long_keys)
    engine.hash_batch(long_keys)
    engine.hash_one(b"y" * 8)

    stats = engine.stats()
    assert stats["batches"] == 2
    assert stats["scalar_calls"] == 1
    assert stats["keys_hashed"] == 201
    # Partial key reads 4 length-prefix bytes + one 4-byte word.
    assert stats["bytes_hashed"] == 201 * hasher.partial_key.bytes_read
    assert stats["plan_cache_misses"] == 1
    assert stats["plan_cache_hits"] == 1
    assert stats["short_key_fallbacks"] == 0
    assert stats["batch_size_histogram"] == {"64-127": 2}
    assert stats["fell_back"] is False

    # Keys below the cutoff are counted as short-key fallbacks.
    engine.hash_batch([b"ab", b"x" * 16])
    assert engine.stats()["short_key_fallbacks"] == 1


def test_set_hasher_invalidates_plans():
    engine = HashEngine(EntropyLearnedHasher.from_positions((0,)))
    engine.hash_batch([b"k" * 16] * SCALAR_CUTOVER["wyhash"])
    assert engine.stats()["plans_compiled"] == 1
    engine.set_hasher(EntropyLearnedHasher.from_positions((8,)))
    assert engine.stats()["plans_compiled"] == 0
    keys = _mixed_keys(seed=3, n=30)
    reference = _definition(engine.hasher)
    assert list(engine.hash_batch(keys)) == [reference(k) for k in keys]


@pytest.mark.parametrize("base", ["wyhash", "fnv1a", "siphash"])
def test_short_key_fallbacks_do_not_depend_on_the_base(base):
    # Kernel-less bases and hash_one once skipped the short-key count.
    engine = HashEngine(EntropyLearnedHasher.from_positions((8,), base=base))
    engine.hash_batch([b"short", b"x" * 32, b"tiny"])
    assert engine.stats()["short_key_fallbacks"] == 2
    engine.hash_one(b"tiny")
    assert engine.stats()["short_key_fallbacks"] == 3


# ------------------------------------------------------ small-batch cutover


def test_every_batch_kernel_has_a_cutover():
    assert set(SCALAR_CUTOVER) == set(BATCH_KERNELS)


def _cutover_case(case, base, n):
    """(hasher, keys, seed) for one boundary case; 16-byte cutoff."""
    rng = random.Random(n)
    long_keys = [
        bytes(rng.randrange(256) for _ in range(rng.randrange(16, 41)))
        for _ in range(n)
    ]
    partial = EntropyLearnedHasher.from_positions((8, 0), base=base)
    if case == "partial":
        return partial, long_keys, None
    if case == "seed":
        return partial, long_keys, 7
    mixed = [k[: rng.randrange(16)] if i % 3 == 0 else k
             for i, k in enumerate(long_keys)]
    if case == "short_mix":
        return partial, mixed, None
    return EntropyLearnedHasher.full_key(base), mixed, None


@pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
@pytest.mark.parametrize("case", ["partial", "full_key", "short_mix", "seed"])
@pytest.mark.parametrize("base", sorted(BATCH_KERNELS))
def test_cutover_boundary_is_invisible(base, case, below):
    n = SCALAR_CUTOVER[base] - below
    hasher, keys, seed = _cutover_case(case, base, n)
    engine = HashEngine(hasher)
    reference = _definition(hasher, seed)

    got = engine.hash_batch(keys, seed=seed)

    assert [int(h) for h in got] == [reference(k) for k in keys]
    stats = engine.stats()
    L = hasher.partial_key
    assert {
        name: stats[name]
        for name in ("keys_hashed", "bytes_hashed", "short_key_fallbacks",
                     "batch_size_histogram")
    } == {
        "keys_hashed": n,
        "bytes_hashed": sum(hasher.bytes_read(k) for k in keys),
        "short_key_fallbacks": 0 if L.is_full_key else sum(
            not L.applies_to(k) for k in keys),
        "batch_size_histogram": {_batch_bucket(n): 1},
    }
    if below:
        assert stats["plans_compiled"] == stats["plan_cache_misses"] == 0
    else:
        # At the cutover the plan pass runs.  A full-key hasher compiles
        # one plan per key length; a partial key compiles its subkey plan
        # plus one per group of short keys that itself reaches the
        # cutover (smaller groups take the compiled closure).
        if L.is_full_key:
            expected = len(set(map(len, keys)))
        else:
            shorts = Counter(len(k) for k in keys if not L.applies_to(k))
            expected = 1 + sum(
                size >= SCALAR_CUTOVER[base] for size in shorts.values())
        assert stats["plans_compiled"] == expected


@pytest.mark.parametrize("reducer", _REDUCERS, ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("base", sorted(BATCH_KERNELS))
def test_small_batches_keep_the_dtypes_of_apply(base, reducer):
    """Below the cutover the reducer runs per key; what comes back is
    what ``apply`` gives the definition's hashes: values, dtypes and
    shapes, at every size up to and past the cutover."""
    hasher = EntropyLearnedHasher.from_positions((8, 0), base=base, seed=11)
    engine = HashEngine(hasher)
    reference = _definition(hasher)
    cutover = SCALAR_CUTOVER[base]
    keys = _mixed_keys(seed=41, n=cutover)
    for n in (0, 1, 2, cutover - 1, cutover):
        got = engine.hash_batch(keys[:n], reducer)
        want = reducer.apply(
            np.array([reference(k) for k in keys[:n]], dtype=np.uint64))
        assert type(got) is type(want)
        if not isinstance(want, tuple):
            got, want = (got,), (want,)
        assert [(a.dtype, a.shape) for a in got] == [
            (b.dtype, b.shape) for b in want]
        assert [a.tolist() for a in got] == [b.tolist() for b in want]


@pytest.mark.parametrize("full_key", [False, True], ids=["partial", "full_key"])
@pytest.mark.parametrize("base", sorted(BATCH_KERNELS))
def test_small_length_groups_take_the_closure(base, full_key):
    """A group of a partial key's short keys smaller than the cutover
    hashes through the compiled closure, not a plan; a full-key hasher
    keeps one plan per key length.  Hashes and counters equal the
    definition's either way."""
    cutover = SCALAR_CUTOVER[base]
    rng = random.Random(base)

    def key(length):
        return bytes(rng.randrange(256) for _ in range(length))

    if full_key:
        hasher = EntropyLearnedHasher.full_key(base, seed=4)
    else:
        hasher = EntropyLearnedHasher.from_positions((8, 0), base=base, seed=4)
    keys = [key(9) for _ in range(cutover)]  # short keys for (8, 0)
    keys += [key(length) for length in range(16) for _ in range(2)]
    keys += [key(rng.randrange(16, 60)) for _ in range(cutover)]
    rng.shuffle(keys)
    engine = HashEngine(hasher)

    got = engine.hash_batch(keys)

    reference = _definition(hasher)
    assert [int(h) for h in got] == [reference(k) for k in keys]
    L = hasher.partial_key
    # A partial key compiles its subkey plan and one full-key plan for
    # the one short-key group at the cutover (length 9).
    plans = len(set(map(len, keys))) if full_key else 2
    stats = engine.stats()
    assert {
        name: stats[name]
        for name in ("keys_hashed", "bytes_hashed", "short_key_fallbacks",
                     "plans_compiled", "plan_cache_misses")
    } == {
        "keys_hashed": len(keys),
        "bytes_hashed": sum(hasher.bytes_read(k) for k in keys),
        "short_key_fallbacks": 0 if full_key else sum(
            not L.applies_to(k) for k in keys),
        "plans_compiled": plans,
        "plan_cache_misses": plans,
    }


# ------------------------------------------------- one join, one packer


def _packer_case(case, cutoff, rng):
    """(make_keys, n) for one packer case: ``make_keys()`` builds the
    batch afresh, so a generator input can be hashed twice."""
    def key(length):
        return bytes(rng.randrange(256) for _ in range(length))

    if case.startswith("chunk"):
        n = {"chunk-1": _PACK_CHUNK - 1, "chunk": _PACK_CHUNK,
             "chunk+1": _PACK_CHUNK + 1, "2chunk+3": 2 * _PACK_CHUNK + 3}[case]
        pool = [key(rng.randrange(cutoff - 4, cutoff + 24)) for _ in range(97)]
        keys = [pool[rng.randrange(len(pool))] for _ in range(n)]
        return lambda: keys, n
    keys = [key(rng.randrange(cutoff, cutoff + 30)) for _ in range(40)]
    if case == "mixed_types":
        keys[1] = bytearray(keys[1])
        keys[2] = memoryview(keys[2])
        keys[3] = "entropy-learned-hashing-" + "é" * 9
        keys[4] = "ascii text key of some length"
        keys[5] = memoryview(bytearray(key(cutoff - 1)))
    elif case == "array_I":
        keys[7] = memoryview(array("I", range(cutoff)))
        keys[8] = memoryview(array("I", [7]))
    elif case == "nul_and_empty":
        keys[:6] = [b"", b"\0" * cutoff, b"ab\0cd" + b"\0" * cutoff,
                    keys[6] + b"\0\0", b"\0", b""]
    elif case == "cutoff_edges":
        keys = [key(cutoff - 1 + i % 2) for i in range(40)]
    elif case == "tuple":
        return lambda: tuple(keys), len(keys)
    elif case == "generator":
        return lambda: (k for k in keys), len(keys)
    return lambda: list(keys), len(keys)


_PACKER_CASES = ("mixed_types", "array_I", "tuple", "generator",
                 "nul_and_empty", "cutoff_edges", "chunk-1", "chunk",
                 "chunk+1", "2chunk+3")


@pytest.mark.parametrize("case", _PACKER_CASES)
@pytest.mark.parametrize("full_key", [False, True], ids=["partial", "full_key"])
@pytest.mark.parametrize("base", sorted(BATCH_KERNELS))
def test_packer_matches_scalar_hasher(base, full_key, case):
    if full_key:
        hasher = EntropyLearnedHasher.full_key(base, seed=5)
    else:
        hasher = EntropyLearnedHasher.from_positions((8, 3), base=base, seed=5)
    cutoff = max(hasher.partial_key.last_byte_used, 16)
    make_keys, n = _packer_case(case, cutoff, random.Random(case))
    keys = list(make_keys())
    reducer = SlotTagReducer(1023)
    engine = HashEngine(hasher)

    hashes = engine.hash_batch(make_keys())
    reduced = engine.hash_batch(make_keys(), reducer, seed=7)

    assert [int(h) for h in hashes] == [_definition(hasher)(k) for k in keys]
    reseeded = _definition(hasher, 7)
    assert [tuple(int(part[i]) for part in reduced) for i in range(n)] == [
        tuple(int(x) for x in reducer.apply_one(reseeded(k))) for k in keys]
    L = hasher.partial_key
    stats = engine.stats()
    assert {
        name: stats[name]
        for name in ("keys_hashed", "bytes_hashed", "short_key_fallbacks",
                     "batches", "batch_size_histogram")
    } == {
        "keys_hashed": 2 * n,
        "bytes_hashed": 2 * sum(hasher.bytes_read(k) for k in keys),
        "short_key_fallbacks": 0 if L.is_full_key else 2 * sum(
            not L.applies_to(k) for k in keys),
        "batches": 2,
        "batch_size_histogram": {_batch_bucket(n): 2},
    }


# ------------------------------------------------- the process boundary


@pytest.mark.parametrize("base", ["wyhash", "xxh3", "crc32", "fnv1a", "siphash"])
def test_hashers_survive_pickling(base):
    """Hashers travel to shard children pickled: the compiled closures
    are rebuilt on the other side and hash exactly as before."""
    hasher = EntropyLearnedHasher.from_positions((8, 0), base=base, seed=9)
    keys = _mixed_keys(seed=51, n=40)
    reference = _definition(hasher)
    hasher.hash_batch(keys)  # builds the hasher's private engine
    engine = HashEngine(hasher)
    engine.hash_batch(keys, seed=3)  # fills the plan and reseed caches

    twin_hasher, twin_base, twin_engine = pickle.loads(
        pickle.dumps((hasher, hasher.base, engine)))

    assert [twin_hasher(k) for k in keys] == [reference(k) for k in keys]
    assert list(twin_hasher.hash_batch(keys)) == [reference(k) for k in keys]
    assert twin_base(b"process boundary") == get_hash(base, 9)(
        b"process boundary")
    assert list(twin_engine.hash_batch(keys)) == [reference(k) for k in keys]
    assert list(twin_engine.hash_batch(keys, seed=3)) == [
        _definition(hasher, 3)(k) for k in keys]
    assert [twin_engine.hash_one(k) for k in keys[:5]] == [
        reference(k) for k in keys[:5]]


@pytest.mark.parametrize("base", ["wyhash", "xxh3", "fnv1a"])
def test_with_seed_rebuilds_the_closure(base):
    hasher = EntropyLearnedHasher.from_positions((8, 0), base=base, seed=9)
    reseeded = hasher.with_seed(1234)
    assert reseeded.hash_bytes is not hasher.hash_bytes
    assert reseeded.base.hash_bytes is not hasher.base.hash_bytes
    keys = _mixed_keys(seed=52, n=40)
    assert [reseeded(k) for k in keys] == [
        _definition(hasher, 1234)(k) for k in keys]
    assert [hasher(k) for k in keys] == [_definition(hasher)(k) for k in keys]


# ------------------------------------------------- monitor-driven fallback


def test_monitor_fallback_rebuilds_to_full_key():
    hasher = EntropyLearnedHasher.from_positions((0,), word_size=1)
    monitor = CollisionMonitor(entropy=1.0, num_slots=64, min_inserts=8)
    engine = HashEngine(hasher, monitor=monitor)

    fired = False
    for i in range(200):
        fired = engine.record_insert(displacement=50.0, expected=0.5,
                                     n=i + 1)
        if fired:
            break
    assert fired, "pathological displacements must trip the monitor"
    assert engine.fell_back
    assert engine.hasher.partial_key.is_full_key
    assert engine.stats()["fallback_events"] == 1
    assert engine.stats()["fell_back"] is True

    # Post-fallback hashing is the full-key hash, batch == scalar.
    keys = _mixed_keys(seed=13, n=60)
    reference = _definition(hasher).full_key()
    assert list(engine.hash_batch(keys)) == [reference(k) for k in keys]
    # Further inserts are no-ops: the engine already fell back.
    assert engine.record_insert(displacement=100.0, n=500) is False
    assert engine.stats()["fallback_events"] == 1


def test_record_insert_without_monitor_is_noop():
    engine = HashEngine(EntropyLearnedHasher.from_positions((0,)))
    assert engine.record_insert(displacement=1e9, n=10**6) is False
    assert not engine.fell_back


# ------------------------------------------- engine-backed structures


def _structures():
    from repro.filters import (BlockedBloomFilter, BloomFilter,
                               CountingBloomFilter, CuckooFilter)
    from repro.partitioning.partitioner import Partitioner
    from repro.sketches.hyperloglog import HyperLogLog
    from repro.tables import CuckooTable, LinearProbingTable, SeparateChainingTable

    return {
        "chaining": lambda h: SeparateChainingTable(h),
        "probing": lambda h: LinearProbingTable(h),
        "cuckoo_table": lambda h: CuckooTable(h),
        "bloom": lambda h: BloomFilter(h, num_bits=64, num_hashes=2),
        "blocked": lambda h: BlockedBloomFilter(h, num_blocks=4),
        "counting": lambda h: CountingBloomFilter(h, num_counters=64,
                                                  num_hashes=2),
        "cuckoo_filter": lambda h: CuckooFilter(h, capacity=16),
        "hyperloglog": lambda h: HyperLogLog(h, precision=4),
        "partitioner": lambda h: Partitioner(h, num_partitions=2),
    }


@pytest.mark.parametrize("name", sorted(_structures()))
def test_structure_hasher_is_the_engines_and_read_only(name):
    # A structure's hasher is its engine's live one; swapping it under
    # stored entries would orphan them, so it cannot be assigned.
    structure = _structures()[name](EntropyLearnedHasher.full_key())
    assert structure.hasher is structure.engine.hasher
    swapped = EntropyLearnedHasher.full_key("xxh3")
    structure.engine.set_hasher(swapped)
    assert structure.hasher is swapped
    with pytest.raises(AttributeError):
        structure.hasher = EntropyLearnedHasher.full_key()


# ------------------------------------------- no direct substrate calls


# Batch paths must route through HashEngine: no consumer may call the
# hasher's own batch entry points or reach into the kernel registry.
_FORBIDDEN = re.compile(
    r"hasher\.hash_batch\(|\.base\.hash_bytes\(|hash_batch_grouped"
    r"|BATCH_KERNELS|wyhash_fixed\(|xxh3_fixed\(|crc32_fixed\("
    r"|xxh64_fixed\(|murmur3_fixed\("
)
_CONSUMER_DIRS = (
    "tables", "filters", "partitioning", "sketches", "operators", "kvstore",
    "service", "similarity", "drift",
)


def test_no_consumer_bypasses_the_engine():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for directory in _CONSUMER_DIRS:
        for path in sorted((src / directory).glob("*.py")):
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if _FORBIDDEN.search(line):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, (
        "batch paths must go through HashEngine, found direct substrate "
        "calls:\n" + "\n".join(offenders)
    )


# ------------------------- plan-cache invalidation across a shared engine


class TestFallbackPlanCacheInvalidation:
    """A forced FALL_BACK mid-batch must invalidate every compiled
    partial-key plan: no structure sharing the engine may be served a
    stale plan afterwards."""

    def _tripped_engine(self):
        hasher = EntropyLearnedHasher.from_positions((0, 4), word_size=2)
        monitor = CollisionMonitor(entropy=1.0, num_slots=64, min_inserts=1)
        engine = HashEngine(hasher, monitor=monitor)
        # Warm the partial-key plan cache first.
        engine.hash_batch(_mixed_keys(seed=21, n=50))
        assert engine.stats()["plans_compiled"] >= 1
        generation = engine.generation
        fired = False
        for i in range(50):
            fired = engine.record_insert(displacement=1e6, expected=0.1,
                                         n=i + 1)
            if fired:
                break
        assert fired and engine.fell_back
        assert engine.generation > generation
        return engine

    def test_no_stale_partial_key_plan_after_fallback(self):
        engine = self._tripped_engine()
        stats = engine.stats()
        # The partial-key plans died with the fallback...
        assert stats["plans_compiled"] == 0
        assert stats["positions"] == []
        # ...and every hash afterwards equals a fresh full-key engine's.
        fresh = HashEngine(
            EntropyLearnedHasher.full_key("wyhash", seed=engine.seed)
        )
        keys = _mixed_keys(seed=22, n=120)
        assert list(engine.hash_batch(keys)) == list(fresh.hash_batch(keys))
        assert engine.hash_one(b"zz") == fresh.hash_one(b"zz")

    def test_reducer_plans_also_recompile(self):
        engine = self._tripped_engine()
        fresh = HashEngine(
            EntropyLearnedHasher.full_key("wyhash", seed=engine.seed)
        )
        reducer = MaskReducer(127)
        keys = _mixed_keys(seed=23, n=80)
        assert list(engine.hash_batch(keys, reducer)) == list(
            fresh.hash_batch(keys, reducer)
        )

    def test_generation_tracks_every_hasher_swap(self):
        engine = HashEngine(EntropyLearnedHasher.from_positions((0,)))
        g0 = engine.generation
        engine.set_hasher(EntropyLearnedHasher.from_positions((8,)))
        engine.set_hasher(engine.hasher)  # same hasher still bumps
        assert engine.generation == g0 + 2
        assert engine.stats()["generation"] == engine.generation

    def test_structures_sharing_one_engine_stay_consistent(self):
        """Two tables on one engine: after the monitor fires mid-stream,
        both keep answering correctly (no stale-plan indexing)."""
        from repro.tables.chaining import SeparateChainingTable

        hasher = EntropyLearnedHasher.from_positions((0, 4), word_size=2)
        first = SeparateChainingTable(hasher, capacity=64)
        second = SeparateChainingTable.__new__(SeparateChainingTable)
        # Share the first table's engine (same compiled plans).
        second.engine = first.engine
        second.max_load = first.max_load
        second._size = 0
        second._in_rehash = False
        second._init_array(64)
        from repro.tables.probing import ProbeStats

        second.stats = ProbeStats()

        keys = [f"shared-{i:04d}".encode() for i in range(40)]
        first.insert_batch(keys, list(range(40)))
        second.insert_batch(keys, list(range(40)))

        # Force the shared engine's fallback mid-life.
        first.engine.monitor = CollisionMonitor(
            entropy=1.0, num_slots=64, min_inserts=1
        )
        for i in range(50):
            if first.engine.record_insert(1e6, expected=0.1, n=i + 1):
                break
        assert first.engine.fell_back
        # Both tables must rehash under the new hasher to keep serving
        # reads: its fingerprint differs from the one they placed under.
        first._rehash(first.num_buckets)
        second._rehash(second.num_buckets)
        assert first.probe_batch(keys) == list(range(40))
        assert second.probe_batch(keys) == list(range(40))
