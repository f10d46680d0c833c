"""Tests for the counting Bloom filter and the cuckoo filter."""

import random

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import train_model
from repro.filters.blocked import BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.filters.counting import CountingBloomFilter
from repro.filters.cuckoo import CuckooFilter


@pytest.fixture
def xxh3():
    return EntropyLearnedHasher.full_key("xxh3")


class TestCountingBloom:
    def test_add_remove_roundtrip(self, xxh3):
        f = CountingBloomFilter(xxh3, num_counters=1024, num_hashes=3)
        f.add(b"k")
        assert f.contains(b"k")
        assert f.remove(b"k")
        assert not f.contains(b"k")

    def test_multiset_semantics(self, xxh3):
        f = CountingBloomFilter(xxh3, num_counters=1024, num_hashes=3)
        f.add(b"k")
        f.add(b"k")
        assert f.remove(b"k")
        assert f.contains(b"k")  # one copy left
        assert f.remove(b"k")
        assert not f.contains(b"k")

    def test_no_false_negatives_under_churn(self, xxh3):
        rng = random.Random(3)
        f = CountingBloomFilter.for_items(xxh3, 500, target_fpr=0.01)
        live = set()
        for step in range(3000):
            key = f"k{rng.randrange(300)}".encode()
            if key in live and rng.random() < 0.5:
                f.remove(key)
                live.discard(key)
            else:
                f.add(key)
                live.add(key)
            if step % 100 == 0:
                assert all(f.contains(k) for k in live)

    def test_remove_absent_is_noop(self, xxh3):
        f = CountingBloomFilter(xxh3, num_counters=256, num_hashes=3)
        assert not f.remove(b"never-added")
        assert f.num_items == 0

    def test_fpr_reasonable(self, xxh3):
        rng = random.Random(5)
        stored = [rng.randbytes(16) for _ in range(1000)]
        negatives = [rng.randbytes(16) for _ in range(3000)]
        f = CountingBloomFilter.for_items(xxh3, 1000, target_fpr=0.03)
        for k in stored:
            f.add(k)
        assert f.measured_fpr(negatives) < 0.06

    def test_saturation_keeps_no_false_negatives(self, xxh3):
        """Hammer one key past the counter max; it must stay present."""
        f = CountingBloomFilter(xxh3, num_counters=64, num_hashes=2)
        for _ in range(300):
            f.add(b"hot")
        assert f.saturated_counters > 0
        f.remove(b"hot")
        assert f.contains(b"hot")  # saturated counters never decrement

    def test_validation(self, xxh3):
        with pytest.raises(ValueError):
            CountingBloomFilter(xxh3, num_counters=0, num_hashes=1)
        with pytest.raises(ValueError):
            CountingBloomFilter(xxh3, num_counters=8, num_hashes=0)
        f = CountingBloomFilter(xxh3, num_counters=8, num_hashes=1)
        with pytest.raises(ValueError):
            f.measured_fpr([])


class TestCuckooFilter:
    def test_add_contains_remove(self, xxh3):
        f = CuckooFilter(xxh3, capacity=128)
        assert f.add(b"k")
        assert f.contains(b"k")
        assert f.remove(b"k")
        assert not f.contains(b"k")
        assert not f.remove(b"k")

    def test_no_false_negatives(self, xxh3):
        rng = random.Random(7)
        keys = [rng.randbytes(20) for _ in range(800)]
        f = CuckooFilter(xxh3, capacity=1200)
        for k in keys:
            assert f.add(k)
        assert all(f.contains(k) for k in keys)

    def test_fpr_tracks_fingerprint_bits(self, xxh3):
        rng = random.Random(8)
        stored = [rng.randbytes(16) for _ in range(900)]
        negatives = [rng.randbytes(16) for _ in range(4000)]
        fprs = {}
        for bits in (8, 16):
            f = CuckooFilter(xxh3, capacity=1200, fingerprint_bits=bits)
            for k in stored:
                f.add(k)
            fprs[bits] = f.measured_fpr(negatives)
        assert fprs[16] <= fprs[8]
        assert fprs[16] <= f.theoretical_fpr() * 3 + 0.002

    def test_deletion_under_churn(self, xxh3):
        rng = random.Random(9)
        f = CuckooFilter(xxh3, capacity=600)
        live = set()
        for _ in range(4000):
            key = f"item-{rng.randrange(250)}".encode()
            if key in live and rng.random() < 0.5:
                assert f.remove(key)
                live.discard(key)
            elif len(live) < 400:
                if f.add(key):
                    live.add(key)
        assert all(f.contains(k) for k in live)

    def test_add_fails_gracefully_when_overfull(self, xxh3):
        f = CuckooFilter(xxh3, capacity=8)
        keys = [f"k{i}".encode() for i in range(200)]
        outcomes = [f.add(k) for k in keys]
        assert not all(outcomes)  # eventually refuses
        # Slots + at most the one victim-cache entry.
        assert len(f) <= f.num_buckets * 4 + 1
        # Every accepted key must still be findable (no lost fingerprints).
        accepted = [k for k, ok in zip(keys, outcomes) if ok]
        assert all(f.contains(k) for k in accepted)

    def test_validation(self, xxh3):
        with pytest.raises(ValueError):
            CuckooFilter(xxh3, capacity=0)
        with pytest.raises(ValueError):
            CuckooFilter(xxh3, capacity=8, fingerprint_bits=2)

    def test_with_entropy_learned_hasher(self, google_corpus):
        model = train_model(google_corpus, fixed_dataset=True)
        hasher = model.hasher_for_bloom_filter(len(google_corpus), 0.01)
        f = CuckooFilter(hasher, capacity=len(google_corpus) * 2)
        for k in google_corpus:
            assert f.add(k)
        assert all(f.contains(k) for k in google_corpus)

    def test_partial_key_collision_is_shared_fingerprint(self):
        """Keys equal on L share index+fingerprint: one stands for all
        (a certain false positive, eq. 7's analogue for filters)."""
        hasher = EntropyLearnedHasher.from_positions([0], word_size=8)
        f = CuckooFilter(hasher, capacity=64)
        f.add(b"SAMEWORD-one-key")
        assert f.contains(b"SAMEWORD-two-key")  # same length + word


class TestCountingBloomRemoveSafety:
    def test_remove_never_added_key_is_checked_noop(self, xxh3):
        f = CountingBloomFilter(xxh3, num_counters=1024, num_hashes=3)
        assert not f.remove(b"never-added")
        f.add(b"present")
        assert f.contains(b"present")

    def test_duplicate_probe_remove_cannot_wrap_counters(self):
        """Tiny filters force double hashing to land several probes on
        one counter; removing an absent key whose probes alias a counter
        holding fewer increments must be refused, not wrap the uint8
        from 1 to 255 (the repro the fuzzer shrank)."""
        import numpy as np

        hasher = EntropyLearnedHasher.full_key("wyhash")
        rng = random.Random(0)
        for trial in range(200):
            num_counters = rng.choice((3, 5, 6, 7))
            f = CountingBloomFilter(
                hasher, num_counters=num_counters, num_hashes=4
            )
            added = [f"add-{trial}-{i}".encode() for i in range(2)]
            for key in added:
                f.add(key)
            before = f._counters.copy()
            removed = f.remove(f"absent-{trial}".encode())
            after = f._counters
            # Whatever the verdict, no counter may ever increase on a
            # remove — a wrap shows up as 1 -> 255.
            assert (after <= before).all()
            assert int(after.max()) < 250
            if not removed:
                assert (after == before).all()

    def test_adversarial_churn_keeps_no_false_negatives(self):
        """Random add/remove churn where removes only target added keys:
        every live key must remain a member afterwards."""
        hasher = EntropyLearnedHasher.full_key("xxh3")
        f = CountingBloomFilter(hasher, num_counters=64, num_hashes=4)
        rng = random.Random(7)
        live = []
        for i in range(2000):
            if live and rng.random() < 0.45:
                key = live.pop(rng.randrange(len(live)))
                assert f.remove(key), key
            else:
                key = f"churn-{rng.randrange(50)}-{i}".encode()
                f.add(key)
                live.append(key)
        for key in live:
            assert f.contains(key), key

    def test_remove_verdicts_match_exact_counter_oracle(self):
        """Differential lock: the filter's remove verdicts and counter
        array must track the verify harness's exact-int oracle."""
        from repro.verify.oracles import CounterOracle

        hasher = EntropyLearnedHasher.from_positions(
            (0, 4), word_size=2, base="wyhash"
        )
        f = CountingBloomFilter(hasher, num_counters=6, num_hashes=4)
        oracle = CounterOracle(hasher, num_counters=6, num_hashes=4)
        rng = random.Random(3)
        pool = [f"key-{i:02d}".encode() for i in range(12)]
        for _ in range(600):
            key = pool[rng.randrange(len(pool))]
            if rng.random() < 0.5:
                f.add(key)
                oracle.add(key)
            else:
                expected = oracle.predict_remove(key)
                assert f.remove(key) == expected, key
                if expected:
                    oracle.remove(key)
            assert [int(c) for c in f._counters] == oracle.counters


FILTERS = {
    "bloom": lambda h: BloomFilter(h, num_bits=1024, num_hashes=3),
    "blocked": lambda h: BlockedBloomFilter(h, num_blocks=16),
    "counting": lambda h: CountingBloomFilter(h, num_counters=1024,
                                              num_hashes=3),
    "cuckoo": lambda h: CuckooFilter(h, capacity=128),
}


@pytest.mark.parametrize("name", sorted(FILTERS))
@pytest.mark.parametrize("empty", [[], iter(())], ids=["list", "iterator"])
def test_measured_fpr_needs_a_negative_key(xxh3, name, empty):
    # Every filter reads its negatives before checking that there is
    # one, so an empty iterator raises just as an empty list does.
    f = FILTERS[name](xxh3)
    f.add(b"stored")
    with pytest.raises(ValueError):
        f.measured_fpr(empty)
    assert f.measured_fpr(iter([b"stored"])) == 1.0
