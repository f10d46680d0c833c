"""Tests for the separate-chaining table and the entropy-aware wrapper."""

import random

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.sizing import entropy_for_chaining_table
from repro.core.trainer import train_model
from repro.tables.chaining import EntropyAwareTable, SeparateChainingTable
from repro.engine import CollisionMonitor


@pytest.fixture
def full_hasher():
    return EntropyLearnedHasher.full_key("wyhash")


class TestBasicOperations:
    def test_insert_get_delete(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=8)
        table.insert(b"k", 7)
        assert table.get(b"k") == 7
        assert table.delete(b"k")
        assert table.get(b"k") is None

    def test_overwrite_keeps_size(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=8)
        table.insert(b"k", 1)
        table.insert(b"k", 2)
        assert len(table) == 1 and table.get(b"k") == 2

    def test_contains(self, full_hasher):
        table = SeparateChainingTable(full_hasher)
        table.insert(b"a")
        assert b"a" in table and b"b" not in table

    def test_grows(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=2, max_load=1.0)
        for i in range(500):
            table.insert(f"k{i}".encode(), i)
        assert len(table) == 500
        assert table.load_factor <= 1.0
        assert all(table.get(f"k{i}".encode()) == i for i in range(500))

    def test_rejects_bad_max_load(self, full_hasher):
        with pytest.raises(ValueError):
            SeparateChainingTable(full_hasher, max_load=0.0)

    def test_chain_histogram_sums_to_size(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=64)
        for i in range(40):
            table.insert(f"k{i}".encode())
        assert sum(table.chain_length_histogram()) == 40

    def test_fuzz_against_dict(self, full_hasher):
        rng = random.Random(7)
        table = SeparateChainingTable(full_hasher, capacity=4)
        reference = {}
        universe = [f"key-{i}".encode() for i in range(150)]
        for _ in range(2500):
            key = rng.choice(universe)
            op = rng.random()
            if op < 0.5:
                value = rng.randrange(100)
                table.insert(key, value)
                reference[key] = value
            elif op < 0.8:
                assert table.get(key) == reference.get(key)
            else:
                assert table.delete(key) == (reference.pop(key, None) is not None)
        assert dict(table.items()) == reference


class TestComparisonCounts:
    def test_comparisons_match_equation_shape(self, full_hasher):
        """Eq (2): average comparisons for hits ~ 1 + alpha/2."""
        rng = random.Random(9)
        stored = [rng.randbytes(16) for _ in range(800)]
        table = SeparateChainingTable(full_hasher, capacity=1024, max_load=1.0)
        for k in stored:
            table.insert(k)
        table.stats.clear()
        for k in stored:
            table.get(k)
        measured = table.stats.comparisons_per_probe
        alpha = len(table) / table.num_buckets
        predicted = 1 + alpha / 2
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_missing_comparisons_approx_alpha(self, full_hasher):
        rng = random.Random(10)
        stored = [rng.randbytes(16) for _ in range(800)]
        missing = [rng.randbytes(16) for _ in range(800)]
        table = SeparateChainingTable(full_hasher, capacity=1024)
        for k in stored:
            table.insert(k)
        table.stats.clear()
        for k in missing:
            table.get(k)
        alpha = len(table) / table.num_buckets
        assert table.stats.comparisons_per_probe == pytest.approx(alpha, rel=0.2)


class TestEntropyAwareTable:
    def test_upgrades_hash_as_it_grows(self, google_corpus):
        """Section 5 life cycle: growth re-consults the model, so the
        number of selected words is nondecreasing in capacity."""
        model = train_model(google_corpus, fixed_dataset=True)
        table = EntropyAwareTable(model, capacity=4)
        words_over_time = []
        for i, key in enumerate(google_corpus):
            table.insert(key, i)
            words_over_time.append(len(table.hasher.partial_key.positions))
        assert all(
            b >= a for a, b in zip(words_over_time, words_over_time[1:])
        ) or table.hasher.partial_key.is_full_key
        assert all(
            table.get(k) == i for i, k in enumerate(google_corpus)
        )

    def test_initial_hasher_sized_for_capacity(self, google_corpus):
        model = train_model(google_corpus, fixed_dataset=True)
        table = EntropyAwareTable(model, capacity=128)
        required = entropy_for_chaining_table(128)
        num_words = len(table.hasher.partial_key.positions)
        if num_words:
            assert model.result.entropy_at(num_words) >= required

    def test_monitor_triggers_fallback_on_adversarial_data(self, google_corpus):
        """Train on URLs, then insert keys that are constant on the
        selected bytes: the monitor must force a full-key rebuild and
        the table must stay correct."""
        model = train_model(google_corpus, fixed_dataset=True)
        probe = model.hasher_for_chaining_table(4096)
        if probe.partial_key.is_full_key:
            pytest.skip("model fell back already")
        monitor = CollisionMonitor(
            entropy=model.result.entropy_at(len(probe.partial_key.positions)),
            num_slots=4096,
            min_inserts=32,
        )
        table = EntropyAwareTable(model, capacity=4096, monitor=monitor)
        width = table.hasher.partial_key.last_byte_used
        adversarial = [
            b"C" * width + f"-suffix-{i}".encode() for i in range(600)
        ]
        for i, key in enumerate(adversarial):
            table.insert(key, i)
        assert table.fallen_back
        assert table.hasher.partial_key.is_full_key
        assert all(table.get(k) == i for i, k in enumerate(adversarial))

    def test_no_fallback_on_matching_data(self, google_corpus):
        model = train_model(google_corpus[:300], fixed_dataset=True)
        monitor = CollisionMonitor(
            entropy=model.entropy_available(), num_slots=1024, min_inserts=32
        )
        table = EntropyAwareTable(model, capacity=1024, monitor=monitor)
        for i, key in enumerate(google_corpus[300:]):
            table.insert(key, i)
        assert not table.fallen_back


class TestInsertBatch:
    def test_batch_equals_scalar_inserts(self, full_hasher):
        a = SeparateChainingTable(full_hasher, capacity=8)
        b = SeparateChainingTable(full_hasher, capacity=8)
        keys = [f"k{i}".encode() for i in range(300)]
        values = list(range(300))
        a.insert_batch(keys, values)
        for k, v in zip(keys, values):
            b.insert(k, v)
        assert dict(a.items()) == dict(b.items())
        assert len(a) == len(b) == 300

    def test_batch_overwrites(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=8)
        table.insert_batch([b"k", b"k"], [1, 2])
        assert table.get(b"k") == 2
        assert len(table) == 1

    def test_batch_length_mismatch(self, full_hasher):
        table = SeparateChainingTable(full_hasher)
        with pytest.raises(ValueError):
            table.insert_batch([b"a"], [1, 2])
