"""Tests for the SwissTable-style linear-probing table."""

import random

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.tables.chaining import SeparateChainingTable
from repro.tables.probing import LinearProbingTable


@pytest.fixture
def full_hasher():
    return EntropyLearnedHasher.full_key("wyhash")


@pytest.fixture
def table(full_hasher):
    return LinearProbingTable(full_hasher, capacity=16)


class TestBasicOperations:
    def test_insert_get(self, table):
        table.insert(b"key", "value")
        assert table.get(b"key") == "value"

    def test_missing_returns_default(self, table):
        assert table.get(b"absent") is None
        assert table.get(b"absent", -1) == -1

    def test_overwrite(self, table):
        table.insert(b"k", 1)
        table.insert(b"k", 2)
        assert table.get(b"k") == 2
        assert len(table) == 1

    def test_contains(self, table):
        table.insert(b"k")
        assert b"k" in table
        assert b"other" not in table

    def test_none_values_distinguishable(self, table):
        table.insert(b"k", None)
        assert b"k" in table

    def test_delete(self, table):
        table.insert(b"k", 1)
        assert table.delete(b"k")
        assert b"k" not in table
        assert len(table) == 0

    def test_delete_missing(self, table):
        assert not table.delete(b"nope")

    def test_probe_through_tombstone(self, full_hasher):
        """Deleting a key must not break probe chains behind it."""
        table = LinearProbingTable(full_hasher, capacity=8, max_load=0.9)
        keys = [f"key-{i}".encode() for i in range(6)]
        for k in keys:
            table.insert(k, k)
        table.delete(keys[0])
        for k in keys[1:]:
            assert table.get(k) == k

    def test_tombstone_slot_reused(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=8)
        table.insert(b"a", 1)
        table.delete(b"a")
        table.insert(b"a", 2)
        assert table.get(b"a") == 2
        assert len(table) == 1

    def test_items(self, table):
        data = {f"k{i}".encode(): i for i in range(10)}
        for k, v in data.items():
            table.insert(k, v)
        assert dict(table.items()) == data

    def test_probe_batch(self, table):
        table.insert(b"a", 1)
        assert table.probe_batch([b"a", b"b"]) == [1, None]


class TestGrowth:
    def test_grows_past_max_load(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=4, max_load=0.5)
        for i in range(100):
            table.insert(f"key-{i}".encode(), i)
        assert len(table) == 100
        assert table.load_factor <= 0.5 + 1e-9
        for i in range(100):
            assert table.get(f"key-{i}".encode()) == i

    def test_capacity_rounds_to_power_of_two(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=100)
        assert table.num_slots == 128

    def test_rejects_bad_max_load(self, full_hasher):
        with pytest.raises(ValueError):
            LinearProbingTable(full_hasher, max_load=1.0)


class TestStatsAndAnalysis:
    def test_miss_counts_fewer_comparisons_than_hit(self, full_hasher):
        """SwissTable property: tag bits filter most misses before any
        full-key comparison (the paper's Figure 7 explanation)."""
        rng = random.Random(1)
        stored = [rng.randbytes(24) for _ in range(1000)]
        missing = [rng.randbytes(24) for _ in range(1000)]
        table = LinearProbingTable(full_hasher, capacity=2048)
        for k in stored:
            table.insert(k)

        table.stats.clear()
        for k in stored:
            table.get(k)
        hit_cmp = table.stats.comparisons_per_probe

        table.stats.clear()
        for k in missing:
            table.get(k)
        miss_cmp = table.stats.comparisons_per_probe

        assert hit_cmp >= 1.0  # every hit compares at least itself
        assert miss_cmp < 0.1  # tags filter ~255/256 of slots

    def test_comparisons_within_paper_bound(self, full_hasher):
        """Measured comparisons for hits obey eq. 6 with H2 = inf."""
        from repro.core.analysis import probing_existing_full

        rng = random.Random(2)
        stored = [rng.randbytes(16) for _ in range(700)]
        table = LinearProbingTable(full_hasher, capacity=1024, max_load=0.875)
        for k in stored:
            table.insert(k)
        table.stats.clear()
        for k in stored:
            table.get(k)
        measured_chain = table.stats.chain_per_probe
        bound = probing_existing_full(table.num_slots, len(table))
        # Chain length per successful probe is bounded by E[P] (plus the
        # empty-slot check isn't needed on hits); allow slack for noise.
        assert measured_chain <= 2.0 * bound

    def test_displacement_histogram(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=64)
        for i in range(30):
            table.insert(f"k{i}".encode())
        displacements = table.displacement_histogram()
        assert len(displacements) == 30
        assert all(d >= 0 for d in displacements)

    def test_stats_clear(self, table):
        table.insert(b"a")
        table.get(b"a")
        table.stats.clear()
        assert table.stats.probes == 0


class TestWithPartialKeyHasher:
    def test_partial_key_table_correct(self, google_corpus):
        """A table keyed on a learned partial key must stay exactly
        correct (full keys are compared after the hash)."""
        from repro.core.trainer import train_model

        model = train_model(google_corpus, fixed_dataset=True)
        hasher = model.hasher_for_probing_table(400)
        stored, missing = google_corpus[:400], google_corpus[400:]
        table = LinearProbingTable(hasher, capacity=512)
        for k in stored:
            table.insert(k, k)
        assert all(table.get(k) == k for k in stored)
        assert all(table.get(k) is None for k in missing)

    def test_colliding_partial_keys_still_correct(self):
        """Keys identical on the selected word collide through L but the
        table must still distinguish them via full-key comparison."""
        hasher = EntropyLearnedHasher.from_positions([0], word_size=8)
        keys = [b"SAMEWORD" + f"-unique-{i}".encode() for i in range(50)]
        table = LinearProbingTable(hasher, capacity=128)
        for i, k in enumerate(keys):
            table.insert(k, i)
        assert all(table.get(k) == i for i, k in enumerate(keys))

    def test_rebuild_with_hasher(self, full_hasher):
        # Both tables rebuild through one shared path.
        for table_cls in (LinearProbingTable, SeparateChainingTable):
            table = table_cls(full_hasher, capacity=32)
            for i in range(20):
                table.insert(f"k{i}".encode(), i)
            fallback = EntropyLearnedHasher.full_key("xxh3")
            table.rebuild_with_hasher(fallback)
            assert table.hasher is fallback
            assert len(table) == 20
            assert all(table.get(f"k{i}".encode()) == i for i in range(20))


class TestRandomizedAgainstDict:
    def test_fuzz_against_reference(self, full_hasher):
        rng = random.Random(42)
        table = LinearProbingTable(full_hasher, capacity=8)
        reference = {}
        universe = [f"key-{i}".encode() for i in range(200)]
        for _ in range(3000):
            key = rng.choice(universe)
            op = rng.random()
            if op < 0.5:
                value = rng.randrange(1000)
                table.insert(key, value)
                reference[key] = value
            elif op < 0.8:
                assert table.get(key) == reference.get(key)
            else:
                assert table.delete(key) == (reference.pop(key, None) is not None)
        assert len(table) == len(reference)
        assert dict(table.items()) == reference


class TestEntropyAwareProbingTable:
    def test_upgrades_hash_as_it_grows(self, google_corpus):
        from repro.core.trainer import train_model
        from repro.tables.probing import EntropyAwareProbingTable

        model = train_model(google_corpus, fixed_dataset=True)
        table = EntropyAwareProbingTable(model, capacity=4)
        for i, key in enumerate(google_corpus):
            table.insert(key, i)
        assert all(table.get(k) == i for i, k in enumerate(google_corpus))
        assert not table.fallen_back

    def test_fallback_on_adversarial_data(self, google_corpus):
        """Insert keys that are constant on the learned bytes: the
        monitor must rebuild with full-key hashing."""
        from repro.core.trainer import train_model
        from repro.tables.probing import EntropyAwareProbingTable

        model = train_model(google_corpus, fixed_dataset=True)
        table = EntropyAwareProbingTable(model, capacity=2048)
        if table.hasher.partial_key.is_full_key:
            pytest.skip("model fell back already")
        width = table.hasher.partial_key.last_byte_used
        adversarial = [b"Z" * width + f"-tail-{i:05d}".encode() for i in range(800)]
        for i, key in enumerate(adversarial):
            table.insert(key, i)
        assert table.fallen_back
        assert table.hasher.partial_key.is_full_key
        assert all(table.get(k) == i for i, k in enumerate(adversarial))

    def test_monitor_resets_on_growth(self, google_corpus):
        from repro.core.trainer import train_model
        from repro.tables.probing import EntropyAwareProbingTable

        model = train_model(google_corpus, fixed_dataset=True)
        table = EntropyAwareProbingTable(model, capacity=8)
        for i, key in enumerate(google_corpus[:200]):
            table.insert(key, i)
        if table.monitor is not None:
            assert table.monitor.num_slots == table.num_slots


class TestTombstoneChurn:
    def test_delete_churn_does_not_grow_capacity(self, full_hasher):
        """Insert/delete cycles with ~1 live key must compact in place,
        not double capacity every time tombstones fill the table."""
        table = LinearProbingTable(full_hasher, capacity=8)
        initial = table.num_slots
        for i in range(5000):
            key = f"churn-{i}".encode()
            table.insert(key, i)
            assert table.delete(key)
        assert table.num_slots == initial
        assert len(table) == 0
        # The table is still fully usable afterwards.
        table.insert(b"alive", 1)
        assert table.get(b"alive") == 1

    def test_compaction_preserves_entries(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=8)
        live = {}
        for i in range(400):
            key = f"k-{i}".encode()
            table.insert(key, i)
            live[key] = i
            if i % 2 == 0:
                assert table.delete(key)
                del live[key]
        assert len(table) == len(live)
        for key, value in live.items():
            assert table.get(key) == value

    def test_mixed_churn_capacity_tracks_live_size(self, full_hasher):
        """Capacity stays proportional to the peak live size even under
        heavy interleaved deletes (the repro the fuzzer shrank)."""
        table = LinearProbingTable(full_hasher, capacity=8)
        rng = random.Random(0)
        live = set()
        peak = 1
        for i in range(3000):
            key = f"m-{rng.randrange(200)}".encode()
            if key in live and rng.random() < 0.6:
                table.delete(key)
                live.discard(key)
            else:
                table.insert(key, i)
                live.add(key)
            peak = max(peak, len(live))
        # next_power_of_two(4 * peak / max_load) generously bounds the
        # legal doubling sequence; unbounded tombstone growth blows it.
        bound = 8
        while bound < 4 * peak / table.max_load:
            bound *= 2
        assert table.num_slots <= bound


class TestBatchScalarParity:
    def test_insert_batch_geometry_matches_scalar(self, full_hasher):
        """Duplicate-heavy batches must not over-grow the table: batch-
        and scalar-built tables end with identical geometry."""
        batch = LinearProbingTable(full_hasher, capacity=8)
        scalar = LinearProbingTable(
            EntropyLearnedHasher.full_key("wyhash"), capacity=8
        )
        keys = [b"dup"] * 24 + [f"u-{i}".encode() for i in range(5)]
        values = list(range(len(keys)))
        batch.insert_batch(keys, values)
        for key, value in zip(keys, values):
            scalar.insert(key, value)
        assert batch.num_slots == scalar.num_slots
        assert len(batch) == len(scalar)
        assert sorted(batch.items()) == sorted(scalar.items())

    def test_probe_stats_parity_batch_vs_scalar(self):
        """insert_batch + probe_batch must leave the same ProbeStats
        counters as the equivalent scalar loops."""
        hasher = EntropyLearnedHasher.from_positions(
            (4, 6), word_size=2, base="wyhash"
        )
        twin = EntropyLearnedHasher.from_positions(
            (4, 6), word_size=2, base="wyhash"
        )
        batch = LinearProbingTable(hasher, capacity=32)
        scalar = LinearProbingTable(twin, capacity=32)
        keys = [f"key-{i:04d}".encode() for i in range(300)]
        keys += keys[:40]  # duplicates in the insert stream
        probe_keys = keys[::3] + [f"miss-{i:04d}".encode() for i in range(60)]

        batch.insert_batch(keys, list(range(len(keys))))
        for i, key in enumerate(keys):
            scalar.insert(key, i)
        assert batch.probe_batch(probe_keys) == [
            scalar.get(k) for k in probe_keys
        ]
        for field in ("probes", "tag_checks", "key_comparisons", "chain_total"):
            assert getattr(batch.stats, field) == getattr(scalar.stats, field), field
