"""Tests for LinearProbingTable's batch probe walk.

``probe_batch`` checks tags in vectorized rounds while at least
``_ROUND_MIN`` probes are unresolved and walks the rest one by one; its
answers and :class:`ProbeStats` must match a loop of scalar ``get``
calls on a twin table, on both sides of that boundary.
"""

import pickle
import random

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import train_model
from repro.tables.probing import _ROUND_MIN, LinearProbingTable

STAT_FIELDS = ("probes", "tag_checks", "key_comparisons", "chain_total")
BOUNDARY_SIZES = (_ROUND_MIN - 1, _ROUND_MIN, 4096)


@pytest.fixture
def full_hasher():
    return EntropyLearnedHasher.full_key("wyhash")


class TestBasics:
    def test_insert_get(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=8)
        table.insert(b"k", 42)
        assert table.get(b"k") == 42
        assert table.get(b"missing") is None

    def test_probe_batch_order(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=8)
        table.insert_batch([b"a", b"b", b"c"], [1, 2, 3])
        assert table.probe_batch([b"c", b"x", b"a"]) == [3, None, 1]

    def test_default_value(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=8)
        assert table.probe_batch([b"nope"], default=-1) == [-1]

    def test_overwrite(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=8)
        table.insert(b"k", 1)
        table.insert(b"k", 2)
        assert table.get(b"k") == 2
        assert len(table) == 1

    def test_contains(self, full_hasher):
        table = LinearProbingTable(full_hasher)
        table.insert(b"x")
        assert b"x" in table and b"y" not in table

    def test_growth(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=4)
        keys = [f"k{i}".encode() for i in range(2000)]
        table.insert_batch(keys, list(range(2000)))
        assert len(table) == 2000
        assert table.load_factor <= table.max_load
        results = table.probe_batch(keys)
        assert results == list(range(2000))

    def test_values_length_check(self, full_hasher):
        table = LinearProbingTable(full_hasher)
        with pytest.raises(ValueError):
            table.insert_batch([b"a"], [1, 2])

    def test_empty_batch(self, full_hasher):
        table = LinearProbingTable(full_hasher)
        assert table.probe_batch([]) == []

    def test_items(self, full_hasher):
        table = LinearProbingTable(full_hasher, capacity=16)
        data = {f"k{i}".encode(): i for i in range(10)}
        table.insert_batch(list(data), list(data.values()))
        assert dict(table.items()) == data

    def test_rejects_bad_max_load(self, full_hasher):
        with pytest.raises(ValueError):
            LinearProbingTable(full_hasher, max_load=1.5)


class TestAgreementWithScalarTable:
    def test_same_answers_as_linear_probing(self, full_hasher):
        rng = random.Random(9)
        stored = [rng.randbytes(20) for _ in range(1500)]
        missing = [rng.randbytes(20) for _ in range(1500)]
        values = list(range(1500))

        twin = LinearProbingTable(full_hasher, capacity=4096)
        table = LinearProbingTable(full_hasher, capacity=4096)
        for k, v in zip(stored, values):
            twin.insert(k, v)
        table.insert_batch(stored, values)

        probes = stored[:700] + missing[:700]
        assert table.probe_batch(probes) == [twin.get(k) for k in probes]

    def test_partial_key_hasher(self, google_corpus):
        model = train_model(google_corpus, fixed_dataset=True)
        hasher = model.hasher_for_probing_table(len(google_corpus))
        table = LinearProbingTable(hasher, capacity=1024)
        table.insert_batch(google_corpus, list(range(len(google_corpus))))
        results = table.probe_batch(google_corpus)
        assert results == list(range(len(google_corpus)))

    def test_colliding_partial_keys_resolved_by_comparison(self):
        hasher = EntropyLearnedHasher.from_positions([0], word_size=8)
        keys = [b"SAMEWORD" + f"-{i:03d}".encode() for i in range(40)]
        table = LinearProbingTable(hasher, capacity=128)
        table.insert_batch(keys, list(range(40)))
        assert table.probe_batch(keys) == list(range(40))
        assert table.probe_batch([b"SAMEWORD-zzz"]) == [None]

    def test_fuzz_mixed_single_and_batch(self, full_hasher):
        rng = random.Random(31)
        table = LinearProbingTable(full_hasher, capacity=8)
        reference = {}
        universe = [f"key-{i}".encode() for i in range(120)]
        for _ in range(40):
            batch = [rng.choice(universe) for _ in range(rng.randrange(1, 20))]
            values = [rng.randrange(1000) for _ in batch]
            table.insert_batch(batch, values)
            for k, v in zip(batch, values):
                reference[k] = v
            probes = [rng.choice(universe) for _ in range(30)]
            assert table.probe_batch(probes) == [
                reference.get(k) for k in probes
            ]


# ------------------------------------------- parity at the round boundary


def _hasher(kind):
    if kind == "full":
        return EntropyLearnedHasher.full_key("wyhash")
    # One learned word: keys sharing their first 8 bytes collide on
    # both slot and tag, so only the full-key compare tells them apart.
    return EntropyLearnedHasher.from_positions([0], word_size=8)


def _keys(prefix, count):
    # 256 distinct leading words, so the partial-key hasher sees
    # clusters of colliding keys rather than one giant chain.
    return [f"{i % 256:08d}{prefix}-{i}".encode() for i in range(count)]


def _twin_tables(kind, stored, capacity=4096):
    """Two identical tables with tombstones: one probed in batch, one
    by scalar ``get`` calls."""
    tables = []
    for _ in range(2):
        table = LinearProbingTable(_hasher(kind), capacity=capacity)
        table.insert_batch(stored, list(range(len(stored))))
        for key in stored[::5]:
            table.delete(key)
        table.stats.clear()
        tables.append(table)
    return tables


def _probe_mix(rng, stored, missing, n):
    return [rng.choice(stored if i % 2 else missing) for i in range(n)]


def _assert_parity(got, table, twin, probes, default=None):
    assert got == [twin.get(k, default) for k in probes]
    for field in STAT_FIELDS:
        assert getattr(table.stats, field) == getattr(twin.stats, field), field


@pytest.mark.parametrize("kind", ["full", "colliding"])
@pytest.mark.parametrize("n", BOUNDARY_SIZES)
class TestRoundBoundaryParity:
    def test_probe_batch_matches_scalar_gets(self, kind, n):
        stored, missing = _keys("s", 2000), _keys("m", 2000)
        table, twin = _twin_tables(kind, stored)
        probes = _probe_mix(random.Random(n), stored, missing, n)
        got = table.probe_batch(probes)
        _assert_parity(got, table, twin, probes)

    def test_str_keys_and_default(self, kind, n):
        stored, missing = _keys("s", 2000), _keys("m", 2000)
        table, twin = _twin_tables(kind, stored)
        probes = [k.decode() for k in
                  _probe_mix(random.Random(n + 1), stored, missing, n)]
        got = table.probe_batch(probes, default=-1)
        assert -1 in got
        _assert_parity(got, table, twin, probes, default=-1)

    def test_probe_batch_hashed_matches_scalar_gets(self, kind, n):
        stored, missing = _keys("s", 2000), _keys("m", 2000)
        table, twin = _twin_tables(kind, stored)
        probes = _probe_mix(random.Random(n + 2), stored, missing, n)
        got = table.probe_batch_hashed(probes, table.engine.hash_batch(probes))
        _assert_parity(got, table, twin, probes)

    def test_chain_wraps_past_last_slot(self, kind, n):
        # Keys whose home is the last slot fill it and wrap to slot 0.
        probe_table = LinearProbingTable(_hasher(kind), capacity=64)
        last = probe_table.num_slots - 1
        candidates = _keys("w", 20_000)
        homes = probe_table.engine.hash_batch(candidates, probe_table._reducer)[0]
        wrapping = [k for k, h in zip(candidates, homes) if h == last]
        assert len(wrapping) >= 4
        stored, missing = wrapping[:3], wrapping[3:]
        table, twin = _twin_tables(kind, stored, capacity=64)
        probes = _probe_mix(random.Random(n + 4), stored, missing, n)
        got = table.probe_batch(probes)
        _assert_parity(got, table, twin, probes)
        assert table.stats.tag_checks > n  # the chains really walked on


def test_empty_batch_charges_nothing(full_hasher):
    table = LinearProbingTable(full_hasher)
    assert table.probe_batch([], default=-1) == []
    assert table.probe_batch_hashed([], []) == []
    assert all(getattr(table.stats, f) == 0 for f in STAT_FIELDS)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_pickled_table_still_probes(n):
    stored, missing = _keys("s", 2000), _keys("m", 2000)
    table, twin = _twin_tables("full", stored)
    clone = pickle.loads(pickle.dumps(table))
    assert isinstance(clone._tags, bytearray)
    probes = _probe_mix(random.Random(n + 5), stored, missing, n)
    got = clone.probe_batch(probes)
    _assert_parity(got, clone, twin, probes)
    clone.insert(missing[0], "new")
    assert clone.probe_batch([missing[0]]) == ["new"]
    assert table.get(missing[0]) is None
