"""Tests for Count-Min and HyperLogLog sketches on ELH hashers."""

import math
import random
import statistics
from collections import Counter

import numpy as np
import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.engine import FastRangeReducer, HashEngine
from repro.service import Service
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hyperloglog import HyperLogLog
from repro.workloads.ycsb import WorkloadGenerator


@pytest.fixture
def full_hasher():
    return EntropyLearnedHasher.full_key("xxh3")


class TestCountMin:
    def test_never_underestimates(self, full_hasher):
        sketch = CountMinSketch(full_hasher, width=256, depth=4)
        rng = random.Random(1)
        truth = {}
        for _ in range(2000):
            key = f"item-{rng.randrange(100)}".encode()
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_error_within_classic_bound(self, full_hasher):
        sketch = CountMinSketch(full_hasher, width=512, depth=4)
        rng = random.Random(2)
        truth = {}
        for _ in range(5000):
            key = f"item-{rng.randrange(500)}".encode()
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        bound = sketch.error_bound()
        violations = sum(
            1 for k, c in truth.items() if sketch.estimate(k) - c > bound
        )
        assert violations <= len(truth) * 0.05

    def test_weighted_add(self, full_hasher):
        sketch = CountMinSketch(full_hasher, width=64, depth=3)
        sketch.add(b"k", count=10)
        assert sketch.estimate(b"k") >= 10
        assert sketch.total == 10

    def test_add_batch_equals_scalar_adds(self, full_hasher, url_corpus):
        a = CountMinSketch(full_hasher, width=128, depth=3)
        b = CountMinSketch(full_hasher, width=128, depth=3)
        a.add_batch(url_corpus[:200])
        for k in url_corpus[:200]:
            b.add(k)
        assert (a._counts == b._counts).all()

    def test_rejects_negative_count(self, full_hasher):
        sketch = CountMinSketch(full_hasher, width=8, depth=2)
        with pytest.raises(ValueError):
            sketch.add(b"k", count=-1)

    def test_validation(self, full_hasher):
        with pytest.raises(ValueError):
            CountMinSketch(full_hasher, width=0, depth=1)

    def test_partial_key_collisions_merge_counts(self):
        """Keys equal on L's bytes are the same item to the sketch —
        the documented ELH trade-off."""
        hasher = EntropyLearnedHasher.from_positions([0], word_size=8)
        sketch = CountMinSketch(hasher, width=1024, depth=4)
        sketch.add(b"SHAREDWD-first-key", count=5)
        assert sketch.estimate(b"SHAREDWD-other-kex") >= 5  # same len+word


class TestDerivedRows:
    """Rows derived from one hash count as well as seeded rows.

    Over 16 plan seeds, each with its own zipf-0.99 stream over 3,000
    URLs, the mean overcount of the 16 most frequent keys must stay
    within 3 standard errors of a reference sketch whose rows hash
    with independently seeded passes.  Rows that read overlapping bit
    windows collide together and fail it (mean about 1.2 against 0.4).
    """

    KEYS = google_urls(3000, seed=5)
    WIDTH, DEPTH, TOP, DRAWS = 2048, 4, 16, 20_000

    @pytest.fixture(scope="class")
    def plan(self):
        model = train_model(self.KEYS, fixed_dataset=True)
        with Service(num_shards=4, backend="probing", model=model,
                     capacity=len(self.KEYS)) as service:
            return service.router.engine.hasher

    def _independent_estimates(self, hasher, stream, top):
        engine = HashEngine(hasher)
        reducer = FastRangeReducer(self.WIDTH)
        best = None
        for row in range(self.DEPTH):
            seed = hasher.seed + row + 1
            counts = np.zeros(self.WIDTH, dtype=np.int64)
            np.add.at(counts, engine.hash_batch(stream, reducer, seed=seed), 1)
            values = counts[engine.hash_batch(top, reducer, seed=seed)]
            best = values if best is None else np.minimum(best, values)
        return best

    def test_overcount_matches_independent_rows(self, plan):
        derived, independent = [], []
        for seed in range(16):
            hasher = plan.with_seed(seed)
            generator = WorkloadGenerator(self.KEYS, mix="C", seed=seed,
                                          zipf_theta=0.99)
            stream = [op.key for op in generator.operations(self.DRAWS)]
            truth = Counter(stream).most_common(self.TOP)
            top = [key for key, _ in truth]
            true = np.array([count for _, count in truth])
            sketch = CountMinSketch(hasher, self.WIDTH, self.DEPTH)
            sketch.add_batch(stream)
            derived.append(float(np.mean(sketch.estimate_batch(top) - true)))
            reference = self._independent_estimates(hasher, stream, top)
            independent.append(float(np.mean(reference - true)))
        error = statistics.stdev(independent) / math.sqrt(len(independent))
        assert statistics.mean(derived) <= (
            statistics.mean(independent) + 3 * error
        ), (derived, independent)

    def test_one_engine_call_per_batch(self, plan):
        sketch = CountMinSketch(plan, self.WIDTH, depth=8)
        sketch.add_batch(self.KEYS[:500])
        sketch.estimate_batch(self.KEYS[:100])
        assert sketch.engine.counters.batches == 2
        assert sketch.engine.counters.keys_hashed == 600


class TestHyperLogLog:
    def test_estimate_accuracy(self, full_hasher):
        hll = HyperLogLog(full_hasher, precision=12)
        keys = [f"user-{i}".encode() for i in range(50_000)]
        hll.add_batch(keys)
        error = abs(hll.estimate() - 50_000) / 50_000
        assert error < 3 * hll.standard_error()

    def test_small_range_linear_counting(self, full_hasher):
        hll = HyperLogLog(full_hasher, precision=10)
        for i in range(100):
            hll.add(f"k{i}".encode())
        assert abs(hll.estimate() - 100) < 15

    def test_duplicates_not_double_counted(self, full_hasher):
        hll = HyperLogLog(full_hasher, precision=10)
        for _ in range(10):
            hll.add_batch([f"k{i}".encode() for i in range(500)])
        assert abs(hll.estimate() - 500) < 75

    def test_scalar_batch_equivalence(self, full_hasher, url_corpus):
        a = HyperLogLog(full_hasher, precision=8)
        b = HyperLogLog(full_hasher, precision=8)
        a.add_batch(url_corpus[:300])
        for k in url_corpus[:300]:
            b.add(k)
        assert (a._registers == b._registers).all()

    def test_merge(self, full_hasher):
        a = HyperLogLog(full_hasher, precision=10)
        b = HyperLogLog(full_hasher, precision=10)
        a.add_batch([f"a{i}".encode() for i in range(1000)])
        b.add_batch([f"b{i}".encode() for i in range(1000)])
        a.merge(b)
        assert abs(a.estimate() - 2000) / 2000 < 0.15

    def test_merge_rejects_mismatched_precision(self, full_hasher):
        with pytest.raises(ValueError):
            HyperLogLog(full_hasher, 10).merge(HyperLogLog(full_hasher, 11))

    def test_precision_validation(self, full_hasher):
        with pytest.raises(ValueError):
            HyperLogLog(full_hasher, precision=3)

    def test_partial_key_undercount_bounded(self, google_corpus):
        """With enough entropy the ELH sketch matches the full-key one."""
        from repro.core.trainer import train_model

        model = train_model(google_corpus, fixed_dataset=True)
        hasher = model.hasher_for_entropy(20.0)
        full = EntropyLearnedHasher.full_key("xxh3")
        a = HyperLogLog(hasher, precision=10)
        b = HyperLogLog(full, precision=10)
        a.add_batch(google_corpus)
        b.add_batch(google_corpus)
        assert abs(a.estimate() - b.estimate()) / b.estimate() < 0.1


class TestHyperLogLogRankSaturation:
    def test_rank_saturates_never_zero_on_crafted_hashes(self):
        """Hashes whose suffix is all ones (or all zeros) sit exactly on
        the float64 precision cliff: >53 significant bits used to round
        up through log2 and produce rank 0.  Rank must stay in
        [1, 64 - p + 1] for every 64-bit input."""
        import numpy as np

        from repro.engine import IndexRankReducer

        for precision in (4, 10, 14):
            reducer = IndexRankReducer(precision)
            max_rank = 64 - precision + 1
            crafted = [0, (1 << 64) - 1]
            for k in range(1, 64):
                crafted.append((1 << k) - 1)          # all-ones suffix
                crafted.append(1 << k)                # single bit
                crafted.append((0xAB << 56) | ((1 << k) - 1))
            batch_idx, batch_rank = reducer.apply(
                np.array(crafted, dtype=np.uint64)
            )
            for h, index, rank in zip(crafted, batch_idx, batch_rank):
                one_idx, one_rank = reducer.apply_one(h)
                assert (int(index), int(rank)) == (one_idx, one_rank), hex(h)
                assert 1 <= int(rank) <= max_rank, hex(h)

    def test_all_zero_suffix_hits_saturation_rank(self):
        from repro.engine import IndexRankReducer

        precision = 10
        reducer = IndexRankReducer(precision)
        _, rank = reducer.apply_one(0)
        assert rank == 64 - precision + 1


class TestHyperLogLogEstimateRegimes:
    def test_linear_counting_regime_small_cardinality(self, full_hasher):
        """Below ~2.5m the estimator switches to linear counting; small
        true cardinalities must come back near-exact."""
        for n in (1, 5, 60):
            sketch = HyperLogLog(full_hasher, precision=12)
            keys = [f"lin-{n}-{i}".encode() for i in range(n)]
            sketch.add_batch(keys)
            estimate = sketch.estimate()
            assert abs(estimate - n) <= max(2.0, 0.1 * n), (n, estimate)

    def test_large_range_cardinality_within_standard_error(self, full_hasher):
        n = 200_000
        sketch = HyperLogLog(full_hasher, precision=12)
        sketch.add_batch([f"big-{i}".encode() for i in range(n)])
        estimate = sketch.estimate()
        tolerance = 5 * sketch.standard_error() * n
        assert abs(estimate - n) <= tolerance, estimate

    def test_batch_and_scalar_registers_identical(self, full_hasher):
        import numpy as np

        twin = EntropyLearnedHasher.full_key("xxh3")
        batch = HyperLogLog(full_hasher, precision=11)
        scalar = HyperLogLog(twin, precision=11)
        keys = [f"par-{i}".encode() for i in range(5000)]
        batch.add_batch(keys)
        for key in keys:
            scalar.add(key)
        assert np.array_equal(batch._registers, scalar._registers)
        assert batch.estimate() == scalar.estimate()
