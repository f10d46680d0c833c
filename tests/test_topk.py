"""Tests for the sketch-based top-k heavy-hitter tracker."""

import random

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import train_model
from repro.datasets import hn_urls
from repro.operators.topk import TopK
from repro.sketches.countmin import CountMinSketch


@pytest.fixture
def xxh3():
    return EntropyLearnedHasher.full_key("xxh3")


def _zipf_stream(flows, length, seed=0):
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(flows))]
    stream = rng.choices(flows, weights=weights, k=length)
    truth = {}
    for item in stream:
        truth[item] = truth.get(item, 0) + 1
    return stream, truth


class TestBasics:
    def test_simple_ranking(self, xxh3):
        tracker = TopK(xxh3, k=3, width=512)
        for item, count in ((b"a", 50), (b"b", 30), (b"c", 10), (b"d", 2)):
            tracker.add(item, count)
        ranked = [key for key, _ in tracker.top()]
        assert ranked == [b"a", b"b", b"c"]

    def test_estimates_never_underestimate(self, xxh3):
        tracker = TopK(xxh3, k=5, width=512)
        tracker.add(b"x", 7)
        assert tracker.estimate(b"x") >= 7

    def test_top_k_smaller_query(self, xxh3):
        tracker = TopK(xxh3, k=5, width=256)
        for i in range(10):
            tracker.add(f"i{i}".encode(), i + 1)
        assert len(tracker.top(2)) == 2

    def test_total(self, xxh3):
        tracker = TopK(xxh3, k=2, width=64)
        tracker.add_batch([b"a", b"b", b"a"])
        assert tracker.total == 3

    def test_validation(self, xxh3):
        with pytest.raises(ValueError):
            TopK(xxh3, k=0)


class TestRecallOnSkewedStreams:
    def test_recovers_true_heavy_hitters(self, xxh3):
        flows = [f"flow-{i:04d}".encode() for i in range(2000)]
        stream, truth = _zipf_stream(flows, 30_000, seed=4)
        tracker = TopK(xxh3, k=20, width=4096, depth=4)
        tracker.add_batch(stream)
        true_top = set(sorted(truth, key=truth.get, reverse=True)[:10])
        tracked = {key for key, _ in tracker.top(20)}
        assert len(true_top & tracked) >= 8

    def test_elh_matches_full_key_recall(self):
        urls = hn_urls(1500, seed=6)
        model = train_model(urls[:700], fixed_dataset=True)
        elh = model.hasher_for_entropy(14.0)
        full = EntropyLearnedHasher.full_key("xxh3")
        stream, truth = _zipf_stream(urls, 20_000, seed=5)
        true_top = set(sorted(truth, key=truth.get, reverse=True)[:10])
        recalls = {}
        for label, hasher in (("full", full), ("elh", elh)):
            tracker = TopK(hasher, k=20, width=4096)
            tracker.add_batch(stream)
            tracked = {key for key, _ in tracker.top(20)}
            recalls[label] = len(true_top & tracked)
        assert recalls["elh"] >= recalls["full"] - 2


def _reference_top(hasher, stream, k, width, depth):
    """Top-k and sketch of the per-item ``add`` then ``estimate`` loop
    over each distinct item's count: two engine calls per item."""
    sketch = CountMinSketch(hasher, width=width, depth=depth)
    counted = {}
    for item in stream:
        counted[item] = counted.get(item, 0) + 1
    candidates = {}
    for item, count in counted.items():
        sketch.add(item, count)
        estimate = sketch.estimate(item)
        if item in candidates or len(candidates) < k:
            candidates[item] = estimate
        else:
            weakest = min(candidates, key=candidates.get)
            if estimate > candidates[weakest]:
                del candidates[weakest]
                candidates[item] = estimate
    return candidates, sketch


class TestOneHashPerItem:
    def test_add_batch_hashes_each_distinct_item_once(self, xxh3):
        flows = [f"flow-{i:04d}".encode() for i in range(2000)]
        stream, truth = _zipf_stream(flows, 30_000, seed=4)
        tracker = TopK(xxh3, k=20, width=4096, depth=4)
        tracker.add_batch(stream)
        counters = tracker.sketch.engine.counters
        assert counters.keys_hashed == len(truth)
        assert counters.scalar_calls == 0
        candidates, sketch = _reference_top(xxh3, stream, 20, 4096, 4)
        assert tracker.top() == sorted(candidates.items(),
                                       key=lambda kv: kv[1], reverse=True)
        assert tracker.total == sketch.total
        for item in flows[:300]:
            assert tracker.estimate(item) == sketch.estimate(item)

    def test_add_hashes_its_item_once(self, xxh3):
        tracker = TopK(xxh3, k=2, width=256)
        for item in [b"a"] * 5 + [b"b"] * 3 + [b"c"]:
            tracker.add(item)
        assert tracker.sketch.engine.counters.scalar_calls == 9
        assert tracker.top() == [(b"a", 5), (b"b", 3)]
        with pytest.raises(ValueError):
            tracker.add(b"a", -1)
