"""Heavy-hitter detection quality: Count-Min recall under skew.

The PR 7 routing plane only works if the tracker actually finds the
keys that matter: these tests feed seeded zipfian streams through
:class:`HotKeyTracker` and require >= 0.9 recall of the empirical
top-k at both stock-YCSB skew (theta 0.99) and milder skew (theta
0.8), plus the converse — a uniform stream must produce *no* heavy
hitters at all, because every key's share sits far below phi and the
sketch overestimate is bounded by ``e/width * total``.  The tracker
counts the hashes its caller hands it, as the router hands it the fleet
hashes; here they come from an engine over the tracker's own plan.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine
from repro.service.hotkeys import HotKeyTracker
from repro.sketches.countmin import CountMinSketch
from repro.workloads.ycsb import WorkloadGenerator

TOP_K = 10
STREAM_LEN = 20_000


@pytest.fixture
def hasher():
    return EntropyLearnedHasher.full_key("xxh3")


def _zipf_stream(theta, n_keys=512, n_ops=STREAM_LEN, seed=7):
    """A seeded zipfian key stream via the YCSB generator (mix C is
    100% reads, so the op stream *is* the key stream)."""
    keys = [b"hh-key-%04d" % i for i in range(n_keys)]
    generator = WorkloadGenerator(keys, mix="C", seed=seed, zipf_theta=theta)
    return [op.key for op in generator.operations(n_ops)]


def _observe(tracker, keys):
    """Observe keys with their hashes under the tracker's plan, as the
    router observes each routed batch with its fleet hashes."""
    engine = HashEngine(tracker.sketch.engine.hasher)
    tracker.observe(keys, engine.hash_batch(keys).tolist())


def _observe_chunked(tracker, stream, chunk=64):
    # Chunked like the router feeds it, so buffering/flush is exercised.
    for lo in range(0, len(stream), chunk):
        _observe(tracker, stream[lo:lo + chunk])


def _recall(tracker, stream, k=TOP_K):
    true_top = {key for key, _ in Counter(stream).most_common(k)}
    found = {key for key, _ in tracker.top(k)}
    return len(true_top & found) / k


class TestHeavyHitterRecall:
    @pytest.mark.parametrize("theta", [0.8, 0.99])
    def test_topk_recall_on_zipf_stream(self, hasher, theta):
        tracker = HotKeyTracker(hasher, k=TOP_K)
        stream = _zipf_stream(theta)
        _observe_chunked(tracker, stream)
        assert _recall(tracker, stream) >= 0.9

    def test_recall_across_seeds(self, hasher):
        # Not a lucky stream: three different seeds at the stock skew.
        for seed in (11, 23, 42):
            tracker = HotKeyTracker(hasher, k=TOP_K)
            stream = _zipf_stream(0.99, seed=seed)
            _observe_chunked(tracker, stream)
            assert _recall(tracker, stream) >= 0.9, f"seed {seed}"

    def test_hot_keys_clear_threshold(self, hasher):
        tracker = HotKeyTracker(hasher, k=TOP_K)
        _observe_chunked(tracker, _zipf_stream(0.99))
        hot = tracker.hot_keys()
        assert hot, "theta 0.99 must surface heavy hitters"
        threshold = tracker.threshold()
        for _, estimate in hot:
            assert estimate >= threshold
        # Sorted hottest-first, deterministically.
        assert [e for _, e in hot] == sorted(
            (e for _, e in hot), reverse=True
        )

    def test_no_false_heavy_hitters_on_uniform_stream(self, hasher):
        # 1024 distinct keys over 20k ops: every key carries ~0.1% of
        # the stream, far under phi=0.5%, and the sketch's bounded
        # overestimate cannot push any of them over the threshold.
        tracker = HotKeyTracker(hasher, k=TOP_K)
        stream = _zipf_stream(0.0, n_keys=1024)
        _observe_chunked(tracker, stream)
        assert tracker.hot_keys() == []

    def test_uniform_then_skew_adapts(self, hasher):
        # A stream that turns skewed mid-way must still surface the
        # late heavy hitter (no false negatives from the cold phase).
        tracker = HotKeyTracker(hasher, k=TOP_K)
        _observe_chunked(tracker, _zipf_stream(0.0, n_keys=1024, n_ops=5_000))
        assert tracker.hot_keys() == []
        hot_burst = [b"hh-key-0003"] * 2_000
        _observe_chunked(tracker, hot_burst)
        assert b"hh-key-0003" in {key for key, _ in tracker.hot_keys()}


class TestSampling:
    def test_sampled_tracker_still_finds_heavy_hitters(self, hasher):
        tracker = HotKeyTracker(hasher, k=TOP_K, sample=4)
        stream = _zipf_stream(0.99)
        _observe_chunked(tracker, stream)
        assert _recall(tracker, stream) >= 0.8
        # The sketch only saw ~1/4 of the stream.
        observed = tracker.sketch.total
        assert abs(observed - len(stream) / 4) <= len(stream) / 16

    def test_sampling_is_deterministic_across_chunkings(self, hasher):
        stream = _zipf_stream(0.99, n_ops=4_000)
        a = HotKeyTracker(hasher, k=TOP_K, sample=4)
        b = HotKeyTracker(hasher, k=TOP_K, sample=4)
        _observe_chunked(a, stream, chunk=64)
        _observe_chunked(b, stream, chunk=97)  # ragged chunks
        a.flush()
        b.flush()
        assert a.sketch.total == b.sketch.total
        assert a.top(TOP_K) == b.top(TOP_K)

    def test_scalar_observe_matches_batched(self, hasher):
        # A one-key route observes as observe([key], [hash]).
        stream = _zipf_stream(0.99, n_ops=2_000)
        batched = HotKeyTracker(hasher, k=TOP_K, sample=2)
        scalar = HotKeyTracker(hasher, k=TOP_K, sample=2)
        _observe_chunked(batched, stream)
        for key in stream:
            _observe(scalar, [key])
        batched.flush()
        scalar.flush()
        assert batched.sketch.total == scalar.sketch.total
        assert batched.top(TOP_K) == scalar.top(TOP_K)

    def test_sample_validation(self, hasher):
        with pytest.raises(ValueError):
            HotKeyTracker(hasher, sample=0)


class TestSketchBatchParity:
    def test_estimate_batch_matches_scalar(self, hasher):
        sketch = CountMinSketch(hasher, width=256, depth=4)
        stream = _zipf_stream(0.99, n_keys=128, n_ops=3_000)
        sketch.add_batch(stream)
        distinct = list(dict.fromkeys(stream))
        batch = sketch.estimate_batch(distinct)
        for key, estimate in zip(distinct, batch):
            assert int(estimate) == sketch.estimate(key)

    def test_add_batch_post_add_estimates(self, hasher):
        # The single-pass flush contract: estimates returned by
        # add_batch equal estimate() queried afterwards, including for
        # duplicated keys within the batch.
        sketch = CountMinSketch(hasher, width=256, depth=4)
        batch = [b"dup", b"x", b"dup", b"y", b"dup"]
        estimates = sketch.add_batch(batch, return_estimates=True)
        for key, estimate in zip(batch, estimates):
            assert int(estimate) == sketch.estimate(key)
        assert sketch.total == len(batch)

    def test_add_batch_empty(self, hasher):
        sketch = CountMinSketch(hasher, width=64, depth=2)
        assert sketch.add_batch([]) is None
        empty = sketch.add_batch([], return_estimates=True)
        assert isinstance(empty, np.ndarray) and empty.size == 0


class TestTrackerBookkeeping:
    def test_dirty_set_on_new_candidate_only(self, hasher):
        tracker = HotKeyTracker(hasher, k=4, min_count=8, flush_every=8)
        _observe(tracker, [b"hot"] * 8)
        assert tracker.dirty
        tracker.dirty = False
        _observe(tracker, [b"hot"] * 8)  # refresh, not a new candidate
        assert not tracker.dirty

    def test_candidate_cap(self, hasher):
        tracker = HotKeyTracker(hasher, k=2, min_count=1, phi=1e-6)
        for i in range(512):
            _observe(tracker, [b"cap-%03d" % i] * 2)
        tracker.flush()
        assert len(tracker.candidates) <= 4 * tracker.k

    def test_stats_shape(self, hasher):
        tracker = HotKeyTracker(hasher, k=4, sample=2)
        _observe(tracker, [b"s"] * 10)
        stats = tracker.stats()
        assert stats["sample"] == 2
        assert stats["k"] == 4
        assert stats["total_observed"] >= 5
