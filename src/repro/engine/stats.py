"""Observability counters for the batched hash engine.

Every :class:`~repro.engine.engine.HashEngine` owns one
:class:`EngineStats`.  The counters answer the operational questions the
paper's cost model raises but per-structure wiring could never see in
one place: how many keys and key-bytes were actually hashed, how large
the batches were (vectorization only pays off past a few dozen keys),
how often compiled plans were reused, and whether the collision monitor
ever forced the full-key fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


def _bucket_label(n: int) -> str:
    if n <= 1:
        return "1"
    low = 1 << (n.bit_length() - 1)
    return f"{low}-{2 * low - 1}"


# Labels of the small batches the served path makes, built once.
_SMALL_BUCKETS = tuple(_bucket_label(n) for n in range(256))


def _batch_bucket(n: int) -> str:
    """Histogram bucket label for a batch of ``n`` keys (powers of two).

    >>> _batch_bucket(1), _batch_bucket(5), _batch_bucket(4096)
    ('1', '4-7', '4096-8191')
    """
    if n < 256:
        return _SMALL_BUCKETS[n]
    return _bucket_label(n)


@dataclass
class EngineStats:
    """Cumulative counters; cheap enough to update on every call.

    Attributes:
        keys_hashed: keys processed through batch *and* scalar paths.
        bytes_hashed: key bytes actually read (partial keys count only
            their selected words + length prefix — the paper's cost).
        batches: number of ``hash_batch`` calls.
        scalar_calls: number of ``hash_one`` calls (degenerate batches).
        plan_cache_hits / plan_cache_misses: compiled-plan reuse.
        fallback_events: times the monitor forced full-key rebuilding.
        short_key_fallbacks: keys too short for the partial-key fast
            path, hashed in full (Section 3's ~10% branch).
        batch_size_histogram: power-of-two bucket -> batch count.
    """

    keys_hashed: int = 0
    bytes_hashed: int = 0
    batches: int = 0
    scalar_calls: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    fallback_events: int = 0
    short_key_fallbacks: int = 0
    batch_size_histogram: Dict[str, int] = field(default_factory=dict)

    def observe_batch(self, num_keys: int) -> None:
        """Record one ``hash_batch`` call of ``num_keys`` keys."""
        self.batches += 1
        self.keys_hashed += num_keys
        histogram = self.batch_size_histogram
        bucket = _batch_bucket(num_keys)
        histogram[bucket] = histogram.get(bucket, 0) + 1

    def observe_scalar(self) -> None:
        """Record one single-key hash (the degenerate batch)."""
        self.scalar_calls += 1
        self.keys_hashed += 1

    @property
    def mean_batch_size(self) -> float:
        """Average keys per ``hash_batch`` call."""
        if self.batches == 0:
            return 0.0
        return (self.keys_hashed - self.scalar_calls) / self.batches

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy of every counter (the CLI surface)."""
        return {
            "keys_hashed": self.keys_hashed,
            "bytes_hashed": self.bytes_hashed,
            "batches": self.batches,
            "scalar_calls": self.scalar_calls,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "fallback_events": self.fallback_events,
            "short_key_fallbacks": self.short_key_fallbacks,
            "batch_size_histogram": dict(
                sorted(
                    self.batch_size_histogram.items(),
                    key=lambda kv: int(kv[0].split("-")[0]),
                )
            ),
        }

    def reset(self) -> None:
        """Zero every counter (benchmark epochs)."""
        self.keys_hashed = 0
        self.bytes_hashed = 0
        self.batches = 0
        self.scalar_calls = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.fallback_events = 0
        self.short_key_fallbacks = 0
        self.batch_size_histogram = {}
