"""Observability counters for the batched hash engine.

Every :class:`~repro.engine.engine.HashEngine` owns one
:class:`EngineStats`.  The counters answer the operational questions the
paper's cost model raises but per-structure wiring could never see in
one place: how many keys and key-bytes were actually hashed, how large
the batches were (vectorization only pays off past a few dozen keys),
how often compiled plans were reused, and whether the collision monitor
ever forced the full-key fallback.  ``HashEngine.stats()`` reports them
inline through their declared names (see :mod:`repro.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics import Histogram, Reported, bucket as _batch_bucket, ratio


@dataclass
class EngineStats(Reported):
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

    REPORTS = ("keys_hashed", "bytes_hashed", "batches", "scalar_calls",
               "mean_batch_size", "plan_cache_hits", "plan_cache_misses",
               "fallback_events", "short_key_fallbacks",
               "batch_size_histogram")

    keys_hashed: int = 0
    bytes_hashed: int = 0
    batches: int = 0
    scalar_calls: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    fallback_events: int = 0
    short_key_fallbacks: int = 0
    batch_size_histogram: Histogram = field(default_factory=Histogram)

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
        """Average keys per ``hash_batch`` call, to two decimals."""
        return round(ratio(self.keys_hashed - self.scalar_calls,
                           self.batches), 2)
