"""Online heavy-hitter detection for the routing plane.

A :class:`HotKeyTracker` watches the key stream the router sees and
keeps a small candidate set of *heavy hitters*: keys whose estimated
frequency exceeds ``phi`` of the total stream (and an absolute
``min_count`` floor, so a cold start never promotes noise).  Counting
is a :class:`~repro.sketches.countmin.CountMinSketch` — O(width*depth)
memory regardless of key cardinality, never underestimates — and the
candidate dictionary caps the exact-key state at a few multiples of
``k``, the classic sketch-plus-heap heavy-hitter recipe.

The tracker hashes nothing: the router hands it each routed key with
the fleet hash it already computed (``observe(keys, hashes)``), and
each candidate keeps the hash it was counted under, so neither a flush
nor ``top()`` calls an engine.  Observed keys buffer until
``flush_every`` and then take a *single* sketch pass — ``add_hashed``
hands back the post-add estimates — however the router's calls chunk
the stream.  Detection quality is therefore delayed by at most one
buffer, which the recall tests (zipf theta 0.8/0.99) account for.  For
latency-critical deployments ``sample`` observes only every Nth routed
key (positions are counted deterministically across calls): a key
carrying ``phi`` of the stream carries ``phi`` of any stride of it, so
heavy hitters survive sampling while the tracker's counting bill drops
by N.

Uniform streams must yield *no* heavy hitters: every key's true share
sits far below ``phi``, and the Count-Min overestimate is bounded by
``e/width * total``, so ``phi`` only needs to clear that error mass —
the default pairing (phi=0.005, width=2048) leaves ~4x headroom.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import iter_ints
from repro.core.hasher import EntropyLearnedHasher
from repro.metrics import Reported
from repro.sketches.countmin import CountMinSketch

# The stream share that makes a key a heavy hitter (see above).
HOT_PHI = 0.005


class HotKeyTracker(Reported):
    """Count-Min-backed top-k heavy-hitter tracker over a key stream."""

    REPORTS = ("k", "phi", "total_observed=_total_observed", "sample",
               "candidates=candidates.__len__", "threshold", "flushes",
               "sketch_width=sketch.width", "sketch_depth=sketch.depth")

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        k: int = 16,
        width: int = 2048,
        depth: int = 4,
        phi: float = HOT_PHI,
        min_count: int = 16,
        flush_every: int = 64,
        sample: int = 1,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.k = k
        self.phi = phi
        self.min_count = min_count
        self.flush_every = max(1, flush_every)
        self.sample = sample
        self._position = 0  # stream position, counted across observe calls
        # On the plan the observed hashes come from, so the sketch's
        # keyed ``estimate`` reads the counters a flush wrote.
        self.sketch = CountMinSketch(hasher, width=width, depth=depth)
        self._keys: List[bytes] = []
        self._hashes: List[int] = []
        # key -> (last estimate, the hash it was counted under), the
        # estimate refreshed on every flush that sees the key; bounded
        # at a few multiples of k by _prune.
        self.candidates: Dict[bytes, Tuple[int, int]] = {}
        self.flushes = 0
        # Set when a flush changed the candidate set; the router's adapt
        # pass clears it, so idle pumps never rescan candidates.
        self.dirty = False

    # ---------------------------------------------------------- observing

    def observe(self, keys: Sequence[bytes], hashes: Sequence[int]) -> None:
        """Feed routed keys and their fleet hashes into the stream
        (buffered, batch-flushed)."""
        sample = self.sample
        if sample > 1:
            position = self._position
            self._position = position + len(keys)
            start = -position % sample
            keys = keys[start::sample]
            if not keys:
                return
            hashes = hashes[start::sample]
        self._keys.extend(keys)
        self._hashes.extend(iter_ints(hashes))
        if len(self._keys) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Drain the buffer into the sketch and refresh candidates.

        One sketch pass over the buffered hashes and no engine call:
        ``add_hashed`` returns the post-add estimate at every buffered
        position, and duplicates of a key all carry the same (final)
        estimate, so scoring the distinct keys is a dict fold.
        """
        if not self._keys:
            return
        estimates = self.sketch.add_hashed(self._hashes,
                                           return_estimates=True)
        # First-insertion order of the dict is first-seen order in the
        # buffer, deterministically; re-assignment rewrites the same
        # value, since every occurrence reads the same final counter.
        scored: Dict[bytes, Tuple[int, int]] = dict(
            zip(self._keys, zip(estimates.tolist(), self._hashes))
        )
        self._keys.clear()
        self._hashes.clear()
        threshold = self.threshold()
        for key, entry in scored.items():
            if entry[0] >= threshold:
                if key not in self.candidates:
                    self.dirty = True
                self.candidates[key] = entry
            elif key in self.candidates:
                self.candidates[key] = entry
        self.flushes += 1
        self._prune()

    def _prune(self) -> None:
        """Keep the candidate dict at a few multiples of k: drop keys
        whose refreshed estimate fell back under the threshold, then the
        coldest surplus beyond 4k."""
        threshold = self.threshold()
        cold = [k for k, (est, _) in self.candidates.items()
                if est < threshold]
        for key in cold:
            del self.candidates[key]
        cap = 4 * self.k
        if len(self.candidates) > cap:
            ranked = sorted(
                self.candidates.items(), key=lambda kv: -kv[1][0]
            )[:cap]
            self.candidates = dict(ranked)

    # ----------------------------------------------------------- querying

    def threshold(self) -> int:
        """A key is heavy when its estimate clears phi of the stream
        (and the absolute cold-start floor)."""
        return max(self.min_count, int(self.phi * self.sketch.total))

    def top(self, k: Optional[int] = None) -> List[Tuple[bytes, int]]:
        """The k highest-estimate candidates, re-scored against the
        current sketch through the hashes they were counted under
        (descending estimate, key bytes as tiebreak for determinism)."""
        self.flush()
        if not self.candidates:
            return []
        estimates = self.sketch.estimate_hashed(
            [h for _, h in self.candidates.values()]
        )
        ranked = sorted(
            zip(self.candidates, estimates.tolist()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return ranked[: self.k if k is None else k]

    def hot_keys(self) -> List[Tuple[bytes, int]]:
        """The promotion set: top-k candidates still above threshold."""
        threshold = self.threshold()
        return [(k, est) for k, est in self.top() if est >= threshold]

    def _total_observed(self) -> int:
        return self.sketch.total + len(self._keys)

    def __repr__(self) -> str:
        return (f"HotKeyTracker(k={self.k}, phi={self.phi}, "
                f"candidates={len(self.candidates)}, "
                f"observed={self.sketch.total})")


__all__ = ["HotKeyTracker"]
