"""Per-shard drift detection with hysteresis.

A :class:`DriftDetector` watches one shard's key stream through the
deployed plan's own partial-key function ``L``: every observed key feeds
(a) a :class:`~repro.drift.window.SlidingWindowEntropy` over ``L``'s
subkeys, and (b) a :class:`~repro.drift.reservoir.ReservoirSample` of
the raw keys for a possible re-train.  The window's plug-in Rényi-2
estimate is the same quantity the insert-time CollisionMonitor's
displacement signal estimates (Lemma 1 relates both to ``2^-H2``), but
measured parent-side so it works identically for the inline and process
execution backends.

Hysteresis, both directions:

* a breach requires the window estimate to fall *strictly below*
  ``claimed - margin`` — sitting exactly on the boundary never trips;
* a trip requires ``patience`` *consecutive* breached checks — one
  healthy check resets the count, so a transient collision burst can't
  force a re-learn.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Set

from repro._util import Key, as_bytes
from repro.core.partial_key import PartialKeyFunction
from repro.drift.reservoir import ReservoirSample
from repro.drift.window import SlidingWindowEntropy
from repro.metrics import Reported


class DriftDetector(Reported):
    """Sliding-window entropy watchdog for one shard's deployed plan."""

    REPORTS = ("claimed_entropy", "margin", "patience", "breaches", "checks",
               "trips", "duplicates_skipped", "window", "reservoir")

    def __init__(
        self,
        partial_key: PartialKeyFunction,
        claimed_entropy: float,
        window: int = 256,
        margin: float = 2.0,
        patience: int = 2,
        reservoir: int = 256,
        min_fill: float = 0.5,
        seed: int = 0,
    ):
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if not 0.0 < min_fill <= 1.0:
            raise ValueError(f"min_fill must be in (0, 1], got {min_fill}")
        self.partial_key = partial_key
        self.claimed_entropy = float(claimed_entropy)
        self.margin = float(margin)
        self.patience = int(patience)
        self.min_fill = float(min_fill)
        self.window = SlidingWindowEntropy(window=window)
        self.reservoir = ReservoirSample(capacity=reservoir, seed=seed)
        # Sliding set of the distinct raw keys currently in the window,
        # kept in lockstep with the entropy ring (see observe()).
        self._raw_ring: Deque[bytes] = deque()
        self._raw_seen: Set[bytes] = set()
        self.duplicates_skipped = 0
        self.breaches = 0
        self.checks = 0
        self.trips = 0

    # ---------------------------------------------------------------- stream

    def observe(self, key: Key) -> None:
        """Feed one served key into the window and the reservoir.

        Repeats of a raw key already in the window are skipped: Lemma 1
        prices collisions over the stored key *set*, so a zipf-hot read
        stream hammering one key is not evidence of entropy loss — only
        *distinct* keys that agree on the plan's bytes are.  The raw
        ring advances in lockstep with the entropy window, so a hot key
        re-enters once its last occurrence ages out.
        """
        raw = as_bytes(key)
        if raw in self._raw_seen:
            self.duplicates_skipped += 1
            return
        self._raw_ring.append(raw)
        self._raw_seen.add(raw)
        self.window.add(self.partial_key.subkey(raw))
        if len(self._raw_ring) > self.window.window:
            gone = self._raw_ring.popleft()
            self._raw_seen.discard(gone)
        self.reservoir.add(raw)

    # ------------------------------------------------------------- decisions

    def check(self) -> bool:
        """One hysteresis step; True when the detector trips.

        Requires the window to be at least ``min_fill`` full — a nearly
        empty window's estimate is all variance.  The boundary is
        exclusive: an estimate of exactly ``claimed - margin`` is *not*
        a breach (satellite: hysteresis boundary cases).
        """
        fill = self.window.fill
        if fill < self.min_fill * self.window.window:
            return False
        self.checks += 1
        # A window of n keys can observe at most log2(C(n, 2)) bits (the
        # zero-collision estimate), so a plan whose claimed entropy
        # exceeds that ceiling — an all-distinct training set claims
        # +inf — is held to the ceiling instead: a collision-free window
        # is evidence *for* the claim, never a breach of it.
        claim = min(
            self.claimed_entropy, math.log2(fill * (fill - 1) / 2)
        )
        if self.window.entropy() < claim - self.margin:
            self.breaches += 1
        else:
            self.breaches = 0
        if self.breaches >= self.patience:
            self.trips += 1
            self.breaches = 0
            return True
        return False

    def calm(self) -> None:
        """Reset the breach streak (after a stay / suppressed decision)."""
        self.breaches = 0

    def rearm(
        self,
        partial_key: PartialKeyFunction,
        claimed_entropy: float,
    ) -> None:
        """Point the detector at a freshly swapped plan.

        The window is cleared (its subkeys were computed under the old
        ``L``); the reservoir is kept — recent raw keys stay
        representative regardless of which plan hashes them.
        """
        self.partial_key = partial_key
        self.claimed_entropy = float(claimed_entropy)
        self.window.reset()
        self._raw_ring.clear()
        self._raw_seen.clear()
        self.breaches = 0
