"""Shard routing: a thin facade over the versioned routing plane.

A :class:`ShardRouter` used to *be* the route — one learned-hash engine
pass, pinned forever.  Since PR 7 it is the observation shell around a
:class:`~repro.service.routing.RoutingTable` (generation-stamped base
route + hot-key overlay + split map) and an optional
:class:`~repro.service.hotkeys.HotKeyTracker`: the facade counts routed
traffic per shard, checks the paper's relative-balance bound (eq. 11
plus sampling noise), feeds the tracker, and notifies an armed fault
plane — while every actual key→shard decision is delegated to the
table.

The *base* hasher is still pinned for the lifetime of the service, even
in degraded mode: its hash stream anchors both the fastrange base
placement and the split sub-routing, so swapping it would scatter every
key.  What changed is that the table can now *refine* the base route —
pin a heavy hitter to a chosen shard, or split a hot shard's range —
behind a generation flip that migrates acked state first.

The router's hash is the fleet's only hash of a key: the service builds
the router from the plan its shard tables plan (``AdapterSpec.
fleet_hasher``), and every routed key's raw hash rides its run's hash
column into the shard, whose table probes and inserts from it (the bit
budget that keeps the uses apart is in :mod:`repro.service.routing`).
The hot-key tracker counts the same hashes, so routing a key hashes it
once for every per-key consumer.

Fault-plane observation is one ``note_routes`` call per routed batch.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.hasher import EntropyLearnedHasher
from repro.engine import HashEngine
from repro.metrics import Reported
from repro.partitioning.stats import relative_balance_bound, relative_std

from repro.service.hotkeys import HotKeyTracker
from repro.service.routing import Column, RoutingTable

# Relative tolerance of the balance bound ``balance()`` checks against:
# the paper's 5% rule for partitioning.
BALANCE_TOLERANCE = 0.05


class ShardRouter(Reported):
    """Assign keys to shards via the routing table; track the balance."""

    REPORTS = ("*table", "promoted", "tracker?")

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        num_shards: int,
        hot_k: int = 0,
        hot_sample: int = 1,
    ):
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.table = RoutingTable(HashEngine(hasher), num_shards)
        self.routed = np.zeros(num_shards, dtype=np.int64)
        self.tracker: Optional[HotKeyTracker] = (
            HotKeyTracker(hasher, k=hot_k, sample=hot_sample)
            if hot_k > 0 else None
        )
        self.promoted = 0
        # Observation point for the fault plane: the plane never alters
        # a routing decision (that would orphan acknowledged writes), it
        # only watches which shards the faults it fires can reach.
        self.fault_plane = None

    @classmethod
    def from_model(
        cls,
        model,
        num_shards: int,
        expected_items: int,
        seed: int = 0,
        hot_k: int = 0,
        hot_sample: int = 1,
    ) -> "ShardRouter":
        """A standalone router over the model's partitioning hasher
        (relative mode).  A :class:`~repro.service.Service` instead
        routes with its fleet plan, which its shard tables share."""
        hasher = model.hasher_for_partitioning(
            max(expected_items, 1), num_shards, mode="relative", seed=seed,
        )
        return cls(hasher, num_shards, hot_k=hot_k, hot_sample=hot_sample)

    @property
    def engine(self) -> HashEngine:
        """The live table's engine: a flip swaps both at once."""
        return self.table.engine

    @property
    def num_shards(self) -> int:
        return self.table.num_shards

    @property
    def generation(self) -> int:
        return self.table.generation

    def route_batch(self, keys: Sequence[bytes]) -> Tuple[Column, Column]:
        """Shard id and raw fleet hash per key: one compiled engine pass
        over the batch.  Lists below the table's per-key crossover,
        int64 and uint64 columns from it up (``route_hashed``)."""
        if not keys:
            return [], []
        shards, hashes = self.table.route_hashed(keys)
        if len(shards) == 1:
            # One key: a scalar add beats bincount's fixed cost.
            self.routed[shards[0]] += 1
        else:
            self.routed += np.bincount(shards, minlength=self.num_shards)
        if self.tracker is not None:
            self.tracker.observe(keys, hashes)
        if self.fault_plane is not None:
            self.fault_plane.note_routes(shards)
        return shards, hashes

    def route_one(self, key: bytes) -> Tuple[int, int]:
        """Shard id and raw fleet hash of one key: a one-key batch."""
        shards, hashes = self.route_batch((key,))
        return shards[0], hashes[0]

    # ----------------------------------------------------- reconfiguration

    def install(self, candidate: RoutingTable) -> None:
        """Flip to a candidate table (the caller migrated state first).

        Generations are monotonic: installing a stale candidate (built
        from a table older than the live one) is a programming error.
        A candidate whose hasher fingerprint differs re-hashes every
        key, so a fresh tracker counts its plan's hashes: no estimate
        mixes two plans.
        """
        if candidate.generation <= self.table.generation:
            raise ValueError(
                f"candidate generation {candidate.generation} is not "
                f"newer than live generation {self.table.generation}"
            )
        if (self.tracker is not None and candidate.engine.hasher.fingerprint
                != self.engine.hasher.fingerprint):
            self.tracker = HotKeyTracker(candidate.engine.hasher,
                                         k=self.tracker.k,
                                         sample=self.tracker.sample)
        if candidate.num_shards > len(self.routed):
            grown = np.zeros(candidate.num_shards, dtype=np.int64)
            grown[: len(self.routed)] = self.routed
            self.routed = grown
        self.table = candidate

    def plan_promotions(self) -> Dict[bytes, int]:
        """Hot keys worth pinning, greedily assigned to shards.

        Returns ``{key: target_shard}`` for tracked heavy hitters not
        yet in the overlay.  Assignment is longest-processing-time
        greedy: hottest key first, each onto the shard with the lowest
        projected load (cumulative routed traffic plus the estimates
        already assigned this round) — the placement that pulls the
        balance metric back toward the bound.
        """
        if self.tracker is None or not self.tracker.dirty:
            return {}
        self.tracker.dirty = False
        fresh = [
            (key, estimate)
            for key, estimate in self.tracker.hot_keys()
            if key not in self.table.overlay
        ]
        if not fresh:
            return {}
        projected = self.routed.astype(np.float64).copy()
        assignments: Dict[bytes, int] = {}
        # Sketch estimates count sampled occurrences; scale back to the
        # routed-traffic unit so the projection compares like with like.
        scale = float(self.tracker.sample)
        for key, estimate in fresh:  # hot_keys is sorted hottest-first
            target = int(np.argmin(projected))
            assignments[key] = target
            projected[target] += estimate * scale
        return assignments

    # ------------------------------------------------------------ balance

    def balance_of(self, keys: Sequence[bytes]) -> Dict[str, object]:
        """Balance report for a specific key set (e.g. the distinct keys
        a service stores), without touching the cumulative counters —
        the data-placement check, as opposed to the traffic check."""
        counts = np.zeros(self.num_shards, dtype=np.int64)
        if keys:
            shards = self.table.route_batch(list(keys))
            counts += np.bincount(shards, minlength=self.num_shards)
        return self._report(counts)

    def balance(self) -> Dict[str, object]:
        """Observed routing skew against the relative-balance bound."""
        return self._report(self.routed)

    def _report(self, counts: np.ndarray) -> Dict[str, object]:
        total = int(counts.sum())
        observed = relative_std(counts)
        bound = relative_balance_bound(
            total, self.num_shards, tolerance=BALANCE_TOLERANCE
        )
        return {
            "total_routed": total,
            "per_shard": [int(c) for c in counts],
            "relative_std": observed,
            "bound": bound if bound != float("inf") else None,
            "within_bound": total == 0 or observed <= bound,
        }

    def __repr__(self) -> str:
        return (f"ShardRouter(num_shards={self.num_shards}, "
                f"generation={self.generation}, "
                f"routed={int(self.routed.sum())})")


__all__ = ["ShardRouter"]
