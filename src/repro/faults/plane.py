"""The fault plane: seeded, deterministic fault firing + bookkeeping.

A :class:`FaultPlane` owns a :class:`~repro.faults.plan.FaultPlan` and a
seeded RNG.  Injection points (``Worker.dispatch`` in
``service/worker.py``; ``Service.submit_batch`` and the once-per-pump
``corrupt`` point in ``service/service.py``; for ``drift``, whoever
owns the key stream) ask :meth:`FaultPlane.should_fire` whether the
armed fault of a given kind fires *now* for a given shard.  Every call
is an *opportunity*; a spec skips its first ``after`` opportunities,
then fires up to ``count`` times, each with probability ``rate`` drawn
from the plane's RNG — so the same plan + seed + op stream produces the
same faults, every run (that is what makes the chaos fuzz target
shrinkable).

The plane never heals anything.  It only breaks things and counts what
it broke (``stats()``); the healing side — supervisor, journals,
circuit breakers, client deadlines — lives in :mod:`repro.service` and
must win *without* peeking at the plane's internal state.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro._util import iter_ints
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.metrics import Reported, str_keys


class InjectedFault(RuntimeError):
    """Base class for exceptions raised by armed injection points."""


class InjectedCrash(InjectedFault):
    """A worker crashed mid-batch (injected)."""


class _SpecState:
    """Mutable firing state for one spec."""

    __slots__ = ("spec", "opportunities", "fires")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.opportunities = 0
        self.fires = 0

    @property
    def exhausted(self) -> bool:
        return self.fires >= self.spec.count


class FaultPlane(Reported):
    """Deterministic fault firing engine over a declarative plan."""

    REPORTS = ("seed", "specs=plan.to_dicts", "fired=_fired_by_shard",
               "total_fired", "pending", "routed=_routed_by_shard")

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self._states = [_SpecState(spec) for spec in plan.specs]
        # kind -> shard -> count, for stats and assertions.
        self.fired: Dict[str, Dict[int, int]] = {k: {} for k in FAULT_KINDS}
        self.routed: Dict[int, int] = {}

    # ------------------------------------------------------------- firing

    def should_fire(self, kind: str, shard: int) -> bool:
        """One opportunity for (kind, shard); True when a spec fires."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        for state in self._states:
            spec = state.spec
            if spec.kind != kind or spec.shard != shard or state.exhausted:
                continue
            state.opportunities += 1
            if state.opportunities <= spec.after:
                continue
            if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                continue
            state.fires += 1
            shard_counts = self.fired[kind]
            shard_counts[shard] = shard_counts.get(shard, 0) + 1
            return True
        return False

    def arm(self, spec: FaultSpec) -> None:
        """Add one spec to a live plane (the chaos harness's ``inject``
        op uses this, so a shrinking run can delete faults one by one)."""
        self.plan.specs.append(spec)
        self._states.append(_SpecState(spec))

    def pending(self, kind: Optional[str] = None) -> int:
        """Fires still owed by un-exhausted specs (optionally one kind)."""
        return sum(
            state.spec.count - state.fires
            for state in self._states
            if kind is None or state.spec.kind == kind
        )

    # ---------------------------------------------- router-level hook

    def note_routes(self, shards: Sequence[int]) -> None:
        """Routing observation point (threaded through ShardRouter): one
        call per routed batch, with the shard of each of its keys."""
        for shard, count in Counter(iter_ints(shards)).items():
            self.routed[shard] = self.routed.get(shard, 0) + count

    # -------------------------------------------------------------- stats

    def total_fired(self, kind: Optional[str] = None) -> int:
        kinds = [kind] if kind is not None else list(self.fired)
        return sum(sum(self.fired[k].values()) for k in kinds)

    def _fired_by_shard(self) -> Dict[str, Dict[str, int]]:
        return {kind: str_keys(counts)
                for kind, counts in self.fired.items() if counts}

    def _routed_by_shard(self) -> Dict[str, int]:
        return str_keys(self.routed)

    def __repr__(self) -> str:
        return (f"FaultPlane(specs={len(self.plan)}, seed={self.seed}, "
                f"fired={self.total_fired()}, pending={self.pending()})")


def make_plane(
    specs: List[object], seed: int = 0
) -> FaultPlane:
    """Build a plane from CLI strings, dicts, or FaultSpec objects."""
    parsed: List[FaultSpec] = []
    for spec in specs:
        if isinstance(spec, FaultSpec):
            parsed.append(spec)
        elif isinstance(spec, str):
            parsed.append(FaultSpec.parse(spec))
        elif isinstance(spec, dict):
            parsed.append(FaultSpec.from_dict(spec))
        else:
            raise TypeError(f"cannot build a FaultSpec from {spec!r}")
    return FaultPlane(FaultPlan(parsed), seed=seed)


__all__ = [
    "FaultPlane",
    "InjectedCrash",
    "InjectedFault",
    "make_plane",
]
