"""Unified batched hash engine (the pipeline behind every structure).

:class:`HashEngine` compiles cached :class:`~repro.engine.plan.HashPlan`
objects per (hasher, key-length-group), packs whole batches from one
join of their bytes into subkey or full-key rows, dispatches to the
bit-exact numpy kernels, and applies structure-specific
:class:`~repro.engine.reducers.Reducer` steps in the same vectorized
pass.  It also centralizes the collision-monitor fallback decision and
the observability counters (``engine.stats()``).
"""

from repro.engine.engine import HashEngine
from repro.engine.monitor import CollisionMonitor, MonitorVerdict
from repro.engine.plan import (
    HashPlan,
    compile_fixed_plan,
    compile_subkey_plan,
)
from repro.engine.reducers import (
    BlockMaskReducer,
    BloomSplitReducer,
    FastRangeReducer,
    FingerprintReducer,
    IndexRankReducer,
    MaskReducer,
    Reducer,
    SlotTagReducer,
)
from repro.engine.stats import EngineStats

__all__ = [
    "HashEngine",
    "HashPlan",
    "compile_fixed_plan",
    "compile_subkey_plan",
    "CollisionMonitor",
    "MonitorVerdict",
    "EngineStats",
    "Reducer",
    "MaskReducer",
    "SlotTagReducer",
    "FastRangeReducer",
    "BloomSplitReducer",
    "BlockMaskReducer",
    "FingerprintReducer",
    "IndexRankReducer",
]
