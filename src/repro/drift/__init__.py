"""`repro.drift` — online entropy re-learning under distribution drift.

Entropy-Learned Hashing bets that byte positions learned once keep their
entropy forever.  A drifting key distribution silently breaks that bet:
partial-key collisions climb until the CollisionMonitor trips to
full-key hashing — correct, but permanently slow.  This package closes
the loop back to partial-key speed:

* :class:`SlidingWindowEntropy` — O(1)/key exact collision-pair
  tracking over a window of subkeys, yielding a streaming Rényi-2
  estimate (the range-Rényi-entropy-query estimator, windowed);
* :class:`ReservoirSample` — epoch-reset Algorithm R so a re-train
  always sees *recent* keys;
* :class:`DriftDetector` — per-shard hysteresis watchdog (margin below
  the claimed entropy, ``patience`` consecutive breaches);
* :class:`Relearner` — detector fleet + re-train + relearn-vs-stay
  decision, wired into the Supervisor's ``adapt`` pass with flap
  protection (min-dwell pumps, no-op swap suppression);
* :func:`drift_key` — the injective entropy-collapsing key rewrite used
  by the ``drift`` fault kind, workloads, fuzzing, and benchmarks.

The swap itself is ``Service.relearn_swap``: a new
:class:`~repro.core.trainer.EntropyModel` pushed through
``engine.rearm`` on every shard of either execution backend, with a
journal checkpoint after each rehash; a hash carried under the old
plan's fingerprint is recomputed on use.
"""

from repro.drift.detector import DriftDetector
from repro.drift.keys import DRIFT_FILL, DRIFT_SEPARATOR, drift_key
from repro.drift.relearner import (
    RELEARN_BACKENDS,
    Relearner,
    deployed_plan,
    required_entropy_for_spec,
)
from repro.drift.reservoir import ReservoirSample
from repro.drift.window import SlidingWindowEntropy

__all__ = [
    "DRIFT_FILL",
    "DRIFT_SEPARATOR",
    "DriftDetector",
    "RELEARN_BACKENDS",
    "Relearner",
    "ReservoirSample",
    "SlidingWindowEntropy",
    "deployed_plan",
    "drift_key",
    "required_entropy_for_spec",
]
