"""Background re-learning with flap protection.

The :class:`Relearner` owns one :class:`~repro.drift.detector.DriftDetector`
per shard (created lazily from the service's deployed
:class:`~repro.service.adapters.AdapterSpec`), is fed served keys through
the workers' ``drift_tap``, and is pumped from the Supervisor's ``adapt``
pass.  When a detector trips it re-runs the offline trainer
(``core.greedy.choose_bytes`` via ``core.trainer.train_model``) on the
union of the per-shard reservoir samples and decides between three
outcomes, in the spirit of "When Are Learned Models Better Than Hash
Functions" (PAPERS.md) — a learned plan only wins when its certified
entropy still covers the structure's requirement:

* **no-op** — the re-learned deployed positions are byte-identical to
  the running plan's: nothing to swap, suppress (flap guard);
* **stay** — the fresh sample cannot certify the required entropy with
  any partial key: keep serving (likely full-key after the monitor
  tripped) rather than swap to a plan that would trip again;
* **swap** — push the new model through ``Service.relearn_swap`` (zero
  downtime: between pumps nothing is in flight).

Flap protection: ``min_dwell`` pumps must pass after any stay/swap
decision before another is allowed, and no-op swaps are suppressed
outright.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.entropy import entropy_confidence_lower_bound
from repro.core.partial_key import PartialKeyFunction
from repro.core.trainer import EntropyModel, train_model
from repro.drift.detector import DriftDetector
from repro.metrics import Reported

RELEARN_BACKENDS = ("chaining", "probing")


def required_entropy_for_spec(spec) -> float:
    """The entropy requirement the deployed structure sizes against.

    Mirrors the tables' actual fresh-build sizing — power-of-two slot
    rounding times the max load, never below the fleet's partitioning
    floor — rather than the raw spec capacity (``AdapterSpec.
    required_entropy``).  Certifying against the smaller raw number
    would approve plans the structure itself then refuses when it
    rounds its geometry up: the relearner swaps, every shard quietly
    deploys the full-key fallback, and the "recovered" service serves
    slower than before the drift.
    """
    if spec.backend not in RELEARN_BACKENDS:
        raise ValueError(
            f"relearn supports backends {RELEARN_BACKENDS}, "
            f"got {spec.backend!r}"
        )
    return spec.required_entropy()


def certified_model(
    model: EntropyModel, leading_constant: float
) -> EntropyModel:
    """``model`` with its frontier replaced by confidence lower bounds.

    Every prefix's point-estimate entropy becomes its Section 3
    99%-confidence lower bound over the evaluation sample.  Deploying
    *this* model makes every downstream ``min_words_for_entropy`` call
    (spec -> engine -> hasher) read as many words as it takes for the
    *certified* entropy to clear the requirement — a plan whose point
    estimate squeaks past the bar but whose bound does not is escalated
    to the next prefix instead of deployed on optimism.  The bound is
    monotone in the estimate, so the certified frontier stays sorted
    and the escalation is exactly "smallest certified prefix".
    """
    result = model.result
    entropies = [
        entropy_confidence_lower_bound(
            estimate, result.eval_size, leading_constant=leading_constant
        )
        for estimate in result.entropies
    ]
    return replace(model, result=replace(result, entropies=entropies))


def deployed_plan(
    model: EntropyModel, required: float
) -> Tuple[Optional[PartialKeyFunction], float]:
    """(partial_key, claimed_entropy) the model deploys at ``required``.

    ``(None, 0.0)`` when the model falls back to full-key hashing —
    there is no partial plan to watch or to compare against.
    """
    num_words = model.result.min_words_for_entropy(required)
    if num_words is None:
        return None, 0.0
    return model.result.partial_key(num_words), model.result.entropy_at(num_words)


# Leading constant of the paper's Section 3 confidence bound.  The
# paper's worst-case 400 needs ~400 * 2^(H/2) validation samples to
# certify H bits — far beyond a per-shard reservoir — and the paper
# itself notes it "looks conservative in practice" and exposes it as a
# parameter; 20 certifies ~10 bits from a few hundred recent keys while
# still refusing noise-level samples.
CONFIDENCE_CONSTANT = 20.0


class Relearner(Reported):
    """Detector fleet + re-train/swap decision loop for one Service."""

    REPORTS = ("window", "margin", "patience", "reservoir", "min_dwell",
               "min_sample", "swaps", "stay_decisions", "noop_suppressed",
               "dwell_suppressed", "insufficient_sample", "relearn_failures",
               "stale_excluded", "shards=_detectors_by_shard")

    def __init__(
        self,
        service,
        window: int = 256,
        margin: float = 2.0,
        patience: int = 2,
        reservoir: int = 256,
        min_fill: float = 0.5,
        min_dwell: int = 64,
        min_sample: int = 64,
        confidence_constant: float = CONFIDENCE_CONSTANT,
        seed: int = 0,
    ):
        if min_dwell < 0:
            raise ValueError(f"min_dwell must be >= 0, got {min_dwell}")
        if min_sample < 4:
            raise ValueError(f"min_sample must be >= 4, got {min_sample}")
        if confidence_constant <= 0:
            raise ValueError(
                f"confidence_constant must be > 0, got {confidence_constant}"
            )
        self.service = service
        self.window = int(window)
        self.margin = float(margin)
        self.patience = int(patience)
        self.reservoir = int(reservoir)
        self.min_fill = float(min_fill)
        self.min_dwell = int(min_dwell)
        self.min_sample = int(min_sample)
        self.confidence_constant = float(confidence_constant)
        self.seed = int(seed)
        self._detectors: Dict[int, DriftDetector] = {}
        self._last_decision_pump: Optional[int] = None
        # Per-shard reservoir.seen at the last evaluated sample: a shard
        # whose count has not advanced since then saw no traffic at all,
        # and its reservoir describes a stream that stopped flowing.
        self._seen_at_decision: Dict[int, int] = {}
        # Decision counters (all surfaced through stats()).
        self.swaps = 0
        self.stay_decisions = 0
        self.noop_suppressed = 0
        self.dwell_suppressed = 0
        self.insufficient_sample = 0
        self.relearn_failures = 0
        self.stale_excluded = 0

    # ----------------------------------------------------------- plan view

    def _spec(self):
        return self.service._spec

    def _current_plan(self) -> Tuple[Optional[PartialKeyFunction], float]:
        spec = self._spec()
        if spec.model is None:
            return None, 0.0
        return deployed_plan(spec.model, required_entropy_for_spec(spec))

    def _detector_for(self, shard_id: int) -> Optional[DriftDetector]:
        detector = self._detectors.get(shard_id)
        if detector is not None:
            return detector
        partial_key, claimed = self._current_plan()
        if partial_key is None:
            return None
        detector = DriftDetector(
            partial_key=partial_key,
            claimed_entropy=claimed,
            window=self.window,
            margin=self.margin,
            patience=self.patience,
            reservoir=self.reservoir,
            min_fill=self.min_fill,
            seed=self.seed + shard_id,
        )
        self._detectors[shard_id] = detector
        return detector

    # --------------------------------------------------------------- stream

    def observe(self, shard_id: int, keys: Iterable[bytes]) -> None:
        """``drift_tap`` entry point: acked keys from one shard's segment."""
        detector = self._detector_for(shard_id)
        if detector is None:
            return
        for key in keys:
            detector.observe(key)

    # ------------------------------------------------------------ decisions

    def _union_sample(self) -> List[bytes]:
        """Pooled re-train sample from the *live* shards only.

        A drifted stream often concentrates: when the deployed bytes go
        low-entropy, every drifted key hashes alike and lands on one
        shard.  The idle shards' reservoirs still hold pre-drift keys —
        each the byte-for-byte twin of some drifted key over every
        in-range position — and pooling them caps the retrained entropy
        below certification forever.  A reservoir that observed nothing
        since the previous decision is therefore excluded: re-learning
        follows the stream that is actually flowing.
        """
        sample: List[bytes] = []
        for shard_id in sorted(self._detectors):
            reservoir = self._detectors[shard_id].reservoir
            snapshot = self._seen_at_decision.get(shard_id)
            if snapshot is not None and reservoir.seen <= snapshot:
                self.stale_excluded += 1
                continue
            sample.extend(reservoir.sample())
        # Distinct keys only: Algorithm R over a cycling served stream
        # parks the same key in several slots, and those duplicate
        # pairs read as collisions at every byte position.  Lemma 1
        # prices collisions over *distinct* stored keys, so duplicates
        # would crush both the re-trained entropy estimate and the
        # confidence bound's sample count for no informational gain.
        return list(dict.fromkeys(sample))

    def _snapshot_seen(self) -> None:
        for shard_id, detector in self._detectors.items():
            self._seen_at_decision[shard_id] = detector.reservoir.seen

    def _calm_all(self) -> None:
        for detector in self._detectors.values():
            detector.calm()

    def _rearm_all(self) -> None:
        partial_key, claimed = self._current_plan()
        if partial_key is None:
            self._detectors.clear()
            return
        for detector in self._detectors.values():
            detector.rearm(partial_key, claimed)

    def pump(self, pump_index: int) -> Optional[str]:
        """One decision step; returns the decision taken (or ``None``).

        Called from the Supervisor's ``adapt`` pass, i.e. between pumps:
        the two-phase barrier guarantees nothing is in flight, which is
        what makes the swap zero-downtime.
        """
        tripped = [
            shard_id
            for shard_id, detector in self._detectors.items()
            if detector.check()
        ]
        if not tripped:
            return None
        if (
            self._last_decision_pump is not None
            and pump_index - self._last_decision_pump < self.min_dwell
        ):
            self.dwell_suppressed += 1
            self._calm_all()
            return "dwell"
        sample = self._union_sample()
        self._snapshot_seen()
        if len(sample) < self.min_sample:
            self.insufficient_sample += 1
            self._calm_all()
            return "insufficient_sample"
        spec = self._spec()
        old_model = spec.model
        try:
            new_model = train_model(
                sample,
                base=old_model.base,
                word_size=old_model.result.word_size,
                fixed_dataset=True,
                seed=spec.seed,
            )
        except ValueError:
            self.relearn_failures += 1
            self._calm_all()
            return "relearn_failed"
        required = required_entropy_for_spec(spec)
        # What actually ships is the certified frontier: the swapped
        # plan reads the smallest prefix whose confidence lower bound —
        # not point estimate — clears the requirement, and the next
        # detector's claimed entropy is that finite, defensible bound.
        deploy_model = certified_model(new_model, self.confidence_constant)
        old_plan, _ = deployed_plan(old_model, required)
        new_plan, _ = deployed_plan(deploy_model, required)
        if (
            old_plan is not None
            and new_plan is not None
            and list(new_plan.positions) == list(old_plan.positions)
            and new_plan.word_size == old_plan.word_size
        ):
            # No-op swap suppression: identical deployed positions mean
            # the distribution still supports the running plan; swapping
            # would pay a full rehash for nothing (flap guard).
            self.noop_suppressed += 1
            self._calm_all()
            return "noop"
        if new_plan is None:
            # Stay: the drifted stream cannot certify a partial-key plan
            # for this structure size; the monitor's full-key fallback is
            # the correct steady state ("learned models only when they
            # beat the hash function").
            self.stay_decisions += 1
            self._last_decision_pump = pump_index
            self._calm_all()
            return "stay"
        self.service.relearn_swap(deploy_model)
        self.swaps += 1
        self._last_decision_pump = pump_index
        self._rearm_all()
        return "swap"

    # ----------------------------------------------------------------- misc

    def _detectors_by_shard(self) -> Dict[int, DriftDetector]:
        return dict(sorted(self._detectors.items()))
