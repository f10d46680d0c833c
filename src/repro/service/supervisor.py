"""The supervisor: restart crashed workers, unstick stalled ones,
reconcile rows that fell out of the pipeline.

The supervisor runs at the *start* of every ``Service.pump`` — before
any worker serves — so a row recovered from a crash, a dropped
batch, or a lost queue slot is re-enqueued at the *front* of its shard
queue before any later-admitted operation on the same key can be
served.  That ordering is what keeps the admission-time oracle of the
differential harness (and the per-key FIFO contract of PR 4) sound
under faults.

Recovery sources of truth, in order:

* the per-shard :class:`~repro.service.journal.ShardJournal` — every
  acknowledged mutation, replayed into a fresh structure on restart;
* the worker's inflight registry — rows popped from the queue but
  never answered (crash or injected drop), or never queued (a lost
  slot), are requeued, in ``request_id`` order, ahead of everything
  still queued;
* pump-count heartbeats — a worker whose queue is non-empty but whose
  ``processed`` counter stagnates for ``stall_threshold`` consecutive
  service pumps is declared stalled and restarted the same way.

Since PR 7 the supervisor also owns the *adapt* pass — the resharding
state machine.  Every ``adapt_every`` pumps it runs observe → plan →
migrate → flip → drain: apply the router's planned hot-key promotions,
and (when ``auto_split`` is on) watch each shard's share of the routed
traffic over the last window; a shard that carries more than
``SPLIT_THRESHOLD`` times its fair share for two consecutive windows is
split via :meth:`Service.split_shard`.  Both reconfigurations run at
pump start, where the two-phase barrier guarantees nothing is in
flight — the freeze/drain steps of the split protocol hold by
construction, and the flip's queue sweep finishes the drain.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.metrics import Reported


class Supervisor(Reported):
    """Pump-clocked babysitter for a service's worker fleet."""

    REPORTS = ("crashes_seen", "stalls_detected", "restarts",
               "reconciled_tickets", "splits_triggered")

    # An overload must persist this many consecutive adapt windows
    # before a split fires: one hot window is noise, two is a regime.
    SPLIT_PATIENCE = 2
    # A shard carrying more than this multiple of its fair share of a
    # window's routed traffic is overloaded.
    SPLIT_THRESHOLD = 2.0
    # Ignore adapt windows with less than this many routed ops per
    # shard on average — too little signal to call anything overloaded.
    MIN_WINDOW_PER_SHARD = 8

    def __init__(self, service, stall_threshold: int = 3):
        if stall_threshold < 1:
            raise ValueError(
                f"stall_threshold must be >= 1, got {stall_threshold}"
            )
        self.service = service
        self.stall_threshold = stall_threshold
        # Per-shard state; a shard not seen yet (one a split just
        # added) reads zero.
        self._last_processed: Dict[int, int] = defaultdict(int)
        self._stagnant: Dict[int, int] = defaultdict(int)
        self._routed_snapshot: List[int] = []
        self._split_patience: Dict[int, int] = {}
        self.crashes_seen = 0
        self.stalls_detected = 0
        self.reconciled_tickets = 0
        self.splits_triggered = 0

    # ---------------------------------------------------------- lifecycle

    def note_crash(self, worker) -> None:
        """A worker raised mid-batch this pump; restart happens at the
        start of the next pump, before anything else is served."""
        self.crashes_seen += 1

    def observe(self, pump_index: int) -> None:
        """One supervision pass; runs before the workers pump."""
        for worker, breaker in zip(self.service.workers,
                                   self.service.breakers):
            shard = worker.shard_id
            if worker.crashed:
                self._restart(worker, breaker)
                continue
            # Tickets that left the queue but never got an answer
            # (dropped batch, lost queue slot) go back to the front.
            lost = worker.reconcile()
            if lost:
                self._requeue(lost)
            # Heartbeat: queued work + a frozen processed counter for
            # stall_threshold straight pumps means the worker is stuck.
            if worker.queue and worker.processed == self._last_processed[shard]:
                self._stagnant[shard] += 1
                if self._stagnant[shard] >= self.stall_threshold:
                    self.stalls_detected += 1
                    self._restart(worker, breaker)
            else:
                self._stagnant[shard] = 0
            self._last_processed[shard] = worker.processed

    def _restart(self, worker, breaker) -> None:
        """Fresh structure + journal replay + inflight reconciliation."""
        lost = worker.restart()
        if not breaker.closed:
            # The shard is still quarantined: the rebuilt structure must
            # serve full-key until the breaker's probe says otherwise.
            worker.fall_back()
        if lost:
            self._requeue(lost)
        shard = worker.shard_id
        self._stagnant[shard] = 0
        self._last_processed[shard] = worker.processed

    def _requeue(self, lost) -> None:
        """Return recovered row ranges to the front of the right queue.

        With versioned routing a flip may have moved their keys since
        admission, so the service re-routes each row through the
        *current* table first.  Without that, a recovered row for a
        migrated key would be served against the donor's
        post-migration state.
        """
        self.reconciled_tickets += sum(rows.stop - rows.start for rows in lost)
        self.service._requeue(lost)

    # ----------------------------------------------------------- adapting

    def adapt(self, pump_index: int) -> None:
        """The resharding state machine: plan → migrate → flip → drain.

        Runs every ``adapt_every`` pumps, between batches (nothing in
        flight).  Promotions pin the tracker's heavy hitters; when
        ``auto_split`` is on, a shard that carried more than
        ``SPLIT_THRESHOLD`` times its fair traffic share for
        ``SPLIT_PATIENCE`` consecutive windows donates half its key
        range to a freshly spawned shard.
        """
        service = self.service
        if pump_index % service.adapt_every != 0:
            return
        if service.relearner is not None:
            # Drift pass first: a swap rehashes between pumps, and any
            # promotion/split this window then sees the new plan.  The
            # relearner has its own flap guards (patience, min dwell,
            # no-op suppression), so calling it every window is cheap.
            service.relearner.pump(pump_index)
        assignments = service.router.plan_promotions()
        if assignments:
            # Pin the tracker's heavy hitters, migrating their acked
            # state first.
            service.reconfigure(service.router.table.with_overlay(assignments))
            service.router.promoted += len(assignments)
        if not service.auto_split or service.splits >= service.max_splits:
            return
        donor = self._overloaded_shard()
        if donor is None:
            self._split_patience.clear()
            return
        patience = self._split_patience.get(donor, 0) + 1
        self._split_patience = {donor: patience}
        if patience >= self.SPLIT_PATIENCE:
            self._split_patience.clear()
            service.split_shard(donor)
            self.splits_triggered += 1

    def _overloaded_shard(self) -> Optional[int]:
        """The shard beyond ``SPLIT_THRESHOLD``× fair share over the
        last adapt window (routed-traffic delta), if any."""
        routed = self.service.router.routed.tolist()
        n = len(routed)
        # A shard born since the last window counts from its split on.
        delta = list(routed)
        for i, count in enumerate(self._routed_snapshot):
            delta[i] -= count
        self._routed_snapshot = routed
        total = sum(delta)
        if total < self.MIN_WINDOW_PER_SHARD * n:
            return None
        donor = max(range(n), key=lambda i: delta[i])
        if delta[donor] > self.SPLIT_THRESHOLD * (total / n):
            return donor
        return None

    @property
    def restarts(self) -> int:
        """Worker restarts across the fleet."""
        return sum(w.restarts for w in self.service.workers)


__all__ = ["Supervisor"]
