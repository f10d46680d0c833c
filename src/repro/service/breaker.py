"""Per-shard circuit breakers over the partial-key fast path.

PR 4 gave the service one all-or-nothing degraded mode: any shard's
CollisionMonitor tripping pushed *every* shard to full-key hashing.
That throws away the entropy-learned win on healthy shards to protect
one unlucky one.  A :class:`CircuitBreaker` scopes the reaction to the
shard that actually misbehaved, and — unlike PR 4's one-way latch —
probes its way back:

* ``CLOSED``     — partial-key serving; a monitor trip opens the breaker.
* ``OPEN``       — the shard serves full-key (correct, slower) while a
  cooldown of ``cooldown_pumps`` service pumps elapses.
* ``HALF_OPEN``  — the shard is restored to partial-key hashing with a
  fresh monitor and watched for ``probe_pumps`` pumps.  A clean probe
  re-closes the breaker; a re-trip re-opens it with the cooldown
  doubled (capped), so a genuinely low-entropy shard backs off toward
  permanent full-key instead of flapping.

The breaker is clocked by service pumps, not wall time, which keeps the
whole lifecycle deterministic under the chaos fuzz target.
"""

from __future__ import annotations

from repro.metrics import Reported

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker(Reported):
    """Pump-clocked open/half-open/closed lifecycle for one shard."""

    REPORTS = ("shard", "state", "opens", "reopens", "closes",
               "cooldown_pumps")

    def __init__(
        self,
        shard: int,
        cooldown_pumps: int = 32,
        probe_pumps: int = 16,
        max_cooldown_pumps: int = 1024,
    ):
        if cooldown_pumps < 1:
            raise ValueError(f"cooldown_pumps must be >= 1, got {cooldown_pumps}")
        if probe_pumps < 1:
            raise ValueError(f"probe_pumps must be >= 1, got {probe_pumps}")
        self.shard = shard
        self.state = CLOSED
        self.base_cooldown = cooldown_pumps
        self.cooldown_pumps = cooldown_pumps
        self.probe_pumps = probe_pumps
        self.max_cooldown_pumps = max_cooldown_pumps
        self._deadline = 0  # pump index at which the current state expires
        self.opens = 0
        self.reopens = 0
        self.closes = 0

    # ----------------------------------------------------------- queries

    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    # ------------------------------------------------------- transitions

    def trip(self, pump_index: int) -> None:
        """A monitor trip (or injected corruption) opened the circuit."""
        if self.state == OPEN:
            return  # already open; the cooldown keeps counting
        if self.state == HALF_OPEN:
            # The probe failed: back off harder before the next attempt.
            self.reopens += 1
            self.cooldown_pumps = min(
                self.cooldown_pumps * 2, self.max_cooldown_pumps
            )
        else:
            self.opens += 1
        self.state = OPEN
        self._deadline = pump_index + self.cooldown_pumps

    def tick(self, pump_index: int) -> str:
        """Advance the pump clock; returns an action for the service.

        ``"probe"``  — cooldown elapsed: restore partial-key hashing and
        start watching.  ``"close"`` — the probe survived its window:
        re-close and reset the backoff.  ``"hold"`` — nothing to do.
        """
        if self.state == OPEN and pump_index >= self._deadline:
            self.state = HALF_OPEN
            self._deadline = pump_index + self.probe_pumps
            return "probe"
        if self.state == HALF_OPEN and pump_index >= self._deadline:
            self.state = CLOSED
            self.cooldown_pumps = self.base_cooldown
            self.closes += 1
            return "close"
        return "hold"

    def reset(self) -> None:
        """Force-close and clear the backoff (drift plan swap).

        A re-learn replaced the plan the breaker was guarding: its open
        state and doubled cooldown describe a hasher that no longer
        exists, so the swap path closes the circuit outright.  The
        lifetime open/close counters are kept — only the state and the
        backoff reset.
        """
        self.state = CLOSED
        self.cooldown_pumps = self.base_cooldown
        self._deadline = 0

    def __repr__(self) -> str:
        return (f"CircuitBreaker(shard={self.shard}, state={self.state!r}, "
                f"opens={self.opens}, reopens={self.reopens}, "
                f"closes={self.closes})")


__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]
