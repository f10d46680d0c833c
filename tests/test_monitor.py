"""Tests for the collision monitor (robustness infrastructure)."""

import math

import pytest

from repro.engine import CollisionMonitor, MonitorVerdict


class TestRecording:
    def test_accumulates(self):
        monitor = CollisionMonitor(entropy=20.0, num_slots=1024)
        monitor.record_insert(2)
        monitor.record_insert(0)
        assert monitor.inserts == 2
        assert monitor.observed_collisions == 2

    def test_rejects_negative(self):
        monitor = CollisionMonitor(entropy=20.0, num_slots=1024)
        with pytest.raises(ValueError):
            monitor.record_insert(-1)

    def test_reset(self):
        monitor = CollisionMonitor(entropy=20.0, num_slots=1024)
        monitor.record_insert(5)
        monitor.reset()
        assert monitor.inserts == 0 and monitor.observed_collisions == 0


class TestExpectedSignal:
    def test_infinite_entropy_only_structural_baseline(self):
        monitor = CollisionMonitor(entropy=math.inf, num_slots=100)
        for _ in range(100):
            monitor.record_insert(0)  # default chaining baseline n/m
        expected = sum(i / 100 for i in range(100))
        assert monitor.expected_signal() == pytest.approx(expected)

    def test_finite_entropy_adds_collision_mass(self):
        low = CollisionMonitor(entropy=30.0, num_slots=100)
        high = CollisionMonitor(entropy=5.0, num_slots=100)
        low.inserts = high.inserts = 100
        assert high.expected_signal() > low.expected_signal()

    def test_explicit_baseline_accumulates(self):
        monitor = CollisionMonitor(entropy=math.inf, num_slots=8)
        monitor.record_insert(3, expected=2.5)
        monitor.record_insert(1, expected=0.5)
        assert monitor.baseline_total == pytest.approx(3.0)
        assert monitor.expected_signal() == pytest.approx(3.0)


class TestVerdicts:
    def test_healthy_below_min_inserts(self):
        monitor = CollisionMonitor(entropy=10.0, num_slots=64, min_inserts=100)
        for _ in range(50):
            monitor.record_insert(10)  # terrible signal, but too early
        assert monitor.verdict() is MonitorVerdict.HEALTHY

    def test_healthy_on_expected_signal(self):
        monitor = CollisionMonitor(entropy=math.inf, num_slots=1024, min_inserts=10)
        for _ in range(500):
            monitor.record_insert(0)
        assert monitor.verdict() is MonitorVerdict.HEALTHY
        assert not monitor.should_fall_back()

    def test_fall_back_on_pathological_signal(self):
        monitor = CollisionMonitor(entropy=30.0, num_slots=10**6, min_inserts=64)
        for i in range(300):
            monitor.record_insert(i)  # every insert walks the whole chain
        assert monitor.verdict() is MonitorVerdict.FALL_BACK
        assert monitor.should_fall_back()

    def test_degraded_zone_between(self):
        monitor = CollisionMonitor(
            entropy=math.inf, num_slots=1000, min_inserts=10, tolerance=1.0
        )
        monitor.inserts = 200
        threshold = monitor.expected_signal() + 8.0
        monitor.observed_collisions = int(threshold * 1.5)
        assert monitor.verdict() is MonitorVerdict.DEGRADED

    def test_grace_allows_small_absolute_noise(self):
        """A handful of collisions must never trigger fallback even when
        the expectation is nearly zero."""
        monitor = CollisionMonitor(entropy=math.inf, num_slots=2**30, min_inserts=10)
        monitor.inserts = 100
        monitor.observed_collisions = 5
        assert monitor.verdict() is MonitorVerdict.HEALTHY


class TestResetLifecycle:
    """reset() powers the circuit breaker's half-open probe: the monitor
    must come back with a clean slate, and must be able to trip again."""

    def _tripped_monitor(self):
        monitor = CollisionMonitor(entropy=30.0, num_slots=10**6,
                                   min_inserts=16)
        for i in range(200):
            monitor.record_insert(i)
        assert monitor.should_fall_back()
        return monitor

    def test_reset_clears_verdict(self):
        monitor = self._tripped_monitor()
        monitor.reset()
        assert monitor.inserts == 0
        assert monitor.observed_collisions == 0
        assert monitor.baseline_total == 0
        assert monitor.verdict() is MonitorVerdict.HEALTHY
        assert not monitor.should_fall_back()

    def test_retrip_after_reset(self):
        monitor = self._tripped_monitor()
        monitor.reset()
        # Healthy traffic after the reset stays healthy...
        for _ in range(100):
            monitor.record_insert(0)
        assert monitor.verdict() is MonitorVerdict.HEALTHY
        # ...and a second pathological burst trips it again: the monitor
        # keeps no memory that makes it blind (or trigger-happy) after
        # a probe.
        for i in range(300):
            monitor.record_insert(i)
        assert monitor.verdict() is MonitorVerdict.FALL_BACK
        assert monitor.should_fall_back()

    def test_engine_rearm_resets_monitor_and_latch(self):
        """HashEngine.rearm undoes a fallback: partial-key plans return,
        the fell_back latch clears, and the monitor starts fresh."""
        from repro.core.hasher import EntropyLearnedHasher
        from repro.engine import HashEngine

        pristine = EntropyLearnedHasher.from_positions((0, 8))
        engine = HashEngine(
            pristine,
            monitor=CollisionMonitor(entropy=30.0, num_slots=10**6,
                                     min_inserts=1),
        )
        assert engine.record_insert(1e9, expected=0.0, n=4096)
        assert engine.fell_back
        assert engine.hasher.partial_key.is_full_key
        engine.rearm(pristine)
        assert not engine.fell_back
        assert not engine.hasher.partial_key.is_full_key
        assert engine.monitor.inserts == 0
        # ...and it can trip again after the rearm.
        assert engine.record_insert(1e9, expected=0.0, n=4096)
        assert engine.fell_back
