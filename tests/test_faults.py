"""Tests for the fault-injection plane and the self-healing machinery.

The unit layers (spec parsing, plane scheduling, journal, breaker) are
tested in isolation; the end-to-end classes then formalize the recovery
drills: for every fault kind, a fixed-seed injection must end with zero
lost acknowledged writes and a healthy service.
"""

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.faults import (
    CORRUPTION_DISPLACEMENT,
    FaultPlan,
    FaultPlane,
    FaultSpec,
    make_plane,
)
from repro.service import (
    OK,
    CircuitBreaker,
    DeadlineExceededError,
    Request,
    Service,
    ServiceClient,
    ShardJournal,
    make_adapter,
)


def _hasher():
    return EntropyLearnedHasher.from_positions((0, 8))


def _service(**kwargs):
    defaults = dict(num_shards=3, backend="chaining", hasher=_hasher(),
                    capacity=512, max_queue=32, batch_size=8,
                    cooldown_pumps=4, probe_pumps=2)
    defaults.update(kwargs)
    return Service(**defaults)


class TestFaultSpec:
    def test_parse_minimal(self):
        spec = FaultSpec.parse("crash:worker:2")
        assert spec == FaultSpec(kind="crash", shard=2)

    def test_parse_options(self):
        spec = FaultSpec.parse("stall:worker:0:count=3:after=4:rate=0.5")
        assert (spec.count, spec.after, spec.rate) == (3, 4, 0.5)

    @pytest.mark.parametrize("text", [
        "crash",                      # no scope/shard
        "meteor:worker:0",            # unknown kind
        "crash:thread:0",             # unknown scope
        "crash:worker:x",             # non-integer shard
        "crash:worker:0:color=red",   # unknown option
        "crash:worker:0:after",       # option without '='
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "crash", "shard": -1},
        {"kind": "crash", "shard": 0, "after": -1},
        {"kind": "crash", "shard": 0, "count": 0},
        {"kind": "crash", "shard": 0, "rate": 0.0},
        {"kind": "crash", "shard": 0, "rate": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_dict_roundtrip(self):
        spec = FaultSpec(kind="drop", shard=1, after=2, count=3, rate=0.25)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_plan_roundtrip_and_queries(self):
        plan = FaultPlan.parse(["crash:worker:2", "corrupt:engine:0"])
        assert len(plan) == 2 and bool(plan)
        assert plan.kinds() == ["corrupt", "crash"]
        assert plan.targets("crash") == [2]
        assert FaultPlan.from_dicts(plan.to_dicts()).specs == plan.specs
        assert not FaultPlan([])


class TestFaultPlane:
    def test_after_then_count_schedule(self):
        plane = make_plane(["drop:worker:1:after=2:count=2"])
        fires = [plane.should_fire("drop", 1) for _ in range(6)]
        assert fires == [False, False, True, True, False, False]
        assert plane.total_fired("drop") == 2
        assert plane.pending("drop") == 0

    def test_other_shards_and_kinds_unaffected(self):
        plane = make_plane(["crash:worker:0"])
        assert not plane.should_fire("crash", 1)
        assert not plane.should_fire("drop", 0)
        assert plane.should_fire("crash", 0)

    def test_rate_is_deterministic_per_seed(self):
        def fires(seed):
            plane = make_plane(["drop:worker:0:count=100:rate=0.3"],
                               seed=seed)
            return [plane.should_fire("drop", 0) for _ in range(200)]

        assert fires(7) == fires(7)
        assert fires(7) != fires(8)
        assert 20 <= sum(fires(7)) <= 80  # the rate actually thins fires

    def test_arm_extends_a_live_plane(self):
        plane = FaultPlane(FaultPlan([]), seed=0)
        assert not plane.should_fire("stall", 0)
        plane.arm(FaultSpec(kind="stall", shard=0))
        assert plane.should_fire("stall", 0)

    def test_insert_signal_hook_amplifies_only_while_firing(self):
        plane = make_plane(["corrupt:engine:3:count=1"])
        hook = plane.insert_signal_hook(3)
        assert hook(2.0) == 2.0 + CORRUPTION_DISPLACEMENT
        assert hook(2.0) == 2.0  # spec exhausted

    def test_unknown_kind_rejected(self):
        plane = FaultPlane(FaultPlan([]))
        with pytest.raises(ValueError):
            plane.should_fire("meteor", 0)


class TestShardJournal:
    def _adapter(self):
        return make_adapter("chaining", capacity=256, hasher=_hasher())

    def test_replay_rebuilds_state(self):
        journal = ShardJournal(checkpoint_every=0)
        journal.record_put(b"a", b"1")
        journal.record_put(b"b", b"2")
        journal.record_put(b"a", b"3")  # overwrite
        journal.record_delete(b"b")
        adapter = self._adapter()
        assert journal.replay(adapter) == 4
        assert adapter.get_batch([b"a", b"b"]) == [b"3", None]

    def test_checkpoint_keeps_newest_write(self):
        journal = ShardJournal(checkpoint_every=4)
        for i in range(16):
            journal.record_put(b"k", b"v%d" % i)
        assert journal.truncations >= 1
        assert len(journal) < 16
        adapter = self._adapter()
        journal.replay(adapter)
        assert adapter.get_batch([b"k"]) == [b"v15"]

    def test_checkpoint_drops_deleted_keys(self):
        journal = ShardJournal(checkpoint_every=2)
        journal.record_put(b"dead", b"v")
        journal.record_delete(b"dead")
        journal.record_put(b"live", b"v")
        journal.checkpoint()
        adapter = self._adapter()
        journal.replay(adapter)
        assert adapter.contains_batch([b"dead", b"live"]) == [False, True]

    def test_multiset_checkpoint_preserves_counts(self):
        # Cuckoo filters support multiplicity: two adds need two deletes.
        journal = ShardJournal(checkpoint_every=0, multiset=True)
        journal.record_put(b"x", b"")
        journal.record_put(b"x", b"")
        journal.record_delete(b"x")
        journal.checkpoint()
        adapter = make_adapter("cuckoo_filter", capacity=64,
                               hasher=_hasher())
        journal.replay(adapter)
        assert adapter.contains_batch([b"x"]) == [True]
        adapter.delete_batch([b"x"])
        assert adapter.contains_batch([b"x"]) == [False]

    def test_zero_disables_checkpointing(self):
        journal = ShardJournal(checkpoint_every=0)
        for i in range(100):
            journal.record_put(b"k%d" % i, b"v")
        assert journal.truncations == 0 and len(journal) == 100

    def test_invalid_checkpoint_every(self):
        with pytest.raises(ValueError):
            ShardJournal(checkpoint_every=-1)


class TestCircuitBreaker:
    def test_full_lifecycle(self):
        breaker = CircuitBreaker(0, cooldown_pumps=4, probe_pumps=2)
        assert breaker.closed
        breaker.trip(pump_index=10)
        assert breaker.state == "open" and breaker.opens == 1
        assert breaker.tick(11) == "hold"
        assert breaker.tick(14) == "probe"
        assert breaker.state == "half_open"
        assert breaker.tick(15) == "hold"
        assert breaker.tick(16) == "close"
        assert breaker.closed and breaker.closes == 1

    def test_trip_while_open_is_noop(self):
        breaker = CircuitBreaker(0, cooldown_pumps=4, probe_pumps=2)
        breaker.trip(10)
        breaker.trip(11)
        assert breaker.opens == 1 and breaker.reopens == 0

    def test_retrip_during_probe_doubles_cooldown(self):
        breaker = CircuitBreaker(0, cooldown_pumps=4, probe_pumps=2,
                                 max_cooldown_pumps=8)
        breaker.trip(0)
        assert breaker.tick(4) == "probe"
        breaker.trip(5)  # dirty probe
        assert breaker.reopens == 1
        assert breaker.cooldown_pumps == 8
        assert breaker.tick(5 + 7) == "hold"  # longer quarantine now
        assert breaker.tick(5 + 8) == "probe"
        breaker.trip(14)
        assert breaker.cooldown_pumps == 8  # capped
        # A clean probe finally closes it and resets the cooldown.
        assert breaker.tick(22) == "probe"
        assert breaker.tick(24) == "close"
        assert breaker.cooldown_pumps == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0, cooldown_pumps=0)
        with pytest.raises(ValueError):
            CircuitBreaker(0, probe_pumps=0)


class TestRecoveryDrills:
    """End-to-end: one injected fault, zero lost acks, full heal."""

    def _load(self, client, n=120, prefix=b"k"):
        client.put_many((b"%s%04d" % (prefix, i), b"v%04d" % i)
                        for i in range(n))

    def _assert_healthy(self, service, client, n=120, prefix=b"k"):
        service.drain()
        for _ in range(40):  # heal window: cooldown + probe + slack
            service.pump()
        assert client.lost_acks == 0
        assert not any(w.crashed for w in service.workers)
        got = client.multi_get([b"%s%04d" % (prefix, i) for i in range(n)])
        assert all(v is not None for v in got)

    def test_crash_recovery(self):
        service = _service(
            fault_plane=make_plane(["crash:worker:1:count=2"]))
        client = ServiceClient(service)
        self._load(client)
        stats = service.stats()
        assert stats["faults"]["total_fired"] == 2
        assert stats["supervisor"]["restarts"] >= 2
        assert service.workers[1].restarts >= 2
        self._assert_healthy(service, client)

    def test_stall_detection_restarts_worker(self):
        service = _service(stall_threshold=2,
                           fault_plane=make_plane(["stall:worker:0:count=8"]))
        client = ServiceClient(service)
        self._load(client)
        assert service.supervisor.stalls_detected >= 1
        self._assert_healthy(service, client)

    def test_drop_recovery_reserves_batches(self):
        service = _service(stall_threshold=2,
                           fault_plane=make_plane(["drop:worker:2:count=2"]))
        client = ServiceClient(service)
        self._load(client)
        assert service.workers[2].drops == 2
        assert service.supervisor.reconciled_tickets > 0
        self._assert_healthy(service, client)

    def test_queue_loss_reconciliation(self):
        service = _service(
            fault_plane=make_plane(["queue_loss:router:0:count=4"]))
        client = ServiceClient(service)
        self._load(client)
        assert service.lost_slots == 4
        assert service.supervisor.reconciled_tickets >= 4
        self._assert_healthy(service, client)

    def test_queue_loss_preserves_write_order(self):
        # Regression: a lost ticket never entered the queue, so requests
        # admitted *after* it can already be waiting; recovery must merge
        # by admission order, not blindly requeue at the front, or the
        # older write wins.
        service = _service(num_shards=1, batch_size=4,
                           fault_plane=make_plane(
                               ["queue_loss:router:0:count=1"]))
        first = service.submit(Request("put", b"dup", b"old"))  # lost
        second = service.submit(Request("put", b"dup", b"new"))
        service.drain()
        assert first.response.status == OK
        assert second.response.status == OK
        ticket = service.submit(Request("get", b"dup"))
        service.drain()
        assert ticket.response.value == b"new"

    def test_corrupt_opens_only_target_breaker_then_heals(self):
        service = _service(
            fault_plane=make_plane(["corrupt:service:1:count=1"]))
        client = ServiceClient(service)
        self._load(client)
        assert service.breakers[1].opens == 1
        assert service.breakers[0].opens == 0
        assert service.breakers[2].opens == 0
        self._assert_healthy(service, client)
        assert service.breakers[1].closes == 1
        assert not service.workers[1].adapter.tripped

    def test_fault_stats_surface_in_service_stats(self):
        service = _service(fault_plane=make_plane(["crash:worker:0"]))
        client = ServiceClient(service)
        self._load(client, n=40)
        payload = service.stats()
        assert payload["faults"]["total_fired"] == 1
        assert payload["faults"]["specs"][0]["kind"] == "crash"


class TestClientDeadline:
    def test_deadline_gives_up_with_negative_ack(self):
        service = _service(num_shards=1)
        # A permanently dead worker: the ticket can never complete.
        service.workers[0].crashed = True
        service.supervisor._restart = lambda *a, **k: None
        client = ServiceClient(service, deadline_pumps=8)
        with pytest.raises(DeadlineExceededError):
            client.put(b"k", b"v")
        assert client.deadline_failures == 1
        # The put was accepted then explicitly failed: a negative ack,
        # not a silently lost one.
        assert client.puts_sent == 1
        assert client.lost_acks == 0
        # The ticket was cancelled out of the worker's queue.
        assert service.workers[0].queue_depth == 0

    def test_deadline_failure_is_not_resurrected(self):
        service = _service(num_shards=1)
        service.workers[0].crashed = True
        restart = service.supervisor._restart
        service.supervisor._restart = lambda *a, **k: None
        client = ServiceClient(service, deadline_pumps=4)
        with pytest.raises(DeadlineExceededError):
            client.put(b"gone", b"v")
        # Revive the worker; reconciliation must not answer the
        # cancelled ticket a second time or re-apply its write.
        service.supervisor._restart = restart
        service.workers[0].crashed = False
        service.drain()
        check = service.submit(Request("get", b"gone"))
        service.drain()
        assert check.response.ok and check.response.value is None
