"""Tests for the sharded serving layer (repro.service)."""

import json
import math
from contextlib import contextmanager

import pytest

from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.service import (
    BACKENDS,
    FAILED,
    OK,
    REJECTED,
    DeadlineExceededError,
    FrontDoorThread,
    NetworkClient,
    Request,
    Response,
    Service,
    ServiceClient,
    ServiceOverloadedError,
    ShardRouter,
    Ticket,
    Worker,
    make_adapter,
    run_service_workload,
)
from repro.service.client import BACKOFF_CAP_PUMPS
from repro.workloads.ycsb import WorkloadGenerator


@pytest.fixture(scope="module")
def corpus():
    return google_urls(600, seed=21)


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, fixed_dataset=True)


def _service(model, **kwargs):
    defaults = dict(num_shards=3, backend="chaining", model=model,
                    capacity=1024, max_queue=32, batch_size=8)
    defaults.update(kwargs)
    return Service(**defaults)


# The client's two transports: in-process pumps and the front door.
TRANSPORTS = ("inproc", "socket")


@contextmanager
def _connect(service, transport, max_pending=1024, **options):
    """A client of ``service`` over the named transport; ``max_pending``
    is the front door's per-connection frame cap."""
    if transport == "inproc":
        yield ServiceClient(service, **options)
        return
    with FrontDoorThread(service, max_pending=max_pending) as door:
        with NetworkClient("127.0.0.1", door.port, **options) as client:
            yield client


def _stall(service):
    """Crash shard 0 for good: nothing queued there is ever served."""
    service.workers[0].crashed = True
    service.supervisor._restart = lambda *a, **k: None


@contextmanager
def _saturated_client(model, transport, **options):
    """A client whose every request is rejected: a stalled shard's full
    queue in process, a zero-credit front door over the wire."""
    service = _service(model, num_shards=1, max_queue=1, batch_size=1)
    try:
        if transport == "inproc":
            _stall(service)
            service.submit(Request(op="put", key=b"fill", value=b"v"))
        with _connect(service, transport, max_pending=0, **options) as client:
            yield client
    finally:
        service.close()


class TestProtocol:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Request(op="scan", key=b"k")

    def test_response_ok_property(self):
        from repro.service import Response

        assert Response(status=OK).ok
        assert not Response(status=REJECTED).ok
        assert not Response(status=FAILED).ok


class TestRouter:
    def test_routing_deterministic(self, model, corpus):
        a = ShardRouter.from_model(model, 4, expected_items=600)
        b = ShardRouter.from_model(model, 4, expected_items=600)
        assert list(a.route_batch(corpus)) == list(b.route_batch(corpus))

    def test_route_one_matches_batch(self, model, corpus):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        batch = list(router.route_batch(corpus[:50]))
        router2 = ShardRouter.from_model(model, 4, expected_items=600)
        singles = [router2.route_one(k) for k in corpus[:50]]
        assert batch == singles

    def test_balance_within_paper_bound(self, model, corpus):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        report = router.balance_of(corpus)
        assert report["within_bound"]
        assert report["relative_std"] <= report["bound"]

    def test_balance_of_does_not_touch_counters(self, model, corpus):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        router.balance_of(corpus)
        assert router.balance()["total_routed"] == 0

    def test_bound_formula(self):
        from repro.partitioning.stats import relative_balance_bound

        bound = relative_balance_bound(1000, 4, tolerance=0.05)
        assert bound == pytest.approx(0.05 + 3.0 * math.sqrt(3 / 1000))
        assert relative_balance_bound(0, 4) == math.inf
        with pytest.raises(ValueError):
            relative_balance_bound(1000, 0)


class TestWorker:
    def _worker(self, model, backend="chaining", max_queue=8, batch_size=4):
        adapter = make_adapter(backend, capacity=256, model=model)
        return Worker(0, adapter, max_queue=max_queue, batch_size=batch_size)

    def _ticket(self, op, key, value=b""):
        from repro.service import Ticket

        return Ticket(request=Request(op=op, key=key, value=value),
                      request_id=0)

    def test_micro_batching(self, model):
        worker = self._worker(model, batch_size=4)
        tickets = [self._ticket("put", b"k%d" % i, b"v%d" % i)
                   for i in range(8)]
        for t in tickets:
            assert worker.try_enqueue(t)
        processed = worker.drain()
        stats = worker.stats()
        assert stats["batches"] >= 2
        assert stats["mean_batch_size"] <= 4
        assert processed == stats["processed"]

    def test_queue_bound_and_rejection(self, model):
        worker = self._worker(model, max_queue=4)
        accepted = sum(
            worker.try_enqueue(self._ticket("put", b"k%d" % i, b"v"))
            for i in range(10)
        )
        assert accepted == 4
        assert worker.stats()["rejected"] == 6
        assert worker.stats()["queue_depth"] == 4

    def test_mixed_op_segments(self, model):
        worker = self._worker(model, max_queue=32, batch_size=32)
        ops = [("put", b"a", b"1"), ("put", b"b", b"2"), ("get", b"a", b""),
               ("contains", b"c", b""), ("delete", b"a", b""),
               ("get", b"a", b"")]
        tickets = [self._ticket(*op) for op in ops]
        for t in tickets:
            assert worker.try_enqueue(t)
        worker.drain()
        assert tickets[2].response.value == b"1"
        assert tickets[3].response.found is False
        assert tickets[4].response.found is True
        assert tickets[5].response.found is False

    @pytest.mark.parametrize("backend", ["bloom", "cuckoo_filter"])
    def test_filters_reject_unsupported_ops(self, model, backend):
        worker = self._worker(model, backend=backend)
        ticket = self._ticket("get", b"k")
        worker.try_enqueue(ticket)
        worker.drain()
        assert ticket.response.status == FAILED


class TestService:
    def test_end_to_end_kv(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((b"key%03d" % i, b"val%03d" % i) for i in range(200))
        assert client.get(b"key007") == b"val007"
        assert client.contains(b"key199")
        assert not client.contains(b"missing")
        assert client.delete(b"key007")
        assert client.get(b"key007") is None
        assert client.lost_acks == 0

    def test_backpressure_rejects_with_retry_after(self, model):
        service = _service(model, num_shards=1, max_queue=4, batch_size=2)
        tickets = [service.submit(Request(op="put", key=b"k%d" % i,
                                          value=b"v"))
                   for i in range(12)]
        rejected = [t for t in tickets if t.rejected]
        assert rejected
        for t in rejected:
            assert t.response.status == REJECTED
            assert t.response.retry_after >= 1
        service.drain()
        assert service.stats()["submitted"] == 12
        assert (service.stats()["accepted"] + service.stats()["rejected"]
                == 12)

    def test_stats_json_serializable(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put(b"k", b"v")
        payload = client.stats()
        json.dumps(payload)
        assert payload["num_shards"] == 3
        assert len(payload["shards"]) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degraded_mode_keeps_acked_writes(self, model, backend):
        service = _service(model, backend=backend, capacity=4096)
        client = ServiceClient(service)
        keys = [b"stable%04d" % i for i in range(300)]
        acked = []
        for key in keys:
            if client.put(key, b"v").status == OK:
                acked.append(key)
        assert acked  # at least some writes must land
        service.force_trip(0)
        assert service.degraded
        # PR 5: the quarantine is per-shard — only the tripped shard
        # falls back to full-key, its siblings keep partial-key serving.
        assert service.workers[0].adapter.tripped
        assert not service.breakers[1].opens and not service.breakers[2].opens
        missing = [k for k in acked if not client.contains(k)]
        assert missing == []

    def test_degraded_mode_routes_stay_pinned(self, model):
        """Degrading must not re-route keys: reads after the trip still
        find values written before it."""
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((b"pin%03d" % i, b"v%03d" % i) for i in range(100))
        before = list(service.router.route_batch(
            [b"pin%03d" % i for i in range(100)]))
        service.force_trip(1)
        after = list(service.router.route_batch(
            [b"pin%03d" % i for i in range(100)]))
        assert before == after
        assert client.get(b"pin042") == b"v042"

    def test_natural_monitor_trip_degrades_shard(self, model):
        service = _service(model, num_shards=2)
        # Simulate a pathological insert stream by force-tripping the
        # worker adapter directly, then letting pump() notice it.
        service.workers[0].adapter.force_trip()
        service.pump()
        assert service.degraded
        assert service.stats()["degrade_events"] == 1
        assert not service.breakers[0].closed
        assert service.breakers[1].closed  # the sibling keeps serving fast

    def test_breaker_heals_after_cooldown(self, model):
        service = _service(model, num_shards=2, cooldown_pumps=4,
                           probe_pumps=2)
        client = ServiceClient(service)
        client.put_many((b"heal%03d" % i, b"v%03d" % i) for i in range(100))
        service.force_trip(0)
        assert service.degraded
        for _ in range(10):  # past cooldown + probe
            service.pump()
        assert not service.degraded
        assert service.breakers[0].closes == 1
        assert service.stats()["degrade_events"] == 1  # trips are remembered
        # healed shard serves partial-key again and kept every write
        assert not service.workers[0].adapter.tripped
        assert client.get(b"heal042") == b"v042"

    def test_invalid_construction(self, model):
        with pytest.raises(ValueError):
            Service(backend="btree", model=model)
        with pytest.raises(ValueError):
            Service(backend="chaining")  # neither model nor hasher


class TestClient:
    def test_put_many_fills_batches(self, model):
        service = _service(model, batch_size=16)
        client = ServiceClient(service)
        client.put_many((b"b%04d" % i, b"v") for i in range(256))
        mean = max(s["mean_batch_size"] for s in service.stats()["shards"])
        assert mean > 1.5  # queues actually filled before draining

    def test_retry_loop_survives_overload(self, model):
        service = _service(model, num_shards=1, max_queue=2, batch_size=1)
        client = ServiceClient(service)
        client.put_many((b"r%04d" % i, b"v") for i in range(64))
        assert client.lost_acks == 0
        assert client.retries > 0
        assert client.get(b"r0000") == b"v"

    def test_run_service_workload(self, model, corpus):
        service = _service(model, capacity=len(corpus))
        client = ServiceClient(service)
        client.put_many((k, b"v0") for k in corpus)
        gen = WorkloadGenerator(corpus, "A", seed=5)
        counts = run_service_workload(client, gen.operations(500))
        assert sum(counts.values()) == 500
        assert client.lost_acks == 0

    def test_scan_workload_raises(self, model, corpus):
        service = _service(model)
        client = ServiceClient(service)
        gen = WorkloadGenerator(corpus, "E", seed=5)
        with pytest.raises(ValueError):
            run_service_workload(client, gen.operations(200))


class TestOverload:
    """The rejection path: typed overload errors and honest ledgers."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_overload_raises_typed_error(self, model, transport):
        # Every attempt re-rejects, so the client must give up with the
        # typed error after max_retries + 1 attempts, not spin.
        with _saturated_client(model, transport, max_retries=3) as client:
            with pytest.raises(ServiceOverloadedError):
                client.put(b"late", b"v")
            assert client.retries == 4  # max_retries + 1, all rejected
            # A rejected-then-abandoned put is a negative ack: sent
            # once, answered "no" once, never counted as lost.
            assert client.puts_sent == 1
            assert client.puts_responded == 1
            assert client.lost_acks == 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_total_backoff_is_bounded(self, model, transport):
        # One backoff per round, each capped: however long the service
        # stays saturated, the spend is at most max_retries caps.
        with _saturated_client(model, transport, max_retries=8) as client:
            with pytest.raises(ServiceOverloadedError):
                client.put(b"late", b"v")
            assert 0 < client.backoff_pumps <= 8 * BACKOFF_CAP_PUMPS

    def test_retries_and_lost_acks_under_sustained_backpressure(self, model):
        service = _service(model, num_shards=1, max_queue=2, batch_size=1)
        client = ServiceClient(service)
        client.put_many((b"bp%04d" % i, b"v") for i in range(64))
        stats = service.stats()
        assert stats["rejected"] > 0  # backpressure actually engaged
        assert client.retries >= stats["rejected"] > 0
        assert client.lost_acks == 0
        assert client.puts_acked == 64
        assert client.get(b"bp0000") == b"v"


class TestBackoffRegressions:
    """Falsy retry_after hints, per-round caps, and single-count
    accounting for batch rejections."""

    @staticmethod
    def _rejecting(service, times, retry_after):
        """Make ``service.submit`` reject the first ``times`` requests
        with the given hint (``times=None``: every request)."""
        real_submit = service.submit
        rejections = []

        def submit(request):
            if times is None or len(rejections) < times:
                ticket = Ticket(request=request, request_id=-1, shard=0)
                ticket.response = Response(REJECTED, shard=0,
                                           retry_after=retry_after)
                rejections.append(ticket)
                return ticket
            return real_submit(request)

        service.submit = submit

    def test_explicit_zero_hint_spends_no_pumps(self, model):
        # `retry_after=0` is an explicit "retry immediately" hint; it
        # must not be promoted to a one-pump backoff.
        service = _service(model, num_shards=1)
        client = ServiceClient(service, max_retries=4)
        self._rejecting(service, 3, retry_after=0)
        assert client.put(b"zh", b"v").ok
        assert client.retries == 3
        assert client.backoff_pumps == 0  # zero hint -> zero pumps
        assert client.puts_sent == 1

    def test_per_attempt_backoff_is_capped(self, model):
        # However deep the rejecting queue claims to be, one round
        # never spends more than BACKOFF_CAP_PUMPS.
        service = _service(model, num_shards=1)
        client = ServiceClient(service, max_retries=2)
        self._rejecting(service, None, retry_after=10_000)
        with pytest.raises(ServiceOverloadedError):
            client.put(b"cap", b"v")
        assert 0 < client.backoff_pumps <= 2 * BACKOFF_CAP_PUMPS

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_mixed_batch_reject_counted_once(self, model, transport):
        # Four distinct-key puts into two slots (a 2-deep queue in
        # process, a 2-frame pipeline cap over the wire): some admit,
        # the rest reject.  Each rejection is ONE backpressure event,
        # counted once by the server and once by the client, and the
        # rejected rest retries as one batch after one backoff.
        service = _service(model, num_shards=1, max_queue=2, batch_size=1)
        try:
            with _connect(service, transport, max_pending=2) as client:
                responses = client.put_many(
                    [(b"mix%d" % i, b"v") for i in range(4)]
                )
                stats = client.stats()
        finally:
            service.close()
        rejected = stats["rejected"] + stats.get("frontdoor", {}).get(
            "rejections_propagated", 0)
        assert all(r.ok for r in responses)
        assert client.retries == rejected > 0
        assert client.backoff_pumps >= 1
        assert client.puts_sent == 4
        assert client.puts_acked == 4
        assert client.lost_acks == 0


class TestRounds:
    """Batches retry as batches, and a round settles before it raises."""

    def test_multi_get_retries_as_batches(self, model):
        # 2,048 reads into 4 x 256 queue slots: half the batch rejects
        # at admission.  The rejected rest must retry as one batch per
        # round, not one request (and one backoff) at a time.
        keys = google_urls(2048, seed=5)
        service = _service(model, num_shards=4, capacity=4096,
                           max_queue=256, batch_size=64)
        try:
            ServiceClient(service).put_many((k, k[::-1]) for k in keys)
            client = ServiceClient(service)
            pumps = service.pump_index
            assert client.multi_get(keys) == [k[::-1] for k in keys]
            assert service.pump_index - pumps <= 100
            assert client.retries > 0  # the batch really overflowed
        finally:
            service.close()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_duplicate_key_batch_keeps_last_write(self, model, transport):
        # A one-slot queue rejects every sibling: the repeated key must
        # still land in batch order, so the later write wins.
        service = _service(model, num_shards=1, max_queue=1, batch_size=1)
        pairs = [(b"dup", b"first"), (b"other", b"x"), (b"dup", b"last")]
        try:
            with _connect(service, transport) as client:
                assert all(r.ok for r in client.put_many(pairs))
                assert client.get(b"dup") == b"last"
                assert client.lost_acks == 0
        finally:
            service.close()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_typed_error_settles_every_sibling(self, model, transport):
        # Regression: a typed error mid-batch used to leave the
        # siblings' ledger entries open.  Each put below gets a
        # negative answer, so none may count as lost.
        service = _service(model, num_shards=1)
        if transport == "inproc":
            # A stalled shard admits all three; the deadline cancels
            # them.
            _stall(service)
            error, options = DeadlineExceededError, {"deadline_pumps": 4}
        else:
            # A zero-credit front door rejects every frame until the
            # client gives up.
            error, options = ServiceOverloadedError, {"max_retries": 2}
        try:
            with _connect(service, transport, max_pending=0,
                          **options) as client:
                with pytest.raises(error):
                    client.put_many([(b"sib%d" % i, b"v") for i in range(3)])
                assert client.puts_sent == 3
                assert client.puts_responded == 3
                assert client.lost_acks == 0
        finally:
            service.close()
