"""Tests for the sharded serving layer (repro.service)."""

import collections
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.engine import CollisionMonitor
from repro.service import (
    BACKENDS,
    FAILED,
    AdapterSpec,
    InlineBackend,
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
    Worker,
    fork_available,
    run_service_workload,
)
from repro.service.client import BACKOFF_CAP_PUMPS
from repro.service.protocol import REFUSED, Run
from repro.workloads.ycsb import WorkloadGenerator
from tests.admission import Row, submit_one


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

# Both shard executions; process shards need the fork start method.
EXECUTIONS = [
    "inline",
    pytest.param("process", marks=pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )),
]


@contextmanager
def _connect(service, transport, max_pending=1024, **options):
    """A client of ``service`` over the named transport; ``max_pending``
    is the front door's per-connection cap on unanswered rows."""
    if transport == "inproc":
        yield ServiceClient(service, **options)
        return
    with FrontDoorThread(service, max_pending=max_pending) as door:
        with NetworkClient("127.0.0.1", door.port, **options) as client:
            yield client


def _key_hasher(adapter):
    """The hasher that places keys in a shard's structure; None for the
    LSM, whose runs each learn their own."""
    if adapter.backend == "similarity":
        return adapter._element_hasher
    return None if adapter.engine is None else adapter.engine.hasher


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
            submit_one(service, Request(op="put", key=b"fill", value=b"v"))
        with _connect(service, transport, max_pending=0, **options) as client:
            yield client
    finally:
        service.close()


class TestProtocol:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Request(op="scan", key=b"k")

    def test_request_is_an_immutable_hashable_value(self):
        request = Request("put", b"k", b"v")
        assert request == Request(op="put", key=b"k", value=b"v")
        assert (request.op, request.key, request.value) == ("put", b"k", b"v")
        assert Request("get").key == b"" and Request("get").value == b""
        assert {request: 1}[Request("put", b"k", b"v")] == 1
        with pytest.raises(AttributeError):
            request.op = "get"

    def test_response_ok_property(self):
        from repro.service import Response

        assert Response(status=OK).ok
        assert not Response(status=REJECTED).ok
        assert not Response(status=FAILED).ok


class TestRouter:
    def test_routing_deterministic(self, model, corpus):
        a = ShardRouter.from_model(model, 4, expected_items=600)
        b = ShardRouter.from_model(model, 4, expected_items=600)
        assert [np.asarray(c).tolist() for c in a.route_batch(corpus)] == \
            [np.asarray(c).tolist() for c in b.route_batch(corpus)]

    def test_route_one_matches_batch(self, model, corpus):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        shards, hashes = router.route_batch(corpus[:50])
        router2 = ShardRouter.from_model(model, 4, expected_items=600)
        singles = [router2.route_one(k) for k in corpus[:50]]
        assert list(zip(shards, hashes)) == singles

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
        execution = InlineBackend(AdapterSpec(backend, 256, model=model), 0)
        return Worker(0, execution, max_queue=max_queue,
                      batch_size=batch_size)

    def _run(self, requests):
        """One run on shard 0 of ``(op, key, value)`` rows, and a view
        per row."""
        n = len(requests)
        run = Run(None, [key for _, key, _ in requests],
                  [value for _, _, value in requests], [None] * n, 0,
                  range(n), 0, 0, [op for op, _, _ in requests])
        return run, [Row(run, row) for row in range(n)]

    def test_micro_batching(self, model):
        worker = self._worker(model, batch_size=4)
        run, _ = self._run([("put", b"k%d" % i, b"v%d" % i)
                            for i in range(8)])
        assert worker.admit(run) == 8
        processed = 0
        while worker.queue:
            processed += worker.dispatch()
        stats = worker.stats()
        assert stats["batches"] >= 2
        assert stats["mean_batch_size"] <= 4
        assert processed == stats["processed"]

    def test_queue_bound_and_rejection(self, model):
        worker = self._worker(model, max_queue=4)
        puts = [("put", b"k%d" % i, b"v") for i in range(10)]
        head, _ = self._run(puts[:3])
        tail, _ = self._run(puts[3:])
        again, _ = self._run(puts[:1])
        assert worker.admit(head) == 3
        assert worker.admit(tail) == 1  # one slot left: a prefix gets in
        assert worker.admit(again) == 0  # a full queue refuses outright
        assert [(rows.run, rows.start, rows.stop) for rows in worker.queue] \
            == [(head, 0, 3), (tail, 0, 1)]
        stats = worker.stats()
        assert stats["enqueued"] == 4
        assert stats["rejected"] == 7
        assert stats["queue_depth"] == 4
        assert stats["peak_queue_depth"] == 4

    def test_lost_rows_park_only_inside_the_credit(self, model):
        # A row can lose only a queue slot it got: a lost row inside the
        # credit parks in the inflight registry and takes no credit; once
        # the credit runs out every later row is refused, lost or not.
        worker = self._worker(model, max_queue=2)
        run, _ = self._run([("put", b"k%d" % i, b"v") for i in range(6)])
        assert worker.admit(run, [False, True, False, False, True, False]) \
            == 3
        assert [(rows.start, rows.stop) for rows in worker.queue] \
            == [(0, 1), (2, 3)]
        assert [(rows.start, rows.stop) for rows in worker.inflight.ranges] \
            == [(1, 2)]
        assert worker.queue_depth == 2
        assert worker.rejected == 3

    def test_mixed_op_segments(self, model):
        worker = self._worker(model, max_queue=32, batch_size=32)
        ops = [("put", b"a", b"1"), ("put", b"b", b"2"), ("get", b"a", b""),
               ("contains", b"c", b""), ("delete", b"a", b""),
               ("get", b"a", b"")]
        run, tickets = self._run(ops)
        assert worker.admit(run) == len(tickets)
        while worker.queue:
            worker.dispatch()
        assert tickets[2].response.value == b"1"
        assert tickets[3].response.found is False
        assert tickets[4].response.found is True
        assert tickets[5].response.found is False

    @pytest.mark.parametrize("backend", ["bloom", "cuckoo_filter"])
    def test_filters_reject_unsupported_ops(self, model, backend):
        worker = self._worker(model, backend=backend)
        run, [ticket] = self._run([("get", b"k", b"")])
        assert worker.admit(run) == 1
        while worker.queue:
            worker.dispatch()
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
        tickets = [submit_one(service, Request(op="put", key=b"k%d" % i,
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

    def test_uniform_op_column_is_one_op(self, model):
        # A call whose rows share one op is a one-op call however the op
        # is passed: its one run carries no op column, so it takes the
        # client's all-OK column copy and the one-op settle path.
        with _service(model) as service:
            route = service.router.table.route_one
            keys = [key for key in (b"uo%03d" % i for i in range(64))
                    if route(key) == 0][:2]
            [run] = service.submit(["get", "get"], keys)
            assert run.ops is None and run.op == "get"
            assert run.shard == 0

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_stats_row_answered_at_admission(self, model, execution):
        # A stats row of an op column is answered where it stands in
        # the call, never routed: its counters include the rows before
        # it and itself, and no shard serves it.
        ops = ["put", "stats", "get"]
        keys = [b"sk", b"", b"sk"]
        values = [b"v", b"", b""]
        with _service(model, execution=execution) as service:
            before = service.submitted
            runs = service.submit(ops, keys, values)
            [stats_run] = [run for run in runs if run.op == "stats"]
            assert list(stats_run.offsets) == [1]
            assert stats_run.shard is None
            response = stats_run.response(0)
            assert response.ok
            assert response.stats["submitted"] == before + 2
            assert sorted(run.request_id(row) for run in runs
                          for row in range(len(run.keys))) == [
                before, before + 1, before + 2]
            service.drain()
            client = ServiceClient(service)
            before = service.submitted
            answers = client._call(ops, keys, values)
            assert answers[0] is None  # the put's OK payload
            assert answers[1]["submitted"] == before + 2
            assert answers[2] == b"v"
            assert client.lost_acks == 0
            for shard in service.stats()["shards"]:
                assert "stats" not in shard["op_counts"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degraded_mode_keeps_acked_writes(self, model, backend):
        service = _service(model, backend=backend, capacity=4096,
                           cooldown_pumps=4, probe_pumps=2)
        client = ServiceClient(service)
        keys = [b"stable%04d" % i for i in range(300)]
        acked = []
        for key in keys:
            if client.put(key, b"v").status == OK:
                acked.append(key)
        assert acked  # at least some writes must land
        adapter = service.workers[0].adapter
        service.force_trip(0)
        assert service.degraded
        # The quarantine is per-shard — only the tripped shard falls
        # back to full-key, its siblings keep partial-key serving.
        assert adapter.tripped
        if _key_hasher(adapter) is not None:
            assert _key_hasher(adapter).partial_key.is_full_key
        assert not service.breakers[1].opens and not service.breakers[2].opens
        missing = [k for k in acked if not client.contains(k)]
        assert missing == []
        # Past cooldown and the probe window the shard heals: breaker
        # closed, the pristine partial-key plan back, no write lost.
        for _ in range(10):
            service.pump()
        assert service.breakers[0].closed and service.breakers[0].closes == 1
        assert not adapter.tripped
        if _key_hasher(adapter) is not None:
            assert _key_hasher(adapter) is adapter._pristine_hasher
        missing = [k for k in acked if not client.contains(k)]
        assert missing == []

    @pytest.mark.parametrize("backend", ["chaining", "probing"])
    def test_fall_back_after_natural_trip_does_not_rehash(self, model,
                                                          backend):
        """A table whose own insert signal tripped its monitor already
        rehashed under full-key; the service's fall_back must not
        rehash it a second time."""
        adapter = AdapterSpec(backend, 256, model=model).build()
        engine = adapter.engine
        partial_key = engine.hasher.partial_key
        assert not partial_key.is_full_key
        engine.monitor = CollisionMonitor(
            entropy=64.0, num_slots=4, min_inserts=1
        )
        # An entropy collapse the table's own inserts report: every key
        # has one length and one byte string under the plan's words,
        # and differs only past them, so every key hashes alike.
        stem = b"t" * partial_key.last_byte_used
        keys = [stem + b"%04d" % i for i in range(64)]
        adapter.put_batch(keys, keys)
        assert engine.fell_back and adapter.tripped
        generation = engine.generation
        adapter.fall_back()
        assert engine.generation == generation
        assert adapter.get_batch(keys) == keys

    def test_degraded_mode_routes_stay_pinned(self, model):
        """Degrading must not re-route keys: reads after the trip still
        find values written before it."""
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((b"pin%03d" % i, b"v%03d" % i) for i in range(100))
        keys = [b"pin%03d" % i for i in range(100)]
        before = [np.asarray(c).tolist()
                  for c in service.router.route_batch(keys)]
        service.force_trip(1)
        after = [np.asarray(c).tolist()
                 for c in service.router.route_batch(keys)]
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

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_breaker_heals_after_cooldown(self, model, execution):
        # Under process execution force_trip, fall_back and
        # restore_partial_key each travel to a shard child as a control
        # op; the heal must look the same from the parent.
        with _service(model, num_shards=2, cooldown_pumps=4, probe_pumps=2,
                      execution=execution) as service:
            client = ServiceClient(service)
            client.put_many(
                (b"heal%03d" % i, b"v%03d" % i) for i in range(100)
            )
            service.force_trip(0)
            assert service.degraded
            assert service.workers[0].tripped
            for _ in range(10):  # past cooldown + probe
                service.pump()
            assert not service.degraded
            assert service.breakers[0].closes == 1
            # trips are remembered
            assert service.stats()["degrade_events"] == 1
            # healed shard serves partial-key again and kept every write
            assert not service.workers[0].tripped
            assert not any(worker.crashed for worker in service.workers)
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


class _RecordingClient(ServiceClient):
    """Logs each call the workload driver makes, in call order, as
    ``(keys, values read or None)``."""

    def __init__(self, service):
        super().__init__(service)
        self.calls = []

    def multi_get(self, keys):
        values = super().multi_get(keys)
        self.calls.append((list(keys), values))
        return values

    def put_many(self, pairs):
        pairs = list(pairs)
        self.calls.append(([key for key, _ in pairs], None))
        return super().put_many(pairs)

    def get(self, key):
        value = super().get(key)
        self.calls.append(([key], [value]))
        return value

    def put(self, key, value):
        self.calls.append(([key], None))
        return super().put(key, value)


def _replay(state, operations):
    """A sequential dict replay of a YCSB stream: the values each key's
    reads return, in stream order, and the final contents."""
    state = dict(state)
    reads = {}
    for op in operations:
        if op.kind in ("read", "rmw"):
            reads.setdefault(op.key, []).append(state.get(op.key))
        if op.kind == "rmw":
            state[op.key] = (state.get(op.key) or b"")[:8] + op.value
        elif op.kind != "read":
            state[op.key] = op.value
    return reads, state


class TestWorkloadDriver:
    """``run_service_workload`` batches reads and writes across kind
    runs; every read must still see its stream-order value."""

    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize("mix", ["A", "B", "D", "F"])
    def test_reads_match_a_sequential_replay(self, model, corpus, execution,
                                             mix):
        keys = corpus[:200]
        operations = list(WorkloadGenerator(
            keys, mix, seed=11, zipf_theta=0.99).operations(1500))
        preload = {key: b"v0" + key for key in keys}
        expected_reads, expected_state = _replay(preload, operations)
        with _service(model, execution=execution, num_shards=4,
                      capacity=2048, max_queue=16) as service:
            client = _RecordingClient(service)
            client.put_many(preload.items())
            client.calls.clear()
            counts = run_service_workload(client, operations)
            reads = {}
            for call_keys, values in client.calls:
                for key, value in zip(call_keys, values or ()):
                    reads.setdefault(key, []).append(value)
            final = list(expected_state)
            contents = client.multi_get(final)
            assert client.lost_acks == 0
        assert counts == dict(collections.Counter(op.kind
                                                  for op in operations))
        assert reads == expected_reads
        assert contents == [expected_state[key] for key in final]

    def test_mix_a_window_takes_few_calls(self, model, corpus):
        window = 128
        windows = 20
        generator = WorkloadGenerator(corpus, "A", seed=3, zipf_theta=0.99)
        with _service(model, capacity=2048) as service:
            client = _RecordingClient(service)
            for _ in range(windows):
                run_service_workload(client, generator.operations(window))
        # One call per run of one op kind takes about 64 per window.
        assert len(client.calls) / windows <= 16


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
        """Make ``service.submit_batch`` refuse the first ``times``
        one-row admissions with the given hint (``times=None``: every
        one); a retry is one of them, since it admits its held run."""
        real_submit_batch = service.submit_batch
        rejections = []

        def submit_batch(runs):
            if times is None or len(rejections) < times:
                [run] = runs
                assert len(run.keys) == 1
                run.refused = Response(REJECTED, shard=run.shard,
                                       retry_after=retry_after)
                run.status[0] = REFUSED
                rejections.append(run)
                return runs
            return real_submit_batch(runs)

        service.submit_batch = submit_batch

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
        # Four distinct-key puts into a 2-deep queue, on either
        # transport one call admitted as one Service.submit: some admit,
        # the rest reject.  Each rejection is ONE backpressure event,
        # counted once by the server and once by the client, and the
        # rejected rest retries as one batch.  In process the answer
        # wait pumps the queue empty, which covers the retry_after
        # hint, so the retry follows without a backoff; the socket
        # client cannot see the server's pumps and backs off once.
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
        if transport == "inproc":
            assert client.backoff_pumps == 0
        else:
            assert client.backoff_pumps >= 1
        assert client.puts_sent == 4
        assert client.puts_acked == 4
        assert client.lost_acks == 0


def _run_fields(run):
    """A run's request columns as plain lists, for comparing runs built
    from list and numpy columns."""
    return (run.shard, run.op, run.ops, run.keys, run.values,
            np.asarray(run.hashes, dtype=np.uint64).tolist(),
            list(run.offsets), run.table)


class TestPartitionColumns:
    """A call routed as numpy columns (at or above the router's per-key
    crossover) partitions into the same runs as the same call routed
    as lists."""

    @pytest.mark.parametrize("layout", ["one", "all", "gaps"])
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("with_offsets", [False, True])
    def test_array_partition_matches_list_partition(self, layout, mixed,
                                                    with_offsets):
        from repro.service.service import _partition

        rng = np.random.default_rng(len(layout) + 2 * mixed + with_offsets)
        n = 96
        shards = {
            "one": np.full(n, 3),
            "all": rng.integers(0, 6, n),
            # Shards 0, 2 and 5 of six get no row.
            "gaps": rng.choice([1, 3, 4], n),
        }[layout].astype(np.int64)
        hashes = rng.integers(0, 2**64, n, dtype=np.uint64)
        keys = [b"key%03d" % i for i in range(n)]
        values = [b"value%03d" % i for i in range(n)]
        op = (rng.choice(["put", "get", "delete"], n).tolist() if mixed
              else "put")
        offsets = range(7, 7 + n) if with_offsets else None
        from_lists = _partition(op, keys, values, hashes.tolist(),
                                shards.tolist(), 5, offsets)
        from_arrays = _partition(op, keys, values, hashes, shards, 5,
                                 offsets)
        assert [_run_fields(run) for run in from_arrays] == \
            [_run_fields(run) for run in from_lists]
        assert all(isinstance(run.hashes, np.ndarray) for run in from_arrays)
        assert sorted(run.shard for run in from_arrays) == \
            sorted(set(shards.tolist()))


class TestHeldRuns:
    """A refused suffix is held as a run and admitted again as it is:
    no second routing pass, unless a flip retired its generation."""

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_repeated_key_into_one_slot_queues(self, model, execution):
        # One queue slot per shard: each round admits one row per shard
        # and holds the rest, so both writes of one key wait in held
        # runs; the later write must still win and the ledger close.
        pairs = [(b"dup", b"first"), (b"k1", b"a"), (b"k2", b"b"),
                 (b"dup", b"second"), (b"k3", b"c")]
        with _service(model, num_shards=2, max_queue=1, batch_size=1,
                      execution=execution) as service:
            client = ServiceClient(service)
            assert all(r.ok for r in client.put_many(pairs))
            assert client.retries > 0
            assert client.get(b"dup") == b"second"
            assert client.multi_get([b"k1", b"k2", b"k3"]) == [
                b"a", b"b", b"c"]
            assert client.puts_acked == client.puts_sent == len(pairs)
            assert client.lost_acks == 0
            stats = service.stats()
            assert stats["submitted"] == stats["accepted"] + stats["rejected"]

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_split_during_answer_wait_reroutes_held_rows(self, model,
                                                         execution):
        # A split fires in the first answer wait, so the held rows'
        # table is retired when they come back: the live table routes
        # them once more, in call order, from their carried hashes (a
        # split keeps the plan), and every queued row and journal key
        # sits where its key routes.
        from repro.verify.placement import misplaced

        keys = [b"held-%03d" % i for i in range(40)]
        with _service(model, num_shards=2, max_queue=4, batch_size=2,
                      execution=execution) as service:
            client = ServiceClient(service)
            router = service.router
            routed, rerouted = [], []
            real_route, real_pump = router.route_batch, service.pump

            def route_batch(batch):
                routed.append(list(batch))
                return real_route(batch)

            def pump():
                if not service.splits:
                    service.split_shard(0)
                    live = router.table
                    real_known = live.route_known

                    def route_known(batch, hashes):
                        rerouted.append(list(batch))
                        return real_known(batch, hashes)

                    live.route_known = route_known
                return real_pump()

            router.route_batch = route_batch
            service.pump = pump
            responses = client.put_many((key, key[::-1]) for key in keys)
            assert service.splits == 1
            assert all(r.ok for r in responses)
            # The router routed the call once; the held rows went
            # through the live table's pure route after the flip, and
            # later rounds re-admit under the live table.
            assert routed == [keys]
            assert len(rerouted) == 1
            assert 0 < len(rerouted[0]) < len(keys)
            assert rerouted[0] == [k for k in keys if k in set(rerouted[0])]
            assert int(router.routed.sum()) == len(keys)
            assert misplaced(service) == ([], [])
            assert client.multi_get(keys) == [k[::-1] for k in keys]
            assert client.lost_acks == 0

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_held_rows_across_a_flip_are_routed_and_sketched_once(
            self, model, execution):
        # The same put_many with and without a split between its rounds:
        # the rows held across the flip are neither counted, sketched
        # nor hashed a second time.  The router's engine hashes each
        # call key once; with the split it also hashes the donor's 8
        # journal keys the migration routes.
        from repro.verify.placement import misplaced
        from repro.verify.targets import _SplitBetweenRounds

        keys = google_urls(200, seed=11)
        for split in (False, True):
            with _service(model, num_shards=2, max_queue=8, hot_k=4,
                          execution=execution) as service:
                client = ServiceClient(service)
                if split:
                    client.transport = _SplitBetweenRounds(
                        client.transport, service, 0)
                responses = client.put_many((k, k[::-1]) for k in keys)
                assert service.splits == int(split)
                assert all(r.ok for r in responses)
                assert int(service.router.routed.sum()) == len(keys)
                assert service.router.tracker.stats()[
                    "total_observed"] == len(keys)
                assert service.router.engine.stats()["keys_hashed"] == (
                    len(keys) + (8 if split else 0))
                assert client.lost_acks == 0
                assert misplaced(service) == ([], [])
                assert client.multi_get(keys) == [k[::-1] for k in keys]

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_refused_rows_are_routed_and_sketched_once(self, model,
                                                       execution):
        # A 2,048-key call into 4 x 256 queue slots is refused in part,
        # yet the router counts, and the hot-key tracker observes,
        # every key exactly once.
        keys = google_urls(2048, seed=5)
        with _service(model, num_shards=4, capacity=4096, max_queue=256,
                      batch_size=64, hot_k=8,
                      execution=execution) as service:
            client = ServiceClient(service)
            router = service.router
            routed = router.balance()["total_routed"]
            observed = router.tracker.stats()["total_observed"]
            assert client.multi_get(keys) == [None] * len(keys)
            assert client.retries > 0
            assert router.balance()["total_routed"] - routed == len(keys)
            assert (router.tracker.stats()["total_observed"] - observed
                    == len(keys))


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

    def test_drained_wait_leaves_no_backoff(self, model):
        # Every round's answer wait pumps the admitted tickets through,
        # which drains their queues and so covers the rejections'
        # retry_after hint: the client retries at once, with no empty
        # backoff pumps, and the answers do not change.
        keys = google_urls(512, seed=6)
        service = _service(model, num_shards=4, capacity=1024,
                           max_queue=16, batch_size=8)
        try:
            ServiceClient(service).put_many((k, k[::-1]) for k in keys)
            client = ServiceClient(service)
            assert client.multi_get(keys) == [k[::-1] for k in keys]
            assert client.retries > 0  # the batch really overflowed
            assert client.backoff_pumps == 0
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
