"""Execution-backend seam: restart/replay idempotency and parity.

The crash-recovery contract is backend-agnostic: acknowledgement and
journaling are parent-side shell work, so a shard core — embedded
(InlineBackend) or in a forked child (ProcessBackend) — is disposable
and any restart rebuilds exactly the acknowledged state.  These tests
pin that contract down where it is easiest to get wrong:

* journal replay is idempotent under a *double* restart (replay, crash
  again before any new traffic, replay again — identical state);
* a replay interrupted partway (the crash-mid-replay case) leaves the
  journal untouched, so the next full replay still lands on the
  reference state;
* an out-of-band ``kill -9`` of a live shard child is recovered like
  any other crash, with zero lost acknowledged writes;
* both backends answer an identical workload identically;
* the vectorized admission path behaves the same way on both sides of
  the seam;
* a shard child's heartbeat word keeps a slow child alive, and a child
  that stops beating is recovered like any other crash;
* both backends run one lifecycle: an injected ``corrupt`` trips the
  same shard at the same pump, and a restart after a plan swap builds
  the re-learned plan.
"""

import os
import signal
import time

import pytest

from repro.core.greedy import GreedyResult
from repro.core.trainer import EntropyModel, train_model
from repro.datasets import google_urls
from repro.faults import make_plane
from repro.service import backends
from repro.service import (
    OK,
    REJECTED,
    AdapterSpec,
    Request,
    Service,
    ServiceClient,
    ShardCore,
    fork_available,
)
from tests.admission import submit, submit_one

# Every parametrized test runs on both sides of the seam; process
# execution needs the fork start method (specs and the heartbeat word
# cross the boundary by inheritance, never pickling).
BOTH_EXECUTIONS = [
    "inline",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        ),
    ),
]

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def corpus():
    return google_urls(400, seed=21)


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, fixed_dataset=True)


def _service(model, **kwargs):
    defaults = dict(num_shards=3, backend="chaining", model=model,
                    capacity=1024, max_queue=64, batch_size=8)
    defaults.update(kwargs)
    return Service(**defaults)


def _load(service, corpus, n=120):
    """Puts, then a spread of deletes; returns (client, expected-reads).

    ``expected`` maps every touched key to what a get must answer after
    any number of restarts: the acked value, or None once deleted.
    """
    client = ServiceClient(service)
    pairs = [(key, b"v%04d" % i) for i, key in enumerate(corpus[:n])]
    client.put_many(pairs)
    expected = dict(pairs)
    for key, _ in pairs[::7]:
        client.delete(key)
        expected[key] = None
    return client, expected


# ------------------------------------------------- replay idempotency


class TestReplayIdempotency:
    @pytest.mark.parametrize("execution", BOTH_EXECUTIONS)
    def test_double_restart_yields_identical_state(
        self, model, corpus, execution
    ):
        # Replay, then crash again before a single new op lands, then
        # replay again: the journal is the source of truth both times,
        # so the rebuilt state must be identical — not merely similar.
        service = _service(model, execution=execution)
        try:
            client, expected = _load(service, corpus)
            for worker in service.workers:
                assert worker.restart() == []  # nothing was in flight
            first = {key: client.get(key) for key in expected}
            for worker in service.workers:
                assert worker.restart() == []
            second = {key: client.get(key) for key in expected}
            assert first == expected
            assert second == expected
            for worker in service.workers:
                assert worker.restarts == 2
                assert worker.journal.stats()["replays"] == 2
                assert not worker.crashed
        finally:
            service.close()

    def test_crash_mid_replay_then_full_replay_matches(self, model):
        # A replay that dies partway is the shard-child spawn-crash
        # case: the half-built core is discarded (child state is
        # disposable) and the journal itself is never consumed or
        # mutated by replaying, so the next full replay still lands on
        # the reference state.
        spec = AdapterSpec("chaining", 256, model=model, seed=0)
        entries = [(
            "put", b"replay-key-%02d" % i, b"val-%02d" % i
        ) for i in range(40)]
        entries += [("delete", b"replay-key-%02d" % i, None)
                    for i in range(0, 40, 5)]
        reference = ShardCore.from_spec(spec, entries)

        class MidReplayCrash(RuntimeError):
            pass

        runs = {"seen": 0}

        def crash_on_second_run(_applied):
            runs["seen"] += 1
            if runs["seen"] == 2:
                raise MidReplayCrash("died mid-replay")

        with pytest.raises(MidReplayCrash):
            ShardCore.from_spec(spec, entries, progress=crash_on_second_run)
        assert runs["seen"] == 2  # it really was interrupted partway

        rebuilt = ShardCore.from_spec(spec, entries)
        keys = [entry[1] for entry in entries]
        assert (rebuilt.serve_segment("get", keys)
                == reference.serve_segment("get", keys))

    @pytest.mark.parametrize("execution", BOTH_EXECUTIONS)
    def test_supervisor_restart_preserves_acked_state(
        self, model, corpus, execution
    ):
        # Same contract through the supervisor path: a crashed flag is
        # picked up at the next pump's observe step, before anything
        # else is served.
        service = _service(model, execution=execution)
        try:
            client, expected = _load(service, corpus)
            service.workers[0].crashed = True
            service.pump()
            assert not service.workers[0].crashed
            assert service.workers[0].restarts == 1
            assert {key: client.get(key) for key in expected} == expected
            assert client.lost_acks == 0
        finally:
            service.close()


@pytest.mark.parametrize("execution", BOTH_EXECUTIONS)
def test_crash_acks_exactly_the_served_prefix(model, execution):
    # Three segments (put put | get | delete); the crash directive stops
    # the batch before segment 1.  The crashing pump itself must ack,
    # journal and count the served put segment, and leave the rest
    # unanswered for reconciliation.
    service = _service(model, execution=execution, num_shards=1,
                       fault_plane=make_plane(["crash:worker:0"]))
    try:
        worker = service.workers[0]
        tickets = submit(service, [
            Request("put", b"prefix-a", b"1"),
            Request("put", b"prefix-b", b"2"),
            Request("get", b"prefix-a"),
            Request("delete", b"prefix-b"),
        ])
        service.pump()
        assert worker.crashed
        assert [t.response.status for t in tickets[:2]] == [OK, OK]
        assert [t.response for t in tickets[2:]] == [None, None]
        assert worker.processed == 2
        assert len(worker.journal) == 2
        service.drain()
        assert not worker.crashed and worker.restarts == 1
        assert tickets[2].response.value == b"1"
        assert tickets[3].response.found
    finally:
        service.close()


# ------------------------------------------------------ process shards


@needs_fork
class TestProcessShards:
    def test_restart_replays_journal_into_fresh_child(self, model, corpus):
        service = _service(model, execution="process", num_shards=2)
        try:
            client, expected = _load(service, corpus, n=80)
            worker = service.workers[0]
            assert len(worker.journal) > 0
            worker.restart()
            stats = worker.execution.stats()
            assert stats["incarnation"] == 2
            assert stats["child_alive"]
            assert worker.journal.stats()["replays"] == 1
            assert {key: client.get(key) for key in expected} == expected
        finally:
            service.close()

    def test_out_of_band_sigkill_recovers_with_zero_lost_acks(
        self, model, corpus
    ):
        # A genuine `kill -9` from outside the fault plane: the parent
        # discovers the dead child at the next dispatch, treats it as a
        # crash, and the supervisor rebuilds it from the journal.
        service = _service(model, execution="process")
        try:
            client, expected = _load(service, corpus)
            victim = service.workers[1]
            pid = victim.execution.process.pid
            os.kill(pid, signal.SIGKILL)
            assert {key: client.get(key) for key in expected} == expected
            assert victim.restarts >= 1
            assert victim.execution.process.pid != pid
            assert not any(worker.crashed for worker in service.workers)
            assert client.lost_acks == 0
        finally:
            service.close()

    def test_migration_into_dead_child_is_not_lost(self, model, corpus):
        # A reconfiguration whose "apply" control op meets a child that
        # died out of band: the op cannot be delivered, so the worker is
        # marked crashed, and its journal restart (which already holds
        # the arrivals) rebuilds the migrated state.
        service = _service(model, execution="process")
        try:
            client, expected = _load(service, corpus)
            victim = service.workers[1]
            os.kill(victim.execution.process.pid, signal.SIGKILL)
            victim.execution.process.join(timeout=5.0)
            assert not victim.execution.child_alive
            routes = service.router.table.route_batch(list(expected))
            pinned = [key for key, shard in zip(expected, routes)
                      if shard != victim.shard_id][:30]
            candidate = service.router.table.with_overlay(
                {key: victim.shard_id for key in pinned}
            )
            assert service.reconfigure(candidate) > 0
            assert victim.crashed
            service.drain()
            assert ({key: client.get(key) for key in pinned}
                    == {key: expected[key] for key in pinned})
            assert victim.restarts == 1
            assert client.lost_acks == 0
        finally:
            service.close()

    def test_close_is_idempotent_and_kills_children(self, model, corpus):
        service = _service(model, execution="process")
        client = ServiceClient(service)
        client.put(corpus[0], b"v")
        pids = [worker.execution.process.pid for worker in service.workers]
        service.close()
        service.close()
        for worker in service.workers:
            assert not worker.execution.child_alive
        for pid in pids:
            # The child is gone (or at worst a zombie awaiting reap);
            # signal 0 probes existence without touching anything.
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue

    def test_context_manager_closes_children(self, model):
        with _service(model, execution="process") as service:
            assert all(
                worker.execution.child_alive for worker in service.workers
            )
        assert not any(
            worker.execution.child_alive for worker in service.workers
        )


# ---------------------------------------------------------- heartbeat


@needs_fork
class TestHeartbeat:
    """The parent's patience window restarts whenever the child's
    heartbeat word moves.  ``ShardCore.serve_segment`` is patched before
    the fork, so every child the test spawns inherits the slow path."""

    def test_slow_child_that_beats_is_not_restarted(
        self, model, monkeypatch
    ):
        # Four segments of 0.5 s each: 2 s in total, past the 1.5 s
        # window, but the child beats after every segment.
        monkeypatch.setattr(backends, "COLLECT_TIMEOUT_S", 1.5)
        serve_segment = ShardCore.serve_segment

        def slow(core, *args):
            time.sleep(0.5)
            return serve_segment(core, *args)

        monkeypatch.setattr(ShardCore, "serve_segment", slow)
        service = _service(model, execution="process", num_shards=1)
        try:
            worker = service.workers[0]
            tickets = submit(service, [
                Request("put", b"hb-a", b"1"),
                Request("get", b"hb-a"),
                Request("put", b"hb-b", b"2"),
                Request("get", b"hb-b"),
            ])
            started = time.monotonic()
            service.pump()
            assert time.monotonic() - started > 1.5
            assert [t.response.status for t in tickets] == [OK] * 4
            assert tickets[1].response.value == b"1"
            assert tickets[3].response.value == b"2"
            assert not worker.crashed and worker.restarts == 0
            assert worker.execution.incarnation == 1
        finally:
            service.close()

    def test_silent_child_is_killed_and_recovered(
        self, model, corpus, monkeypatch, tmp_path
    ):
        # The first child to find the marker removes it and hangs with
        # no beat; the parent kills it once the window runs out, and
        # its replacement replays the journal and serves the batch.
        monkeypatch.setattr(backends, "COLLECT_TIMEOUT_S", 0.5)
        marker = tmp_path / "hang-once"
        serve_segment = ShardCore.serve_segment

        def hang_once(core, *args):
            if marker.exists():
                marker.unlink()
                time.sleep(30.0)
            return serve_segment(core, *args)

        monkeypatch.setattr(ShardCore, "serve_segment", hang_once)
        service = _service(model, execution="process", num_shards=1)
        try:
            client, expected = _load(service, corpus, n=40)
            worker = service.workers[0]
            pid = worker.execution.process.pid
            marker.touch()
            started = time.monotonic()
            client.put(b"hb-late", b"x")
            assert time.monotonic() - started < 10.0
            expected[b"hb-late"] = b"x"
            assert worker.restarts == 1
            assert worker.execution.process.pid != pid
            assert not marker.exists()
            assert {key: client.get(key) for key in expected} == expected
            assert client.lost_acks == 0
        finally:
            service.close()


# ------------------------------------------------------------- parity


@needs_fork
def test_inline_and_process_answer_identically(model, corpus):
    # The differential contract behind the whole seam: same workload,
    # same answers, same ack ledger — only *where* the core runs moves.
    outcomes = {}
    for execution in ("inline", "process"):
        service = _service(model, execution=execution)
        try:
            client, expected = _load(service, corpus)
            probe = list(expected)[:60]
            outcomes[execution] = {
                "reads": {key: client.get(key) for key in expected},
                "contains": client.contains_many(probe),
                "multi_get": client.multi_get(probe),
                "lost_acks": client.lost_acks,
            }
        finally:
            service.close()
    assert outcomes["inline"] == outcomes["process"]


def _admission(service, tickets):
    """Every admission decision a batch left behind, before any drain:
    per-ticket placement, lost slot and answer, per-worker and service
    counters."""
    return {
        "tickets": [
            (t.shard, t.request_id,
             t.request_id in service.workers[t.shard].inflight,
             t.response and t.response.status,
             t.response and t.response.retry_after)
            for t in tickets
        ],
        "workers": [
            (w.enqueued, w.rejected, w.peak_queue_depth, w.queue_depth,
             len(w.inflight))
            for w in service.workers
        ],
        "service": (service.submitted, service.accepted, service.rejected,
                    service.lost_slots),
    }


# (max_queue, fault specs, the shard-1 rows that draw a lost slot,
# whether they park) for the admission parity test.
ADMISSION_CASES = [
    # 60 keys over 3 shards into 64 slots each: nothing is refused.
    (64, [], None, None),
    # 6 slots per shard against about 20 keys each, over two batches:
    # the first fills part of each queue, the second overflows it, and
    # a refusal's retry_after (3 pumps of 2) reads the full queue.
    (6, [], None, None),
    # A deeper overflow with queue slots lost on shard 1: every ticket
    # routed there, refused or not, is one queue_loss opportunity, so a
    # change in their order or number moves the lost tickets.  Rows 1-4
    # lose their slots inside the credit: they park and take none, so
    # rows 0 and 5 fill the two slots.
    (2, ["queue_loss:service:1:after=1:count=4"], slice(1, 5), True),
    # The same losses drawn by rows 3-6, past the cut: a row can lose
    # only a slot it got, so they are refused, and none parks.
    (2, ["queue_loss:service:1:after=3:count=4"], slice(3, 7), False),
]


@pytest.mark.parametrize("execution", BOTH_EXECUTIONS)
def test_submit_batch_matches_scalar_admission(model, execution):
    # Admitting a batch as one call is byte-equivalent to admitting
    # its rows as one-row calls: same shards, request ids, statuses
    # and retry_after hints, same counters, and the same statuses
    # after drain.
    keys = [b"batch-key-%03d" % i for i in range(60)]
    batches = [keys[:21], keys[21:]]
    for max_queue, faults, draws, parks in ADMISSION_CASES:
        scalar, batched = (
            _service(model, execution=execution, max_queue=max_queue,
                     batch_size=2,
                     fault_plane=make_plane(faults) if faults else None)
            for _ in range(2)
        )
        try:
            a = [submit_one(scalar, Request("put", key, b"v"))
                 for batch in batches for key in batch]
            b = [ticket for batch in batches
                 for ticket in submit(
                     batched, [Request("put", key, b"v") for key in batch])]
            assert _admission(scalar, a) == _admission(batched, b)
            if max_queue < 20:
                assert scalar.rejected > 0  # the case really overflowed
            if faults:
                assert batched.fault_plane.total_fired("queue_loss") == 4
                fired = [t for t in b if t.shard == 1][draws]
                parked = batched.workers[1].inflight
                lost = [t for t in b if t.request_id in parked]
                assert lost == (fired if parks else [])
                assert batched.lost_slots == len(lost)
                # A loss past the cut counts as a refusal.
                assert all(t.rejected != parks for t in fired)
            scalar.drain()
            batched.drain()
            assert ([t.response.status for t in a]
                    == [t.response.status for t in b])
        finally:
            scalar.close()
            batched.close()


@pytest.mark.parametrize("execution", BOTH_EXECUTIONS)
def test_refused_suffix_keeps_per_key_order(model, execution):
    # Once a shard refuses a ticket of a batch, it admits no later
    # ticket of that batch: two puts of one key into a one-slot queue
    # admit the first and refuse the second, never the other way
    # round, so the retried second write lands last.
    service = _service(model, num_shards=1, execution=execution,
                       max_queue=1, batch_size=1)
    try:
        first, second = submit(
            service,
            [Request("put", b"k", b"first"), Request("put", b"k", b"second")],
        )
        assert first.response is None
        assert second.response.status == REJECTED
        assert service.workers[0].queue_depth == 1
        service.drain()
        assert first.response.ok
        # Retry the refused write as the client would: resubmit it.
        retried = submit_one(service, Request("put", b"k", b"second"))
        service.drain()
        assert retried.response.ok
        assert ServiceClient(service).get(b"k") == b"second"
    finally:
        service.close()


@pytest.mark.parametrize("execution", BOTH_EXECUTIONS)
def test_lost_slot_past_a_refusal_keeps_the_later_write(model, execution):
    # Two slots, four puts, and the fourth put's slot lost: the first
    # write of k is past the credit and refused, so the second, lost,
    # is refused with it instead of parking ahead of it.  The retry
    # admits both in call order, and the later write wins.
    service = _service(
        model, num_shards=1, execution=execution, max_queue=2,
        fault_plane=make_plane(["queue_loss:service:0:after=3:count=1"]),
    )
    try:
        client = ServiceClient(service)
        client.put_many([(b"x", b"1"), (b"y", b"2"), (b"k", b"a"),
                         (b"k", b"b")])
        assert service.fault_plane.total_fired("queue_loss") == 1
        assert service.lost_slots == 0
        assert client.get(b"k") == b"b"
        assert client.lost_acks == 0
    finally:
        service.close()


# ------------------------------------------------------- one lifecycle


def _corrupt_timeline(model, execution):
    """Pump an idle model-built chaining fleet armed with one
    ``corrupt`` fire at shard 1: per pump, the fires so far and every
    breaker's state; then each breaker's (opens, closes)."""
    plane = make_plane(["corrupt:service:1:count=1"])
    service = _service(model, execution=execution, num_shards=4,
                       fault_plane=plane, cooldown_pumps=4, probe_pumps=2)
    try:
        timeline = []
        for _ in range(10):
            service.pump()
            timeline.append((plane.total_fired("corrupt"),
                             [breaker.state for breaker in service.breakers]))
        assert not any(worker.tripped for worker in service.workers)
        return timeline, [(breaker.opens, breaker.closes)
                          for breaker in service.breakers]
    finally:
        service.close()


@needs_fork
def test_corrupt_fires_at_the_same_pump_on_both_executions(model):
    # ``corrupt`` is one service-level opportunity per shard per pump on
    # both executions, so an idle fleet — no insert feeds any monitor —
    # trips at pump 1 either way, opens the target's breaker only, and
    # heals through the same cooldown and probe.
    inline = _corrupt_timeline(model, "inline")
    assert _corrupt_timeline(model, "process") == inline
    timeline, breakers = inline
    assert timeline[0] == (1, ["closed", "open", "closed", "closed"])
    assert timeline[-1] == (1, ["closed"] * 4)
    assert breakers == [(0, 0), (1, 1), (0, 0), (0, 0)]


@pytest.mark.parametrize("execution", BOTH_EXECUTIONS)
def test_restart_after_plan_swap_builds_the_new_plan(model, corpus,
                                                     execution):
    # A rearm re-points the shard backend's spec on both executions, so
    # a shard that crashes after a plan swap restarts on the re-learned
    # plan: the router's carried hashes serve it, none is recomputed.
    relearned = EntropyModel(result=GreedyResult(
        positions=[48], word_size=8, entropies=[float("inf")],
        train_collisions=[0], train_size=400, eval_size=400,
    ))
    service = _service(model, execution=execution)
    try:
        client = ServiceClient(service)
        client.put_many((key, key) for key in corpus)
        old_plan = service.router.engine.hasher.fingerprint
        assert service.relearn_swap(relearned) == service.num_shards
        plan = service.router.engine.hasher.fingerprint
        assert plan != old_plan
        worker = service.workers[1]
        worker.crashed = True
        service.pump()
        assert worker.restarts == 1 and not worker.crashed
        assert worker.execution.spec.fleet_hasher().fingerprint == plan
        if worker.adapter is not None:
            assert worker.adapter.engine.hasher.fingerprint == plan
        assert client.multi_get(corpus) == list(corpus)
        assert client.lost_acks == 0
        structure = worker.stats()["structure"]
        assert structure["hashes_carried"] > 0
        assert structure["hashes_recomputed"] == 0
    finally:
        service.close()


# -------------------------------------------------------- construction


def test_service_rejects_unknown_execution(model):
    with pytest.raises(ValueError, match="unknown execution"):
        _service(model, execution="threads")


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
def test_process_scaling_run_loses_nothing():
    # A shrunk version of the scaling record in benchmarks/bench_service.py
    # (fast enough for tier 1): the process backend must serve the same
    # workload with zero lost acks, and the record itself checks that
    # every timed get answered with its own key.
    from benchmarks.bench_service import (
        SCALING_ROUNDS,
        _scaling_keys,
        _scaling_record,
    )

    keys = _scaling_keys()[:400]
    model = train_model(keys, fixed_dataset=True)
    record = _scaling_record("process", model, keys)
    assert record["execution"] == "process"
    assert record["lost_acks"] == 0
    assert record["ops"] == len(keys) * SCALING_ROUNDS
    assert record["latency_p50_ns"] > 0
