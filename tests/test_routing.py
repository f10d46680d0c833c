"""Tests for the versioned routing plane (PR 7).

Covers the pure :class:`RoutingTable` (overlay precedence, extendible
split directories, generation monotonicity), the live reconfiguration
paths on a running :class:`Service` (hot-key promotion with journal
migration, forced shard split with read-back on both execution
backends), and the flip sweep that keeps every queued row on the shard
its key routes to.
"""

import random

import pytest

from repro.core.greedy import GreedyResult
from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import EntropyModel, train_model
from repro.datasets import google_urls
from repro.engine import HashEngine
from repro.faults import make_plane
from repro.service import (
    Request,
    Response,
    RoutingTable,
    Service,
    ServiceClient,
    ShardRouter,
    fork_available,
)
from repro.service.journal import ShardJournal
from repro.service.routing import MAX_SPLIT_DEPTH, migration_scope
from repro.service.supervisor import Supervisor
from repro.verify import misplaced
from tests.admission import submit_one


@pytest.fixture(scope="module")
def corpus():
    return google_urls(600, seed=21)


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, fixed_dataset=True)


@pytest.fixture
def table():
    engine = HashEngine(EntropyLearnedHasher.full_key("xxh3"))
    return RoutingTable(engine, 4)


def _service(model, **kwargs):
    defaults = dict(num_shards=3, backend="chaining", model=model,
                    capacity=1024, max_queue=64, batch_size=8)
    defaults.update(kwargs)
    return Service(**defaults)


KEYS = [b"route-key-%04d" % i for i in range(400)]


class TestRoutingTable:
    def test_route_batch_matches_route_one(self, table):
        batch = list(table.route_batch(KEYS))
        singles = [table.route_one(k) for k in KEYS]
        assert batch == singles

    def test_overlay_wins_over_base(self, table):
        key = KEYS[0]
        base = table.route_one(key)
        target = (base + 1) % table.num_shards
        candidate = table.with_overlay({key: target})
        assert candidate.route_one(key) == target
        assert list(candidate.route_batch([key]))[0] == target
        # The live table is untouched (copy-on-write).
        assert table.route_one(key) == base
        assert table.generation == 0
        assert candidate.generation == 1

    def test_overlay_validates_target(self, table):
        with pytest.raises(ValueError):
            table.with_overlay({KEYS[0]: table.num_shards})
        with pytest.raises(ValueError):
            table.with_overlay({KEYS[0]: -1})

    def test_split_moves_only_donor_keys(self, table):
        donor = 1
        before = list(table.route_batch(KEYS))
        candidate = table.with_split(donor)
        after = list(candidate.route_batch(KEYS))
        new_shard = candidate.num_shards - 1
        assert candidate.num_shards == table.num_shards + 1
        for b, a in zip(before, after):
            if b == donor:
                assert a in (donor, new_shard)
            else:
                assert a == b  # non-donor keys provably untouched

    def test_split_actually_moves_something(self, table):
        candidate = table.with_split(0)
        new_shard = candidate.num_shards - 1
        routed = set(candidate.route_batch(KEYS))
        assert new_shard in routed and 0 in routed

    def test_split_is_deterministic(self, table):
        a = list(table.with_split(2).route_batch(KEYS))
        b = list(table.with_split(2).route_batch(KEYS))
        assert a == b

    def test_recursive_split_of_split_born_shard(self, table):
        first = table.with_split(0)
        child = first.num_shards - 1
        second = first.with_split(child)  # split the split-born shard
        grandchild = second.num_shards - 1
        before = list(first.route_batch(KEYS))
        after = list(second.route_batch(KEYS))
        for b, a in zip(before, after):
            if b == child:
                assert a in (child, grandchild)
            else:
                assert a == b

    def test_split_depth_cap(self, table):
        current = table
        donor = 0
        for _ in range(MAX_SPLIT_DEPTH):
            current = current.with_split(donor)
        with pytest.raises(ValueError):
            current.with_split(donor)

    def test_generation_monotonic_install(self, model):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        candidate = router.table.with_overlay({KEYS[0]: 0})
        stale = router.table.with_overlay({KEYS[1]: 1})
        router.install(candidate)
        assert router.generation == 1
        with pytest.raises(ValueError):
            router.install(stale)  # same generation: not newer
        with pytest.raises(ValueError):
            router.install(candidate)  # re-install of the live gen

    def test_install_grows_routed_counters(self, model):
        router = ShardRouter.from_model(model, 2, expected_items=600)
        router.route_batch(KEYS[:100])
        before = router.routed.sum()
        router.install(router.table.with_split(0))
        assert len(router.routed) == 3
        assert router.routed.sum() == before

    def test_stats_shape(self, table):
        candidate = table.with_split(3).with_overlay({KEYS[0]: 0})
        stats = candidate.stats()
        assert stats["generation"] == 2
        assert stats["num_shards"] == 5
        assert stats["base_shards"] == 4
        assert stats["overlay_keys"] == 1
        assert stats["split_directories"]["3"] == [3, 4]


class TestLiveSplit:
    @pytest.mark.parametrize(
        "execution",
        ["inline",
         pytest.param("process", marks=pytest.mark.skipif(
             not fork_available(), reason="needs fork start method"))],
    )
    def test_split_preserves_every_key(self, model, execution):
        service = _service(model, execution=execution)
        try:
            client = ServiceClient(service)
            client.put_many((k, b"v-" + k[-4:]) for k in KEYS)
            donor = int(max(range(service.num_shards),
                            key=lambda s: service.router.routed[s]))
            new_shard = service.split_shard(donor)
            assert new_shard == service.num_shards - 1
            assert service.router.generation >= 1
            assert len(service.workers) == service.num_shards
            assert len(service.breakers) == service.num_shards
            values = client.multi_get(KEYS)
            assert all(v == b"v-" + k[-4:] for k, v in zip(KEYS, values))
            assert client.lost_acks == 0
            # The donor really handed keys to the split-born shard.
            placement = service.router.balance_of(KEYS)
            assert placement["per_shard"][new_shard] > 0
        finally:
            service.close()

    def test_split_then_mutate_then_read(self, model):
        service = _service(model)
        try:
            client = ServiceClient(service)
            client.put_many((k, b"old") for k in KEYS)
            service.split_shard(0)
            # Writes after the flip land on the new routing.
            for key in KEYS[:50]:
                client.put(key, b"new")
            for key in KEYS[:25]:
                client.delete(key)
            assert client.multi_get(KEYS[:25]) == [None] * 25
            assert client.multi_get(KEYS[25:50]) == [b"new"] * 25
            assert client.multi_get(KEYS[50:75]) == [b"old"] * 25
            assert client.lost_acks == 0
        finally:
            service.close()

    def test_split_and_restart_replays_journal(self, model):
        # A split-born shard's journal must be able to rebuild it.
        service = _service(model)
        try:
            client = ServiceClient(service)
            client.put_many((k, b"v1") for k in KEYS)
            new_shard = service.split_shard(1)
            worker = service.workers[new_shard]
            worker.restart()
            placement = service.router.balance_of(KEYS)
            assert placement["per_shard"][new_shard] > 0
            assert client.multi_get(KEYS) == [b"v1"] * len(KEYS)
        finally:
            service.close()

    def test_stats_report_split(self, model):
        service = _service(model)
        try:
            client = ServiceClient(service)
            client.put_many((k, b"x") for k in KEYS[:100])
            service.split_shard(2)
            stats = service.stats()
            assert stats["splits"] == 1
            assert stats["routing"]["generation"] >= 1
            assert stats["num_shards"] == 4
            assert len(stats["shards"]) == 4
        finally:
            service.close()

    def test_split_born_shard_is_supervised(self, model):
        threshold = 2
        service = _service(model, auto_split=True, adapt_every=4,
                           max_queue=256, batch_size=256,
                           stall_threshold=threshold)
        try:
            client = ServiceClient(service)
            client.put_many((k, b"v1") for k in KEYS)
            # Split on an adapt window's edge.
            while service.pump_index % service.adapt_every:
                service.pump()
            assert service.splits == 0
            new_shard = service.split_shard(0)
            at_split = service.pump_index
            table = service.router.table
            born = [k for k in KEYS if table.route_one(k) == new_shard][:32]
            assert len(born) == 32
            # A stall on the shard the split added is seen and healed
            # within stall_threshold pumps.
            service.arm_fault_plane(make_plane(
                [f"stall:worker:{new_shard}:count={threshold}"]))
            service.submit("put", born[:1], [b"v2"])
            worker = service.workers[new_shard]
            while not worker.restarts and service.pump_index < at_split + 8:
                service.pump()
            assert worker.restarts == 1
            assert service.pump_index - at_split <= threshold
            assert service.supervisor.stalls_detected == 1
            # Traffic on the split-born shard alone: the first window
            # after the split counts it from the split on, so the
            # supervisor splits it after SPLIT_PATIENCE windows.
            while service.splits < 2 and service.pump_index < at_split + 32:
                client.put_many((k, b"v3") for k in born)
            assert service.supervisor.splits_triggered == 1
            assert (service.pump_index - at_split
                    <= Supervisor.SPLIT_PATIENCE * service.adapt_every)
            assert any(service.router.table.route_one(k) == new_shard + 1
                       for k in born)
            assert client.multi_get(born) == [b"v3"] * len(born)
            assert client.lost_acks == 0
        finally:
            service.close()


class TestMigrationScope:
    """A migration routes only the keys its candidate can move."""

    def _filled(self, model):
        service = _service(model, num_shards=4)
        client = ServiceClient(service)
        client.put_many((k, b"v1") for k in KEYS)
        # Rewrites: a journal holds more entries than distinct keys.
        client.put_many((k, b"v2") for k in KEYS[::3])
        oracle = {k: b"v2" if i % 3 == 0 else b"v1"
                  for i, k in enumerate(KEYS)}
        return service, client, oracle

    def _check(self, service, client, oracle):
        assert misplaced(service) == ([], [])
        assert client.multi_get(list(oracle)) == list(oracle.values())
        assert client.lost_acks == 0

    def test_promotion_routes_only_the_keys_it_pins(self, model):
        service, client, oracle = self._filled(model)
        try:
            # After a split the live table was once a candidate: its
            # donor must not widen the next promotion's scope.
            service.split_shard(0)
            table = service.router.table
            pins = {k: (table.route_one(k) + 1) % table.num_shards
                    for k in KEYS[:5]}
            engine = service.router.engine
            before = engine.stats()["keys_hashed"]
            assert service.reconfigure(table.with_overlay(pins)) > 0
            assert engine.stats()["keys_hashed"] - before <= len(pins)
            self._check(service, client, oracle)
        finally:
            service.close()

    def test_split_routes_only_the_donors_journal(self, model):
        service, client, oracle = self._filled(model)
        try:
            donor = 1
            journal = service.workers[donor].journal.entries
            distinct = len({entry[1] for entry in journal})
            assert distinct < len(journal)
            engine = service.router.engine
            before = engine.stats()["keys_hashed"]
            service.split_shard(donor)
            assert engine.stats()["keys_hashed"] - before <= distinct
            self._check(service, client, oracle)
        finally:
            service.close()

    def test_a_chained_candidate_moves_both_scopes(self, model):
        service, client, oracle = self._filled(model)
        try:
            table = service.router.table
            pins = {k: (table.route_one(k) + 1) % table.num_shards
                    for k in KEYS[:5]}
            candidate = table.with_split(2).with_overlay(pins)
            assert service.reconfigure(candidate) > 0
            assert service.num_shards == 5
            assert service.splits == 1
            self._check(service, client, oracle)
        finally:
            service.close()

    def test_a_promotion_walks_only_its_keys_journal(self, model,
                                                    monkeypatch):
        service, client, oracle = self._filled(model)
        walked = []
        split_by = ShardJournal.split_by

        def spy(journal, keys):
            walked.append(journal)
            return split_by(journal, keys)

        monkeypatch.setattr(ShardJournal, "split_by", spy)
        try:
            table = service.router.table
            key = KEYS[0]
            home = table.route_one(key)
            pins = {key: (home + 1) % table.num_shards}
            assert service.reconfigure(table.with_overlay(pins)) > 0
            assert walked == [service.workers[home].journal]
            self._check(service, client, oracle)
        finally:
            service.close()

    def test_the_scope_holds_every_key_that_moves(self, model):
        service, _, _ = self._filled(model)
        try:
            journaled = list(dict.fromkeys(
                entry[1] for worker in service.workers
                for entry in worker.journal.entries))
            rng = random.Random(39)

            def overlay(table):
                return table.with_overlay({
                    key: rng.randrange(table.num_shards)
                    for key in rng.sample(journaled, 12)})

            def split(table):
                return table.with_split(rng.randrange(table.num_shards))

            # The live table holds pins and a split directory of its own.
            service.reconfigure(overlay(split(service.router.table)))
            live = service.router.table
            chains = [(overlay,), (split,), (split, overlay),
                      (overlay, split), (split, split, overlay),
                      (split, overlay, split)]
            candidates = [live.with_engine(
                HashEngine(EntropyLearnedHasher.full_key("xxh3")))]
            for chain in chains * 3:
                candidate = live
                for step in chain:
                    candidate = step(candidate)
                candidates.append(candidate)
            for candidate in candidates:
                scope = migration_scope(live, candidate)
                if scope is None:
                    assert candidate.engine is not live.engine
                    continue
                pinned, donors = scope
                homes = {key: home for home, targets in pinned.items()
                         for key in targets}
                for key in journaled:
                    home = live.route_one(key)
                    if candidate.route_one(key) != home:
                        assert key in homes or home in donors
                for key, home in homes.items():
                    assert home == live.route_one(key)
                    target = pinned[home][key]
                    assert target == candidate.route_one(key) != home
        finally:
            service.close()


class TestFilterMigration:
    """Promotion then split on the filter backends: a Bloom filter
    cannot delete (the donor keeps stale bits), a cuckoo filter is a
    multiset (migration must carry net add counts, not presence)."""

    @pytest.mark.parametrize("backend", ["bloom", "cuckoo_filter"])
    @pytest.mark.parametrize(
        "execution",
        ["inline",
         pytest.param("process", marks=pytest.mark.skipif(
             not fork_available(), reason="needs fork start method"))],
    )
    def test_promotion_then_split(self, model, backend, execution):
        service = _service(model, backend=backend, execution=execution)
        multiset = backend == "cuckoo_filter"
        try:
            client = ServiceClient(service)
            client.put_many((k, b"") for k in KEYS)
            gone = set()

            def twice_once_twice(twice, deleted):
                # ``twice``: two adds, one delete — one copy left.
                # ``deleted``: two adds, two deletes — absent.
                if multiset:
                    for key in (twice, deleted):
                        client.put(key, b"")
                        client.delete(key)
                    client.delete(deleted)
                    gone.add(deleted)

            # Promotion: pin a pair of keys away from their home shard.
            table = service.router.table
            promoted = KEYS[:2]
            twice_once_twice(*promoted)
            pins = {k: (table.route_one(k) + 1) % table.num_shards
                    for k in promoted}
            assert service.reconfigure(table.with_overlay(pins)) > 0
            # Split: pick a pair from the half the donor hands over.
            donor = 0
            new_shard = service.router.table.num_shards
            moving = [k for k in KEYS[2:] if service.router.table
                      .with_split(donor).route_one(k) == new_shard]
            split_pair = moving[:2]
            twice_once_twice(*split_pair)
            assert service.split_shard(donor) == new_shard
            for key in promoted:
                assert service.router.table.route_one(key) == pins[key]
            for key in split_pair:
                assert service.router.table.route_one(key) == new_shard
            expected = [k not in gone for k in KEYS]
            assert client.contains_many(KEYS) == expected
            if multiset:
                # Exactly one copy migrated: one more delete empties it.
                for key in (promoted[0], split_pair[0]):
                    assert client.delete(key).found
                    assert not client.contains(key)
            assert client.lost_acks == 0
        finally:
            service.close()


class TestPromotion:
    def test_hot_key_promoted_and_value_survives(self, model):
        service = _service(model, hot_k=4, adapt_every=2)
        try:
            client = ServiceClient(service)
            client.put_many((k, b"cold") for k in KEYS[:64])
            hot = KEYS[0]
            client.put(hot, b"hot-value")
            for _ in range(300):
                client.get(hot)
            routing = service.stats()["routing"]
            assert routing["promoted"] >= 1
            assert hot in service.router.table.overlay
            pinned = service.router.table.overlay[hot]
            assert service.router.table.route_one(hot) == pinned
            assert client.get(hot) == b"hot-value"
            assert client.lost_acks == 0
        finally:
            service.close()

    def test_promotion_targets_least_loaded(self, model):
        router = ShardRouter.from_model(model, 4, expected_items=600,
                                        hot_k=4)
        # Fake a lopsided history, then hand the tracker a heavy hitter.
        router.routed[:] = [1000, 10, 1000, 1000]
        heavy = [b"heavy"] * 64
        router.tracker.observe(heavy, router.table.route_hashed(heavy)[1])
        assignments = router.plan_promotions()
        assert assignments == {b"heavy": 1}

    def test_tracker_counts_the_routers_hashes(self, model):
        # The router hashes each routed key once; the tracker's flush
        # and top() count and re-score those hashes without an engine
        # call of their own.
        router = ShardRouter.from_model(model, 4, expected_items=600,
                                        hot_k=4)
        tracker = router.tracker
        stream = [KEYS[0]] * 40 + KEYS[:23]  # under one flush buffer
        router.route_batch(stream)
        assert router.engine.counters.keys_hashed == len(stream)
        engines = (router.engine, tracker.sketch.engine)
        before = [(e.counters.keys_hashed, e.counters.batches)
                  for e in engines]
        tracker.flush()
        top = tracker.top()
        assert list(router.plan_promotions()) == [KEYS[0]]
        assert [(e.counters.keys_hashed, e.counters.batches)
                for e in engines] == before
        assert top[0] == (KEYS[0], tracker.sketch.estimate(KEYS[0]))

    def test_plan_swap_restarts_the_tracker(self, model):
        service = _service(model, hot_k=4, adapt_every=2)
        try:
            client = ServiceClient(service)
            client.put_many((k, b"v") for k in KEYS[:64])
            old_hot, new_hot = KEYS[0], KEYS[1]
            for _ in range(300):
                client.get(old_hot)
            assert old_hot in service.router.table.overlay
            old_plan = service.router.engine.hasher.fingerprint
            swapped = EntropyModel(result=GreedyResult(
                positions=[2], word_size=8, entropies=[float("inf")],
                train_collisions=[0], train_size=600, eval_size=600,
            ))
            service.relearn_swap(swapped)
            plan = service.router.engine.hasher
            assert plan.fingerprint != old_plan
            tracker = service.router.tracker
            assert tracker.sketch.engine.hasher is plan
            assert tracker.sketch.total == 0 and not tracker.candidates
            for _ in range(300):
                client.get(new_hot)
            # Hot under the new plan: promoted; the old pin stays.
            overlay = service.router.table.overlay
            assert new_hot in overlay and old_hot in overlay
            # Every count since the swap is a new-plan count: the
            # candidates carry new-plan hashes, and nothing observed
            # before the swap is in the sketch.
            engine = HashEngine(plan)
            for key, (_, h) in tracker.candidates.items():
                assert h == engine.hash_one(key)
            assert tracker.stats()["total_observed"] == 300
            assert client.get(old_hot) == b"v"
            assert client.lost_acks == 0
        finally:
            service.close()

    def test_plan_promotions_idle_without_tracker(self, model):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        assert router.plan_promotions() == {}


class TestWrongGeneration:
    """Rows queued across a routing flip: the flip sweep re-homes each
    one, so no row is served on a shard its key has left."""

    def test_queue_sweep_rescues_queued_tickets(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((k, b"v") for k in KEYS)
        tickets = [submit_one(service, Request("get", k)) for k in KEYS[:80]]
        service.split_shard(0)
        assert service.swept_tickets >= 0  # counter exists and counted
        # The sweep got every queued ticket onto its post-flip shard
        # before any dispatch.
        assert misplaced(service) == ([], [])
        service.drain()
        assert all(t.response is not None and t.response.ok
                   for t in tickets)
        assert misplaced(service) == ([], [])

    @pytest.mark.parametrize("execution", [
        "inline",
        pytest.param("process", marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        )),
    ])
    def test_placement_check_reports_an_unswept_flip(self, model, execution):
        service = _service(model, execution=execution)
        try:
            ServiceClient(service).put_many((k, b"v") for k in KEYS)
            for key in KEYS[:80]:
                submit_one(service, Request("get", key))
            # An ordinary split sweeps the queues: nothing misplaced.
            service.split_shard(0)
            assert misplaced(service) == ([], [])
            service.drain()
            # Skip the sweep: rows whose key the split moves stay queued
            # at the donor, and the check names exactly those.
            for key in KEYS[80:160]:
                submit_one(service, Request("get", key))
            workers = list(service.workers)
            for worker in workers:
                worker.take_queue = list  # an empty sweep
            service.split_shard(1)
            for worker in workers:
                del worker.take_queue
            table = service.router.table
            stranded = [
                (worker.shard_id, rows.run.keys[row])
                for worker in service.workers for rows in worker.queue
                for row in range(rows.start, rows.stop)
                if table.route_one(rows.run.keys[row]) != worker.shard_id
            ]
            assert stranded
            rows, keys = misplaced(service)
            assert rows == stranded
            # The journal migration ran as usual.
            assert keys == []
        finally:
            service.close()
