"""Tests for the versioned routing plane (PR 7).

Covers the pure :class:`RoutingTable` (overlay precedence, extendible
split directories, generation monotonicity), the live reconfiguration
paths on a running :class:`Service` (hot-key promotion with journal
migration, forced shard split with read-back on both execution
backends), and the straggler safety net (``WRONG_GENERATION`` dispatch
guard plus the client's transparent resubmit).
"""

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.engine import HashEngine
from repro.service import (
    Request,
    Response,
    RoutingTable,
    Service,
    ServiceClient,
    ShardRouter,
    WRONG_GENERATION,
    fork_available,
)
from repro.service.routing import MAX_SPLIT_DEPTH


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
        router.tracker.observe([b"heavy"] * 64)
        assignments = router.plan_promotions()
        assert assignments == {b"heavy": 1}

    def test_plan_promotions_idle_without_tracker(self, model):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        assert router.plan_promotions() == {}


class TestWrongGeneration:
    def test_dispatch_guard_answers_wrong_generation(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((k, b"v") for k in KEYS[:64])
        # Forge a stale ticket: enqueue at the pre-split shard/route,
        # then flip the table underneath it without the queue sweep.
        key = KEYS[0]
        ticket = service.submit(Request("get", key))
        old_generation = ticket.generation
        donor = ticket.shard
        candidate = service.router.table.with_split(donor)
        service.router.install(candidate)
        moved = candidate.route_one(key) != donor
        service.drain()
        if moved:
            assert ticket.response.status == WRONG_GENERATION
            assert service.workers[donor].wrong_generation >= 1
        else:
            assert ticket.response.ok
        assert ticket.generation == old_generation

    def test_client_retries_wrong_generation(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((k, b"v") for k in KEYS[:64])
        # Find a key the split would move, hand the client a ticket
        # stamped stale, and let its retry round resubmit transparently.
        candidate = service.router.table.with_split(0)
        new_shard = candidate.num_shards - 1
        moved_key = next(
            k for k in KEYS[:64]
            if service.router.table.route_one(k) == 0
            and candidate.route_one(k) == new_shard
        )
        ticket = service.submit(Request("get", moved_key))
        service.split_shard(0)
        # The sweep already re-routed the queued ticket; force the
        # stale path by restamping it as pre-flip and requeueing at
        # the donor.
        ticket.generation = 0
        ticket.shard = 0
        ticket.response = None
        service.workers[0].requeue_front([ticket])
        real_submit = service.submit
        stale = [ticket]
        service.submit = lambda request: (
            stale.pop() if stale else real_submit(request)
        )
        assert client.get(moved_key) == b"v"
        assert client.generation_retries >= 1

    def test_queue_sweep_rescues_queued_tickets(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((k, b"v") for k in KEYS)
        tickets = [service.submit(Request("get", k)) for k in KEYS[:80]]
        service.split_shard(0)
        assert service.swept_tickets >= 0  # counter exists and counted
        service.drain()
        assert all(t.response is not None and t.response.ok
                   for t in tickets)
        # No straggler ever hit the dispatch guard: the sweep got
        # every queued ticket onto its post-flip shard first.
        assert sum(w.wrong_generation for w in service.workers) == 0
