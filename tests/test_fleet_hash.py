"""One hash per key: the router's hash rides the ticket into the shard table.

Covers placement quality of the shared hash against independently
seeded router and table hashes (routing balance, probe work, and the
tag and bucket bits of both halves of a split shard), the tables'
carried-hash paths against their hashing ones, a batch insert that
keeps its hashes across growths that keep the plan, and the
plan-fingerprint check on both execution backends: a growth re-plan, a
monitor fallback, a drift plan swap with tickets queued across it, and
an overlay-pinned hot key each serve the answers a direct table probe
gives, lose no acked write, and show in the per-shard
``hashes_carried`` / ``hashes_recomputed`` counters which path served;
and a retried request is routed without hashing its key again.
"""

import statistics

import numpy as np
import pytest

from repro.core.greedy import GreedyResult
from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import EntropyModel, train_model
from repro.datasets import google_urls
from repro.engine import FastRangeReducer, HashEngine, SlotTagReducer
from repro.service import (
    Request,
    Service,
    ServiceClient,
    ShardCore,
    fork_available,
)
from repro.tables.chaining import EntropyAwareTable, SeparateChainingTable
from repro.tables.probing import EntropyAwareProbingTable, LinearProbingTable
from tests.admission import submit

KEYS = google_urls(3000, seed=5)
MISSES = google_urls(6000, seed=6)[3000:]
SHARDS = 4
SEEDS = range(6)

EXECUTIONS = [
    "inline",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        ),
    ),
]


@pytest.fixture(scope="module")
def model():
    return train_model(KEYS, fixed_dataset=True)


def _probe_work(stats) -> float:
    """Tag checks per probe (probing) or key compares per probe
    (chaining, which has no tags) over a fleet's tables."""
    probes = sum(s.probes for s in stats)
    work = sum(s.tag_checks or s.key_comparisons for s in stats)
    return work / probes


def _shared_fleet_work(model, backend, seed):
    """Probe work and balance report of a fleet on the one shared hash."""
    with Service(num_shards=SHARDS, backend=backend, model=model,
                 capacity=len(KEYS), max_queue=4096, seed=seed) as service:
        client = ServiceClient(service)
        client.put_many((k, k) for k in KEYS)
        tables = [w.adapter.table for w in service.workers]
        for table in tables:
            table.stats.clear()
        assert client.multi_get(KEYS + MISSES) == KEYS + [None] * len(MISSES)
        return _probe_work([t.stats for t in tables]), service.router.balance()


def _independent_fleet_work(model, backend, seed):
    """The same fleet with the router hashing at an independent seed."""
    table_cls = {"probing": EntropyAwareProbingTable,
                 "chaining": EntropyAwareTable}[backend]
    tables = [table_cls(model, capacity=len(KEYS) // SHARDS, seed=seed)
              for _ in range(SHARDS)]
    router = HashEngine(tables[0].engine.hasher.with_seed(seed + 101))
    home = router.hash_batch(KEYS, FastRangeReducer(SHARDS)).tolist()
    away = router.hash_batch(MISSES, FastRangeReducer(SHARDS)).tolist()
    for shard, table in enumerate(tables):
        mine = [k for k, s in zip(KEYS, home) if s == shard]
        table.insert_batch(mine, mine)
        table.stats.clear()
        table.probe_batch(mine + [k for k, s in zip(MISSES, away) if s == shard])
    return _probe_work([t.stats for t in tables])


def _table_bits(table, keys):
    """What the table's reduction reads off the low hash bits of
    ``keys``: the probing tag, or the chaining bucket index."""
    hashes = table.engine.hash_batch(keys)
    if isinstance(table, EntropyAwareProbingTable):
        return SlotTagReducer(table.num_slots - 1).apply(hashes)[1].tolist()
    return (hashes & (table.num_buckets - 1)).tolist()


@pytest.mark.parametrize("backend", ["probing", "chaining"])
class TestPlacementQuality:
    def test_probe_work_within_noise_of_independent_seeds(self, model,
                                                           backend):
        shared = []
        for seed in SEEDS:
            work, balance = _shared_fleet_work(model, backend, seed)
            assert balance["within_bound"], balance
            shared.append(work)
        independent = [_independent_fleet_work(model, backend, seed)
                       for seed in SEEDS]
        noise = statistics.stdev(independent) / len(SEEDS) ** 0.5
        gap = abs(statistics.mean(shared) - statistics.mean(independent))
        assert gap <= 3 * noise, (shared, independent)

    def test_split_halves_keep_the_low_bits_whole(self, model, backend):
        with Service(num_shards=SHARDS, backend=backend, model=model,
                     capacity=len(KEYS), max_queue=4096) as service:
            client = ServiceClient(service)
            client.put_many((k, k) for k in KEYS)
            new_shard = service.split_shard(0)
            assert service.router.balance_of(KEYS)["per_shard"][new_shard]
            for shard in (0, new_shard):
                table = service.workers[shard].adapter.table
                held = [k for k, _ in table.items()]
                bits = _table_bits(table, held)
                odd = sum(b & 1 for b in bits) / len(bits)
                # Sub-routing on the low hash bits would leave each half
                # one parity: every tag (or bucket) odd, or every one even.
                assert 0.35 < odd < 0.65, (shard, odd)
                if backend == "probing":
                    assert len(set(bits)) > 128, (shard, len(set(bits)))
            assert client.multi_get(KEYS) == KEYS


@pytest.mark.parametrize("table_cls", [LinearProbingTable,
                                       SeparateChainingTable])
@pytest.mark.parametrize("n", [1, 15, 16, 300])
def test_carried_hash_paths_match_the_hashing_ones(table_cls, n):
    hasher = EntropyLearnedHasher.from_positions((40,))
    keys, misses = KEYS[:n], MISSES[:n]
    plain = table_cls(hasher, capacity=8)
    hashed = table_cls(hasher, capacity=8)
    plain.insert_batch(keys, keys)
    # Grows from 8 slots mid-batch: raw hashes outlive the geometry.
    hashed.insert_batch(keys, keys, hasher.hash_batch(keys).tolist())
    probes = keys + misses
    hashes = hasher.hash_batch(probes).tolist()
    assert hashed.probe_batch_hashed(probes, hashes) == \
        plain.probe_batch(probes) == keys + [None] * n
    assert vars(hashed.stats) == vars(plain.stats)
    assert hashed.delete_batch(probes, hashes) == \
        plain.delete_batch(probes) == [True] * n + [False] * n
    assert len(hashed) == len(plain) == 0


# ------------------------------------------------------------ stale plans


def _grown_plan_model():
    """One word certifies the fleet's partitioning floor; a shard table
    that grows to 512 slots needs the second word (a growth re-plan)."""
    return EntropyModel(result=GreedyResult(
        positions=[40, 48], word_size=8, entropies=[11.0, 40.0],
        train_collisions=[0, 0], train_size=1000, eval_size=1000,
    ))


def _insert_across_growths(table_cls, model, keys):
    """One ``insert_batch`` of distinct ``keys`` into a 64-slot table.

    Returns the table, its growths' re-inserts, and the batch keys
    still to insert when a growth first re-planned the hash (0: every
    growth kept the plan).
    """
    table = table_cls(model, capacity=64)
    plan = table.engine.hasher.fingerprint
    rehash = table._rehash
    counts = {"reinserts": 0, "rest": 0}

    def counting_rehash(size):
        if table.engine.hasher.fingerprint != plan and not counts["rest"]:
            counts["rest"] = len(keys) - len(table)
        counts["reinserts"] += len(table)
        rehash(size)

    table._rehash = counting_rehash
    table.insert_batch(keys)
    return table, counts["reinserts"], counts["rest"]


@pytest.mark.parametrize("table_cls", [EntropyAwareProbingTable,
                                       EntropyAwareTable])
class TestInsertBatchAcrossGrowths:
    KEYS = google_urls(20_000, seed=3)

    def test_same_plan_growths_keep_the_batch_hashes(self, table_cls,
                                                     model):
        table, reinserts, rest = _insert_across_growths(table_cls, model,
                                                        self.KEYS)
        assert rest == 0 and reinserts > 0
        # Only the growths' own re-inserts hash one key at a time.
        assert table.engine.counters.scalar_calls == reinserts
        assert table.probe_batch(self.KEYS) == self.KEYS

    def test_a_replanning_growth_rehashes_the_rest(self, table_cls):
        table, reinserts, rest = _insert_across_growths(
            table_cls, _grown_plan_model(), self.KEYS)
        assert 0 < rest < len(self.KEYS)
        assert table.engine.counters.scalar_calls == reinserts + rest
        assert table.probe_batch(self.KEYS) == self.KEYS


def _counters(service):
    return [
        (s["structure"]["hashes_carried"], s["structure"]["hashes_recomputed"])
        for s in service.stats()["shards"]
    ]


def _delta(after, before):
    return [(a[0] - b[0], a[1] - b[1]) for a, b in zip(after, before)]


def _direct_probes(service, keys):
    """Each key probed straight in its shard's table, hashing it there:
    the live table inline, a replay of the shard's journal otherwise."""
    answers = []
    tables = {}
    for key in keys:
        shard = service.router.table.route_one(key)
        if shard not in tables:
            worker = service.workers[shard]
            if worker.adapter is not None:
                tables[shard] = worker.adapter.table
            else:
                tables[shard] = ShardCore.from_spec(
                    service._spec, worker.journal.entries
                ).adapter.table
        answers.append(tables[shard].get(key))
    return answers


def _check_served(service, client, oracle):
    keys = list(oracle)
    served = client.multi_get(keys)
    assert served == [oracle[k] for k in keys]
    assert served == _direct_probes(service, keys)
    assert client.lost_acks == 0


def _fleet(model, execution, **options):
    settings = dict(num_shards=SHARDS, backend="probing", model=model,
                    capacity=800, max_queue=4096, execution=execution,
                    cooldown_pumps=10_000)
    settings.update(options)
    return Service(**settings)


@pytest.mark.parametrize("execution", EXECUTIONS)
class TestStalePlans:
    def test_growth_replan_recomputes(self, execution):
        keys = KEYS[:1200]
        with _fleet(_grown_plan_model(), execution,
                    capacity=256) as service:
            client = ServiceClient(service)
            oracle = {k: b"v" + k for k in keys[:300]}
            client.put_many(oracle.items())
            before = _counters(service)
            assert all(recomputed == 0 for _, recomputed in before)
            _check_served(service, client, oracle)
            assert all(c > 0 and r == 0
                       for c, r in _delta(_counters(service), before))
            # About 300 keys a shard: every table grows to 512 slots and
            # re-plans onto two words, off the router's one-word plan.
            oracle.update((k, b"w" + k) for k in keys[300:])
            client.put_many((k, oracle[k]) for k in keys[300:])
            before = _counters(service)
            _check_served(service, client, oracle)
            delta = _delta(_counters(service), before)
            assert all(c == 0 for c, _ in delta)
            assert sum(r for _, r in delta) == len(keys)

    def test_monitor_fallback_recomputes_on_its_shard_only(self, model,
                                                           execution):
        keys = KEYS[:800]
        with _fleet(model, execution) as service:
            client = ServiceClient(service)
            oracle = {k: b"v" + k for k in keys}
            client.put_many(oracle.items())
            service.force_trip(1)
            assert service.degraded
            before = _counters(service)
            _check_served(service, client, oracle)
            delta = _delta(_counters(service), before)
            assert delta[1][0] == 0 and delta[1][1] > 0
            assert all(c > 0 and r == 0
                       for i, (c, r) in enumerate(delta) if i != 1)

    def test_plan_swap_refreshes_queued_tickets(self, model, execution):
        keys = KEYS[:800]
        with _fleet(model, execution) as service:
            client = ServiceClient(service)
            oracle = {k: b"v" + k for k in keys}
            client.put_many(oracle.items())
            old_plan = service.router.engine.hasher.fingerprint
            # Queued under the old plan, served under the new one: the
            # flip sweep must re-hash each ticket it re-routes.
            tickets = submit(service, [Request("get", k) for k in keys])
            swapped = EntropyModel(result=GreedyResult(
                positions=[48], word_size=8, entropies=[float("inf")],
                train_collisions=[0], train_size=800, eval_size=800,
            ))
            before = _counters(service)
            assert service.relearn_swap(swapped) == SHARDS
            assert service.router.engine.hasher.fingerprint != old_plan
            service.drain()
            assert [t.response.value for t in tickets] == \
                [oracle[k] for k in keys]
            _check_served(service, client, oracle)
            # The rearmed tables plan the router's new plan: reuse
            # survives the swap.
            delta = _delta(_counters(service), before)
            assert sum(c for c, _ in delta) == 2 * len(keys)
            assert all(r == 0 for _, r in delta)

    def test_overlay_pinned_key_serves_from_its_hash(self, model, execution):
        keys = KEYS[:800]
        with _fleet(model, execution) as service:
            client = ServiceClient(service)
            oracle = {k: b"v" + k for k in keys}
            client.put_many(oracle.items())
            hot = keys[7]
            home = service.router.table.route_one(hot)
            target = (home + 1) % SHARDS
            service.reconfigure(
                service.router.table.with_overlay({hot: target})
            )
            before = _counters(service)
            assert client.get(hot) == oracle[hot]
            delta = _delta(_counters(service), before)
            assert delta[target] == (1, 0)
            _check_served(service, client, oracle)
            assert all(r == 0
                       for _, r in _delta(_counters(service), before))


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
def test_process_shards_receive_carried_uint64_columns(model):
    # 64 keys is above the router's per-key crossover: the call's
    # hashes stay one uint64 column, and each shard child gets slices.
    keys = KEYS[:64]
    sent = []
    with _fleet(model, "process") as service:
        for worker in service.workers:
            def recording(wire, crash_at, kill, serve=worker.execution.serve):
                sent.extend(hashes for _, _, _, hashes, _ in wire)
                return serve(wire, crash_at, kill)

            worker.execution.serve = recording
        client = ServiceClient(service)
        before = _counters(service)
        client.put_many((k, b"v" + k) for k in keys)
        assert client.multi_get(keys) == [b"v" + k for k in keys]
        delta = _delta(_counters(service), before)
    assert all(isinstance(hashes, np.ndarray) and hashes.dtype == np.uint64
               for hashes in sent)
    assert sum(hashes.size for hashes in sent) == 2 * len(keys)
    assert sum(carried for carried, _ in delta) == 2 * len(keys)
    assert all(recomputed == 0 for _, recomputed in delta)


def test_retry_round_routes_without_hashing_again(model):
    # A one-slot-deep fleet refuses most of each batch; the refused
    # tickets' carried hashes route their retries.
    keys = KEYS[:800]
    with Service(num_shards=SHARDS, backend="probing", model=model,
                 capacity=800, max_queue=16) as service:
        client = ServiceClient(service)
        engine = service.router.engine
        client.put_many((k, k) for k in keys)
        assert client.retries > 0
        assert engine.stats()["keys_hashed"] == len(keys)
        assert client.multi_get(keys) == keys
        assert engine.stats()["keys_hashed"] == 2 * len(keys)
