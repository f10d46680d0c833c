"""Tests for online drift detection and re-learning (repro.drift).

Covers the sliding-window Rényi-2 estimator, the per-shard detector's
hysteresis (including the exact-boundary and claim-ceiling cases), the
relearner's decision guards (dedupe, stale-shard exclusion, no-op
suppression), the certified frontier, the geometry reset on
``table.relearn``, the fingerprint staleness recompute exercised
by ``engine.rearm``, the journal stats + compaction exposed through
``Service.stats()``, and the end-to-end drill through the real CLI.
"""

import math

import pytest

from repro.cli import main
from repro.core.entropy import entropy_confidence_lower_bound
from repro.core.partial_key import PartialKeyFunction
from repro.core.sizing import (
    entropy_for_chaining_table,
    entropy_for_probing_table,
)
from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.drift import (
    DriftDetector,
    Relearner,
    ReservoirSample,
    SlidingWindowEntropy,
    deployed_plan,
    drift_key,
    required_entropy_for_spec,
)
from repro.drift.relearner import certified_model
from repro.core.hasher import EntropyLearnedHasher
from repro.service import (
    AdapterSpec,
    Service,
    ServiceClient,
    fork_available,
    run_service_workload,
)
from repro.tables.chaining import (
    DEFAULT_MAX_LOAD as CHAINING_MAX_LOAD,
    EntropyAwareTable,
)
from repro.tables.probing import (
    DEFAULT_MAX_LOAD as PROBING_MAX_LOAD,
    EntropyAwareProbingTable,
)
from repro._util import next_power_of_two
from repro.workloads import Operation


@pytest.fixture(scope="module")
def corpus():
    return google_urls(600, seed=21)


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, fixed_dataset=True)


# --------------------------------------------------------------- window


class TestSlidingWindowEntropy:
    def test_exact_pair_count_with_eviction(self):
        w = SlidingWindowEntropy(window=4)
        stream = [b"a", b"b", b"a", b"c", b"a", b"a", b"b", b"c", b"a"]
        for i, s in enumerate(stream):
            w.add(s)
            tail = stream[max(0, i + 1 - 4):i + 1]
            expected = sum(
                tail.count(x) * (tail.count(x) - 1) // 2 for x in set(tail)
            )
            assert w.colliding_pairs == expected

    def test_all_distinct_reports_resolution_limit(self):
        w = SlidingWindowEntropy(window=8)
        for i in range(8):
            w.add(bytes([i]))
        assert w.colliding_pairs == 0
        assert w.entropy() == pytest.approx(math.log2(8 * 7 / 2))

    def test_constant_stream_has_zero_entropy(self):
        w = SlidingWindowEntropy(window=8)
        for _ in range(8):
            w.add(b"same")
        assert w.entropy() == pytest.approx(0.0)

    def test_reset(self):
        w = SlidingWindowEntropy(window=4)
        for _ in range(4):
            w.add(b"x")
        w.reset()
        assert w.fill == 0
        assert w.colliding_pairs == 0

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            SlidingWindowEntropy(window=3)


# ------------------------------------------------------------- reservoir


class TestReservoirSample:
    def test_bounded_by_capacity(self):
        r = ReservoirSample(capacity=8, seed=0)
        for i in range(200):
            r.add(b"key-%d" % i)
        assert 0 < len(r) <= 8

    def test_epoch_reset_keeps_sample_recent(self):
        r = ReservoirSample(capacity=4, seed=0, epoch=10)
        for i in range(35):
            r.add(b"key-%d" % i)
        assert r.epochs == 3
        # Epoch 4 started at observation 30: only its keys survive.
        recent = {b"key-%d" % i for i in range(30, 35)}
        assert set(r.sample()) <= recent

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReservoirSample(capacity=2)
        with pytest.raises(ValueError):
            ReservoirSample(capacity=8, epoch=4)


# -------------------------------------------------------------- detector


def _detector(**kwargs):
    defaults = dict(
        partial_key=PartialKeyFunction(positions=(0,), word_size=1),
        claimed_entropy=8.0,
        window=8,
        margin=0.5,
        patience=1,
        reservoir=8,
        min_fill=1.0,
    )
    defaults.update(kwargs)
    return DriftDetector(**defaults)


def _fill_half_colliding(detector):
    """Eight distinct 2-byte keys whose subkeys form two groups of 4.

    Window estimate: ``-log2(12 / 28)`` — two groups of four subkeys
    contribute ``2 * C(4,2) = 12`` colliding pairs out of ``C(8,2)``.
    """
    for i in range(4):
        detector.observe(b"a" + bytes([i]))
        detector.observe(b"b" + bytes([i]))
    return math.log2(28 / 12)


class TestDriftDetectorHysteresis:
    def test_boundary_estimate_is_not_a_breach(self):
        d = _detector()
        estimate = _fill_half_colliding(d)
        # claimed - margin lands exactly on the window estimate: the
        # comparison is strict, so sitting on the boundary never trips.
        d.claimed_entropy = estimate + d.margin
        assert d.check() is False
        assert d.breaches == 0
        assert d.trips == 0

    def test_just_past_boundary_breaches(self):
        d = _detector()
        estimate = _fill_half_colliding(d)
        d.claimed_entropy = estimate + d.margin + 1e-9
        assert d.check() is True
        assert d.trips == 1

    def test_patience_requires_consecutive_breaches(self):
        d = _detector(patience=2)
        estimate = _fill_half_colliding(d)
        d.claimed_entropy = estimate + d.margin + 1e-9
        assert d.check() is False          # first breach, no trip yet
        d.claimed_entropy = estimate       # healthy check resets streak
        assert d.check() is False
        assert d.breaches == 0
        d.claimed_entropy = estimate + d.margin + 1e-9
        assert d.check() is False          # streak restarted at 1
        assert d.check() is True           # second consecutive: trip
        assert d.trips == 1

    def test_calm_resets_streak(self):
        d = _detector(patience=2)
        estimate = _fill_half_colliding(d)
        d.claimed_entropy = estimate + d.margin + 1e-9
        d.check()
        d.calm()
        assert d.breaches == 0

    def test_infinite_claim_clamped_to_window_ceiling(self):
        # A collision-free training set claims +inf entropy; a
        # collision-free window is evidence *for* the claim, so the
        # claim is held to the window's resolution limit, not breached.
        d = _detector(claimed_entropy=math.inf)
        for i in range(8):
            d.observe(bytes([i, i]))       # 8 distinct subkeys
        assert d.check() is False
        assert d.breaches == 0

    def test_underfilled_window_never_checks(self):
        d = _detector(min_fill=1.0)
        for i in range(4):
            d.observe(bytes([i, i]))
        assert d.check() is False
        assert d.checks == 0

    def test_duplicate_raw_keys_skipped(self):
        d = _detector()
        for _ in range(10):
            d.observe(b"hot-key")
        assert d.window.fill == 1
        assert d.duplicates_skipped == 9
        # Once the last occurrence ages out, the key may re-enter.
        for i in range(8):
            d.observe(bytes([i, 0, 0]))
        d.observe(b"hot-key")
        assert d.duplicates_skipped == 9

    def test_rearm_clears_window_keeps_reservoir(self):
        d = _detector()
        _fill_half_colliding(d)
        seen_before = d.reservoir.seen
        d.rearm(PartialKeyFunction(positions=(1,), word_size=1), 6.0)
        assert d.window.fill == 0
        assert d.claimed_entropy == 6.0
        assert d.reservoir.seen == seen_before


# ----------------------------------------------------- relearner decisions


def _spec(backend: str, capacity: int = 800, min_entropy: float = 0.0):
    return AdapterSpec(backend, capacity,
                       hasher=EntropyLearnedHasher.full_key(),
                       min_entropy=min_entropy)


class TestRequiredEntropy:
    def test_chaining_mirrors_fresh_build_geometry(self):
        spec = _spec("chaining")
        buckets = next_power_of_two(800)
        expected = entropy_for_chaining_table(
            int(CHAINING_MAX_LOAD * buckets)
        )
        assert required_entropy_for_spec(spec) == pytest.approx(expected)
        # The raw capacity would have understated the bar.
        assert expected > entropy_for_chaining_table(800) - 1e-9

    def test_probing_mirrors_fresh_build_geometry(self):
        spec = _spec("probing")
        slots = next_power_of_two(800)
        expected = entropy_for_probing_table(int(PROBING_MAX_LOAD * slots))
        assert required_entropy_for_spec(spec) == pytest.approx(expected)

    def test_fleet_floor_lifts_a_small_table(self):
        # A fleet's partitioning requirement floors its tables' plans.
        spec = _spec("probing", capacity=16, min_entropy=10.6)
        assert required_entropy_for_spec(spec) == pytest.approx(10.6)

    def test_unknown_backend_rejected(self):
        spec = _spec("bloom")
        with pytest.raises(ValueError):
            required_entropy_for_spec(spec)


class TestEntropyAwareDefaults:
    @pytest.mark.parametrize("table_cls, load, requirement", [
        (EntropyAwareTable, 1.0, entropy_for_chaining_table),
        (EntropyAwareProbingTable, 0.875, entropy_for_probing_table),
    ])
    def test_build_without_max_load_keeps_its_tables_load(
            self, model, table_cls, load, requirement):
        # Built without max_load, an entropy-aware table keeps its
        # host table's default load and plans the hasher that
        # required_entropy names for that load.
        table = table_cls(model, capacity=300, seed=2)
        assert table.max_load == load
        required = table_cls.required_entropy(300)
        assert required == requirement(int(load * next_power_of_two(300)))
        assert table.hasher.fingerprint == model.hasher_for_entropy(
            required, seed=2).fingerprint


class TestCertifiedModel:
    def test_frontier_replaced_by_confidence_bounds(self, model):
        cert = certified_model(model, 20.0)
        eval_size = model.result.eval_size
        for got, est in zip(cert.result.entropies, model.result.entropies):
            expected = entropy_confidence_lower_bound(
                est, eval_size, leading_constant=20.0
            )
            assert got == pytest.approx(expected)

    def test_certified_frontier_stays_sorted(self, model):
        cert = certified_model(model, 20.0)
        finite = [e for e in cert.result.entropies if math.isfinite(e)]
        assert finite == sorted(finite)

    def test_certification_never_relaxes_the_plan(self, model):
        # The certified model reads at least as many words as the
        # point-estimate model for any requirement it can still meet.
        cert = certified_model(model, 20.0)
        for required in (4.0, 8.0, 10.0):
            raw_words = model.result.min_words_for_entropy(required)
            cert_words = cert.result.min_words_for_entropy(required)
            if cert_words is not None:
                assert raw_words is not None
                assert cert_words >= raw_words


class TestRelearnerGuards:
    def _relearner(self, **kwargs):
        defaults = dict(service=None, window=8, margin=0.5, patience=1,
                        reservoir=8, min_dwell=0, min_sample=4)
        defaults.update(kwargs)
        return Relearner(**defaults)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self._relearner(min_dwell=-1)
        with pytest.raises(ValueError):
            self._relearner(min_sample=2)
        with pytest.raises(ValueError):
            self._relearner(confidence_constant=0.0)

    def test_union_sample_deduplicates(self):
        r = self._relearner()
        d = _detector()
        for key in (b"aa", b"aa", b"aa", b"bb"):
            d.reservoir.add(key)
        r._detectors[0] = d
        assert sorted(r._union_sample()) == [b"aa", b"bb"]

    def test_union_sample_excludes_stale_shards(self):
        r = self._relearner()
        live, idle = _detector(), _detector()
        live.reservoir.add(b"live-key")
        idle.reservoir.add(b"idle-key")
        r._detectors[0] = live
        r._detectors[1] = idle
        # Snapshot, then only shard 0 sees more traffic.
        r._snapshot_seen()
        live.reservoir.add(b"live-key-2")
        assert b"idle-key" not in r._union_sample()
        assert r.stale_excluded == 1


# ------------------------------------------------- geometry reset (tables)


class TestRelearnGeometryReset:
    def test_chaining_relearn_resets_transient_growth(self, corpus, model):
        table = EntropyAwareTable(model, capacity=64, seed=3)
        spec_buckets = table.num_buckets
        for key in corpus:
            table.insert(key, key)
        assert table.num_buckets > spec_buckets   # ballooned under load
        survivors = corpus[:40]
        for key in corpus[40:]:
            table.delete(key)
        table.relearn(model)
        # Fresh-build geometry for 40 resident keys at the spec'd
        # capacity: the balloon must not ratchet the entropy demand.
        fit = next_power_of_two(
            max(int(math.ceil(40 / table.max_load)), 2)
        )
        assert table.num_buckets == max(spec_buckets, fit)
        for key in survivors:
            assert table.get(key) == key

    def test_probing_relearn_resets_transient_growth(self, corpus, model):
        table = EntropyAwareProbingTable(model, capacity=64, seed=3)
        spec_slots = table.num_slots
        for key in corpus:
            table.insert(key, key)
        assert table.num_slots > spec_slots
        survivors = corpus[:40]
        for key in corpus[40:]:
            table.delete(key)
        table.relearn(model)
        fit = next_power_of_two(
            max(int(math.ceil(40 / table.max_load)), 2)
        )
        assert table.num_slots == max(spec_slots, fit)
        for key in survivors:
            assert table.get(key) == key


# ------------------------------------- fingerprint staleness (engine.rearm)


class TestRearmMidBatchStaleness:
    """A key hashed under the old plan during a swap is recomputed.

    Batch inserts take the hasher's fingerprint at hash time; a rearm
    (monitor fallback or plan re-learn) onto another plan changes it,
    and the insert must discard the stale hash rather than place the
    key in the wrong bucket.
    """

    def test_chaining_insert_recomputes_stale_hash(self, corpus, model):
        table = EntropyAwareTable(model, capacity=1024, seed=3)
        for key in corpus[:100]:
            table.insert(key, key)
        straggler = corpus[100]
        stale_hash = int(table.engine.hash_batch([straggler])[0])
        stale_plan = table.engine.hasher.fingerprint
        table.engine.rearm(
            EntropyLearnedHasher.full_key(
                table.engine.hasher.base, seed=table.engine.hasher.seed
            )
        )
        assert table.engine.hasher.fingerprint != stale_plan
        table.rebuild_with_hasher(table.engine.hasher)
        # The straggler carries a hash taken before the swap: the
        # fingerprint mismatch must force a recompute at insert time.
        table._insert_one(straggler, straggler, stale_hash, stale_plan)
        assert table.get(straggler) == straggler


# -------------------------------------------- service: stats + swap + e2e


def _drifted_model(corpus, model, spec):
    plan, _ = deployed_plan(model, required_entropy_for_spec(spec))
    drifted = [drift_key(k, plan.positions, word_size=plan.word_size)
               for k in corpus]
    return train_model(drifted, fixed_dataset=True)


class TestServiceJournalStats:
    def test_stats_expose_per_shard_journal_health(self, corpus, model):
        with Service(num_shards=3, backend="chaining", model=model,
                     capacity=1024, seed=5) as service:
            client = ServiceClient(service)
            client.put_many((key, b"v") for key in corpus)
            service.drain()
            shards = service.stats()["shards"]
        assert len(shards) == 3
        for shard in shards:
            journal = shard["journal"]
            assert journal["length"] > 0
            assert journal["appended"] >= journal["length"]
            assert {"length", "appended", "truncations",
                    "last_compaction"} <= set(journal)

    def test_relearn_swap_compacts_journals(self, corpus, model):
        with Service(num_shards=3, backend="chaining", model=model,
                     capacity=1024, seed=5) as service:
            client = ServiceClient(service)
            client.put_many((key, key) for key in corpus)
            for key in corpus[:100]:        # superseded entries to compact
                client.put(key, key + b"*")
            service.drain()
            swapped = service.relearn_swap(
                _drifted_model(corpus, model, service._spec)
            )
            assert swapped == 3
            stats = service.stats()
            assert stats["plan_swaps"] == 1
            for shard in stats["shards"]:
                assert shard["journal"]["last_compaction"] is not None
            # Zero lost writes across the swap, including rerouted keys.
            for key in corpus[:100]:
                assert client.get(key) == key + b"*"
            for key in corpus[100:]:
                assert client.get(key) == key

    @pytest.mark.skipif(not fork_available(),
                        reason="fork start method unavailable")
    def test_relearn_swap_rehashes_every_process_child(self, corpus, model):
        # The re-learned model ships to each live shard child as a
        # "rearm" control op: every child must rehash in place (no
        # restart), and every acked key must survive the swap.
        with Service(num_shards=3, backend="chaining", model=model,
                     capacity=1024, seed=5, execution="process") as service:
            client = ServiceClient(service)
            client.put_many((key, key) for key in corpus)
            service.drain()
            swapped = service.relearn_swap(
                _drifted_model(corpus, model, service._spec)
            )
            assert swapped == service.num_shards
            assert not any(worker.crashed for worker in service.workers)
            assert all(worker.restarts == 0 for worker in service.workers)
            assert client.multi_get(corpus) == list(corpus)
            assert client.lost_acks == 0


class TestPlanSwapStability:
    def test_stationary_distribution_never_swaps(self, corpus, model):
        """No flapping: an unchanged distribution performs zero swaps."""
        with Service(num_shards=3, backend="chaining", model=model,
                     capacity=1024, seed=5, relearn=True, drift_window=64,
                     min_dwell=4, adapt_every=2) as service:
            client = ServiceClient(service)
            client.put_many((key, b"v") for key in corpus)
            service.drain()
            reads = [Operation("read", key) for key in corpus] * 4
            run_service_workload(client, reads)
            service.drain()
            stats = service.stats()
        assert stats["plan_swaps"] == 0
        assert all(shard["trips"] == 0
                   for shard in stats["drift"]["shards"].values())

    def test_identical_relearned_positions_suppress_the_swap(
            self, corpus, model, monkeypatch):
        """The no-op guard: a re-train that reproduces the running plan
        must not pay a fleet-wide rehash (flap protection)."""
        with Service(num_shards=3, backend="chaining", model=model,
                     capacity=1024, seed=5, relearn=True, drift_window=64,
                     min_dwell=0, min_sample=4, adapt_every=2) as service:
            client = ServiceClient(service)
            client.put_many((key, b"v") for key in corpus)
            service.drain()
            run_service_workload(
                client, [Operation("read", key) for key in corpus]
            )
            service.drain()
            relearner = service.relearner
            assert relearner._detectors      # taps fed the detectors
            detector = next(iter(relearner._detectors.values()))
            monkeypatch.setattr(detector, "check", lambda: True)
            # Re-training "finds" the very model already deployed: the
            # decision must be a suppressed no-op, not a swap.
            monkeypatch.setattr(
                "repro.drift.relearner.train_model",
                lambda sample, **kwargs: service._spec.model,
            )
            monkeypatch.setattr(
                "repro.drift.relearner.certified_model",
                lambda m, c: m,
            )
            assert relearner.pump(10_000) == "noop"
            assert relearner.noop_suppressed == 1
            assert relearner.swaps == 0
            assert service.stats()["plan_swaps"] == 0

    def test_retraining_on_same_sample_is_deterministic(self, corpus):
        first = train_model(corpus, fixed_dataset=True)
        second = train_model(corpus, fixed_dataset=True)
        assert first.result.positions == second.result.positions


class TestEndToEndDrill:
    def test_cli_drift_drill_inline(self):
        """Inject drift -> detector trips -> re-learn -> certified swap,
        through the real CLI with --check (zero lost acks, balanced
        shards, at least one swap)."""
        assert main([
            "serve", "--shards", "3", "--backend", "chaining",
            "--num-keys", "800", "--ops", "6000", "--seed", "0",
            "--relearn", "--drift-window", "128", "--min-dwell", "8",
            "--adapt-every", "4", "--drift-reservoir", "2048",
            "--theta", "0.1", "--inject", "drift:workload:0:after=1500",
            "--execution", "inline", "--check",
        ]) == 0
