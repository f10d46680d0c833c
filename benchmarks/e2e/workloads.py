"""The three workloads: seeded inputs, set-up, a measured loop, checks.

Every workload makes its inputs from one seed, so the same seed gives
the same keys, values and operation stream.  A workload is measured in
*units* — one client call, one 128-op window or one kernel batch — and
the number of units comes from the run length: ``units_per_s`` units for
every second of ``--seconds``, a rate chosen so a run lasts about that
long on a 2-vCPU x86 host.  The unit count is therefore a fixed function
of the arguments, which keeps sample counts and the per-layer counts
repeatable at a seed.

Each unit is timed on its own, with reference laps
(:mod:`benchmarks.e2e.pace`) that scale its time to the nominal host
speed.  Its answers are checked after the timer stops: reads against a
dict oracle of the last written value, writes for an OK acknowledgement,
and the ack ledger at the end.  A failed check counts against
``failed``; nothing is retried by the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import resource
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import BlockedBloomFilter, LinearProbingTable, train_model
from repro.datasets import google_urls, hn_urls
from repro.service import Service, ServiceClient, run_service_workload
from repro.workloads.ycsb import WorkloadGenerator

from benchmarks.e2e import pace
from benchmarks.e2e.trace import ROOT

# The serving fleet shared by bulk_read and small_mixed.
FLEET_KEYS = 3_000
FLEET_SHARDS = 4
BACKEND = "probing"
MAX_QUEUE = 256
BATCH_SIZE = 64
VALUE_BYTES = 32

# Operation streams use their own seed stream, apart from the keys'.
OPS_SEED_OFFSET = 1_000_003
# Effectively endless operation streams; each unit takes what it needs.
ENDLESS = 1 << 62


def fleet_inputs(seed: int):
    """The fleet's keys and preloaded values (79-byte Google-style URLs)."""
    keys = google_urls(FLEET_KEYS, seed=seed)
    values = [b"%0*d" % (VALUE_BYTES, i) for i in range(len(keys))]
    return keys, values


def fleet_service(keys, values, **options) -> Service:
    """Train, build and preload the fleet; raises if the preload fails."""
    model = train_model(keys, fixed_dataset=True)
    service = Service(
        num_shards=FLEET_SHARDS, backend=BACKEND, model=model,
        capacity=len(keys), max_queue=MAX_QUEUE, batch_size=BATCH_SIZE,
        **options,
    )
    client = ServiceClient(service)
    responses = client.put_many(zip(keys, values))
    if client.lost_acks or not all(r.ok for r in responses):
        service.close()
        raise RuntimeError("preload was not acknowledged in full")
    return service


def service_counters(service: Service,
                     client: ServiceClient) -> Dict[str, int]:
    """Public counters of a service and its client at one instant,
    including every engine's: the router's and each inline shard's."""
    workers = service.workers
    engines = [service.router.engine] + [
        w.adapter.engine for w in workers if w.adapter is not None
    ]
    counters = {
        "shards": len(workers),
        "retries": client.retries,
        "backoff_pumps": client.backoff_pumps,
        "lost_acks": client.lost_acks,
        "submitted": service.submitted,
        "rejected": service.rejected,
        "pumps": service.pump_index,
        "processed": sum(w.processed for w in workers),
        "batches": sum(w.batches for w in workers),
        "journal_records": sum(w.journal.appended for w in workers),
    }
    counters.update(engine_counters(engines))
    return counters


def engine_counters(engines) -> Dict[str, int]:
    stats = [engine.stats() for engine in engines]
    return {
        "engine_keys": sum(s["keys_hashed"] for s in stats),
        "engine_batch_keys": sum(
            s["keys_hashed"] - s["scalar_calls"] for s in stats
        ),
        "engine_batches": sum(s["batches"] for s in stats),
        "engine_bytes": sum(s["bytes_hashed"] for s in stats),
    }


def delta(after: Dict[str, float], before: Dict[str, float]):
    """Counter increments between two snapshots; ``shards`` is a gauge
    and keeps its latest value."""
    return {
        key: (value if key == "shards" else value - before.get(key, 0))
        for key, value in after.items()
    }


def own_peak_rss_mb() -> float:
    """Peak resident set of this process's own memory image.

    Linux carries ``ru_maxrss`` across ``exec``, so it would report the
    launching process's peak whenever that was larger; ``VmHWM`` belongs
    to the image and starts afresh at ``exec``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Sample:
    """One measured stretch of a workload."""

    attempted: int = 0
    ops: int = 0                 # answered
    # Time inside the measured calls, at the nominal host speed
    # (``latencies``, ``busy_s``) and as the clock read it (``raw_s``).
    busy_s: float = 0.0
    raw_s: float = 0.0
    latencies: List[float] = field(default_factory=list)  # seconds/unit
    failed: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    # Per-layer totals from the tracer and the wall time they divide
    # into.  The tracer accumulates over a run's traced blocks, so a
    # later block's totals include the earlier ones'.
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    layer_wall_s: float = 0.0
    spans: List[Dict[str, object]] = field(default_factory=list)

    def add(self, raw: float, scaled: float, ops: int) -> None:
        self.latencies.append(scaled)
        self.busy_s += scaled
        self.raw_s += raw
        self.ops += ops
        self.attempted += ops


def combine(samples: List[Sample]) -> Sample:
    """One sample from consecutive blocks of one workload.  Counters and
    times add up; the tracer totals and spans are the last block's,
    which already hold the earlier blocks'."""
    out = Sample()
    for s in samples:
        out.attempted += s.attempted
        out.ops += s.ops
        out.busy_s += s.busy_s
        out.raw_s += s.raw_s
        out.failed += s.failed
        out.latencies += s.latencies
        for key, value in s.counts.items():
            out.counts[key] = (value if key == "shards"
                               else out.counts.get(key, 0) + value)
    out.layers = samples[-1].layers
    out.spans = samples[-1].spans
    return out


class Workload:
    """Set up once per repetition, warm up, then measure ``units``.

    The base class measures a closed loop: per unit, make the inputs,
    time :meth:`call` with a :class:`~benchmarks.e2e.pace.Meter` (inside
    a root span when traced), then :meth:`check` the answers.
    """

    name = ""
    units_per_s = 1.0
    warm_units = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def next_inputs(self) -> None:
        raise NotImplementedError

    def call(self) -> int:
        """Run one unit on the prepared inputs; returns its op count."""
        raise NotImplementedError

    def check(self) -> int:
        """Failed answers of the unit just run."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        raise NotImplementedError

    def measure(self, units: int, tracer=None) -> Sample:
        sample = Sample()
        before = self.counters()
        call = (self.call if tracer is None
                else functools.partial(self._traced_call, tracer))
        # Units are short next to the host's changes of speed, so the
        # laps between them suffice; a lap inside a call would also land
        # inside the library's work and its spans.
        with pace.Meter(sampling=False) as meter:
            for _ in range(units):
                self.next_inputs()
                ops, raw, scaled = meter.time(call)
                sample.add(raw, scaled, ops)
                sample.failed += self.check()
        sample.counts = delta(self.counters(), before)
        return sample

    def _traced_call(self, tracer) -> int:
        tracer.enter(ROOT)
        try:
            return self.call()
        finally:
            tracer.exit()

    def final_failures(self) -> int:
        """Failures only visible at the end of the run (lost acks)."""
        return 0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- fleet


class RecordingClient(ServiceClient):
    """A client that logs every batch call's inputs and answers, so the
    benchmark can check them against its oracle outside the timer."""

    def __init__(self, service: Service):
        super().__init__(service)
        self.log: List[tuple] = []

    def multi_get(self, keys):
        values = super().multi_get(keys)
        self.log.append(("get", keys, values))
        return values

    def put_many(self, pairs):
        pairs = list(pairs)
        responses = super().put_many(pairs)
        self.log.append(("put", pairs, responses))
        return responses


class _Fleet(Workload):
    """An inline 4-shard fleet driven through :class:`ServiceClient`."""

    service_options: Dict[str, object] = {}
    mix = "C"
    theta = 0.0
    service = None

    def setup(self, seed: int) -> None:
        keys, values = fleet_inputs(seed)
        self.service = fleet_service(keys, values, **self.service_options)
        self.client = RecordingClient(self.service)
        self.oracle = dict(zip(keys, values))
        generator = WorkloadGenerator(
            keys, mix=self.mix, seed=seed + OPS_SEED_OFFSET,
            value_bytes=VALUE_BYTES, zipf_theta=self.theta,
        )
        self.ops = generator.operations(ENDLESS)

    def check(self) -> int:
        """Replay the client's log against the oracle, in call order."""
        failed = 0
        oracle = self.oracle
        for kind, inputs, outputs in self.client.log:
            if kind == "get":
                failed += sum(
                    1 for key, value in zip(inputs, outputs)
                    if oracle.get(key) != value
                )
            else:
                for (key, value), response in zip(inputs, outputs):
                    if response.ok:
                        oracle[key] = value
                    else:
                        failed += 1
        self.client.log.clear()
        return failed

    def counters(self) -> Dict[str, int]:
        return service_counters(self.service, self.client)

    def final_failures(self) -> int:
        return self.client.lost_acks

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


class BulkRead(_Fleet):
    """YCSB-C, uniform: multi_get calls of 2,048 keys, closed loop."""

    name = "bulk_read"
    units_per_s = 6.0
    warm_units = 2
    call_keys = 2_048

    def next_inputs(self) -> None:
        self.keys = [op.key for op in itertools.islice(self.ops,
                                                       self.call_keys)]

    def call(self) -> int:
        self.client.multi_get(self.keys)
        return len(self.keys)


class SmallMixed(_Fleet):
    """YCSB-A, zipf 0.99: 128-op windows through run_service_workload."""

    name = "small_mixed"
    units_per_s = 45.0
    warm_units = 40
    window = 128
    mix = "A"
    theta = 0.99
    service_options = {"hot_k": 16, "hot_sample": 4, "adapt_every": 4}

    def next_inputs(self) -> None:
        self.window_ops = list(itertools.islice(self.ops, self.window))

    def call(self) -> int:
        run_service_workload(self.client, self.window_ops)
        return len(self.window_ops)


# ---------------------------------------------------------------- kernel


class KernelProbe(Workload):
    """Batched probes of a learned-hash table and filter; no service."""

    name = "kernel_probe"
    units_per_s = 90.0
    warm_units = 20
    table_slots = 1 << 17
    stored_keys = 91_750          # load 0.70 of the table's slots
    missing_keys = 20_000
    train_sample = 20_000
    batch = 4_096                 # half hits, half misses

    def setup(self, seed: int) -> None:
        keys = hn_urls(self.stored_keys + self.missing_keys, seed=seed)
        self.stored = keys[:self.stored_keys]
        self.missing = keys[self.stored_keys:]
        model = train_model(self.stored[:self.train_sample], seed=seed)
        self.table = LinearProbingTable(
            model.hasher_for_probing_table(self.stored_keys),
            capacity=self.table_slots,
        )
        # Stored values are the keys themselves: a hit returns its key.
        self.table.insert_batch(self.stored)
        self.bloom = BlockedBloomFilter.for_items(
            model.hasher_for_bloom_filter(self.stored_keys),
            self.stored_keys,
        )
        self.bloom.add_batch(self.stored)
        self.rng = np.random.default_rng(seed + OPS_SEED_OFFSET)

    def counters(self) -> Dict[str, int]:
        return engine_counters([self.table.engine, self.bloom.engine])

    def next_inputs(self) -> None:
        hits = self.batch // 2
        rng = self.rng
        stored, missing = self.stored, self.missing
        keys = ([stored[i] for i in rng.integers(0, len(stored), hits)]
                + [missing[i] for i in rng.integers(0, len(missing),
                                                    self.batch - hits)])
        expected = keys[:hits] + [None] * (self.batch - hits)
        order = rng.permutation(self.batch).tolist()
        self.keys = [keys[i] for i in order]
        self.expected = [expected[i] for i in order]
        self.is_hit = np.asarray(order) < hits

    def call(self) -> int:
        self.found = self.table.probe_batch(self.keys)
        self.member = self.bloom.contains_batch(self.keys)
        return len(self.keys)

    def check(self) -> int:
        failed = 0
        if self.found != self.expected:
            failed += sum(1 for got, want in zip(self.found, self.expected)
                          if got != want)
        # A Bloom filter may say yes to a miss, never no to a hit.
        return failed + int(np.count_nonzero(~self.member[self.is_hit]))
