"""Engine benchmark — one batched pipeline pass vs the scalar loop.

Every structure now routes hashing through its
:class:`~repro.engine.HashEngine`; this benchmark quantifies what that
buys.  For each structure it times the batched path (one compiled
gather + one numpy kernel call + fused reduction) against the per-key
scalar loop over the same mixed-length keys, and reports ns/key plus
the speedup.  ``bench_records()`` returns the same numbers as JSON-able
records; ``run_all.py`` collects them into ``BENCH_engine.json``.

The ``hash_batch_cost`` records are the curve behind the engine's
``SCALAR_CUTOVER`` and ``_PACK_CHUNK``: for every base with a numpy
kernel, the µs per call of the engine's scalar loop (the hasher's
compiled closure per key) and of its own plan pass (join, pack, kernel)
from 1 to 16,384 keys.  The cutover is the smallest size from which the
plan is no slower; the chunk is the size past which the plan's µs per
key stops falling.  A second series (``reducer: "slot_tag"``) fuses a
``SlotTagReducer`` the way tables call the engine: ``apply_each`` per
hash on the scalar side, one ``apply`` on the plan side.

The ``probe_walk_cost`` records are the curve behind the probing
table's ``_ROUND_MIN``: for a batch of n probes, the µs per call of the
one-by-one walk and of the walk that opens with one vectorized round.
``_ROUND_MIN`` is the smallest n from which the round is no slower,
judged by the median ratio of back-to-back sample pairs.
"""

import os
import statistics
import time

import numpy as np

from repro.bench.harness import (
    build_probe_mix,
    latency_summary_ns,
    time_callable,
    time_samples,
)
from repro.bench.reporting import format_speedup_table, print_header
from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import train_model
from repro.datasets import hn_urls
from repro.engine import HashEngine, SlotTagReducer
from repro.engine.engine import _PACK_CHUNK, SCALAR_CUTOVER
from repro.filters.blocked import BlockedBloomFilter
from repro.hashing.vectorized import BATCH_KERNELS
from repro.partitioning.partitioner import Partitioner
from repro.tables.chaining import SeparateChainingTable
from repro.tables.probing import _ROUND_MIN, LinearProbingTable

NUM_KEYS = 10_000          # mixed-length HN URLs; half stored
NUM_PROBES = 5_000         # acceptance floor is 4k
REPEATS = 3
LATENCY_REPEATS = 7        # batch-call samples behind the p50/p99 fields
COST_SIZES = (1, 2, 4, 8, 12, 16, 24, 32, 64, 128, 256, 1024, 4096, 16384)
COST_REPEATS = 7           # best-of samples per (base, size) point
COST_SAMPLE_S = 0.004      # wall time one sample loops for
WALK_SIZES = (4, 8, 16, 24, 32, 48, 64, 128, 192, 256, 384)
WALK_SLOTS = 4096          # probe_walk_cost table, filled to load 0.7
WALK_PROBES = 4096         # half misses, cut into batches of each size
WALK_REPEATS = 15          # the two walks differ by a few % near the crossover


def _workload():
    keys = hn_urls(NUM_KEYS, seed=23)
    half = len(keys) // 2
    stored, missing = keys[:half], keys[half:]
    model = train_model(stored, seed=5)
    probes = build_probe_mix(stored, missing, hit_rate=0.5,
                             num_probes=NUM_PROBES, seed=7)
    return model, stored, probes


def _record(name, n, scalar_s, batch_samples):
    # best-of-k for throughput (interpreter noise only inflates), the
    # full sample distribution for the per-key latency percentiles.
    batch_s = min(batch_samples)
    record = {
        "benchmark": name,
        "n_keys": n,
        "batch_size": n,
        "scalar_ns_per_key": scalar_s * 1e9 / n,
        "batch_ns_per_key": batch_s * 1e9 / n,
        "keys_per_second_batched": n / batch_s if batch_s else float("inf"),
        "speedup": scalar_s / batch_s if batch_s else float("inf"),
    }
    record.update(latency_summary_ns(batch_samples, items_per_sample=n))
    return record


def bench_records():
    """Time each structure's batch path against its scalar loop."""
    model, stored, probes = _workload()
    records = []

    hasher = model.hasher_for_probing_table(len(stored))
    capacity = int(len(stored) / 0.7)

    def insert_scalar():
        fresh = LinearProbingTable(hasher, capacity=capacity)
        for key in stored:
            fresh.insert(key, None)

    def insert_batched():
        LinearProbingTable(hasher, capacity=capacity).insert_batch(stored)

    scalar_s = time_callable(insert_scalar, repeats=REPEATS)
    batch_samples = time_samples(insert_batched, repeats=LATENCY_REPEATS)
    records.append(
        _record("probing_insert", len(stored), scalar_s, batch_samples))

    table = LinearProbingTable(hasher, capacity=capacity)
    table.insert_batch(stored)
    scalar_s = time_callable(lambda: [table.get(k) for k in probes],
                             repeats=REPEATS)
    batch_samples = time_samples(lambda: table.probe_batch(probes),
                                 repeats=LATENCY_REPEATS)
    records.append(
        _record("probing_probe", len(probes), scalar_s, batch_samples))

    chaining = SeparateChainingTable(
        model.hasher_for_chaining_table(len(stored)), capacity=len(stored))
    chaining.insert_batch(stored)
    scalar_s = time_callable(lambda: [chaining.get(k) for k in probes],
                             repeats=REPEATS)
    batch_samples = time_samples(lambda: chaining.probe_batch(probes),
                                 repeats=LATENCY_REPEATS)
    records.append(
        _record("chaining_probe", len(probes), scalar_s, batch_samples))

    bloom = BlockedBloomFilter.for_items(
        model.hasher_for_bloom_filter(len(stored)), expected_items=len(stored))
    bloom.add_batch(stored)
    scalar_s = time_callable(lambda: [bloom.contains(k) for k in probes],
                             repeats=REPEATS)
    batch_samples = time_samples(lambda: bloom.contains_batch(probes),
                                 repeats=LATENCY_REPEATS)
    records.append(
        _record("bloom_contains", len(probes), scalar_s, batch_samples))

    partitioner = Partitioner(
        model.hasher_for_partitioning(len(probes), 64), num_partitions=64)
    engine = partitioner.engine
    reducer = partitioner._reducer
    scalar_s = time_callable(
        lambda: [engine.hash_one(k, reducer) for k in probes],
        repeats=REPEATS)
    batch_samples = time_samples(lambda: partitioner.assign(probes),
                                 repeats=LATENCY_REPEATS)
    records.append(
        _record("partition_assign", len(probes), scalar_s, batch_samples))
    records.extend(cost_curve_records(hasher, probes))
    records.extend(walk_curve_records(model, stored))
    return records


def _interleaved_us_per_call(funcs, repeats=COST_REPEATS):
    """Per-call µs samples for each of ``funcs``, sampled in turn so a
    burst of host noise lands on every function alike.  Each sample
    loops its function for about COST_SAMPLE_S."""
    loops = []
    for func in funcs:
        start = time.perf_counter()
        func()
        elapsed = max(time.perf_counter() - start, 1e-7)
        loops.append(max(1, int(COST_SAMPLE_S / elapsed)))
    samples = [[] for _ in funcs]
    for _ in range(repeats):
        for func, count, out in zip(funcs, loops, samples):
            start = time.perf_counter()
            for _ in range(count):
                func()
            out.append((time.perf_counter() - start) * 1e6 / count)
    return samples


def cost_curve_records(hasher, probes):
    """The engine's scalar loop vs its plan pass, µs per call, per base,
    size and series (raw hashes; ``SlotTagReducer`` fused).  The plan
    pass is timed unchunked at every size, so the records past
    ``_PACK_CHUNK`` show what a larger chunk would buy."""
    records = []
    L = hasher.partial_key
    long_keys = [k for k in probes if len(k) >= L.last_byte_used]
    slot_tag = SlotTagReducer(1023)
    for base in sorted(BATCH_KERNELS):
        engine = HashEngine(EntropyLearnedHasher(L, base=base))
        for n in COST_SIZES:
            keys = (long_keys * -(-n // len(long_keys)))[:n]
            scalar_raw, plan_raw, scalar_fused, plan_fused = (
                _interleaved_us_per_call((
                    lambda: np.array(engine._hash_scalar(keys, None),
                                     dtype=np.uint64),
                    lambda: engine._hash_planned(keys, 0),
                    lambda: slot_tag.apply_each(
                        engine._hash_scalar(keys, None)),
                    lambda: slot_tag.apply(engine._hash_planned(keys, 0)),
                )))
            for reducer, scalar_samples, plan_samples in (
                (None, scalar_raw, plan_raw),
                ("slot_tag", scalar_fused, plan_fused),
            ):
                scalar_us, plan_us = min(scalar_samples), min(plan_samples)
                record = {
                    "benchmark": "hash_batch_cost",
                    "base": base,
                    "reducer": reducer,
                    "n_keys": n,
                    "batch_size": n,
                    "scalar_us_per_call": scalar_us,
                    "plan_us_per_call": plan_us,
                    "scalar_ns_per_key": scalar_us * 1e3 / n,
                    "batch_ns_per_key": plan_us * 1e3 / n,
                    "speedup": scalar_us / plan_us,
                    "cpu_cores": os.cpu_count() or 1,
                }
                record.update(latency_summary_ns(
                    [us * 1e-6 for us in plan_samples], items_per_sample=n))
                records.append(record)
    return records


def walk_curve_records(model, stored):
    """One-by-one walk vs one opening round, µs per call, per batch size.

    A batch of n is the choice ``_ROUND_MIN`` makes at n: the walk with
    floor n + 1 takes every probe one by one; the walk with floor n runs
    one vectorized round, then walks the survivors (now fewer than n)
    one by one.  Each sample walks the same probes cut into batches of
    n, hashed beforehand, so only the walk is timed.
    """
    resident = stored[:int(0.7 * WALK_SLOTS)]
    table = LinearProbingTable(
        model.hasher_for_probing_table(len(resident)), capacity=WALK_SLOTS)
    table.insert_batch(resident)
    probes = build_probe_mix(resident, stored[len(resident):], hit_rate=0.5,
                             num_probes=WALK_PROBES, seed=11)
    records = []
    for n in WALK_SIZES:
        batches = [
            (keys, *table.engine.hash_batch(keys, table._reducer))
            for keys in (probes[i:i + n]
                         for i in range(0, len(probes) - n + 1, n))
        ]

        def walk(floor):
            for keys, slots, tags in batches:
                table._walk(keys, slots, tags, None, floor)

        scalar_samples, round_samples = (
            [us / len(batches) for us in samples]
            for samples in _interleaved_us_per_call(
                (lambda: walk(n + 1), lambda: walk(n)), WALK_REPEATS)
        )
        scalar_us, round_us = min(scalar_samples), min(round_samples)
        # Each sample pair ran back to back: the median of their ratios
        # shrugs off a noise burst that the two best-ofs may not share.
        speedup = statistics.median(
            s / r for s, r in zip(scalar_samples, round_samples))
        record = {
            "benchmark": "probe_walk_cost",
            "n_keys": n,
            "batch_size": n,
            "load_factor": table.load_factor,
            "scalar_us_per_call": scalar_us,
            "round_us_per_call": round_us,
            "scalar_ns_per_key": scalar_us * 1e3 / n,
            "batch_ns_per_key": round_us * 1e3 / n,
            "speedup": speedup,
            "cpu_cores": os.cpu_count() or 1,
        }
        record.update(latency_summary_ns(
            [us * 1e-6 for us in round_samples], items_per_sample=n))
        records.append(record)
    return records


def crossovers(records, benchmark="hash_batch_cost", reducer=None):
    """Per curve (one per base for one ``reducer`` series; the walk
    curve is one, keyed None): the smallest measured size from which
    the batched path is no slower than the scalar one (``speedup >= 1``)
    at every larger size (None: never)."""
    curves = {}
    for r in records:
        if r["benchmark"] == benchmark and r.get("reducer") == reducer:
            curves.setdefault(r.get("base"), []).append(r)
    found = {}
    for base, curve in curves.items():
        found[base] = None
        for r in sorted(curve, key=lambda r: -r["n_keys"]):
            if r["speedup"] < 1.0:
                break
            found[base] = r["n_keys"]
    return found


def per_key_floors(records):
    """Per base: the smallest measured size whose plan µs per key is
    within 5% of that base's lowest, i.e. where the per-key cost of the
    plan pass stops falling."""
    curves = {}
    for r in records:
        if r["benchmark"] == "hash_batch_cost" and r.get("reducer") is None:
            curves.setdefault(r["base"], []).append(r)
    found = {}
    for base, curve in curves.items():
        floor = min(r["batch_ns_per_key"] for r in curve)
        found[base] = min(r["n_keys"] for r in curve
                          if r["batch_ns_per_key"] <= floor * 1.05)
    return found


def main():
    records = bench_records()
    print_header(f"Engine batch pipeline vs scalar loop "
                 f"({NUM_PROBES} mixed-length HN probes)")
    print(format_speedup_table(
        {
            r["benchmark"]: {
                "scalar_ns": r["scalar_ns_per_key"],
                "batch_ns": r["batch_ns_per_key"],
                "speedup": r["speedup"],
            }
            for r in records
            if r["benchmark"] not in ("hash_batch_cost", "probe_walk_cost")
        },
        ["scalar_ns", "batch_ns", "speedup"],
        row_title="operation", digits=1,
    ))
    print_header("hash_batch cost vs batch size: scalar loop / compiled "
                 "plan, µs per call")
    print(format_speedup_table(
        {
            f"{r['base']}{'+' + r['reducer'] if r['reducer'] else ''} "
            f"n={r['n_keys']}": {
                "scalar_us": r["scalar_us_per_call"],
                "plan_us": r["plan_us_per_call"],
            }
            for r in records if r["benchmark"] == "hash_batch_cost"
        },
        ["scalar_us", "plan_us"], row_title="base, keys", digits=1,
    ))
    print(f"crossover per base: {crossovers(records)}; with slot_tag "
          f"fused: {crossovers(records, reducer='slot_tag')}; "
          f"engine SCALAR_CUTOVER = {SCALAR_CUTOVER}")
    print(f"per-key floor per base: {per_key_floors(records)}; "
          f"engine _PACK_CHUNK = {_PACK_CHUNK}")
    print_header("probing-table walk cost vs batch size: one by one / "
                 "one round first, µs per call")
    print(format_speedup_table(
        {
            f"n={r['n_keys']}": {
                "scalar_us": r["scalar_us_per_call"],
                "round_us": r["round_us_per_call"],
                "speedup": r["speedup"],
            }
            for r in records if r["benchmark"] == "probe_walk_cost"
        },
        ["scalar_us", "round_us", "speedup"], row_title="batch", digits=2,
    ))
    walk = crossovers(records, "probe_walk_cost")
    print(f"walk crossover: {walk[None]}; "
          f"probing-table _ROUND_MIN = {_ROUND_MIN}")


def test_batch_path_faster_than_scalar():
    # The acceptance bar: batched probe/insert on >= 4k mixed-length
    # keys measurably faster through the engine than the scalar loop.
    records = {r["benchmark"]: r for r in bench_records()}
    assert records["probing_probe"]["n_keys"] >= 4_000
    assert records["probing_probe"]["speedup"] > 1.0
    assert records["probing_insert"]["speedup"] > 1.0


def test_engine_benchmark(benchmark):
    model, stored, probes = _workload()
    table = LinearProbingTable(
        model.hasher_for_probing_table(len(stored)),
        capacity=int(len(stored) / 0.7))
    table.insert_batch(stored)
    benchmark(lambda: table.probe_batch(probes))


if __name__ == "__main__":
    main()
