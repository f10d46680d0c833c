"""Engine benchmark — one batched pipeline pass vs the scalar loop.

Every structure now routes hashing through its
:class:`~repro.engine.HashEngine`; this benchmark quantifies what that
buys.  For each structure it times the batched path (one compiled
gather + one numpy kernel call + fused reduction) against the per-key
scalar loop over the same mixed-length keys, and reports ns/key plus
the speedup.  ``bench_records()`` returns the same numbers as JSON-able
records; ``run_all.py`` collects them into ``BENCH_engine.json``.

The ``hash_batch_cost`` records are the curve behind the engine's
``SCALAR_CUTOVER``: for every base with a numpy kernel, the µs per call
of the scalar loop and of one compiled plan pass at small batch sizes.
The cutover is the smallest size from which the plan is no slower.
"""

import os
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
from repro.engine.engine import SCALAR_CUTOVER
from repro.engine.plan import compile_subkey_plan, subkey_matrix
from repro.filters.blocked import BlockedBloomFilter
from repro.hashing.vectorized import BATCH_KERNELS
from repro.partitioning.partitioner import Partitioner
from repro.tables.chaining import SeparateChainingTable
from repro.tables.probing import LinearProbingTable

NUM_KEYS = 10_000          # mixed-length HN URLs; half stored
NUM_PROBES = 5_000         # acceptance floor is 4k
REPEATS = 3
LATENCY_REPEATS = 7        # batch-call samples behind the p50/p99 fields
COST_SIZES = (1, 2, 4, 8, 12, 16, 24, 32, 64)
COST_REPEATS = 7           # best-of samples per (base, size) point
COST_SAMPLE_S = 0.004      # wall time one sample loops for


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
    return records


def _interleaved_us_per_call(funcs):
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
    for _ in range(COST_REPEATS):
        for func, count, out in zip(funcs, loops, samples):
            start = time.perf_counter()
            for _ in range(count):
                func()
            out.append((time.perf_counter() - start) * 1e6 / count)
    return samples


def cost_curve_records(hasher, probes):
    """Scalar loop vs compiled plan, µs per call, per base and size."""
    records = []
    for base in sorted(BATCH_KERNELS):
        scalar = EntropyLearnedHasher(hasher.partial_key, base=base)
        plan = compile_subkey_plan(scalar.partial_key, base)
        long_keys = [k for k in probes if len(k) >= plan.cutoff]
        for n in COST_SIZES:
            keys = long_keys[:n]
            lengths = list(map(len, keys))
            scalar_samples, plan_samples = _interleaved_us_per_call((
                lambda: np.fromiter(map(scalar, keys), dtype=np.uint64,
                                    count=n),
                lambda: plan.run(subkey_matrix(plan, keys, lengths), 0),
            ))
            scalar_us, plan_us = min(scalar_samples), min(plan_samples)
            record = {
                "benchmark": "hash_batch_cost",
                "base": base,
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


def crossovers(records):
    """Per base: the smallest measured size from which the plan is no
    slower than the scalar loop at every larger size (None: never)."""
    curves = {}
    for r in records:
        if r["benchmark"] == "hash_batch_cost":
            curves.setdefault(r["base"], []).append(r)
    found = {}
    for base, curve in curves.items():
        found[base] = None
        for r in sorted(curve, key=lambda r: -r["n_keys"]):
            if r["plan_us_per_call"] > r["scalar_us_per_call"]:
                break
            found[base] = r["n_keys"]
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
            for r in records if r["benchmark"] != "hash_batch_cost"
        },
        ["scalar_ns", "batch_ns", "speedup"],
        row_title="operation", digits=1,
    ))
    print_header("hash_batch cost vs batch size: scalar loop / compiled "
                 "plan, µs per call")
    print(format_speedup_table(
        {
            f"{r['base']} n={r['n_keys']}": {
                "scalar_us": r["scalar_us_per_call"],
                "plan_us": r["plan_us_per_call"],
            }
            for r in records if r["benchmark"] == "hash_batch_cost"
        },
        ["scalar_us", "plan_us"], row_title="base, keys", digits=1,
    ))
    print(f"crossover per base: {crossovers(records)}; "
          f"engine SCALAR_CUTOVER = {SCALAR_CUTOVER}")


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
