"""Service benchmark — YCSB load through the sharded serving layer.

Drives :class:`repro.service.Service` with the YCSB mixes (reusing
``workloads/ycsb.py``), including the skewed-read variant (Zipfian
theta past 1) that concentrates traffic on a hot shard, and a
degraded-mode drill that trips one shard's monitor mid-run and checks
that no acknowledged write is lost.  ``service_records()`` returns the
numbers as JSON-able records; ``main()`` (and ``run_all.py``) writes
them to ``BENCH_service.json`` at the repo root with per-shard
throughput, queue depth, rejection count, and the relative-balance
metric.
"""

import json
import os
import subprocess
import time

from repro.bench.harness import latency_summary_ns
from repro.bench.reporting import print_header
from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.service import Service, ServiceClient, run_service_workload
from repro.service.protocol import ANSWERED
from repro.workloads.ycsb import WorkloadGenerator

NUM_KEYS = 3_000
NUM_OPS = 6_000
SHARDS = 4
BACKEND = "probing"
MAX_QUEUE = 256
BATCH_SIZE = 64
LATENCY_SAMPLE = 200       # scalar round trips behind each p50/p99 field

# Execution-backend scaling run: heavy per-op structure work (LSM over
# 64-byte keys) so shard-side compute, not parent-side admission, is
# the term the process backend can parallelize.
SCALING_SHARDS = 4
SCALING_BACKEND = "lsm"
SCALING_KEY_BYTES = 64
SCALING_KEYS = 3_000
SCALING_BATCH = 1_024      # large submit chunks amortize the per-batch IPC
SCALING_ROUNDS = 3

# (label, mix, zipf theta): the two canonical mixes, a uniform-read
# baseline, and the hot-key stress the skewed-read variant exists for.
RUNS = (
    ("A_zipf", "A", 0.99),
    ("B_zipf", "B", 0.99),
    ("C_uniform", "C", 0.0),
    ("C_hot", "C", 1.3),
)

# Hot-key routing runs (PR 7): same skewed mixes with the Count-Min
# tracker on, plus matching uniform baselines, so the summary record
# can show both claims at once — balance back within the paper bound
# at theta=0.99, and skewed throughput within ~15% of uniform.
HOT_K = 16
HOT_ADAPT_EVERY = 4
HOT_SAMPLE = 4             # tracker observes every 4th routed key
HOT_MIXES = ("A", "B")


def _build(model, keys, hot_k=0):
    service = Service(
        num_shards=SHARDS, backend=BACKEND, model=model,
        capacity=len(keys), max_queue=MAX_QUEUE, batch_size=BATCH_SIZE,
        hot_k=hot_k, hot_sample=HOT_SAMPLE,
        adapt_every=HOT_ADAPT_EVERY if hot_k else 8,
    )
    client = ServiceClient(service)
    client.put_many((key, b"v0") for key in keys)
    return service, client


def _get_latency(client, keys, n=LATENCY_SAMPLE):
    """p50/p99 of full client round trips (submit -> pump -> response).

    Measured per request on a settled service, so the numbers are
    request latency as a caller sees it, not amortized batch cost.
    """
    samples = []
    for key in keys[:n]:
        start = time.perf_counter()
        client.get(key)
        samples.append(time.perf_counter() - start)
    return latency_summary_ns(samples)


def _record(label, mix, theta, service, client, elapsed, ops, keys):
    stats = service.stats()
    per_shard = [
        {
            "shard": s["shard"],
            "processed": s["processed"],
            "ops_per_second": s["processed"] / elapsed if elapsed else 0.0,
            "mean_batch_size": s["mean_batch_size"],
            "queue_depth": s["queue_depth"],
            "peak_queue_depth": s["peak_queue_depth"],
            "rejected": s["rejected"],
        }
        for s in stats["shards"]
    ]
    record = {
        "benchmark": f"service_ycsb_{label}",
        "mix": mix,
        "zipf_theta": theta,
        "shards": SHARDS,
        "backend": BACKEND,
        "execution": service.execution,
        "ops": ops,
        "elapsed_s": elapsed,
        "ops_per_second": ops / elapsed if elapsed else 0.0,
        "per_shard": per_shard,
        "relative_balance": stats["router"]["relative_std"],
        "balance_bound": stats["router"]["bound"],
        "within_bound": stats["router"]["within_bound"],
        "rejections": stats["rejected"],
        "client_retries": client.retries,
        "lost_acks": client.lost_acks,
        "degraded": stats["degraded"],
        "degrade_events": stats["degrade_events"],
    }
    record.update(_get_latency(client, keys))
    return record


def service_records():
    keys = google_urls(NUM_KEYS, seed=17)
    model = train_model(keys, fixed_dataset=True)
    records = []

    for label, mix, theta in RUNS:
        service, client = _build(model, keys)
        generator = WorkloadGenerator(keys, mix=mix, seed=3, zipf_theta=theta)
        operations = list(generator.operations(NUM_OPS))
        start = time.perf_counter()
        run_service_workload(client, operations)
        service.drain()
        elapsed = time.perf_counter() - start
        records.append(
            _record(label, mix, theta, service, client, elapsed, NUM_OPS,
                    keys)
        )

    records.extend(skew_hot_records(model, keys))

    # Degraded-mode drill: trip shard 0 halfway through a write-heavy
    # mix, finish the load full-key, then read back every key.
    service, client = _build(model, keys)
    generator = WorkloadGenerator(keys, mix="A", seed=3)
    operations = list(generator.operations(NUM_OPS))
    half = len(operations) // 2
    start = time.perf_counter()
    run_service_workload(client, operations[:half])
    service.force_trip(0)
    run_service_workload(client, operations[half:])
    service.drain()
    elapsed = time.perf_counter() - start
    missing = sum(1 for v in client.multi_get(keys) if v is None)
    record = _record("A_degraded", "A", 0.99, service, client, elapsed,
                     NUM_OPS, keys)
    record["keys_lost_after_degrade"] = missing
    records.append(record)
    return records


# -------------------------------------------------- hot-key routing


HOT_REPEATS = 3  # best-of-N: the ops/s ratio must not ride scheduler noise


def _mix_run(model, keys, label, mix, theta, hot_k=0):
    # The routing outcome (promotions, balance) is deterministic per
    # seed; only wall clock varies, so keep the fastest of N runs.
    best = None
    for _ in range(HOT_REPEATS):
        service, client = _build(model, keys, hot_k=hot_k)
        generator = WorkloadGenerator(keys, mix=mix, seed=3,
                                      zipf_theta=theta)
        operations = list(generator.operations(NUM_OPS))
        start = time.perf_counter()
        run_service_workload(client, operations)
        service.drain()
        elapsed = time.perf_counter() - start
        record = _record(label, mix, theta, service, client, elapsed,
                         NUM_OPS, keys)
        routing = service.stats()["routing"]
        record["hot_k"] = hot_k
        record["promoted"] = routing["promoted"]
        record["overlay_keys"] = routing["overlay_keys"]
        record["routing_generation"] = routing["generation"]
        if best is None or record["ops_per_second"] > best["ops_per_second"]:
            best = record
    return best


def skew_hot_records(model, keys):
    """Skew-with-hot-routing records: the PR 7 acceptance numbers.

    For each skewed mix, run a uniform baseline and the theta=0.99
    stream with the hot-key tracker enabled, then emit one summary
    record per mix pairing the two: ``within_bound`` must come back
    true under hot routing and ``skew_vs_uniform_ops_ratio`` must stay
    near 1 (the ~15% criterion).
    """
    records = []
    for mix in HOT_MIXES:
        uniform = _mix_run(model, keys, f"{mix}_uniform", mix, 0.0)
        hot = _mix_run(model, keys, f"{mix}_zipf_hot", mix, 0.99,
                       hot_k=HOT_K)
        ratio = (
            hot["ops_per_second"] / uniform["ops_per_second"]
            if uniform["ops_per_second"] else 0.0
        )
        summary = {
            "benchmark": f"service_skew_hot_summary_{mix}",
            "mix": mix,
            "zipf_theta": 0.99,
            "hot_k": HOT_K,
            "adapt_every": HOT_ADAPT_EVERY,
            "promoted": hot["promoted"],
            "uniform_ops_per_second": uniform["ops_per_second"],
            "skew_hot_ops_per_second": hot["ops_per_second"],
            "skew_vs_uniform_ops_ratio": ratio,
            "relative_balance": hot["relative_balance"],
            "balance_bound": hot["balance_bound"],
            "within_bound": hot["within_bound"],
            "lost_acks": hot["lost_acks"],
            "latency_p50_ns": hot["latency_p50_ns"],
            "latency_p99_ns": hot["latency_p99_ns"],
            "latency_samples": hot["latency_samples"],
        }
        records.extend([uniform, hot, summary])
    return records


# --------------------------------------------------- execution scaling


def _scaling_keys():
    return [
        (b"scale-%06d" % i).ljust(SCALING_KEY_BYTES, b"x")
        for i in range(SCALING_KEYS)
    ]


def _scaling_record(execution, model, keys):
    service = Service(
        num_shards=SCALING_SHARDS, backend=SCALING_BACKEND, model=model,
        capacity=len(keys), max_queue=2 * SCALING_BATCH, batch_size=512,
        execution=execution,
    )
    try:
        client = ServiceClient(service)
        client.put_many((key, key) for key in keys)  # 64-byte values too
        ops = 0
        runs = []
        start = time.perf_counter()
        for _ in range(SCALING_ROUNDS):
            for lo in range(0, len(keys), SCALING_BATCH):
                chunk = keys[lo:lo + SCALING_BATCH]
                runs += service.submit("get", chunk)
                service.drain()
                ops += len(chunk)
        elapsed = time.perf_counter() - start
        # The preload wrote (key, key): every timed get must have been
        # answered OK with its own key, and none may still be pending.
        for run in runs:
            assert run.status.count(ANSWERED) == len(run.keys), execution
            assert run.answers == run.keys, execution
        record = {
            "benchmark": f"service_scaling_{execution}",
            "execution": execution,
            "shards": SCALING_SHARDS,
            "backend": SCALING_BACKEND,
            "key_bytes": SCALING_KEY_BYTES,
            "ops": ops,
            "elapsed_s": elapsed,
            "ops_per_second": ops / elapsed if elapsed else 0.0,
            "cpu_cores": os.cpu_count() or 1,
            "lost_acks": client.lost_acks,
        }
        record.update(_get_latency(client, keys))
        return record
    finally:
        service.close()


def scaling_records():
    """Aggregate throughput at 4 shards: inline vs one process per shard.

    The speedup record carries ``cpu_cores`` because the ratio is only
    meaningful relative to it — on a single-core host the process
    backend pays IPC overhead with no parallelism to buy back, and the
    honest number is below 1.
    """
    keys = _scaling_keys()
    model = train_model(keys, fixed_dataset=True)
    inline = _scaling_record("inline", model, keys)
    process = _scaling_record("process", model, keys)
    speedup = (
        process["ops_per_second"] / inline["ops_per_second"]
        if inline["ops_per_second"] else 0.0
    )
    summary = {
        "benchmark": "service_scaling_speedup",
        "shards": SCALING_SHARDS,
        "backend": SCALING_BACKEND,
        "cpu_cores": os.cpu_count() or 1,
        "inline_ops_per_second": inline["ops_per_second"],
        "process_ops_per_second": process["ops_per_second"],
        "speedup_process_vs_inline": speedup,
        "latency_p50_ns": process["latency_p50_ns"],
        "latency_p99_ns": process["latency_p99_ns"],
        "latency_samples": process["latency_samples"],
    }
    return [inline, process, summary]


def write_report(records, path=None):
    if path is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(repo_root, "BENCH_service.json")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    with open(path, "w") as f:
        json.dump({
            "git_rev": rev,
            "generated_at_unix": time.time(),
            "records": records,
        }, f, indent=2)
    print(f"\n[wrote {len(records)} service record(s) to {path}]")
    return path


def main():
    print_header("Service: sharded YCSB serving "
                 f"({SHARDS} {BACKEND} shards, {NUM_KEYS} keys)")
    records = service_records()
    for r in records:
        if "per_shard" not in r:
            print(f"{r['benchmark']:24s} skew/uniform ops ratio "
                  f"{r['skew_vs_uniform_ops_ratio']:.2f}  "
                  f"balance {r['relative_balance']:.4f} "
                  f"({'ok' if r['within_bound'] else 'HOT'})  "
                  f"promoted {r['promoted']}")
            continue
        hot = max(s["processed"] for s in r["per_shard"])
        cold = min(s["processed"] for s in r["per_shard"])
        print(f"{r['benchmark']:24s} {r['ops_per_second']:8.0f} ops/s  "
              f"p50 {r['latency_p50_ns'] / 1e3:7.0f}us "
              f"p99 {r['latency_p99_ns'] / 1e3:7.0f}us  "
              f"balance {r['relative_balance']:.4f} "
              f"({'ok' if r['within_bound'] else 'HOT'})  "
              f"rejected {r['rejections']}  "
              f"degraded {r['degraded']}  "
              f"shard ops {cold}-{hot}")
    drill = records[-1]
    print(f"degraded drill: {drill['keys_lost_after_degrade']} key(s) lost, "
          f"{drill['lost_acks']} ack(s) lost")
    scaling = scaling_records()
    records.extend(scaling)
    for r in scaling[:2]:
        print(f"{r['benchmark']:28s} {r['ops_per_second']:8.0f} ops/s  "
              f"p50 {r['latency_p50_ns'] / 1e3:7.0f}us "
              f"p99 {r['latency_p99_ns'] / 1e3:7.0f}us")
    summary = scaling[-1]
    print(f"process vs inline at {summary['shards']} shards: "
          f"{summary['speedup_process_vs_inline']:.2f}x "
          f"on {summary['cpu_cores']} core(s)")
    write_report(records)


# ------------------------------------------------------------------ tests
# (exercised by `pytest benchmarks/bench_service.py`; the tier-1 suite
# collects only tests/, so these never slow it down)


def test_zero_lost_acks_per_mix():
    for record in service_records():
        assert record["lost_acks"] == 0, record["benchmark"]


def test_hot_routing_restores_balance():
    # The PR 7 acceptance pair: under zipf theta=0.99 with the tracker
    # on, promotions must bring the routed balance back inside the
    # paper's bound, without losing acks, at throughput comparable to
    # uniform traffic (loose 0.75 floor here; the committed JSON holds
    # the exact ratio).
    keys = google_urls(NUM_KEYS, seed=17)
    model = train_model(keys, fixed_dataset=True)
    for record in skew_hot_records(model, keys):
        if not record["benchmark"].startswith("service_skew_hot_summary"):
            continue
        assert record["promoted"] >= 1, record
        assert record["within_bound"], record
        assert record["lost_acks"] == 0, record
        assert record["skew_vs_uniform_ops_ratio"] >= 0.75, record


def test_degraded_drill_loses_nothing():
    records = service_records()
    drill = records[-1]
    # The breaker may already have healed the shard by the end of the
    # run (degraded is a live property now), but the trip must be on
    # record and no acknowledged write may have vanished across it.
    assert drill["degrade_events"] >= 1
    assert drill["keys_lost_after_degrade"] == 0


if __name__ == "__main__":
    main()
