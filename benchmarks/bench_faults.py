"""Fault-tolerance benchmark — recovery latency and chaos throughput.

Drives the sharded service with the :mod:`repro.faults` plane armed and
measures what the self-healing machinery costs:

* **recovery latency** — pumps from the first fire of each fault kind
  until the service is whole again (worker restarted, queues drained,
  breakers closed), with the ack ledger checked for losses;
* **throughput under chaos** — YCSB mix A at 0% / 1% / 5% per-batch
  crash probability, showing how much of the fault-free rate survives
  journal replay and ticket reconciliation;
* **breaker timeline** — the open → half_open → closed walk of one
  corrupted shard's breaker, pump by pump.

``fault_records()`` returns JSON-able records; ``main()`` (and
``run_all.py``) writes them to ``BENCH_faults.json`` at the repo root.
"""

import json
import os
import subprocess
import time

from repro.bench.harness import latency_summary_ns
from repro.bench.reporting import print_header
from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.faults import make_plane
from repro.service import Service, ServiceClient, run_service_workload
from repro.workloads.ycsb import WorkloadGenerator

NUM_KEYS = 1_500
NUM_OPS = 3_000
SHARDS = 4
BACKEND = "chaining"
COOLDOWN = 16
PROBE = 8

RECOVERY_SPECS = (
    ("crash", "crash:worker:1:count=1"),
    ("sigkill", "sigkill:worker:1:count=1"),
    ("stall", "stall:worker:1:count=4"),
    ("drop", "drop:worker:1:count=1"),
    ("queue_loss", "queue_loss:service:1:count=4"),
    ("corrupt", "corrupt:service:1:count=1"),
)

LATENCY_SAMPLE = 150       # scalar round trips behind each p50/p99 field

CHAOS_RATES = (0.0, 0.01, 0.05)


def _build(model, keys, plane=None, execution="inline"):
    service = Service(
        num_shards=SHARDS, backend=BACKEND, model=model,
        capacity=len(keys), max_queue=256, batch_size=64,
        fault_plane=plane, cooldown_pumps=COOLDOWN, probe_pumps=PROBE,
        stall_threshold=2, execution=execution,
    )
    client = ServiceClient(service)
    return service, client


def _whole(service):
    return (service.pending == 0
            and not any(w.crashed for w in service.workers)
            and all(b.closed for b in service.breakers))


def _get_latency(client, keys, n=LATENCY_SAMPLE):
    """p50/p99 of scalar get round trips on the (possibly still-armed)
    service — for the chaos records this is latency *under* the fault
    schedule, recovery pauses included."""
    samples = []
    for key in keys[:n]:
        start = time.perf_counter()
        client.get(key)
        samples.append(time.perf_counter() - start)
    return latency_summary_ns(samples)


def _measure_recovery(model, keys, kind, spec, execution="inline"):
    """Pumps from the first fire of ``kind`` until the service is whole.

    The workload stops at the first fire (polled in small chunks) so the
    heal isn't hidden inside the remaining load; what's left is pure
    recovery work — restart + journal replay + reconciliation for the
    process faults, a full cooldown + probe walk for ``corrupt``.
    """
    service, client = _build(model, keys, execution=execution)
    client.put_many((key, b"v0") for key in keys)
    # Arm only after the preload: otherwise the fault fires (and heals)
    # inside put_many and the measurement window misses it entirely.
    plane = make_plane([spec], seed=7)
    service.arm_fault_plane(plane)
    # Watch every pump: the synchronous client heals the service inside
    # its own completion loop, so polling at op granularity would always
    # see "already recovered".
    # fire: the spec fired.  impact: the service first observed un-whole
    # (for ``corrupt`` the same pump: the fire trips the shard at the
    # pump's inject step, before it serves).  whole: healed again.
    marks = {"fire": None, "impact": None, "whole": None}
    original_pump = service.pump

    def watched_pump():
        served = original_pump()
        if marks["fire"] is None and plane.total_fired(kind) >= 1:
            marks["fire"] = service.pump_index
        if marks["fire"] is not None and marks["whole"] is None:
            if marks["impact"] is None:
                if not _whole(service):
                    marks["impact"] = service.pump_index
            elif _whole(service):
                marks["whole"] = service.pump_index
        return served

    service.pump = watched_pump
    # Fresh inserts first, one call (and its pumps) at a time.
    # ``corrupt`` needs no inserts: it fires at the first pump's inject
    # step, whatever the mix.
    for i in range(200):
        client.put(b"fresh%04d" % i, b"v")
        if marks["whole"] is not None:
            break
    generator = WorkloadGenerator(keys, mix="A", seed=3)
    operations = list(generator.operations(NUM_OPS))
    chunk = 50
    for i in range(0, len(operations), chunk):
        if marks["whole"] is not None:
            break
        run_service_workload(client, operations[i:i + chunk])
    extra = 0
    while (marks["whole"] is None and marks["impact"] is not None
           and extra < 10 * (COOLDOWN + PROBE)):
        service.pump()
        extra += 1
    assert marks["fire"] is not None, f"{kind} spec never fired"
    if marks["impact"] is None:
        # The fault was absorbed within a single pump (e.g. queue_loss
        # reconciled and served before the watcher could see a gap).
        recovery_pumps = detection_pumps = 0
    else:
        assert marks["whole"] is not None, f"{kind} never healed"
        recovery_pumps = marks["whole"] - marks["impact"]
        detection_pumps = marks["impact"] - marks["fire"]
    supervisor = service.supervisor.stats()
    suffix = "" if execution == "inline" else f"_{execution}"
    record = {
        "benchmark": f"fault_recovery_{kind}{suffix}",
        "kind": kind,
        "spec": spec,
        "execution": execution,
        "fired": plane.total_fired(kind),
        "recovery_pumps": recovery_pumps,
        "detection_pumps": detection_pumps,
        "pump_index_at_fire": marks["fire"],
        "restarts": supervisor["restarts"],
        "reconciled_tickets": supervisor["reconciled_tickets"],
        "lost_acks": client.lost_acks,
        "whole": _whole(service),
    }
    record.update(_get_latency(client, keys))
    service.close()
    return record


def _measure_chaos_throughput(model, keys, rate):
    plane = None
    if rate > 0.0:
        specs = [f"crash:worker:{s}:count=1000000:rate={rate}"
                 for s in range(SHARDS)]
        plane = make_plane(specs, seed=11)
    service, client = _build(model, keys, plane)
    client.put_many((key, b"v0") for key in keys)
    generator = WorkloadGenerator(keys, mix="A", seed=3)
    operations = list(generator.operations(NUM_OPS))
    start = time.perf_counter()
    run_service_workload(client, operations)
    service.drain()
    elapsed = time.perf_counter() - start
    supervisor = service.supervisor.stats()
    record = {
        "benchmark": f"chaos_throughput_{rate:g}",
        "crash_rate": rate,
        "ops": NUM_OPS,
        "elapsed_s": elapsed,
        "ops_per_second": NUM_OPS / elapsed if elapsed else 0.0,
        "crashes": supervisor["crashes_seen"],
        "restarts": supervisor["restarts"],
        "reconciled_tickets": supervisor["reconciled_tickets"],
        "lost_acks": client.lost_acks,
    }
    record.update(_get_latency(client, keys))
    return record


def _measure_breaker_timeline(model, keys):
    service, client = _build(model, keys)
    client.put_many((key, b"v0") for key in keys)
    service.drain()
    # Arm only after the preload, as _measure_recovery does: armed at
    # construction the fault fires inside put_many, and the timeline
    # would start already open.
    service.arm_fault_plane(make_plane(["corrupt:service:1:count=1"],
                                       seed=5))
    breaker = service.breakers[1]
    timeline = [{"pump": service.pump_index, "state": breaker.state}]
    for _ in range(3 * (COOLDOWN + PROBE)):
        service.pump()
        if breaker.state != timeline[-1]["state"]:
            timeline.append({"pump": service.pump_index,
                             "state": breaker.state})
        if breaker.closed and len(timeline) > 1:
            break
    record = {
        "benchmark": "breaker_timeline",
        "cooldown_pumps": COOLDOWN,
        "probe_pumps": PROBE,
        "transitions": timeline,
        "opens": breaker.opens,
        "closes": breaker.closes,
        "lost_acks": client.lost_acks,
    }
    record.update(_get_latency(client, keys))
    return record


def fault_records():
    keys = google_urls(NUM_KEYS, seed=17)
    model = train_model(keys, fixed_dataset=True)
    records = [
        _measure_recovery(model, keys, kind, spec)
        for kind, spec in RECOVERY_SPECS
    ]
    # The same SIGKILL against a process shard is a *real* kill -9 of a
    # live OS process: the supervisor must restart the child and replay
    # its journal, and the ack ledger must still balance.
    records.append(
        _measure_recovery(model, keys, "sigkill",
                          "sigkill:worker:1:count=1", execution="process")
    )
    records.extend(
        _measure_chaos_throughput(model, keys, rate) for rate in CHAOS_RATES
    )
    records.append(_measure_breaker_timeline(model, keys))
    return records


def write_report(records, path=None):
    if path is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(repo_root, "BENCH_faults.json")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    report = {
        "git_rev": rev,
        "generated_at_unix": time.time(),
        "records": records,
    }
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    print(f"\n[wrote {len(records)} fault record(s) to {path}]")
    return path


def main():
    print_header("Faults: recovery latency, chaos throughput, breaker "
                 f"timeline ({SHARDS} {BACKEND} shards)")
    records = fault_records()
    for r in records:
        if r["benchmark"].startswith("fault_recovery"):
            print(f"{r['kind']:>11}: fired {r['fired']}, detected in "
                  f"{r['detection_pumps']}, recovered in "
                  f"{r['recovery_pumps']} pump(s), "
                  f"{r['restarts']} restart(s), "
                  f"{r['reconciled_tickets']} ticket(s) reconciled, "
                  f"lost_acks {r['lost_acks']}")
        elif r["benchmark"].startswith("chaos_throughput"):
            print(f"crash rate {r['crash_rate']:>5.0%}: "
                  f"{r['ops_per_second']:>9.0f} ops/s "
                  f"({r['crashes']} crash(es), {r['restarts']} restart(s), "
                  f"lost_acks {r['lost_acks']})")
        else:
            walk = " -> ".join(f"{t['state']}@{t['pump']}"
                               for t in r["transitions"])
            print(f"breaker timeline (cooldown {r['cooldown_pumps']}, "
                  f"probe {r['probe_pumps']}): {walk}")
    write_report(records)


# ------------------------------------------------------------------ tests
# (exercised by `pytest benchmarks/bench_faults.py`; the tier-1 suite
# collects only tests/, so these never slow it down)


def test_every_fault_kind_recovers_with_zero_lost_acks():
    keys = google_urls(400, seed=17)
    model = train_model(keys, fixed_dataset=True)
    for kind, spec in RECOVERY_SPECS:
        record = _measure_recovery(model, keys, kind, spec)
        assert record["lost_acks"] == 0, record
        assert record["whole"], record


def test_process_sigkill_recovers_with_zero_lost_acks():
    keys = google_urls(400, seed=17)
    model = train_model(keys, fixed_dataset=True)
    record = _measure_recovery(model, keys, "sigkill",
                               "sigkill:worker:1:count=1",
                               execution="process")
    assert record["fired"] >= 1, record
    assert record["lost_acks"] == 0, record
    assert record["whole"], record


def test_chaos_throughput_survives_five_percent_crashes():
    keys = google_urls(400, seed=17)
    model = train_model(keys, fixed_dataset=True)
    record = _measure_chaos_throughput(model, keys, 0.05)
    assert record["crashes"] > 0
    assert record["lost_acks"] == 0


if __name__ == "__main__":
    main()
