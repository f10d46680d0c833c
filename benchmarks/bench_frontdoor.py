"""Front-door benchmark — socket admission vs in-process submission.

Measures what the serving boundary costs: the same YCSB stream served
(a) by an in-process :class:`ServiceClient`, whose every call is one
``Service.submit``, and (b) through the asyncio front door over
real TCP connections, where each call is one frame the door admits
with one ``Service.submit`` — at more than one connection count, on both
execution backends.  Each record carries ops/s plus p50/p99 request latency
(scalar round trips on a settled service, so the numbers are what a
caller sees), and the ack ledger: a benchmark run that loses an
acknowledged write is a bug, not a slow run.

Two more measurements isolate the wire itself.  The ``codec`` series
times the four halves of one round trip's codec — encode and decode of
a get call frame and of its answer frames — per key, at 16, 256 and
2,048 keys.  The ``bulk`` record runs 2,048-key ``multi_get`` calls,
closed loop over one connection, on a fleet shaped like the end-to-end
``bulk_read`` workload's, next to the same calls in process on the same
fleet in the same run as the denominator.  ``main()`` (and
``run_all.py``) writes ``BENCH_frontdoor.json`` at the repo root.
"""

import json
import os
import random
import statistics
import subprocess
import threading
import time
import timeit

from repro.bench.harness import latency_summary_ns
from repro.bench.reporting import print_header
from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.service import (
    FrontDoorThread,
    NetworkClient,
    Service,
    ServiceClient,
    fork_available,
    netproto,
    run_service_workload,
)
from repro.service.protocol import Run
from repro.workloads.ycsb import WorkloadGenerator

NUM_KEYS = 1_500
NUM_OPS = 3_000
SHARDS = 3
BACKEND = "chaining"
MAX_QUEUE = 256
BATCH_SIZE = 64
MIX = "B"
THETA = 0.99
LATENCY_SAMPLE = 150       # scalar round trips behind each p50/p99 field
CONNECTIONS = (1, 4)       # >= 2 connection counts per acceptance criteria


def _executions():
    return ("inline", "process") if fork_available() else ("inline",)


def _build(model, keys, execution):
    service = Service(
        num_shards=SHARDS, backend=BACKEND, model=model,
        capacity=len(keys), max_queue=MAX_QUEUE, batch_size=BATCH_SIZE,
        execution=execution,
    )
    client = ServiceClient(service)
    client.put_many((key, b"v0") for key in keys)
    return service, client


def _operations(keys):
    generator = WorkloadGenerator(keys, mix=MIX, seed=3, zipf_theta=THETA)
    return list(generator.operations(NUM_OPS))


def _inproc_record(model, keys, execution):
    service, client = _build(model, keys, execution)
    try:
        operations = _operations(keys)
        start = time.perf_counter()
        run_service_workload(client, operations)
        service.drain()
        elapsed = time.perf_counter() - start
        samples = []
        for key in keys[:LATENCY_SAMPLE]:
            t0 = time.perf_counter()
            client.get(key)
            samples.append(time.perf_counter() - t0)
        record = {
            "benchmark": f"frontdoor_inproc_{execution}",
            "path": "inproc",
            "execution": execution,
            "connections": 0,
            "mix": MIX,
            "zipf_theta": THETA,
            "shards": SHARDS,
            "backend": BACKEND,
            "ops": NUM_OPS,
            "elapsed_s": elapsed,
            "ops_per_second": NUM_OPS / elapsed if elapsed else 0.0,
            "rejections": service.stats()["rejected"],
            "client_retries": client.retries,
            "lost_acks": client.lost_acks,
        }
        record.update(latency_summary_ns(samples))
        return record
    finally:
        service.close()


def _socket_record(model, keys, execution, connections, inproc_ops_s):
    service, preload = _build(model, keys, execution)
    try:
        operations = _operations(keys)
        with FrontDoorThread(service) as door:
            clients = [
                NetworkClient("127.0.0.1", door.port, jitter_seed=0xF00 + i)
                for i in range(connections)
            ]
            try:
                step = -(-len(operations) // connections)
                errors = []

                def drive(client, ops_slice):
                    try:
                        run_service_workload(client, ops_slice)
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(
                        target=drive,
                        args=(c, operations[i * step:(i + 1) * step]),
                    )
                    for i, c in enumerate(clients)
                ]
                start = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - start
                if errors:
                    raise errors[0]
                samples = []
                for key in keys[:LATENCY_SAMPLE]:
                    t0 = time.perf_counter()
                    clients[0].get(key)
                    samples.append(time.perf_counter() - t0)
                frontdoor = door.run_in_loop(door.door.stats)
                record = {
                    "benchmark": f"frontdoor_socket_{execution}"
                                 f"_c{connections}",
                    "path": "socket",
                    "execution": execution,
                    "connections": connections,
                    "mix": MIX,
                    "zipf_theta": THETA,
                    "shards": SHARDS,
                    "backend": BACKEND,
                    "ops": NUM_OPS,
                    "elapsed_s": elapsed,
                    "ops_per_second": NUM_OPS / elapsed if elapsed else 0.0,
                    "ops_ratio_vs_inproc": (
                        (NUM_OPS / elapsed) / inproc_ops_s
                        if elapsed and inproc_ops_s else 0.0
                    ),
                    "rejections": service.stats()["rejected"],
                    "client_retries": sum(c.retries for c in clients),
                    "lost_acks": sum(c.lost_acks for c in clients),
                    "frames_in": frontdoor["frames_in"],
                    "admission_batches": frontdoor["admission_batches"],
                    "mean_coalesced": frontdoor["mean_coalesced"],
                    "max_coalesced": frontdoor["max_coalesced"],
                }
                record.update(latency_summary_ns(samples))
                return record
            finally:
                for client in clients:
                    client.close()
    finally:
        service.close()


def frontdoor_records():
    keys = google_urls(NUM_KEYS, seed=17)
    model = train_model(keys, fixed_dataset=True)
    records = []
    for execution in _executions():
        inproc = _inproc_record(model, keys, execution)
        records.append(inproc)
        for connections in CONNECTIONS:
            records.append(
                _socket_record(model, keys, execution, connections,
                               inproc["ops_per_second"])
            )
    return records


# The bulk fleet: the shape of the end-to-end bulk_read workload (4
# inline probing shards with 256 queue slots each, 3,000 URL keys with
# 32-byte values, uniform 2,048-key multi_get calls).
BULK_KEYS = 3_000
BULK_SHARDS = 4
BULK_BACKEND = "probing"
BULK_QUEUE = 256
BULK_BATCH = 64
BULK_VALUE_BYTES = 32
BULK_CALL_KEYS = 2_048
BULK_CALLS = 30
CODEC_KEYS = (16, 256, 2_048)


def _fleet(keys, values, max_queue):
    service = Service(
        num_shards=BULK_SHARDS, backend=BULK_BACKEND,
        model=train_model(keys, fixed_dataset=True), capacity=len(keys),
        max_queue=max_queue, batch_size=BULK_BATCH,
    )
    client = ServiceClient(service)
    if not all(r.ok for r in client.put_many(zip(keys, values))):
        service.close()
        raise RuntimeError("fleet preload was not acknowledged in full")
    return service


def _fleet_inputs():
    keys = google_urls(BULK_KEYS, seed=1)
    values = [b"%0*d" % (BULK_VALUE_BYTES, i) for i in range(len(keys))]
    return keys, values


def codec_series(sizes=CODEC_KEYS, repeat=5):
    """ns per key of each codec half of one get call's round trip.

    The answer frames are encoded from real terminal runs: the call is
    admitted by a fleet whose queues hold it whole, and drained."""
    keys, values = _fleet_inputs()
    service = _fleet(keys, values, max_queue=max(sizes))
    try:
        series = []
        for n in sizes:
            call = keys[:n]
            runs = service.submit("get", call)
            service.drain()
            frame = netproto.encode_call(1, "get", call)
            answers = netproto.encode_answers(1, runs)
            [body] = netproto.FrameDecoder().feed(frame)
            [answer] = netproto.FrameDecoder().feed(answers)

            def decode_answers():
                # The client reads an answer frame into a fresh run.
                run = Run("get", call, None, None, 0, range(n), None, None)
                netproto.decode_answers(answer, run, 0)
                return run

            if decode_answers().answers != values[:n]:
                raise AssertionError("codec answers do not round-trip")
            number = max(1, 20_000 // n)
            halves = {
                "encode_call": lambda: netproto.encode_call(1, "get", call),
                "decode_call": lambda: netproto.decode_call(body),
                "encode_answers": lambda: netproto.encode_answers(1, runs),
                "decode_answers": decode_answers,
            }
            point = {"benchmark": f"frontdoor_codec_k{n}", "keys": n,
                     "call_bytes": len(frame), "answer_bytes": len(answers)}
            total = 0.0
            for name, fn in halves.items():
                seconds = min(timeit.repeat(fn, number=number,
                                            repeat=repeat)) / number
                point[f"{name}_ns_per_key"] = seconds * 1e9 / n
                total += seconds
            point["round_trip_ms"] = total * 1e3
            series.append(point)
        return series
    finally:
        service.close()


def bulk_record(calls=BULK_CALLS):
    """Closed-loop 2,048-key multi_get calls: in process, then over one
    socket, on one fleet; every answer is checked against the preload."""
    keys, values = _fleet_inputs()
    expected = dict(zip(keys, values))
    rng = random.Random(1)
    batches = [rng.choices(keys, k=BULK_CALL_KEYS) for _ in range(calls)]
    service = _fleet(keys, values, max_queue=BULK_QUEUE)

    def timed(client):
        samples = []
        for batch in batches:
            t0 = time.perf_counter()
            got = client.multi_get(batch)
            samples.append(time.perf_counter() - t0)
            if got != [expected[key] for key in batch]:
                raise AssertionError("a multi_get answered wrong values")
        return samples

    try:
        inproc = timed(ServiceClient(service))
        with FrontDoorThread(service) as door:
            with NetworkClient("127.0.0.1", door.port) as client:
                socket_samples = timed(client)
                frames = door.run_in_loop(door.door.stats)["frames_in"]
                lost = client.lost_acks
    finally:
        service.close()
    inproc_ms = statistics.median(inproc) * 1e3
    socket_ms = statistics.median(socket_samples) * 1e3
    record = {
        "benchmark": "frontdoor_bulk_multi_get",
        "keys_per_call": BULK_CALL_KEYS,
        "calls": calls,
        "shards": BULK_SHARDS,
        "backend": BULK_BACKEND,
        "max_queue": BULK_QUEUE,
        "inproc_ms_per_call": inproc_ms,
        "socket_ms_per_call": socket_ms,
        "socket_over_inproc": socket_ms / inproc_ms,
        "frames_per_call": frames / calls,
        "lost_acks": lost,
    }
    record.update(latency_summary_ns(socket_samples))
    return record


def write_report(records, path=None, codec=None, bulk=None):
    if path is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(repo_root, "BENCH_frontdoor.json")
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
            "codec": codec or [],
            "bulk": bulk or [],
        }, f, indent=2)
    print(f"\n[wrote {len(records)} frontdoor record(s) to {path}]")
    return path


def main():
    print_header(f"Front door: socket vs in-process admission "
                 f"({SHARDS} {BACKEND} shards, {NUM_OPS} ops, mix {MIX})")
    records = frontdoor_records()
    for r in records:
        tag = (f"{r['connections']} conn" if r["path"] == "socket"
               else "in-proc")
        ratio = (f"  {r['ops_ratio_vs_inproc']:.2f}x of in-proc"
                 if r["path"] == "socket" else "")
        print(f"{r['benchmark']:28s} [{tag:>7s}] "
              f"{r['ops_per_second']:8.0f} ops/s  "
              f"p50 {r['latency_p50_ns'] / 1e3:7.0f}us "
              f"p99 {r['latency_p99_ns'] / 1e3:7.0f}us  "
              f"lost {r['lost_acks']}{ratio}")
    codec = codec_series()
    for point in codec:
        print(f"{point['benchmark']:28s} "
              f"call {point['encode_call_ns_per_key']:6.0f}+"
              f"{point['decode_call_ns_per_key']:6.0f} ns/key  "
              f"answers {point['encode_answers_ns_per_key']:6.0f}+"
              f"{point['decode_answers_ns_per_key']:6.0f} ns/key  "
              f"round trip {point['round_trip_ms']:.3f} ms")
    bulk = bulk_record()
    print(f"{bulk['benchmark']:28s} in-proc "
          f"{bulk['inproc_ms_per_call']:.1f} ms  socket "
          f"{bulk['socket_ms_per_call']:.1f} ms "
          f"({bulk['socket_over_inproc']:.1f}x)  "
          f"{bulk['frames_per_call']:.1f} frames/call")
    write_report(records, codec=codec, bulk=[bulk])


# ------------------------------------------------------------------ tests


def _tiny_setup():
    keys = google_urls(300, seed=17)
    model = train_model(keys, fixed_dataset=True)
    return keys, model


def test_socket_record_loses_no_acks():
    keys, model = _tiny_setup()
    record = _socket_record(model, keys, "inline", 2, 1.0)
    assert record["lost_acks"] == 0
    assert record["latency_p50_ns"] > 0
    assert record["admission_batches"] >= 1


def test_codec_series_round_trips():
    [point] = codec_series(sizes=(16,), repeat=1)
    assert point["keys"] == 16 and point["round_trip_ms"] > 0


def test_inproc_record_shape_matches_schema():
    keys, model = _tiny_setup()
    record = _inproc_record(model, keys, "inline")
    for field in ("benchmark", "ops_per_second", "lost_acks",
                  "latency_p50_ns", "latency_p99_ns", "latency_samples"):
        assert field in record
    assert record["lost_acks"] == 0


if __name__ == "__main__":
    main()
