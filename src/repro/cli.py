"""Command-line interface: analyze key files and train/save models.

Usage::

    python -m repro analyze keys.txt
    python -m repro train keys.txt --out model.json --base wyhash
    python -m repro recommend model.json --task probing --size 100000
    python -m repro quality wyhash [--keyfile keys.txt]
    python -m repro engine keys.txt [--base wyhash] [--batch-size 4096]
    python -m repro fuzz --structure probing --seed 7 --ops 200
    python -m repro fuzz --structure all --ci
    python -m repro fuzz --structure chaos --execution process
    python -m repro serve --shards 4 --mix B --ops 20000 [--check]
    python -m repro serve --shards 4 --execution process --check

``analyze`` profiles a newline-delimited key file (per-position entropy,
the learned frontier).  ``train`` persists a model; ``recommend`` loads
one and prints the hasher it would hand out for a task — the same answer
``EntropyModel.hasher_for_<task>`` gives in code.  ``engine`` trains a
model, streams the key file through a table's
:class:`~repro.engine.HashEngine` in batches, and prints the engine's
counters — the observability surface of the unified pipeline.  ``fuzz``
runs the differential correctness harness (:mod:`repro.verify`): every
structure against its oracle and scalar twin through seeded random op
sequences, shrinking any divergence to a minimal saved repro.  ``serve``
stands up the sharded service (:mod:`repro.service`), pushes a YCSB
load through the in-process client, and reports shard balance,
backpressure, and degraded-mode status.

Every subcommand returns a nonzero exit code on failure: bad inputs
(missing key file, unknown hash, corrupt model) exit 2; a failed check
(quality battery, fuzz divergence, serve --check) exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List

from repro.core.persist import load_model, save_model
from repro.core.sizing import (
    entropy_for_bloom_filter,
    entropy_for_chaining_table,
    entropy_for_partitioning,
    entropy_for_probing_table,
)
from repro.core.trainer import describe_frontier, train_model
from repro.datasets.profiles import profile_dataset


def _read_keys(path: str, limit: int = 0) -> List[bytes]:
    data = Path(path).read_bytes()
    keys = [line for line in data.split(b"\n") if line]
    if limit:
        keys = keys[:limit]
    if len(keys) < 4:
        raise SystemExit(f"need at least 4 keys, found {len(keys)} in {path}")
    return keys


def cmd_analyze(args: argparse.Namespace) -> int:
    keys = _read_keys(args.keyfile, args.limit)
    profile = profile_dataset(keys, word_size=args.word_size)
    print(profile.describe())
    print()
    print("per-position entropy (bits):")
    for pos, entropy in sorted(profile.position_entropy.items()):
        bar = "#" * min(40, int(0 if entropy == math.inf else entropy))
        text = "inf" if entropy == math.inf else f"{entropy:5.1f}"
        print(f"  byte {pos:4d}: {text} {bar}")

    model = train_model(keys, word_size=args.word_size,
                        fixed_dataset=args.fixed)
    print()
    print("learned frontier:")
    for line in describe_frontier(model):
        print("  " + line)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    keys = _read_keys(args.keyfile, args.limit)
    model = train_model(keys, base=args.base, word_size=args.word_size,
                        fixed_dataset=args.fixed)
    save_model(model, args.out)
    words = len(model.result.positions)
    print(f"trained on {len(keys)} keys -> {words} word(s) selected; "
          f"model written to {args.out}")
    return 0


_TASK_REQUIREMENTS = {
    "chaining": lambda args: entropy_for_chaining_table(args.size),
    "probing": lambda args: entropy_for_probing_table(args.size),
    "bloom": lambda args: entropy_for_bloom_filter(args.size, args.added_fpr),
    "partitioning": lambda args: entropy_for_partitioning(
        args.size, args.partitions, mode=args.mode
    ),
}


def cmd_recommend(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    required = _TASK_REQUIREMENTS[args.task](args)
    hasher = model.hasher_for_entropy(required)
    print(f"task {args.task!r} at size {args.size} needs "
          f"H2 > {required:.1f} bits")
    if hasher.partial_key.is_full_key:
        print("recommendation: full-key hashing "
              "(the learned frontier cannot certify that much entropy)")
    else:
        L = hasher.partial_key
        print(f"recommendation: hash {L.bytes_read} bytes — "
              f"{L.word_size}-byte words at offsets {list(L.positions)}")
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    from repro.hashing.base import get_hash
    from repro.hashing.quality import assess, summarize

    hash_func = get_hash(args.hash, seed=args.seed)
    keys = _read_keys(args.keyfile, args.limit) if args.keyfile else None
    reports = assess(hash_func, keys)
    print(f"SMHasher-lite battery for {args.hash!r}"
          + (f" over {len(keys)} corpus keys" if keys else ""))
    print(summarize(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_engine(args: argparse.Namespace) -> int:
    import json

    from repro.tables.chaining import SeparateChainingTable

    keys = _read_keys(args.keyfile, args.limit)
    model = train_model(keys, base=args.base, word_size=args.word_size,
                        fixed_dataset=args.fixed)
    hasher = model.hasher_for_chaining_table(len(keys))
    table = SeparateChainingTable(hasher, capacity=len(keys))

    batch = max(1, args.batch_size)
    for start in range(0, len(keys), batch):
        chunk = keys[start:start + batch]
        table.insert_batch(chunk, list(range(start, start + len(chunk))))
    for start in range(0, len(keys), batch):
        table.probe_batch(keys[start:start + batch])

    stats = table.engine.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    L = table.engine.partial_key
    print(f"engine over {len(keys)} keys "
          f"(base={stats['base']}, word_size={stats['word_size']}, "
          f"positions={stats['positions']})")
    if L.is_full_key:
        print("  hasher: full-key (the frontier could not certify "
              "enough entropy)")
    print(f"  keys hashed:        {stats['keys_hashed']}")
    print(f"  bytes hashed:       {stats['bytes_hashed']}")
    print(f"  batches:            {stats['batches']} "
          f"(mean size {stats['mean_batch_size']:.1f})")
    print(f"  scalar calls:       {stats['scalar_calls']}")
    print(f"  plan cache:         {stats['plan_cache_hits']} hits / "
          f"{stats['plan_cache_misses']} misses "
          f"({stats['plans_compiled']} plans compiled)")
    print(f"  short-key fallbacks: {stats['short_key_fallbacks']}")
    print(f"  fallback events:    {stats['fallback_events']} "
          f"(fell_back={stats['fell_back']})")
    print("  batch-size histogram:")
    for bucket, count in sorted(
        stats["batch_size_histogram"].items(),
        key=lambda item: int(str(item[0]).split("-")[0]),
    ):
        print(f"    {bucket:>11}: {count}")
    return 0


def _parse_listen(value: str):
    """``HOST:PORT`` → ``(host, port)``; ValueError (exit 2) otherwise."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--listen {value!r} is not HOST:PORT (try 127.0.0.1:0)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"--listen port {port_text!r} is not an integer"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen port {port} is outside 0..65535")
    return host, port


_LEDGER_FIELDS = ("retries", "backoff_pumps", "generation_retries",
                  "puts_sent", "puts_responded", "puts_acked", "lost_acks")


def _client_ledger(clients) -> dict:
    """The ``client``/``network`` payload blocks: one ledger vocabulary,
    summed over the clients of either transport."""
    return {name: sum(getattr(c, name) for c in clients)
            for name in _LEDGER_FIELDS}


def _ledger_line(ledger: dict) -> str:
    return (f"{ledger['puts_acked']}/{ledger['puts_sent']} OK, "
            f"{ledger['lost_acks']} lost, {ledger['retries']} retries, "
            f"{ledger['generation_retries']} generation retries")


def _run_listen_workload(args, service, listen, operations):
    """Drive the workload through real sockets: one front door on its
    own thread, ``--connections`` concurrent network clients on worker
    threads, each feeding its slice of the op stream.  Returns the
    aggregated op counts and a network-side ledger for the payload and
    ``--check``."""
    import threading

    from repro.service import (
        FrontDoorThread,
        NetworkClient,
        run_service_workload,
    )

    host, port = listen
    connect_host = "127.0.0.1" if host in ("", "0.0.0.0", "::") else host
    connections = args.connections if args.connections is not None else 4
    counts: dict = {}
    errors: list = []
    lock = threading.Lock()

    def drive(client, ops_slice):
        try:
            for kind, n in run_service_workload(client, ops_slice).items():
                with lock:
                    counts[kind] = counts.get(kind, 0) + n
        except Exception as exc:  # surface after join, don't deadlock
            with lock:
                errors.append(exc)

    def run_phase(clients, ops_slice):
        if not ops_slice:
            return
        step = -(-len(ops_slice) // len(clients))  # ceil division
        threads = [
            threading.Thread(
                target=drive, args=(client, ops_slice[i * step:(i + 1) * step])
            )
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    with FrontDoorThread(service, host, port) as door:
        clients = [
            NetworkClient(connect_host, door.port, jitter_seed=0xBEEF + i)
            for i in range(connections)
        ]
        try:
            if args.force_trip or args.force_split:
                half = len(operations) // 2
                run_phase(clients, operations[:half])

                def drill():
                    # On the loop thread: the admission loop only
                    # interleaves between pumps, so a live split here
                    # is the same barrier the supervisor relies on.
                    if args.force_trip:
                        service.force_trip(0)
                    if args.force_split:
                        import numpy as _np

                        donor = int(_np.argmax(service.router.routed))
                        service.split_shard(donor)

                door.run_in_loop(drill)
                run_phase(clients, operations[half:])
            else:
                run_phase(clients, operations)
            frontdoor_stats = door.run_in_loop(door.door.stats)
        finally:
            for client in clients:
                client.close()
    net = _client_ledger(clients)
    net["connections"] = connections
    net["frontdoor"] = frontdoor_stats
    return counts, net


def cmd_serve(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.datasets import google_urls
    from repro.service import Service, ServiceClient, run_service_workload
    from repro.workloads.ycsb import MIXES, WorkloadGenerator

    listen = None
    if args.listen is not None:
        if args.inject:
            # Chaos drills are calibrated to in-process client pump
            # pacing; the front door pumps free-running, which makes
            # `after=`-gated specs nondeterministic under --check.
            raise ValueError(
                "--listen cannot be combined with --inject; "
                "run chaos drills in-process"
            )
        listen = _parse_listen(args.listen)
    if args.connections is not None:
        if args.listen is None:
            raise ValueError("--connections requires --listen")
        if args.connections < 1:
            raise ValueError("--connections must be at least 1")

    if "scan" in MIXES[args.mix]:
        raise ValueError(
            f"mix {args.mix!r} contains scans, which the service protocol "
            "does not serve; choose one of "
            f"{sorted(m for m in MIXES if 'scan' not in MIXES[m])}"
        )
    if args.keyfile:
        keys = _read_keys(args.keyfile, args.limit)
    else:
        keys = google_urls(args.num_keys, seed=11)
    model = train_model(keys, base=args.base, word_size=args.word_size,
                        fixed_dataset=True)
    service = Service(
        num_shards=args.shards, backend=args.backend, model=model,
        capacity=len(keys), max_queue=args.max_queue,
        batch_size=args.batch_size, seed=args.seed,
        execution=args.execution,
        hot_k=args.hot_k, adapt_every=args.adapt_every,
        auto_split=args.auto_split, max_splits=args.max_splits,
        relearn=args.relearn, drift_window=args.drift_window,
        min_dwell=args.min_dwell, drift_reservoir=args.drift_reservoir,
    )
    try:
        plane = None
        if args.inject:
            from repro.faults import make_plane

            plane = make_plane(args.inject, seed=args.chaos_seed)
            service.arm_fault_plane(plane)
        client = ServiceClient(service)

        start = time.perf_counter()
        client.put_many((key, b"v0") for key in keys)
        preload_s = time.perf_counter() - start

        generator = WorkloadGenerator(keys, mix=args.mix, seed=args.seed,
                                      zipf_theta=args.theta)
        operations = list(generator.operations(args.ops))
        drift_shards = plane.plan.targets("drift") if plane else []
        drift_at = None
        if drift_shards:
            # A `drift` fault breaks the *workload*, not the service:
            # once a spec fires, every later key is rewritten so the
            # bytes the deployed plan reads go constant and the entropy
            # moves to the key tail (injective, so correctness checks
            # stay exact).  The rewrite is driven here — the owner of
            # the key stream — exactly as the FaultPlane grammar
            # documents.
            from repro.drift import (
                deployed_plan, drift_key, required_entropy_for_spec,
            )

            if args.backend not in ("chaining", "probing"):
                raise ValueError(
                    "drift faults need a partial-key table backend "
                    "(chaining or probing), got "
                    f"{args.backend!r}"
                )
            plan_fn, _ = deployed_plan(
                model, required_entropy_for_spec(service._spec)
            )
            if plan_fn is None:
                raise ValueError(
                    "drift fault armed but the model deploys full-key "
                    "hashing; there is no partial-key plan to drift away "
                    "from"
                )
            positions = list(plan_fn.positions)
            word_size = plan_fn.word_size
            from repro.workloads import Operation as _Operation

            rewritten = []
            for index, op in enumerate(operations):
                if drift_at is None and any(
                    plane.should_fire("drift", shard)
                    for shard in drift_shards
                ):
                    drift_at = index
                if drift_at is not None:
                    op = _Operation(
                        op.kind,
                        drift_key(op.key, positions, word_size=word_size),
                        op.value, op.scan_length,
                    )
                rewritten.append(op)
            operations = rewritten
        start = time.perf_counter()
        net = None
        if listen is not None:
            # The front door thread owns the service for the duration;
            # this thread only rejoins it after the door has drained.
            counts, net = _run_listen_workload(args, service, listen,
                                               operations)
        elif args.force_trip or args.force_split:
            half = len(operations) // 2
            counts = run_service_workload(client, operations[:half])
            if args.force_trip:
                service.force_trip(0)
            if args.force_split:
                # Split the busiest shard live, mid-workload: the second
                # half of the stream crosses the generation flip.
                import numpy as _np

                donor = int(_np.argmax(service.router.routed))
                service.split_shard(donor)
            for kind, n in run_service_workload(client, operations[half:]).items():
                counts[kind] = counts.get(kind, 0) + n
        else:
            counts = run_service_workload(client, operations)
        elapsed = time.perf_counter() - start
        service.drain()
        if args.inject:
            # Pump through a full heal window (cooldown + probe at the
            # default breaker pacing) so restarts finish and first-trip
            # breakers get the chance to close before we report/check.
            for _ in range(120):
                service.pump()
            service.drain()

        stats = service.stats()
        data_balance = service.router.balance_of(sorted(set(keys)))
        payload = {
            "stats": stats,
            "data_balance": data_balance,
            "operation_counts": counts,
            "preload_seconds": preload_s,
            "elapsed_seconds": elapsed,
            "ops_per_second": args.ops / elapsed if elapsed > 0 else 0.0,
            "client": _client_ledger([client]),
        }
        if net is not None:
            payload["network"] = net
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"served {args.ops} ops (mix {args.mix}, theta {args.theta}) "
                  f"over {args.shards} {args.backend} shard(s) "
                  f"[{args.execution}] "
                  f"in {elapsed:.2f}s ({payload['ops_per_second']:.0f} ops/s)")
            print(f"  preload: {len(keys)} keys in {preload_s:.2f}s")
            router = stats["router"]
            print(f"  traffic balance: relative_std {router['relative_std']:.4f} "
                  f"(bound {router['bound']:.4f}, "
                  f"{'within' if router['within_bound'] else 'EXCEEDED'})")
            print(f"  data balance:    relative_std "
                  f"{data_balance['relative_std']:.4f} "
                  f"(bound {data_balance['bound']:.4f}, "
                  f"{'within' if data_balance['within_bound'] else 'EXCEEDED'})")
            print(f"  backpressure: {stats['rejected']} rejection(s), "
                  f"{client.retries} client retries")
            routing = stats["routing"]
            print(f"  routing: generation {routing['generation']}, "
                  f"{routing['num_shards']} shard(s) "
                  f"({routing['base_shards']} base), "
                  f"{routing['overlay_keys']} hot key(s) pinned, "
                  f"{stats['splits']} split(s)")
            print(f"  degraded: {stats['degraded']} "
                  f"({stats['degrade_events']} event(s))")
            if args.inject:
                faults = stats["faults"]
                supervisor = stats["supervisor"]
                print(f"  faults: {faults['total_fired']} fired of "
                      f"{len(faults['specs'])} spec(s); "
                      f"{supervisor['restarts']} restart(s), "
                      f"{supervisor['reconciled_tickets']} ticket(s) reconciled")
            if args.relearn:
                drift = stats["drift"]
                trips = sum(d["trips"] for d in drift["shards"].values())
                print(f"  drift: {trips} detector trip(s), "
                      f"{stats['plan_swaps']} plan swap(s), "
                      f"{drift['stay_decisions']} stay(s), "
                      f"{drift['noop_suppressed']} no-op(s) suppressed "
                      f"(window {drift['window']}, dwell {drift['min_dwell']})")
            for shard in stats["shards"]:
                print(f"  shard {shard['shard']}: {shard['processed']} ops in "
                      f"{shard['batches']} batches "
                      f"(mean {shard['mean_batch_size']:.1f}, "
                      f"peak queue {shard['peak_queue_depth']}, "
                      f"rejected {shard['rejected']}, "
                      f"size {shard['structure']['size']})")
            print(f"  acks: {_ledger_line(payload['client'])}")
            if net is not None:
                fd = net["frontdoor"]
                print(f"  network: {net['connections']} connection(s) over "
                      f"{args.listen}; {fd['frames_in']} frames in "
                      f"{fd['admission_batches']} admission batch(es) "
                      f"(mean coalesced {fd['mean_coalesced']:.1f}, "
                      f"max {fd['max_coalesced']}), "
                      f"{fd['resubmits']} server-side resubmit(s)")
                print(f"  network acks: {_ledger_line(net)}")

        if not args.check:
            return 0
        failures = []
        if client.lost_acks != 0:
            failures.append(f"{client.lost_acks} sent put(s) never answered")
        if net is not None:
            if net["lost_acks"] != 0:
                failures.append(
                    f"{net['lost_acks']} network put(s) never answered"
                )
            if net["generation_retries"] != 0:
                failures.append(
                    f"{net['generation_retries']} wrong_generation "
                    "answer(s) leaked to network clients (the front door "
                    "must resubmit those server-side)"
                )
            if net["frontdoor"]["admission_error"]:
                failures.append(
                    f"admission loop died: {net['frontdoor']['admission_error']}"
                )
        if not data_balance["within_bound"] and not stats["splits"]:
            # A live split deliberately halves one base range, so after
            # any split the per-shard placement is *supposed* to be
            # uneven (donor and split-born shard each hold half a
            # range); the uniform-placement bound only applies unsplit.
            failures.append(
                f"data balance {data_balance['relative_std']:.4f} exceeds "
                f"bound {data_balance['bound']:.4f}"
            )
        if service.pending:
            failures.append(f"{service.pending} op(s) still queued after drain")
        if args.backend in ("chaining", "probing", "lsm", "similarity"):
            # No mix without scans deletes preloaded keys, so a sample must
            # read back non-None — acknowledged writes survived the run
            # (and the forced degrade, when --force-trip).
            sample = keys[: min(200, len(keys))]
            got = client.multi_get(sample)
            missing = sum(1 for value in got if value is None)
            if missing:
                failures.append(f"{missing}/{len(sample)} preloaded keys lost")
        if args.force_trip and stats["degrade_events"] < 1:
            # Breakers self-heal, so `degraded` can legitimately be False
            # again by the end of the run; the trip itself must be on record.
            failures.append("--force-trip never opened a circuit breaker")
        if args.force_split and stats["splits"] < 1:
            failures.append("--force-split never split a shard")
        if (args.force_split or args.auto_split) and stats["splits"]:
            generation = stats["routing"]["generation"]
            if generation < stats["splits"]:
                failures.append(
                    f"{stats['splits']} split(s) but routing generation "
                    f"only reached {generation}"
                )
        if listen is None and (
            args.hot_k or args.force_split or args.auto_split
        ) and sum(
            shard["wrong_generation"] for shard in stats["shards"]
        ):
            # The sweep + reconcile re-route must catch every straggler
            # internally; the dispatch guard is for external clients.
            # (Under --listen the guard firing is expected — those are
            # exactly the stragglers the front door resubmits — so the
            # network check above asserts clients never *see* one.)
            failures.append("internal tickets hit the WRONG_GENERATION guard")
        if args.inject:
            if stats["faults"]["total_fired"] < 1:
                failures.append(
                    "no injected fault ever fired (check the spec's shard/after)"
                )
            if drift_shards and drift_at is None:
                failures.append(
                    "a drift spec was armed but never fired on the stream"
                )
            if drift_shards and drift_at is not None and args.relearn:
                trips = sum(
                    d["trips"]
                    for d in stats["drift"]["shards"].values()
                )
                if trips < 1:
                    failures.append(
                        "the workload drifted but no detector ever "
                        "tripped (tap or window math broke)"
                    )
            dead = [w.shard_id for w in service.workers if w.crashed]
            if dead:
                failures.append(
                    f"shard(s) {dead} left dead after the heal window"
                )
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if not failures:
            print("all checks passed: zero lost acks, shards balanced")
        return 1 if failures else 0
    finally:
        # Process-execution shards hold OS processes and a shared-
        # memory block; release them on every exit path.
        service.close()


# Seeds the CI job sweeps; a bounded, deterministic subset of the space.
_CI_SEEDS = (0, 1, 2)
_CI_CASES = 5
_CI_OPS = 120


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.verify import TARGETS, ServingTarget, fuzz, save_repro

    if args.list:
        for name in sorted(TARGETS):
            print(name)
        return 0

    if args.structure == "all":
        names = sorted(TARGETS)
    elif args.structure in TARGETS:
        names = [args.structure]
    else:
        raise SystemExit(
            f"unknown structure {args.structure!r}; choose from "
            f"{', '.join(sorted(TARGETS))} or 'all'"
        )

    if args.ci:
        runs = [(name, seed, _CI_CASES, _CI_OPS)
                for name in names for seed in _CI_SEEDS]
    else:
        runs = [(name, args.seed, args.cases, args.ops) for name in names]

    failed = False
    for name, seed, cases, ops_per_case in runs:
        # --execution pins the serving presets to one execution backend;
        # structure-only targets have no service to configure.  Passed
        # only when set, so the default call shape (and anything
        # substituting for fuzz in tests) stays unchanged.
        kwargs = (
            {"config_overrides": {"execution": args.execution}}
            if args.execution != "inline"
            and issubclass(TARGETS[name], ServingTarget)
            else {}
        )
        report = fuzz(name, seed=seed, cases=cases, ops_per_case=ops_per_case,
                      **kwargs)
        status = "ok" if report.ok else "DIVERGED"
        print(f"{name:16s} seed={seed:<4d} cases={report.cases:<3d} "
              f"ops={report.ops_run:<6d} {status}")
        if report.ok:
            continue
        failed = True
        repro = report.failure.to_repro()
        print(f"  error: {report.failure.error}")
        print(f"  shrunk to {len(report.failure.ops)} op(s):")
        print(json.dumps(repro, indent=2, sort_keys=True))
        if args.save_repros:
            Path(args.save_repros).mkdir(parents=True, exist_ok=True)
            out = Path(args.save_repros) / f"{name}_seed{seed}.json"
            save_repro(out, repro)
            print(f"  repro written to {out}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Entropy-Learned Hashing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="profile a key file")
    analyze.add_argument("keyfile")
    analyze.add_argument("--word-size", type=int, default=8)
    analyze.add_argument("--limit", type=int, default=0)
    analyze.add_argument("--fixed", action="store_true",
                         help="keys are the final dataset (no split)")
    analyze.set_defaults(func=cmd_analyze)

    train = sub.add_parser("train", help="train and save a model")
    train.add_argument("keyfile")
    train.add_argument("--out", required=True)
    train.add_argument("--base", default="wyhash")
    train.add_argument("--word-size", type=int, default=8)
    train.add_argument("--limit", type=int, default=0)
    train.add_argument("--fixed", action="store_true")
    train.set_defaults(func=cmd_train)

    recommend = sub.add_parser("recommend", help="query a saved model")
    recommend.add_argument("model")
    recommend.add_argument("--task", choices=sorted(_TASK_REQUIREMENTS),
                           required=True)
    recommend.add_argument("--size", type=int, required=True)
    recommend.add_argument("--added-fpr", type=float, default=0.01)
    recommend.add_argument("--partitions", type=int, default=64)
    recommend.add_argument("--mode", choices=("absolute", "relative"),
                           default="relative")
    recommend.set_defaults(func=cmd_recommend)

    quality = sub.add_parser("quality", help="run hash quality batteries")
    quality.add_argument("hash", help="registered hash name (see repro.hashing)")
    quality.add_argument("--keyfile", default=None,
                         help="optional corpus for the bucket/balance tests")
    quality.add_argument("--seed", type=int, default=0)
    quality.add_argument("--limit", type=int, default=0)
    quality.set_defaults(func=cmd_quality)

    engine = sub.add_parser(
        "engine", help="stream a key file through the unified hash engine"
    )
    engine.add_argument("keyfile")
    engine.add_argument("--base", default="wyhash")
    engine.add_argument("--word-size", type=int, default=8)
    engine.add_argument("--batch-size", type=int, default=4096)
    engine.add_argument("--limit", type=int, default=0)
    engine.add_argument("--fixed", action="store_true")
    engine.add_argument("--json", action="store_true",
                        help="emit the raw stats() dict as JSON")
    engine.set_defaults(func=cmd_engine)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz a structure against its oracle",
    )
    fuzz.add_argument("--structure", default="all",
                      help="target name or 'all' (see --list)")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--cases", type=int, default=10,
                      help="independent seeded cases per target")
    fuzz.add_argument("--ops", type=int, default=120,
                      help="ops per case")
    fuzz.add_argument("--save-repros", default=None, metavar="DIR",
                      help="write shrunk repros for failures into DIR")
    fuzz.add_argument("--ci", action="store_true",
                      help="run the fixed CI seed sweep (ignores "
                           "--seed/--cases/--ops)")
    fuzz.add_argument("--execution", default="inline",
                      choices=("inline", "process"),
                      help="execution backend for the six serving "
                           "presets (other targets ignore it)")
    fuzz.add_argument("--list", action="store_true",
                      help="list available targets and exit")
    fuzz.set_defaults(func=cmd_fuzz)

    serve = sub.add_parser(
        "serve",
        help="run the sharded service under a YCSB load",
    )
    serve.add_argument("keyfile", nargs="?", default=None,
                       help="newline-delimited keys (default: synthetic URLs)")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--backend", default="chaining",
                       choices=("chaining", "probing", "lsm", "bloom",
                                "cuckoo_filter", "similarity"))
    serve.add_argument("--execution", default="inline",
                       choices=("inline", "process"),
                       help="where shards execute: the cooperative "
                            "in-interpreter pump, or one OS process per "
                            "shard over shared memory")
    serve.add_argument("--mix", default="B",
                       help="YCSB mix (no-scan mixes: A, B, C, D, F)")
    serve.add_argument("--ops", type=int, default=20000)
    serve.add_argument("--theta", type=float, default=0.99,
                       help="Zipfian skew of key popularity")
    serve.add_argument("--num-keys", type=int, default=2000,
                       help="synthetic key count when no keyfile is given")
    serve.add_argument("--base", default="wyhash")
    serve.add_argument("--word-size", type=int, default=8)
    serve.add_argument("--max-queue", type=int, default=256)
    serve.add_argument("--batch-size", type=int, default=64)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--limit", type=int, default=0)
    serve.add_argument("--hot-k", type=int, default=0,
                       help="track and pin up to K heavy-hitter keys "
                            "(0 disables the hot-key overlay)")
    serve.add_argument("--adapt-every", type=int, default=8,
                       help="pumps between routing adapt passes")
    serve.add_argument("--auto-split", action="store_true",
                       help="let the supervisor split overloaded shards live")
    serve.add_argument("--max-splits", type=int, default=4,
                       help="cap on supervisor-initiated live splits")
    serve.add_argument("--force-split", action="store_true",
                       help="split the busiest shard live at the midpoint "
                            "of the workload")
    serve.add_argument("--force-trip", action="store_true",
                       help="trip shard 0's monitor mid-run (degraded-mode "
                            "drill)")
    serve.add_argument("--inject", action="append", default=[],
                       metavar="SPEC",
                       help="arm a fault spec, e.g. crash:worker:2 or "
                            "drop:worker:1:after=3:count=2 (repeatable)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the fault plane's RNG")
    serve.add_argument("--relearn", action="store_true",
                       help="watch the served key stream for entropy "
                            "drift and hot-swap a re-learned plan "
                            "(chaining/probing backends)")
    serve.add_argument("--drift-window", type=int, default=256,
                       help="sliding-window size of the per-shard drift "
                            "detector (with --relearn)")
    serve.add_argument("--min-dwell", type=int, default=64,
                       help="pumps that must pass between re-learn "
                            "decisions (flap protection, with --relearn)")
    serve.add_argument("--drift-reservoir", type=int, default=256,
                       help="per-shard reservoir of recent keys the "
                            "re-learner trains on (with --relearn); the "
                            "certified-entropy bound grows with the "
                            "distinct keys sampled, so small reservoirs "
                            "can only ever decide to stay")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve over TCP: run the asyncio front door "
                            "and drive the workload through real sockets "
                            "(port 0 picks an ephemeral port)")
    serve.add_argument("--connections", type=int, default=None,
                       help="concurrent network connections driving the "
                            "workload (requires --listen; default 4)")
    serve.add_argument("--json", action="store_true",
                       help="emit the full stats payload as JSON")
    serve.add_argument("--check", action="store_true",
                       help="exit 1 on lost acks, imbalance, or lost keys")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        # Bad user input (missing key file, corrupt model, unknown hash,
        # invalid mix) must exit nonzero, never a traceback or a silent 0.
        # KeyError stringifies to just the repr of the key; unwrap it.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
