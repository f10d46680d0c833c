"""End-to-end benchmark: one command, three workloads, checked answers.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload bulk_read --seed 1 \\
        --seconds 20 --trace 0

It sets the workload up three times (``setup_s`` is the median), warms
it up, measures it, checks every answer, prints each metric by name and
unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every time it reports is scaled to the
nominal host speed by reference laps (see ``pace.py``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` measures a quarter of the
units untraced and as many traced, in alternating blocks, reports the
per-layer metrics and writes the spans to ``--trace-out``.  The exit code is 0 only when every
answer was right.

Without ``--workload`` every workload runs, each in a fresh
subprocess; ``--repeat N`` runs N such sets with seeds ``seed`` ..
``seed + N - 1``, alternating the workload order, and writes every
run's values plus the median and quartiles per (workload, metric) to
``--out``.
"""

import os

# The benchmark is one thread: keep native thread pools from starting
# extra threads in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

if __package__ in (None, ""):
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
    )

from benchmarks.e2e import ROOT, pace  # noqa: E402
from benchmarks.e2e.trace import (  # noqa: E402
    LAYERS,
    ROOT as ROOT_SPAN,
    Tracer,
)
from benchmarks.e2e.workloads import (  # noqa: E402
    BulkRead,
    KernelProbe,
    SmallMixed,
    combine,
    own_peak_rss_mb,
)

WORKLOADS = {w.name: w for w in (BulkRead, SmallMixed, KernelProbe)}
DEFAULT_SECONDS = 20
SETUP_REPEATS = 3
# A traced run measures 1/TRACE_FRACTION of the units untraced and as
# many traced, in TRACE_BLOCKS alternating blocks, so that a change in
# the host's speed during the run falls on both halves alike.
TRACE_FRACTION = 4
TRACE_BLOCKS = 8
OUT_DIR = ROOT / "benchmarks" / "e2e" / "out"

END_TO_END = {
    "ops_per_s": "ops/s",
    "p50_us": "us",
    "p90_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SHARE_LAYERS = list(LAYERS)
PER_LAYER = {
    "client.retries_per_op": "retries/op",
    "client.backoff_pumps_per_op": "pumps/op",
    "service.admit_first_try": "fraction",
    "service.pumps_per_op": "pumps/op",
    "router.keys_per_call": "keys/call",
    "worker.ops_per_dispatch": "ops/batch",
    "worker.queue_depth_mean": "requests",
    "worker.queue_wait_us": "us",
    "core.keys_per_segment": "keys/call",
    "engine.us_per_call": "us",
    "engine.keys_per_call": "keys/call",
    "engine.bytes_per_key": "B/key",
    "journal.records_per_op": "records/op",
    **{f"{layer}.self_share": "fraction" for layer in SHARE_LAYERS},
    "trace.overhead": "fraction",
    "trace.unattributed_share": "fraction",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------ metrics


def end_to_end_metrics(sample, setups, rss_mb):
    lat = sample.latencies
    return {
        "ops_per_s": ratio(sample.ops, sample.busy_s),
        "p50_us": percentile(lat, 50) * 1e6,
        "p90_us": percentile(lat, 90) * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def count_metrics(sample):
    """Per-layer metrics read from public counters; every run has them.
    A metric whose layer a workload does not use reads 0."""
    c = sample.counts
    ops = sample.ops
    get = c.get
    return {
        "client.retries_per_op": ratio(get("retries", 0), ops),
        "client.backoff_pumps_per_op": ratio(get("backoff_pumps", 0), ops),
        "service.admit_first_try": (
            1.0 - ratio(get("rejected", 0), get("submitted", 0))
            if get("submitted") else 0.0
        ),
        "service.pumps_per_op": ratio(get("pumps", 0), ops),
        "worker.ops_per_dispatch": ratio(get("processed", 0),
                                         get("batches", 0)),
        "journal.records_per_op": ratio(get("journal_records", 0), ops),
        "engine.keys_per_call": ratio(get("engine_batch_keys", 0),
                                      get("engine_batches", 0)),
        "engine.bytes_per_key": ratio(get("engine_bytes", 0),
                                      get("engine_keys", 0)),
    }


def layer_metrics(traced, untraced):
    """Every per-layer metric, from the traced blocks of a run and the
    untraced blocks interleaved with them."""
    layers = traced.layers
    wall = traced.layer_wall_s
    # Shares are ratios of clock readings; absolute times are scaled to
    # the nominal host speed like every other time the benchmark reports.
    scale = ratio(traced.busy_s, traced.raw_s)
    out = count_metrics(traced)

    def totals(layer):
        return layers.get(layer, {"self_s": 0.0, "calls": 0, "items": 0})

    attributed = 0.0
    for layer in SHARE_LAYERS:
        share = ratio(totals(layer)["self_s"], wall)
        out[f"{layer}.self_share"] = share
        attributed += share
    pump = totals("service.pump")
    queued = ratio(pump["items"], pump["calls"])   # all shards, per pump
    out["worker.queue_depth_mean"] = ratio(queued,
                                           traced.counts.get("shards", 0))
    # Little's law: time in queue = tickets queued / tickets per second.
    out["worker.queue_wait_us"] = ratio(
        queued, ratio(traced.ops, wall * scale)) * 1e6
    router = totals("router")
    out["router.keys_per_call"] = ratio(router["items"], router["calls"])
    core = totals("core.serve_segment")
    out["core.keys_per_segment"] = ratio(core["items"], core["calls"])
    engine = totals("engine.hash_batch")
    out["engine.us_per_call"] = ratio(engine["self_s"] * scale,
                                      engine["calls"]) * 1e6
    out["trace.overhead"] = 1.0 - ratio(percentile(untraced.latencies, 50),
                                        percentile(traced.latencies, 50))
    out["trace.unattributed_share"] = 1.0 - attributed
    return out


# ---------------------------------------------------------------- runs


def run_workload(name, seed, seconds=DEFAULT_SECONDS, trace=False,
                 units=None, trace_out=None):
    """Run one workload in this process; returns the result object."""
    make = WORKLOADS[name]
    if units is None:
        units = max(1, round(make.units_per_s * seconds))
    setups = []
    attempted = failed = 0
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            # Each set-up starts from nothing: the previous one is
            # released first, so peak RSS holds one set-up, not two.
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload = make()
            with pace.Meter() as meter:
                _, _, took = meter.time(functools.partial(workload.setup,
                                                          seed))
            setups.append(took)
        samples = [workload.measure(min(workload.warm_units, units))]
        if not trace:
            samples.append(workload.measure(units))
            measured = samples[-1]
            metrics = end_to_end_metrics(measured, setups,
                                         own_peak_rss_mb())
            units_of = END_TO_END
        else:
            pairs = TRACE_BLOCKS // 2
            block = max(1, units // TRACE_FRACTION // pairs)
            tracer = Tracer()
            plain, traced = [], []
            for _ in range(pairs):
                plain.append(workload.measure(block))
                tracer.install()
                try:
                    traced.append(workload.measure(block, tracer))
                finally:
                    tracer.uninstall()
            samples += plain + traced
            measured = combine(traced)
            measured.layers = tracer.summary()
            measured.layer_wall_s = sum(
                layer["self_s"] for layer in measured.layers.values()
            )
            measured.spans = tracer.span_records()
            metrics = layer_metrics(measured, combine(plain))
            units_of = PER_LAYER
        detail = count_metrics(measured)
        for sample in samples:
            attempted += sample.attempted
            failed += sample.failed
        failed += workload.final_failures()
    finally:
        if workload is not None:
            workload.close()
    if trace:
        write_trace(trace_out or OUT_DIR / f"trace-{name}-seed{seed}.json",
                    name, seed, len(traced) * block, measured, metrics)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units_of.items()
        },
        "detail": detail,
        "units": units,
        "raw_ops_per_s": ratio(measured.ops, measured.raw_s),
    }


def write_trace(path, name, seed, units, sample, metrics) -> None:
    os.makedirs(os.path.dirname(os.fspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({
            "workload": name,
            "seed": seed,
            "units": units,
            "ops": sample.ops,
            "wall_s": sample.layer_wall_s,
            "root_span": ROOT_SPAN,
            "layers": sample.layers,
            "metrics": metrics,
            "spans": sample.spans,
        }, handle)


def print_result(name, result) -> None:
    print(f"{name}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, {result['units']} units, "
          f"{result['raw_ops_per_s']:.6g} ops/s before scaling")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:14.6g} {metric['unit']}")
    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


# ----------------------------------------------------------- full sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_sets(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    ok = True
    for r in range(args.repeat):
        seed = args.seed + r
        for name in (names if r % 2 == 0 else names[::-1]):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            run = {"workload": name, "seed": seed,
                   "returncode": proc.returncode}
            try:
                run["result"] = json.loads(lines[-1])
                run["detail"] = json.loads(next(
                    line for line in lines if line.startswith("detail: ")
                )[len("detail: "):])
            except (IndexError, StopIteration, ValueError):
                run["result"] = None
                run["stderr"] = proc.stderr[-4000:]
            ok = ok and proc.returncode == 0 and bool(
                run["result"] and run["result"]["correct"])
            runs.append(run)
            print(f"[{len(runs)}] {name} seed {seed}: "
                  f"exit {proc.returncode}", flush=True)
    summary = {}
    for name in names:
        done = [run["result"] for run in runs
                if run["workload"] == name and run["result"]]
        if not done:
            continue
        summary[name] = {}
        for key, metric in done[0]["metrics"].items():
            values = [result["metrics"][key]["value"] for result in done]
            q1, median, q3 = quartiles(values)
            summary[name][key] = {
                "unit": metric["unit"], "values": values, "median": median,
                "q1": q1, "q3": q3,
                "spread": ratio(q3 - q1, abs(median)),
            }
    out = args.out or OUT_DIR / (
        f"sets-seed{args.seed}-x{args.repeat}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.fspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"seconds": args.seconds, "trace": args.trace,
                   "runs": runs, "summary": summary}, handle, indent=1)
    for name, metrics in summary.items():
        print(name)
        for key, stats in metrics.items():
            print(f"  {key:34s} median {stats['median']:12.6g} "
                  f"{stats['unit']:12s} spread {stats['spread']:7.2%}")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the serving stack.")
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="full sets to run (only without --workload)")
    parser.add_argument("--out", help="where a full set writes its JSON")
    parser.add_argument("--trace-out", help="where a traced run writes "
                        "its spans")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.repeat < 1:
        parser.error("--seconds and --repeat must be at least 1")
    if args.workload == "all" or args.repeat > 1:
        return run_sets(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace), trace_out=args.trace_out)
    print_result(args.workload, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
