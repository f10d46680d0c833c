"""Run every benchmark's paper-style report in sequence.

Usage::

    python benchmarks/run_all.py            # everything
    python benchmarks/run_all.py fig6 tbl4  # filter by substring
    python benchmarks/run_all.py engine     # smoke run; still emits JSON

The output of a full run is what EXPERIMENTS.md records.  Any selected
module that exposes ``bench_records()`` (currently ``bench_engine``)
also contributes machine-readable records, which are written to
``BENCH_engine.json`` at the repo root together with the git revision.

After the sweep, a per-benchmark wall-clock summary table is printed
and every ``BENCH_*.json`` artifact the selected modules produce is
validated against its required-field schema — a record missing e.g.
its ``latency_p50_ns``/``latency_p99_ns`` fields fails the run with
exit 1, so a refactor cannot silently stop reporting a number the
acceptance criteria read.

Performance gate::

    python benchmarks/run_all.py bench_engine --write-baseline
    python benchmarks/run_all.py bench_engine --check-regression

``--write-baseline`` snapshots ops/sec and p99 latency for the named
hot paths in ``BASELINE_TRACKED`` into ``BENCH_baseline.json``;
``--check-regression`` re-runs the selected modules and exits 1 when
any tracked path lost more than ``--regression-tolerance`` (default
10%) of its baseline throughput or grew its p99 by more than the same
fraction.  The default is meant for same-machine comparisons; CI
passes a much looser tolerance because hosted runners differ from the
machine that wrote the committed baseline.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

MODULES = [
    "bench_engine",
    "bench_service",
    "bench_faults",
    "bench_frontdoor",
    "bench_similarity",
    "bench_drift",
    "bench_fig5_entropy_vs_words",
    "bench_fig6_probe_time",
    "bench_fig7_breakdown",
    "bench_fig8_mlp_model",
    "bench_fig9_scaling",
    "bench_fig10_bloom",
    "bench_table4_partitioning",
    "bench_table5_partition_quality",
    "bench_fig11_large_keys",
    "bench_table6_training_time",
    "bench_appendix_insert",
    "bench_appendix_chaining",
    "bench_appendix_robustness",
    "bench_appendix_dependent",
    "bench_appendix_bloom_fpr",
    "bench_appendix_threads",
    "bench_ablation_word_size",
    "bench_ablation_siphash",
    "bench_ablation_skew",
    "bench_ablation_double_hashing",
    "bench_ablation_filter_zoo",
    "bench_ablation_tags",
    "bench_ablation_reduction",
    "bench_extension_lsm",
    "bench_extension_vector_table",
    "bench_extension_ycsb",
]


# Required-field schema per machine-readable artifact.  "toplevel"
# keys must exist in the file; "record" fields must exist in every
# entry of its "records" list.  Fields only some records carry
# (per-kind extras) are deliberately not listed — this is a floor,
# not an exhaustive schema.
_LATENCY_FIELDS = ("latency_p50_ns", "latency_p99_ns", "latency_samples")
ARTIFACT_SCHEMAS = {
    "BENCH_engine.json": {
        "module": "bench_engine",
        "toplevel": ("git_rev", "generated_at_unix", "records"),
        "record": ("benchmark", "n_keys", "scalar_ns_per_key",
                   "batch_ns_per_key", "speedup") + _LATENCY_FIELDS,
    },
    "BENCH_service.json": {
        "module": "bench_service",
        "toplevel": ("git_rev", "generated_at_unix", "records"),
        "record": ("benchmark",) + _LATENCY_FIELDS,
    },
    "BENCH_faults.json": {
        "module": "bench_faults",
        "toplevel": ("git_rev", "generated_at_unix", "records"),
        "record": ("benchmark", "lost_acks") + _LATENCY_FIELDS,
    },
    "BENCH_frontdoor.json": {
        "module": "bench_frontdoor",
        "toplevel": ("git_rev", "generated_at_unix", "records", "codec",
                     "bulk"),
        "record": ("benchmark", "path", "execution", "connections",
                   "ops_per_second", "lost_acks") + _LATENCY_FIELDS,
        # Lists of their own, each entry with its own required fields.
        "series": {
            "codec": ("benchmark", "keys", "call_bytes", "answer_bytes",
                      "encode_call_ns_per_key", "decode_call_ns_per_key",
                      "encode_answers_ns_per_key",
                      "decode_answers_ns_per_key", "round_trip_ms"),
            "bulk": ("benchmark", "keys_per_call", "calls",
                     "inproc_ms_per_call", "socket_ms_per_call",
                     "socket_over_inproc", "frames_per_call",
                     "lost_acks") + _LATENCY_FIELDS,
        },
    },
    "BENCH_similarity.json": {
        "module": "bench_similarity",
        "toplevel": ("git_rev", "generated_at_unix", "records"),
        # Speed and quality must travel together: every record pairs a
        # throughput number with the recall it was measured at.
        "record": ("benchmark", "ops_per_second",
                   "recall_at_10") + _LATENCY_FIELDS,
    },
    "BENCH_drift.json": {
        "module": "bench_drift",
        "toplevel": ("git_rev", "generated_at_unix", "records"),
        # A recovery claim is only interpretable next to the machine
        # and detector configuration it was measured under: every
        # record must carry both throughput phases, the ratio, and the
        # full window/dwell parameters alongside cpu_cores.
        "record": ("benchmark", "execution", "cpu_cores", "drift_window",
                   "min_dwell", "ops_per_second_pre_drift",
                   "ops_per_second_post_swap", "recovery_ratio",
                   "plan_swaps", "lost_acks") + _LATENCY_FIELDS,
    },
}


def validate_artifacts(selected):
    """Check required fields in each artifact a selected module wrote.

    Returns a list of human-readable problems (empty == all good).
    """
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    problems = []
    for filename, schema in ARTIFACT_SCHEMAS.items():
        if schema["module"] not in selected:
            continue
        path = os.path.join(repo_root, filename)
        if not os.path.exists(path):
            problems.append(f"{filename}: artifact was never written")
            continue
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, ValueError) as exc:
            problems.append(f"{filename}: unreadable ({exc})")
            continue
        for key in schema["toplevel"]:
            if key not in report:
                problems.append(f"{filename}: missing top-level {key!r}")
        records = report.get("records")
        if not isinstance(records, list) or not records:
            problems.append(f"{filename}: no records")
            continue
        for i, record in enumerate(records):
            for field in schema["record"]:
                if field not in record:
                    name = record.get("benchmark", f"#{i}")
                    problems.append(
                        f"{filename}: record {name!r} missing {field!r}"
                    )
        for series, fields in schema.get("series", {}).items():
            entries = report.get(series)
            if not isinstance(entries, list) or not entries:
                problems.append(f"{filename}: no {series} entries")
                continue
            for i, entry in enumerate(entries):
                for field in fields:
                    if field not in entry:
                        name = entry.get("benchmark", f"#{i}")
                        problems.append(f"{filename}: {series} entry "
                                        f"{name!r} missing {field!r}")
    return problems


# ------------------------------------------------------ regression gate

BASELINE_FILE = "BENCH_baseline.json"

# The named hot paths the perf gate watches: artifact -> record names.
# Every entry must expose a throughput (ops_per_second, or derivable
# from batch_ns_per_key) and a latency_p99_ns.
BASELINE_TRACKED = {
    "BENCH_engine.json": (
        "probing_probe", "bloom_contains", "partition_assign",
    ),
    "BENCH_service.json": (
        "service_ycsb_C_uniform", "service_ycsb_A_zipf_hot",
        "service_scaling_inline", "service_scaling_speedup",
    ),
    "BENCH_faults.json": (
        "chaos_throughput_0",
    ),
    "BENCH_drift.json": (
        "drift_recovery_inline",
    ),
}


def _repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _record_ops_per_second(record):
    if "ops_per_second" in record:
        return float(record["ops_per_second"])
    if record.get("batch_ns_per_key"):
        return 1e9 / float(record["batch_ns_per_key"])
    return None


def collect_baseline_entries(selected):
    """Read the tracked hot-path numbers out of the selected artifacts."""
    entries = {}
    for filename, names in BASELINE_TRACKED.items():
        schema = ARTIFACT_SCHEMAS.get(filename)
        if schema is None or schema["module"] not in selected:
            continue
        path = os.path.join(_repo_root(), filename)
        if not os.path.exists(path):
            continue
        with open(path) as f:
            records = {
                r.get("benchmark"): r
                for r in json.load(f).get("records", [])
            }
        for name in names:
            record = records.get(name)
            if record is None:
                continue
            entry = {
                "ops_per_second": _record_ops_per_second(record),
                "latency_p99_ns": record.get("latency_p99_ns"),
            }
            # Speedup records gate on the ratio, and the ratio is only
            # meaningful relative to the host's core count — carry both.
            if "speedup_process_vs_inline" in record:
                entry["speedup_process_vs_inline"] = (
                    record["speedup_process_vs_inline"]
                )
            if "cpu_cores" in record:
                entry["cpu_cores"] = record["cpu_cores"]
            entries[f"{filename}::{name}"] = entry
    return entries


def write_baseline(selected):
    entries = collect_baseline_entries(selected)
    path = os.path.join(_repo_root(), BASELINE_FILE)
    with open(path, "w") as f:
        json.dump({
            "git_rev": _git_rev(),
            "generated_at_unix": time.time(),
            "entries": entries,
        }, f, indent=2)
    print(f"\n[wrote {len(entries)} baseline entr(y/ies) to {path}]")
    return path


def check_regression(selected, tolerance):
    """Compare the fresh artifacts against the committed baseline.

    Returns human-readable problems; empty means no tracked hot path
    regressed beyond ``tolerance`` (fractional, e.g. 0.10 == 10%).
    """
    path = os.path.join(_repo_root(), BASELINE_FILE)
    if not os.path.exists(path):
        return [f"{BASELINE_FILE} not found; run --write-baseline first"]
    with open(path) as f:
        baseline = json.load(f).get("entries", {})
    current = collect_baseline_entries(selected)
    problems = []
    checked = 0
    skipped = []
    for name, now in sorted(current.items()):
        base = baseline.get(name)
        if "speedup_process_vs_inline" in now:
            # A process-vs-inline speedup is only verifiable with real
            # parallelism: on a single-core host the process backend
            # pays IPC overhead with nothing to buy it back, so gating
            # on the ratio would enforce an unverifiable number.
            now_cores = int(now.get("cpu_cores") or 1)
            base_cores = (
                int(base.get("cpu_cores") or 1) if base is not None else None
            )
            if now_cores <= 1 or (base_cores is not None and base_cores <= 1):
                skipped.append((name, min(
                    c for c in (now_cores, base_cores) if c is not None
                )))
                continue
            if base is None:
                continue
            checked += 1
            base_speedup = base.get("speedup_process_vs_inline")
            now_speedup = now.get("speedup_process_vs_inline")
            if (base_speedup and now_speedup
                    and now_speedup < base_speedup * (1.0 - tolerance)):
                problems.append(
                    f"{name}: speedup fell "
                    f"{1.0 - now_speedup / base_speedup:.1%} "
                    f"({base_speedup:.2f}x -> {now_speedup:.2f}x, "
                    f"tolerance {tolerance:.0%})"
                )
            continue
        if base is None:
            continue
        checked += 1
        base_ops, now_ops = base.get("ops_per_second"), now.get("ops_per_second")
        if base_ops and now_ops and now_ops < base_ops * (1.0 - tolerance):
            problems.append(
                f"{name}: ops/s fell {1.0 - now_ops / base_ops:.1%} "
                f"({base_ops:.0f} -> {now_ops:.0f}, tolerance "
                f"{tolerance:.0%})"
            )
        # p99 over a few hundred samples is far noisier than aggregate
        # throughput (a single scheduler hiccup moves it), so the
        # latency gate gets 3x the throughput tolerance — it catches a
        # tail-latency disaster, not a jitter.
        latency_tolerance = 3.0 * tolerance
        base_p99, now_p99 = base.get("latency_p99_ns"), now.get("latency_p99_ns")
        if base_p99 and now_p99 and now_p99 > base_p99 * (1.0 + latency_tolerance):
            problems.append(
                f"{name}: p99 grew {now_p99 / base_p99 - 1.0:.1%} "
                f"({base_p99:.0f}ns -> {now_p99:.0f}ns, tolerance "
                f"{latency_tolerance:.0%})"
            )
    for name, cores in skipped:
        print(f"  {name}: skipped_single_core (cpu_cores={cores}; "
              "process-vs-inline speedup is unverifiable without "
              "parallelism)")
    if not checked and not skipped:
        problems.append(
            "no tracked hot path overlaps the baseline; nothing checked"
        )
    else:
        print(f"\nregression check: {checked} hot path(s) vs "
              f"{BASELINE_FILE} at {tolerance:.0%} tolerance"
              + (f", {len(skipped)} skipped_single_core" if skipped else ""))
    return problems


def _git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_engine_report(records, path=None):
    """Persist engine benchmark records as ``BENCH_engine.json``."""
    if path is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(repo_root, "BENCH_engine.json")
    report = {
        "git_rev": _git_rev(),
        "generated_at_unix": time.time(),
        "records": records,
    }
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    print(f"\n[wrote {len(records)} engine record(s) to {path}]")
    return path


def main(filters, check=False, write=False, tolerance=0.10):
    selected = [
        name for name in MODULES
        if not filters or any(f in name for f in filters)
    ]
    overall_start = time.perf_counter()
    engine_records = []
    failures = []
    timings = []
    for name in selected:
        start = time.perf_counter()
        try:
            try:
                module = importlib.import_module(name)
            except ImportError:
                module = importlib.import_module(f"benchmarks.{name}")
            module.main()
            if hasattr(module, "bench_records"):
                engine_records.extend(module.bench_records())
        except Exception as exc:  # noqa: BLE001 - keep the sweep going
            failures.append((name, exc))
            timings.append((name, time.perf_counter() - start, False))
            print(f"\n[{name} FAILED after "
                  f"{time.perf_counter() - start:.1f}s: {exc!r}]")
            continue
        timings.append((name, time.perf_counter() - start, True))
        print(f"\n[{name} finished in {time.perf_counter() - start:.1f}s]")
    if engine_records:
        write_engine_report(engine_records)

    total = time.perf_counter() - overall_start
    print("\nwall-clock summary:")
    width = max(len(name) for name, _, _ in timings) if timings else 0
    for name, seconds, ok in sorted(timings, key=lambda t: -t[1]):
        share = 100.0 * seconds / total if total else 0.0
        print(f"  {name:<{width}s} {seconds:7.1f}s {share:5.1f}%"
              f"{'' if ok else '  FAILED'}")
    print(f"\nTotal: {total:.1f}s for {len(selected)} experiment(s)")

    problems = validate_artifacts(selected)
    if problems:
        print(f"\nARTIFACT CHECK FAILED: {len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
    elif any(s["module"] in selected for s in ARTIFACT_SCHEMAS.values()):
        print("\nartifact check: all required fields present")

    regressions = []
    if write and not failures:
        write_baseline(selected)
    if check and not failures:
        regressions = check_regression(selected, tolerance)
        if regressions:
            print(f"\nREGRESSION CHECK FAILED: {len(regressions)} "
                  "problem(s):")
            for regression in regressions:
                print(f"  {regression}")
        else:
            print("regression check: all tracked hot paths within "
                  "tolerance")

    if failures:
        print(f"\nFAILED: {len(failures)} of {len(selected)} experiment(s) "
              "errored:")
        for name, exc in failures:
            print(f"  {name}: {exc!r}")
    return 1 if failures or problems or regressions else 0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("filters", nargs="*",
                        help="substring filters over module names")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"snapshot tracked hot paths to {BASELINE_FILE}")
    parser.add_argument("--check-regression", action="store_true",
                        help="exit 1 if a tracked hot path regressed past "
                             "the tolerance vs the committed baseline")
    parser.add_argument("--regression-tolerance", type=float, default=0.10,
                        help="fractional regression allowed (default 0.10; "
                             "use a loose value across machines)")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    _args = _parse_args(sys.argv[1:])
    sys.exit(main(_args.filters, check=_args.check_regression,
                  write=_args.write_baseline,
                  tolerance=_args.regression_tolerance))
