"""Extension — vectorized tag rounds vs the per-key table walk.

Measured at hit rate 0 (the filter-style workload): misses resolve on
tag mismatches alone, so ``LinearProbingTable.probe_batch``'s
vectorized rounds do nearly all the work.  For hit-heavy workloads the
mandatory full-key comparison is scalar either way and the walks tie.

Not a paper figure: quantifies how much of the per-key Python overhead
one batched pass (vectorized hashing, then round-synchronous tag
checks) removes against a loop of ``get`` calls on the same table, and
verifies that ELH's relative advantage persists on the faster path (the
paper's observation that *more optimized tables benefit more* from
cheap hashing, Section 6.8 / appendix experiment 2).
"""

try:
    from benchmarks.common import DISPLAY, workload
except ImportError:
    from common import DISPLAY, workload

from repro.bench.harness import build_probe_mix, time_callable
from repro.bench.reporting import format_speedup_table, print_header
from repro.core.hasher import EntropyLearnedHasher
from repro.tables.probing import LinearProbingTable

DATASETS = ("hn", "google")
NUM_PROBES = 4_000


def run_comparison():
    rows = {}
    for name in DATASETS:
        work = workload(name)
        stored = work.stored_large[:8_000]
        probes = build_probe_mix(stored, work.missing, 0.0, NUM_PROBES, seed=3)
        for hasher_label, hasher in (
            ("wyhash", EntropyLearnedHasher.full_key("wyhash")),
            ("ELH", work.model.hasher_for_probing_table(len(stored))),
        ):
            table = LinearProbingTable(hasher, capacity=int(len(stored) / 0.7))
            table.insert_batch(stored)

            per_key_ns = time_callable(
                lambda: [table.get(k) for k in probes]
            ) * 1e9 / NUM_PROBES
            batch_ns = time_callable(
                lambda: table.probe_batch(probes)
            ) * 1e9 / NUM_PROBES
            rows[f"{DISPLAY[name]}/{hasher_label}"] = {
                "per_key_ns": per_key_ns,
                "batch_ns": batch_ns,
                "batch_speedup": per_key_ns / batch_ns,
            }
    for name in DATASETS:
        full = rows[f"{DISPLAY[name]}/wyhash"]
        elh = rows[f"{DISPLAY[name]}/ELH"]
        elh["elh_speedup"] = full["batch_ns"] / elh["batch_ns"]
    return rows


def main():
    print_header("Extension: vectorized tag rounds (hit rate 0, 8K keys)")
    rows = run_comparison()
    print(format_speedup_table(
        rows, ["per_key_ns", "batch_ns", "batch_speedup", "elh_speedup"],
        row_title="dataset/hash", digits=2,
    ))
    print()
    print("batch_speedup: probe_batch vs a get loop on the same table;"
          "\nelh_speedup: ELH vs full-key, both through probe_batch.")


def test_vector_engine_faster_on_misses():
    """Misses are the rounds' target: tags filter nearly every probe,
    so the whole batch resolves in a few vectorized rounds."""
    rows = run_comparison()
    for label, row in rows.items():
        if label.endswith("/ELH"):
            assert row["batch_speedup"] > 1.0, (label, row)


def test_elh_still_wins_on_fast_engine():
    rows = run_comparison()
    assert rows["Hn/ELH"]["elh_speedup"] > 1.2


def test_vector_probe_benchmark(benchmark):
    work = workload("hn")
    hasher = work.model.hasher_for_probing_table(2_000)
    table = LinearProbingTable(hasher, capacity=4096)
    table.insert_batch(work.stored_small)
    probes = build_probe_mix(work.stored_small, work.missing, 0.5, 2000, seed=3)
    benchmark(lambda: table.probe_batch(probes))


if __name__ == "__main__":
    main()
