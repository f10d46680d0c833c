"""Smoke test for the end-to-end benchmark.

Runs every workload at a tiny unit count, in both report modes, and
checks that its answers pass and that the metrics it emits are exactly
the ones ``BENCHMARK.json`` declares, with the same units — so the code
and the declaration cannot drift apart.  Run it with
``python -m pytest benchmarks/e2e/test_e2e.py`` (about a minute).
"""

import json
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import ROOT, pace
from benchmarks.e2e import run as e2e
from benchmarks.e2e.workloads import BulkRead, own_peak_rss_mb

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Enough units for every layer of each workload to run at least once.
SMOKE_UNITS = {
    "bulk_read": 2,
    "small_mixed": 8,
    "kernel_probe": 4,
}


def test_declared_workloads_are_the_ones_that_run():
    assert [w["name"] for w in DECLARED["workloads"]] == list(e2e.WORKLOADS)
    assert DECLARED["run_seconds"] == e2e.DEFAULT_SECONDS


@pytest.mark.parametrize("trace", [False, True],
                         ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(e2e.WORKLOADS))
def test_workload_passes_checks_and_emits_declared_metrics(
        workload, trace, tmp_path):
    trace_out = tmp_path / "trace.json"
    result = e2e.run_workload(workload, seed=3, trace=trace,
                              units=SMOKE_UNITS[workload],
                              trace_out=trace_out)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        spans = json.loads(trace_out.read_text())["spans"]
        assert spans
    else:
        assert all(result["metrics"][name]["value"] > 0
                   for name in e2e.END_TO_END)


def test_meter_drops_its_own_laps_and_scales_by_them():
    with pace.Meter() as meter:
        _, seconds, scaled = meter.time(lambda: time.sleep(0.2))
    laps = meter.laps
    # The timer ran laps during the sleep, which still ended on time;
    # their time is not the call's.
    assert len(laps) > 3
    assert seconds < 0.2
    speed = sum(pace.NOMINAL_LAP_S / lap for lap in laps) / len(laps)
    assert scaled == pytest.approx(seconds * speed)


def test_checks_count_a_wrong_answer():
    workload = BulkRead()
    workload.setup(3)
    try:
        for key in workload.oracle:
            workload.oracle[key] = b"not the stored value"
        sample = workload.measure(1)
    finally:
        workload.close()
    assert sample.failed == BulkRead.call_keys


def test_peak_rss_is_not_inherited_from_the_launching_process():
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    child = subprocess.run(
        [sys.executable, "-c",
         "from benchmarks.e2e.workloads import own_peak_rss_mb; "
         "print(own_peak_rss_mb())"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    assert float(child.stdout) < own_peak_rss_mb() - 32
