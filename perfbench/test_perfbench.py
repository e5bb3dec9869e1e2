"""Smoke test of the benchmark itself, on tiny inputs.

Full-size runs stay out of the test suite: every run here uses ``--smoke``
(about 2 000 / 40 / 40 functions over four windows).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: End-to-end metrics every workload prints, beside those of the result line.
PRINTED = {
    "setup_s": "s", "run_s": "s", "window_p50_ms": "ms", "window_tail_ms": "ms",
    "peak_rss_mb": "MB", "speedup_pct": "%", "cost_savings_pct": "%", "failed_pct": "%",
}
OFFLINE_PRINTED = {"optimal_pick_pct": "%", "mape_pct": "%"}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _printed_units(lines: list[str]) -> dict[str, str]:
    units = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3:
            units[fields[0]] = fields[2]
    return units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    """The untraced run prints every end-to-end metric with its unit and passes its checks."""
    lines, result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert lines[0].startswith("host ")
    host = json.loads(lines[0][len("host "):])
    assert {"nproc", "cpu", "python", "numpy", "blas"} <= set(host)
    assert set(host["threads"].values()) == {"1"}
    expected = dict(PRINTED, **(OFFLINE_PRINTED if workload == "offline-sizing" else {}))
    assert _printed_units(lines).items() >= expected.items()
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    """The traced run prints every per-layer metric with its unit."""
    lines, result = _run(workload, trace=1)
    assert result["correct"] is True
    printed = _printed_units(lines)
    for metric in BENCHMARK["per_layer"]:
        assert printed[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["engine.invocations"] > 0
    if workload == "offline-sizing":
        assert metrics["harness.case_measure_s"] > 0 and metrics["traffic.arrivals"] == 0
    else:
        assert metrics["traffic.arrivals"] > 0 and metrics["simulator.peak_mb"] > 0


def test_self_time_subtracts_direct_children():
    """Self time is a span's duration minus the time its direct children cover."""
    tree = [
        spans.Span("root", 0.0, None, 0, end=10.0),
        spans.Span("a", 1.0, 0, 0, end=4.0),
        spans.Span("b", 5.0, 0, 0, end=9.0),
        spans.Span("c", 6.0, 2, 0, end=8.0),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]


def test_layer_metrics_count_measured_windows_only():
    """Set-up spans feed the offline layers; window layers average measured windows."""
    tree = [
        spans.Span("generation", 0.0, None, "setup", end=2.0),
        spans.Span("engine", 0.5, 0, "setup", end=1.5, counts={"groups": 6, "invocations": 60}),
        spans.Span("simulator", 10.0, None, 0, end=10.4),
        spans.Span("engine", 10.1, 2, 0, end=10.3, counts={"groups": 2, "invocations": 20}),
        spans.Span("simulator", 11.0, None, 1, end=11.2),
    ]
    metrics = spans.layer_metrics(tree, windows=2, run_seconds=1.0)
    assert metrics["engine.groups"] == pytest.approx(1.0)
    assert metrics["engine.run_grouped_ms"] == pytest.approx(100.0)
    assert metrics["simulator.self_ms"] == pytest.approx(200.0)
    assert metrics["generation.generate_s"] == pytest.approx(2.0)
    assert metrics["generation.invocations"] == 60
    assert metrics["trace.unattributed_pct"] == pytest.approx(40.0)


def test_host_speed_weighs_probes_by_the_time_around_them():
    """The run's reference time is the probe median over time, not over probes."""
    host = hostspeed.HostSpeed()
    # Four quick probes bunched in the first second, then two slow ones
    # covering the remaining nine: the slow speed held for most of the run.
    host.starts = [0.0, 0.1, 0.2, 0.3, 5.0, 10.0]
    host.seconds = [0.005, 0.005, 0.005, 0.005, 0.010, 0.010]
    assert host.reference_s() == 0.010
    assert host.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.010)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_per_seed_and_differs_across_seeds(workload):
    """Two runs of one seed share a digest; another seed gives another one."""
    first = workloads.run_pass(workloads.make_workload(workload, 5, smoke=True))
    again = workloads.run_pass(workloads.make_workload(workload, 5, smoke=True))
    other = workloads.run_pass(workloads.make_workload(workload, 6, smoke=True))
    assert first["failed"] == 0 and not first["failures"]
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
