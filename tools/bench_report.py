#!/usr/bin/env python
"""Run the performance benchmark suite and emit machine-readable reports.

Produces ``BENCH_fleet.json`` and ``BENCH_generation.json`` (schema
documented in ``docs/PERFORMANCE.md``) so successive PRs can track the
throughput and peak-memory trajectory of the two hot paths:

- **fleet** — fused cross-function window execution vs the per-function-batch
  path (windows/s, invocations/s, tracemalloc peak bytes), plus the
  fleet-scale ``sparse`` section (the fleet window and its cohort variant vs
  the dense O(fleet) reference on a mostly-idle fleet), the ``noise``
  section (the grouped kernel with per-group vs pooled noise on the sparse
  active groups) and the ``fleet_scale`` endurance run (one million
  functions through 24 virtual hours at ``--scale full``);
- **generation** — training-dataset generation per execution-backend variant
  (invocations/s from the median of 3 untraced runs, tracemalloc peak bytes
  from a separate traced run).

The scenarios are not re-defined here: this tool loads the benchmark
modules (``benchmarks/test_bench_fleet.py`` / ``test_bench_generation.py``)
and reuses their scenario builders and variant tables, so the reported
numbers always describe exactly the scenarios CI asserts.  Scale is applied
through the same environment knobs the benchmarks honour.

Usage::

    PYTHONPATH=src python tools/bench_report.py [--out DIR] [--scale quick|full]
                                                [--only fleet|generation]

The ``quick`` scale (default) finishes in a few minutes and is meant for CI
trend lines; ``full`` runs the acceptance-criterion scale (500 fleet
functions, 100 000 functions in the sparse scenario, one million in the
fleet-scale endurance run, the 200-function default dataset).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform as platform_module
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

_BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: Environment knobs (shared with the benchmarks) applied per --scale.
SCALES = {
    "quick": {
        "REPRO_BENCH_FLEET_SPEEDUP_FUNCTIONS": "120",
        "REPRO_BENCH_FLEET_SPARSE_FUNCTIONS": "5000",
        "REPRO_BENCH_GEN_FUNCTIONS": "60",
    },
    "full": {
        "REPRO_BENCH_FLEET_SPEEDUP_FUNCTIONS": "500",
        "REPRO_BENCH_FLEET_SPARSE_FUNCTIONS": "100000",
        "REPRO_BENCH_GEN_FUNCTIONS": "200",
    },
}

#: The fleet-scale endurance scenario per --scale: (n_functions, n_windows).
#: ``full`` is the acceptance run — one million functions through 24 virtual
#: hours of diurnal traffic; ``quick`` shrinks it for CI trend lines.
FLEET_SCALE = {
    "quick": (50_000, 6),
    "full": (1_000_000, 24),
}


#: Untraced runs per generation variant; the report keeps their median.
GENERATION_REPEATS = 3


def _load_benchmark(name: str):
    """Import a benchmark module by file path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(fn):
    """Run ``fn`` returning (result, seconds, tracemalloc peak bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def bench_fleet() -> dict:
    """Fused vs looped fleet window execution (the asserted speedup scenario)."""
    bench = _load_benchmark("test_bench_fleet")
    functions, traffic = bench._speedup_scenario()

    results = {}
    reference = None
    for label, fused in (("fused", True), ("looped", False)):
        (seconds, invocations, stats), wall_seconds, peak = _traced(
            lambda fused=fused: bench.execute_windows(functions, traffic, fused=fused)
        )
        stacked = np.stack(stats)
        if reference is None:
            reference = stacked
        elif not np.array_equal(reference, stacked):
            raise AssertionError("fused and looped window stats diverged")
        results[label] = {
            "ops_per_second": round(invocations / seconds, 1),
            "windows_per_second": round(bench.SPEEDUP_WINDOWS / seconds, 3),
            "seconds": round(seconds, 4),
            "wall_seconds": round(wall_seconds, 4),
            "invocations": invocations,
            "peak_bytes": int(peak),
        }
    return {
        "config": {
            "n_functions": bench.SPEEDUP_FUNCTIONS,
            "n_windows": bench.SPEEDUP_WINDOWS,
            "window_s": bench.WINDOW_S,
            "mean_rate_range_rps": list(bench.SPEEDUP_RATE_RANGE),
        },
        "results": results,
        "speedup": round(
            results["looped"]["seconds"] / results["fused"]["seconds"], 2
        ),
        "sparse": bench_fleet_sparse(bench),
        "noise": bench_fleet_noise(bench),
    }


def bench_fleet_sparse(bench) -> dict:
    """Fleet window variants vs the dense reference.

    The mostly-idle fleet-scale scenario (``_sparse_scenario``, ~1 % active
    per window).  ``dense`` is the pre-sparse O(fleet) window body; both
    variants run through ``FleetSimulator.run_window``: ``sparse`` is the
    default window, ``cohort`` the explicitly statistical cohort mode.
    """
    functions, traffic = bench._sparse_scenario()
    variants = {
        "sparse": {},
        "cohort": {"cohort_mode": "statistical"},
    }
    results = {}
    (seconds, invocations, _), wall_seconds, peak = _traced(
        lambda: bench.execute_dense_reference_windows(functions, traffic)
    )
    results["dense"] = {
        "windows_per_second": round(bench.SPARSE_WINDOWS / seconds, 3),
        "seconds": round(seconds, 4),
        "wall_seconds": round(wall_seconds, 4),
        "invocations": invocations,
        "peak_bytes": int(peak),
    }
    for label, knobs in variants.items():
        (seconds, invocations, windows), wall_seconds, peak = _traced(
            lambda knobs=knobs: bench.execute_sparse_windows(
                functions, traffic, **knobs
            )
        )
        results[label] = {
            "windows_per_second": round(bench.SPARSE_WINDOWS / seconds, 3),
            "seconds": round(seconds, 4),
            "wall_seconds": round(wall_seconds, 4),
            "invocations": invocations,
            "active_per_window": int(np.mean([w.n_active for w in windows])),
            "peak_bytes": int(peak),
        }
    return {
        "config": {
            "n_functions": bench.SPARSE_FUNCTIONS,
            "n_windows": bench.SPARSE_WINDOWS,
            "window_s": bench.WINDOW_S,
            "mean_rate_range_rps": list(bench.SPARSE_RATE_RANGE),
        },
        "results": results,
        "speedup": round(
            results["dense"]["seconds"] / results["sparse"]["seconds"], 2
        ),
    }


def bench_fleet_noise(bench) -> dict:
    """Grouped-kernel noise modes on the sparse scenario's active groups.

    The timed region is the contested execution work (grouped execution +
    stat reduction over pre-built requests), exactly the region
    ``test_bench_pooled_noise_speedup`` asserts, and timings are the
    best of five fresh runs in which the two modes execute window by
    window, interleaved (the benchmark's noise discipline); peak bytes come
    from one separately traced run per mode.  ``per-group`` is the kernel
    with bit-exact per-group streams (it must agree bit for bit with the
    looped per-group schedule, asserted on an untimed run) and ``pooled``
    the kernel with the explicitly statistical shared window stream.
    """
    functions, traffic = bench._sparse_scenario()
    window_arrivals = bench._sparse_active_arrivals(functions, traffic)
    noises = ("per-group", "pooled")
    runs = [
        bench.execute_noise_windows(functions, traffic, window_arrivals, noises)
        for _ in range(5)
    ]
    _, _, looped_stats = bench.execute_backend_windows(
        functions, traffic, window_arrivals, looped=True
    )
    if not all(
        np.array_equal(looped_window, window)
        for looped_window, window in zip(looped_stats, runs[0]["per-group"][2])
    ):
        raise AssertionError("grouped kernel stats diverged from the looped path")
    results = {}
    for noise in noises:
        seconds = min(run[noise][0] for run in runs)
        (_, invocations, _), wall_seconds, peak = _traced(
            lambda noise=noise: bench.execute_backend_windows(
                functions, traffic, window_arrivals, noise=noise
            )
        )
        results[noise] = {
            "windows_per_second": round(bench.SPARSE_WINDOWS / seconds, 3),
            "seconds": round(seconds, 4),
            "wall_seconds": round(wall_seconds, 4),
            "invocations": invocations,
            "peak_bytes": int(peak),
        }
    return {
        "config": {
            "n_functions": bench.SPARSE_FUNCTIONS,
            "n_windows": bench.SPARSE_WINDOWS,
            "window_s": bench.WINDOW_S,
            "mean_rate_range_rps": list(bench.SPARSE_RATE_RANGE),
        },
        "results": results,
        "pooled_speedup": round(
            results["per-group"]["seconds"] / results["pooled"]["seconds"], 2
        ),
    }


def bench_fleet_scale(scale: str) -> dict:
    """The fleet-scale endurance run: a mostly-idle fleet through 24 windows.

    At ``--scale full`` this is the acceptance criterion — one million
    functions under diurnal traffic completing 24 virtual hours of sparse
    windows — recorded here so successive PRs track its wall clock and peak
    window memory.  Setup (spec replication, eager deployment) is reported
    separately from the windowed phase; ``seconds`` comes from an untraced
    run of the window sequence while ``peak_bytes``/``wall_seconds`` come
    from a separately traced second virtual day, and the simulator's always-on
    :class:`~repro.fleet.profiling.WindowPhaseProfiler` breakdown is
    attached as the ``phases`` section (where the per-window wall time
    goes: traffic sampling, seeding, group build, execute, reduce).
    """
    bench = _load_benchmark("test_bench_fleet")
    from repro.fleet import FleetConfig, FleetSimulator

    n_functions, n_windows = FLEET_SCALE[scale]
    # Building a million-function fleet allocates millions of objects and
    # triggers full GC collections; freeze the earlier benchmark sections'
    # surviving objects so those collections scan only what THIS section
    # allocates — the standalone setup cost, not the report's residue.
    gc.collect()
    gc.freeze()
    try:
        setup_start = time.perf_counter()
        functions, traffic = bench._sparse_scenario(n_functions)
        simulator = FleetSimulator(
            functions,
            traffic,
            FleetConfig(window_s=bench.WINDOW_S, seed=99),
        )
        setup_seconds = time.perf_counter() - setup_start
    finally:
        gc.unfreeze()

    # Timed phase: untraced — tracemalloc multiplies the cost of the
    # window loop's allocations, so `seconds` (and the profiler phases)
    # come from a clean run.
    start = time.perf_counter()
    invocations = 0
    active = 0
    for _ in range(n_windows):
        window = simulator.run_window()
        invocations += int(np.sum(window.n_arrivals))
        active += window.n_active
    seconds = time.perf_counter() - start
    phases = simulator.profiler.snapshot()

    # Traced phase: one more full window sequence (the next virtual day,
    # covering the whole diurnal cycle) under tracemalloc for the
    # allocation ceiling; its wall clock is reported as `wall_seconds`
    # and must never be compared against `seconds`.
    tracemalloc.start()
    wall_start = time.perf_counter()
    for _ in range(n_windows):
        simulator.run_window()
    wall_seconds = time.perf_counter() - wall_start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "config": {
            "n_functions": n_functions,
            "n_windows": n_windows,
            "window_s": bench.WINDOW_S,
            "virtual_hours": n_windows * bench.WINDOW_S / 3600.0,
            "mean_rate_range_rps": list(bench.SPARSE_RATE_RANGE),
        },
        "results": {
            "sparse": {
                "windows_per_second": round(n_windows / seconds, 3),
                "seconds": round(seconds, 4),
                "setup_seconds": round(setup_seconds, 4),
                "wall_seconds": round(wall_seconds, 4),
                "invocations": invocations,
                "active_per_window": active // n_windows,
                "peak_bytes": int(peak),
            }
        },
        "phases": phases,
    }


def bench_generation() -> dict:
    """Dataset-generation throughput per execution-backend variant.

    ``seconds`` is the median of :data:`GENERATION_REPEATS` untraced runs,
    each on a fresh generator, with the variants interleaved so host drift
    spreads over all of them; ``peak_bytes`` comes from one separate
    ``tracemalloc`` run (tracing inflates time, and unevenly between the
    variants).
    """
    bench = _load_benchmark("test_bench_generation")
    n_functions = bench.N_FUNCTIONS
    invocations = bench._INVOCATIONS
    runs = {label: [] for label in bench._VARIANTS}
    for _ in range(GENERATION_REPEATS):
        for label in bench._VARIANTS:
            generator = bench._generator(label)
            gc.collect()
            start = time.perf_counter()
            table = generator.generate_table()
            runs[label].append(time.perf_counter() - start)
            assert table.n_functions == n_functions
    results = {}
    for label in bench._VARIANTS:
        _, _, peak = _traced(bench._generator(label).generate_table)
        seconds = statistics.median(runs[label])
        results[label] = {
            "ops_per_second": round(invocations / seconds, 1),
            "seconds": round(seconds, 4),
            "seconds_runs": [round(t, 4) for t in runs[label]],
            "invocations": invocations,
            "peak_bytes": int(peak),
        }
    return {
        "config": {
            "n_functions": n_functions,
            "memory_sizes": 6,
            "invocations_per_size": 120,
            "repeats": GENERATION_REPEATS,
        },
        "results": results,
        "speedup": round(
            results["serial"]["seconds"] / results["vectorized"]["seconds"], 2
        ),
    }


def _report(name: str, scale: str, payload: dict) -> dict:
    payload.update(
        {
            "schema_version": SCHEMA_VERSION,
            "benchmark": name,
            "scale": scale,
            "python": platform_module.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "processor": platform_module.processor() or platform_module.machine(),
        }
    )
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".", help="output directory for the JSON files")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--only", choices=("fleet", "generation"), default=None)
    args = parser.parse_args(argv)

    os.environ.update(SCALES[args.scale])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.only in (None, "fleet"):
        payload = bench_fleet()
        payload["fleet_scale"] = bench_fleet_scale(args.scale)
        report = _report("fleet", args.scale, payload)
        path = out_dir / "BENCH_fleet.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        scale_row = report["fleet_scale"]["results"]["sparse"]
        print(
            f"{path}: fused {report['results']['fused']['ops_per_second']:,.0f} inv/s, "
            f"looped {report['results']['looped']['ops_per_second']:,.0f} inv/s "
            f"({report['speedup']}x); sparse {report['sparse']['speedup']}x over "
            f"dense at {report['sparse']['config']['n_functions']:,} functions; "
            f"pooled noise {report['noise']['pooled_speedup']}x over per-group; "
            f"fleet-scale {report['fleet_scale']['config']['n_functions']:,} "
            f"functions x {report['fleet_scale']['config']['n_windows']} windows "
            f"in {scale_row['seconds']:.1f} s "
            f"(peak {scale_row['peak_bytes'] / 1e6:.1f} MB)"
        )
    if args.only in (None, "generation"):
        report = _report("generation", args.scale, bench_generation())
        path = out_dir / "BENCH_generation.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(
            f"{path}: vectorized {report['results']['vectorized']['ops_per_second']:,.0f} "
            f"inv/s ({report['speedup']}x over serial)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
