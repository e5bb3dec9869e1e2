#!/usr/bin/env python
"""Run the performance benchmark suite and emit machine-readable reports.

Produces ``BENCH_fleet.json``, ``BENCH_generation.json`` and
``BENCH_training.json`` (schema documented in ``docs/PERFORMANCE.md``) so
successive PRs can track the throughput and peak-memory trajectory of the
hot paths:

- **fleet** — fused cross-function window execution vs the per-function-batch
  path (windows/s, invocations/s) on a long-tail fleet and, as ``hot``, on an
  always-active one, plus the fleet-scale ``sparse`` section (the fleet
  window vs the dense O(fleet) reference on a mostly-idle fleet), all timed
  as the median of 3 untraced interleaved runs with tracemalloc peak bytes
  from a separate traced run; ``hot.service`` (the always-active fleet
  through the rightsizing service, with its per-window phases); the
  ``walk_shapes`` section (the grouped kernel on six instance-walk
  shapes, each run after a host-speed probe); the ``fleet_scale``
  endurance run (one million functions through 24 virtual hours at
  ``--scale full``); and ``service_scale``, the
  same fleet through ``FleetRightsizingService`` (every window phase,
  ``decide`` and ``ledger`` included);
- **generation** — training-dataset generation per execution-backend variant
  (invocations/s from the median of 3 untraced runs, tracemalloc peak bytes
  from a separate traced run);
- **training** — the default network's fit with the flat-buffer trainer vs
  the allocate-per-step reference trainer (seconds from the median of 3
  interleaved runs in a child process with BLAS pinned to one thread).

The scenarios are not re-defined here: this tool loads the benchmark
modules (``benchmarks/test_bench_fleet.py`` / ``test_bench_generation.py``
/ ``test_bench_training.py``) and reuses their scenario builders and variant
tables, so the reported numbers always describe exactly the scenarios CI
asserts.  Scale is applied through the same environment knobs the
benchmarks honour.

Usage::

    PYTHONPATH=src python tools/bench_report.py [--out DIR] [--scale quick|full]
                                                [--only fleet|generation|training]

The ``quick`` scale (default) finishes in a few minutes and is meant for CI
trend lines; ``full`` runs the acceptance-criterion scale (500 fleet
functions, 100 000 functions in the sparse scenario, one million in the
fleet-scale endurance run, the 200-function default dataset, the default
network's 400 epochs).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform as platform_module
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

# One BLAS thread before NumPy loads, as perfbench and CI run: the walk
# shapes' host-speed probes time a matrix product, and with two threads a
# process's first probes read up to ten times slower than its later ones.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

SCHEMA_VERSION = 1

_BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
_PERFBENCH_DIR = _BENCHMARKS_DIR.parent / "perfbench"
# The benchmark modules import the looped oracle from tests/looped_oracle.py.
sys.path.insert(0, str(_BENCHMARKS_DIR.parent / "tests"))

#: Environment knobs (shared with the benchmarks) applied per --scale.
SCALES = {
    "quick": {
        "REPRO_BENCH_FLEET_SPEEDUP_FUNCTIONS": "120",
        "REPRO_BENCH_FLEET_HOT_FUNCTIONS": "200",
        "REPRO_BENCH_FLEET_SPARSE_FUNCTIONS": "5000",
        "REPRO_BENCH_GEN_FUNCTIONS": "60",
        "REPRO_BENCH_TRAIN_EPOCHS": "100",
    },
    "full": {
        "REPRO_BENCH_FLEET_SPEEDUP_FUNCTIONS": "500",
        "REPRO_BENCH_FLEET_HOT_FUNCTIONS": "600",
        "REPRO_BENCH_FLEET_SPARSE_FUNCTIONS": "100000",
        "REPRO_BENCH_GEN_FUNCTIONS": "200",
        "REPRO_BENCH_TRAIN_EPOCHS": "400",
    },
}

#: The fleet-scale endurance scenario per --scale: (n_functions, n_windows).
#: ``full`` is the acceptance run — one million functions through 24 virtual
#: hours of diurnal traffic; ``quick`` shrinks it for CI trend lines.
FLEET_SCALE = {
    "quick": (50_000, 6),
    "full": (1_000_000, 24),
}


def _load_benchmark(name: str, directory: Path = _BENCHMARKS_DIR):
    """Import a benchmark module by file path (benchmarks/ and perfbench/ are not packages)."""
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
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


#: Untraced timing runs per fleet variant (their median is reported).
FLEET_REPEATS = 3


class _GcTimer:
    """Wall seconds and count of the cyclic GC's collections while installed.

    Installed in ``gc.callbacks`` by this report only, around the section it
    times; the program never installs one.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self) -> "_GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def _fleet_rows(variants: dict, n_windows: int) -> tuple[dict, dict]:
    """Time fleet variants untraced, then trace each once for its peak.

    ``variants`` maps a label to a zero-argument run returning
    ``(seconds, invocations, extra)`` with ``seconds`` its own timed region.
    The variants run ``FLEET_REPEATS`` times, interleaved and after a
    ``gc.collect()`` each, so host drift spreads over all of them; tracing
    inflates time unevenly, so ``peak_bytes`` and ``wall_seconds`` come
    from one separate traced run.  Returns the report rows and each
    variant's first untraced result; later results are dropped at once (a
    dense run's stat blocks hold ~180 MB at 100 000 functions).
    """
    runs = {label: [] for label in variants}
    first = {}
    for _ in range(FLEET_REPEATS):
        for label, run in variants.items():
            gc.collect()
            result = run()
            runs[label].append(result[0])
            first.setdefault(label, result)
    rows = {}
    for label, run in variants.items():
        _, wall_seconds, peak = _traced(run)
        seconds = statistics.median(runs[label])
        invocations = first[label][1]
        rows[label] = {
            "ops_per_second": round(invocations / seconds, 1),
            "windows_per_second": round(n_windows / seconds, 3),
            "seconds": round(seconds, 4),
            "seconds_runs": [round(t, 4) for t in runs[label]],
            "wall_seconds": round(wall_seconds, 4),
            "invocations": invocations,
            "peak_bytes": int(peak),
        }
    return rows, first


def bench_fleet() -> dict:
    """Fused vs looped fleet window execution (the asserted speedup scenario)."""
    bench = _load_benchmark("test_bench_fleet")
    functions, traffic = bench._speedup_scenario()
    results, first = _fleet_rows(
        {
            label: lambda fused=fused: bench.execute_windows(functions, traffic, fused=fused)
            for label, fused in (("fused", True), ("looped", False))
        },
        bench.SPEEDUP_WINDOWS,
    )
    if not np.array_equal(np.stack(first["fused"][2]), np.stack(first["looped"][2])):
        raise AssertionError("fused and looped window stats diverged")
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
        "hot": bench_fleet_hot(bench),
        "sparse": bench_fleet_sparse(bench),
        "walk_shapes": bench_walk_shapes(bench),
    }


def bench_fleet_hot(bench) -> dict:
    """Fused vs looped windows of the always-active fleet (``_hot_scenario``)."""
    functions, traffic = bench._hot_scenario()
    results, first = _fleet_rows(
        {
            label: lambda fused=fused: bench.execute_windows(functions, traffic, fused=fused)
            for label, fused in (("fused", True), ("looped", False))
        },
        bench.SPEEDUP_WINDOWS,
    )
    if not np.array_equal(np.stack(first["fused"][2]), np.stack(first["looped"][2])):
        raise AssertionError("fused and looped hot window stats diverged")
    return {
        "config": {
            "n_functions": bench.HOT_FUNCTIONS,
            "n_windows": bench.SPEEDUP_WINDOWS,
            "window_s": bench.WINDOW_S,
            "mean_rate_range_rps": list(bench.HOT_RATE_RANGE),
        },
        "results": results,
        "speedup": round(
            results["looped"]["seconds"] / results["fused"]["seconds"], 2
        ),
        "service": bench_hot_service(bench),
    }


def bench_hot_service(bench) -> dict:
    """The hot fleet through ``FleetRightsizingService`` (``hot_service_run``).

    The predictor is the quick experiment scale's 256 MB model, trained
    here in-process.  ``seconds`` is the median of ``seconds_runs`` (3
    untraced runs of ``HOT_SERVICE_WINDOWS`` windows after one warm-up
    window, each on a fresh service); ``phases_ms`` is the median over the
    runs of each profiler phase's milliseconds per window.
    """
    from repro.core.predictor import SizelessPredictor
    from repro.experiments.context import ExperimentContext, ExperimentScale

    context = ExperimentContext(ExperimentScale.quick())
    predictor = SizelessPredictor(
        context.model(context.scale.default_base_size_mb), pricing=context.pricing
    )
    runs = []
    phases = []
    for _ in range(FLEET_REPEATS):
        gc.collect()
        seconds, phase_seconds = bench.hot_service_run(predictor)
        runs.append(seconds)
        phases.append(phase_seconds)
    per_window = 1e3 / bench.HOT_SERVICE_WINDOWS
    return {
        "n_windows": bench.HOT_SERVICE_WINDOWS,
        "seconds": round(statistics.median(runs), 4),
        "seconds_runs": [round(t, 4) for t in runs],
        "phases_ms": {
            phase: round(statistics.median(run[phase] for run in phases) * per_window, 2)
            for phase in phases[0]
        },
    }


#: Untraced runs per walk shape (their median is reported).
WALK_SHAPE_REPEATS = 5


def bench_walk_shapes(bench) -> dict:
    """The grouped kernel on the instance-walk shapes of ``WALK_SHAPES``.

    Each row is one ``run_grouped`` call on a fresh platform: ``seconds`` is
    the median of ``seconds_runs`` (``WALK_SHAPE_REPEATS`` untraced runs).
    Before each run perfbench's reference kernel is timed
    (``perfbench/hostspeed.py``'s ``HostSpeed.probe``, in ``probe_ms``), and
    ``normalised_seconds`` is ``seconds`` scaled by the row's probes to the
    reference host, so rows recorded at different times can be compared.
    """
    hostspeed = _load_benchmark("hostspeed", _PERFBENCH_DIR)
    rows = {}
    for shape, (parts, harness) in bench.WALK_SHAPES.items():
        host = hostspeed.HostSpeed()
        runs = []
        for _ in range(WALK_SHAPE_REPEATS):
            host.probe()
            seconds, invocations, n_groups = bench.walk_shape_seconds(shape)
            runs.append(seconds)
        seconds = statistics.median(runs)
        rows[shape] = {
            "groups": [
                {"count": count, "rate_rps": rate, "duration_s": duration}
                for count, rate, duration in parts
            ],
            "harness": harness,
            "n_groups": n_groups,
            "invocations": invocations,
            "seconds": round(seconds, 4),
            "seconds_runs": [round(t, 4) for t in runs],
            "probe_ms": [round(1e3 * t, 3) for t in host.seconds],
            "normalised_seconds": round(seconds * host.scale(), 4),
        }
    return rows


def bench_fleet_sparse(bench) -> dict:
    """The fleet window vs the dense reference.

    The mostly-idle fleet-scale scenario (``_sparse_scenario``, ~1 % active
    per window).  ``dense`` is the pre-sparse O(fleet) window body;
    ``sparse`` is ``FleetSimulator.run_window``.
    """
    functions, traffic = bench._sparse_scenario()
    results, first = _fleet_rows(
        {
            "dense": lambda: bench.execute_dense_reference_windows(functions, traffic),
            "sparse": lambda: bench.execute_sparse_windows(functions, traffic),
        },
        bench.SPARSE_WINDOWS,
    )
    results["sparse"]["active_per_window"] = int(
        np.mean([w.n_active for w in first["sparse"][2]])
    )
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


def bench_fleet_scale(scale: str) -> dict:
    """The fleet-scale endurance run: a mostly-idle fleet through 24 windows.

    At ``--scale full`` this is the acceptance criterion — one million
    functions under diurnal traffic completing 24 virtual hours of sparse
    windows — recorded here so successive PRs track its wall clock and peak
    window memory.  Setup (spec replication, eager deployment) is reported
    separately from the windowed phase: ``setup_seconds`` builds the
    scenario and the first simulator, ``simulator_setup_seconds`` is the
    median of ``FLEET_REPEATS`` ``FleetSimulator`` constructions alone, and
    ``tracked_objects`` counts the GC-tracked objects set-up leaves
    (``simulator_tracked_objects`` of them the simulator's).  ``seconds``
    comes from an untraced run of the window sequence, with ``gc_seconds``
    the cyclic GC's share of it; ``peak_bytes``/``wall_seconds`` come from a
    separately traced second virtual day, and the simulator's always-on
    :class:`~repro.fleet.profiling.WindowPhaseProfiler` breakdown is
    attached as the ``phases`` section (where the per-window wall time
    goes: traffic sampling, seeding, group build, execute, reduce).
    """
    bench = _load_benchmark("test_bench_fleet")
    from repro.fleet import FleetConfig, FleetSimulator

    n_functions, n_windows = FLEET_SCALE[scale]
    config = FleetConfig(window_s=bench.WINDOW_S, seed=99)
    # Building a million-function fleet allocates millions of objects and
    # triggers full GC collections; freeze the earlier benchmark sections'
    # surviving objects so those collections scan only what THIS section
    # allocates — the standalone setup cost, not the report's residue.  The
    # tracked-object counts cover this section's objects only: frozen ones
    # are not listed.
    gc.collect()
    gc.freeze()
    try:
        setup_start = time.perf_counter()
        functions, traffic = bench._sparse_scenario(n_functions)
        scenario_seconds = time.perf_counter() - setup_start
        gc.collect()
        scenario_objects = len(gc.get_objects())
        simulator_runs = []
        for _ in range(FLEET_REPEATS):
            simulator = None  # the previous run's simulator goes first
            start = time.perf_counter()
            simulator = FleetSimulator(functions, traffic, config)
            simulator_runs.append(time.perf_counter() - start)
        gc.collect()
        tracked_objects = len(gc.get_objects())
    finally:
        gc.unfreeze()
    setup_seconds = scenario_seconds + simulator_runs[0]

    # Timed phase: untraced — tracemalloc multiplies the cost of the
    # window loop's allocations, so `seconds` (and the profiler phases)
    # come from a clean run.
    start = time.perf_counter()
    invocations = 0
    active = 0
    with _GcTimer() as collections:
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
                "simulator_setup_seconds": round(statistics.median(simulator_runs), 4),
                "simulator_setup_seconds_runs": [round(t, 4) for t in simulator_runs],
                "tracked_objects": tracked_objects,
                "simulator_tracked_objects": tracked_objects - scenario_objects,
                "gc_seconds": round(collections.seconds, 4),
                "gc_collections": collections.collections,
                "wall_seconds": round(wall_seconds, 4),
                "invocations": invocations,
                "active_per_window": active // n_windows,
                "peak_bytes": int(peak),
            }
        },
        "phases": phases,
    }


def bench_service_scale(scale: str) -> dict:
    """The ``fleet_scale`` fleet through the whole rightsizing loop.

    The same mostly-idle fleet (``FLEET_SCALE[scale]``) runs through
    ``FleetRightsizingService`` with its default guardrails: simulate,
    controller step, ledger.  The predictor is the test suite's tiny model
    (``tests/conftest.py::tiny_model``, the ``trained_model`` recipe),
    trained here in-process.  ``seconds`` is the median of ``seconds_runs``
    (``FLEET_REPEATS`` untraced runs, each on a fresh simulator and
    service, timed from the first window), ``gc_seconds`` the median of the
    cyclic GC's share of each run; ``phases_ms`` is the median over
    those runs of each profiler phase's milliseconds per window.
    ``peak_bytes`` and ``wall_seconds`` come from one more run traced by
    tracemalloc from its first window, so the peak covers the windows and
    the controller's and ledger's state, not the fleet's construction.
    """
    bench = _load_benchmark("test_bench_fleet")
    from conftest import tiny_model
    from repro.core.predictor import SizelessPredictor
    from repro.fleet import FleetConfig, FleetRightsizingService, FleetSimulator

    n_functions, n_windows = FLEET_SCALE[scale]
    predictor = SizelessPredictor(tiny_model())
    functions, traffic = bench._sparse_scenario(n_functions)

    def service():
        simulator = FleetSimulator(
            functions, traffic, FleetConfig(window_s=bench.WINDOW_S, seed=99)
        )
        return FleetRightsizingService(simulator, predictor)

    runs = []
    gc_runs = []
    phases = []
    for _ in range(FLEET_REPEATS):
        current = service()
        gc.collect()
        start = time.perf_counter()
        with _GcTimer() as collections:
            current.run(n_windows)
        runs.append(time.perf_counter() - start)
        gc_runs.append(collections.seconds)
        phases.append(dict(current.simulator.profiler.seconds))
        del current
    current = service()
    gc.collect()
    report, wall_seconds, peak = _traced(lambda: current.run(n_windows))
    per_window = 1e3 / n_windows
    return {
        "config": {
            "n_functions": n_functions,
            "n_windows": n_windows,
            "window_s": bench.WINDOW_S,
            "mean_rate_range_rps": list(bench.SPARSE_RATE_RANGE),
            "predictor": "tests/conftest.py::tiny_model",
        },
        "results": {
            "service": {
                "windows_per_second": round(n_windows / statistics.median(runs), 3),
                "seconds": round(statistics.median(runs), 4),
                "seconds_runs": [round(t, 4) for t in runs],
                "gc_seconds": round(statistics.median(gc_runs), 4),
                "gc_seconds_runs": [round(t, 4) for t in gc_runs],
                "wall_seconds": round(wall_seconds, 4),
                "peak_bytes": int(peak),
                "invocations": report.ledger.total_invocations,
                "resizes": report.n_resizes,
                "rollbacks": report.n_rollbacks,
            }
        },
        "phases_ms": {
            phase: round(statistics.median(run[phase] for run in phases) * per_window, 3)
            for phase in phases[0]
        },
        "host": _host(),
    }


def bench_generation() -> dict:
    """Dataset-generation throughput per execution-backend variant.

    ``seconds`` is the median of the benchmark's ``GENERATION_REPEATS``
    untraced runs (``generation_seconds``: a fresh generator and
    ``gc.collect()`` per run, the variants interleaved so host drift spreads
    over all of them); ``peak_bytes`` comes from one separate
    ``tracemalloc`` run (tracing inflates time, and unevenly between the
    variants).
    """
    bench = _load_benchmark("test_bench_generation")
    n_functions = bench.N_FUNCTIONS
    invocations = bench._INVOCATIONS
    runs = bench.generation_seconds(bench._VARIANTS)
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
            "repeats": bench.GENERATION_REPEATS,
        },
        "results": results,
        "speedup": round(
            results["serial"]["seconds"] / results["vectorized"]["seconds"], 2
        ),
    }


def bench_training() -> dict:
    """Flat-buffer vs reference trainer on the default network config.

    ``seconds`` is the median of ``TRAINING_REPEATS`` interleaved untraced
    runs per trainer; ``bit_identical`` says both trained the same weights,
    biases and loss history.
    """
    bench = _load_benchmark("test_bench_training")
    from repro.core.model import default_network_config

    measured = bench.training_seconds()
    config = default_network_config().replace(epochs=measured["epochs"])
    results = {}
    for label, runs in measured["seconds_runs"].items():
        results[label] = {
            "seconds": round(statistics.median(runs), 4),
            "seconds_runs": [round(t, 4) for t in runs],
        }
    return {
        "config": {
            "n_samples": bench.N_SAMPLES,
            "n_features": bench.N_FEATURES,
            "n_targets": bench.N_TARGETS,
            "n_layers": config.n_layers,
            "n_neurons": config.n_neurons,
            "optimizer": config.optimizer,
            "loss": config.loss,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "repeats": bench.TRAINING_REPEATS,
            "blas_threads": 1,
        },
        "results": results,
        "bit_identical": measured["bit_identical"],
        "speedup": round(
            results["reference"]["seconds"] / results["flat"]["seconds"], 2
        ),
    }


def _host() -> dict:
    """The host fingerprint every report carries."""
    return {
        "python": platform_module.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "processor": platform_module.processor() or platform_module.machine(),
    }


def _report(name: str, scale: str, payload: dict) -> dict:
    payload.update(
        {"schema_version": SCHEMA_VERSION, "benchmark": name, "scale": scale, **_host()}
    )
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".", help="output directory for the JSON files")
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--only", choices=("fleet", "generation", "training"), default=None)
    args = parser.parse_args(argv)

    os.environ.update(SCALES[args.scale])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.only in (None, "fleet"):
        payload = bench_fleet()
        payload["fleet_scale"] = bench_fleet_scale(args.scale)
        payload["service_scale"] = bench_service_scale(args.scale)
        report = _report("fleet", args.scale, payload)
        path = out_dir / "BENCH_fleet.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        scale_row = report["fleet_scale"]["results"]["sparse"]
        service = report["service_scale"]
        print(
            f"{path}: fused {report['results']['fused']['ops_per_second']:,.0f} inv/s, "
            f"looped {report['results']['looped']['ops_per_second']:,.0f} inv/s "
            f"({report['speedup']}x); hot {report['hot']['speedup']}x; "
            f"sparse {report['sparse']['speedup']}x over "
            f"dense at {report['sparse']['config']['n_functions']:,} functions; "
            f"fleet-scale {report['fleet_scale']['config']['n_functions']:,} "
            f"functions x {report['fleet_scale']['config']['n_windows']} windows "
            f"in {scale_row['seconds']:.1f} s "
            f"(peak {scale_row['peak_bytes'] / 1e6:.1f} MB, GC "
            f"{scale_row['gc_seconds']:.2f} s; simulator set-up "
            f"{scale_row['simulator_setup_seconds']:.2f} s, "
            f"{scale_row['simulator_tracked_objects']:,} tracked objects); through the service "
            f"in {service['results']['service']['seconds']:.1f} s "
            f"(decide {service['phases_ms']['decide']:.1f}, "
            f"ledger {service['phases_ms']['ledger']:.1f} ms/window)"
        )
    if args.only in (None, "generation"):
        report = _report("generation", args.scale, bench_generation())
        path = out_dir / "BENCH_generation.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(
            f"{path}: vectorized {report['results']['vectorized']['ops_per_second']:,.0f} "
            f"inv/s ({report['speedup']}x over serial)"
        )
    if args.only in (None, "training"):
        report = _report("training", args.scale, bench_training())
        path = out_dir / "BENCH_training.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(
            f"{path}: flat {report['results']['flat']['seconds']:.2f} s, reference "
            f"{report['results']['reference']['seconds']:.2f} s ({report['speedup']}x, "
            f"{report['config']['epochs']} epochs, bit-identical: {report['bit_identical']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
