"""Repository benchmark: fleet rightsizing and offline sizing, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-longtail --seed 1 --seconds 20 --trace 0

Workloads: ``fleet-longtail``, ``fleet-hot`` and ``offline-sizing`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics with no
instrumentation installed.  ``--trace 1`` runs the workload three times, each
in a fresh process: uninstrumented (the baseline of the tracing overhead),
with span wrappers on each layer's entry points, and under ``tracemalloc``
for per-call memory peaks; it reports the per-layer metrics.

Times in the result line are normalised to a reference host speed (see
``hostspeed.py``); the raw wall times are printed beside them.  Every metric
is printed on its own line with its unit, beside the host fingerprint and
the outcome digest.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The process exits
non-zero when an output check fails or the program cannot be imported.
"""

import os

# One BLAS/OpenMP thread: set before NumPy is first imported.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-longtail", "fleet-hot", "offline-sizing")

#: Measured passes per 20 s of ``--seconds``.  A pass is one set-up plus the
#: workload's iterations: about 8.5, 5 and 15 s at the reference host speed.
#: Every run of a workload at one ``--seconds`` and seed does the same work.
PASSES_PER_20_S = {"fleet-longtail": 2, "fleet-hot": 5, "offline-sizing": 2}

#: Set-ups per timed run (``setup_s`` is their median); set-ups beyond the
#: measured passes are built and dropped.
SETUPS = {"fleet-longtail": 3, "fleet-hot": 5, "offline-sizing": 25}

#: Windows of the ``tracemalloc`` pass.
MEMORY_WINDOWS = 6

#: Samples required beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "window_p50_ms": "ms",
    "window_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "speedup_pct": "%",
    "cost_savings_pct": "%",
    "optimal_pick_pct": "%",
    "mape_pct": "%",
    "failed_pct": "%",
}

#: End-to-end metrics of the result line; the rest are printed only.  Single
#: iterations are too short to gate a change on in a shared host: an offline
#: sizing request takes 1.7 or 2.9 ms depending on which second it runs in,
#: and a fleet window's tail moves with one stalled window.  The quality
#: figures repeat exactly per seed but differ between seeds.
RESULT_END_TO_END = ("setup_s", "run_s", "peak_rss_mb")

PER_LAYER_UNITS = {
    "traffic.sample_ms": "ms",
    "traffic.arrivals": "count",
    "traffic.active": "count",
    "seeding.derive_ms": "ms",
    "seeding.streams": "count",
    "engine.run_grouped_ms": "ms",
    "engine.groups": "count",
    "engine.invocations": "count",
    "engine.us_per_group": "us",
    "engine.ns_per_invocation": "ns",
    "aggregation.reduce_ms": "ms",
    "simulator.self_ms": "ms",
    "simulator.group_build_ms": "ms",
    "simulator.reduce_ms": "ms",
    "controller.step_ms": "ms",
    "controller.eligible": "count",
    "controller.resizes": "count",
    "controller.rollbacks": "count",
    "controller.resize_yield": "%",
    "predictor.recommend_ms": "ms",
    "predictor.rows": "count",
    "simulator.resize_us": "us",
    "simulator.resize_calls": "count",
    "ledger.observe_ms": "ms",
    "simulator.peak_mb": "MB",
    "controller.peak_mb": "MB",
    "generation.generate_s": "s",
    "generation.invocations": "count",
    "harness.case_measure_s": "s",
    "training.matrices_ms": "ms",
    "ml.fit_s": "s",
    "ml.epochs": "count",
    "ml.samples": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument(
        "--role", choices=("timed", "untraced", "spans", "memory"), default="timed",
        help="internal: one child process of a traced run",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def host_fingerprint() -> dict:
    """Cores, CPU model, Python, NumPy, BLAS and the pinned thread counts."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and its rank.

    Returns the sample value and the percentile (rounded down); with too few
    samples it is the maximum, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    return ordered[n - TAIL_BEYOND - 1], (100 * (n - TAIL_BEYOND)) // n


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def passes_for(workload: str, seconds: float) -> int:
    """Measured passes of one timed run."""
    return max(1, round(PASSES_PER_20_S[workload] * seconds / 20.0))


def measure_passes(workload, passes: int) -> tuple[list[dict], object]:
    """Run ``passes`` passes with reference probes between their steps.

    Returns the pass outcomes and the run's ``hostspeed.HostSpeed``.
    """
    import hostspeed
    import workloads

    host = hostspeed.HostSpeed()
    outcomes = []
    for index in range(passes):
        gc.collect()
        outcomes.append(workloads.run_pass(workload, index, probe=host.probe))
        outcomes[-1]["peak_rss_mb"] = peak_rss_mb()
    return outcomes, host


def timed(workload, passes: int) -> dict:
    """Measured passes plus set-up-only repetitions; end-to-end figures.

    Every time is reported twice: normalised to the reference host speed
    (the result line) and as raw wall time.
    """
    import workloads

    outcomes, host = measure_passes(workload, passes)
    setups = [outcome["setup"] for outcome in outcomes]
    for index in range(passes, SETUPS[workload.name]):
        gc.collect()
        host.probe()
        setups.append(workloads.timed_call(workload.setup, index)[1])
        host.probe()
    durations = [end - start for outcome in outcomes for start, end in outcome["iterations"]]
    failures = [f for outcome in outcomes for f in outcome["failures"]]
    attempted = sum(outcome["attempted"] for outcome in outcomes)
    failed = sum(outcome["failed"] for outcome in outcomes)
    if failures and not failed:
        failed = attempted

    def times(scale: float) -> dict:
        windows = [scale * duration for duration in durations]
        return {
            "setup_s": scale * statistics.median(end - start for start, end in setups),
            "run_s": scale * statistics.median(outcome["run_s"] for outcome in outcomes),
            "window_p50_ms": 1e3 * statistics.median(windows),
            "window_tail_ms": 1e3 * tail(windows)[0],
        }

    metrics = times(host.scale())
    # The first pass's peak: later passes only add allocator fragmentation.
    metrics["peak_rss_mb"] = outcomes[0]["peak_rss_mb"]
    for name in ("speedup_pct", "cost_savings_pct", "optimal_pick_pct", "mape_pct"):
        if name in outcomes[0]:
            metrics[name] = statistics.median(outcome[name] for outcome in outcomes)
    metrics["failed_pct"] = 100.0 * failed / attempted
    return {
        "metrics": metrics,
        "wall": times(1.0),
        "reference_ms": 1e3 * host.reference_s(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": workloads.digest([outcome["digest"] for outcome in outcomes]),
        "passes": passes,
        "setups": len(setups),
        "iterations": len(durations),
        "tail_percentile": tail(durations)[1],
        "resizes": sum(outcome.get("resizes", 0) for outcome in outcomes),
        "rollbacks": sum(outcome.get("rollbacks", 0) for outcome in outcomes),
    }


def untraced_pass(workload) -> dict:
    """One pass with no instrumentation: the baseline of the tracing overhead."""
    outcomes, host = measure_passes(workload, 1)
    return {"run_s": host.scale() * outcomes[0]["run_s"]}


def traced_spans(workload) -> dict:
    """One pass with span wrappers installed; per-layer metrics."""
    import hostspeed
    import spans
    import workloads

    host = hostspeed.HostSpeed()
    tracer = spans.Tracer()
    tracer.install()
    try:
        gc.collect()
        outcome = workloads.run_pass(workload, 0, tracer, probe=host.probe)
    finally:
        tracer.uninstall()
    tracer.write(HERE / "out" / f"spans-{workload.name}.jsonl")
    windows = 1 if workload.name == "offline-sizing" else len(outcome["iterations"])
    metrics = spans.layer_metrics(tracer.spans, windows, outcome["run_s"])
    phase_ms = outcome.get("phase_ms", {})
    metrics["simulator.group_build_ms"] = phase_ms.get("group-build", 0.0)
    metrics["simulator.reduce_ms"] = phase_ms.get("reduce", 0.0)
    return {
        "metrics": metrics,
        "run_s": host.scale() * outcome["run_s"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failures": outcome["failures"],
        "digest": outcome["digest"],
    }


def memory_peaks(workload) -> dict:
    """Peak traced MB per top-level call over the first windows of a pass."""
    import spans

    metrics = {"simulator.peak_mb": 0.0, "controller.peak_mb": 0.0}
    if workload.name == "offline-sizing":
        return {"metrics": metrics}
    current = workload.setup()
    service = current.service
    simulator = service.simulator
    with spans.PeakMeter() as meter:
        for _ in range(min(MEMORY_WINDOWS, workload.iterations)):
            window = meter.call("simulator", simulator.run_window)
            events = meter.call("controller", service.controller.step, simulator, window)
            service.ledger.observe(window, events)
    metrics["simulator.peak_mb"] = meter.peaks["simulator"] / 2**20
    metrics["controller.peak_mb"] = meter.peaks["controller"] / 2**20
    return {"metrics": metrics}


def child(args: argparse.Namespace, role: str) -> dict:
    """Run one role of a traced run in a fresh process; return its result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role,
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise RuntimeError(f"{role} run exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    """Print one metric line: name, value with all digits, unit."""
    print(f"{name:<26} {value!r:>22} {unit}{('  ' + note) if note else ''}")


def main(argv=None) -> int:
    """Run one workload and print its metrics; return the exit code."""
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program to benchmark: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    try:
        import workloads
    except ImportError as error:
        print(f"cannot import the program from {source}: {error}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload, args.seed, smoke=args.smoke)
    if args.role != "timed":
        roles = {"untraced": untraced_pass, "spans": traced_spans, "memory": memory_peaks}
        print(json.dumps(roles[args.role](workload)))
        return 0

    import hostspeed

    print("host " + json.dumps(host_fingerprint()))
    if not args.trace:
        passes = 1 if args.smoke else passes_for(args.workload, args.seconds)
        result = timed(workload, passes)
        metrics = result["metrics"]
        print(
            f"workload {args.workload} seed {args.seed} passes {result['passes']} "
            f"setups {result['setups']} iterations {result['iterations']} "
            f"digest {result['digest']}"
        )
        print(
            f"reference kernel {result['reference_ms']:.3f} ms median "
            f"(times below are scaled to {1e3 * hostspeed.REFERENCE_S:g} ms)"
        )
        for name, unit in END_TO_END_UNITS.items():
            if name not in metrics:
                continue
            notes = []
            if name in result["wall"]:
                notes.append(f"wall {result['wall'][name]!r}")
            if name == "window_tail_ms":
                notes.append(f"p{result['tail_percentile']} of n={result['iterations']}")
            elif name == "failed_pct":
                notes.append(f"{result['failed']} of {result['attempted']} operations")
            print_metric(name, metrics[name], unit, "  ".join(notes))
        if workload.name != "offline-sizing":
            print(f"resizes {result['resizes']} rollbacks {result['rollbacks']}")
        reported = {name: metrics[name] for name in RESULT_END_TO_END}
        units = END_TO_END_UNITS
    else:
        untraced = child(args, "untraced")
        traced = child(args, "spans")
        memory = child(args, "memory")
        result = traced
        reported = dict(traced["metrics"])
        reported.update(memory["metrics"])
        reported["trace.overhead_pct"] = 100.0 * (traced["run_s"] / untraced["run_s"] - 1.0)
        print(f"workload {args.workload} seed {args.seed} traced digest {traced['digest']}")
        for name, unit in PER_LAYER_UNITS.items():
            print_metric(name, reported[name], unit)
        units = PER_LAYER_UNITS
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": not result["failures"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in reported.items()
        },
    }))
    return 0 if not result["failures"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
