"""Benchmark: fleet rightsizing throughput, fused speedup and memory bound.

Three contracts of the online subsystem are asserted here:

1. **Service throughput** — the continuous observe -> batch-predict -> resize
   loop advances a fleet at a usable pace (windows/second and simulated
   invocations/second are printed for the performance ledger).
2. **Fused window speedup** — executing one monitoring window as a single
   cross-function mega-batch (``run_grouped`` + one segmented reduction) is
   at least ``REPRO_BENCH_FLEET_MIN_SPEEDUP`` (default 5) times faster than
   the per-function-batch path at 500 functions.  The scenario is the
   production-shaped sparse regime (a few requests per hour per function)
   where per-function engine dispatch dominates the looped path.  Both paths
   consume identical pre-built arrivals and per-group noise streams and
   produce bit-identical stats (asserted).
3. **Memory bound** — peak traced memory of a multi-window service run stays
   within a small multiple of ONE window's fused columns, independent of the
   number of windows processed.

4. **Sparse window speedup** — at fleet scale (default 100 000 functions,
   ~1 % active per window) the sparse scheduling path (fused fleet traffic
   sampling + engine groups only for active functions) executes a window at
   least ``REPRO_BENCH_FLEET_SPARSE_MIN_SPEEDUP`` (default 10) times faster
   than the dense reference (one traffic draw and one engine group per
   function, the pre-sparse window body).
5. **Sparse memory bound** — peak traced memory of sparse windows at fleet
   scale is bounded by the *active* invocations plus a small per-function
   bookkeeping allowance, never by dense per-function stat blocks.

Scale knobs for CI smoke runs: ``REPRO_BENCH_FLEET_FUNCTIONS`` /
``REPRO_BENCH_FLEET_WINDOWS`` shrink the service run,
``REPRO_BENCH_FLEET_SPEEDUP_FUNCTIONS`` shrinks the speedup scenario,
``REPRO_BENCH_FLEET_SPARSE_FUNCTIONS`` shrinks the fleet-scale sparse
scenarios, and ``REPRO_BENCH_FLEET_MEM_FACTOR`` loosens the memory ceilings
on noisy interpreters (a multiplier, default 1).
"""

from __future__ import annotations

import os
import time
import tracemalloc
from functools import partial

import numpy as np

from repro.core.predictor import SizelessPredictor
from repro.fleet import ControllerConfig, FleetConfig, FleetRightsizingService, FleetSimulator
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.engine import ExecutionBackend, GroupRequest
from repro.simulation.seeding import (
    STREAM_EXECUTION,
    STREAM_TRAFFIC,
    child_rng,
    keyed_child_rngs,
    spawn_child_rngs,
)
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import (
    DiurnalTraffic,
    FleetTrafficSchedule,
    sample_fleet_traffic,
)

N_FUNCTIONS = int(os.environ.get("REPRO_BENCH_FLEET_FUNCTIONS", "300"))
N_WINDOWS = int(os.environ.get("REPRO_BENCH_FLEET_WINDOWS", "8"))
WINDOW_S = 3600.0

#: Functions in the fused-vs-looped speedup scenario (the acceptance
#: criterion is defined at 500).
SPEEDUP_FUNCTIONS = int(os.environ.get("REPRO_BENCH_FLEET_SPEEDUP_FUNCTIONS", "500"))
SPEEDUP_WINDOWS = 3

#: Mean request-rate range of the speedup scenario: the production-shaped
#: long tail where most functions see a handful of requests per hour.
SPEEDUP_RATE_RANGE = (0.0005, 0.003)

#: Functions in the fleet-scale sparse scenarios (the acceptance criterion
#: is defined at 100 000 with ~1 % of the fleet active per window).
SPARSE_FUNCTIONS = int(os.environ.get("REPRO_BENCH_FLEET_SPARSE_FUNCTIONS", "100000"))
SPARSE_WINDOWS = 3

#: Mean request-rate range of the sparse scenario: deep idle tail where the
#: expected arrivals per window are a few per-mille, so ~1 % of functions
#: see any traffic in a given hour.
SPARSE_RATE_RANGE = (1e-6, 5e-6)

#: Distinct function specs replicated across the sparse fleet (building
#: 100 000 unique specs costs more than the windows being measured).
SPARSE_BASE_SPECS = 64

#: Float64 slots the fused window pipeline holds per invocation (metric
#: columns, timing/noise intermediates, aggregation working set).
_COLUMN_SLOTS = 130


def _mem_factor() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_MEM_FACTOR", "1"))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_MIN_SPEEDUP", "5.0"))


def _min_sparse_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_SPARSE_MIN_SPEEDUP", "10.0"))


def _min_pooled_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_POOLED_MIN_SPEEDUP", "2.0"))


def _orchestration_factor() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_ORCH_FACTOR", "3.0"))


def _build_service(context) -> FleetRightsizingService:
    predictor = SizelessPredictor(
        context.model(context.scale.default_base_size_mb), pricing=context.pricing
    )
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=77, name_prefix="bench-fleet")
    ).generate(N_FUNCTIONS)
    traffic = sample_fleet_traffic(N_FUNCTIONS, seed=78, mean_rate_range=(0.005, 0.02))
    simulator = FleetSimulator(
        functions,
        traffic,
        FleetConfig(window_s=WINDOW_S, backend="vectorized", seed=79),
    )
    return FleetRightsizingService(
        simulator,
        predictor,
        controller_config=ControllerConfig(min_windows=2, min_invocations=40),
    )


def test_bench_fleet_throughput_and_memory(warm_context):
    service = _build_service(warm_context)

    tracemalloc.start()
    start = time.perf_counter()
    report = service.run(N_WINDOWS)
    seconds = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    invocations = report.ledger.total_invocations
    print()
    print(
        f"fleet service: {N_FUNCTIONS} functions x {N_WINDOWS} windows in "
        f"{seconds:.2f} s = {N_WINDOWS / seconds:.2f} windows/s, "
        f"{invocations / seconds:,.0f} simulated invocations/s"
    )
    window_column_bytes = invocations / N_WINDOWS * 8 * _COLUMN_SLOTS
    print(
        f"peak traced memory: {peak_bytes / 1e6:.2f} MB "
        f"(one window's fused columns: {window_column_bytes / 1e6:.2f} MB); "
        f"resizes: {report.n_resizes} (+{report.n_rollbacks} rollbacks), "
        f"realized speedup: {report.ledger.speedup_percent():+.1f} %"
    )

    assert report.n_windows == N_WINDOWS
    assert invocations > 0
    # The service must finish at a usable pace even on shared CI runners.
    assert N_WINDOWS / seconds > 0.1
    # Memory contract: the run holds one window's fused columns plus fleet
    # state, never the whole run's history.  The bound is deliberately
    # independent of N_WINDOWS — accumulating windows would blow through it.
    assert peak_bytes < 3 * window_column_bytes * _mem_factor()


def _speedup_scenario():
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=91, name_prefix="bench-fused")
    ).generate(SPEEDUP_FUNCTIONS)
    # Production-shaped long tail: most functions see a handful of requests
    # per hour, so a window is many tiny per-function batches.
    traffic = sample_fleet_traffic(
        SPEEDUP_FUNCTIONS, seed=92, mean_rate_range=SPEEDUP_RATE_RANGE
    )
    return functions, traffic


def _window_arrivals(traffic, window_index):
    rngs = spawn_child_rngs(93, STREAM_TRAFFIC, window_index, n=len(traffic))
    start_s = window_index * WINDOW_S
    return [
        model.arrivals(start_s, start_s + WINDOW_S, rng)
        for model, rng in zip(traffic, rngs)
    ]


def execute_windows(functions, traffic, fused, n_windows=SPEEDUP_WINDOWS):
    """Execute the speedup scenario's windows, timing only the execution.

    Traffic sampling and stream spawning (identical for both paths) happen
    outside the timer; the timed region is exactly the contested work — the
    fused mega-batch + one segmented reduction, or one engine batch + one
    stat reduction per function.  Returns ``(seconds, invocations, stats)``
    where ``stats`` is one ``(n_functions, n_metrics, n_stats)`` array per
    window.  Shared by ``test_bench_fused_window_speedup`` and
    ``tools/bench_report.py`` so the asserted and the reported scenario can
    never drift apart.
    """
    simulator = FleetSimulator(
        functions, traffic, FleetConfig(window_s=WINDOW_S, seed=94)
    )
    seconds = 0.0
    invocations = 0
    per_window_stats = []
    for window_index in range(n_windows):
        arrivals = _window_arrivals(traffic, window_index)
        rngs = spawn_child_rngs(94, STREAM_EXECUTION, window_index, n=len(functions))
        if fused:
            requests = [
                GroupRequest.for_deployed(simulator.platform, fn.name, arr, rng)
                for fn, arr, rng in zip(functions, arrivals, rngs)
            ]
            start = time.perf_counter()
            batch = simulator.backend.run_grouped(simulator.platform, requests)
            stats, _ = batch.aggregate_stats(0.0, True)
            seconds += time.perf_counter() - start
            invocations += batch.n_invocations
        else:
            start = time.perf_counter()
            stats = np.zeros((len(functions), len(METRIC_NAMES), len(STAT_NAMES)))
            for i, function in enumerate(functions):
                if arrivals[i].shape[0] == 0:
                    continue
                batch = simulator.platform.invoke_batch(
                    function.name, arrivals[i], backend=simulator.backend, rng=rngs[i]
                )
                stats[i], _ = batch.aggregate_stats(0.0, True)
            seconds += time.perf_counter() - start
            invocations += int(sum(a.shape[0] for a in arrivals))
        per_window_stats.append(stats)
    return seconds, invocations, per_window_stats


def test_bench_fused_window_speedup():
    """Acceptance criterion: fused window execution >= 5x the looped path.

    Both arms are timed best-of-3 with the repetitions alternating between
    them, so a slow stretch of a shared host hits both arms alike.
    """
    functions, traffic = _speedup_scenario()
    (fused_seconds, total_invocations, fused_stats), (looped_seconds, _, looped_stats) = (
        _best_of(
            3,
            lambda: execute_windows(functions, traffic, fused=True),
            lambda: execute_windows(functions, traffic, fused=False),
        )
    )
    for fused_window, looped_window in zip(fused_stats, looped_stats):
        np.testing.assert_array_equal(looped_window, fused_window)

    speedup = looped_seconds / fused_seconds
    print()
    print(
        f"fused window execution: {SPEEDUP_FUNCTIONS} functions x "
        f"{SPEEDUP_WINDOWS} windows ({total_invocations:,} invocations): "
        f"fused {fused_seconds * 1e3 / SPEEDUP_WINDOWS:.1f} ms/window, "
        f"looped {looped_seconds * 1e3 / SPEEDUP_WINDOWS:.1f} ms/window "
        f"({speedup:.1f}x, bit-identical stats)"
    )
    assert speedup >= _min_speedup()


def _sparse_scenario(n_functions=None):
    """A fleet-scale mostly-idle scenario: few specs replicated, deep idle tail.

    A handful of base specs are replicated under distinct names (the window
    cost under measurement does not depend on spec uniqueness), each serving
    diurnal traffic whose expected arrivals per window are a few per-mille —
    so roughly 1 % of the fleet is active in any given hour.
    """
    n_functions = SPARSE_FUNCTIONS if n_functions is None else n_functions
    bases = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=95, name_prefix="bench-sparse")
    ).generate(min(SPARSE_BASE_SPECS, n_functions))
    # Cheap replication + batch-validated traffic construction: at the
    # million-function endurance scale the scenario build itself must not
    # dominate the run (tracked as ``setup_seconds`` in BENCH_fleet.json).
    functions = [
        bases[i % len(bases)].with_name(f"bench-sparse-{i}")
        for i in range(n_functions)
    ]
    rng = np.random.default_rng(96)
    lo, hi = SPARSE_RATE_RANGE
    traffic = DiurnalTraffic.batch_build(
        mean_rate_rps=rng.uniform(lo, hi, n_functions),
        amplitude=rng.uniform(0.4, 0.8, n_functions),
        phase_s=rng.uniform(0.0, 86_400.0, n_functions),
    )
    return functions, traffic


def execute_dense_reference_windows(
    functions, traffic, n_windows=SPARSE_WINDOWS, seed=97, fleet_traffic=False
):
    """The pre-sparse window body: O(fleet) work regardless of activity.

    One spawned traffic stream and one ``arrivals()`` call per function, one
    engine group per function (empty or not), one dense stat reduction —
    exactly what ``FleetSimulator.run_window`` did before sparse scheduling.
    Used as the dense baseline of the sparse speedup and by
    ``tools/bench_report.py``.

    With ``fleet_traffic=True`` the functions' arrivals come instead from
    the simulator's own window draw (``FleetTrafficSchedule.sample_window``
    on the window's traffic stream), so the reference executes exactly the
    arrivals a fleet window of the same seed executes: the dense full-fleet
    parity oracle of the sparse window body.
    """
    simulator = FleetSimulator(
        functions, traffic, FleetConfig(window_s=WINDOW_S, seed=seed)
    )
    n = len(functions)
    schedule = FleetTrafficSchedule(traffic) if fleet_traffic else None
    seconds = 0.0
    invocations = 0
    per_window_stats = []
    for window_index in range(n_windows):
        start = time.perf_counter()
        start_s = window_index * WINDOW_S
        if fleet_traffic:
            sampled = schedule.sample_window(
                start_s,
                start_s + WINDOW_S,
                child_rng(seed, STREAM_TRAFFIC, window_index),
            )
            arrivals = [sampled.arrivals_of(i) for i in range(n)]
        else:
            traffic_rngs = spawn_child_rngs(seed, STREAM_TRAFFIC, window_index, n=n)
            arrivals = [
                model.arrivals(start_s, start_s + WINDOW_S, rng)
                for model, rng in zip(traffic, traffic_rngs)
            ]
        execution_rngs = spawn_child_rngs(seed, STREAM_EXECUTION, window_index, n=n)
        requests = [
            GroupRequest.for_deployed(
                simulator.platform, fn.name, arrivals[i], execution_rngs[i]
            )
            for i, fn in enumerate(functions)
        ]
        batch = simulator.backend.run_grouped(simulator.platform, requests)
        stats, _ = batch.aggregate_stats(0.0, True)
        seconds += time.perf_counter() - start
        invocations += batch.n_invocations
        per_window_stats.append(stats)
    return seconds, invocations, per_window_stats


def execute_sparse_windows(functions, traffic, n_windows=SPARSE_WINDOWS, seed=97, **knobs):
    """Run sparse fleet windows end to end (sampling + execution timed)."""
    simulator = FleetSimulator(
        functions,
        traffic,
        FleetConfig(window_s=WINDOW_S, seed=seed, **knobs),
    )
    seconds = 0.0
    invocations = 0
    windows = []
    for _ in range(n_windows):
        start = time.perf_counter()
        window = simulator.run_window()
        seconds += time.perf_counter() - start
        invocations += int(np.sum(window.n_arrivals))
        windows.append(window)
    return seconds, invocations, windows


def assert_sparse_window_parity(n_functions):
    """One sparse window equals the dense full-fleet reference, bit for bit.

    The reference runs one engine group per function (empty or not) on the
    simulator's own window arrivals; the sparse window's rows must equal the
    reference rows of its active functions, and every other reference row
    must be empty.
    """
    functions, traffic = _sparse_scenario(n_functions)
    _, _, dense_stats = execute_dense_reference_windows(
        functions, traffic, n_windows=1, fleet_traffic=True
    )
    _, _, sparse_windows = execute_sparse_windows(functions, traffic, n_windows=1)
    window, dense = sparse_windows[0], dense_stats[0]
    assert window.n_active > 0
    np.testing.assert_array_equal(window.stats, dense[window.active])
    idle = np.ones(len(functions), dtype=bool)
    idle[window.active] = False
    assert not np.any(dense[idle])


def test_bench_sparse_window_speedup():
    """Acceptance criterion: sparse windows >= 10x the dense reference at scale.

    Parity is gated first at a sub-scale (the sparse window against the dense
    reference fed the same arrivals, bit for bit), then the speedup is
    measured at full scale.
    """
    assert_sparse_window_parity(min(2_000, SPARSE_FUNCTIONS))

    functions, traffic = _sparse_scenario()
    sparse_seconds, sparse_invocations, sparse_windows = execute_sparse_windows(
        functions, traffic
    )
    dense_seconds, _, _ = execute_dense_reference_windows(functions, traffic)

    active = int(np.mean([w.n_active for w in sparse_windows]))
    speedup = dense_seconds / sparse_seconds
    print()
    print(
        f"sparse window execution: {SPARSE_FUNCTIONS:,} functions x "
        f"{SPARSE_WINDOWS} windows (~{active:,} active/window, "
        f"{sparse_invocations:,} arrivals): "
        f"sparse {sparse_seconds * 1e3 / SPARSE_WINDOWS:.1f} ms/window, "
        f"dense {dense_seconds * 1e3 / SPARSE_WINDOWS:.1f} ms/window "
        f"({speedup:.1f}x)"
    )
    assert sparse_invocations > 0
    # ~1 % of the fleet active per window is the scenario's premise.
    assert active < SPARSE_FUNCTIONS * 0.05
    assert speedup >= _min_sparse_speedup()


def _sparse_active_arrivals(functions, traffic, n_windows=SPARSE_WINDOWS, seed=99):
    """Per-window ``(function_index, arrivals)`` lists of the active groups.

    Sampled once under per-function traffic streams and shared by every
    backend variant (and every repetition), so all timed runs execute
    identical work on identical arrivals.
    """
    windows = []
    for window_index in range(n_windows):
        start_s = window_index * WINDOW_S
        rngs = keyed_child_rngs(
            seed, STREAM_TRAFFIC, window_index, indices=np.arange(len(functions))
        )
        active = []
        for i, (model, rng) in enumerate(zip(traffic, rngs)):
            arrivals = model.arrivals(start_s, start_s + WINDOW_S, rng)
            if arrivals.shape[0]:
                active.append((i, arrivals))
        windows.append(active)
    return windows


def execute_backend_windows(
    functions, traffic, window_arrivals, seed=99, noise="per-group", looped=False
):
    """Time grouped execution + stat reduction over the active sparse groups.

    Request construction and stream spawning happen outside the timer; the
    timed region is exactly the contested execution work: the grouped
    kernel (``VectorizedBackend.run_grouped``) or, with ``looped=True``, the
    looped per-group reference schedule (the base
    ``ExecutionBackend.run_grouped``, one ``run_batch`` per group).
    Per-group noise indexes the fleet's per-function spawned streams, so
    the kernel and the looped schedule consume identical streams and must
    agree bit for bit; pooled noise hands every group one shared window
    stream, mirroring ``FleetSimulator._execution_rngs``.  Shared with
    ``tools/bench_report.py`` so the asserted and the reported scenario can
    never drift apart.  Returns ``(seconds, invocations, stats)``.
    """
    return execute_noise_windows(
        functions, traffic, window_arrivals, (noise,), seed=seed, looped=looped
    )[noise]


def execute_noise_windows(
    functions, traffic, window_arrivals, noises, seed=99, looped=False
):
    """:func:`execute_backend_windows` for several noise modes, interleaved.

    Each mode runs on its own simulator, window by window: window ``k`` of
    every mode runs before window ``k + 1`` of any, so a slow stretch of a
    shared host hits all modes alike.  Returns one
    ``(seconds, invocations, stats)`` tuple per mode, keyed by mode.
    """
    simulators = {
        noise: FleetSimulator(
            functions, traffic, FleetConfig(window_s=WINDOW_S, seed=seed, noise=noise)
        )
        for noise in noises
    }
    seconds = dict.fromkeys(noises, 0.0)
    invocations = dict.fromkeys(noises, 0)
    stats = {noise: [] for noise in noises}
    for window_index, active in enumerate(window_arrivals):
        for noise, simulator in simulators.items():
            backend = simulator.backend
            execute = (
                partial(ExecutionBackend.run_grouped, backend)
                if looped
                else backend.run_grouped
            )
            if noise == "pooled":
                shared = child_rng(seed, STREAM_EXECUTION, window_index)
                rngs = [shared] * len(active)
            else:
                # O(active) keyed derivation: only the active functions'
                # streams are constructed (bit-identical to spawning the full
                # fleet and indexing), so idle functions never cost a stream.
                rngs = keyed_child_rngs(
                    seed,
                    STREAM_EXECUTION,
                    window_index,
                    indices=np.array([i for i, _ in active], dtype=np.int64),
                )
            requests = [
                GroupRequest.for_deployed(
                    simulator.platform, functions[i].name, arrivals, rng
                )
                for (i, arrivals), rng in zip(active, rngs)
            ]
            start = time.perf_counter()
            batch = execute(simulator.platform, requests)
            window_stats, _ = batch.aggregate_stats(0.0, True)
            seconds[noise] += time.perf_counter() - start
            invocations[noise] += batch.n_invocations
            stats[noise].append(window_stats)
    return {noise: (seconds[noise], invocations[noise], stats[noise]) for noise in noises}


def _best_of(n_runs, *runs):
    """Repeat fresh timed runs, keeping each one's fastest (noise-robust) result.

    Each run returns a tuple whose first entry is its timed seconds.  With
    several runs the repetitions alternate between them (a, b, a, b, ...)
    and one best result per run is returned, in order; with a single run its
    best result is returned directly.
    """
    best = [None] * len(runs)
    for _ in range(n_runs):
        for k, run in enumerate(runs):
            result = run()
            if best[k] is None or result[0] < best[k][0]:
                best[k] = result
    return best[0] if len(runs) == 1 else best


def test_bench_pooled_noise_speedup():
    """Acceptance criterion: pooled noise >= 2x the per-group kernel.

    The grouped kernel (``VectorizedBackend.run_grouped``) executes the same
    active sparse groups with per-group noise streams (the fleet default)
    and with pooled noise (one shared window stream instead of per-group
    draw calls).  Both arms run window by window, interleaved, in five
    fresh runs; each arm's best run counts, and pooled must be at least 2x
    faster.  The per-group arm must reproduce the looped per-group schedule
    (one ``run_batch`` per group, the kernel's parity oracle) bit for bit,
    checked on an untimed looped run.  Peak memory of the per-group kernel
    is bounded by the fused column budget in a separate untimed pass.
    """
    functions, traffic = _sparse_scenario()
    window_arrivals = _sparse_active_arrivals(functions, traffic)
    runs = [
        execute_noise_windows(
            functions, traffic, window_arrivals, ("per-group", "pooled")
        )
        for _ in range(5)
    ]
    kernel_seconds = min(run["per-group"][0] for run in runs)
    pooled_seconds = min(run["pooled"][0] for run in runs)
    _, invocations, kernel_stats = runs[0]["per-group"]
    _, _, looped_stats = execute_backend_windows(
        functions, traffic, window_arrivals, looped=True
    )
    for looped_window, kernel_window in zip(looped_stats, kernel_stats):
        np.testing.assert_array_equal(looped_window, kernel_window)

    pooled_speedup = kernel_seconds / pooled_seconds
    print()
    print(
        f"grouped kernel: {SPARSE_FUNCTIONS:,} functions x {SPARSE_WINDOWS} "
        f"windows ({invocations:,} active invocations): "
        f"per-group {kernel_seconds * 1e3 / SPARSE_WINDOWS:.1f} ms/window "
        f"(bit-identical to looped), "
        f"pooled {pooled_seconds * 1e3 / SPARSE_WINDOWS:.1f} ms/window "
        f"({pooled_speedup:.2f}x)"
    )
    assert invocations > 0
    assert pooled_speedup >= _min_pooled_speedup()

    # Untimed memory pass: the default mode's peak over the window bodies
    # stays within the fused column budget of the ACTIVE invocations plus the
    # platform's O(1)-per-function bookkeeping allowance.
    simulator = FleetSimulator(
        functions, traffic, FleetConfig(window_s=WINDOW_S, seed=99)
    )
    prebuilt = []
    for window_index, active in enumerate(window_arrivals):
        rngs = keyed_child_rngs(
            99,
            STREAM_EXECUTION,
            window_index,
            indices=np.array([i for i, _ in active], dtype=np.int64),
        )
        prebuilt.append(
            [
                GroupRequest.for_deployed(
                    simulator.platform, functions[i].name, arrivals, rngs[j]
                )
                for j, (i, arrivals) in enumerate(active)
            ]
        )
    tracemalloc.start()
    for requests in prebuilt:
        batch = simulator.backend.run_grouped(simulator.platform, requests)
        batch.aggregate_stats(0.0, True)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    active_invocations = max(
        sum(arrivals.shape[0] for _, arrivals in active)
        for active in window_arrivals
    )
    column_bytes = max(active_invocations, 1) * 8 * _COLUMN_SLOTS
    bound = (3 * column_bytes + 128 * len(functions)) * _mem_factor()
    print(
        f"grouped kernel memory: {active_invocations:,} active "
        f"invocations/window -> peak {peak_bytes / 1e6:.2f} MB "
        f"(bound {bound / 1e6:.2f} MB)"
    )
    assert peak_bytes < bound


def test_bench_default_orchestration_overhead():
    """Acceptance criterion: default windows within ORCH_FACTOR x pooled wall.

    The pooled-noise mode is the fleet's orchestration floor: one shared
    window stream, no per-function stream derivation.  The default
    per-function-deterministic mode pays keyed O(active) stream derivation
    and per-group request construction on top.  This guard bounds that
    orchestration overhead at ``REPRO_BENCH_FLEET_ORCH_FACTOR`` (default 3)
    times the pooled wall — the fast path must scale with *active* work,
    not fleet size (the former full-fleet spawn made this ~16x).

    Parity is gated first at sub-scale: the default path must reproduce the
    pre-fast-path reference (full-fleet spawned execution streams, one
    engine group per function) on the same arrivals bit for bit, so the
    measured factor is pure orchestration cost — identical statistics.
    """
    assert_sparse_window_parity(min(2_000, SPARSE_FUNCTIONS))

    functions, traffic = _sparse_scenario()
    default_seconds, default_invocations, _ = _best_of(
        2, lambda: execute_sparse_windows(functions, traffic)
    )
    pooled_seconds, pooled_invocations, _ = _best_of(
        2, lambda: execute_sparse_windows(functions, traffic, noise="pooled")
    )
    factor = default_seconds / pooled_seconds
    print()
    print(
        f"orchestration overhead: {SPARSE_FUNCTIONS:,} functions x "
        f"{SPARSE_WINDOWS} windows: default "
        f"{default_seconds * 1e3 / SPARSE_WINDOWS:.1f} ms/window vs pooled "
        f"{pooled_seconds * 1e3 / SPARSE_WINDOWS:.1f} ms/window "
        f"({factor:.2f}x, bound {_orchestration_factor():.1f}x)"
    )
    assert default_invocations > 0 and pooled_invocations > 0
    assert factor <= _orchestration_factor()


def test_bench_fleet_window_memory_bounded_by_active():
    """Peak sparse-window memory is bounded by active work, not fleet size.

    The allowance is one window's fused columns over the ACTIVE invocations
    (the same ``_COLUMN_SLOTS`` budget as the dense memory contract) plus
    128 bytes per fleet function for O(1)-per-function bookkeeping (arrival
    counts, offsets, the dense ``memory_mb`` snapshot, bincount scratch).
    A dense ``(n, n_metrics, n_stats)`` stats block alone would be
    ``n * 600`` bytes and blow through the bound at fleet scale.
    """
    functions, traffic = _sparse_scenario()
    simulator = FleetSimulator(
        functions,
        traffic,
        FleetConfig(window_s=WINDOW_S, seed=98),
    )

    tracemalloc.start()
    windows = [simulator.run_window() for _ in range(SPARSE_WINDOWS)]
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    active_invocations = max(int(np.sum(w.n_arrivals)) for w in windows)
    column_bytes = max(active_invocations, 1) * 8 * _COLUMN_SLOTS
    bookkeeping_bytes = 128 * len(functions)
    bound = (3 * column_bytes + bookkeeping_bytes) * _mem_factor()
    print()
    print(
        f"sparse window memory: {SPARSE_FUNCTIONS:,} functions, "
        f"{active_invocations:,} active invocations/window -> peak "
        f"{peak_bytes / 1e6:.2f} MB (bound {bound / 1e6:.2f} MB, "
        f"dense stats block would be "
        f"{len(functions) * 8 * len(METRIC_NAMES) * len(STAT_NAMES) / 1e6:.2f} MB)"
    )
    assert all(w.n_active < SPARSE_FUNCTIONS * 0.05 for w in windows)
    assert peak_bytes < bound
