"""Benchmark: fleet rightsizing throughput, fused speedup and memory bound.

These contracts of the online subsystem are asserted here:

1. **Service throughput** — the continuous observe -> batch-predict -> resize
   loop advances a fleet at a usable pace (windows/second and simulated
   invocations/second are printed for the performance ledger).
2. **Fused window speedup** — executing one monitoring window as a single
   cross-function mega-batch (``run_grouped`` + one segmented reduction) is
   at least ``REPRO_BENCH_FLEET_MIN_SPEEDUP`` (default 5) times faster than
   the per-function-batch path at 500 functions.  The scenario is the
   production-shaped sparse regime (a few requests per hour per function)
   where per-function engine dispatch dominates the looped path.  Both paths
   consume identical pre-built arrivals and per-group noise keys and
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
   bookkeeping allowance, never by dense per-function stat blocks.  The
   rightsizing service's controller and ledger state on the same fleet is
   bounded by the functions ever active plus ``STATE_BYTES_PER_FUNCTION``
   (one row map each) per fleet function.
6. **Sparse kernel exactness and memory** — on the fleet-scale scenario's
   active groups the grouped kernel reproduces the looped per-batch oracle
   bit for bit, and its peak traced memory stays within the same budget.
7. **Orchestration overhead** — in the simulator's own phase profile, the
   work around the engine (traffic, seeding, group-build, reduce) stays
   within ``REPRO_BENCH_FLEET_ORCH_FACTOR`` (default 2) times the execute
   phase.
8. **Hot window speedup** — on an always-active fleet (600 functions at
   0.01–0.05 rps, the shape of perfbench's ``fleet-hot``) most groups
   overlap and walk their multi-instance pools in lockstep; the fused
   window is at least ``REPRO_BENCH_FLEET_HOT_MIN_SPEEDUP`` (default 2)
   times faster than the looped path, with bit-identical stats.
9. **No object per function** — on the fleet-scale scenario,
   ``FleetSimulator(...)`` adds fewer than ``HELD_OBJECTS`` GC-tracked
   objects, the platform holds at most ``PLATFORM_BYTES_PER_FUNCTION`` per
   deployed function, and one window's kernel call starts with fewer than
   ``HELD_OBJECTS`` tracked objects alive beyond those alive before the
   window: the fleet's state is columns, not objects.
10. **Hot window orchestration** — the same always-active fleet run through
   ``FleetRightsizingService``: the work around the engine call (traffic,
   seeding, group-build, reduce) stays within ``HOT_ORCHESTRATION_BOUND``
   (0.6) times the execute phase.  It holds because windows reduce only
   the metrics the predictor reads and the thinning candidates are sorted
   with one key; reducing all 25 metrics behind a two-key lexsort read
   0.93–1.08.

Scale knobs for CI smoke runs: ``REPRO_BENCH_FLEET_FUNCTIONS`` /
``REPRO_BENCH_FLEET_WINDOWS`` shrink the service run,
``REPRO_BENCH_FLEET_SPEEDUP_FUNCTIONS`` shrinks the speedup scenario,
``REPRO_BENCH_FLEET_HOT_FUNCTIONS`` the hot scenario,
``REPRO_BENCH_FLEET_SPARSE_FUNCTIONS`` shrinks the fleet-scale sparse
scenarios, and ``REPRO_BENCH_FLEET_MEM_FACTOR`` loosens the memory ceilings
on noisy interpreters (a multiplier, default 1).

The instance-walk shapes of ``walk_shape_seconds`` (uniform, heavy-hitter,
one-long, few-dense, ten-long, month-sparse) are timed by
``tools/bench_report.py``, not asserted.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

import numpy as np

import repro.fleet.controller
import repro.fleet.ledger
import repro.simulation.platform
from repro.core.predictor import SizelessPredictor
from repro.fleet import ControllerConfig, FleetConfig, FleetRightsizingService, FleetSimulator
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.engine import GroupBlock, get_backend
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import (
    STREAM_EXECUTION,
    STREAM_TRAFFIC,
    child_rng,
    child_seed_sequence,
    noise_keys,
    spawn_child_rngs,
)
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import (
    DiurnalTraffic,
    FleetTrafficSchedule,
    sample_fleet_traffic,
)

from looped_oracle import LoopedBackend

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

#: Functions in the hot-window scenario (perfbench ``fleet-hot``'s size).
HOT_FUNCTIONS = int(os.environ.get("REPRO_BENCH_FLEET_HOT_FUNCTIONS", "600"))

#: Mean request-rate range of the hot scenario: every function active in
#: every window, most of them overlapping their own invocations.
HOT_RATE_RANGE = (0.01, 0.05)

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

#: Window phases around the engine call (see ``WindowPhaseProfiler``).
ORCHESTRATION_PHASES = ("traffic", "seeding", "group-build", "reduce")


def _mem_factor() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_MEM_FACTOR", "1"))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_MIN_SPEEDUP", "5.0"))


def _min_hot_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_HOT_MIN_SPEEDUP", "2.0"))


def _min_sparse_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_SPARSE_MIN_SPEEDUP", "10.0"))


def _orchestration_factor() -> float:
    return float(os.environ.get("REPRO_BENCH_FLEET_ORCH_FACTOR", "2.0"))


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
        FleetConfig(window_s=WINDOW_S, seed=79),
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

    Traffic sampling and key derivation (identical for both paths) happen
    outside the timer; the timed region is exactly the contested work — the
    fused mega-batch + one segmented reduction, or one batch of the looped
    per-batch oracle (``tests/looped_oracle.py``) + one stat reduction per
    function.  Returns ``(seconds, invocations, stats)``
    where ``stats`` is one ``(n_functions, n_metrics, n_stats)`` array per
    window.  Shared by ``test_bench_fused_window_speedup`` and
    ``tools/bench_report.py`` so the asserted and the reported scenario can
    never drift apart.
    """
    simulator = FleetSimulator(
        functions, traffic, FleetConfig(window_s=WINDOW_S, seed=94)
    )
    oracle = LoopedBackend()
    seconds = 0.0
    invocations = 0
    per_window_stats = []
    for window_index in range(n_windows):
        arrivals = _window_arrivals(traffic, window_index)
        keys = noise_keys(94, STREAM_EXECUTION, window_index, np.arange(len(functions)))
        if fused:
            block = GroupBlock.for_deployed(
                simulator.platform, [fn.name for fn in functions], arrivals, keys
            )
            start = time.perf_counter()
            batch = simulator.backend.run_grouped(simulator.platform, block)
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
                    function.name, arrivals[i], backend=oracle, key=int(keys[i])
                )
                stats[i], _ = batch.aggregate_stats(0.0, True)
            seconds += time.perf_counter() - start
            invocations += int(sum(a.shape[0] for a in arrivals))
        per_window_stats.append(stats)
    return seconds, invocations, per_window_stats


def _timed_window_pair(functions, traffic):
    """``(fused s, looped s, invocations)``, best of 3 alternating, stats asserted equal."""
    (fused_seconds, total_invocations, fused_stats), (looped_seconds, _, looped_stats) = (
        _best_of(
            3,
            lambda: execute_windows(functions, traffic, fused=True),
            lambda: execute_windows(functions, traffic, fused=False),
        )
    )
    for fused_window, looped_window in zip(fused_stats, looped_stats):
        np.testing.assert_array_equal(looped_window, fused_window)
    return fused_seconds, looped_seconds, total_invocations


def test_bench_fused_window_speedup():
    """Acceptance criterion: fused window execution >= 5x the looped path.

    Both arms are timed best-of-3 with the repetitions alternating between
    them, so a slow stretch of a shared host hits both arms alike.
    """
    fused_seconds, looped_seconds, total_invocations = _timed_window_pair(
        *_speedup_scenario()
    )
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


def _hot_scenario():
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=101, name_prefix="bench-hot")
    ).generate(HOT_FUNCTIONS)
    traffic = sample_fleet_traffic(HOT_FUNCTIONS, seed=102, mean_rate_range=HOT_RATE_RANGE)
    return functions, traffic


def test_bench_hot_window_speedup():
    """Fused windows of an always-active fleet >= HOT_MIN_SPEEDUP x looped.

    Most groups overlap their own invocations, so the kernel walks their
    multi-instance pools in lockstep instead of one arrival at a time; the
    stats must still equal the looped oracle's bit for bit.  Both arms are
    timed best-of-3, alternating.
    """
    fused_seconds, looped_seconds, total_invocations = _timed_window_pair(*_hot_scenario())
    speedup = looped_seconds / fused_seconds
    print()
    print(
        f"hot window execution: {HOT_FUNCTIONS} functions x {SPEEDUP_WINDOWS} "
        f"windows ({total_invocations:,} invocations): "
        f"fused {fused_seconds * 1e3 / SPEEDUP_WINDOWS:.1f} ms/window, "
        f"looped {looped_seconds * 1e3 / SPEEDUP_WINDOWS:.1f} ms/window "
        f"({speedup:.2f}x, bit-identical stats)"
    )
    assert speedup >= _min_hot_speedup()


#: Measured windows of the hot service run, after one warm-up window.
HOT_SERVICE_WINDOWS = 3

#: Ceiling of the hot service run's orchestration over its execute phase.
HOT_ORCHESTRATION_BOUND = 0.6


def hot_service_run(predictor) -> tuple[float, dict[str, float]]:
    """Run ``_hot_scenario`` through ``FleetRightsizingService``.

    One warm-up window (shape table, first allocations) and a
    ``gc.collect()`` precede the measured ``HOT_SERVICE_WINDOWS`` windows.
    Returns their wall seconds and the simulator profiler's phase seconds
    over them.  Shared with ``tools/bench_report.py``'s ``hot.service`` row.
    """
    functions, traffic = _hot_scenario()
    simulator = FleetSimulator(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=104))
    service = FleetRightsizingService(simulator, predictor)
    service.run_window()
    gc.collect()
    simulator.profiler.reset()
    start = time.perf_counter()
    for _ in range(HOT_SERVICE_WINDOWS):
        service.run_window()
    seconds = time.perf_counter() - start
    return seconds, dict(simulator.profiler.seconds)


def test_bench_hot_window_orchestration(warm_context):
    """Orchestration of the always-active service window <= 0.6 x execute.

    With every function active, traffic sampling and the stat reductions
    scale with the window's ~85k invocations, as execute does.  The
    service narrows its windows to the predictor's metrics (7 of 25), and
    the ~155k thinning candidates are sorted with one argsort key; both
    keep every output bit, so the ratio measures orchestration alone.
    """
    predictor = SizelessPredictor(
        warm_context.model(warm_context.scale.default_base_size_mb),
        pricing=warm_context.pricing,
    )
    _, phases = hot_service_run(predictor)
    orchestration = sum(phases[name] for name in ORCHESTRATION_PHASES)
    ratio = orchestration / phases["execute"]
    print()
    print(
        f"hot service orchestration: {HOT_FUNCTIONS} functions x "
        f"{HOT_SERVICE_WINDOWS} windows: "
        + ", ".join(
            f"{name} {phases[name] * 1e3 / HOT_SERVICE_WINDOWS:.1f}"
            for name in ORCHESTRATION_PHASES + ("execute",)
        )
        + f" ms/window ({ratio:.2f}x execute, bound {HOT_ORCHESTRATION_BOUND}x)"
    )
    assert ratio <= HOT_ORCHESTRATION_BOUND


#: Instance-walk shapes: ``(groups, rate_rps, duration_s)`` parts of one
#: grouped batch, plus whether its groups are one function's six sizes on
#: fresh pools (the measurement harness) rather than distinct functions.
WALK_SHAPES = {
    "uniform": ([(600, 0.03, 3600.0)], False),
    "heavy-hitter": ([(600, 0.03, 3600.0), (1, 5.0, 3600.0)], False),
    "one-long": ([(1, 1.0, 3600.0)], False),
    # The uncapped harness: the paper's 10-minute, 30 req/s experiment.
    "few-dense": ([(6, 30.0, 600.0)], True),
    # A few long, rarely overlapping groups: below the lockstep handoff,
    # almost every arrival steps through the scalar acquire.
    "ten-long": ([(10, 1.0, 3600.0)], False),
    "month-sparse": ([(8, 0.005, 30 * 86_400.0)], False),
}


def walk_shape_block(shape, seed=103):
    """A fresh platform and the Poisson-arrival group block of one walk shape."""
    parts, harness = WALK_SHAPES[shape]
    n_groups = sum(count for count, _, _ in parts)
    platform = ServerlessPlatform(PlatformConfig(seed=seed))
    sizes = platform.config.allowed_memory_sizes_mb
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix=f"walk-{shape}")
    ).generate(1 if harness else n_groups)
    rng = np.random.default_rng(seed)
    deployed, arrivals = [], []
    for count, rate, duration in parts:
        for _ in range(count):
            g = len(deployed)
            function = functions[0 if harness else g]
            deployed.append(
                platform.deploy(function.name, function.profile, sizes[g] if harness else 256)
            )
            arrivals.append(np.sort(rng.uniform(0.0, duration, rng.poisson(rate * duration))))
    block = GroupBlock.of_groups(
        [d.name for d in deployed],
        [d.profile for d in deployed],
        [d.memory_mb for d in deployed],
        [d.serial for d in deployed],
        arrivals,
        noise_keys(seed, STREAM_EXECUTION, 0, np.arange(n_groups)),
        fresh_pool=harness,
    )
    return platform, block


def walk_shape_seconds(shape):
    """Untraced ``run_grouped`` seconds of one walk shape on a fresh platform.

    Returns the seconds, the invocations and the groups of the batch.
    """
    platform, block = walk_shape_block(shape)
    backend = get_backend("vectorized")
    gc.collect()
    start = time.perf_counter()
    batch = backend.run_grouped(platform, block)
    return time.perf_counter() - start, batch.n_invocations, block.n_groups


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
    engine group (with its noise key) per function, empty or not, one dense
    stat reduction —
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
        keys = noise_keys(seed, STREAM_EXECUTION, window_index, np.arange(n))
        block = GroupBlock.for_deployed(
            simulator.platform, [fn.name for fn in functions], arrivals, keys
        )
        batch = simulator.backend.run_grouped(simulator.platform, block)
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

    Sampled once under per-function traffic streams and shared by the
    kernel, the looped oracle and the memory pass, so all three execute
    identical work on identical arrivals.
    """
    windows = []
    for window_index in range(n_windows):
        start_s = window_index * WINDOW_S
        # child_rng(seed, STREAM_TRAFFIC, window_index, i), built one at a time.
        children = child_seed_sequence(seed, STREAM_TRAFFIC, window_index).spawn(len(functions))
        active = []
        for i, (model, child) in enumerate(zip(traffic, children)):
            rng = np.random.Generator(np.random.PCG64(child))
            arrivals = model.arrivals(start_s, start_s + WINDOW_S, rng)
            if arrivals.shape[0]:
                active.append((i, arrivals))
        windows.append(active)
    return windows


def _active_blocks(simulator, functions, window_arrivals, seed=99):
    """Per-window group blocks of the active sparse groups on ``simulator``.

    Execution-noise keys are derived from the function index, so the
    kernel and the looped oracle read identical noise and must agree bit
    for bit.
    """
    windows = []
    for window_index, active in enumerate(window_arrivals):
        keys = noise_keys(
            seed,
            STREAM_EXECUTION,
            window_index,
            np.array([i for i, _ in active], dtype=np.int64),
        )
        windows.append(
            GroupBlock.for_deployed(
                simulator.platform,
                [functions[i].name for i, _ in active],
                [arrivals for _, arrivals in active],
                keys,
            )
        )
    return windows


def _best_of(n_runs, *runs):
    """Repeat fresh timed runs, keeping each one's fastest (noise-robust) result.

    Each run returns a tuple whose first entry is its timed seconds.  The
    repetitions alternate between the runs (a, b, a, b, ...) and one best
    result per run is returned, in order.
    """
    best = [None] * len(runs)
    for _ in range(n_runs):
        for k, run in enumerate(runs):
            result = run()
            if best[k] is None or result[0] < best[k][0]:
                best[k] = result
    return best


def test_bench_sparse_kernel_matches_oracle_and_memory():
    """The grouped kernel on the sparse active groups: exact and bounded.

    On the fleet-scale scenario's active groups the grouped kernel
    (``VectorizedBackend.run_grouped``) reproduces the looped per-batch
    oracle (``tests/looped_oracle.py``, one batch per group) bit for bit,
    window after window.  In a separate pass over pre-built blocks, the
    kernel's peak traced memory stays within the fused column budget of the
    ACTIVE invocations plus the platform's O(1)-per-function bookkeeping
    allowance.
    """
    functions, traffic = _sparse_scenario()
    window_arrivals = _sparse_active_arrivals(functions, traffic)

    def simulator():
        return FleetSimulator(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=99))

    stats = {}
    for label in ("kernel", "looped"):
        sim = simulator()
        execute = sim.backend.run_grouped if label == "kernel" else LoopedBackend().run_grouped
        stats[label] = [
            execute(sim.platform, block).aggregate_stats(0.0, True)[0]
            for block in _active_blocks(sim, functions, window_arrivals)
        ]
    for looped_window, kernel_window in zip(stats["looped"], stats["kernel"]):
        np.testing.assert_array_equal(looped_window, kernel_window)

    sim = simulator()
    prebuilt = _active_blocks(sim, functions, window_arrivals)
    tracemalloc.start()
    for block in prebuilt:
        batch = sim.backend.run_grouped(sim.platform, block)
        batch.aggregate_stats(0.0, True)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    active_invocations = max(
        sum(arrivals.shape[0] for _, arrivals in active)
        for active in window_arrivals
    )
    assert active_invocations > 0
    column_bytes = active_invocations * 8 * _COLUMN_SLOTS
    bound = (3 * column_bytes + 128 * len(functions)) * _mem_factor()
    print()
    print(
        f"grouped kernel: {SPARSE_FUNCTIONS:,} functions x {SPARSE_WINDOWS} "
        f"windows, bit-identical to looped; {active_invocations:,} active "
        f"invocations/window -> peak {peak_bytes / 1e6:.2f} MB "
        f"(bound {bound / 1e6:.2f} MB)"
    )
    assert peak_bytes < bound


def test_bench_default_orchestration_overhead():
    """Acceptance criterion: orchestration within ORCH_FACTOR x execute.

    The simulator's own phase profile splits its sparse windows into the
    engine call (``execute``) and the work around it: traffic sampling,
    O(active) noise-key derivation, group-request construction and the
    stat reductions.  That orchestration must stay within
    ``REPRO_BENCH_FLEET_ORCH_FACTOR`` (default 2) times ``execute`` over
    the same windows, so it scales with *active* work, not fleet size:
    spawning every function's execution stream each window reads ~37x at
    5 000 functions and ~113x at 100 000.  One warm-up window (shape
    table) and a ``gc.collect()`` run before the
    profile is reset: a full collection over the fleet's objects landing
    in one measured window reads ~2.5x at 100 000 on its own.

    Parity is gated first at sub-scale: the window must reproduce the
    pre-fast-path reference (full-fleet execution keys, one engine group
    per function) on the same arrivals bit for bit, so the
    measured ratio is pure orchestration cost — identical statistics.
    """
    assert_sparse_window_parity(min(2_000, SPARSE_FUNCTIONS))

    functions, traffic = _sparse_scenario()
    simulator = FleetSimulator(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=97))
    simulator.run_window()
    gc.collect()
    simulator.profiler.reset()
    windows = [simulator.run_window() for _ in range(SPARSE_WINDOWS)]
    phases = simulator.profiler.seconds
    orchestration = sum(phases[name] for name in ORCHESTRATION_PHASES)
    factor = orchestration / phases["execute"]
    print()
    print(
        f"orchestration overhead: {SPARSE_FUNCTIONS:,} functions x "
        f"{SPARSE_WINDOWS} windows: "
        + ", ".join(
            f"{name} {phases[name] * 1e3 / SPARSE_WINDOWS:.1f}"
            for name in ORCHESTRATION_PHASES + ("execute",)
        )
        + f" ms/window ({factor:.2f}x execute, bound {_orchestration_factor():.1f}x)"
    )
    assert sum(w.total_invocations for w in windows) > 0
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


#: Retained controller + ledger bytes allowed per function that has had
#: traffic: a compact row holds ~250 B in the controller (the 7 x 3
#: accumulator is 168 B) and ~60 B in the ledger, doubled for the growth
#: slack, plus room for the events and abandoned sizes of a resize.
STATE_BYTES_PER_ACTIVE = 1024

#: Retained controller + ledger bytes allowed per fleet function: one int32
#: row map each.  The dense state held ~275 B per function.
STATE_BYTES_PER_FUNCTION = 8


def test_bench_service_state_bounded_by_ever_active(warm_context):
    """Controller and ledger state follow the functions ever active.

    ``_sparse_scenario``'s fleet runs through ``FleetRightsizingService``
    with a warm-up of one window and one invocation, so the whole decide
    path runs and resizes.  The allocations still held afterwards by
    ``repro/fleet/controller.py`` and ``repro/fleet/ledger.py`` lines (their
    state, events and accounts) must stay within
    ``STATE_BYTES_PER_ACTIVE`` per function that has had traffic plus
    ``STATE_BYTES_PER_FUNCTION`` per fleet function.  Dense per-function
    state fails it: the ``(n, 7, 3)`` float64 accumulator alone is 168 B per
    fleet function.
    """
    functions, traffic = _sparse_scenario()
    predictor = SizelessPredictor(
        warm_context.model(warm_context.scale.default_base_size_mb),
        pricing=warm_context.pricing,
    )
    simulator = FleetSimulator(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=98))
    service = FleetRightsizingService(
        simulator, predictor, controller_config=ControllerConfig(min_windows=1, min_invocations=1)
    )
    ever_active = np.zeros(len(functions), dtype=bool)
    n_events = 0

    tracemalloc.start()
    for _ in range(SPARSE_WINDOWS):
        window = simulator.run_window()
        ever_active[window.active] = True
        events = service.controller.step(simulator, window)
        service.ledger.observe(window, events)
        n_events += len(events)
    del window, events
    snapshot = tracemalloc.take_snapshot()
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    state = snapshot.filter_traces(
        [
            tracemalloc.Filter(True, repro.fleet.controller.__file__),
            tracemalloc.Filter(True, repro.fleet.ledger.__file__),
        ]
    )
    state_bytes = sum(trace.size for trace in state.traces)
    n_ever_active = int(np.count_nonzero(ever_active))
    bound = (
        STATE_BYTES_PER_ACTIVE * n_ever_active + STATE_BYTES_PER_FUNCTION * len(functions)
    ) * _mem_factor()
    print()
    print(
        f"service state: {len(functions):,} functions, {n_ever_active:,} ever active, "
        f"{n_events} events over {SPARSE_WINDOWS} windows -> controller + ledger "
        f"hold {state_bytes / 1e6:.3f} MB (bound {bound / 1e6:.3f} MB; "
        f"{state_bytes / len(functions):.1f} B per fleet function); "
        f"run peak {peak_bytes / 1e6:.2f} MB"
    )
    assert n_events > 0
    assert n_ever_active < 0.1 * len(functions)
    assert state_bytes <= bound


#: Tracked objects ``FleetSimulator(...)`` may add, and tracked objects one
#: window may hold alive at its kernel call beyond those alive before it:
#: neither may grow with the fleet or the window's active groups.  A record
#: and an empty pool list per deployed function, and a request, a generator,
#: its bit generator and that one's lock per active group, broke both.
HELD_OBJECTS = 100

#: Bytes per fleet function the platform may hold after deploying the fleet:
#: a name-map entry and its row number, the profile reference and four
#: 8-byte columns (size, serial, invocations, cost).  A slotted record and an
#: empty pool list per function held ~172 B.
PLATFORM_BYTES_PER_FUNCTION = 128


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_bench_fleet_holds_no_object_per_function():
    """The fleet's platform state and window loop hold no object per function.

    ``_sparse_scenario``'s fleet is deployed with tracemalloc on and the GC
    collected around it.  CPython's cyclic GC walks every tracked object in
    a full collection, and it starts one once the objects promoted since the
    last exceed a quarter of the long-lived ones, so per-function objects
    cost set-up time and per-group objects alive across the kernel call cost
    window time.  A warm-up window fills the kernel's shape table first.
    """
    functions, traffic = _sparse_scenario()
    before = _tracked_objects()
    tracemalloc.start()
    simulator = FleetSimulator(functions, traffic, FleetConfig(window_s=WINDOW_S, seed=98))
    added = _tracked_objects() - before
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    platform_bytes = sum(
        trace.size
        for trace in snapshot.filter_traces(
            [tracemalloc.Filter(True, repro.simulation.platform.__file__)]
        ).traces
    )
    del snapshot

    simulator.run_window()
    at_kernel = []
    run_grouped = simulator.backend.run_grouped

    def counting(platform, block, *args):
        at_kernel.append((_tracked_objects(), block.n_groups))
        return run_grouped(platform, block, *args)

    simulator.backend.run_grouped = counting
    pre_window = _tracked_objects()
    simulator.run_window()
    (held, n_groups), = at_kernel
    per_function = platform_bytes / len(functions)
    print()
    print(
        f"fleet state: {len(functions):,} functions -> FleetSimulator(...) adds "
        f"{added} tracked objects, the platform holds {per_function:.1f} B per "
        f"function (bound {PLATFORM_BYTES_PER_FUNCTION}); the kernel call of a "
        f"{n_groups}-group window starts with {held - pre_window} tracked objects "
        f"beyond the pre-window count (bound {HELD_OBJECTS})"
    )
    assert n_groups > 0
    assert added < HELD_OBJECTS
    assert per_function <= PLATFORM_BYTES_PER_FUNCTION * _mem_factor()
    assert held - pre_window < HELD_OBJECTS
