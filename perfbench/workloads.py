"""The benchmark's three workloads, driven through the public APIs only.

Each workload builds its inputs from one seed, sets up the system once per
pass, then runs a closed loop with one caller: the next iteration starts
when the previous one returns.  Pass ``k`` of a run draws its own inputs
from ``(seed, k)``, so a run's medians average over several input draws and
depend less on the one the seed picks.

``fleet-longtail``
    ~300 000 functions replicating 64 base profiles under diurnal traffic:
    99.7 % an idle tail, 0.3 % a head that clears warm-up and gets resized.
    Stresses the O(fleet) and per-group layers; the shared profiles keep
    per-profile caches hot.
``fleet-hot``
    600 distinct functions under mixed traffic, all active every window.
    Stresses per-invocation engine arithmetic, the instance walk and the stat
    reductions; the controller resizes most of the fleet in one burst.
``offline-sizing``
    The paper's pipeline through ``ExperimentContext``: generate, train,
    measure the 27 case-study functions, evaluate.  The engine's dense
    regime; no fleet layer runs.  A change that helps sparse fleet windows
    can show a slowdown here.

A fleet iteration is one window (``run_window`` -> ``controller.step`` ->
``ledger.observe``).  An offline iteration is one case-study sizing request
(predict from 256 MB monitoring data, then select a size at t = 0.75).

A pass returns the ``(start, end)`` clock readings of everything it measured,
so the caller can time reference probes between the steps (see
``hostspeed.py``) without the probes counting as program time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.predictor import SizelessPredictor
from repro.core.training import train_model
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.experiments import figure7_selection_rank, table8_savings, tables4_7_prediction_error
from repro.experiments.context import ExperimentContext, ExperimentScale
from repro.fleet import FleetConfig, FleetRightsizingService, FleetSimulator
from repro.ml.network import NetworkConfig
from repro.simulation import seeding
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.workloads.function import FunctionSpec
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import DiurnalTraffic, sample_fleet_traffic

WINDOW_S = 3600.0
TRADEOFF = 0.75
BASE_MEMORY_MB = 256

#: Relative tolerance of the billing identities (sums taken in different orders).
COST_RTOL = 1e-9


@dataclass(frozen=True)
class FleetShape:
    """Size of a fleet workload.

    ``windows`` is the length of one pass; the predictor is trained in set-up
    with the recipe of ``examples/run_fleet.py``.
    """

    n_functions: int
    windows: int
    predictor_functions: int = 120
    predictor_invocations: int = 20
    predictor_epochs: int = 300


@dataclass(frozen=True)
class OfflineShape:
    """Size of the offline-sizing workload (an ``ExperimentScale`` subset).

    ``sizing_rounds`` is how often each case-study function is sized after
    training, each time from fresh 256 MB monitoring data.
    """

    n_training_functions: int
    train_invocations_per_size: int
    case_repetitions: int
    sizing_rounds: int = 4
    epochs: int | None = None  # None keeps the default network


SHAPES = {
    "fleet-longtail": FleetShape(n_functions=300_000, windows=12),
    "fleet-hot": FleetShape(n_functions=600, windows=12),
    "offline-sizing": OfflineShape(
        n_training_functions=1000, train_invocations_per_size=60, case_repetitions=3
    ),
}

#: Tiny shapes for the benchmark's own smoke test.
SMOKE_SHAPES = {
    "fleet-longtail": FleetShape(
        n_functions=2000, windows=4, predictor_functions=30, predictor_invocations=10,
        predictor_epochs=40,
    ),
    "fleet-hot": FleetShape(
        n_functions=40, windows=4, predictor_functions=30, predictor_invocations=10,
        predictor_epochs=40,
    ),
    "offline-sizing": OfflineShape(
        n_training_functions=40, train_invocations_per_size=10, case_repetitions=1,
        sizing_rounds=1, epochs=40,
    ),
}


def derive_seeds(seed: int, index: int, n: int) -> list[int]:
    """Independent sub-seeds of pass ``index`` of a workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(n)]


def _round(value: float) -> str:
    """Stable text form of a float for the outcome digest."""
    return f"{float(value):.9g}"


def digest(parts: list[str]) -> str:
    """Short hash of an outcome's text parts."""
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _no_probe() -> None:
    pass


def timed_call(function, *args):
    """Call ``function``; return its result and the ``(start, end)`` clock readings."""
    start = perf_counter()
    result = function(*args)
    return result, (start, perf_counter())


def _prime_seeding() -> None:
    """Run the keyed-seeding self-check, where the program still has one.

    It is one-time lazy initialisation, so it belongs to set-up and not to
    the first measured window.
    """
    derive = getattr(seeding, "keyed_child_rngs", None)
    if derive is not None:
        derive(0, 0, 0, indices=np.arange(1))


class CheckLog:
    """Output checks of one pass; a failed check marks its operation failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, condition: bool, message: str) -> bool:
        """Record ``message`` unless ``condition`` holds; return whether it holds."""
        if not condition:
            self.failures.append(message)
        return bool(condition)


# --------------------------------------------------------------------- fleets
def _train_fleet_predictor(shape: FleetShape, seed: int) -> SizelessPredictor:
    table = TrainingDatasetGenerator(
        DatasetGenerationConfig(
            n_functions=shape.predictor_functions,
            invocations_per_size=shape.predictor_invocations,
            seed=seed,
        )
    ).generate_table()
    model = train_model(
        table,
        base_memory_mb=BASE_MEMORY_MB,
        network_config=NetworkConfig(
            n_layers=2, n_neurons=48, epochs=shape.predictor_epochs,
            learning_rate=0.01, loss="mse", l2=0.0001, seed=0,
        ),
    )
    return SizelessPredictor(model, default_tradeoff=TRADEOFF)


def _longtail_fleet(n: int, seeds: list[int]):
    bases = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seeds[0], name_prefix="longtail")
    ).generate(min(64, n))
    functions = [bases[i % len(bases)].with_name(f"longtail-{i}") for i in range(n)]
    rng = np.random.default_rng(seeds[1])
    rates = rng.uniform(1e-6, 5e-6, n)
    head = rng.choice(n, size=max(1, round(0.003 * n)), replace=False)
    rates[head] = rng.uniform(0.002, 0.01, head.shape[0])
    traffic = DiurnalTraffic.batch_build(
        mean_rate_rps=rates,
        amplitude=rng.uniform(0.4, 0.8, n),
        phase_s=rng.uniform(0.0, 86_400.0, n),
    )
    return functions, traffic


def _hot_fleet(n: int, seeds: list[int]):
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seeds[0], name_prefix="hot")
    ).generate(n)
    traffic = sample_fleet_traffic(n, seed=seeds[1], mean_rate_range=(0.01, 0.05))
    return functions, traffic


def _fleet_config(seed: int, sparse: bool) -> FleetConfig:
    kwargs = {"window_s": WINDOW_S, "seed": seed}
    if sparse and "sparse" in {f.name for f in dataclasses.fields(FleetConfig)}:
        kwargs["sparse"] = True
    return FleetConfig(**kwargs)


class FleetPass:
    """One pass of a fleet workload: a fresh service and its window loop."""

    def __init__(self, service: FleetRightsizingService) -> None:
        self.service = service
        self.checks = CheckLog()
        self.window_cost_usd = 0.0
        self.invocations = 0
        self.arrivals = 0
        self.events = []
        self.window_failures = 0

    def iterate(self) -> tuple[float, float]:
        """Run one closed-loop iteration (observe, decide, account).

        Returns its ``(start, end)`` clock readings; the output checks run
        after the clock stops.
        """
        simulator = self.service.simulator
        start = perf_counter()
        window = simulator.run_window()
        events = self.service.controller.step(simulator, window)
        account = self.service.ledger.observe(window, events)
        end = perf_counter()
        self._check_window(window, events, account)
        return start, end

    def run(self, iterations: int, tracer=None, probe=_no_probe):
        """Run the window loop; return ``(measured intervals, iteration intervals)``."""
        windows = []
        for window in range(iterations):
            if tracer is not None:
                tracer.iteration = window
            windows.append(self.iterate())
            probe()
        return windows, windows

    def _check_window(self, window, events, account) -> None:
        sizes = {int(s) for s in self.service.simulator.config.memory_sizes_mb}
        check = self.checks.check
        ok = check(bool(np.all(np.isfinite(window.cost_usd))), "non-finite window cost")
        ok &= check(bool(np.all(window.n_invocations <= window.n_arrivals)),
                    "invocations exceed arrivals in a window")
        ok &= check(all(e.to_memory_mb in sizes for e in events), "event target not a fleet size")
        ok &= check(account.invocations == window.total_invocations,
                    "ledger window invocations differ from the window")
        self.window_failures += not ok
        self.window_cost_usd += window.total_cost_usd
        self.invocations += window.total_invocations
        self.arrivals += int(np.sum(window.n_arrivals))
        self.events.extend(events)

    def finish(self) -> dict:
        """Run-level identities, quality figures and the outcome digest."""
        simulator = self.service.simulator
        ledger = self.service.ledger
        check = self.checks.check
        sizes = {int(s) for s in simulator.config.memory_sizes_mb}
        final = simulator.current_memory_mb()
        platform_cost = simulator.platform.total_cost_usd()
        scale = max(1.0, abs(self.window_cost_usd))
        ok = check(abs(self.window_cost_usd - platform_cost) <= COST_RTOL * scale,
                   f"sum of window cost {self.window_cost_usd!r} != platform {platform_cost!r}")
        ok &= check(abs(self.window_cost_usd - ledger.total_actual_cost_usd) <= COST_RTOL * scale,
                    "sum of window cost != ledger actual cost")
        ok &= check(ledger.total_invocations == self.invocations,
                    "ledger invocations != sum of window invocations")
        ok &= check(self.invocations <= self.arrivals, "invocations exceed arrivals")
        ok &= check(all(int(s) in sizes for s in final), "final size not a fleet size")
        speedup = ledger.speedup_percent()
        savings = ledger.cost_savings_percent()
        ok &= check(math.isfinite(speedup) and math.isfinite(savings), "non-finite savings")
        windows = ledger.n_windows
        # The program's always-on phase profiler, per window, while it has one.
        profiler = getattr(simulator, "profiler", None)
        profiled = max(getattr(profiler, "windows", 0), 1)
        phase_ms = {
            phase: 1e3 * seconds / profiled
            for phase, seconds in getattr(profiler, "seconds", {}).items()
        }
        outcome_digest = digest(
            [",".join(map(str, final.tolist()))]
            + [
                f"{e.window_index}:{e.function_index}:{e.from_memory_mb}:{e.to_memory_mb}:"
                f"{e.reason}"
                for e in self.events
            ]
            + [
                str(ledger.total_invocations),
                _round(ledger.total_actual_cost_usd),
                _round(ledger.total_baseline_cost_usd),
                _round(speedup),
                _round(savings),
            ]
        )
        return {
            "attempted": windows,
            # A broken run-level identity invalidates every window of the pass.
            "failed": windows if not ok else self.window_failures,
            "failures": list(self.checks.failures),
            "speedup_pct": speedup,
            "cost_savings_pct": savings,
            "resizes": ledger.n_resizes,
            "rollbacks": ledger.n_rollbacks,
            "phase_ms": phase_ms,
            "digest": outcome_digest,
        }


class FleetWorkload:
    """``fleet-longtail`` or ``fleet-hot``."""

    def __init__(self, name: str, seed: int, shape: FleetShape) -> None:
        self.name = name
        self.seed = seed
        self.shape = shape

    @property
    def iterations(self) -> int:
        """Windows per pass."""
        return self.shape.windows

    def setup(self, index: int = 0) -> FleetPass:
        """Train the predictor and deploy pass ``index``'s fleet (timed as ``setup_s``)."""
        seeds = derive_seeds(self.seed, index, 4)
        predictor = _train_fleet_predictor(self.shape, seeds[3])
        longtail = self.name == "fleet-longtail"
        build = _longtail_fleet if longtail else _hot_fleet
        functions, traffic = build(self.shape.n_functions, seeds)
        simulator = FleetSimulator(functions, traffic, _fleet_config(seeds[2], sparse=longtail))
        _prime_seeding()
        return FleetPass(FleetRightsizingService(simulator, predictor))


# -------------------------------------------------------------------- offline
class OfflinePass:
    """One pass of the offline pipeline over a fresh ``ExperimentContext``.

    After training, each case-study function is sized ``sizing_rounds``
    times (the paper's online phase): monitor it at 256 MB on a platform of
    its application, predict every size, select one.
    """

    def __init__(self, context: ExperimentContext, sizing_rounds: int) -> None:
        self.context = context
        self.sizing_rounds = sizing_rounds
        scale = context.scale
        self.monitors = [
            MeasurementHarness(
                platform=ServerlessPlatform(
                    config=PlatformConfig(
                        allowed_memory_sizes_mb=None, seed=scale.seed + 20_000 + index
                    )
                ),
                config=HarnessConfig(
                    memory_sizes_mb=(BASE_MEMORY_MB,),
                    max_invocations_per_size=scale.case_invocations_per_size,
                    seed=scale.seed + 30_000 + index,
                ),
            )
            for index, _ in enumerate(context.applications())
        ]
        self.checks = CheckLog()
        self.selected: list[int] = []
        self.bad_predictions = 0

    def train_predictor(self) -> None:
        """Train the 256 MB model and wrap it in a predictor."""
        self.predictor = SizelessPredictor(
            self.context.model(BASE_MEMORY_MB),
            pricing=self.context.pricing,
            default_tradeoff=TRADEOFF,
        )

    def requests(self) -> list[tuple[int, FunctionSpec]]:
        """One round of sizing requests: each case-study function with its application index."""
        return [
            (index, spec)
            for index, application in enumerate(self.context.applications())
            for spec in application.functions
        ]

    def size_function(self, application_index: int, function: FunctionSpec):
        """Serve one sizing request: monitor at 256 MB, predict, select a size.

        Returns the request's ``(start, end)``; its output check runs after.
        """
        start = perf_counter()
        monitored = self.monitors[application_index].measure_function(function)
        recommendation = self.predictor.recommend(monitored.summary_at(BASE_MEMORY_MB))
        end = perf_counter()
        values = np.array(list(recommendation.execution_times_ms.values()), dtype=float)
        ok = self.checks.check(
            bool(values.size and np.all(np.isfinite(values)) and np.all(values > 0)),
            f"prediction of {function.name} not finite and positive",
        )
        self.bad_predictions += not ok
        self.selected.append(int(recommendation.selected_memory_mb))
        return start, end

    def run(self, tracer=None, probe=_no_probe):
        """Generate, train, measure the case studies, size them, evaluate.

        Returns ``(measured intervals, iteration intervals)``: every stage
        and request, and the requests alone.
        """
        if tracer is not None:
            tracer.iteration = "pass"
        stages = []
        for stage in (
            self.context.training_table, self.train_predictor, self.context.case_measurements
        ):
            stages.append(timed_call(stage)[1])
            probe()
        requests = []
        for _ in range(self.sizing_rounds):
            for application_index, function in self.requests():
                requests.append(self.size_function(application_index, function))
            probe()
        stages.append(timed_call(self.evaluate)[1])
        probe()
        return stages + requests, requests

    def evaluate(self) -> None:
        """Compute the paper's Figure 7, Tables 4-7 and Table 8 on the trained model."""
        figure7 = figure7_selection_rank.run(self.context, base_memory_mb=BASE_MEMORY_MB)
        self._errors = tables4_7_prediction_error.run(
            self.context, base_memory_mb=BASE_MEMORY_MB
        )
        table8 = table8_savings.run(self.context, base_memory_mb=BASE_MEMORY_MB)
        row = table8.all_applications_row(TRADEOFF)
        self._quality = {
            "optimal_pick_pct": figure7.optimal_rate_percent(TRADEOFF),
            "mape_pct": self._errors.overall_error_percent(),
            "speedup_pct": row.speedup_percent,
            "cost_savings_pct": row.cost_savings_percent,
        }

    def finish(self) -> dict:
        """Check the evaluation figures; return quality figures and the digest."""
        quality = self._quality
        evaluation_ok = self.checks.check(
            all(math.isfinite(v) for v in quality.values()), "non-finite evaluation figure"
        )
        per_function = [
            f"{name}:" + ",".join(f"{size}={_round(err)}" for size, err in sorted(sizes.items()))
            for table in self._errors.tables.values()
            for name, sizes in table.per_function.items()
        ]
        outcome_digest = digest([",".join(map(str, self.selected))] + per_function)
        attempted = len(self.selected)
        return {
            "attempted": attempted,
            # A broken evaluation invalidates every request of the pass.
            "failed": self.bad_predictions if evaluation_ok else attempted,
            "failures": list(self.checks.failures),
            **quality,
            "digest": outcome_digest,
        }


class OfflineWorkload:
    """``offline-sizing``."""

    name = "offline-sizing"

    def __init__(self, seed: int, shape: OfflineShape) -> None:
        self.seed = seed
        self.shape = shape

    def scale(self, index: int = 0) -> ExperimentScale:
        """The experiment scale of pass ``index``."""
        kwargs = {}
        if self.shape.epochs is not None:
            network = ExperimentScale().network
            kwargs["network"] = dataclasses.replace(network, epochs=self.shape.epochs)
        return ExperimentScale(
            name="benchmark",
            n_training_functions=self.shape.n_training_functions,
            train_invocations_per_size=self.shape.train_invocations_per_size,
            case_repetitions=self.shape.case_repetitions,
            seed=derive_seeds(self.seed, index, 1)[0] % (2**31),
            **kwargs,
        )

    def setup(self, index: int = 0) -> OfflinePass:
        """Construct pass ``index``'s context and monitoring platforms (``setup_s``)."""
        _prime_seeding()
        return OfflinePass(ExperimentContext(self.scale(index)), self.shape.sizing_rounds)


def make_workload(name: str, seed: int, smoke: bool = False):
    """Build a workload by its benchmark name."""
    shapes = SMOKE_SHAPES if smoke else SHAPES
    if name == "offline-sizing":
        return OfflineWorkload(seed, shapes[name])
    return FleetWorkload(name, seed, shapes[name])


def run_pass(workload, index: int = 0, tracer=None, probe=_no_probe) -> dict:
    """Set up pass ``index``, run its closed loop and check its outputs.

    Returns the pass outcome (see ``finish``) plus the ``(start, end)``
    intervals of the set-up (``setup``), of all measured work (``measured``)
    and of each iteration (``iterations``), and ``run_s``, the wall seconds
    of the measured work.  ``probe`` is called between measured steps; a
    ``tracer`` is told which iteration each span belongs to.
    """
    probe()
    current, setup = timed_call(workload.setup, index)
    probe()
    if isinstance(current, OfflinePass):
        measured, iterations = current.run(tracer, probe)
    else:
        measured, iterations = current.run(workload.iterations, tracer, probe)
    outcome = current.finish()
    outcome.update(
        setup=setup,
        measured=measured,
        iterations=iterations,
        run_s=sum(end - start for start, end in measured),
    )
    return outcome
