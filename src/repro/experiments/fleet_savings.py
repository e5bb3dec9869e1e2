"""Fleet savings — the longitudinal extension of Table 8.

Table 8 (:mod:`repro.experiments.table8_savings`) scores the approach
one-shot: recommend once per function, compare measured cost/time at the
selected size against a fixed baseline.  This experiment scores the same
approach *as a running service*: a fleet of synthetic functions starts at
the 256 MB default deployment, serves a multi-day diurnal/bursty traffic
mix, and is continuously rightsized by the
:class:`~repro.fleet.service.FleetRightsizingService` under warm-up,
hysteresis and rollback guardrails.  The reported savings are *realized* —
accumulated over the traffic that actually arrived, including windows where
a misprediction was live before rollback — rather than projected.

With the paper's recommended trade-off (t = 0.75) the realized speedup must
come out positive (Table 8 reports 39.7 % one-shot); the resize rate must
decay to ~zero after the warm-up windows (the controller converges instead
of thrashing deployments).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predictor import SizelessPredictor
from repro.experiments.context import ExperimentContext
from repro.fleet.controller import ControllerConfig
from repro.fleet.service import FleetRightsizingService, FleetRunReport
from repro.fleet.simulator import FleetConfig, FleetSimulator
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import sample_fleet_traffic


@dataclass
class FleetSavingsResult:
    """Outcome of one longitudinal fleet run.

    Attributes
    ----------
    n_functions / n_windows / window_s / tradeoff:
        Run geometry.
    cost_savings_percent / speedup_percent:
        Realized savings vs the 256 MB default deployment.
    n_resizes / n_rollbacks:
        Deployment changes over the whole run.
    resizes_per_window:
        Recommendation-driven resizes per window (convergence profile).
    final_size_histogram:
        Deployed sizes at the end of the run.
    total_invocations:
        Fleet-wide invocations served.
    """

    n_functions: int
    n_windows: int
    window_s: float
    tradeoff: float
    cost_savings_percent: float
    speedup_percent: float
    n_resizes: int
    n_rollbacks: int
    resizes_per_window: list[int] = field(default_factory=list)
    final_size_histogram: dict[int, int] = field(default_factory=dict)
    total_invocations: int = 0


def run(
    context: ExperimentContext | None = None,
    n_functions: int = 500,
    n_windows: int = 24,
    window_s: float = 3600.0,
    tradeoff: float = 0.75,
    mean_rate_range: tuple[float, float] = (0.01, 0.05),
    controller: ControllerConfig | None = None,
    seed: int = 2024,
) -> FleetSavingsResult:
    """Run the continuous rightsizing service over a synthetic fleet.

    Parameters
    ----------
    context:
        Shared experiment context supplying the trained base-size model (the
        same model every other experiment uses).
    n_functions:
        Fleet size (the default covers the paper-scale "hundreds of deployed
        functions" regime).
    n_windows / window_s:
        Run length: 24 one-hour windows = one virtual day of diurnal traffic
        by default.
    tradeoff:
        Cost/performance trade-off of every recommendation.
    mean_rate_range:
        Per-function mean request-rate range of the sampled traffic mix.
    controller:
        Optional guardrail overrides (defaults to a configuration matched to
        the run geometry: 3-window warm-up, 2-window rollback evaluation).
    seed:
        Seed of fleet generation, traffic sampling and platform noise.

    Returns
    -------
    FleetSavingsResult
        Realized savings, convergence profile and final deployment mix.
    """
    context = context if context is not None else ExperimentContext()
    base_size = context.scale.default_base_size_mb
    predictor = SizelessPredictor(
        context.model(base_size), pricing=context.pricing, default_tradeoff=tradeoff
    )
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix="fleet")
    ).generate(n_functions)
    traffic = sample_fleet_traffic(
        n_functions, seed=seed + 1, mean_rate_range=mean_rate_range
    )
    simulator = FleetSimulator(
        functions,
        traffic,
        FleetConfig(
            window_s=window_s,
            default_memory_mb=base_size,
            memory_sizes_mb=context.scale.memory_sizes_mb,
            backend=context.scale.backend,
            seed=seed + 2,
        ),
    )
    config = controller if controller is not None else ControllerConfig(tradeoff=tradeoff)
    service = FleetRightsizingService(simulator, predictor, controller_config=config)
    report: FleetRunReport = service.run(n_windows)
    return FleetSavingsResult(
        n_functions=n_functions,
        n_windows=n_windows,
        window_s=window_s,
        tradeoff=config.tradeoff,
        cost_savings_percent=report.ledger.cost_savings_percent(),
        speedup_percent=report.ledger.speedup_percent(),
        n_resizes=report.n_resizes,
        n_rollbacks=report.n_rollbacks,
        resizes_per_window=report.ledger.resizes_per_window(),
        final_size_histogram=report.size_histogram(),
        total_invocations=report.ledger.total_invocations,
    )
