"""Ablation experiments that go beyond the paper's tables and figures.

Three studies that probe the design choices DESIGN.md calls out:

- **Baseline comparison** — recommendation quality versus the number of
  dedicated performance measurements for Sizeless (zero extra measurements),
  Power Tuning (six), COSE (three) and BATCH (three).
- **Dataset-size sensitivity** — how the cross-validated accuracy grows with
  the number of synthetic training functions (supports the paper's argument
  for a large generated dataset).
- **Feature-set ablation** — accuracy of the final F4-style feature set versus
  the full F0 means and the extended feature set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import BatchPolynomialBaseline, CoseBaseline, PowerTuningBaseline
from repro.core.features import DEFAULT_FEATURE_SET, EXTENDED_FEATURE_SET, feature_set_f0
from repro.core.training import cross_validate_base_size
from repro.experiments.context import ExperimentContext


@dataclass
class BaselineComparisonRow:
    """Aggregate outcome of one approach over all case-study functions."""

    approach: str
    optimal_rate_percent: float
    top2_rate_percent: float
    mean_measurements_per_function: float
    n_functions: int


@dataclass
class AblationResult:
    """Container for the three ablation studies."""

    baseline_comparison: list[BaselineComparisonRow] = field(default_factory=list)
    dataset_size_curve: dict[int, dict[str, float]] = field(default_factory=dict)
    feature_set_comparison: dict[str, dict[str, float]] = field(default_factory=dict)


def run_baseline_comparison(
    context: ExperimentContext | None = None,
    tradeoff: float = 0.75,
    invocations_per_measurement: int = 20,
    seed: int = 7,
) -> list[BaselineComparisonRow]:
    """Compare Sizeless against the measurement-based baselines."""
    context = context if context is not None else ExperimentContext()
    optimizer = context.optimizer(tradeoff)
    base = context.scale.default_base_size_mb

    baselines = {
        "power_tuning": PowerTuningBaseline(
            memory_sizes_mb=context.scale.memory_sizes_mb,
            tradeoff=tradeoff,
            invocations_per_measurement=invocations_per_measurement,
            seed=seed,
        ),
        "cose": CoseBaseline(
            memory_sizes_mb=context.scale.memory_sizes_mb,
            tradeoff=tradeoff,
            invocations_per_measurement=invocations_per_measurement,
            seed=seed + 1,
            measurement_budget=3,
        ),
        "batch_poly": BatchPolynomialBaseline(
            memory_sizes_mb=context.scale.memory_sizes_mb,
            tradeoff=tradeoff,
            invocations_per_measurement=invocations_per_measurement,
            seed=seed + 2,
            measured_sizes=3,
        ),
    }

    ranks: dict[str, list[int]] = {name: [] for name in baselines}
    ranks["sizeless"] = []
    measurements: dict[str, list[int]] = {name: [] for name in baselines}
    measurements["sizeless"] = []

    for application in context.applications():
        for spec in application.functions:
            truth = context.true_execution_times(application.name, spec.name)
            # Sizeless: predictions from production monitoring only.
            predicted = context.predicted_execution_times(
                application.name, spec.name, base_memory_mb=base
            )
            selected = optimizer.recommend(predicted).selected_memory_mb
            ranks["sizeless"].append(optimizer.rank_of(selected, truth))
            measurements["sizeless"].append(0)
            for name, baseline in baselines.items():
                outcome = baseline.recommend(spec)
                ranks[name].append(optimizer.rank_of(outcome.selected_memory_mb, truth))
                measurements[name].append(outcome.measurements_used)

    rows = []
    for name in ("sizeless", "power_tuning", "cose", "batch_poly"):
        approach_ranks = np.array(ranks[name])
        rows.append(
            BaselineComparisonRow(
                approach=name,
                optimal_rate_percent=float(100.0 * np.mean(approach_ranks == 1)),
                top2_rate_percent=float(100.0 * np.mean(approach_ranks <= 2)),
                mean_measurements_per_function=float(np.mean(measurements[name])),
                n_functions=len(approach_ranks),
            )
        )
    return rows


def run_dataset_size_sensitivity(
    context: ExperimentContext | None = None,
    fractions: tuple[float, ...] = (0.25, 0.5, 1.0),
    base_memory_mb: int = 256,
    n_repeats: int = 1,
) -> dict[int, dict[str, float]]:
    """Cross-validated accuracy as a function of training-set size."""
    context = context if context is not None else ExperimentContext()
    table = context.training_table()
    curve: dict[int, dict[str, float]] = {}
    for fraction in fractions:
        n_functions = max(10, int(round(len(table) * fraction)))
        subset = table if n_functions >= len(table) else table.take(np.arange(n_functions))
        curve[n_functions] = cross_validate_base_size(
            subset,
            base_memory_mb=base_memory_mb,
            network_config=context.scale.network,
            n_splits=3,
            n_repeats=n_repeats,
            feature_names=context.scale.feature_names,
        )
    return curve


def run_feature_set_ablation(
    context: ExperimentContext | None = None,
    base_memory_mb: int = 256,
    n_repeats: int = 1,
) -> dict[str, dict[str, float]]:
    """Compare the F0 / F4 / extended feature sets by cross-validated accuracy."""
    context = context if context is not None else ExperimentContext()
    table = context.training_table()
    feature_sets = {
        "f0_all_means": tuple(feature_set_f0()),
        "f4_default": DEFAULT_FEATURE_SET,
        "extended": EXTENDED_FEATURE_SET,
    }
    comparison = {}
    for name, features in feature_sets.items():
        comparison[name] = cross_validate_base_size(
            table,
            base_memory_mb=base_memory_mb,
            network_config=context.scale.network,
            n_splits=3,
            n_repeats=n_repeats,
            feature_names=features,
        )
    return comparison


def run(context: ExperimentContext | None = None) -> AblationResult:
    """Run all three ablation studies with default settings."""
    context = context if context is not None else ExperimentContext()
    return AblationResult(
        baseline_comparison=run_baseline_comparison(context),
        dataset_size_curve=run_dataset_size_sensitivity(context),
        feature_set_comparison=run_feature_set_ablation(context),
    )
