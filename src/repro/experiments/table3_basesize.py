"""Table 3 — cross-validated accuracy per base memory size.

For every base memory size the paper runs ten iterations of five-fold
cross-validation and reports MSE, MAPE, R^2 and explained variance of the
ratio predictions.  256 MB is selected as the default base size because it has
the best MSE and near-best R^2 / explained variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.training import cross_validate_base_size
from repro.experiments.context import ExperimentContext

#: Values reported in the paper's Table 3, for side-by-side comparison.
PAPER_TABLE3: dict[int, dict[str, float]] = {
    128: {"mse": 0.005, "mape": 0.066, "r2": 0.986, "explained_variance": 0.987},
    256: {"mse": 0.003, "mape": 0.046, "r2": 0.977, "explained_variance": 0.979},
    512: {"mse": 0.004, "mape": 0.040, "r2": 0.971, "explained_variance": 0.974},
    1024: {"mse": 0.009, "mape": 0.031, "r2": 0.970, "explained_variance": 0.972},
    2048: {"mse": 0.010, "mape": 0.033, "r2": 0.954, "explained_variance": 0.962},
    3008: {"mse": 0.015, "mape": 0.036, "r2": 0.958, "explained_variance": 0.963},
}


@dataclass
class Table3Result:
    """Cross-validation metrics per base size, ours and the paper's."""

    measured: dict[int, dict[str, float]] = field(default_factory=dict)
    paper: dict[int, dict[str, float]] = field(default_factory=lambda: dict(PAPER_TABLE3))
    selected_base_size_mb: int = 256

    def rows(self) -> list[dict[str, float | int]]:
        """Flat rows (one per base size) for printing."""
        rows = []
        for base_size, metrics in sorted(self.measured.items()):
            row: dict[str, float | int] = {"base_size_mb": base_size}
            row.update({key: round(value, 4) for key, value in metrics.items()})
            rows.append(row)
        return rows


def run(
    context: ExperimentContext | None = None,
    base_sizes_mb: tuple[int, ...] | None = None,
    n_splits: int = 5,
    n_repeats: int = 2,
    seed: int = 0,
) -> Table3Result:
    """Cross-validate the model for every base memory size.

    ``n_repeats`` defaults to 2 (the paper uses 10); raise it for the
    paper-faithful protocol at ~5x the runtime.
    """
    context = context if context is not None else ExperimentContext()
    sizes = base_sizes_mb if base_sizes_mb is not None else context.scale.memory_sizes_mb
    table = context.training_table()
    result = Table3Result()
    for base_size in sizes:
        result.measured[int(base_size)] = cross_validate_base_size(
            table,
            base_memory_mb=int(base_size),
            network_config=context.scale.network,
            n_splits=n_splits,
            n_repeats=n_repeats,
            feature_names=context.scale.feature_names,
            seed=seed,
        )
    # Select the base size with the lowest cross-validated MSE, like the paper.
    result.selected_base_size_mb = min(
        result.measured, key=lambda size: result.measured[size]["mse"]
    )
    return result
