"""Run all evaluation experiments and print their tables.

``python -m repro.experiments.runner [quick|standard|paper] [backend]``
regenerates every table and figure of the paper's evaluation (as text tables)
and is also used by ``examples/reproduce_evaluation.py``.  The optional second
argument selects the measurement harness's execution backend (``serial``,
``vectorized`` or ``parallel``); each scale has a sensible default
(``vectorized``, and ``parallel`` at paper scale).  Fleet windows always run
the grouped kernel.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import Any

from repro.experiments import (
    ablations,
    figure1_motivation,
    figure3_stability,
    figure4_feature_selection,
    figure5_partial_dependence,
    figure6_predictions,
    figure7_selection_rank,
    fleet_savings,
    table2_hyperparameters,
    table3_basesize,
    table8_savings,
    tables4_7_prediction_error,
)
from repro.experiments.context import ExperimentContext, ExperimentScale


def format_table(rows: list[dict[str, Any]], title: str = "") -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    if not rows:
        return f"{title}\n  (no rows)\n"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines) + "\n"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def run_all(scale: ExperimentScale | None = None, include_slow: bool = True) -> dict[str, Any]:
    """Run every experiment and return their results keyed by artefact name."""
    context = ExperimentContext(scale)
    results: dict[str, Any] = {}

    results["figure1"] = figure1_motivation.run()
    results["figure3"] = figure3_stability.run()
    results["figure4"] = figure4_feature_selection.run(context)
    if include_slow:
        results["table2"] = table2_hyperparameters.run(context)
    results["table3"] = table3_basesize.run(context)
    results["figure5"] = figure5_partial_dependence.run(context)
    results["figure6"] = figure6_predictions.run(context)
    results["tables4_7"] = tables4_7_prediction_error.run(context)
    results["figure7"] = figure7_selection_rank.run(context)
    results["table8"] = table8_savings.run(context)
    if include_slow:
        results["ablations"] = ablations.run(context)
    # Longitudinal Table 8: the continuous fleet rightsizing service (kept
    # below acceptance-test scale so the runner stays fast at every scale).
    results["fleet"] = fleet_savings.run(
        context, n_functions=200, n_windows=12, window_s=7200.0
    )
    return results


def print_report(results: dict[str, Any]) -> None:
    """Print a human-readable report of all experiment results."""
    if "figure1" in results:
        print(format_table(results["figure1"].rows, "Figure 1 - motivation"))
    if "figure3" in results:
        rows = [
            {"duration_s": duration, "unstable_pairs": count}
            for duration, count in results["figure3"].unstable_counts().items()
        ]
        print(format_table(rows, "Figure 3 - metric stability"))
    if "figure4" in results:
        rows = []
        for round_index, curve in results["figure4"].curves().items():
            for n_features, score in curve:
                rows.append({"round": round_index, "n_features": n_features, "mse": score})
        print(format_table(rows, "Figure 4 - feature selection"))
    if "table2" in results:
        print(format_table(results["table2"].rows(), "Table 2 - hyperparameters"))
    if "table3" in results:
        print(format_table(results["table3"].rows(), "Table 3 - base size comparison"))
    if "figure5" in results:
        rows = [
            {"feature": name, "importance": importance}
            for name, importance in results["figure5"].importances.items()
        ]
        print(format_table(rows, "Figure 5 - feature importances"))
    if "tables4_7" in results:
        for application, table in results["tables4_7"].tables.items():
            rows = []
            for function, errors in table.per_function.items():
                row: dict[str, Any] = {"function": function}
                row.update({f"{size}MB": value for size, value in sorted(errors.items())})
                rows.append(row)
            all_row: dict[str, Any] = {"function": "All functions"}
            all_row.update(
                {f"{size}MB": value for size, value in table.all_functions_row().items()}
            )
            rows.append(all_row)
            print(format_table(rows, f"Tables 4-7 - prediction error: {application}"))
        print(
            f"Overall average prediction error: "
            f"{results['tables4_7'].overall_error_percent():.1f}% "
            f"(paper: {tables4_7_prediction_error.PAPER_OVERALL_ERROR_PERCENT}%)\n"
        )
    if "figure7" in results:
        rows = []
        for tradeoff in results["figure7"].ranks:
            histogram = results["figure7"].histogram(tradeoff)
            row: dict[str, Any] = {"tradeoff": tradeoff}
            row.update({f"rank_{rank}": count for rank, count in histogram.items()})
            rows.append(row)
        print(format_table(rows, "Figure 7 - selection ranks"))
    if "table8" in results:
        rows = []
        for row in results["table8"].rows:
            rows.append(
                {
                    "application": row.application,
                    "tradeoff": row.tradeoff,
                    "cost_savings_%": row.cost_savings_percent,
                    "speedup_%": row.speedup_percent,
                }
            )
        for tradeoff in (0.75, 0.5, 0.25):
            try:
                all_row = results["table8"].all_applications_row(tradeoff)
            except KeyError:
                continue
            rows.append(
                {
                    "application": all_row.application,
                    "tradeoff": all_row.tradeoff,
                    "cost_savings_%": all_row.cost_savings_percent,
                    "speedup_%": all_row.speedup_percent,
                }
            )
        print(format_table(rows, "Table 8 - cost savings and speedup"))
    if "ablations" in results:
        rows = [
            {
                "approach": row.approach,
                "optimal_%": row.optimal_rate_percent,
                "top2_%": row.top2_rate_percent,
                "measurements": row.mean_measurements_per_function,
            }
            for row in results["ablations"].baseline_comparison
        ]
        print(format_table(rows, "Ablation - baseline comparison"))
    if "fleet" in results:
        fleet = results["fleet"]
        rows = [
            {
                "functions": fleet.n_functions,
                "windows": fleet.n_windows,
                "invocations": fleet.total_invocations,
                "resizes": fleet.n_resizes,
                "rollbacks": fleet.n_rollbacks,
                "cost_savings_%": fleet.cost_savings_percent,
                "speedup_%": fleet.speedup_percent,
            }
        ]
        print(format_table(rows, "Fleet - realized longitudinal savings (t = 0.75)"))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.experiments.runner [scale] [backend]``."""
    from repro.simulation.engine import available_backends

    argv = argv if argv is not None else sys.argv[1:]
    scale_name = argv[0] if argv else "standard"
    scales = {
        "quick": ExperimentScale.quick,
        "standard": ExperimentScale.standard,
        "paper": ExperimentScale.paper,
    }
    if scale_name not in scales:
        print(f"unknown scale {scale_name!r}; expected one of {sorted(scales)}")
        return 2
    scale = scales[scale_name]()
    if len(argv) > 1:
        backend = argv[1]
        if backend not in available_backends():
            print(f"unknown backend {backend!r}; expected one of {available_backends()}")
            return 2
        scale = replace(scale, backend=backend)
    results = run_all(scale, include_slow=scale_name != "quick")
    print_report(results)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI only
    raise SystemExit(main())
