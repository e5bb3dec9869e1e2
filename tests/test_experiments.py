"""Structural tests for the experiment modules (run at a very small scale).

These tests verify that every table/figure reproduction runs end-to-end and
produces structurally valid output; the quantitative comparison against the
paper happens in the benchmarks (which run at a larger scale) and is recorded
in EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DatasetError
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
from repro.experiments.runner import format_table
from repro.ml.network import NetworkConfig


@pytest.fixture(scope="module")
def context() -> ExperimentContext:
    """A very small experiment context shared by the module's tests."""
    scale = ExperimentScale(
        name="test",
        n_training_functions=40,
        train_invocations_per_size=8,
        case_invocations_per_size=8,
        case_repetitions=1,
        network=NetworkConfig(
            n_layers=2, n_neurons=32, epochs=150, learning_rate=0.01, loss="mse", l2=0.0001
        ),
        seed=9,
    )
    return ExperimentContext(scale)


class TestScalePresets:
    def test_presets_construct(self):
        assert ExperimentScale.quick().n_training_functions < ExperimentScale.standard().n_training_functions
        assert ExperimentScale.paper().n_training_functions == 2000

    def test_invalid_scale_rejected(self):
        with pytest.raises(Exception):
            ExperimentScale(n_training_functions=1)


class TestFigure1:
    def test_rows_and_shape_checks(self):
        result = figure1_motivation.run(invocations_per_size=8, seed=1)
        assert len(result.rows) == 4 * 6
        assert result.observations["invert_matrix_scales"]
        assert result.observations["api_call_cost_explodes"]
        times = result.times_for("PrimeNumbers")
        assert times[128] > times[3008]


class TestFigure3:
    def test_stability_decreases_with_duration(self):
        result = figure3_stability.run(
            n_functions=4, max_invocations=80, durations_s=(60.0, 480.0, 900.0), seed=2
        )
        counts = result.unstable_counts()
        assert counts[60.0] >= counts[900.0]
        assert result.recommended_duration_s in (60.0, 480.0, 900.0)


class TestFigure4:
    def test_three_rounds_and_final_features(self, context):
        result = figure4_feature_selection.run(context, max_features_per_round=6)
        assert len(result.rounds) == 3
        assert 1 <= len(result.final_features) <= 6
        assert result.required_metrics
        for curve in result.curves().values():
            assert all(score >= 0 for _n, score in curve)


class TestTable2:
    def test_reduced_grid_runs(self, context):
        result = table2_hyperparameters.run(
            context,
            full_grid=False,
            n_splits=2,
            max_samples=30,
        )
        assert result.n_combinations == 64
        assert set(result.selected_parameters) == set(
            table2_hyperparameters.REDUCED_PARAMETER_RANGES
        )
        assert result.rows()

    def test_paper_reference_values_present(self):
        assert table2_hyperparameters.PAPER_SELECTED["optimizer"] == "adam"
        assert len(table2_hyperparameters.PAPER_PARAMETER_RANGES) == 6


@pytest.mark.slow
class TestTable3:
    def test_two_base_sizes(self, context):
        result = table3_basesize.run(context, base_sizes_mb=(256, 512), n_repeats=1)
        assert set(result.measured) == {256, 512}
        for metrics in result.measured.values():
            assert metrics["mse"] >= 0.0
        assert result.selected_base_size_mb in (256, 512)


class TestFigure5:
    def test_importances_and_curves(self, context):
        result = figure5_partial_dependence.run(context, base_memory_mb=256, n_grid_points=5)
        assert len(result.top_features) == 6
        assert set(result.curves) == set(result.top_features)
        assert all(importance >= 0 for importance in result.importances.values())


class TestFigure6:
    def test_subset_of_functions(self, context):
        result = figure6_predictions.run(
            context,
            base_sizes_mb=(256,),
            functions=(("Airline Booking", "CreateCharge"), ("Hello Retail", "EventWriter")),
        )
        assert len(result.entries) == 2
        entry = result.entry("Airline Booking", "CreateCharge")
        assert set(entry.measured_ms) == {128, 256, 512, 1024, 2048, 3008}
        errors = entry.relative_error(256)
        assert len(errors) == 5 and all(value >= 0 for value in errors.values())


class TestTables4To7:
    def test_tables_structure(self, context):
        result = tables4_7_prediction_error.run(context)
        assert set(result.tables) == {
            "Airline Booking",
            "Facial Recognition",
            "Event Processing",
            "Hello Retail",
        }
        airline = result.tables["Airline Booking"]
        assert len(airline.per_function) == 8
        assert set(airline.all_functions_row()) == {128, 512, 1024, 2048, 3008}
        assert 0.0 <= result.overall_error_percent() < 200.0


class TestFigure7AndTable8:
    def test_ranks_histogram(self, context):
        result = figure7_selection_rank.run(context, tradeoffs=(0.75, 0.5))
        histogram = result.histogram(0.75)
        assert sum(histogram.values()) == 27
        assert all(1 <= rank <= 6 for rank in histogram)
        assert 0.0 <= result.optimal_rate_percent(0.75) <= 100.0

    def test_savings_rows(self, context):
        result = table8_savings.run(context, tradeoffs=(0.75,))
        assert len(result.rows) == 4
        all_row = result.all_applications_row(0.75)
        assert all_row.n_functions == 27
        # Speedups relative to the 128 MB default should be clearly positive.
        assert all_row.speedup_percent > 0.0

    def test_lower_tradeoff_gives_at_least_as_much_speedup(self, context):
        result = table8_savings.run(context, tradeoffs=(0.75, 0.25))
        cost_focused = result.all_applications_row(0.75)
        speed_focused = result.all_applications_row(0.25)
        assert speed_focused.speedup_percent >= cost_focused.speedup_percent - 5.0


class TestFleetSavings:
    def test_longitudinal_run_structure(self, context):
        result = fleet_savings.run(
            context,
            n_functions=30,
            n_windows=6,
            window_s=3600.0,
            mean_rate_range=(0.01, 0.03),
            seed=5,
        )
        assert result.n_functions == 30
        assert result.n_windows == 6
        assert len(result.resizes_per_window) == 6
        assert sum(result.final_size_histogram.values()) == 30
        assert result.total_invocations > 0
        assert result.n_rollbacks <= result.n_resizes
        # The continuous service realizes the Table-8 direction: functions
        # end up faster than the all-default deployment.
        assert result.speedup_percent > 0.0


@pytest.mark.slow
class TestAblations:
    def test_baseline_comparison(self, context):
        rows = ablations.run_baseline_comparison(context, invocations_per_measurement=6)
        approaches = {row.approach for row in rows}
        assert approaches == {"sizeless", "power_tuning", "cose", "batch_poly"}
        sizeless = next(row for row in rows if row.approach == "sizeless")
        power = next(row for row in rows if row.approach == "power_tuning")
        assert sizeless.mean_measurements_per_function == 0.0
        assert power.mean_measurements_per_function == 6.0
        assert power.optimal_rate_percent >= 50.0

    def test_feature_set_ablation(self, context):
        comparison = ablations.run_feature_set_ablation(context)
        assert set(comparison) == {"f0_all_means", "f4_default", "extended"}

    def test_dataset_size_sensitivity(self, context):
        curve = ablations.run_dataset_size_sensitivity(context, fractions=(0.5, 1.0))
        assert len(curve) == 2


class TestCaseStudies:
    def test_true_times_average_repetitions_per_size(self):
        """Ten repetitions (the paper's count) of table-measured case studies
        average to the per-function, per-size 1-D means bit for bit."""
        repetitions = 10
        scale = ExperimentScale(
            name="case-repetitions",
            n_training_functions=5,
            case_invocations_per_size=4,
            case_repetitions=repetitions,
            seed=3,
        )
        context = ExperimentContext(scale)
        tables = context.case_measurements()
        for app_index, application in enumerate(context.applications()):
            assert len(tables[application.name]) == repetitions
            # The reference: each function measured alone, one harness per
            # repetition, each size averaged over a list of repetitions.
            measured = [
                [harness.measure_function(function) for function in application.functions]
                for harness in (
                    context._case_harness(app_index, repetition)
                    for repetition in range(repetitions)
                )
            ]
            for k, spec in enumerate(application.functions):
                expected = {
                    size: float(np.mean([rep[k].execution_time_ms(size) for rep in measured]))
                    for size in scale.memory_sizes_mb
                }
                assert context.true_execution_times(application.name, spec.name) == expected
        with pytest.raises(DatasetError, match="not in table"):
            context.true_execution_times(context.applications()[0].name, "no-such-function")


class TestRunnerFormatting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}], title="demo")
        assert "demo" in text and "a" in text and "0.125" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="empty")
