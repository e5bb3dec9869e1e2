"""Benchmark: end-to-end pipeline throughput (offline phase and online phase).

These are the only benchmarks that measure raw runtime rather than reproducing
a paper artefact: how long the offline phase (dataset + training) takes and
how fast a single online recommendation is once the model exists.
"""

from __future__ import annotations

from repro.core.model import default_network_config
from repro.core.predictor import SizelessPredictor
from repro.core.training import train_model
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.workloads.function import FunctionSpec


def test_bench_offline_training(benchmark, warm_context):
    """Model training time on the shared training table (excludes its generation)."""
    table = warm_context.training_table()

    def train():
        return train_model(
            table,
            base_memory_mb=256,
            network_config=default_network_config(),
            feature_names=warm_context.scale.feature_names,
        )

    model = benchmark.pedantic(train, rounds=1, iterations=1)
    assert model.is_fitted


def test_bench_online_recommendation(benchmark, warm_context):
    """Latency of a single online recommendation from a monitoring summary."""
    model = warm_context.model(256)
    predictor = SizelessPredictor(model)
    application = warm_context.applications()[0]
    table = warm_context.case_measurements()[application.name][0]
    summary = table.summary(table.function_names[0], 256)

    recommendation = benchmark(lambda: predictor.recommend(summary, tradeoff=0.75))
    assert recommendation.selected_memory_mb in warm_context.scale.memory_sizes_mb


def test_bench_single_invocation_simulation(benchmark):
    """Throughput of the platform's single-invocation simulation."""
    from repro.simulation.execution import ExecutionModel
    from repro.simulation.seeding import invocation_uniforms

    model = ExecutionModel()
    noise = invocation_uniforms(0)
    profile = ResourceProfile(
        cpu_user_ms=80.0,
        memory_working_set_mb=40.0,
        service_calls=(ServiceCall("dynamodb", "query", 1024, 4096, calls=2),),
    )
    result = benchmark(lambda: model.execute(profile, 512, noise))
    assert result.execution_time_ms > 0


def test_bench_measurement_harness(benchmark):
    """Time to measure one function across all six memory sizes."""
    from repro.dataset.harness import HarnessConfig, MeasurementHarness

    harness = MeasurementHarness(config=HarnessConfig(max_invocations_per_size=20, seed=1))
    function = FunctionSpec(
        name="bench-function",
        profile=ResourceProfile(cpu_user_ms=120.0, memory_working_set_mb=50.0),
    )
    measurement = benchmark.pedantic(
        lambda: harness.measure_function(function), rounds=1, iterations=1
    )
    assert len(measurement.memory_sizes) == 6
