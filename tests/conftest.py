"""Shared fixtures for the test suite.

Expensive artefacts (a small measured dataset, a trained model) are built once
per session; everything else is cheap enough to construct per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import SizelessModel, SizelessModelConfig
from repro.core.training import build_training_matrices
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.fleet import FleetSimulator
from repro.ml.network import NetworkConfig
from repro.simulation.execution import ExecutionModel
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.simulation.variability import VariabilityModel
from repro.workloads.function import FunctionSpec
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import (
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    RampTraffic,
    TraceTraffic,
)

from looped_oracle import LoopedBackend, assert_identical


def pytest_configure(config) -> None:
    """Register the suite's markers."""
    config.addinivalue_line(
        "markers", "slow: builds a full experiment context (deselect with -m 'not slow')"
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture()
def cpu_profile() -> ResourceProfile:
    """A CPU-dominated resource profile."""
    return ResourceProfile(
        cpu_user_ms=300.0,
        cpu_system_ms=5.0,
        memory_working_set_mb=60.0,
        heap_allocated_mb=45.0,
        blocking_fraction=0.9,
    )


@pytest.fixture()
def service_profile() -> ResourceProfile:
    """A managed-service-dominated resource profile."""
    return ResourceProfile(
        cpu_user_ms=12.0,
        cpu_system_ms=3.0,
        memory_working_set_mb=24.0,
        heap_allocated_mb=16.0,
        service_calls=(
            ServiceCall("dynamodb", "query", request_bytes=1024, response_bytes=4096, calls=2),
        ),
        blocking_fraction=0.3,
    )


@pytest.fixture()
def noise_free_model() -> ExecutionModel:
    """An execution model with ``VariabilityModel.none()`` (service latencies stay noisy)."""
    return ExecutionModel(variability=VariabilityModel.none())


@pytest.fixture()
def platform() -> ServerlessPlatform:
    """A platform with default noise and unrestricted memory sizes."""
    return ServerlessPlatform(
        config=PlatformConfig(allowed_memory_sizes_mb=None, seed=0)
    )


@pytest.fixture()
def cpu_function(cpu_profile) -> FunctionSpec:
    """A deployable CPU-bound function."""
    return FunctionSpec(name="cpu-function", profile=cpu_profile)


@pytest.fixture()
def service_function(service_profile) -> FunctionSpec:
    """A deployable service-bound function."""
    return FunctionSpec(name="service-function", profile=service_profile)


@pytest.fixture()
def harness() -> MeasurementHarness:
    """A measurement harness with a small invocation budget."""
    return MeasurementHarness(
        config=HarnessConfig(max_invocations_per_size=6, seed=3)
    )


#: The session dataset's generation config (see :func:`tiny_model`).
SMALL_DATASET = DatasetGenerationConfig(n_functions=30, invocations_per_size=8, seed=5)

#: The very small network the session model trains (see :func:`tiny_model`).
TINY_NETWORK = NetworkConfig(
    n_layers=2, n_neurons=24, epochs=120, learning_rate=0.01, loss="mse", l2=0.0001, seed=0
)


def tiny_model(matrices=None) -> SizelessModel:
    """A Sizeless model with :data:`TINY_NETWORK` trained on ``matrices``.

    ``matrices`` default to the 256 MB training matrices of a fresh
    :data:`SMALL_DATASET`.  This is the ``trained_model`` fixture's recipe,
    which ``tools/bench_report.py`` also uses for its service predictor.
    """
    if matrices is None:
        dataset = TrainingDatasetGenerator(SMALL_DATASET).generate()
        matrices = build_training_matrices(dataset, base_memory_mb=256)
    model = SizelessModel(
        SizelessModelConfig(
            base_memory_mb=matrices.base_memory_mb,
            target_memory_sizes_mb=matrices.target_memory_sizes_mb,
            feature_names=matrices.feature_names,
            network=TINY_NETWORK,
        )
    )
    model.fit(matrices.features, matrices.ratios)
    return model


@pytest.fixture(scope="session")
def small_dataset():
    """A small synthetic training dataset (measured once per session)."""
    return TrainingDatasetGenerator(SMALL_DATASET).generate()


@pytest.fixture(scope="session")
def small_matrices(small_dataset):
    """Training matrices for base size 256 MB from the session dataset."""
    return build_training_matrices(small_dataset, base_memory_mb=256)


@pytest.fixture(scope="session")
def tiny_network_config() -> NetworkConfig:
    """A very small network configuration for fast training in tests."""
    return TINY_NETWORK


@pytest.fixture(scope="session")
def trained_model(small_matrices) -> SizelessModel:
    """A Sizeless model trained on the session dataset (base 256 MB)."""
    return tiny_model(small_matrices)


@pytest.fixture(scope="session")
def sample_summary(small_dataset):
    """A monitoring summary at 256 MB for one function of the session dataset."""
    return small_dataset.measurements[0].summary_at(256)


def _mixed_fleet(n_functions: int, seed: int = 31, window_s: float = 1800.0):
    """A small fleet exercising every traffic model class, some idle.

    Traffic is laid out against ``window_s``: ramps span three windows,
    bursts recur every window, traces replay inside the first two windows,
    and every sixth function never sees an arrival.
    """
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix="sparse")
    ).generate(n_functions)
    rng = np.random.default_rng(seed + 1)
    traffic = []
    for i in range(n_functions):
        kind = i % 6
        if kind == 0:
            traffic.append(ConstantTraffic(rate_rps=float(rng.uniform(0.01, 0.05))))
        elif kind == 1:
            traffic.append(
                DiurnalTraffic(
                    mean_rate_rps=float(rng.uniform(0.01, 0.04)),
                    amplitude=float(rng.uniform(0.4, 0.8)),
                    phase_s=float(rng.uniform(0.0, 86_400.0)),
                )
            )
        elif kind == 2:
            traffic.append(
                RampTraffic(
                    start_rate_rps=0.005,
                    end_rate_rps=float(rng.uniform(0.02, 0.05)),
                    ramp_start_s=0.0,
                    ramp_duration_s=3 * window_s,
                )
            )
        elif kind == 3:
            traffic.append(
                BurstyTraffic(
                    base_rate_rps=float(rng.uniform(0.005, 0.02)),
                    burst_rate_rps=float(rng.uniform(0.1, 0.3)),
                    burst_every_s=window_s,
                    burst_duration_s=120.0,
                )
            )
        elif kind == 4:
            # Replays inside the first two windows, then goes silent.
            stamps = tuple(np.sort(rng.uniform(0.0, 2 * window_s, size=20)))
            traffic.append(TraceTraffic(timestamps_s=stamps))
        else:
            # Idle forever within the simulated horizon.
            traffic.append(TraceTraffic(timestamps_s=(1e9,)))
    return functions, traffic


@pytest.fixture()
def mixed_fleet():
    """Factory ``(n_functions, seed, window_s) -> (functions, traffic)`` of the mixed fleet."""
    return _mixed_fleet


@pytest.fixture()
def assert_windows_equal():
    """The exact fleet-window comparison (every field), shared by the parity tests."""
    return assert_identical


@pytest.fixture()
def looped_backend():
    """A fresh looped per-batch oracle backend (``tests/looped_oracle.py``).

    Assigned as ``simulator.backend`` it runs a fleet's windows group by
    group.
    """
    return LoopedBackend()


def _pool_state(platform, names):
    """Every pool's workers, their busy-until times in pool order, by name."""
    return {name: platform.busy_until(name) for name in names}


@pytest.fixture()
def pool_state():
    """``(platform, names) -> state``: the warm pools, comparable with ``==``."""
    return _pool_state


_TRAFFIC_FACTORIES = {
    "constant": lambda i: ConstantTraffic(rate_rps=0.01 + 0.002 * i),
    "diurnal": lambda i: DiurnalTraffic(
        mean_rate_rps=0.01, amplitude=0.6, phase_s=1000.0 * i
    ),
    "bursty": lambda i: BurstyTraffic(
        base_rate_rps=0.004, burst_rate_rps=0.3,
        burst_every_s=1800.0, burst_duration_s=120.0, burst_seed=i,
    ),
    "ramp": lambda i: RampTraffic(
        start_rate_rps=0.002, end_rate_rps=0.03,
        ramp_start_s=0.0, ramp_duration_s=7200.0,
    ),
    "trace": lambda i: TraceTraffic(
        timestamps_s=tuple(np.sort(np.random.default_rng(i).uniform(0, 7200, 50)))
    ),
}


def _traffic_model_fleet(model: str, prefix: str):
    """Twelve synthetic functions (seed 31), all on one traffic model class.

    ``model`` is one of ``bursty``, ``constant``, ``diurnal``, ``ramp`` and
    ``trace``; the functions are named ``{prefix}-{model}...``.
    """
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=31, name_prefix=f"{prefix}-{model}")
    ).generate(12)
    factory = _TRAFFIC_FACTORIES[model]
    return functions, [factory(i) for i in range(len(functions))]


@pytest.fixture()
def traffic_model_fleet():
    """Factory ``(model, prefix) -> (functions, traffic)`` of a one-model fleet."""
    return _traffic_model_fleet


def _assert_fleet_matches_looped(functions, traffic, config) -> None:
    """Kernel fleet runs equal the looped oracle's, bit for bit.

    The fleet runs two windows, resizes function 0 (its warm pool drops) and
    runs a third, once through ``config``'s backend and once through the
    looped oracle.  Windows, warm pools, invocation counters and billing
    must all match exactly.
    """
    names = [f.name for f in functions]

    def run(looped):
        simulator = FleetSimulator(functions, traffic, config)
        if looped:
            simulator.backend = LoopedBackend()
        windows = [simulator.run_window() for _ in range(2)]
        simulator.resize(0, 1024)
        windows.append(simulator.run_window())
        return windows, simulator.platform

    (kernel_windows, kp), (looped_windows, lp) = run(False), run(True)
    for kernel_window, looped_window in zip(kernel_windows, looped_windows):
        assert_identical(kernel_window, looped_window)
    assert _pool_state(kp, names) == _pool_state(lp, names)
    for name in names:
        assert (
            kp.get_function(name).invocation_count
            == lp.get_function(name).invocation_count
        )
        assert kp.total_cost_usd(name) == lp.total_cost_usd(name)
    assert kp.total_cost_usd() == lp.total_cost_usd()


@pytest.fixture()
def assert_fleet_matches_looped():
    """The fleet-level kernel-vs-looped comparison, shared by the parity tests."""
    return _assert_fleet_matches_looped
