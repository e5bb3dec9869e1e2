"""Unit tests for the execution model, runtime metrics, and the platform."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, SimulationError
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.execution import ExecutionModel, simulate_execution
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.simulation.variability import VariabilityModel

MEMORY_SIZES = (128, 256, 512, 1024, 2048, 3008)


class TestExecutionModel:
    def test_cpu_bound_scales_with_memory(self, noise_free_model, cpu_profile):
        times = [
            noise_free_model.expected_execution_time_ms(cpu_profile, size)
            for size in MEMORY_SIZES
        ]
        assert times == sorted(times, reverse=True)
        assert times[0] / times[-1] > 5.0

    def test_service_bound_flattens(self, noise_free_model):
        profile = ResourceProfile(
            cpu_user_ms=5.0,
            service_calls=(ServiceCall("external_api", response_bytes=2048),),
        )
        times = [
            noise_free_model.expected_execution_time_ms(profile, size) for size in MEMORY_SIZES
        ]
        # Barely improves beyond 1024 MB.
        assert times[3] / times[-1] < 1.3

    def test_memory_pressure_penalises_small_sizes(self, noise_free_model):
        light = ResourceProfile(cpu_user_ms=100.0, memory_working_set_mb=20.0)
        heavy = ResourceProfile(cpu_user_ms=100.0, memory_working_set_mb=110.0)
        ratio_light = noise_free_model.expected_execution_time_ms(
            light, 128
        ) / noise_free_model.expected_execution_time_ms(light, 256)
        ratio_heavy = noise_free_model.expected_execution_time_ms(
            heavy, 128
        ) / noise_free_model.expected_execution_time_ms(heavy, 256)
        assert ratio_heavy > ratio_light

    def test_execute_produces_all_metrics(self, noise_free_model, cpu_profile, rng):
        result = noise_free_model.execute(cpu_profile, 512, rng)
        assert set(result.metrics) == set(METRIC_NAMES)
        assert all(np.isfinite(value) for value in result.metrics.values())

    def test_execution_time_matches_breakdown(self, noise_free_model, cpu_profile, rng):
        result = noise_free_model.execute(cpu_profile, 512, rng)
        assert result.execution_time_ms == pytest.approx(result.breakdown.total_ms)

    def test_user_cpu_time_stable_across_sizes(self, noise_free_model, cpu_profile, rng):
        """Consumed CPU seconds stay ~constant while wall time shrinks."""
        small = noise_free_model.execute(cpu_profile, 256, rng)
        large = noise_free_model.execute(cpu_profile, 2048, rng)
        assert small.metrics["user_cpu_time"] == pytest.approx(
            large.metrics["user_cpu_time"], rel=0.15
        )
        assert small.execution_time_ms > large.execution_time_ms

    def test_heap_limit_scales_with_memory(self, noise_free_model, cpu_profile, rng):
        small = noise_free_model.execute(cpu_profile, 128, rng)
        large = noise_free_model.execute(cpu_profile, 3008, rng)
        assert large.metrics["heap_limit"] > small.metrics["heap_limit"]

    def test_network_counters_reflect_service_payloads(self, noise_free_model, rng):
        profile = ResourceProfile(
            cpu_user_ms=5.0,
            service_calls=(ServiceCall("s3", request_bytes=1000, response_bytes=50_000),),
        )
        result = noise_free_model.execute(profile, 512, rng)
        assert result.metrics["bytes_received"] >= 50_000 * 0.5
        assert result.metrics["bytes_transmitted"] >= 1000 * 0.5

    def test_event_loop_lag_higher_at_small_sizes(self, noise_free_model, cpu_profile, rng):
        small = noise_free_model.execute(cpu_profile, 128, rng)
        large = noise_free_model.execute(cpu_profile, 3008, rng)
        assert small.metrics["mean_event_loop_lag"] > large.metrics["mean_event_loop_lag"]

    def test_invalid_memory_raises(self, noise_free_model, cpu_profile, rng):
        with pytest.raises(SimulationError):
            noise_free_model.execute(cpu_profile, 0, rng)

    def test_simulate_execution_convenience(self, cpu_profile):
        result = simulate_execution(cpu_profile, 256)
        assert result.execution_time_ms > 0
        assert result.memory_mb == 256

    def test_noise_changes_individual_invocations(self, cpu_profile, rng):
        model = ExecutionModel(variability=VariabilityModel())
        a = model.execute(cpu_profile, 512, rng).execution_time_ms
        b = model.execute(cpu_profile, 512, rng).execution_time_ms
        assert a != b


class TestServerlessPlatform:
    def test_deploy_and_invoke(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        record = platform.invoke(cpu_function.name, at_time_s=0.0)
        assert record.function_name == cpu_function.name
        assert record.result.cold_start is True
        assert record.cost_usd > 0

    def test_warm_invocation_after_cold(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        first = platform.invoke(cpu_function.name, at_time_s=0.0)
        second = platform.invoke(cpu_function.name, at_time_s=100.0)
        assert first.result.cold_start and not second.result.cold_start

    def test_concurrent_requests_spawn_instances(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 256)
        for t in (0.0, 0.01, 0.02):
            platform.invoke(cpu_function.name, at_time_s=t)
        assert platform.warm_instance_count(cpu_function.name) >= 2

    def test_keep_alive_expiry_causes_new_cold_start(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        platform.invoke(cpu_function.name, at_time_s=0.0)
        late = platform.invoke(cpu_function.name, at_time_s=10_000.0)
        assert late.result.cold_start is True

    @pytest.mark.parametrize("cap", [0, -1, 2.5, 2.0, float("nan"), True])
    def test_instance_cap_must_be_a_positive_integer(self, cap):
        with pytest.raises(ConfigurationError, match="max_instances_per_function"):
            PlatformConfig(max_instances_per_function=cap)

    def test_instance_cap_accepts_numpy_integers(self):
        config = PlatformConfig(max_instances_per_function=np.int64(3))
        assert config.max_instances_per_function == 3

    def test_memory_size_restriction(self):
        restricted = ServerlessPlatform(config=PlatformConfig(seed=0))
        profile = ResourceProfile(cpu_user_ms=10.0)
        with pytest.raises(ConfigurationError):
            restricted.deploy("f", profile, 300)

    def test_deploy_many_matches_individual_deploys(self, platform, cpu_function, service_function):
        names = [cpu_function.name, service_function.name]
        profiles = [cpu_function.profile, service_function.profile]
        rows = platform.deploy_many(names, profiles, 512)
        assert rows.tolist() == platform.rows_for(names).tolist()
        for name, profile in zip(names, profiles):
            deployment = platform.get_function(name)
            assert deployment.name == name
            assert deployment.profile is profile
            assert deployment.memory_mb == 512.0
            assert deployment.invocation_count == 0
        assert platform.function_names == sorted(names)
        record = platform.invoke(cpu_function.name, at_time_s=0.0)
        assert record.result.cold_start is True

    def test_deploy_many_repeated_and_existing_names_deploy_in_order(
        self, platform, cpu_function, service_function
    ):
        """A repeated name keeps its last profile and an existing one is
        redeployed (new serial, counter restarted, pool dropped), as one
        ``deploy`` per name would leave them."""
        platform.deploy(cpu_function.name, cpu_function.profile, 256)
        platform.invoke(cpu_function.name, at_time_s=0.0)
        before = platform.get_function(cpu_function.name)
        names = [cpu_function.name, service_function.name, service_function.name]
        profiles = [cpu_function.profile, cpu_function.profile, service_function.profile]
        rows = platform.deploy_many(names, profiles, 512)
        assert rows[1] == rows[2] != rows[0]
        redeployed = platform.get_function(cpu_function.name)
        assert redeployed.serial > before.serial
        assert redeployed.invocation_count == 0
        assert redeployed.memory_mb == 512.0
        assert platform.warm_instance_count(cpu_function.name) == 0
        assert platform.get_function(service_function.name).profile is service_function.profile
        # The bill survives the redeploy.
        assert platform.total_cost_usd(cpu_function.name) > 0.0

    @pytest.mark.parametrize("size", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sizes_are_refused(self, cpu_function, size):
        """Without an allowed-size list any positive size deploys, but a NaN
        size failed only at the next invocation and an infinite one billed
        every invocation ``inf``; each is refused before any row changes."""
        platform = ServerlessPlatform(
            config=PlatformConfig(allowed_memory_sizes_mb=None, seed=0)
        )
        profile = cpu_function.profile
        with pytest.raises(ConfigurationError, match="finite"):
            platform.deploy(cpu_function.name, profile, size)
        with pytest.raises(ConfigurationError, match="finite"):
            platform.deploy_many([cpu_function.name], [profile], size)
        assert platform.function_names == []
        platform.deploy(cpu_function.name, profile, 512)
        with pytest.raises(ConfigurationError, match="finite"):
            platform.set_memory_size(cpu_function.name, size)
        assert platform.get_function(cpu_function.name).memory_mb == 512.0
        assert np.isfinite(platform.invoke(cpu_function.name, 0.0).cost_usd)

    def test_deploy_many_validates_inputs(self, platform, cpu_function):
        with pytest.raises(ConfigurationError):
            platform.deploy_many([cpu_function.name], [], 512)
        with pytest.raises(ConfigurationError):
            platform.deploy_many([""], [cpu_function.profile], 512)
        with pytest.raises(ConfigurationError):
            platform.deploy_many([cpu_function.name], [cpu_function.profile], -64)

    def test_deploy_many_redeployment_drops_warm_instances(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        platform.invoke(cpu_function.name, at_time_s=0.0)
        assert platform.warm_instance_count(cpu_function.name) >= 1
        platform.deploy_many([cpu_function.name], [cpu_function.profile], 512)
        assert platform.warm_instance_count(cpu_function.name) == 0

    def test_set_memory_size_drops_warm_instances(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        platform.invoke(cpu_function.name, at_time_s=0.0)
        platform.set_memory_size(cpu_function.name, 1024)
        assert platform.warm_instance_count(cpu_function.name) == 0
        assert platform.get_function(cpu_function.name).memory_mb == 1024

    def test_unknown_function_raises(self, platform):
        with pytest.raises(SimulationError):
            platform.invoke("missing")

    def test_remove_function(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        platform.remove(cpu_function.name)
        with pytest.raises(SimulationError):
            platform.get_function(cpu_function.name)

    def test_total_cost_accumulates(self, platform, cpu_function, service_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        platform.deploy(service_function.name, service_function.profile, 512)
        platform.invoke(cpu_function.name, 0.0)
        platform.invoke(service_function.name, 0.0)
        total = platform.total_cost_usd()
        assert total == pytest.approx(
            platform.total_cost_usd(cpu_function.name)
            + platform.total_cost_usd(service_function.name)
        )

    def test_invoke_many_sorted_by_time(self, platform, cpu_function):
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        records = platform.invoke_many(cpu_function.name, [3.0, 1.0, 2.0])
        timestamps = [record.timestamp_s for record in records]
        assert timestamps == sorted(timestamps)

    def test_invoke_draws_only_from_the_given_stream(self, cpu_function):
        """``invoke(..., rng=g)`` draws its noise from ``g`` alone: the
        platform's shared generator does not move, and the records equal
        those of a twin platform whose shared generator is seeded like ``g``."""
        platform = ServerlessPlatform(PlatformConfig(seed=0))
        twin = ServerlessPlatform(PlatformConfig(seed=7))
        for each in (platform, twin):
            each.deploy(cpu_function.name, cpu_function.profile, 512)
        shared = platform.rng.bit_generator.state
        stream = np.random.default_rng(7)
        # A cold start, a warm reuse and a second worker for an overlap.
        for at_time_s in (0.0, 30.0, 30.001):
            record = platform.invoke(cpu_function.name, at_time_s, rng=stream)
            assert record == twin.invoke(cpu_function.name, at_time_s)
        assert platform.rng.bit_generator.state == shared
        assert stream.bit_generator.state == twin.rng.bit_generator.state
        assert platform.busy_until(cpu_function.name) == twin.busy_until(cpu_function.name)
        assert platform.total_cost_usd() == twin.total_cost_usd()

    def test_noise_free_platform_factory(self, cpu_function):
        platform = ServerlessPlatform.noise_free(seed=3)
        platform.deploy(cpu_function.name, cpu_function.profile, 512)
        a = platform.invoke(cpu_function.name, 1000.0).result.execution_time_ms
        b = platform.invoke(cpu_function.name, 2000.0).result.execution_time_ms
        assert a == pytest.approx(b)


def test_private_platform_reaches_match_the_allowlist():
    """No module but ``simulation/platform.py`` reaches a ``platform._``
    attribute: platform state changes only through its API, and the
    allowlist of such reaches is empty."""
    root = Path(repro.__file__).parent
    reaches = Counter()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        if module == "simulation/platform.py":
            continue
        for attribute in re.findall(r"\bplatform\.(_\w+)", path.read_text()):
            reaches[module, attribute] += 1
    assert dict(reaches) == {}


@pytest.mark.parametrize(
    "module",
    [
        "repro.simulation.platform",
        "repro.simulation.engine.grouped",
        "repro.simulation.engine.vectorized",
        "repro.fleet",
        "repro.dataset.harness",
    ],
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    """An import cycle between the platform and the engine shows only when the
    cycle's modules are imported first, so each runs in a fresh interpreter."""
    src = str(Path(repro.__file__).parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
