"""Parity tests for the pluggable execution backends.

The vectorized and parallel backends must reproduce the serial (scalar)
backend's behaviour:

- *invocation for invocation* (to rounding) with noise off or on: both read
  the same noise values (stream contract v2, ``repro.simulation.seeding``),
  and
- *statistically* (aggregates over a measurement window within tight
  tolerance) for CPU-bound, service-bound and pure API-call profiles, warm
  and cold.

Their ``run_batch`` is a one-group kernel call (``TestOneBatchPath``), so
these comparisons exercise the kernel directly.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.monitoring.aggregation import aggregate_records
from repro.monitoring.collector import ResourceConsumptionMonitor
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.engine import (
    ExecutionBackend,
    GroupBlock,
    ParallelBackend,
    SerialBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)
from repro.simulation.execution import ExecutionModel
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.simulation.runtime import NodeRuntimeModel
from repro.simulation.seeding import STREAM_EXECUTION, draw_key, noise_keys
from repro.simulation.variability import VariabilityModel
from repro.workloads.function import FunctionSpec

from looped_oracle import LoopedBackend, assert_identical

PROFILES = {
    "cpu_bound": ResourceProfile(
        cpu_user_ms=250.0,
        cpu_system_ms=8.0,
        memory_working_set_mb=70.0,
        heap_allocated_mb=50.0,
        fs_read_bytes=200_000.0,
        fs_read_ops=4.0,
        blocking_fraction=0.9,
    ),
    "service_bound": ResourceProfile(
        cpu_user_ms=15.0,
        cpu_system_ms=4.0,
        memory_working_set_mb=30.0,
        heap_allocated_mb=20.0,
        service_calls=(
            ServiceCall("dynamodb", "query", request_bytes=1024, response_bytes=4096, calls=2),
            ServiceCall("s3", "get_object", request_bytes=256, response_bytes=150_000),
        ),
        blocking_fraction=0.3,
    ),
    "api_call": ResourceProfile(
        cpu_user_ms=2.0,
        cpu_system_ms=1.0,
        memory_working_set_mb=18.0,
        heap_allocated_mb=10.0,
        service_calls=(ServiceCall("external_api", "invoke", 512, 2048),),
        blocking_fraction=0.1,
    ),
}


def _platform(
    seed: int = 0,
    noise_free: bool = False,
    keep_alive_s: float = 600.0,
    variability: VariabilityModel | None = None,
    max_instances: int = 1000,
):
    if noise_free:
        execution_model = ExecutionModel(variability=VariabilityModel.none())
    else:
        execution_model = ExecutionModel(variability=variability)
    return ServerlessPlatform(
        config=PlatformConfig(
            allowed_memory_sizes_mb=None, seed=seed, max_instances_per_function=max_instances
        ),
        execution_model=execution_model,
        cold_start_model=ColdStartModel(
            noise_cv=0.0 if noise_free else 0.2, keep_alive_s=keep_alive_s
        ),
    )


def _run(backend: str, profile: ResourceProfile, arrivals, seed=0, **platform_kwargs):
    platform = _platform(seed=seed, **platform_kwargs)
    platform.deploy("f", profile, 512)
    return platform.invoke_batch("f", arrivals, backend=backend), platform


def _arrivals(n: int, duration_s: float = 300.0, seed: int = 7) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).uniform(0.0, duration_s, n))


class TestRegistry:
    def test_available_backends(self):
        assert {"serial", "vectorized", "parallel"} <= set(available_backends())

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)
        assert isinstance(get_backend("parallel", n_workers=2), ParallelBackend)

    def test_get_backend_passthrough(self):
        backend = VectorizedBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_backend("gpu")
        with pytest.raises(ConfigurationError):
            HarnessConfig(backend="gpu")

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            ParallelBackend(n_workers=0)


class TestExactParity:
    """Both backends agree invocation for invocation, with noise off or on."""

    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_noise_free_batches_identical(self, profile_name):
        profile = PROFILES[profile_name]
        arrivals = _arrivals(400)
        serial, serial_platform = _run("serial", profile, arrivals, noise_free=True)
        vectorized, vectorized_platform = _run("vectorized", profile, arrivals, noise_free=True)

        np.testing.assert_allclose(
            serial.execution_time_ms, vectorized.execution_time_ms, rtol=1e-9
        )
        np.testing.assert_array_equal(serial.cold_start, vectorized.cold_start)
        # The same workers end busy until the same times.
        np.testing.assert_allclose(
            serial_platform.busy_until("f"), vectorized_platform.busy_until("f"), rtol=1e-9
        )
        np.testing.assert_allclose(
            serial.init_duration_ms, vectorized.init_duration_ms, rtol=1e-9
        )
        np.testing.assert_allclose(serial.cost_usd, vectorized.cost_usd, rtol=1e-9)
        for metric in METRIC_NAMES:
            np.testing.assert_allclose(
                serial.metrics[metric],
                vectorized.metrics[metric],
                rtol=1e-9,
                atol=1e-12,
                err_msg=metric,
            )

    @pytest.mark.parametrize("profile_name", sorted(PROFILES) + ["network_bound"])
    def test_default_noise_batches_identical(self, profile_name):
        """With the default noise models on, the serial path reads the
        kernel's noise values (stream contract v2), so the same assertions
        hold invocation for invocation."""
        profile = PROFILES.get(profile_name) or ResourceProfile(
            cpu_user_ms=30.0,
            memory_working_set_mb=60.0,
            heap_allocated_mb=25.0,
            fs_write_bytes=80_000.0,
            fs_write_ops=2.0,
            network_bytes_in=300_000.0,
            network_bytes_out=20_000.0,
            service_calls=(
                ServiceCall("sqs", "send", 512, 256, calls=3),
                ServiceCall("aurora", "join_query", 2048, 65_536),
            ),
            blocking_fraction=0.5,
        )
        # Sparse enough for keep-alive expiry, dense enough for overlaps.
        arrivals = np.concatenate([_arrivals(300), 2000.0 + _arrivals(100, 5.0)])
        serial, serial_platform = _run("serial", profile, arrivals)
        vectorized, vectorized_platform = _run("vectorized", profile, arrivals)
        assert serial.n_cold_starts > 1

        np.testing.assert_allclose(
            serial.execution_time_ms, vectorized.execution_time_ms, rtol=1e-9
        )
        np.testing.assert_array_equal(serial.cold_start, vectorized.cold_start)
        np.testing.assert_allclose(
            serial_platform.busy_until("f"), vectorized_platform.busy_until("f"), rtol=1e-9
        )
        np.testing.assert_allclose(
            serial.init_duration_ms, vectorized.init_duration_ms, rtol=1e-9
        )
        np.testing.assert_allclose(serial.cost_usd, vectorized.cost_usd, rtol=1e-9)
        for metric in METRIC_NAMES:
            np.testing.assert_allclose(
                serial.metrics[metric],
                vectorized.metrics[metric],
                rtol=1e-9,
                atol=1e-12,
                err_msg=metric,
            )

    def test_noise_free_aggregates_identical(self):
        arrivals = _arrivals(300)
        serial, _ = _run("serial", PROFILES["service_bound"], arrivals, noise_free=True)
        vectorized, _ = _run("vectorized", PROFILES["service_bound"], arrivals, noise_free=True)
        agg_s = serial.aggregate(warmup_s=30.0)
        agg_v = vectorized.aggregate(warmup_s=30.0)
        assert agg_s.n_invocations == agg_v.n_invocations
        for metric in METRIC_NAMES:
            assert agg_s.mean(metric) == pytest.approx(agg_v.mean(metric), rel=1e-9)
            assert agg_s.std(metric) == pytest.approx(agg_v.std(metric), rel=1e-9, abs=1e-12)


class TestStatisticalParity:
    """With default noise, window aggregates agree within sampling error."""

    N = 2500

    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_warm_aggregates_match(self, profile_name):
        profile = PROFILES[profile_name]
        arrivals = _arrivals(self.N, duration_s=600.0)
        # With the default 1 % straggler rate the 99th percentile sits exactly
        # on the bimodal straggler boundary, where it is dominated by Poisson
        # noise in the straggler count rather than backend behaviour.  A wider
        # straggler band places p99 inside a smooth region so the percentile
        # comparison is meaningful.
        variability = VariabilityModel(tail_probability=0.08, tail_multiplier=1.6)
        serial, _ = _run("serial", profile, arrivals, variability=variability)
        vectorized, _ = _run("vectorized", profile, arrivals, variability=variability)

        warm_s = serial.execution_time_ms[~serial.cold_start]
        warm_v = vectorized.execution_time_ms[~vectorized.cold_start]
        assert np.mean(warm_v) == pytest.approx(np.mean(warm_s), rel=0.03)
        assert np.percentile(warm_v, 50) == pytest.approx(np.percentile(warm_s, 50), rel=0.03)
        assert np.percentile(warm_v, 99) == pytest.approx(np.percentile(warm_s, 99), rel=0.10)

        agg_s = serial.aggregate(warmup_s=30.0)
        agg_v = vectorized.aggregate(warmup_s=30.0)
        for metric in METRIC_NAMES:
            assert agg_v.mean(metric) == pytest.approx(
                agg_s.mean(metric), rel=0.05, abs=1e-6
            ), metric

    def test_cold_aggregates_match(self):
        # A tiny keep-alive and arrivals sparser than one invocation's
        # end-to-end latency force a cold start for every invocation; compare
        # the all-cold window including init durations.
        profile = PROFILES["api_call"]
        arrivals = np.arange(2.0, 800.0, 2.0)  # 0.5 req/s, keep-alive 0.3 s
        serial, _ = _run("serial", profile, arrivals, keep_alive_s=0.3)
        vectorized, _ = _run("vectorized", profile, arrivals, keep_alive_s=0.3)

        assert serial.n_cold_starts == serial.n_invocations
        assert vectorized.n_cold_starts == vectorized.n_invocations
        assert np.mean(vectorized.init_duration_ms) == pytest.approx(
            np.mean(serial.init_duration_ms), rel=0.05
        )
        agg_s = serial.aggregate(exclude_cold_starts=False)
        agg_v = vectorized.aggregate(exclude_cold_starts=False)
        assert agg_s.n_invocations == agg_v.n_invocations == serial.n_invocations
        for metric in METRIC_NAMES:
            assert agg_v.mean(metric) == pytest.approx(
                agg_s.mean(metric), rel=0.05, abs=1e-6
            ), metric

    def test_parallel_run_batch_equals_vectorized(self):
        arrivals = _arrivals(500)
        vectorized, _ = _run("vectorized", PROFILES["service_bound"], arrivals, seed=3)
        parallel, _ = _run("parallel", PROFILES["service_bound"], arrivals, seed=3)
        np.testing.assert_array_equal(
            vectorized.execution_time_ms, parallel.execution_time_ms
        )
        for metric in METRIC_NAMES:
            np.testing.assert_array_equal(
                vectorized.metrics[metric], parallel.metrics[metric], err_msg=metric
            )

    def test_parallel_measurements_match_vectorized(self):
        functions = [
            FunctionSpec(name=f"fn-{name}", profile=profile)
            for name, profile in sorted(PROFILES.items())
        ]
        sizes = (256, 1024)

        def measure(backend, n_workers=None):
            harness = MeasurementHarness(
                config=HarnessConfig(
                    memory_sizes_mb=sizes,
                    max_invocations_per_size=60,
                    seed=11,
                    backend=backend,
                    n_workers=n_workers,
                )
            )
            return harness.measure_table(functions)

        reference = measure("vectorized")
        parallel = measure("parallel", n_workers=2)
        assert parallel.function_names == reference.function_names
        assert parallel.memory_sizes_mb == sizes
        np.testing.assert_allclose(
            parallel.execution_time_ms(), reference.execution_time_ms(), rtol=0.10
        )

    def test_parallel_reproducible_across_worker_counts(self):
        functions = [
            FunctionSpec(name=f"repro-{name}", profile=profile)
            for name, profile in sorted(PROFILES.items())
        ]

        def measure(n_workers):
            harness = MeasurementHarness(
                config=HarnessConfig(
                    memory_sizes_mb=(256,),
                    max_invocations_per_size=8,
                    seed=6,
                    backend="parallel",
                    n_workers=n_workers,
                )
            )
            return harness.measure_table(functions)

        single = measure(1)
        pooled = measure(2)
        assert single.function_names == pooled.function_names
        np.testing.assert_allclose(
            single.execution_time_ms(), pooled.execution_time_ms(), rtol=1e-12
        )

    def test_parallel_progress_callback(self):
        functions = [
            FunctionSpec(name=f"fn-{name}", profile=profile)
            for name, profile in sorted(PROFILES.items())
        ]
        harness = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=(256,),
                max_invocations_per_size=8,
                seed=2,
                backend="parallel",
                n_workers=2,
            )
        )
        calls = []
        harness.measure_table(
            functions, progress_callback=lambda i, n, name: calls.append((i, n, name))
        )
        assert len(calls) == len(functions)
        assert {done for done, _, _ in calls} == {1, 2, 3}


class TestBatchBookkeeping:
    """Billing totals, streams and batch aggregation."""

    def test_vectorized_updates_costs_without_records(self):
        arrivals = _arrivals(200)
        batch, platform = _run("vectorized", PROFILES["cpu_bound"], arrivals)
        assert platform.total_cost_usd("f") == pytest.approx(batch.total_cost_usd)
        assert platform.get_function("f").invocation_count == len(arrivals)
        assert platform.warm_instance_count("f") > 0

    def test_serial_batch_draws_only_from_its_stream(self):
        """A serial batch given a key leaves the platform's shared
        generator as it was, and equals the batch of a twin platform whose
        shared generator is seeded like the generator the key came from."""
        arrivals = _arrivals(30)
        platform = _platform(seed=0)
        platform.deploy("f", PROFILES["service_bound"], 512)
        shared = platform.rng.bit_generator.state
        batch = SerialBackend().run_batch(
            platform, "f", arrivals, key=draw_key(np.random.default_rng(5))
        )
        assert platform.rng.bit_generator.state == shared
        twin, _ = _run("serial", PROFILES["service_bound"], arrivals, seed=5)
        assert_identical(batch, twin)

    def test_to_records_round_trip(self):
        arrivals = _arrivals(40)
        batch, _ = _run("vectorized", PROFILES["service_bound"], arrivals)
        monitor = ResourceConsumptionMonitor()
        monitor.observe_batch(batch)
        summary = aggregate_records(monitor.records, exclude_cold_starts=True)
        direct = batch.aggregate()
        assert summary.mean_execution_time_ms == pytest.approx(
            direct.mean_execution_time_ms
        )
        assert summary.n_invocations == direct.n_invocations

    def test_harness_streams_records(self):
        harness = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=(256, 512), max_invocations_per_size=6, seed=3
            )
        )
        function = FunctionSpec(name="streamed", profile=PROFILES["cpu_bound"])
        harness.measure_function(function)
        assert harness.platform.total_cost_usd("streamed") > 0.0

    def test_parallel_measure_many_propagates_billing(self):
        functions = [
            FunctionSpec(name=f"bill-{name}", profile=profile)
            for name, profile in sorted(PROFILES.items())[:2]
        ]
        harness = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=(256,),
                max_invocations_per_size=6,
                seed=4,
                backend="parallel",
                n_workers=2,
            )
        )
        harness.measure_table(functions)
        for function in functions:
            assert harness.platform.total_cost_usd(function.name) > 0.0
        assert harness.platform.total_cost_usd() == pytest.approx(
            sum(harness.platform.total_cost_usd(f.name) for f in functions)
        )

    def test_custom_backend_instance(self):
        class CountingBackend(VectorizedBackend):
            name = "counting"
            calls = 0

            def run_batch(self, platform, function_name, arrivals, key=None):
                CountingBackend.calls += 1
                return super().run_batch(platform, function_name, arrivals, key=key)

        backend: ExecutionBackend = CountingBackend()
        platform = _platform()
        platform.deploy("f", PROFILES["api_call"], 512)
        platform.invoke_batch("f", [1.0, 2.0, 3.0], backend=backend)
        assert CountingBackend.calls == 1


def _one_group(platform, name, arrivals, key):
    """One-group ``run_grouped``, on a key from the platform's generator when ``key`` is None."""
    block = GroupBlock.for_deployed(
        platform, [name], [arrivals], [key if key is not None else draw_key(platform.rng)]
    )
    return VectorizedBackend().run_grouped(platform, block).group(0)


class TestOneBatchPath:
    """``run_batch`` is one kernel call, bit-identical to the looped oracle."""

    #: Arrival shapes of batch ``b`` (0, 1, 2) of the parity grid.
    ARRIVALS = {
        "sparse": lambda b: _arrivals(30, 3600.0, seed=b) + 3600.0 * b,
        "dense": lambda b: _arrivals(200, 60.0, seed=b) + 60.0 * b,
        "tiny": lambda b: 100.0 * b + np.array([1.0, 2.5, 40.0]),
        "empty": lambda b: np.empty(0),
    }

    @pytest.mark.parametrize("stream", ["group", "shared"])
    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "noise-free"])
    def test_batch_paths_bit_identical(self, noise, stream, pool_state):
        """``run_batch`` on both vectorized backends and one-group
        ``run_grouped`` equal the oracle over three consecutive batches:
        every column and metric, the pool, the invocation count, billing
        and the shared generator's state."""

        def run(execute, profile, size, kind, limits):
            keep_alive_s, max_instances = limits
            platform = _platform(5, not noise, keep_alive_s, max_instances=max_instances)
            platform.deploy("f", profile, size)
            keys = [
                int(noise_keys(7, STREAM_EXECUTION, b)) if stream == "group" else None
                for b in range(3)
            ]
            batches = [execute(platform, "f", self.ARRIVALS[kind](b), keys[b]) for b in range(3)]
            return batches, (
                pool_state(platform, ["f"]),
                platform.get_function("f").invocation_count,
                platform.total_cost_usd("f"),
                platform.total_cost_usd(),
                platform.rng.bit_generator.state,
            )

        paths = (get_backend("vectorized").run_batch, get_backend("parallel").run_batch, _one_group)
        for case in itertools.product(
            PROFILES.values(), (128, 1024), self.ARRIVALS, ((600.0, 1000), (2.0, 2))
        ):
            expected, expected_state = run(LoopedBackend().run_batch, *case)
            for execute in paths:
                batches, state = run(execute, *case)
                assert state == expected_state
                for got, want in zip(batches, expected):
                    assert_identical(got, want)

    @pytest.mark.parametrize(
        "arrivals, message",
        [
            ([5.0, 1.0, 3.0], "sorted and non-negative"),
            ([-1.0, 2.0], "sorted and non-negative"),
            ([1.0, np.nan], "sorted and non-negative"),
            ([1.0, np.inf], "sorted and non-negative"),
            ([[1.0, 2.0], [3.0, 4.0]], "must be a 1-D array"),
        ],
        ids=["unsorted", "negative", "nan", "inf", "2d"],
    )
    @pytest.mark.parametrize("backend", ["vectorized", "parallel"])
    def test_run_batch_rejects_unsorted_and_negative(
        self, backend, arrivals, message, pool_state
    ):
        """Such arrivals would walk the pool backwards in time or bill NaN;
        the kernel refuses them before the pool, the counter, the bill or the
        shared generator changes (a refused batch that had drawn its noise
        would shift every later shared-stream batch)."""
        platform = _platform()
        platform.deploy("f", PROFILES["api_call"], 512)
        platform.invoke_batch("f", [1.0, 2.0], backend=backend)

        def state():
            return (
                pool_state(platform, ["f"]),
                platform.get_function("f").invocation_count,
                platform.total_cost_usd(),
                platform.rng.bit_generator.state,
            )

        before = state()
        with pytest.raises(SimulationError, match=message):
            get_backend(backend).run_batch(platform, "f", np.array(arrivals))
        assert state() == before
        # invoke_batch keeps sorting its input and refusing negative arrivals.
        platform.invoke_batch("f", [9.0, 4.0, 6.0], backend=backend)
        assert platform.get_function("f").invocation_count == before[1] + 3
        with pytest.raises(SimulationError):
            platform.invoke_batch("f", [12.0, -1.0], backend=backend)

    @pytest.mark.parametrize("backend", ["vectorized", "parallel", "serial"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_arrivals_change_nothing(self, bad, backend, pool_state):
        """NaN and +inf pass a sign check, so without a finiteness check they
        are billed as NaN (or leave a worker busy until NaN).  ``invoke_batch``
        and ``invoke_many`` (the whole list, before its first arrival runs)
        and ``invoke`` refuse them before any pool, counter or bill
        changes."""
        platform = _platform()
        platform.deploy("f", PROFILES["api_call"], 512)
        platform.invoke_batch("f", [1.0, 2.0], backend="serial")

        def state():
            return (
                pool_state(platform, ["f"]),
                platform.get_function("f").invocation_count,
                platform.total_cost_usd(),
            )

        before = state()
        with pytest.raises(SimulationError, match="finite"):
            platform.invoke_batch("f", [3.0, bad, 4.0], backend=backend)
        assert state() == before
        with pytest.raises(SimulationError, match="finite"):
            platform.invoke("f", at_time_s=bad)
        assert state() == before
        with pytest.raises(SimulationError, match="finite"):
            platform.invoke_many("f", [2.0, bad])
        assert state() == before

    @pytest.mark.parametrize("backend", ["vectorized", "parallel", "serial"])
    def test_invoke_batch_refuses_2d_timestamps(self, backend, pool_state):
        """Sorting a 2-D array sorts its rows, so ``invoke_batch`` refuses it
        before it sorts: nothing runs and nothing is billed."""
        platform = _platform()
        platform.deploy("f", PROFILES["api_call"], 512)
        before = pool_state(platform, ["f"])
        with pytest.raises(SimulationError, match=r"1-D array, not of shape \(2, 2\)"):
            platform.invoke_batch("f", [[1.0, 2.0], [3.0, 4.0]], backend=backend)
        assert pool_state(platform, ["f"]) == before
        assert platform.get_function("f").invocation_count == 0
        assert platform.total_cost_usd() == 0.0

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, np.nan], "finite, sorted and non-negative"),
            ([3.0, 2.0], "finite, sorted and non-negative"),
            ([-1.0, 1.0], "finite, sorted and non-negative"),
            ([[1.0, 2.0]], "a 1-D array, not of shape (1, 2)"),
        ],
        ids=["nan", "unsorted", "negative", "2d"],
    )
    @pytest.mark.parametrize("stream", ["group", "shared"])
    def test_refused_run_grouped_changes_nothing(self, stream, bad, message, pool_state):
        """A ``run_grouped`` with one bad group is refused before any group
        runs: its block cannot be built, so on every backend no pool,
        counter, bill or stream moves (the looped path would otherwise have
        billed group 0), and all three raise the same message."""
        messages = set()
        for backend in ("serial", "vectorized", "parallel"):
            platform = _platform()
            for name in ("f", "g"):
                platform.deploy(name, PROFILES["api_call"], 512)
                platform.invoke_batch(name, [1.0, 2.0], backend="serial")
            keys = (
                noise_keys(3, STREAM_EXECUTION, np.arange(2))
                if stream == "group"
                else [draw_key(platform.rng) for _ in range(2)]
            )

            def state():
                return (
                    pool_state(platform, ["f", "g"]),
                    [platform.get_function(n).invocation_count for n in ("f", "g")],
                    [platform.total_cost_usd(n) for n in ("f", "g")],
                    platform.total_cost_usd(),
                    platform.rng.bit_generator.state,
                )

            before = state()
            with pytest.raises(SimulationError) as refused:
                get_backend(backend).run_grouped(
                    platform,
                    GroupBlock.for_deployed(platform, ["f", "g"], [[0.5, 1.0], bad], keys),
                )
            assert state() == before, backend
            messages.add(str(refused.value))
        assert messages == {f"group 1 ('g'): arrivals must be {message}"}

    def test_run_batch_is_one_run_grouped_call(self, monkeypatch):
        calls = []
        run_grouped = VectorizedBackend.run_grouped

        def spy(self, platform, block):
            calls.append((self.name, block.n_groups))
            return run_grouped(self, platform, block)

        monkeypatch.setattr(VectorizedBackend, "run_grouped", spy)
        for backend in ("vectorized", "parallel"):
            platform = _platform()
            platform.deploy("f", PROFILES["service_bound"], 512)
            assert platform.invoke_batch("f", _arrivals(50), backend=backend).n_invocations == 50
        assert calls == [("vectorized", 1), ("parallel", 1)]

    def test_oracle_never_enters_the_kernel(self, monkeypatch, looped_backend):
        """Were the oracle to reach the grouped kernel or its metric kernel,
        every parity test would compare the kernel with itself."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the looped oracle entered the grouped kernel")

        monkeypatch.setattr(VectorizedBackend, "run_grouped", forbidden)
        monkeypatch.setattr(NodeRuntimeModel, "metrics_batch_grouped", forbidden)
        platform = _platform()
        for name, profile in PROFILES.items():
            platform.deploy(name, profile, 512)
        block = GroupBlock.for_deployed(
            platform,
            list(PROFILES),
            [_arrivals(40, seed=i) for i in range(len(PROFILES))],
            noise_keys(0, STREAM_EXECUTION, np.arange(len(PROFILES))),
        )
        assert looped_backend.run_grouped(platform, block).n_invocations == 120
