"""Property-based tests (hypothesis) on core invariants.

These cover the arithmetic cores that every experiment depends on: the pricing
scheme, the resource scaling model, the trade-off optimizer, profile
composition, and the regression metrics; plus the conservation identities of
fleet windows (billing, invocation counters, ledger totals).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import MemorySizeOptimizer
from repro.fleet import FleetConfig, FleetSimulator, SavingsLedger
from repro.ml.metrics import explained_variance_score, mean_squared_error, r2_score
from repro.simulation.execution import ExecutionModel
from repro.simulation.pricing import PricingModel
from repro.simulation.profile import ResourceProfile
from repro.simulation.scaling import ResourceScalingModel
from repro.simulation.seeding import invocation_uniforms
from repro.simulation.variability import VariabilityModel
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import (
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    RampTraffic,
    TraceTraffic,
)

MEMORY_SIZES = [128, 256, 512, 1024, 2048, 3008]

memory_strategy = st.sampled_from(MEMORY_SIZES)
time_strategy = st.floats(min_value=0.5, max_value=120_000.0, allow_nan=False)


class TestPricingProperties:
    @given(time_ms=time_strategy, memory=memory_strategy)
    def test_cost_positive_and_finite(self, time_ms, memory):
        cost = PricingModel().execution_cost(time_ms, memory)
        assert np.isfinite(cost) and cost > 0

    @given(time_ms=time_strategy, memory=memory_strategy, extra=st.floats(1.0, 1000.0))
    def test_cost_monotone_in_time(self, time_ms, memory, extra):
        model = PricingModel()
        assert model.execution_cost(time_ms + extra, memory) >= model.execution_cost(time_ms, memory)

    @given(time_ms=time_strategy)
    def test_cost_monotone_in_memory_for_fixed_time(self, time_ms):
        model = PricingModel()
        costs = [model.execution_cost(time_ms, memory) for memory in MEMORY_SIZES]
        assert costs == sorted(costs)

    @given(time_ms=time_strategy, memory=memory_strategy)
    def test_billed_duration_at_least_execution_time(self, time_ms, memory):
        model = PricingModel()
        assert model.billed_duration_ms(time_ms) >= min(time_ms, model.scheme.minimum_billed_ms)


class TestScalingProperties:
    @given(memory=st.floats(64.0, 10240.0))
    def test_cpu_share_bounded(self, memory):
        model = ResourceScalingModel()
        share = model.cpu_share(memory)
        assert model.min_share_floor <= share <= model.max_vcpus

    @given(working_set=st.floats(0.0, 4000.0), memory=memory_strategy)
    def test_pressure_factor_at_least_one(self, working_set, memory):
        factor = ResourceScalingModel().memory_pressure_factor(working_set, memory)
        assert 1.0 <= factor <= 3.0

    @given(nbytes=st.floats(0.0, 1e8), memory=memory_strategy)
    def test_transfer_time_non_negative_monotone_in_bytes(self, nbytes, memory):
        model = ResourceScalingModel()
        assert model.network_transfer_ms(nbytes, memory) >= 0
        assert model.network_transfer_ms(2 * nbytes, memory) >= model.network_transfer_ms(nbytes, memory)


class TestExecutionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        cpu=st.floats(1.0, 2000.0),
        working_set=st.floats(5.0, 150.0),
        blocking=st.floats(0.0, 1.0),
    )
    def test_execution_time_monotone_in_memory(self, cpu, working_set, blocking):
        """More memory never makes a (noise-free) function slower."""
        model = ExecutionModel(variability=VariabilityModel.none())
        profile = ResourceProfile(
            cpu_user_ms=cpu, memory_working_set_mb=working_set, blocking_fraction=blocking
        )
        times = [model.expected_execution_time_ms(profile, size) for size in MEMORY_SIZES]
        assert all(earlier >= later - 1e-9 for earlier, later in zip(times, times[1:]))

    @settings(max_examples=25, deadline=None)
    @given(cpu=st.floats(1.0, 500.0), fs=st.floats(0.0, 5e6))
    def test_metrics_always_finite_and_complete(self, cpu, fs):
        model = ExecutionModel(variability=VariabilityModel.none())
        profile = ResourceProfile(cpu_user_ms=cpu, fs_read_bytes=fs)
        result = model.execute(profile, 512, invocation_uniforms(0))
        assert len(result.metrics) == 25
        assert all(np.isfinite(value) for value in result.metrics.values())


class TestOptimizerProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(st.floats(1.0, 50_000.0), min_size=6, max_size=6),
        tradeoff=st.floats(0.0, 1.0),
    )
    def test_selected_size_minimises_total_score(self, times, tradeoff):
        execution_times = dict(zip(MEMORY_SIZES, times))
        optimizer = MemorySizeOptimizer(tradeoff=tradeoff)
        recommendation = optimizer.recommend(execution_times)
        best_score = min(recommendation.total_scores.values())
        assert recommendation.total_scores[recommendation.selected_memory_mb] == best_score

    @settings(max_examples=50, deadline=None)
    @given(times=st.lists(st.floats(1.0, 50_000.0), min_size=6, max_size=6))
    def test_scores_always_at_least_one(self, times):
        execution_times = dict(zip(MEMORY_SIZES, times))
        optimizer = MemorySizeOptimizer()
        assert min(optimizer.cost_scores(execution_times).values()) >= 1.0 - 1e-12
        assert min(optimizer.performance_scores(execution_times).values()) >= 1.0 - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(times=st.lists(st.floats(1.0, 50_000.0), min_size=6, max_size=6))
    def test_ranking_is_permutation_of_sizes(self, times):
        execution_times = dict(zip(MEMORY_SIZES, times))
        ranking = MemorySizeOptimizer().recommend(execution_times).ranking
        assert sorted(ranking) == sorted(MEMORY_SIZES)


class TestProfileProperties:
    profile_strategy = st.builds(
        ResourceProfile,
        cpu_user_ms=st.floats(0.0, 1000.0),
        cpu_system_ms=st.floats(0.0, 100.0),
        memory_working_set_mb=st.floats(1.0, 300.0),
        heap_allocated_mb=st.floats(1.0, 200.0),
        fs_read_bytes=st.floats(0.0, 1e7),
        fs_write_bytes=st.floats(0.0, 1e7),
        network_bytes_in=st.floats(0.0, 1e7),
        network_bytes_out=st.floats(0.0, 1e7),
        blocking_fraction=st.floats(0.0, 1.0),
    )

    @settings(max_examples=50, deadline=None)
    @given(a=profile_strategy, b=profile_strategy)
    def test_combine_additive_in_cpu_and_bytes(self, a, b):
        combined = a.combine(b)
        assert combined.cpu_user_ms == a.cpu_user_ms + b.cpu_user_ms
        assert combined.fs_read_bytes == a.fs_read_bytes + b.fs_read_bytes
        assert combined.network_bytes_in == a.network_bytes_in + b.network_bytes_in

    @settings(max_examples=50, deadline=None)
    @given(a=profile_strategy, b=profile_strategy)
    def test_combine_working_set_bounded(self, a, b):
        combined = a.combine(b)
        lower = max(a.memory_working_set_mb, b.memory_working_set_mb)
        upper = a.memory_working_set_mb + b.memory_working_set_mb
        assert lower <= combined.memory_working_set_mb <= upper + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(a=profile_strategy, b=profile_strategy)
    def test_combine_blocking_fraction_valid(self, a, b):
        assert 0.0 <= a.combine(b).blocking_fraction <= 1.0


class TestMetricProperties:
    arrays = st.integers(5, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
            st.lists(st.floats(-100, 100), min_size=n, max_size=n),
        )
    )

    @settings(max_examples=50, deadline=None)
    @given(data=arrays)
    def test_mse_non_negative_and_r2_at_most_one(self, data):
        y_true, y_pred = np.array(data[0]), np.array(data[1])
        assert mean_squared_error(y_true, y_pred) >= 0.0
        assert r2_score(y_true, y_pred) <= 1.0 + 1e-9
        assert explained_variance_score(y_true, y_pred) <= 1.0 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(data=arrays)
    def test_identity_prediction_is_perfect(self, data):
        y = np.array(data[0])
        assert mean_squared_error(y, y) == 0.0
        assert r2_score(y, y) == 1.0


FLEET_WINDOW_S = 1800.0

#: Traffic model factories of the conservation fleets, keyed by kind; each
#: takes a mean rate (rps) and a time shift (s).
FLEET_TRAFFIC = {
    "constant": lambda rate, shift: ConstantTraffic(rate_rps=rate),
    "diurnal": lambda rate, shift: DiurnalTraffic(
        mean_rate_rps=rate, amplitude=0.6, phase_s=shift
    ),
    "ramp": lambda rate, shift: RampTraffic(
        start_rate_rps=rate / 4,
        end_rate_rps=rate,
        ramp_start_s=shift,
        ramp_duration_s=2 * FLEET_WINDOW_S,
    ),
    "bursty": lambda rate, shift: BurstyTraffic(
        base_rate_rps=rate / 4,
        burst_rate_rps=10 * rate,
        burst_every_s=FLEET_WINDOW_S,
        burst_duration_s=120.0,
    ),
    "trace": lambda rate, shift: TraceTraffic(
        timestamps_s=tuple(shift + np.arange(int(rate * 1000)) * 60.0)
    ),
}


class TestFleetConservation:
    """Window columns, platform billing and the ledger tell one story.

    Small random fleets replicate two base profiles under a random mix of
    traffic models, with random resizes between windows.  Every window is
    fed to a :class:`SavingsLedger` with no controller.
    """

    @settings(max_examples=15, deadline=None)
    @given(
        traffic=st.lists(
            st.tuples(
                st.sampled_from(sorted(FLEET_TRAFFIC)),
                st.floats(0.002, 0.04),
                st.floats(0.0, 3 * FLEET_WINDOW_S),
            ),
            min_size=2,
            max_size=8,
        ),
        seed=st.integers(0, 2**16),
        resizes=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 7), st.sampled_from(MEMORY_SIZES)
            ),
            max_size=4,
        ),
    )
    def test_window_totals_conserve_billing_and_counts(self, traffic, seed, resizes):
        n = len(traffic)
        bases = SyntheticFunctionGenerator(
            config=GeneratorConfig(seed=seed, name_prefix="conserve")
        ).generate(2)
        functions = [bases[i % 2].with_name(f"conserve-{i}") for i in range(n)]
        models = [FLEET_TRAFFIC[kind](rate, shift) for kind, rate, shift in traffic]
        simulator = FleetSimulator(
            functions,
            models,
            FleetConfig(window_s=FLEET_WINDOW_S, seed=seed),
        )
        ledger = SavingsLedger()
        windows = []
        since_resize = np.zeros(n, dtype=np.int64)
        for index in range(4):
            window = simulator.run_window()
            ledger.observe(window, [])
            windows.append(window)
            assert np.all(window.n_invocations <= window.n_arrivals)
            since_resize[window.active] += window.n_arrivals
            for at, function, size in resizes:
                if at == index:
                    # A resize redeploys the function: its counter restarts.
                    simulator.resize(function % n, size)
                    since_resize[function % n] = 0
        platform = simulator.platform
        window_cost = sum(w.total_cost_usd for w in windows)
        assert platform.total_cost_usd() == pytest.approx(window_cost, rel=1e-9)
        for i, function in enumerate(functions):
            assert platform.get_function(function.name).invocation_count == since_resize[i]
        assert ledger.total_invocations == sum(w.total_invocations for w in windows)
        assert ledger.total_actual_cost_usd == window_cost
