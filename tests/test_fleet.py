"""Tests for the fleet rightsizing subsystem (repro.fleet).

Covers the window simulator, the pooled-statistics merge, the controller
guardrails, the savings ledger and — as the acceptance test — a seeded
500-function fleet over a 24-hour virtual diurnal trace: bounded memory,
converging resize rate, no flip-flopping, and positive realized speedup at
the paper's recommended t = 0.75.  The compact controller and ledger state
is compared, window by window, with the dense oracle of
``tests/dense_rightsizing.py``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dense_rightsizing
from dense_rightsizing import DenseRightsizingController, DenseSavingsLedger
from repro.errors import ConfigurationError, SimulationError
from repro.core.features import EXTENDED_FEATURE_SET
from repro.core.predictor import SizelessPredictor
from repro.core.training import train_model
from repro.fleet import (
    ControllerConfig,
    FleetConfig,
    FleetRightsizingService,
    FleetSimulator,
    FleetWindow,
    ResizeEvent,
    RightsizingController,
    SavingsLedger,
    merge_stat_blocks,
)
from repro.ml.network import NetworkConfig
from repro.monitoring.aggregation import STAT_NAMES, stat_matrix
from repro.monitoring.metrics import METRIC_NAMES
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import ConstantTraffic, DiurnalTraffic, TraceTraffic

_MEAN = STAT_NAMES.index("mean")
_EXEC = METRIC_NAMES.index("execution_time")


def _make_fleet(n_functions: int, seed: int = 21):
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix="fleet")
    ).generate(n_functions)
    rng = np.random.default_rng(seed + 1)
    traffic = [
        DiurnalTraffic(
            mean_rate_rps=float(rng.uniform(0.005, 0.02)),
            amplitude=float(rng.uniform(0.4, 0.8)),
            phase_s=float(rng.uniform(0.0, 86_400.0)),
        )
        for _ in range(n_functions)
    ]
    return functions, traffic


def _stats_for(mean_exec_ms: float) -> np.ndarray:
    stats = np.zeros((len(METRIC_NAMES), len(STAT_NAMES)))
    stats[_EXEC, _MEAN] = mean_exec_ms
    return stats


def _window(index, sizes, counts, costs, exec_means, window_s=3600.0) -> FleetWindow:
    """A window in which every function is active."""
    n = len(sizes)
    stats = np.zeros((n, len(METRIC_NAMES), len(STAT_NAMES)))
    stats[:, _EXEC, _MEAN] = exec_means
    counts = np.asarray(counts, dtype=np.int64)
    return FleetWindow(
        index=index,
        start_s=index * window_s,
        end_s=(index + 1) * window_s,
        memory_mb=np.asarray(sizes, dtype=int),
        active=np.arange(n),
        stats=stats,
        n_invocations=counts,
        n_arrivals=counts.copy(),
        n_cold_starts=np.zeros(n, dtype=np.int64),
        cost_usd=np.asarray(costs, dtype=float),
    )


def _service(functions, traffic, fleet_config, predictor, controller_config, dense=False):
    """A service over a fresh simulator: the compact classes or the dense pair."""
    simulator = FleetSimulator(functions, traffic, fleet_config)
    if not dense:
        return FleetRightsizingService(
            simulator, predictor, controller_config=controller_config
        )
    service = FleetRightsizingService(
        simulator,
        predictor,
        ledger=DenseSavingsLedger(default_memory_mb=fleet_config.default_memory_mb),
    )
    service.controller = DenseRightsizingController(predictor, controller_config)
    return service


def assert_matches_dense_oracle(
    functions, traffic, fleet_config, predictor, controller_config, n_windows
) -> list[ResizeEvent]:
    """Run a compact and a dense service in lockstep; return the events.

    Events, window accounts and deployed sizes must be equal after every
    window (floats compared exactly).
    """
    compact, dense = (
        _service(functions, traffic, fleet_config, predictor, controller_config, flag)
        for flag in (False, True)
    )
    events = []
    for _ in range(n_windows):
        got, account = compact.run_window()
        want, want_account = dense.run_window()
        assert got == want
        assert account == want_account
        np.testing.assert_array_equal(
            compact.simulator.current_memory_mb(), dense.simulator.current_memory_mb()
        )
        events.extend(got)
    return events


class TestMergeStatBlocks:
    def _random_blocks(self, seed: int):
        rng = np.random.default_rng(seed)
        n_a, n_b = 40, 25
        samples_a = rng.uniform(1.0, 10.0, size=(len(METRIC_NAMES), n_a))
        samples_b = rng.uniform(1.0, 10.0, size=(len(METRIC_NAMES), n_b))
        metrics_a = {m: samples_a[k] for k, m in enumerate(METRIC_NAMES)}
        metrics_b = {m: samples_b[k] for k, m in enumerate(METRIC_NAMES)}
        stats_a, _ = stat_matrix(metrics_a)
        stats_b, _ = stat_matrix(metrics_b)
        both = {m: np.concatenate([metrics_a[m], metrics_b[m]]) for m in METRIC_NAMES}
        stats_both, _ = stat_matrix(both)
        return stats_a[None], stats_b[None], stats_both, n_a, n_b

    def test_pooled_merge_matches_recomputation(self):
        stats_a, stats_b, expected, n_a, n_b = self._random_blocks(3)
        merged, counts = merge_stat_blocks(
            stats_a, np.array([n_a]), stats_b, np.array([n_b])
        )
        assert counts[0] == n_a + n_b
        np.testing.assert_allclose(merged[0], expected, rtol=1e-10, atol=1e-12)

    def test_merge_into_empty_is_bit_identical(self):
        stats_b = np.random.default_rng(1).uniform(0.1, 5.0, (3, len(METRIC_NAMES), 3))
        empty = np.zeros_like(stats_b)
        merged, counts = merge_stat_blocks(
            empty, np.zeros(3, dtype=np.int64), stats_b, np.array([5, 0, 9])
        )
        assert np.array_equal(merged[0], stats_b[0])
        assert np.array_equal(merged[2], stats_b[2])
        assert np.array_equal(merged[1], np.zeros_like(stats_b[1]))
        assert list(counts) == [5, 0, 9]

    def test_merge_equals_the_every_row_formulas(self):
        """Rows populated on one side, both or neither: the dense merge's bits."""
        rng = np.random.default_rng(4)
        n = 400
        stats_a = rng.uniform(0.0, 9.0, (n, 7, len(STAT_NAMES)))
        stats_b = rng.uniform(0.0, 9.0, (n, 7, len(STAT_NAMES)))
        counts_a = rng.integers(0, 4, n) * rng.integers(0, 50, n)
        counts_b = rng.integers(0, 4, n) * rng.integers(0, 50, n)
        stats_b[: n // 8, :, _MEAN] = 0.0  # zero means: cv left at zero
        got = merge_stat_blocks(stats_a, counts_a, stats_b, counts_b)
        want = dense_rightsizing.merge_stat_blocks(stats_a, counts_a, stats_b, counts_b)
        assert {(a > 0, b > 0) for a, b in zip(counts_a, counts_b)} == {
            (False, False), (False, True), (True, False), (True, True)
        }
        np.testing.assert_array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
        np.testing.assert_array_equal(got[1], want[1])

    def test_merge_with_empty_window_keeps_accumulator(self):
        stats_a = np.random.default_rng(2).uniform(0.1, 5.0, (2, len(METRIC_NAMES), 3))
        merged, counts = merge_stat_blocks(
            stats_a, np.array([7, 7]), np.zeros_like(stats_a), np.zeros(2, dtype=np.int64)
        )
        assert np.array_equal(merged, stats_a)
        assert list(counts) == [7, 7]


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(window_s=0.0)
        with pytest.raises(ConfigurationError):
            FleetConfig(window_s=float("nan"))
        with pytest.raises(ConfigurationError):
            FleetConfig(memory_sizes_mb=())
        with pytest.raises(ConfigurationError):
            FleetConfig(default_memory_mb=384)

    def test_controller_config_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(tradeoff=1.5)
        with pytest.raises(ConfigurationError):
            ControllerConfig(min_invocations=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(min_windows=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(hysteresis_margin=-0.1)
        with pytest.raises(ConfigurationError):
            ControllerConfig(evaluation_windows=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(rollback_tolerance=-1.0)
        # NaN compares false with everything: it would switch off every
        # resize (hysteresis) or every rollback (tolerance).
        for field in ("hysteresis_margin", "rollback_tolerance", "tradeoff"):
            with pytest.raises(ConfigurationError):
                ControllerConfig(**{field: float("nan")})
        # Counts are integers: floats would be truncated in the int64
        # state, and a bool is not a count.
        for field, value in (
            ("cooldown_windows", 1.5),
            ("evaluation_windows", 2.5),
            ("min_invocations", 2.5),
            ("min_windows", True),
            ("cooldown_windows", False),
            ("min_windows", 3.0),
        ):
            with pytest.raises(ConfigurationError, match=field):
                ControllerConfig(**{field: value})
        counts = ControllerConfig(
            min_invocations=np.int64(40),
            min_windows=np.int32(2),
            cooldown_windows=np.uint8(0),
            evaluation_windows=np.int64(3),
        )
        assert (counts.min_invocations, counts.min_windows) == (40, 2)
        assert (counts.cooldown_windows, counts.evaluation_windows) == (0, 3)
        assert ControllerConfig(hysteresis_margin=float("inf")).hysteresis_margin == float("inf")


class TestFleetSimulator:
    def test_requires_matching_traffic(self, cpu_function):
        with pytest.raises(ConfigurationError):
            FleetSimulator([cpu_function], [])
        with pytest.raises(ConfigurationError):
            FleetSimulator([], [])
        with pytest.raises(ConfigurationError):
            FleetSimulator(
                [cpu_function, cpu_function],
                [ConstantTraffic(1.0), ConstantTraffic(1.0)],
            )

    def test_window_advances_clock_and_monitors_current_size(self, cpu_function):
        simulator = FleetSimulator(
            [cpu_function],
            [ConstantTraffic(rate_rps=0.05)],
            FleetConfig(window_s=600.0, seed=1),
        )
        window = simulator.run_window()
        assert (window.start_s, window.end_s) == (0.0, 600.0)
        assert simulator.clock_s == 600.0
        assert window.memory_mb[0] == 256
        assert window.n_invocations[0] > 0
        assert window.mean_execution_time_ms()[0] > 0
        assert window.total_cost_usd > 0
        second = simulator.run_window()
        assert (second.start_s, second.end_s) == (600.0, 1200.0)
        assert second.index == 1

    def test_function_without_traffic_produces_zero_row(self, cpu_function, service_function):
        simulator = FleetSimulator(
            [cpu_function, service_function],
            [ConstantTraffic(0.05), TraceTraffic(timestamps_s=(1e9,))],
            FleetConfig(window_s=600.0, seed=2),
        )
        window = simulator.run_window()
        assert window.active.tolist() == [0]
        assert window.stats.shape[0] == 1
        assert window.n_invocations[0] > 0
        assert window.cost_usd[0] > 0.0

    def test_resize_redeploys_at_new_size(self, cpu_function):
        simulator = FleetSimulator(
            [cpu_function], [ConstantTraffic(0.05)], FleetConfig(window_s=300.0, seed=3)
        )
        simulator.run_window()
        simulator.resize(0, 1024)
        assert simulator.current_memory_mb()[0] == 1024
        assert simulator.platform.get_function(cpu_function.name).memory_mb == 1024.0
        window = simulator.run_window()
        assert window.memory_mb[0] == 1024

    def test_resize_to_unknown_size_raises(self, cpu_function):
        functions = [cpu_function.with_name(f"resize-{i}") for i in range(3)]
        simulator = FleetSimulator(
            functions, [ConstantTraffic(0.05)] * 3, FleetConfig(seed=4)
        )
        with pytest.raises(SimulationError):
            simulator.resize(0, 384)
        # A negative index would wrap to another function, and one past the
        # end would escape as a bare IndexError.
        for index in (-1, 3):
            with pytest.raises(SimulationError, match="out of range"):
                simulator.resize(index, 512)
        # Only integers, not bools: int() would deploy 512.7 at 512, accept
        # "512", leak a ValueError for NaN and resize function 1 for 1.5 or
        # True.
        for size in (512.7, 512.0, "512", float("nan"), True):
            with pytest.raises(SimulationError, match="not among fleet sizes"):
                simulator.resize(0, size)
        for index in (1.5, 1.0, True, "1"):
            with pytest.raises(SimulationError, match="out of range"):
                simulator.resize(index, 512)
        simulator.resize(np.int64(2), np.int32(512))
        simulator.resize(np.int64(2), 256)
        assert simulator.current_memory_mb().tolist() == [256, 256, 256]
        for function in functions:
            assert simulator.platform.get_function(function.name).memory_mb == 256.0

    def test_seeded_runs_reproduce(self, cpu_function):
        results = []
        for _ in range(2):
            simulator = FleetSimulator(
                [cpu_function], [ConstantTraffic(0.1)], FleetConfig(window_s=600.0, seed=6)
            )
            window = simulator.run_window()
            results.append((window.n_invocations.copy(), window.stats.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


class TestControllerGuardrails:
    def test_no_resize_before_warmup(self, trained_model, cpu_function):
        simulator = FleetSimulator(
            [cpu_function], [ConstantTraffic(0.2)], FleetConfig(window_s=600.0, seed=7)
        )
        controller = RightsizingController(
            SizelessPredictor(trained_model),
            ControllerConfig(min_windows=3, min_invocations=10),
        )
        for _ in range(2):  # windows 1-2: still under min_windows
            assert controller.step(simulator, simulator.run_window()) == []

    def test_huge_hysteresis_margin_blocks_all_resizes(self, trained_model):
        functions, traffic = _make_fleet(10, seed=31)
        simulator = FleetSimulator(functions, traffic, FleetConfig(window_s=7200.0, seed=8))
        controller = RightsizingController(
            SizelessPredictor(trained_model),
            ControllerConfig(min_windows=1, min_invocations=10, hysteresis_margin=1e9),
        )
        for _ in range(4):
            assert controller.step(simulator, simulator.run_window()) == []

    def test_state_size_mismatch_raises(self, trained_model, cpu_function):
        simulator = FleetSimulator(
            [cpu_function], [ConstantTraffic(0.2)], FleetConfig(window_s=600.0, seed=9)
        )
        controller = RightsizingController(SizelessPredictor(trained_model))
        window = simulator.run_window()
        controller.step(simulator, window)
        bad = _window(1, [256, 256], [1, 1], [0.1, 0.1], [10.0, 10.0])
        with pytest.raises(ConfigurationError):
            controller.step(simulator, bad)


class TestSavingsLedger:
    def test_baseline_freezes_on_first_resize(self):
        ledger = SavingsLedger(default_memory_mb=256)
        # Window 0: both functions at the default; fn0 costs 1.0/invocation.
        w0 = _window(0, [256, 256], [100, 50], [100.0, 25.0], [100.0, 40.0])
        event = ResizeEvent(
            window_index=0, function_index=0, function_name="fn0",
            from_memory_mb=256, to_memory_mb=512, reason="recommendation",
        )
        ledger.observe(w0, [event])
        # Window 1: fn0 now at 512 — cheaper and faster than its baseline.
        w1 = _window(1, [512, 256], [100, 50], [80.0, 25.0], [50.0, 40.0])
        ledger.observe(w1, [])
        assert ledger.total_actual_cost_usd == pytest.approx(230.0)
        # Baseline: window 0 realized + (fn0 at 1.0/inv * 100 inv + fn1 realized).
        assert ledger.total_baseline_cost_usd == pytest.approx(250.0)
        assert ledger.cost_savings_percent() == pytest.approx(100 * 20 / 250)
        # Speedup: fn0's 100 invocations at 50 ms instead of 100 ms.
        baseline_time = 100 * 100 + 50 * 40 + 100 * 100 + 50 * 40
        actual_time = 100 * 100 + 50 * 40 + 100 * 50 + 50 * 40
        assert ledger.speedup_percent() == pytest.approx(
            100 * (baseline_time - actual_time) / baseline_time
        )

    def test_rolled_back_function_contributes_zero_delta(self):
        """After a rollback to the default size the deployment IS the
        baseline, so later windows must not book savings or regressions even
        though the per-invocation realized numbers drift from the frozen
        baseline (e.g. a different cold-start mix)."""
        ledger = SavingsLedger(default_memory_mb=256)
        resize = ResizeEvent(0, 0, "fn0", 256, 2048, "recommendation")
        ledger.observe(_window(0, [256], [100], [100.0], [100.0]), [resize])
        rollback = ResizeEvent(1, 0, "fn0", 2048, 256, "rollback")
        ledger.observe(_window(1, [2048], [100], [150.0], [90.0]), [rollback])
        # Back at the default, but with realized numbers unlike the baseline.
        account = ledger.observe(_window(2, [256], [100], [120.0], [110.0]), [])
        assert account.baseline_cost_usd == account.actual_cost_usd
        assert account.baseline_time_weighted_ms == account.actual_time_weighted_ms
        # Only the window spent at 2048 MB contributes a delta.
        assert ledger.total_baseline_cost_usd == pytest.approx(100.0 + 100.0 + 120.0)
        assert ledger.total_actual_cost_usd == pytest.approx(100.0 + 150.0 + 120.0)

    def test_unresized_fleet_reports_zero_savings(self):
        ledger = SavingsLedger()
        for index in range(3):
            ledger.observe(
                _window(index, [256, 256], [10, 20], [1.0, 2.0], [30.0, 60.0]), []
            )
        assert ledger.cost_savings_percent() == 0.0
        assert ledger.speedup_percent() == 0.0
        assert ledger.n_resizes == 0

    def test_window_accounts_and_event_log(self):
        ledger = SavingsLedger()
        events = [
            ResizeEvent(0, 0, "fn0", 256, 1024, "recommendation", 0.1),
            ResizeEvent(0, 1, "fn1", 512, 256, "rollback"),
        ]
        account = ledger.observe(
            _window(0, [256, 512], [5, 5], [1.0, 1.0], [10.0, 10.0]), events
        )
        assert account.resizes == 1
        assert account.rollbacks == 1
        assert account.functions_resized == 1  # fn1 ran away from the default
        assert ledger.n_rollbacks == 1
        assert list(ledger.events) == events

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SavingsLedger(default_memory_mb=0)
        for value in (256.7, 256.0, float("nan"), True, "256"):
            with pytest.raises(ConfigurationError, match="default_memory_mb"):
                SavingsLedger(default_memory_mb=value)
        assert SavingsLedger(default_memory_mb=np.int64(512)).default_memory_mb == 512
        ledger = SavingsLedger()
        ledger.observe(_window(0, [256], [1], [0.1], [5.0]), [])
        with pytest.raises(ConfigurationError):
            ledger.observe(_window(1, [256, 256], [1, 1], [0.1, 0.1], [5.0, 5.0]), [])


class TestFleetService:
    def test_small_run_report_is_consistent(self, trained_model):
        functions, traffic = _make_fleet(16, seed=41)
        simulator = FleetSimulator(functions, traffic, FleetConfig(window_s=7200.0, seed=11))
        service = FleetRightsizingService(
            simulator,
            SizelessPredictor(trained_model),
            controller_config=ControllerConfig(min_windows=2, min_invocations=30),
        )
        report = service.run(6)
        assert report.n_windows == 6
        assert report.ledger.n_windows == 6
        assert report.n_resizes == report.ledger.n_resizes
        assert report.n_rollbacks == report.ledger.n_rollbacks
        assert sum(report.size_histogram().values()) == 16
        assert np.array_equal(report.final_memory_mb, simulator.current_memory_mb())
        # Every recommendation event moved a function away from 256; final
        # sizes of untouched functions remain at the default.
        touched = {event.function_index for event in report.events}
        untouched = set(range(16)) - touched
        assert all(report.final_memory_mb[i] == 256 for i in untouched)

    def test_run_rejects_zero_windows(self, trained_model, cpu_function):
        simulator = FleetSimulator([cpu_function], [ConstantTraffic(0.05)], FleetConfig(seed=12))
        service = FleetRightsizingService(simulator, SizelessPredictor(trained_model))
        with pytest.raises(ConfigurationError):
            service.run(0)
        for value in (2.5, 1.0, True, None):
            with pytest.raises(ConfigurationError, match="n_windows"):
                service.run(value)
        assert simulator.windows_run == 0
        assert service.run(np.int64(1)).n_windows == 1


#: The metrics an F4 predictor reads, in Table-1 order.
F4_METRICS = (
    "execution_time",
    "user_cpu_time",
    "system_cpu_time",
    "vol_context_switches",
    "fs_writes",
    "heap_used",
    "bytes_received",
)


class TestCarriedMetrics:
    """Windows reduce only the metrics the service's predictor reads."""

    def test_service_narrows_simulator_to_the_f4_metrics(self, trained_model):
        functions, traffic = _make_fleet(6, seed=51)
        simulator = FleetSimulator(functions, traffic, FleetConfig(window_s=3600.0, seed=13))
        predictor = SizelessPredictor(trained_model)
        assert predictor.required_metrics() == F4_METRICS
        FleetRightsizingService(simulator, predictor)
        assert simulator.metric_names == F4_METRICS
        window = simulator.run_window()
        assert window.metric_names == F4_METRICS
        assert window.stats.shape == (window.n_active, len(F4_METRICS), len(STAT_NAMES))

    def test_extended_predictor_also_carries_its_two_metrics(self, small_dataset):
        model = train_model(
            small_dataset,
            base_memory_mb=256,
            feature_names=EXTENDED_FEATURE_SET,
            network_config=NetworkConfig(n_layers=1, n_neurons=4, epochs=2, seed=0),
        )
        functions, traffic = _make_fleet(3, seed=52)
        simulator = FleetSimulator(functions, traffic, FleetConfig(seed=14))
        FleetRightsizingService(simulator, SizelessPredictor(model))
        extra = set(simulator.metric_names) - set(F4_METRICS)
        assert extra == {"invol_context_switches", "resident_set_size"}
        assert simulator.metric_names == tuple(
            name for name in METRIC_NAMES if name in set(F4_METRICS) | extra
        )

    def test_standalone_simulator_carries_all_metrics(self, cpu_function):
        simulator = FleetSimulator([cpu_function], [ConstantTraffic(0.05)], FleetConfig(seed=15))
        assert simulator.metric_names == METRIC_NAMES
        window = simulator.run_window()
        assert window.metric_names == METRIC_NAMES
        assert window.stats.shape == (1, len(METRIC_NAMES), len(STAT_NAMES))

    def test_carry_metrics_validates_and_orders(self, cpu_function):
        simulator = FleetSimulator([cpu_function], [ConstantTraffic(0.05)], FleetConfig(seed=16))
        with pytest.raises(ConfigurationError, match="unknown"):
            simulator.carry_metrics(["execution_time", "heap_size"])
        with pytest.raises(ConfigurationError, match="execution_time"):
            simulator.carry_metrics(["heap_used"])
        assert simulator.metric_names == METRIC_NAMES
        simulator.carry_metrics(reversed(F4_METRICS))
        assert simulator.metric_names == F4_METRICS

    def test_narrowed_rows_equal_the_full_rows(self):
        """On one seed the carried rows are the full window's rows, bit for bit."""
        functions, traffic = _make_fleet(24, seed=53)
        rows = [METRIC_NAMES.index(name) for name in F4_METRICS]
        full, narrow = (
            FleetSimulator(functions, traffic, FleetConfig(window_s=3600.0, seed=17))
            for _ in range(2)
        )
        narrow.carry_metrics(F4_METRICS)
        for _ in range(3):
            wide, thin = full.run_window(), narrow.run_window()
            assert thin.n_active > 0
            np.testing.assert_array_equal(thin.active, wide.active)
            np.testing.assert_array_equal(
                thin.stats.view(np.uint64), wide.stats[:, rows].view(np.uint64)
            )
            np.testing.assert_array_equal(thin.n_invocations, wide.n_invocations)
            np.testing.assert_array_equal(thin.cost_usd, wide.cost_usd)
            np.testing.assert_array_equal(
                thin.mean_execution_time_ms(), wide.mean_execution_time_ms()
            )

    def test_narrowed_service_decides_as_the_full_one(self, trained_model):
        """The same resizes and ledger with 7 carried metrics as with 25."""
        reports = []
        for widen in (False, True):
            functions, traffic = _make_fleet(16, seed=41)
            simulator = FleetSimulator(
                functions, traffic, FleetConfig(window_s=7200.0, seed=11)
            )
            service = FleetRightsizingService(
                simulator,
                SizelessPredictor(trained_model),
                controller_config=ControllerConfig(min_windows=2, min_invocations=30),
            )
            if widen:
                simulator.carry_metrics(METRIC_NAMES)
            reports.append(service.run(5))
        narrow, full = reports
        assert narrow.n_resizes > 0
        assert narrow.events == full.events
        np.testing.assert_array_equal(narrow.final_memory_mb, full.final_memory_mb)
        assert narrow.ledger.total_actual_cost_usd == full.ledger.total_actual_cost_usd
        assert narrow.ledger.speedup_percent() == full.ledger.speedup_percent()

    def test_controller_rejects_window_without_a_predictor_metric(
        self, trained_model, cpu_function
    ):
        simulator = FleetSimulator([cpu_function], [ConstantTraffic(0.2)], FleetConfig(seed=18))
        simulator.carry_metrics(["execution_time", "heap_used"])
        controller = RightsizingController(SizelessPredictor(trained_model))
        with pytest.raises(ConfigurationError, match="lack metrics"):
            controller.step(simulator, simulator.run_window())

    def test_controller_rejects_a_metric_axis_change(self, trained_model, cpu_function):
        simulator = FleetSimulator([cpu_function], [ConstantTraffic(0.2)], FleetConfig(seed=19))
        controller = RightsizingController(SizelessPredictor(trained_model))
        controller.step(simulator, simulator.run_window())
        simulator.carry_metrics(F4_METRICS)
        with pytest.raises(ConfigurationError, match="changed mid-run"):
            controller.step(simulator, simulator.run_window())


class TestFleetAcceptance:
    """The PR's acceptance run: 500 functions, 24 h of diurnal traffic."""

    N_FUNCTIONS = 500
    N_WINDOWS = 12          # 12 x 2 h = 24 virtual hours
    WINDOW_S = 7200.0

    @pytest.fixture(scope="class")
    def acceptance(self, trained_model):
        functions, traffic = _make_fleet(self.N_FUNCTIONS, seed=21)
        simulator = FleetSimulator(
            functions,
            traffic,
            FleetConfig(window_s=self.WINDOW_S, seed=23),
        )
        service = FleetRightsizingService(
            simulator,
            SizelessPredictor(trained_model),
            controller_config=ControllerConfig(
                tradeoff=0.75, min_windows=2, min_invocations=50
            ),
        )
        tracemalloc.start()
        try:
            report = service.run(self.N_WINDOWS)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return report, peak_bytes

    def test_compact_state_matches_dense_oracle(self, trained_model):
        """The acceptance fleet decides and accounts as the dense classes."""
        functions, traffic = _make_fleet(self.N_FUNCTIONS, seed=21)
        events = assert_matches_dense_oracle(
            functions,
            traffic,
            FleetConfig(window_s=self.WINDOW_S, seed=23),
            SizelessPredictor(trained_model),
            ControllerConfig(tradeoff=0.75, min_windows=2, min_invocations=50),
            self.N_WINDOWS,
        )
        reasons = [event.reason for event in events]
        assert reasons.count("recommendation") > 10
        assert reasons.count("rollback") > 0

    def test_covers_a_full_virtual_day(self, acceptance):
        report, _ = acceptance
        assert report.n_windows * self.WINDOW_S >= 24 * 3600
        assert report.ledger.total_invocations > 100_000

    def test_peak_memory_bounded_by_one_window(self, acceptance):
        """Peak traced memory stays within a small multiple of ONE window's
        fused columns — it must not scale with the number of windows.

        The fused mega-batch holds every invocation column of the current
        window at once (25 metric arrays plus the timing/noise/billing
        intermediates and the aggregation working set — roughly 130 float64
        slots per invocation); nothing beyond the current window may be
        retained.  The all-windows total would blow through this ceiling
        after a couple of windows, so the bound also proves per-window
        transience.
        """
        report, peak_bytes = acceptance
        per_window_invocations = report.ledger.total_invocations / self.N_WINDOWS
        window_column_bytes = per_window_invocations * 8 * 130
        assert peak_bytes < 2.5 * window_column_bytes

    def test_resize_rate_converges_after_warmup(self, acceptance):
        report, _ = acceptance
        per_window = report.ledger.resizes_per_window()
        total = sum(per_window)
        assert total > 0
        # Nothing moves during warm-up, the bulk moves right after it, and
        # the tail is quiet: the controller converges instead of thrashing.
        assert per_window[0] == 0
        tail = sum(per_window[self.N_WINDOWS // 2 :])
        assert tail <= max(2, 0.02 * total)

    def test_no_flip_flopping_under_hysteresis(self, acceptance):
        report, _ = acceptance
        per_function: dict[int, list[ResizeEvent]] = {}
        for event in report.events:
            per_function.setdefault(event.function_index, []).append(event)
        for events in per_function.values():
            # At most one recommendation plus its possible rollback.
            assert len(events) <= 2
            kinds = [event.reason for event in events]
            assert kinds in (["recommendation"], ["recommendation", "rollback"])
            # A size is never revisited except by the rollback itself.
            if len(events) == 2:
                assert events[1].to_memory_mb == events[0].from_memory_mb

    def test_rollbacks_stay_a_minority(self, acceptance):
        report, _ = acceptance
        assert report.n_rollbacks < report.n_resizes

    def test_realized_speedup_positive_at_recommended_tradeoff(self, acceptance):
        """Table 8 direction at t = 0.75: the rightsized fleet runs faster
        than the all-at-256 MB default deployment."""
        report, _ = acceptance
        assert report.ledger.speedup_percent() > 0.0
        # Cost moves far less than latency at t = 0.75 (Table 8: +- a few
        # percent); guard against pathological cost blow-ups.
        assert report.ledger.cost_savings_percent() > -15.0


class TestCompactStateParity:
    """Sparse fleets: the compact state rows equal the dense oracle.

    Functions replay traces confined to random windows (idle for several
    windows, first arrivals late in the run, or never active) or serve
    low-rate diurnal traffic, under random guardrails; a zero rollback
    tolerance makes rollbacks, and so pinned functions, common.
    """

    WINDOW_S = 1800.0
    N_WINDOWS = 8

    @staticmethod
    def _traffic(kind, windows, per_window, rate_rps, window_s):
        if kind == "diurnal":
            return DiurnalTraffic(mean_rate_rps=rate_rps, amplitude=0.6, phase_s=0.0)
        if not windows:
            return TraceTraffic(timestamps_s=(1e9,))  # idle for the whole run
        offsets = (np.arange(per_window) + 0.5) * window_s / per_window
        return TraceTraffic(
            timestamps_s=tuple(np.concatenate([w * window_s + offsets for w in sorted(windows)]))
        )

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        fleet=st.lists(
            st.tuples(
                st.sampled_from(("trace", "trace", "diurnal")),
                st.sets(st.integers(0, N_WINDOWS - 1), max_size=N_WINDOWS),
                st.integers(3, 40),
                st.floats(0.001, 0.02),
            ),
            min_size=1,
            max_size=12,
        ),
        n_idle=st.integers(0, 40),
        min_invocations=st.integers(1, 60),
        min_windows=st.integers(1, 3),
        cooldown_windows=st.integers(0, 3),
        evaluation_windows=st.integers(1, 3),
        rollback_tolerance=st.sampled_from((0.0, 0.05)),
        seed=st.integers(0, 2**16),
    )
    def test_sparse_fleet_matches_dense_oracle(
        self,
        trained_model,
        fleet,
        n_idle,
        min_invocations,
        min_windows,
        cooldown_windows,
        evaluation_windows,
        rollback_tolerance,
        seed,
    ):
        bases = SyntheticFunctionGenerator(
            config=GeneratorConfig(seed=seed, name_prefix="parity")
        ).generate(3)
        traffic = [
            self._traffic(kind, windows, per_window, rate, self.WINDOW_S)
            for kind, windows, per_window, rate in fleet
        ] + [TraceTraffic(timestamps_s=(1e9,))] * n_idle
        # Interleave the never-active functions among the others.
        order = np.random.default_rng(seed).permutation(len(traffic))
        traffic = [traffic[k] for k in order]
        functions = [
            bases[i % len(bases)].with_name(f"parity-{i}") for i in range(len(traffic))
        ]
        assert_matches_dense_oracle(
            functions,
            traffic,
            FleetConfig(window_s=self.WINDOW_S, seed=seed),
            SizelessPredictor(trained_model),
            ControllerConfig(
                min_invocations=min_invocations,
                min_windows=min_windows,
                cooldown_windows=cooldown_windows,
                evaluation_windows=evaluation_windows,
                rollback_tolerance=rollback_tolerance,
            ),
            self.N_WINDOWS,
        )
