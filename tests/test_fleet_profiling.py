"""Phase-timed window profiling: accumulation semantics and loop wiring.

The :class:`~repro.fleet.profiling.WindowPhaseProfiler` is always on — the
simulator books the window phases (traffic, seeding, group-build, execute,
reduce) and the rightsizing service completes the breakdown with decide and
ledger.  These tests pin the snapshot schema ``tools/bench_report.py``
publishes and verify every phase actually accumulates where it should.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predictor import SizelessPredictor
from repro.fleet import (
    ControllerConfig,
    FleetConfig,
    FleetRightsizingService,
    FleetSimulator,
)
from repro.fleet.profiling import WINDOW_PHASES, WindowPhaseProfiler
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import ConstantTraffic

WINDOW_S = 1800.0


def _fleet(n_functions=8, seed=61):
    functions = SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix="prof")
    ).generate(n_functions)
    traffic = [ConstantTraffic(rate_rps=0.02) for _ in range(n_functions)]
    return functions, traffic


class TestWindowPhaseProfiler:
    def test_accumulates_and_counts(self):
        profiler = WindowPhaseProfiler()
        profiler.add("traffic", 0.25)
        profiler.add("traffic", 0.25)
        profiler.add("execute", 1.5)
        profiler.count_window()
        profiler.count_window()
        assert profiler.seconds["traffic"] == pytest.approx(0.5)
        assert profiler.total_seconds() == pytest.approx(2.0)
        assert profiler.windows == 2

    def test_snapshot_schema_and_shares(self):
        profiler = WindowPhaseProfiler()
        profiler.add("traffic", 1.0)
        profiler.add("execute", 3.0)
        profiler.count_window()
        snapshot = profiler.snapshot()
        assert snapshot["windows"] == 1
        assert snapshot["total_seconds"] == pytest.approx(4.0)
        # Every canonical phase appears even when it never accumulated.
        assert set(WINDOW_PHASES) <= set(snapshot["phases"])
        assert snapshot["phases"]["execute"]["share"] == pytest.approx(0.75)
        assert snapshot["phases"]["traffic"]["ms_per_window"] == pytest.approx(1000.0)
        assert snapshot["phases"]["decide"]["seconds"] == 0.0

    def test_empty_snapshot_has_zero_shares(self):
        snapshot = WindowPhaseProfiler().snapshot()
        assert snapshot["windows"] == 0
        assert all(
            entry["share"] == 0.0 for entry in snapshot["phases"].values()
        )

    def test_custom_phases_accepted(self):
        profiler = WindowPhaseProfiler()
        profiler.add("custom-stage", 2.0)
        assert profiler.snapshot()["phases"]["custom-stage"]["seconds"] == 2.0

    def test_reset_zeroes_everything(self):
        profiler = WindowPhaseProfiler()
        profiler.add("execute", 1.0)
        profiler.count_window()
        profiler.reset()
        assert profiler.total_seconds() == 0.0
        assert profiler.windows == 0


class TestSimulatorWiring:
    def test_run_window_books_the_simulator_phases(self):
        functions, traffic = _fleet()
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=5)
        )
        for _ in range(3):
            simulator.run_window()
        profiler = simulator.profiler
        assert profiler.windows == 3
        for phase in ("traffic", "seeding", "group-build", "execute", "reduce"):
            assert profiler.seconds[phase] > 0.0, phase
        # The service stages have not run.
        assert profiler.seconds["decide"] == 0.0
        assert profiler.seconds["ledger"] == 0.0

    def test_idle_window_still_counts(self):
        functions, _ = _fleet(4)
        from repro.workloads.traffic import TraceTraffic

        traffic = [TraceTraffic(timestamps_s=(1e9,)) for _ in range(4)]
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=5)
        )
        simulator.run_window()
        assert simulator.profiler.windows == 1
        assert simulator.profiler.seconds["traffic"] > 0.0
        assert simulator.profiler.seconds["execute"] == 0.0


class TestServiceWiring:
    def test_service_completes_decide_and_ledger(self, trained_model):
        functions, traffic = _fleet(10)
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=5)
        )
        service = FleetRightsizingService(
            simulator,
            SizelessPredictor(trained_model),
            controller_config=ControllerConfig(min_windows=2, min_invocations=10),
        )
        service.run(4)
        profiler = simulator.profiler
        assert profiler.windows == 4
        assert profiler.seconds["decide"] > 0.0
        assert profiler.seconds["ledger"] > 0.0
        snapshot = profiler.snapshot()
        shares = [entry["share"] for entry in snapshot["phases"].values()]
        assert np.isclose(sum(shares), 1.0, atol=0.01)
