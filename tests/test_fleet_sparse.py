"""Active-rows windows and keyed seeding.

Contracts of the fleet-scale window body:

- a window holds rows only for its active functions, across mid-run
  resizes;
- zero-arrival functions never reach the execution engine (they have no
  group in the window's block) and never cost an execution stream.

The kernel-vs-looped window parity lives in ``tests/test_engine_kernel.py``.
"""

from __future__ import annotations

import numpy as np

from repro.fleet import FleetConfig, FleetSimulator
from repro.simulation.seeding import STREAM_EXECUTION, STREAM_TRAFFIC
from repro.workloads.traffic import ConstantTraffic, TraceTraffic

WINDOW_S = 1800.0


def _run_windows(functions, traffic, config, n_windows=4, resizes=()):
    """Run windows, applying ``{window_index: [(function, size)]}`` resizes."""
    simulator = FleetSimulator(functions, traffic, config=config)
    resizes = dict(resizes)
    windows = []
    for index in range(n_windows):
        windows.append(simulator.run_window())
        for function_index, size in resizes.get(index, ()):
            simulator.resize(function_index, size)
    return simulator, windows


class TestSparseDenseParity:
    """A window holds rows only for its active functions."""

    RESIZES = {1: [(0, 512), (3, 1024)], 2: [(0, 256)]}

    def test_sparse_window_shape_contract(self, mixed_fleet):
        functions, traffic = mixed_fleet(18)
        simulator, windows = _run_windows(
            functions,
            traffic,
            FleetConfig(window_s=WINDOW_S, seed=9),
            resizes=self.RESIZES,
        )
        idle = np.arange(5, 18, 6)  # the never-firing trace functions
        for window in windows:
            assert window.n_functions == 18
            assert 0 < window.n_active < 18
            assert np.array_equal(window.active, np.unique(window.active))
            assert not np.isin(idle, window.active).any()
            for column in (
                window.stats,
                window.n_invocations,
                window.n_arrivals,
                window.n_cold_starts,
                window.cost_usd,
                window.mean_execution_time_ms(),
            ):
                assert column.shape[0] == window.n_active
            assert np.all(window.n_arrivals > 0)
        # memory_mb stays dense and follows the resizes.
        assert [int(w.memory_mb[0]) for w in windows] == [256, 256, 512, 256]
        assert [int(w.memory_mb[3]) for w in windows] == [256, 256, 1024, 1024]
        assert np.array_equal(windows[-1].memory_mb, simulator.current_memory_mb())


class TestZeroArrivalFunctionsSkipEngine:
    def test_no_group_emitted_for_idle_functions(self, monkeypatch, mixed_fleet):
        functions, traffic = mixed_fleet(18)
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=9)
        )
        seen: list[list[str]] = []
        original = type(simulator.backend).run_grouped

        def spy(backend_self, platform, block, *args):
            seen.append(list(block.names))
            return original(backend_self, platform, block, *args)

        monkeypatch.setattr(type(simulator.backend), "run_grouped", spy)
        window = simulator.run_window()
        assert len(seen) == 1
        assert seen[0] == [functions[int(i)].name for i in window.active]
        assert len(seen[0]) < 18

    def test_fully_idle_window_never_calls_engine(self, monkeypatch, mixed_fleet):
        functions, _ = mixed_fleet(6)
        traffic = [TraceTraffic(timestamps_s=(1e9,)) for _ in range(6)]
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=9)
        )

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("engine invoked for an all-idle window")

        monkeypatch.setattr(type(simulator.backend), "run_grouped", boom)
        window = simulator.run_window()
        assert window.n_active == 0
        assert window.total_invocations == 0
        assert window.stats.shape[0] == 0
        assert window.n_functions == 6


class TestKeyedSeedingCost:
    """Key derivation must be O(active): idle functions never cost a key.

    Regression guard for the former >=25%-active heuristic, which silently
    spawned the whole fleet's execution streams once a quarter of it was
    active in a window.
    """

    def _spy_keyed(self, monkeypatch):
        import repro.fleet.simulator as simulator_module

        calls: list[tuple[int, np.ndarray]] = []
        real = simulator_module.noise_keys

        def wrapper(base_seed, stream, *coordinates):
            # The function indices are the last, array coordinate.
            calls.append((stream, np.asarray(coordinates[-1]).copy()))
            return real(base_seed, stream, *coordinates)

        monkeypatch.setattr(simulator_module, "noise_keys", wrapper)
        return calls

    def test_execution_seeding_covers_exactly_the_active_set(
        self, monkeypatch, mixed_fleet
    ):
        functions, traffic = mixed_fleet(18)
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=9)
        )
        calls = self._spy_keyed(monkeypatch)
        window = simulator.run_window()
        assert 0 < window.n_active < len(functions)
        execution_calls = [idx for stream, idx in calls if stream == STREAM_EXECUTION]
        assert len(execution_calls) == 1
        np.testing.assert_array_equal(execution_calls[0], window.active)
        # Traffic sampling draws the fleet from ONE window stream: no
        # per-function traffic streams are derived at all.
        assert not any(stream == STREAM_TRAFFIC for stream, _ in calls)

    def test_no_full_fleet_derivation_when_most_functions_active(
        self, monkeypatch, mixed_fleet
    ):
        n = 12
        functions, _ = mixed_fleet(n)
        traffic = [ConstantTraffic(rate_rps=0.05) for _ in range(n - 1)] + [
            TraceTraffic(timestamps_s=(1e9,))
        ]
        simulator = FleetSimulator(
            functions, traffic, config=FleetConfig(window_s=WINDOW_S, seed=10)
        )
        calls = self._spy_keyed(monkeypatch)
        window = simulator.run_window()
        # The scenario really is in the former heuristic's spawn-everything
        # regime, and the idle trace function stays excluded regardless.
        assert window.n_active * 4 >= n
        assert window.n_active < n
        execution_calls = [idx for stream, idx in calls if stream == STREAM_EXECUTION]
        assert len(execution_calls) == 1
        np.testing.assert_array_equal(execution_calls[0], window.active)
