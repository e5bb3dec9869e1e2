"""The fleet rightsizing service: simulate, observe, decide, account.

One :class:`FleetRightsizingService` wires the three fleet components into
the continuous loop of the paper's online phase, extended from one function
to a whole production fleet::

    traffic ──> FleetSimulator.run_window() ──> FleetWindow (columnar stats)
                      ▲                                │
                      │ resize()                       ▼
                RightsizingController.step() <── batch predict + guardrails
                      │
                      ▼
                SavingsLedger.observe() ──> realized savings vs default

Each iteration holds only one window's arrays, so a multi-day run is
bounded by one window's statistics plus the fleet's deployment state
(asserted by ``benchmarks/test_bench_fleet.py``).  A window holds rows only
for its active functions, and the controller's observation merge and the
ledger touch only those rows, so at fleet scale (10^5–10^6 mostly-idle
functions) their per-window cost follows the *active* function count.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.core.predictor import SizelessPredictor
from repro.fleet.controller import ControllerConfig, ResizeEvent, RightsizingController
from repro.fleet.ledger import SavingsLedger
from repro.fleet.simulator import FleetSimulator


@dataclass(frozen=True)
class FleetRunReport:
    """Outcome of one service run.

    Attributes
    ----------
    n_windows:
        Windows simulated by the run.
    final_memory_mb:
        Per-function deployed sizes after the last window.
    events:
        Every deployment change, in application order.
    ledger:
        The savings ledger accumulated over the run (realized savings,
        per-window accounts, convergence counters).
    """

    n_windows: int
    final_memory_mb: np.ndarray
    events: tuple[ResizeEvent, ...]
    ledger: SavingsLedger

    @property
    def n_resizes(self) -> int:
        """Recommendation-driven resizes applied during the run."""
        return sum(1 for event in self.events if event.reason == "recommendation")

    @property
    def n_rollbacks(self) -> int:
        """Guardrail rollbacks applied during the run."""
        return sum(1 for event in self.events if event.reason == "rollback")

    def size_histogram(self) -> dict[int, int]:
        """Final deployment sizes and how many functions run at each."""
        sizes, counts = np.unique(self.final_memory_mb, return_counts=True)
        return {int(size): int(count) for size, count in zip(sizes, counts)}


class FleetRightsizingService:
    """Runs the continuous observe → decide → account loop over a fleet."""

    def __init__(
        self,
        simulator: FleetSimulator,
        predictor: SizelessPredictor,
        controller_config: ControllerConfig | None = None,
        ledger: SavingsLedger | None = None,
    ) -> None:
        """Wire a simulator, a trained predictor and the accounting ledger.

        Parameters
        ----------
        simulator:
            The deployed fleet under traffic.
        predictor:
            Trained online-phase predictor driving the recommendations.
        controller_config:
            Guardrail configuration forwarded to the controller.
        ledger:
            Optional pre-existing ledger (defaults to a fresh one measuring
            against the simulator's default size).
        """
        self.simulator = simulator
        self.controller = RightsizingController(predictor, config=controller_config)
        self.ledger = (
            ledger
            if ledger is not None
            else SavingsLedger(default_memory_mb=simulator.config.default_memory_mb)
        )

    def run_window(self) -> tuple[list[ResizeEvent], object]:
        """Advance the loop by one window; returns (events, window account).

        The controller and ledger stages book their wall time into the
        simulator's :class:`~repro.fleet.profiling.WindowPhaseProfiler`
        (phases ``decide`` and ``ledger``), completing the per-window
        phase breakdown the simulator starts.
        """
        profiler = self.simulator.profiler
        window = self.simulator.run_window()
        tick = perf_counter()
        events = self.controller.step(self.simulator, window)
        profiler.add("decide", perf_counter() - tick)
        tick = perf_counter()
        account = self.ledger.observe(window, events)
        profiler.add("ledger", perf_counter() - tick)
        return events, account

    def run(
        self,
        n_windows: int,
        progress_callback: Callable[[int, int, object], None] | None = None,
    ) -> FleetRunReport:
        """Run the service loop for ``n_windows`` monitoring windows.

        Parameters
        ----------
        n_windows:
            Number of windows to simulate.
        progress_callback:
            Optional ``callback(done, total, window_account)`` invoked after
            each window.
        """
        if n_windows < 1:
            raise ConfigurationError("n_windows must be at least 1")
        all_events: list[ResizeEvent] = []
        for done in range(n_windows):
            events, account = self.run_window()
            all_events.extend(events)
            if progress_callback is not None:
                progress_callback(done + 1, n_windows, account)
        return FleetRunReport(
            n_windows=n_windows,
            final_memory_mb=self.simulator.current_memory_mb(),
            events=tuple(all_events),
            ledger=self.ledger,
        )
