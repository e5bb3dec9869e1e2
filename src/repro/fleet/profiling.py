"""Near-zero-overhead phase timing of the fleet window loop.

At fleet scale the execution kernels are so fast that wall time is dominated
by everything *around* them — stream derivation, traffic sampling, group
construction, reductions, controller decisions.  To keep that split a
tracked first-class metric (instead of a one-off profiling session), the
fleet simulator and the rightsizing service accumulate per-phase wall time
into a :class:`WindowPhaseProfiler`: two ``perf_counter`` calls per phase
per window (~100 ns each), so profiling stays always-on.

``tools/bench_report.py`` surfaces the accumulated breakdown as the
``phases`` section of ``BENCH_fleet.json`` (schema in
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

#: Phase names of one observe → decide loop iteration, in execution order.
#: The simulator fills the first five (:meth:`~repro.fleet.simulator.
#: FleetSimulator.run_window`), the service the last two.
WINDOW_PHASES = (
    "traffic",      # fleet arrival sampling (one fused draw per window)
    "seeding",      # execution-noise seed words (generators are built when drawn)
    "group-build",  # the active groups' block: deployments by row, flat arrivals
    "execute",      # engine run_grouped over the active groups
    "reduce",       # stat reductions, window assembly
    "decide",       # controller step: predict, guardrails, resizes
    "ledger",       # savings accounting
)


class WindowPhaseProfiler:
    """Accumulates per-phase wall seconds across fleet windows.

    Phases outside :data:`WINDOW_PHASES` are accepted too (callers may add
    their own), but the canonical set always appears in :meth:`snapshot`
    so reports are comparable across runs.
    """

    __slots__ = ("seconds", "windows")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {phase: 0.0 for phase in WINDOW_PHASES}
        self.windows = 0

    def add(self, phase: str, seconds: float) -> None:
        """Add wall seconds to one phase's total."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds

    def count_window(self) -> None:
        """Mark one completed window (denominator of per-window means)."""
        self.windows += 1

    def reset(self) -> None:
        """Zero all totals and the window count."""
        for phase in list(self.seconds):
            self.seconds[phase] = 0.0
        self.windows = 0

    def total_seconds(self) -> float:
        """Sum of all phase totals."""
        return float(sum(self.seconds.values()))

    def snapshot(self) -> dict:
        """Machine-readable breakdown: totals, per-window means and shares.

        Returns a dict with ``windows``, ``total_seconds`` and one entry per
        phase carrying ``seconds``, ``ms_per_window`` and ``share`` (fraction
        of the profiled total; 0.0 when nothing was profiled yet).
        """
        total = self.total_seconds()
        windows = max(self.windows, 1)
        return {
            "windows": self.windows,
            "total_seconds": round(total, 4),
            "phases": {
                phase: {
                    "seconds": round(seconds, 4),
                    "ms_per_window": round(seconds * 1e3 / windows, 3),
                    "share": round(seconds / total, 4) if total > 0 else 0.0,
                }
                for phase, seconds in self.seconds.items()
            },
        }
