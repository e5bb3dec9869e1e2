"""Longitudinal savings accounting against the default deployment.

Paper Table 8 quantifies the benefit of the approach as a one-shot
comparison: cost and execution time at the recommended sizes versus the
default deployment.  A running fleet needs the longitudinal version of that
number — *realized* savings accumulated window over window, under the
traffic that actually arrived, including the windows a misprediction was
live before the controller rolled it back.

:class:`SavingsLedger` keeps those books.  For every function it freezes a
per-invocation baseline (mean execution time and billed cost) from the
traffic observed at the default size before the first resize; afterwards each
window's realized cost and latency are compared against what the same
invocations would have cost at the baseline.  Functions that were never
resized contribute zero delta by construction, mirroring Table 8's
"all functions" averaging.  Per-window totals, resize/rollback counts and
the fleet-wide realized savings/speedup percentages are exposed for
convergence analysis and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, require_count
from repro.fleet.controller import FunctionRows, ResizeEvent
from repro.fleet.simulator import FleetWindow


@dataclass(frozen=True)
class WindowAccount:
    """Per-window totals recorded by the ledger.

    Attributes
    ----------
    window_index / start_s / end_s:
        The accounted window.
    invocations:
        Fleet-wide invocations of the window.
    actual_cost_usd:
        Realized billed cost of the window.
    baseline_cost_usd:
        Cost the same invocations would have incurred at each function's
        frozen default-size baseline (realized cost for unfrozen functions).
    actual_time_weighted_ms / baseline_time_weighted_ms:
        Invocation-weighted execution-time sums, realized vs baseline.
    resizes / rollbacks:
        Deployment changes applied after the window.
    functions_resized:
        Functions deployed away from the default size during the window.
    """

    window_index: int
    start_s: float
    end_s: float
    invocations: int
    actual_cost_usd: float
    baseline_cost_usd: float
    actual_time_weighted_ms: float
    baseline_time_weighted_ms: float
    resizes: int
    rollbacks: int
    functions_resized: int


class SavingsLedger:
    """Accounts realized fleet cost and latency against the default deployment.

    Baselines are kept in :class:`~repro.fleet.controller.FunctionRows`,
    one row per function that has appeared in some window's ``active``, as
    in the controller: a function without traffic has no baseline to
    refine or bill.
    """

    def __init__(self, default_memory_mb: int = 256) -> None:
        """Create an empty ledger.

        Parameters
        ----------
        default_memory_mb:
            The default deployment size savings are measured against (the
            size every fleet function starts at), an integer number of MB.
        """
        require_count(default_memory_mb, "default_memory_mb", 1)
        self.default_memory_mb = int(default_memory_mb)
        self.windows: list[WindowAccount] = []
        self.events: list[ResizeEvent] = []
        self._n: int | None = None

    def _ensure_state(self, n_functions: int) -> None:
        """Allocate the row map on the first window."""
        if self._n is not None:
            if n_functions != self._n:
                raise ConfigurationError(
                    f"ledger was sized for {self._n} functions, got {n_functions}"
                )
            return
        self._n = n_functions
        # Running default-size observation, used to freeze the baseline when
        # a function first leaves the default size.
        self._rows = FunctionRows(
            n_functions,
            default_cost=(float, ()),
            default_time_weighted=(float, ()),
            default_count=(np.int64, ()),
            frozen=(bool, ()),
            baseline_cost_per_inv=(float, ()),
            baseline_time_ms=(float, ()),
        )

    # ---------------------------------------------------------------- observe
    def observe(self, window: FleetWindow, events: list[ResizeEvent]) -> WindowAccount:
        """Account one window and the deployment changes that followed it.

        Only the window's active rows are touched: idle functions have no
        row, so they refine no baseline and add nothing to any windowed
        sum.  ``functions_resized`` still scans the window's dense
        ``memory_mb`` (deployment state is a fleet-wide fact, one comparison
        per function).  The only loop is over the (few) resize events, which
        freeze baselines.
        """
        self._ensure_state(window.n_functions)
        state = self._rows
        rows = state.rows_of(window.active)
        counts = window.n_invocations.astype(float)
        mean_time = window.mean_execution_time_ms()
        at_default = window.memory_mb[window.active] == self.default_memory_mb

        # Keep refining the baseline while a function still runs (and has
        # always run) at the default size.
        refine = at_default & ~state.frozen[rows]
        r = rows[refine]
        state.default_cost[r] += window.cost_usd[refine]
        state.default_time_weighted[r] += (mean_time * counts)[refine]
        state.default_count[r] += window.n_invocations[refine]

        # Freeze baselines for functions resized away for the first time; a
        # function without a row never ran at the default size.
        for event in events:
            row = state.row[event.function_index]
            if row < 0 or state.frozen[row] or state.default_count[row] == 0:
                continue
            state.baseline_cost_per_inv[row] = (
                state.default_cost[row] / state.default_count[row]
            )
            state.baseline_time_ms[row] = (
                state.default_time_weighted[row] / state.default_count[row]
            )
            state.frozen[row] = True

        # Baseline view of this window: functions deployed AWAY from the
        # default are billed at their frozen per-invocation baseline;
        # everything running at the default size (including functions rolled
        # back to it) is billed at realized numbers — their deployment is
        # the baseline, so their delta is zero by construction.
        use_baseline = state.frozen[rows] & ~at_default
        baseline_cost = np.where(
            use_baseline, state.baseline_cost_per_inv[rows] * counts, window.cost_usd
        )
        baseline_time_weighted = np.where(
            use_baseline, state.baseline_time_ms[rows] * counts, mean_time * counts
        )
        account = WindowAccount(
            window_index=window.index,
            start_s=window.start_s,
            end_s=window.end_s,
            invocations=window.total_invocations,
            actual_cost_usd=float(np.sum(window.cost_usd)),
            baseline_cost_usd=float(np.sum(baseline_cost)),
            actual_time_weighted_ms=float(np.sum(mean_time * counts)),
            baseline_time_weighted_ms=float(np.sum(baseline_time_weighted)),
            resizes=sum(1 for e in events if e.reason == "recommendation"),
            rollbacks=sum(1 for e in events if e.reason == "rollback"),
            functions_resized=int(
                np.count_nonzero(window.memory_mb != self.default_memory_mb)
            ),
        )
        self.windows.append(account)
        self.events.extend(events)
        return account

    # ----------------------------------------------------------------- totals
    @property
    def n_windows(self) -> int:
        """Number of accounted windows."""
        return len(self.windows)

    @property
    def n_resizes(self) -> int:
        """Total recommendation-driven resizes."""
        return sum(account.resizes for account in self.windows)

    @property
    def n_rollbacks(self) -> int:
        """Total guardrail rollbacks."""
        return sum(account.rollbacks for account in self.windows)

    @property
    def total_invocations(self) -> int:
        """Fleet-wide invocations accounted so far."""
        return sum(account.invocations for account in self.windows)

    @property
    def total_actual_cost_usd(self) -> float:
        """Realized billed cost across all accounted windows."""
        return float(sum(account.actual_cost_usd for account in self.windows))

    @property
    def total_baseline_cost_usd(self) -> float:
        """Cost of the same traffic under the default deployment."""
        return float(sum(account.baseline_cost_usd for account in self.windows))

    def cost_savings_percent(self) -> float:
        """Realized cost savings vs the default deployment (Table 8 sign).

        Positive means the rightsized fleet was cheaper.
        """
        baseline = self.total_baseline_cost_usd
        if baseline <= 0:
            return 0.0
        return 100.0 * (baseline - self.total_actual_cost_usd) / baseline

    def speedup_percent(self) -> float:
        """Realized invocation-weighted speedup vs the default deployment.

        Positive means invocations ran faster than they would have at the
        default size (Table 8 reports 39.7 % at t = 0.75).
        """
        baseline = float(
            sum(account.baseline_time_weighted_ms for account in self.windows)
        )
        if baseline <= 0:
            return 0.0
        actual = float(sum(account.actual_time_weighted_ms for account in self.windows))
        return 100.0 * (baseline - actual) / baseline

    def resizes_per_window(self) -> list[int]:
        """Recommendation-driven resize count of each window (convergence)."""
        return [account.resizes for account in self.windows]

    def summary(self) -> dict[str, float]:
        """Headline numbers for reports and experiment rows."""
        return {
            "n_windows": float(self.n_windows),
            "total_invocations": float(self.total_invocations),
            "n_resizes": float(self.n_resizes),
            "n_rollbacks": float(self.n_rollbacks),
            "actual_cost_usd": self.total_actual_cost_usd,
            "baseline_cost_usd": self.total_baseline_cost_usd,
            "cost_savings_percent": self.cost_savings_percent(),
            "speedup_percent": self.speedup_percent(),
        }
