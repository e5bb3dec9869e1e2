"""The dense rightsizing state: the compact controller's and ledger's bit-exact oracle.

:class:`DenseRightsizingController` and :class:`DenseSavingsLedger` keep one
state row per fleet function, allocated at the first window, and scan the
whole fleet where the compact classes of ``repro.fleet`` touch only the
rows of functions that have had traffic: a dense ``(n_functions, metrics,
stats)`` accumulator, a fleet-length eligibility mask per base size, a
cooldown pass over every function and ``simulator.current_memory_mb()``
copies.  Their per-row expressions are the ones ``src/`` keeps, so the
parity tests that run one service with each pair (``tests/test_fleet.py``)
compare events, final sizes and window accounts for equality.  The merge
they call is :func:`merge_stat_blocks` below, the pooled formulas over
every row with the one-sided rows overwritten afterwards, so the same tests
also hold the compact merge of ``repro.monitoring.aggregation`` to it.
``tests/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictor import SizelessPredictor
from repro.dataset.table import MeasurementTable
from repro.errors import ConfigurationError
from repro.fleet.controller import ControllerConfig, ResizeEvent
from repro.fleet.ledger import WindowAccount
from repro.fleet.simulator import FleetSimulator, FleetWindow
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES

_MEAN = STAT_NAMES.index("mean")


def merge_stat_blocks(stats_a, counts_a, stats_b, counts_b):
    """Pool two batches of stat blocks, evaluating the formulas on every row.

    Rows populated on one side only are then overwritten with that side,
    and rows empty on both sides with zeros.
    """
    mean_col = STAT_NAMES.index("mean")
    std_col = STAT_NAMES.index("std")
    cv_col = STAT_NAMES.index("cv")
    counts_a = np.asarray(counts_a, dtype=np.int64)
    counts_b = np.asarray(counts_b, dtype=np.int64)
    ca = counts_a.astype(float)[:, None, None]
    cb = counts_b.astype(float)[:, None, None]
    total = ca + cb
    safe_total = np.where(total > 0, total, 1.0)

    mean_a, mean_b = stats_a[..., mean_col], stats_b[..., mean_col]
    std_a, std_b = stats_a[..., std_col], stats_b[..., std_col]
    ca2, cb2, total2 = ca[..., 0], cb[..., 0], safe_total[..., 0]
    mean = (ca2 * mean_a + cb2 * mean_b) / total2
    second_moment = ca2 * (std_a**2 + mean_a**2) + cb2 * (std_b**2 + mean_b**2)
    variance = np.maximum(second_moment / total2 - mean**2, 0.0)
    std = np.sqrt(variance)
    safe = np.abs(mean) > 1e-12
    cv = np.divide(std, mean, out=np.zeros_like(std), where=safe)

    merged = np.zeros_like(stats_a)
    merged[..., mean_col] = mean
    merged[..., std_col] = std
    merged[..., cv_col] = cv
    merged[counts_a == 0] = stats_b[counts_a == 0]
    merged[counts_b == 0] = stats_a[counts_b == 0]
    merged[(counts_a == 0) & (counts_b == 0)] = 0.0
    return merged, counts_a + counts_b


class DenseRightsizingController:
    """Drives continuous fleet rightsizing decisions from window statistics."""

    def __init__(
        self,
        predictor: SizelessPredictor,
        config: ControllerConfig | None = None,
    ) -> None:
        """Bind the controller to a trained predictor.

        Parameters
        ----------
        predictor:
            The online-phase predictor; its registered base sizes define
            which deployed sizes the controller can decide from.
        config:
            Guardrail configuration (defaults to :class:`ControllerConfig`).
        """
        self.predictor = predictor
        self.config = config if config is not None else ControllerConfig()
        self._n: int | None = None

    # ------------------------------------------------------------------ state
    def _ensure_state(self, window: FleetWindow) -> None:
        """Allocate per-function state arrays on the first window.

        The accumulator's metric axis is the first window's
        ``metric_names``; later windows must carry the same axis.
        """
        n_functions = window.n_functions
        if self._n is not None:
            if n_functions != self._n:
                raise ConfigurationError(
                    f"controller was sized for {self._n} functions, got {n_functions}"
                )
            if window.metric_names != self._metric_names:
                raise ConfigurationError(
                    f"window metrics changed mid-run: {list(window.metric_names)} "
                    f"after {list(self._metric_names)}"
                )
            return
        missing = set(self.predictor.required_metrics()).difference(window.metric_names)
        if missing:
            raise ConfigurationError(
                f"windows lack metrics the predictor reads: {sorted(missing)}"
            )
        self._n = n_functions
        self._metric_names = window.metric_names
        # Table-1 rows of the carried metrics, for the predictor's table.
        self._table_rows = [METRIC_NAMES.index(name) for name in window.metric_names]
        self._time_row = window.metric_names.index("execution_time")
        shape = (n_functions, len(window.metric_names), len(STAT_NAMES))
        self._acc_stats = np.zeros(shape, dtype=float)
        self._acc_counts = np.zeros(n_functions, dtype=np.int64)
        self._acc_cost = np.zeros(n_functions, dtype=float)
        self._windows_observed = np.zeros(n_functions, dtype=np.int64)
        self._cooldown = np.zeros(n_functions, dtype=np.int64)
        self._pinned = np.zeros(n_functions, dtype=bool)
        self._eval_active = np.zeros(n_functions, dtype=bool)
        self._eval_windows_left = np.zeros(n_functions, dtype=np.int64)
        self._eval_prev_size = np.zeros(n_functions, dtype=int)
        self._eval_prev_time_ms = np.zeros(n_functions, dtype=float)
        self._eval_prev_cost_usd = np.zeros(n_functions, dtype=float)
        self._abandoned: dict[int, set[int]] = {}

    def _reset_observation(self, indices: np.ndarray) -> None:
        """Clear the accumulators of functions whose size just changed."""
        self._acc_stats[indices] = 0.0
        self._acc_counts[indices] = 0
        self._acc_cost[indices] = 0.0
        self._windows_observed[indices] = 0

    # ---------------------------------------------------------------- observe
    def _observe(self, window: FleetWindow) -> None:
        """Merge one window's active rows into the running accumulators.

        Idle functions have no row and keep their accumulators untouched, so
        the merge costs O(active) instead of O(fleet).
        """
        rows = window.active
        merged, counts = merge_stat_blocks(
            self._acc_stats[rows],
            self._acc_counts[rows],
            window.stats,
            window.n_invocations,
        )
        self._acc_stats[rows] = merged
        self._acc_counts[rows] = counts
        self._acc_cost[rows] += window.cost_usd
        self._windows_observed[rows] += window.n_invocations > 0
        np.maximum(self._cooldown - 1, 0, out=self._cooldown)

    # --------------------------------------------------------------- rollback
    def _check_rollbacks(
        self, simulator: FleetSimulator, window: FleetWindow
    ) -> list[ResizeEvent]:
        """Evaluate resized functions and revert realized regressions."""
        events: list[ResizeEvent] = []
        if not np.any(self._eval_active):
            return events
        self._eval_windows_left[self._eval_active] -= 1
        due = np.flatnonzero(
            self._eval_active & (self._eval_windows_left <= 0) & (self._acc_counts > 0)
        )
        t = self.config.tradeoff
        current = simulator.current_memory_mb()
        for i in due:
            realized_time = self._acc_stats[i, self._time_row, _MEAN]
            realized_cost = self._acc_cost[i] / self._acc_counts[i]
            prev_time = self._eval_prev_time_ms[i]
            prev_cost = self._eval_prev_cost_usd[i]
            self._eval_active[i] = False
            if prev_time <= 0 or prev_cost <= 0:
                continue
            score = t * (realized_cost / prev_cost) + (1.0 - t) * (realized_time / prev_time)
            if score > 1.0 + self.config.rollback_tolerance:
                previous = int(self._eval_prev_size[i])
                self._abandoned.setdefault(int(i), set()).add(int(current[i]))
                simulator.resize(int(i), previous)
                self._pinned[i] = True
                self._reset_observation(np.array([i]))
                events.append(
                    ResizeEvent(
                        window_index=window.index,
                        function_index=int(i),
                        function_name=simulator.functions[int(i)].name,
                        from_memory_mb=int(current[i]),
                        to_memory_mb=previous,
                        reason="rollback",
                    )
                )
        return events

    # ----------------------------------------------------------------- decide
    def _eligible(self, current: np.ndarray, base: int) -> np.ndarray:
        """Indices of functions ready for a decision at one base size."""
        mask = (
            (current == base)
            & ~self._pinned
            & ~self._eval_active
            & (self._cooldown == 0)
            & (self._acc_counts >= self.config.min_invocations)
            & (self._windows_observed >= self.config.min_windows)
            & (self._acc_stats[:, self._time_row, _MEAN] > 0)
        )
        return np.flatnonzero(mask)

    def _stats_table(self, simulator: FleetSimulator, indices: np.ndarray, base: int):
        """Wrap accumulated stats of a cohort into a single-size table.

        The table keeps the Table-1 metric axis: the carried rows are
        scattered into a zero block, and the metrics no window carries stay
        zero (the predictor never reads them).
        """
        values = np.zeros((indices.shape[0], 1, len(METRIC_NAMES), len(STAT_NAMES)))
        values[:, 0, self._table_rows] = self._acc_stats[indices]
        return MeasurementTable(
            function_names=tuple(simulator.functions[i].name for i in indices),
            applications=tuple(simulator.functions[i].application for i in indices),
            segments=tuple(simulator.functions[i].segments for i in indices),
            memory_sizes_mb=(int(base),),
            values=values,
            n_invocations=self._acc_counts[indices][:, None],
            description="fleet monitoring accumulator",
        )

    def _decide(
        self, simulator: FleetSimulator, window: FleetWindow
    ) -> list[ResizeEvent]:
        """Batch-predict eligible cohorts and apply guarded resizes."""
        events: list[ResizeEvent] = []
        current = simulator.current_memory_mb()
        fleet_sizes = set(int(s) for s in simulator.config.memory_sizes_mb)
        for base in self.predictor.base_memory_sizes_mb:
            indices = self._eligible(current, base)
            if indices.size == 0:
                continue
            table = self._stats_table(simulator, indices, base)
            _, recommendation = self.predictor.recommend_table(
                table, base_memory_mb=base, tradeoff=self.config.tradeoff
            )
            sizes = recommendation.memory_sizes_mb
            base_column = sizes.index(int(base))
            rows = np.arange(indices.size)
            current_scores = recommendation.total_scores[rows, base_column]
            selected_scores = recommendation.total_scores[
                rows, recommendation.selected_index
            ]
            improvement = (current_scores - selected_scores) / current_scores
            chosen = np.flatnonzero(
                (recommendation.selected_memory_mb != base)
                & (improvement >= self.config.hysteresis_margin)
            )
            for row in chosen:
                i = int(indices[row])
                target = int(recommendation.selected_memory_mb[row])
                if target not in fleet_sizes:
                    continue  # model predicts sizes the fleet cannot deploy
                if target in self._abandoned.get(i, ()):
                    continue  # never flip back to an abandoned size
                self._eval_prev_size[i] = base
                self._eval_prev_time_ms[i] = self._acc_stats[i, self._time_row, _MEAN]
                self._eval_prev_cost_usd[i] = self._acc_cost[i] / self._acc_counts[i]
                self._abandoned.setdefault(i, set()).add(int(base))
                simulator.resize(i, target)
                self._eval_active[i] = True
                self._eval_windows_left[i] = self.config.evaluation_windows
                self._cooldown[i] = self.config.cooldown_windows
                self._reset_observation(np.array([i]))
                events.append(
                    ResizeEvent(
                        window_index=window.index,
                        function_index=i,
                        function_name=simulator.functions[i].name,
                        from_memory_mb=int(base),
                        to_memory_mb=target,
                        reason="recommendation",
                        predicted_improvement=float(improvement[row]),
                    )
                )
        return events

    # ------------------------------------------------------------------- step
    def step(
        self, simulator: FleetSimulator, window: FleetWindow
    ) -> list[ResizeEvent]:
        """Process one monitoring window: observe, roll back, decide.

        Returns the deployment changes applied to the simulator, rollbacks
        first (a rolled-back function is pinned and never re-decided).
        """
        self._ensure_state(window)
        self._observe(window)
        events = self._check_rollbacks(simulator, window)
        events.extend(self._decide(simulator, window))
        return events


class DenseSavingsLedger:
    """Accounts realized fleet cost and latency against the default deployment."""

    def __init__(self, default_memory_mb: int = 256) -> None:
        """Create an empty ledger.

        Parameters
        ----------
        default_memory_mb:
            The default deployment size savings are measured against (the
            size every fleet function starts at).
        """
        if default_memory_mb <= 0:
            raise ConfigurationError("default_memory_mb must be positive")
        self.default_memory_mb = int(default_memory_mb)
        self.windows: list[WindowAccount] = []
        self.events: list[ResizeEvent] = []
        self._n: int | None = None

    def _ensure_state(self, n_functions: int) -> None:
        """Allocate per-function baseline state on the first window."""
        if self._n is not None:
            if n_functions != self._n:
                raise ConfigurationError(
                    f"ledger was sized for {self._n} functions, got {n_functions}"
                )
            return
        self._n = n_functions
        # Running default-size observation, used to freeze the baseline when
        # a function first leaves the default size.
        self._default_cost = np.zeros(n_functions, dtype=float)
        self._default_time_weighted = np.zeros(n_functions, dtype=float)
        self._default_count = np.zeros(n_functions, dtype=np.int64)
        self._frozen = np.zeros(n_functions, dtype=bool)
        self._baseline_cost_per_inv = np.zeros(n_functions, dtype=float)
        self._baseline_time_ms = np.zeros(n_functions, dtype=float)

    # ---------------------------------------------------------------- observe
    def observe(self, window: FleetWindow, events: list[ResizeEvent]) -> WindowAccount:
        """Account one window and the deployment changes that followed it.

        Only the window's active rows are touched: idle functions have no
        row, so they refine no baseline and add nothing to any windowed
        sum.  ``functions_resized`` still scans the dense ``memory_mb``
        (deployment state is a fleet-wide fact, one comparison per
        function).  The only loop is over the (few) resize events, which
        freeze baselines.
        """
        self._ensure_state(window.n_functions)
        rows = window.active
        counts = window.n_invocations.astype(float)
        mean_time = window.mean_execution_time_ms()
        at_default = window.memory_mb[rows] == self.default_memory_mb

        # Keep refining the baseline while a function still runs (and has
        # always run) at the default size.
        refine = at_default & ~self._frozen[rows]
        r = rows[refine]
        self._default_cost[r] += window.cost_usd[refine]
        self._default_time_weighted[r] += (mean_time * counts)[refine]
        self._default_count[r] += window.n_invocations[refine]

        # Freeze baselines for functions resized away for the first time.
        for event in events:
            i = event.function_index
            if self._frozen[i] or self._default_count[i] == 0:
                continue
            self._baseline_cost_per_inv[i] = (
                self._default_cost[i] / self._default_count[i]
            )
            self._baseline_time_ms[i] = (
                self._default_time_weighted[i] / self._default_count[i]
            )
            self._frozen[i] = True

        # Baseline view of this window: functions deployed AWAY from the
        # default are billed at their frozen per-invocation baseline;
        # everything running at the default size (including functions rolled
        # back to it) is billed at realized numbers — their deployment is
        # the baseline, so their delta is zero by construction.
        use_baseline = self._frozen[rows] & ~at_default
        baseline_cost = np.where(
            use_baseline, self._baseline_cost_per_inv[rows] * counts, window.cost_usd
        )
        baseline_time_weighted = np.where(
            use_baseline, self._baseline_time_ms[rows] * counts, mean_time * counts
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
