"""Continuous rightsizing controller: observe, batch-predict, resize, roll back.

The paper's online phase (Figure 2) sizes one function once: monitor it at
the default size, predict the execution time at every other size, recommend.
A production fleet needs that loop to run *continuously* and *safely*: new
monitoring data arrives every window, recommendations must not thrash
deployments, and a recommendation that turns out wrong on real traffic must
be undone.

:class:`RightsizingController` implements that loop over the windows produced
by :class:`~repro.fleet.simulator.FleetSimulator`:

1. **Observe** — every window's per-function stat rows are merged into
   running accumulators with a vectorized pooled mean/variance update
   (:func:`merge_stat_blocks`); no per-function Python loops.  The
   accumulator holds the metrics the windows carry (the window's
   ``metric_names``), which must cover every metric the predictor reads.
2. **Decide** — functions observed long enough at a size with a trained
   model are batch-predicted through
   :meth:`~repro.core.predictor.SizelessPredictor.recommend_table`: one
   feature-matrix pass, one network forward pass, one vectorized
   optimization for the whole eligible cohort.
3. **Guardrails** — a resize is applied only after ``min_windows`` windows
   and ``min_invocations`` observations (warm-up), only when the predicted
   total-score improvement exceeds the hysteresis margin, never back to a
   size the function already abandoned (no flip-flopping), and not during
   the post-resize cooldown.
4. **Rollback** — after a resize the controller watches realized cost and
   latency for ``evaluation_windows`` windows; if the realized trade-off
   score regressed beyond ``rollback_tolerance`` relative to what was
   measured at the previous size, the function is resized back and pinned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, require_count
from repro.core.predictor import SizelessPredictor
from repro.dataset.table import MeasurementTable
from repro.fleet.simulator import FleetSimulator, FleetWindow
from repro.monitoring.aggregation import STAT_NAMES, merge_stat_blocks
from repro.monitoring.metrics import METRIC_NAMES

__all__ = [
    "ControllerConfig",
    "ResizeEvent",
    "RightsizingController",
    "merge_stat_blocks",  # re-export; lives in repro.monitoring.aggregation
]

_MEAN = STAT_NAMES.index("mean")


@dataclass(frozen=True)
class ControllerConfig:
    """Guardrail configuration of the rightsizing controller.

    Attributes
    ----------
    tradeoff:
        The paper's cost/performance trade-off ``t`` used for every
        recommendation (0.75 prioritises cost, the recommended setting).
    min_invocations:
        Minimum accumulated invocations at the current size before a
        function may be resized (observation sufficiency).
    min_windows:
        Minimum number of windows with traffic at the current size before a
        resize (warm-up; spans at least one traffic cycle fragment).
    hysteresis_margin:
        Required relative improvement of the predicted total score over the
        current size before a resize is applied; recommendations inside the
        margin are ignored, preventing flip-flop resizes on noisy ties.
    cooldown_windows:
        Windows to wait after any resize before the next decision for that
        function.
    evaluation_windows:
        Windows of realized traffic observed at a new size before the
        rollback check runs.
    rollback_tolerance:
        Allowed relative regression of the realized trade-off score (cost
        and latency combined with ``tradeoff``) before the resize is rolled
        back and the function pinned.
    """

    tradeoff: float = 0.75
    min_invocations: int = 50
    min_windows: int = 3
    hysteresis_margin: float = 0.02
    cooldown_windows: int = 2
    evaluation_windows: int = 2
    rollback_tolerance: float = 0.05

    def __post_init__(self) -> None:
        """Validate guardrail ranges: counts are integers, no field is NaN."""
        if not 0.0 <= self.tradeoff <= 1.0:
            raise ConfigurationError("tradeoff must be in [0, 1]")
        require_count(self.min_invocations, "min_invocations", 1)
        require_count(self.min_windows, "min_windows", 1)
        require_count(self.cooldown_windows, "cooldown_windows", 0)
        require_count(self.evaluation_windows, "evaluation_windows", 1)
        # Written so that NaN fails too: every comparison with NaN is false,
        # so it would switch off every resize or every rollback.
        if not self.hysteresis_margin >= 0:
            raise ConfigurationError("hysteresis_margin must be non-negative")
        if not self.rollback_tolerance >= 0:
            raise ConfigurationError("rollback_tolerance must be non-negative")


@dataclass(frozen=True)
class ResizeEvent:
    """One deployment change applied by the controller.

    Attributes
    ----------
    window_index:
        Window after which the change was applied.
    function_index / function_name:
        The affected fleet function.
    from_memory_mb / to_memory_mb:
        The size transition.
    reason:
        ``"recommendation"`` for a model-driven resize, ``"rollback"`` for a
        guardrail-driven revert.
    predicted_improvement:
        Relative predicted total-score improvement that justified a
        recommendation (0 for rollbacks).
    """

    window_index: int
    function_index: int
    function_name: str
    from_memory_mb: int
    to_memory_mb: int
    reason: str
    predicted_improvement: float = 0.0


class FunctionRows:
    """Row-indexed state for the functions that have appeared in a window.

    ``row`` is one int32 map over the fleet: function ``i``'s row, or -1
    until ``i`` first appears in a window's ``active``.  Rows are handed out
    in order of first appearance and never reused; ``ids[r]`` is row ``r``'s
    function.  The columns named at construction (``name=(dtype, trailing
    shape)``) are attributes indexed by row.  They grow together by
    amortized doubling, and a new row starts zeroed, as a dense array
    would be before its function's first window.
    """

    def __init__(self, n_functions: int, **columns: tuple) -> None:
        self.row = np.full(n_functions, -1, dtype=np.int32)
        self.size = 0
        self._columns = {"ids": (np.int64, ()), **columns}
        self._grow(0)

    def _grow(self, capacity: int) -> None:
        for name, (dtype, shape) in self._columns.items():
            grown = np.zeros((capacity, *shape), dtype=dtype)
            if self.size:
                grown[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, grown)

    def rows_of(self, functions: np.ndarray) -> np.ndarray:
        """Return the rows of sorted, unique function indices, adding new ones."""
        rows = self.row[functions]
        new = rows < 0
        if new.any():
            fresh = functions[new]
            stop = self.size + fresh.shape[0]
            if stop > self.ids.shape[0]:
                self._grow(max(stop, 2 * self.ids.shape[0]))
            rows[new] = np.arange(self.size, stop, dtype=np.int32)
            self.row[fresh] = rows[new]
            self.ids[self.size : stop] = fresh
            self.size = stop
        return rows


class RightsizingController:
    """Drives continuous fleet rightsizing decisions from window statistics.

    State is kept in :class:`FunctionRows`, one row per function that has
    appeared in some window's ``active``: a function that never had traffic
    can never be eligible, so it costs only its 4-byte slot in the row map.
    Each step touches the window's active rows, the rows whose cooldown or
    evaluation countdown is running, one invocation-count comparison per
    row and the other guardrails on the rows that pass it; none makes a
    pass over the fleet.
    """

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
        """Allocate the row map on the first window.

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
        self._rows = FunctionRows(
            n_functions,
            acc_stats=(float, (len(window.metric_names), len(STAT_NAMES))),
            acc_counts=(np.int64, ()),
            acc_cost=(float, ()),
            windows_observed=(np.int64, ()),
            cooldown=(np.int64, ()),
            pinned=(bool, ()),
            eval_active=(bool, ()),
            eval_windows_left=(np.int64, ()),
            eval_prev_size=(int, ()),
            eval_prev_time_ms=(float, ()),
            eval_prev_cost_usd=(float, ()),
        )
        # The rows whose cooldown, and whose evaluation, is running.
        self._cooling = np.zeros(0, dtype=np.intp)
        self._evaluating = np.zeros(0, dtype=np.intp)
        self._abandoned: dict[int, set[int]] = {}

    def _reset_observation(self, rows) -> None:
        """Clear the accumulators of functions whose size just changed."""
        state = self._rows
        state.acc_stats[rows] = 0.0
        state.acc_counts[rows] = 0
        state.acc_cost[rows] = 0.0
        state.windows_observed[rows] = 0

    # ---------------------------------------------------------------- observe
    def _observe(self, window: FleetWindow) -> None:
        """Merge one window's active rows into the running accumulators.

        Idle functions have no row in the window and keep their
        accumulators untouched, so the merge costs O(active); cooldowns
        tick only on the rows where one is running.
        """
        state = self._rows
        rows = state.rows_of(window.active)
        merged, counts = merge_stat_blocks(
            state.acc_stats[rows],
            state.acc_counts[rows],
            window.stats,
            window.n_invocations,
        )
        state.acc_stats[rows] = merged
        state.acc_counts[rows] = counts
        state.acc_cost[rows] += window.cost_usd
        state.windows_observed[rows] += window.n_invocations > 0
        cooling = self._cooling
        state.cooldown[cooling] -= 1
        self._cooling = cooling[state.cooldown[cooling] > 0]

    # --------------------------------------------------------------- rollback
    def _check_rollbacks(
        self, simulator: FleetSimulator, window: FleetWindow
    ) -> list[ResizeEvent]:
        """Evaluate resized functions and revert realized regressions.

        A function's current size is the one it ran at in ``window``.
        """
        events: list[ResizeEvent] = []
        evaluating = self._evaluating
        if not evaluating.size:
            return events
        state = self._rows
        state.eval_windows_left[evaluating] -= 1
        is_due = (state.eval_windows_left[evaluating] <= 0) & (
            state.acc_counts[evaluating] > 0
        )
        self._evaluating = evaluating[~is_due]
        due = evaluating[is_due]
        due = due[np.argsort(state.ids[due])]
        state.eval_active[due] = False
        # The realized trade-off score against the previous size, one
        # elementwise expression over the due rows; rows without a positive
        # previous cost and latency are not scored.
        t = self.config.tradeoff
        realized_time = state.acc_stats[due, self._time_row, _MEAN]
        realized_cost = state.acc_cost[due] / state.acc_counts[due]
        prev_time = state.eval_prev_time_ms[due]
        prev_cost = state.eval_prev_cost_usd[due]
        scored = ~((prev_time <= 0) | (prev_cost <= 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            score = t * (realized_cost / prev_cost) + (1.0 - t) * (realized_time / prev_time)
        regressed = scored & (score > 1.0 + self.config.rollback_tolerance)
        for r in due[regressed]:
            i = int(state.ids[r])
            current = int(window.memory_mb[i])
            previous = int(state.eval_prev_size[r])
            self._abandoned.setdefault(i, set()).add(current)
            simulator.resize(i, previous)
            state.pinned[r] = True
            self._reset_observation(r)
            events.append(
                ResizeEvent(
                    window_index=window.index,
                    function_index=i,
                    function_name=simulator.functions[i].name,
                    from_memory_mb=current,
                    to_memory_mb=previous,
                    reason="rollback",
                )
            )
        return events

    # ----------------------------------------------------------------- decide
    def _eligible(self, window: FleetWindow, base: int) -> np.ndarray:
        """Return the rows ready for a decision at one base size, in function order.

        The invocation count is checked over every row first; the other
        guardrails only on the (few) rows that pass it.  A function's
        current size is the one it ran at in ``window``.
        """
        state = self._rows
        rows = np.flatnonzero(state.acc_counts[: state.size] >= self.config.min_invocations)
        ids = state.ids[rows]
        ready = (
            (window.memory_mb[ids] == base)
            & ~state.pinned[rows]
            & ~state.eval_active[rows]
            & (state.cooldown[rows] == 0)
            & (state.windows_observed[rows] >= self.config.min_windows)
            & (state.acc_stats[rows, self._time_row, _MEAN] > 0)
        )
        rows, ids = rows[ready], ids[ready]
        return rows[np.argsort(ids)]

    def _stats_table(self, simulator: FleetSimulator, rows: np.ndarray, base: int):
        """Wrap accumulated stats of a cohort into a single-size table.

        The table keeps the Table-1 metric axis: the carried rows are
        scattered into a zero block, and the metrics no window carries stay
        zero (the predictor never reads them).
        """
        state = self._rows
        functions = [simulator.functions[i] for i in state.ids[rows]]
        values = np.zeros((rows.shape[0], 1, len(METRIC_NAMES), len(STAT_NAMES)))
        values[:, 0, self._table_rows] = state.acc_stats[rows]
        return MeasurementTable(
            function_names=tuple(function.name for function in functions),
            applications=tuple(function.application for function in functions),
            segments=tuple(function.segments for function in functions),
            memory_sizes_mb=(int(base),),
            values=values,
            n_invocations=state.acc_counts[rows][:, None],
            description="fleet monitoring accumulator",
        )

    def _decide(
        self, simulator: FleetSimulator, window: FleetWindow
    ) -> list[ResizeEvent]:
        """Batch-predict eligible cohorts and apply guarded resizes."""
        events: list[ResizeEvent] = []
        state = self._rows
        fleet_sizes = set(int(s) for s in simulator.config.memory_sizes_mb)
        for base in self.predictor.base_memory_sizes_mb:
            rows = self._eligible(window, base)
            if rows.size == 0:
                continue
            table = self._stats_table(simulator, rows, base)
            _, recommendation = self.predictor.recommend_table(
                table, base_memory_mb=base, tradeoff=self.config.tradeoff
            )
            sizes = recommendation.memory_sizes_mb
            base_column = sizes.index(int(base))
            cohort = np.arange(rows.size)
            current_scores = recommendation.total_scores[cohort, base_column]
            selected_scores = recommendation.total_scores[
                cohort, recommendation.selected_index
            ]
            improvement = (current_scores - selected_scores) / current_scores
            chosen = np.flatnonzero(
                (recommendation.selected_memory_mb != base)
                & (improvement >= self.config.hysteresis_margin)
            )
            applied = []
            for k in chosen:
                i = int(state.ids[rows[k]])
                target = int(recommendation.selected_memory_mb[k])
                if target not in fleet_sizes:
                    continue  # model predicts sizes the fleet cannot deploy
                if target in self._abandoned.get(i, ()):
                    continue  # never flip back to an abandoned size
                self._abandoned.setdefault(i, set()).add(int(base))
                simulator.resize(i, target)
                applied.append(k)
                events.append(
                    ResizeEvent(
                        window_index=window.index,
                        function_index=i,
                        function_name=simulator.functions[i].name,
                        from_memory_mb=int(base),
                        to_memory_mb=target,
                        reason="recommendation",
                        predicted_improvement=float(improvement[k]),
                    )
                )
            if applied:
                self._start_evaluation(rows[applied], base)
        return events

    def _start_evaluation(self, rows: np.ndarray, base: int) -> None:
        """Record the size the rows left, then watch them and cool them down."""
        state = self._rows
        state.eval_prev_size[rows] = base
        state.eval_prev_time_ms[rows] = state.acc_stats[rows, self._time_row, _MEAN]
        state.eval_prev_cost_usd[rows] = state.acc_cost[rows] / state.acc_counts[rows]
        state.eval_active[rows] = True
        state.eval_windows_left[rows] = self.config.evaluation_windows
        state.cooldown[rows] = self.config.cooldown_windows
        self._reset_observation(rows)
        self._evaluating = np.concatenate([self._evaluating, rows])
        if self.config.cooldown_windows:
            self._cooling = np.concatenate([self._cooling, rows])

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
