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
   (:func:`merge_stat_blocks`); no per-function Python loops.
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

from repro.errors import ConfigurationError
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
_EXECUTION_TIME = METRIC_NAMES.index("execution_time")


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
        """Validate guardrail ranges."""
        if not 0.0 <= self.tradeoff <= 1.0:
            raise ConfigurationError("tradeoff must be in [0, 1]")
        if self.min_invocations < 1:
            raise ConfigurationError("min_invocations must be at least 1")
        if self.min_windows < 1:
            raise ConfigurationError("min_windows must be at least 1")
        if self.hysteresis_margin < 0:
            raise ConfigurationError("hysteresis_margin must be non-negative")
        if self.cooldown_windows < 0:
            raise ConfigurationError("cooldown_windows must be non-negative")
        if self.evaluation_windows < 1:
            raise ConfigurationError("evaluation_windows must be at least 1")
        if self.rollback_tolerance < 0:
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


class RightsizingController:
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
    def _ensure_state(self, n_functions: int) -> None:
        """Allocate per-function state arrays on the first window."""
        if self._n is not None:
            if n_functions != self._n:
                raise ConfigurationError(
                    f"controller was sized for {self._n} functions, got {n_functions}"
                )
            return
        self._n = n_functions
        shape = (n_functions, len(METRIC_NAMES), len(STAT_NAMES))
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
            realized_time = self._acc_stats[i, _EXECUTION_TIME, _MEAN]
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
            & (self._acc_stats[:, _EXECUTION_TIME, _MEAN] > 0)
        )
        return np.flatnonzero(mask)

    def _stats_table(self, simulator: FleetSimulator, indices: np.ndarray, base: int):
        """Wrap accumulated stats of a cohort into a single-size table."""
        return MeasurementTable(
            function_names=tuple(simulator.functions[i].name for i in indices),
            applications=tuple(simulator.functions[i].application for i in indices),
            segments=tuple(simulator.functions[i].segments for i in indices),
            memory_sizes_mb=(int(base),),
            values=self._acc_stats[indices][:, None, :, :],
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
                self._eval_prev_time_ms[i] = self._acc_stats[i, _EXECUTION_TIME, _MEAN]
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
        self._ensure_state(window.n_functions)
        self._observe(window)
        events = self._check_rollbacks(simulator, window)
        events.extend(self._decide(simulator, window))
        return events
