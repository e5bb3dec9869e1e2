"""The online-phase API: monitoring data in, memory recommendation out.

:class:`SizelessPredictor` bundles one or more trained per-base-size models
with the memory-size optimizer.  Given the monitoring summary of a production
function collected at a single memory size, it predicts the execution time at
every other size and recommends the optimal size for a chosen cost/performance
trade-off — the complete online phase of paper Figure 2.

Two call surfaces expose the same numbers:

- the *scalar* path (:meth:`SizelessPredictor.predict` /
  :meth:`SizelessPredictor.recommend`) consumes one
  :class:`~repro.monitoring.aggregation.MonitoringSummary` at a time, as a
  one-row call into the batch path's feature and time arithmetic;
- the *batch* path (:meth:`SizelessPredictor.predict_table` /
  :meth:`SizelessPredictor.recommend_table`) consumes a whole columnar
  measurement table and predicts every function in one matrix pass — the
  hot path of the fleet rightsizing controller (:mod:`repro.fleet`), which
  sizes hundreds of functions per monitoring window.  Batch numbers are
  bit-identical to the scalar path (asserted by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.core.model import SizelessModel
from repro.core.optimizer import (
    MatrixRecommendation,
    MemoryRecommendation,
    MemorySizeOptimizer,
    TradeoffConfig,
)
from repro.monitoring.aggregation import MonitoringSummary
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.pricing import PricingModel


@dataclass(frozen=True)
class PredictionResult:
    """Execution-time predictions for one function.

    Attributes
    ----------
    function_name:
        The monitored function.
    base_memory_mb:
        Memory size the monitoring data was collected at.
    execution_times_ms:
        Predicted (and, for the base size, observed) execution time per size.
    """

    function_name: str
    base_memory_mb: int
    execution_times_ms: dict[int, float]


@dataclass(frozen=True)
class BatchPrediction:
    """Execution-time predictions for a whole batch of functions.

    Attributes
    ----------
    function_names:
        The predicted functions, in row order.
    base_memory_mb:
        Memory size the monitoring data was collected at.
    memory_sizes_mb:
        Column labels of the prediction matrix (ascending, includes the base).
    execution_times_ms:
        ``(n_functions, n_sizes)`` predicted times; the base column carries
        the observed base execution times.
    """

    function_names: tuple[str, ...]
    base_memory_mb: int
    memory_sizes_mb: tuple[int, ...]
    execution_times_ms: np.ndarray

    @property
    def n_functions(self) -> int:
        """Number of predicted functions."""
        return len(self.function_names)

    def row(self, index: int) -> PredictionResult:
        """Materialize the scalar :class:`PredictionResult` view of one row."""
        return PredictionResult(
            function_name=self.function_names[index],
            base_memory_mb=self.base_memory_mb,
            execution_times_ms={
                int(size): float(self.execution_times_ms[index, j])
                for j, size in enumerate(self.memory_sizes_mb)
            },
        )


class SizelessPredictor:
    """Predicts execution times across memory sizes and recommends a size."""

    def __init__(
        self,
        models: dict[int, SizelessModel] | SizelessModel,
        pricing: PricingModel | None = None,
        default_tradeoff: float = 0.75,
    ) -> None:
        if isinstance(models, SizelessModel):
            models = {models.base_memory_mb: models}
        if not models:
            raise ModelError("SizelessPredictor needs at least one trained model")
        for base_size, model in models.items():
            if not model.is_fitted:
                raise ModelError(f"model for base size {base_size} MB is not fitted")
            if int(base_size) != int(model.base_memory_mb):
                raise ModelError(
                    f"model registered under {base_size} MB reports base size "
                    f"{model.base_memory_mb} MB"
                )
        self._models = {int(size): model for size, model in models.items()}
        self.pricing = pricing if pricing is not None else PricingModel()
        self.optimizer = MemorySizeOptimizer(
            pricing=self.pricing, tradeoff=TradeoffConfig(default_tradeoff)
        )

    # ------------------------------------------------------------------ props
    @property
    def base_memory_sizes_mb(self) -> list[int]:
        """Base sizes for which a trained model is available."""
        return sorted(self._models)

    def required_metrics(self) -> tuple[str, ...]:
        """Table-1 metrics the predictor reads, in Table-1 order.

        The union of every model's
        :meth:`~repro.core.features.FeatureExtractor.required_metrics` plus
        ``execution_time``, which :meth:`predict_table` reads as the
        observed base time.  Monitoring these is enough to predict: with
        the paper's F4 features they are the six production metrics of
        :data:`~repro.monitoring.metrics.PRODUCTION_METRICS` and the
        execution time.
        """
        needed = {"execution_time"}
        for model in self._models.values():
            needed.update(model.extractor.required_metrics())
        return tuple(metric for metric in METRIC_NAMES if metric in needed)

    def model_for(self, base_memory_mb: int) -> SizelessModel:
        """Return the model trained for the given base size."""
        try:
            return self._models[int(base_memory_mb)]
        except KeyError:
            raise ModelError(
                f"no model trained for base size {base_memory_mb} MB "
                f"(available: {self.base_memory_sizes_mb})"
            ) from None

    # ---------------------------------------------------------------- predict
    def predict(self, summary: MonitoringSummary) -> PredictionResult:
        """Predict execution times at all sizes from one monitoring summary."""
        model = self.model_for(int(summary.memory_mb))
        times = model.predict_execution_times(summary)
        return PredictionResult(
            function_name=summary.function_name,
            base_memory_mb=int(summary.memory_mb),
            execution_times_ms=times,
        )

    def recommend(
        self, summary: MonitoringSummary, tradeoff: float | None = None
    ) -> MemoryRecommendation:
        """Predict and run the memory-size optimization in one call."""
        prediction = self.predict(summary)
        return self.optimizer.recommend(prediction.execution_times_ms, tradeoff=tradeoff)

    def recommend_many(
        self, summaries: list[MonitoringSummary], tradeoff: float | None = None
    ) -> dict[str, MemoryRecommendation]:
        """Recommend a size for several functions, keyed by function name."""
        return {
            summary.function_name: self.recommend(summary, tradeoff=tradeoff)
            for summary in summaries
        }

    # ------------------------------------------------------------------ batch
    def _resolve_base_size(self, base_memory_mb: int | None) -> int:
        """Resolve the base size for batch calls (must be unambiguous)."""
        if base_memory_mb is not None:
            return int(base_memory_mb)
        if len(self._models) == 1:
            return next(iter(self._models))
        raise ModelError(
            "base_memory_mb is required when several base-size models are "
            f"registered (available: {self.base_memory_sizes_mb})"
        )

    def predict_table(
        self,
        table,
        base_memory_mb: int | None = None,
        function_indices=None,
    ) -> BatchPrediction:
        """Predict execution times for every function of a measurement table.

        The whole-fleet batch path: one walk of the table's stat blocks
        yields the features
        (:meth:`~repro.core.features.FeatureExtractor.from_stat_rows`, the
        arithmetic of ``extract_table``) and the observed base execution
        times, so a sharded table decodes each shard once; the network
        predicts all rows in one forward pass — no per-function Python loop
        anywhere.  Row ``i`` of the result is bit-identical to
        :meth:`predict` on the corresponding
        :class:`~repro.monitoring.aggregation.MonitoringSummary`.

        Parameters
        ----------
        table:
            A :class:`~repro.dataset.table.MeasurementTable` (or the sharded
            sibling) measured at least at the base size.
        base_memory_mb:
            Base size whose monitoring data feeds the model; may be omitted
            when exactly one model is registered.
        function_indices:
            Optional row subset of the table's function axis.
        """
        base = self._resolve_base_size(base_memory_mb)
        model = self.model_for(base)
        size_column = table.size_index(base)
        if function_indices is None:
            selected_names = tuple(table.function_names)
            counts = np.asarray(table.n_invocations[:, size_column])
        else:
            function_indices = table.row_indices(function_indices)
            selected_names = tuple(table.function_names[i] for i in function_indices)
            counts = np.asarray(table.n_invocations[function_indices, size_column])
        if not selected_names:
            raise ModelError("predict_table needs at least one function row")
        if np.any(counts <= 0):
            missing = [name for name, c in zip(selected_names, counts) if c <= 0]
            raise ModelError(
                f"functions {missing} have no monitoring data at {base} MB"
            )
        time_index = table.metric_index("execution_time")
        mean_column = table.stat_names.index("mean")
        features, base_times = [], []
        for block in table.iter_value_blocks(function_indices):
            cells = block[:, size_column]
            features.append(model.extractor.from_stat_rows(cells))
            base_times.append(cells[:, time_index, mean_column])
        times = model.predict_times_matrix(np.concatenate(features), np.concatenate(base_times))
        return BatchPrediction(
            function_names=selected_names,
            base_memory_mb=base,
            memory_sizes_mb=model.all_memory_sizes_mb,
            execution_times_ms=times,
        )

    def recommend_table(
        self,
        table,
        base_memory_mb: int | None = None,
        tradeoff: float | None = None,
        function_indices=None,
    ) -> tuple[BatchPrediction, MatrixRecommendation]:
        """Batch-predict a table and optimize every function in one matrix pass.

        Returns the :class:`BatchPrediction` together with the vectorized
        :class:`~repro.core.optimizer.MatrixRecommendation`; row ``i`` of
        both is bit-identical to the scalar :meth:`recommend` path.
        """
        prediction = self.predict_table(
            table, base_memory_mb=base_memory_mb, function_indices=function_indices
        )
        recommendation = self.optimizer.recommend_matrix(
            prediction.execution_times_ms,
            prediction.memory_sizes_mb,
            tradeoff=tradeoff,
        )
        return prediction, recommendation
