"""Feature engineering for the multi-target regression model (Section 3.4).

The paper starts from the mean of every monitored metric (feature set F0),
selects the most predictive subset (F1), adds *relative* features normalised
by the execution length (F2, e.g. context switches per second), reduces again
(F3), and finally adds the standard deviation and coefficient of variation of
the remaining metrics (F4).  The final feature set only needs six monitored
metrics: heap used, user CPU time, system CPU time, voluntary context
switches, file-system writes, and bytes received over the network.

Feature names follow a small grammar over the Table-1 metric names::

    <metric>_mean          mean of the metric over the measurement window
    <metric>_std           standard deviation over the window
    <metric>_cv            coefficient of variation over the window
    <metric>_per_second    mean divided by the mean execution time in seconds

:class:`FeatureExtractor` resolves any such name against the stat rows of a
measurement table, or of one
:class:`~repro.monitoring.aggregation.MonitoringSummary`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, MonitoringError
from repro.monitoring.aggregation import STAT_NAMES, MonitoringSummary
from repro.monitoring.metrics import METRIC_NAMES

_SUFFIXES = ("_per_second", "_mean", "_std", "_cv")

#: Stat-axis column of each direct-statistic feature suffix.
_STAT_COLUMN = {f"_{stat}": index for index, stat in enumerate(STAT_NAMES)}

_MEAN_COLUMN = _STAT_COLUMN["_mean"]
_TIME_ROW = METRIC_NAMES.index("execution_time")


def _split_feature_name(name: str) -> tuple[str, str]:
    """Split ``"<metric><suffix>"`` into (metric, suffix) and validate both."""
    for suffix in _SUFFIXES:
        if name.endswith(suffix):
            metric = name[: -len(suffix)]
            if metric not in METRIC_NAMES:
                raise ConfigurationError(
                    f"feature {name!r} references unknown metric {metric!r}"
                )
            return metric, suffix
    raise ConfigurationError(
        f"feature {name!r} does not end in one of {_SUFFIXES}"
    )


def feature_set_f0() -> list[str]:
    """F0: mean execution time plus the mean of every resource metric."""
    return [f"{metric}_mean" for metric in METRIC_NAMES]


def feature_superset() -> list[str]:
    """Every feature the grammar can express over the Table-1 metrics.

    Means, per-second normalised variants (except the constant
    ``execution_time_per_second``), standard deviations and coefficients of
    variation of all metrics.  The Figure-4 selection rounds and any other
    subset evaluation can extract this superset matrix once and select
    columns from it instead of re-extracting per candidate set.
    """
    names = [f"{metric}_mean" for metric in METRIC_NAMES]
    names += [
        f"{metric}_per_second" for metric in METRIC_NAMES if metric != "execution_time"
    ]
    names += [f"{metric}_std" for metric in METRIC_NAMES]
    names += [f"{metric}_cv" for metric in METRIC_NAMES]
    return names


def feature_set_f2(selected_metrics: tuple[str, ...] | None = None) -> list[str]:
    """F2-style set: means plus per-second normalised variants.

    ``selected_metrics`` restricts the set to the given metrics (defaults to
    every Table-1 metric except the execution time itself for the per-second
    variants, which would be constant 1000).
    """
    metrics = selected_metrics if selected_metrics is not None else METRIC_NAMES
    features = [f"{metric}_mean" for metric in metrics]
    features += [
        f"{metric}_per_second" for metric in metrics if metric != "execution_time"
    ]
    return features


#: Mean features of F0 in Table-1 order.
FEATURE_SET_F0: tuple[str, ...] = tuple(feature_set_f0())

#: The final feature set used by the trained model (paper F4): the features
#: computed from execution time plus the six production metrics.
DEFAULT_FEATURE_SET: tuple[str, ...] = (
    "execution_time_mean",
    "user_cpu_time_per_second",
    "system_cpu_time_per_second",
    "user_cpu_time_mean",
    "heap_used_mean",
    "heap_used_cv",
    "vol_context_switches_per_second",
    "vol_context_switches_mean",
    "fs_writes_per_second",
    "bytes_received_per_second",
    "bytes_received_mean",
    "fs_writes_cv",
)

#: An extended variant used in the ablation benchmarks: the F4 features plus
#: two additional signals (CPU-throttling pressure via involuntary context
#: switches, and the resident set size) that require monitoring two more
#: metrics than the paper's six.
EXTENDED_FEATURE_SET: tuple[str, ...] = DEFAULT_FEATURE_SET + (
    "invol_context_switches_per_second",
    "resident_set_size_mean",
)


class FeatureExtractor:
    """Computes feature vectors from monitoring statistics.

    One arithmetic, :meth:`from_stat_rows`, serves every caller:
    :meth:`extract_table` applies it to the stat rows of a measurement table,
    :meth:`extract` to the stat rows of one
    :class:`~repro.monitoring.aggregation.MonitoringSummary` (a one-row
    call).

    Parameters
    ----------
    feature_names:
        Ordered feature names following the grammar described in the module
        docstring.  Defaults to :data:`DEFAULT_FEATURE_SET`.
    """

    def __init__(self, feature_names: tuple[str, ...] | list[str] | None = None) -> None:
        names = tuple(feature_names) if feature_names is not None else DEFAULT_FEATURE_SET
        if not names:
            raise ConfigurationError("feature_names must not be empty")
        if len(set(names)) != len(names):
            raise ConfigurationError("feature_names contains duplicates")
        # Validate eagerly so configuration errors surface at construction.
        parsed = [_split_feature_name(name) for name in names]
        self.feature_names: tuple[str, ...] = names
        self._metrics = {metric for metric, _suffix in parsed}
        # Where each feature sits in a (n_metrics, n_stats) stat cell: a
        # per-second feature reads the mean and is then divided.
        self._metric_rows = np.array([METRIC_NAMES.index(metric) for metric, _ in parsed])
        self._stat_columns = np.array(
            [_STAT_COLUMN.get(suffix, _MEAN_COLUMN) for _, suffix in parsed]
        )
        self._per_second = np.array([suffix == "_per_second" for _, suffix in parsed])

    @property
    def n_features(self) -> int:
        """Number of features produced per summary."""
        return len(self.feature_names)

    def required_metrics(self) -> list[str]:
        """Metrics that must be monitored to compute this feature set."""
        # Per-second features additionally need the execution time.
        if self._per_second.any():
            return sorted(self._metrics | {"execution_time"})
        return sorted(self._metrics)

    def from_stat_rows(self, rows: np.ndarray) -> np.ndarray:
        """Feature matrix of ``(n, n_metrics, n_stats)`` stat rows, one row each."""
        features = rows[:, self._metric_rows, self._stat_columns]
        if self._per_second.any():
            execution_time_s = rows[:, _TIME_ROW, _MEAN_COLUMN, None] / 1000.0
            if (execution_time_s <= 0).any():
                raise MonitoringError("cannot normalise by a non-positive execution time")
            np.divide(features, execution_time_s, out=features, where=self._per_second)
        return features

    def extract(self, summary: MonitoringSummary) -> np.ndarray:
        """Return the feature vector of one summary (1-D array)."""
        return self.from_stat_rows(summary.stat_rows()[None])[0]

    def extract_table(
        self,
        table,
        memory_mb: int | None = None,
        function_indices=None,
    ) -> np.ndarray:
        """Vectorized whole-table extraction via column slicing.

        Computes the feature matrix straight from the stat arrays of a
        :class:`~repro.dataset.table.MeasurementTable` — no per-summary
        objects, no per-feature Python loops over rows.

        Parameters
        ----------
        table:
            The columnar measurement table — the in-memory
            :class:`~repro.dataset.table.MeasurementTable` or the out-of-core
            :class:`~repro.dataset.sharding.ShardedMeasurementTable`; any
            object exposing the axis lookups and ``iter_value_blocks``.
        memory_mb:
            Restrict rows to one memory size (one row per function).  When
            ``None``, all (function, size) cells are flattened function-major
            into ``(n_functions * n_sizes, n_features)``.
        function_indices:
            Optional row subset of axis 0 (keeps the given order).

        The stat arrays are traversed through the table's
        ``iter_value_blocks`` protocol, so for a sharded table at most one
        shard's dense array is resident at a time and the only full-size
        allocation is the returned feature matrix.

        Every cell that contributes must be measured with a positive mean
        execution time if per-second features are requested; callers filter
        rows beforehand (as :func:`~repro.core.training.build_training_matrices`
        does).
        """
        if function_indices is not None:
            function_indices = table.row_indices(function_indices)
            n_selected = function_indices.shape[0]
        else:
            n_selected = table.n_functions
        if memory_mb is not None:
            size_column = table.size_index(memory_mb)
            n_rows = n_selected
        else:
            n_rows = n_selected * table.n_sizes
        out = np.empty((n_rows, self.n_features), dtype=float)
        row_start = 0
        for block in table.iter_value_blocks(function_indices):
            if memory_mb is not None:
                block = block[:, size_column]
            rows = block.reshape(-1, *block.shape[-2:])
            out[row_start : row_start + rows.shape[0]] = self.from_stat_rows(rows)
            row_start += rows.shape[0]
        return out

    def subset(self, feature_names: list[str] | tuple[str, ...]) -> "FeatureExtractor":
        """Return a new extractor restricted to the given features."""
        unknown = set(feature_names) - set(self.feature_names)
        if unknown:
            raise ConfigurationError(
                f"features {sorted(unknown)} are not part of this extractor"
            )
        return FeatureExtractor(tuple(feature_names))

    def __repr__(self) -> str:
        return f"FeatureExtractor(n_features={self.n_features})"
