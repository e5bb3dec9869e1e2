"""Aggregation of per-invocation metrics into per-experiment statistics.

The regression model consumes the *mean* of every monitored metric over a
measurement window, plus — for the final feature set F4 — the standard
deviation and coefficient of variation of selected metrics (paper
Section 3.4).  :func:`aggregate_records` produces exactly that summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MonitoringError
from repro.monitoring.collector import MonitoringRecord
from repro.monitoring.metrics import METRIC_NAMES

#: Statistics kept per metric, in column order of :func:`stat_matrix` (and of
#: the last axis of :class:`~repro.dataset.table.MeasurementTable.values`).
STAT_NAMES: tuple[str, str, str] = ("mean", "std", "cv")


@dataclass(frozen=True)
class MetricAggregate:
    """Mean / standard deviation / coefficient of variation of one metric."""

    name: str
    mean: float
    std: float
    cv: float
    n_samples: int

    @staticmethod
    def from_samples(name: str, samples: np.ndarray) -> "MetricAggregate":
        """Aggregate a 1-D sample array (must be non-empty)."""
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise MonitoringError(f"no samples to aggregate for metric {name!r}")
        mean = float(np.mean(samples))
        std = float(np.std(samples))
        cv = float(std / mean) if abs(mean) > 1e-12 else 0.0
        return MetricAggregate(name=name, mean=mean, std=std, cv=cv, n_samples=int(samples.size))


@dataclass(frozen=True)
class MonitoringSummary:
    """Aggregated monitoring data of one function at one memory size.

    This is the "monitoring data for a single memory size" the online phase of
    the approach consumes (paper Figure 2).
    """

    function_name: str
    memory_mb: float
    aggregates: dict[str, MetricAggregate]
    n_invocations: int

    @property
    def mean_execution_time_ms(self) -> float:
        """Mean inner execution time over the window."""
        return self.aggregates["execution_time"].mean

    def mean(self, metric: str) -> float:
        """Mean of one metric."""
        return self._get(metric).mean

    def std(self, metric: str) -> float:
        """Standard deviation of one metric."""
        return self._get(metric).std

    def cv(self, metric: str) -> float:
        """Coefficient of variation of one metric."""
        return self._get(metric).cv

    def _get(self, metric: str) -> MetricAggregate:
        try:
            return self.aggregates[metric]
        except KeyError:
            raise MonitoringError(f"metric {metric!r} not present in summary") from None

    def stat_rows(self) -> np.ndarray:
        """The ``(n_metrics, n_stats)`` stat rows: the inverse of :func:`summary_from_stats`.

        Rows follow the Table-1 metric order, columns :data:`STAT_NAMES`
        (mean, std, cv), as in one cell of a measurement table.
        """
        rows = [self._get(metric) for metric in METRIC_NAMES]
        columns = ([row.mean for row in rows], [row.std for row in rows], [row.cv for row in rows])
        return np.array(columns).T

    def as_flat_dict(self) -> dict[str, float]:
        """Flatten to ``{"<metric>_mean": ..., "<metric>_std": ..., "<metric>_cv": ...}``."""
        flat: dict[str, float] = {}
        for name, aggregate in self.aggregates.items():
            flat[f"{name}_mean"] = aggregate.mean
            flat[f"{name}_std"] = aggregate.std
            flat[f"{name}_cv"] = aggregate.cv
        return flat


def aggregate_records(
    records: list[MonitoringRecord],
    exclude_cold_starts: bool = True,
) -> MonitoringSummary:
    """Aggregate a homogeneous list of monitoring records into a summary.

    All records must belong to the same function and memory size.  Cold-start
    invocations are excluded by default (the paper's wrapper only measures the
    inner execution, but cold invocations still skew counters like the
    resident set, so harnesses discard them via the warm-up window).
    """
    if not records:
        raise MonitoringError("cannot aggregate an empty record list")
    function_names = {record.function_name for record in records}
    memory_sizes = {record.memory_mb for record in records}
    if len(function_names) != 1 or len(memory_sizes) != 1:
        raise MonitoringError(
            "aggregate_records expects records of a single function and memory size; "
            f"got functions {sorted(function_names)} and sizes {sorted(memory_sizes)}"
        )
    usable = [record for record in records if not (exclude_cold_starts and record.cold_start)]
    if not usable:
        usable = records  # fall back: everything was a cold start

    aggregates: dict[str, MetricAggregate] = {}
    for metric in METRIC_NAMES:
        samples = np.array([record.metrics[metric] for record in usable], dtype=float)
        aggregates[metric] = MetricAggregate.from_samples(metric, samples)
    return MonitoringSummary(
        function_name=next(iter(function_names)),
        memory_mb=float(next(iter(memory_sizes))),
        aggregates=aggregates,
        n_invocations=len(usable),
    )


def validate_group_offsets(offsets: np.ndarray, n_invocations: int) -> np.ndarray:
    """Validate segmented group boundaries over a flat invocation axis.

    Parameters
    ----------
    offsets:
        ``(n_groups + 1,)`` integer boundaries: group ``g`` spans the
        half-open slice ``[offsets[g], offsets[g + 1])``.  Must start at 0,
        end at ``n_invocations`` and be monotonically non-decreasing (empty
        groups are allowed).
    n_invocations:
        Length of the flat invocation axis the offsets partition.

    Returns
    -------
    numpy.ndarray
        The validated offsets as a contiguous ``int64`` array.

    Raises
    ------
    MonitoringError
        If the offsets are not a 1-D partition of ``[0, n_invocations]``.
    """
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or offsets.shape[0] < 2:
        raise MonitoringError(
            "group offsets must be a 1-D array of at least 2 boundaries, "
            f"got shape {offsets.shape}"
        )
    if not np.issubdtype(offsets.dtype, np.integer):
        raise MonitoringError(f"group offsets must be integers, got dtype {offsets.dtype}")
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets[0] != 0 or offsets[-1] != int(n_invocations):
        raise MonitoringError(
            f"group offsets must run from 0 to {int(n_invocations)}, "
            f"got [{offsets[0]}, {offsets[-1]}]"
        )
    if np.any(np.diff(offsets) < 0):
        raise MonitoringError("group offsets must be monotonically non-decreasing")
    return offsets


def _segment_sums(
    matrix: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Sum contiguous column segments of ``matrix`` (``counts`` columns from ``starts``).

    The single summation primitive of the aggregation layer (a thin wrapper
    over :func:`numpy.add.reduceat`).  Both the one-group
    :func:`stat_matrix` and the segmented :func:`grouped_stat_blocks` reduce
    through it, which is what makes fused (cross-function) and looped
    (per-function) aggregation bit-identical: ``reduceat`` reduces each
    segment independently, so a segment inside a larger concatenated array
    sums to exactly the same float as the segment reduced on its own.

    A one-column segment sums to its column, so when most segments are
    single columns (a sparse fleet window) only the longer ones go through
    ``reduceat``, each as a ``[start, stop)`` pair whose gap results are
    dropped; the per-segment cost of ``reduceat`` would otherwise dominate.
    """
    if starts.shape[0] == 0:
        return np.zeros((matrix.shape[0], 0))
    multi = np.flatnonzero(counts > 1)
    if 2 * multi.shape[0] >= starts.shape[0]:
        return np.add.reduceat(matrix, starts, axis=1)
    sums = matrix[:, starts]
    if multi.shape[0]:
        bounds = np.empty(2 * multi.shape[0], dtype=np.intp)
        bounds[0::2] = starts[multi]
        bounds[1::2] = starts[multi] + counts[multi]
        # reduceat indices must be in range: a segment ending at the last
        # column simply runs to the end.
        if bounds[-1] == matrix.shape[1]:
            bounds = bounds[:-1]
        sums[:, multi] = np.add.reduceat(matrix, bounds, axis=1)[:, 0::2]
    return sums


def grouped_stat_blocks(
    metrics: dict[str, np.ndarray],
    offsets: np.ndarray,
    cold_start: np.ndarray | None = None,
    exclude_cold_starts: bool = True,
    window: np.ndarray | None = None,
    metric_names: tuple[str, ...] = METRIC_NAMES,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a flat multi-group metric batch to per-group stat blocks.

    The segmented counterpart of :func:`stat_matrix` and the reduction core
    of the fused cross-function execution path: per-invocation metric columns
    of *many* (function, size) groups, concatenated group-major, are reduced
    straight to a dense ``(n_groups, n_metrics, n_stats)`` block with
    segmented sums (:func:`numpy.add.reduceat` over the group boundaries) —
    no per-group Python loop, no per-group result objects.

    Parameters
    ----------
    metrics:
        One ``(n,)`` sample array per metric, all groups concatenated along
        the invocation axis in group order.
    offsets:
        ``(n_groups + 1,)`` group boundaries (see
        :func:`validate_group_offsets`).  Empty groups yield all-zero stat
        rows with an invocation count of 0.
    cold_start:
        Optional ``(n,)`` boolean cold-start mask.
    exclude_cold_starts:
        Drop cold-started invocations, per group falling back to including
        them when a group is all-cold (same semantics as
        :func:`stat_matrix`).
    window:
        Optional ``(n,)`` boolean measurement-window mask, per group falling
        back to the whole group when nothing survives.
    metric_names:
        The metrics to reduce, in the order of the result's metric axis
        (all Table-1 metrics by default).  Each metric row is reduced on
        its own, so a row of a subset equals the same row of the full
        reduction bit for bit; a fleet window reduces only the metrics its
        predictor reads.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        The ``(n_groups, len(metric_names), n_stats)`` stat blocks and the
        ``(n_groups,)`` surviving invocation counts.
    """
    missing = set(metric_names) - set(metrics)
    if missing:
        raise MonitoringError(f"missing metrics: {sorted(missing)}")
    matrix = np.stack([np.asarray(metrics[metric], dtype=float) for metric in metric_names])
    n = matrix.shape[1]
    offsets = validate_group_offsets(offsets, n)
    n_groups = offsets.shape[0] - 1
    sizes = np.diff(offsets)
    group_ids = np.repeat(np.arange(n_groups), sizes)

    if window is None:
        keep = np.ones(n, dtype=bool)
    else:
        keep = np.asarray(window, dtype=bool)
        if keep.shape != (n,):
            raise MonitoringError(f"window mask must have shape ({n},), got {keep.shape}")
        kept_per_group = np.bincount(group_ids, weights=keep, minlength=n_groups)
        empty_window = (kept_per_group == 0) & (sizes > 0)
        if np.any(empty_window):
            keep = keep | empty_window[group_ids]
    if exclude_cold_starts and cold_start is not None:
        cold = np.asarray(cold_start, dtype=bool)
        if cold.shape != (n,):
            raise MonitoringError(f"cold mask must have shape ({n},), got {cold.shape}")
        warm = keep & ~cold
        warm_per_group = np.bincount(group_ids, weights=warm, minlength=n_groups)
        keep = np.where((warm_per_group > 0)[group_ids], warm, keep)

    counts = np.bincount(group_ids, weights=keep, minlength=n_groups).astype(np.int64)
    kept = matrix[:, keep]
    kept_ids = group_ids[keep]
    nonempty = counts > 0
    starts = np.zeros(n_groups, dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]

    sums = _segment_sums(kept, starts[nonempty], counts[nonempty])
    means_ne = sums / counts[nonempty]
    means = np.zeros((len(metric_names), n_groups))
    means[:, nonempty] = means_ne
    centered = kept - means[:, kept_ids]
    stds_ne = np.sqrt(
        _segment_sums(centered * centered, starts[nonempty], counts[nonempty])
        / counts[nonempty]
    )
    safe = np.abs(means_ne) > 1e-12
    cvs_ne = np.divide(stds_ne, means_ne, out=np.zeros_like(stds_ne), where=safe)

    # One contiguous (groups, metrics, stats) copy; scattered into a zero
    # block only when some groups are empty.
    stats_ne = np.stack([means_ne.T, stds_ne.T, cvs_ne.T], axis=-1)
    if stats_ne.shape[0] == n_groups:
        return stats_ne, counts
    blocks = np.zeros((n_groups, len(metric_names), len(STAT_NAMES)))
    blocks[nonempty] = stats_ne
    return blocks, counts


def merge_stat_blocks(
    stats_a: np.ndarray,
    counts_a: np.ndarray,
    stats_b: np.ndarray,
    counts_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two batches of per-group stat blocks into pooled statistics.

    Combines ``(n_groups, n_metrics, n_stats)`` mean/std/cv blocks with
    their invocation counts using the exact pooled-moment identities (the
    merged mean is the count-weighted mean; the merged variance comes from
    the merged second moment), entirely as array operations.  Rows with a
    zero combined count stay zero; merging a block into an empty accumulator
    reproduces the block bit for bit — which is what lets sparse fleet
    windows merge only their *active* rows and stay bit-identical to the
    dense merge (inactive rows are exactly the zero-count pass-through).

    Parameters
    ----------
    stats_a:
        Accumulated statistics.
    counts_a:
        Invocation counts behind ``stats_a``.
    stats_b:
        New window statistics.
    counts_b:
        Invocation counts behind ``stats_b``.

    Returns
    -------
    tuple
        ``(stats, counts)`` of the pooled statistics.
    """
    mean_col = STAT_NAMES.index("mean")
    std_col = STAT_NAMES.index("std")
    cv_col = STAT_NAMES.index("cv")
    counts_a = np.asarray(counts_a, dtype=np.int64)
    counts_b = np.asarray(counts_b, dtype=np.int64)
    # One-sided merges pass the populated side through untouched, so merging
    # a window into an empty accumulator reproduces the window bit for bit
    # (the pooled formulas would round twice).  The formulas run only on the
    # rows populated on both sides.
    merged = np.where((counts_a == 0)[:, None, None], stats_b, stats_a)
    merged[(counts_a == 0) & (counts_b == 0)] = 0.0
    both = np.flatnonzero((counts_a > 0) & (counts_b > 0))
    if both.size:
        ca = counts_a[both].astype(float)[:, None]
        cb = counts_b[both].astype(float)[:, None]
        total = ca + cb
        mean_a, mean_b = stats_a[both, :, mean_col], stats_b[both, :, mean_col]
        std_a, std_b = stats_a[both, :, std_col], stats_b[both, :, std_col]
        mean = (ca * mean_a + cb * mean_b) / total
        second_moment = ca * (std_a**2 + mean_a**2) + cb * (std_b**2 + mean_b**2)
        variance = np.maximum(second_moment / total - mean**2, 0.0)
        std = np.sqrt(variance)
        safe = np.abs(mean) > 1e-12
        merged[both, :, mean_col] = mean
        merged[both, :, std_col] = std
        merged[both, :, cv_col] = np.divide(std, mean, out=np.zeros_like(std), where=safe)
    return merged, counts_a + counts_b


def stat_matrix(
    metrics: dict[str, np.ndarray],
    cold_start: np.ndarray | None = None,
    exclude_cold_starts: bool = True,
    window: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Reduce columnar per-invocation metrics to a ``(n_metrics, n_stats)`` array.

    The dict-free core of the aggregation layer: one row per Table-1 metric
    (in :data:`~repro.monitoring.metrics.METRIC_NAMES` order), one column per
    statistic (in :data:`STAT_NAMES` order), plus the number of invocations
    that survived the masks.  Semantics match the record path exactly: an
    empty ``window`` falls back to the full batch, and an all-cold window
    falls back to including the cold starts.

    This is the single code path every aggregation flows through — the object
    API (:func:`aggregate_arrays`), the columnar measurement table
    (:class:`~repro.dataset.table.MeasurementTable`) and the fused grouped
    path all wrap it or its segmented core :func:`grouped_stat_blocks` (this
    function *is* the one-group case of that core), so their numbers are
    bit-identical.
    """
    first = next((metrics[m] for m in METRIC_NAMES if m in metrics), None)
    if first is not None and np.asarray(first).shape[0] == 0:
        raise MonitoringError("cannot aggregate an empty metric batch")
    n = int(np.asarray(first).shape[0]) if first is not None else 0
    blocks, counts = grouped_stat_blocks(
        metrics,
        np.array([0, n], dtype=np.int64),
        cold_start=cold_start,
        exclude_cold_starts=exclude_cold_starts,
        window=window,
    )
    return blocks[0], int(counts[0])


def summary_from_stats(
    function_name: str,
    memory_mb: float,
    stats: np.ndarray,
    n_invocations: int,
) -> MonitoringSummary:
    """Wrap a :func:`stat_matrix` result into a :class:`MonitoringSummary`.

    The object-API view over one row of the columnar measurement table.
    """
    stats = np.asarray(stats, dtype=float)
    if stats.shape != (len(METRIC_NAMES), len(STAT_NAMES)):
        raise MonitoringError(
            f"expected a ({len(METRIC_NAMES)}, {len(STAT_NAMES)}) stat matrix, "
            f"got shape {stats.shape}"
        )
    column = {stat: index for index, stat in enumerate(STAT_NAMES)}
    aggregates = {
        metric: MetricAggregate(
            name=metric,
            mean=float(stats[i, column["mean"]]),
            std=float(stats[i, column["std"]]),
            cv=float(stats[i, column["cv"]]),
            n_samples=int(n_invocations),
        )
        for i, metric in enumerate(METRIC_NAMES)
    }
    return MonitoringSummary(
        function_name=function_name,
        memory_mb=float(memory_mb),
        aggregates=aggregates,
        n_invocations=int(n_invocations),
    )


def aggregate_arrays(
    function_name: str,
    memory_mb: float,
    metrics: dict[str, np.ndarray],
    cold_start: np.ndarray | None = None,
    exclude_cold_starts: bool = True,
    window: np.ndarray | None = None,
) -> MonitoringSummary:
    """Aggregate columnar per-invocation metrics into a summary.

    The batch-execution counterpart of :func:`aggregate_records`: instead of a
    list of per-invocation records it consumes one sample array per metric
    (plus optional cold-start and measurement-window masks), so large
    measurement windows never materialize per-invocation dictionaries.  All
    metric columns are reduced in one matrix pass through :func:`stat_matrix`.
    """
    stats, n_invocations = stat_matrix(
        metrics,
        cold_start=cold_start,
        exclude_cold_starts=exclude_cold_starts,
        window=window,
    )
    return summary_from_stats(function_name, memory_mb, stats, n_invocations)
