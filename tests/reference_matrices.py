"""The per-summary training-matrix loop: the table path's bit-exact oracle.

:func:`reference_matrices` assembles the feature / target matrices of one
base memory size the way the object API once did inside ``src/``: one
:class:`~repro.dataset.schema.FunctionMeasurement` at a time, one feature at
a time, each read off a
:class:`~repro.monitoring.aggregation.MonitoringSummary` with scalar
arithmetic (:func:`reference_feature`).  It shares no arithmetic with
:func:`repro.core.training.build_training_matrices` or
:class:`repro.core.features.FeatureExtractor`, so a parity test comparing
them catches a slip in either.  ``tests/`` and ``benchmarks/`` import this
module.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import DEFAULT_FEATURE_SET
from repro.core.training import TrainingMatrices
from repro.errors import DatasetError, MonitoringError

_SUFFIXES = ("_per_second", "_mean", "_std", "_cv")


def reference_feature(name: str, summary) -> float:
    """One feature of one summary, by the feature-name grammar."""
    suffix = next(suffix for suffix in _SUFFIXES if name.endswith(suffix))
    metric = name[: -len(suffix)]
    if suffix == "_mean":
        return summary.mean(metric)
    if suffix == "_std":
        return summary.std(metric)
    if suffix == "_cv":
        return summary.cv(metric)
    execution_time_s = summary.mean_execution_time_ms / 1000.0
    if execution_time_s <= 0:
        raise MonitoringError("cannot normalise by a non-positive execution time")
    return summary.mean(metric) / execution_time_s


def reference_features(feature_names, summary) -> np.ndarray:
    """The feature vector of one summary, feature by feature."""
    return np.array([reference_feature(name, summary) for name in feature_names], dtype=float)


def reference_matrices(
    dataset,
    base_memory_mb: int = 256,
    target_memory_sizes_mb: tuple[int, ...] | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> TrainingMatrices:
    """Training matrices of a :class:`MeasurementDataset`, one summary at a time.

    Functions missing a measurement at the base or any target size, or with
    a non-positive base time, are skipped, as in the table path.
    """
    if len(dataset) == 0:
        raise DatasetError("cannot build training matrices from an empty dataset")
    if target_memory_sizes_mb is None:
        target_memory_sizes_mb = tuple(
            size for size in dataset.common_memory_sizes() if size != base_memory_mb
        )
    names = tuple(feature_names) if feature_names else DEFAULT_FEATURE_SET
    required = (base_memory_mb, *target_memory_sizes_mb)
    rows, targets, base_times, functions = [], [], [], []
    for measurement in dataset:
        if not measurement.has_all_sizes(required):
            continue
        base_summary = measurement.summary_at(base_memory_mb)
        base_time = base_summary.mean_execution_time_ms
        if base_time <= 0:
            continue
        rows.append(reference_features(names, base_summary))
        targets.append(
            [measurement.execution_time_ms(size) / base_time for size in target_memory_sizes_mb]
        )
        base_times.append(base_time)
        functions.append(measurement.function_name)
    if not rows:
        raise DatasetError(
            f"no function in the dataset has measurements at all of {list(required)}"
        )
    return TrainingMatrices(
        base_memory_mb=int(base_memory_mb),
        target_memory_sizes_mb=tuple(int(size) for size in target_memory_sizes_mb),
        feature_names=names,
        features=np.vstack(rows),
        ratios=np.array(targets, dtype=float),
        base_execution_times_ms=np.array(base_times, dtype=float),
        function_names=tuple(functions),
    )
