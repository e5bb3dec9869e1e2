"""Training pipeline: matrices, cross-validation (Table 3), final training.

This module turns measurements into the numpy matrices the regression model
consumes, runs the repeated k-fold cross-validation the paper uses to compare
base memory sizes, and trains the final per-base-size models.  Matrices are
assembled from a columnar :class:`~repro.dataset.table.MeasurementTable` by
array indexing and slicing, or from its out-of-core sibling, the
:class:`~repro.dataset.sharding.ShardedMeasurementTable`, by the same
assembly streamed one shard at a time so the dense stat arrays never fully
reside in memory.  An object-API
:class:`~repro.dataset.schema.MeasurementDataset` is columnarized once first.

The per-summary loop that assembled matrices from objects lives on in
``tests/reference_matrices.py`` as the parity oracle the table path must
equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.core.features import FeatureExtractor
from repro.core.model import SizelessModel, SizelessModelConfig, default_network_config
from repro.dataset.schema import MeasurementDataset
from repro.dataset.sharding import ShardedMeasurementTable
from repro.dataset.table import MeasurementAxes, MeasurementTable
from repro.ml.network import NetworkConfig
from repro.ml.validation import RepeatedKFold, cross_validate

#: Either representation of a columnar measurement campaign.
AnyMeasurementTable = MeasurementTable | ShardedMeasurementTable


@dataclass(frozen=True)
class TrainingMatrices:
    """Feature / target matrices for one base memory size.

    Attributes
    ----------
    base_memory_mb:
        The base size the features were monitored at.
    target_memory_sizes_mb:
        Target sizes in column order of ``ratios``.
    feature_names:
        Feature names in column order of ``features``.
    features:
        ``(n_functions, n_features)`` feature matrix.
    ratios:
        ``(n_functions, n_targets)`` execution-time ratios (target / base).
    base_execution_times_ms:
        Mean execution time at the base size for every function (used to
        convert predicted ratios back to absolute times).
    function_names:
        Function name of each row.
    """

    base_memory_mb: int
    target_memory_sizes_mb: tuple[int, ...]
    feature_names: tuple[str, ...]
    features: np.ndarray
    ratios: np.ndarray
    base_execution_times_ms: np.ndarray
    function_names: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        """Number of functions in the matrices."""
        return len(self.function_names)


def build_training_matrices(
    dataset: MeasurementDataset | AnyMeasurementTable,
    base_memory_mb: int = 256,
    target_memory_sizes_mb: tuple[int, ...] | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> TrainingMatrices:
    """Build the feature/target matrices for one base memory size.

    Accepts a columnar :class:`MeasurementTable`, a
    :class:`ShardedMeasurementTable` (the same assembly, streamed shard by
    shard) or an object-API :class:`MeasurementDataset` (columnarized once).
    Functions missing a measurement at the base or any target size are
    skipped; an empty result raises :class:`~repro.errors.DatasetError`.
    """
    table = dataset if isinstance(dataset, MeasurementAxes) else dataset.to_table()
    if table.n_functions == 0:
        raise DatasetError("cannot build training matrices from an empty dataset")
    if target_memory_sizes_mb is None:
        target_memory_sizes_mb = tuple(
            size for size in table.common_memory_sizes() if size != base_memory_mb
        )
    if not target_memory_sizes_mb:
        raise DatasetError("no target memory sizes available")
    extractor = FeatureExtractor(feature_names) if feature_names else FeatureExtractor()

    required = (base_memory_mb, *target_memory_sizes_mb)
    size_indices = [table.size_index(size) for size in required]
    execution_means = table.execution_time_ms()
    base_times = execution_means[:, size_indices[0]]
    valid = table.measured[:, size_indices].all(axis=1) & (base_times > 0)
    if not valid.any():
        raise DatasetError(
            f"no function in the dataset has measurements at all of {list(required)}"
        )
    rows = np.flatnonzero(valid)
    features = extractor.extract_table(
        table, memory_mb=base_memory_mb, function_indices=rows
    )
    ratios = execution_means[np.ix_(rows, size_indices[1:])] / base_times[rows, None]
    return TrainingMatrices(
        base_memory_mb=int(base_memory_mb),
        target_memory_sizes_mb=tuple(int(size) for size in target_memory_sizes_mb),
        feature_names=extractor.feature_names,
        features=features,
        ratios=ratios,
        base_execution_times_ms=base_times[rows],
        function_names=tuple(table.function_names[i] for i in rows),
    )


def cross_validate_base_size(
    dataset: MeasurementDataset | AnyMeasurementTable,
    base_memory_mb: int,
    network_config: NetworkConfig | None = None,
    n_splits: int = 5,
    n_repeats: int = 10,
    feature_names: tuple[str, ...] | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Repeated k-fold cross-validation for one base size (paper Table 3).

    Returns the mean MSE, MAPE, R^2 and explained variance over all folds.
    The paper uses ten iterations of five-fold cross-validation; reduce
    ``n_repeats`` for quicker runs.
    """
    matrices = build_training_matrices(
        dataset, base_memory_mb=base_memory_mb, feature_names=feature_names
    )
    network_config = network_config if network_config is not None else default_network_config()
    splitter = RepeatedKFold(n_splits=n_splits, n_repeats=n_repeats, seed=seed)

    def make_model() -> SizelessModel:
        return SizelessModel(
            SizelessModelConfig(
                base_memory_mb=matrices.base_memory_mb,
                target_memory_sizes_mb=matrices.target_memory_sizes_mb,
                feature_names=matrices.feature_names,
                network=network_config,
            )
        )

    result = cross_validate(
        make_model,
        matrices.features,
        matrices.ratios,
        splitter.split(matrices.n_samples),
        predict=lambda model, data: model.predict_ratios(data),
        collect_reports=True,
    )
    return result.mean_report()


def train_model(
    dataset: MeasurementDataset | AnyMeasurementTable,
    base_memory_mb: int = 256,
    network_config: NetworkConfig | None = None,
    feature_names: tuple[str, ...] | None = None,
    target_memory_sizes_mb: tuple[int, ...] | None = None,
) -> SizelessModel:
    """Train the final model for one base size on the full dataset."""
    matrices = build_training_matrices(
        dataset,
        base_memory_mb=base_memory_mb,
        target_memory_sizes_mb=target_memory_sizes_mb,
        feature_names=feature_names,
    )
    config = SizelessModelConfig(
        base_memory_mb=matrices.base_memory_mb,
        target_memory_sizes_mb=matrices.target_memory_sizes_mb,
        feature_names=matrices.feature_names,
        network=network_config if network_config is not None else default_network_config(),
    )
    model = SizelessModel(config)
    model.fit(matrices.features, matrices.ratios)
    return model
