"""The multi-target regression model (paper Section 3.4).

One :class:`SizelessModel` is trained per *base* memory size.  Its inputs are
the features extracted from monitoring data at that base size; its outputs are
the execution-time *ratios* of the five remaining (target) memory sizes
relative to the base execution time.  Expressing targets as ratios equalises
the scale of the target variables, exactly as the paper's preprocessing step
does; absolute execution-time predictions are recovered by multiplying the
ratios with the monitored base execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ModelError
from repro.core.features import DEFAULT_FEATURE_SET, FeatureExtractor
from repro.ml.network import NetworkConfig, NeuralNetwork
from repro.monitoring.aggregation import MonitoringSummary


def default_network_config() -> NetworkConfig:
    """The network configuration used by default for Sizeless models.

    The paper's grid-search winner (Table 2: Adam, MAPE, 200 epochs, 4 layers
    of 256 neurons, L2 = 1e-2) was tuned for a 2 000-function AWS dataset.
    On the simulator-scale datasets this repository generates by default
    (hundreds of functions), a slightly smaller network trained longer with a
    larger learning rate and MSE on log-ratio targets reaches better
    cross-validated accuracy and trains in seconds; the Table-2 configuration
    remains available via :class:`~repro.ml.network.NetworkConfig` defaults
    and is exercised by the hyperparameter-search experiment.
    """
    return NetworkConfig(
        n_layers=3,
        n_neurons=128,
        optimizer="adam",
        learning_rate=0.01,
        loss="mse",
        epochs=400,
        l2=0.0001,
        batch_size=32,
        seed=0,
    )


@dataclass(frozen=True)
class SizelessModelConfig:
    """Configuration of one per-base-size regression model.

    Attributes
    ----------
    base_memory_mb:
        Memory size the monitoring data comes from.
    target_memory_sizes_mb:
        Memory sizes whose execution time is predicted (must not include the
        base size).
    feature_names:
        Features extracted from the base-size monitoring summary.
    network:
        Hyperparameters of the underlying neural network (defaults to
        :func:`default_network_config`).
    log_targets:
        Train on ``log(ratio)`` instead of the raw ratio.  This equalises the
        scale of the five target columns (the paper achieves the same goal by
        expressing targets as ratios of the input execution time; the log
        additionally symmetrises speed-ups and slow-downs) and is inverted
        transparently at prediction time.
    """

    base_memory_mb: int = 256
    target_memory_sizes_mb: tuple[int, ...] = (128, 512, 1024, 2048, 3008)
    feature_names: tuple[str, ...] = DEFAULT_FEATURE_SET
    network: NetworkConfig = field(default_factory=default_network_config)
    log_targets: bool = True

    def __post_init__(self) -> None:
        if self.base_memory_mb <= 0:
            raise ConfigurationError("base_memory_mb must be positive")
        if not self.target_memory_sizes_mb:
            raise ConfigurationError("target_memory_sizes_mb must not be empty")
        if self.base_memory_mb in self.target_memory_sizes_mb:
            raise ConfigurationError("the base size must not be among the target sizes")
        if len(set(self.target_memory_sizes_mb)) != len(self.target_memory_sizes_mb):
            raise ConfigurationError("target_memory_sizes_mb contains duplicates")


class SizelessModel:
    """Multi-target regressor: base-size monitoring data -> time ratios.

    Examples
    --------
    The typical flow (performed by :func:`repro.core.training.train_model`)::

        model = SizelessModel(SizelessModelConfig(base_memory_mb=256))
        model.fit(features, ratios)           # ratios: one column per target size
        ratios = model.predict_ratios(features_of_new_function)
        times = model.predict_execution_times(summary_of_new_function)
    """

    def __init__(self, config: SizelessModelConfig | None = None) -> None:
        self.config = config if config is not None else SizelessModelConfig()
        self.extractor = FeatureExtractor(self.config.feature_names)
        self.network = NeuralNetwork(self.config.network)
        self._fitted = False
        # Prediction columns (ascending sizes) of the base and target sizes.
        base, targets = int(self.config.base_memory_mb), self.config.target_memory_sizes_mb
        self._sizes = tuple(sorted((base, *(int(size) for size in targets))))
        self._base_column = self._sizes.index(base)
        self._target_columns = [self._sizes.index(int(size)) for size in targets]

    # ------------------------------------------------------------------ props
    @property
    def base_memory_mb(self) -> int:
        """The base memory size this model expects monitoring data from."""
        return self.config.base_memory_mb

    @property
    def target_memory_sizes_mb(self) -> tuple[int, ...]:
        """Memory sizes predicted by this model."""
        return self.config.target_memory_sizes_mb

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    # -------------------------------------------------------------------- fit
    def fit(self, features: np.ndarray, ratios: np.ndarray) -> "SizelessModel":
        """Train on a feature matrix and the matching ratio targets.

        ``ratios[:, j]`` must be ``time(target_j) / time(base)`` with target
        sizes ordered as in :attr:`target_memory_sizes_mb`.
        """
        features = np.asarray(features, dtype=float)
        ratios = np.asarray(ratios, dtype=float)
        if ratios.ndim != 2 or ratios.shape[1] != len(self.config.target_memory_sizes_mb):
            raise ModelError(
                f"ratios must have {len(self.config.target_memory_sizes_mb)} columns"
            )
        if features.shape[1] != self.extractor.n_features:
            raise ModelError(
                f"expected {self.extractor.n_features} features, got {features.shape[1]}"
            )
        if np.any(ratios <= 0):
            raise ModelError("execution-time ratios must be positive")
        targets = np.log(ratios) if self.config.log_targets else ratios
        self.network.fit(features, targets)
        self._fitted = True
        return self

    # ---------------------------------------------------------------- predict
    def predict_ratios(self, features: np.ndarray) -> np.ndarray:
        """Predict execution-time ratios for a feature matrix (or single row)."""
        if not self._fitted:
            raise ModelError("predict called before fit")
        features = np.asarray(features, dtype=float)
        single = features.ndim == 1
        if single:
            features = features.reshape(1, -1)
        predictions = self.network.predict(features)
        if self.config.log_targets:
            # Clip before exponentiating so a wild extrapolation cannot overflow.
            ratios = np.exp(np.clip(predictions, -10.0, 10.0))
        else:
            ratios = predictions
        # Ratios are positive by construction; clamp tiny/negative predictions
        # so downstream cost computations stay well-defined.
        ratios = np.maximum(ratios, 1e-3)
        return ratios[0] if single else ratios

    def predict_execution_times(self, summary: MonitoringSummary) -> dict[int, float]:
        """Predict the execution time (ms) of every memory size for one function.

        The one-row case of :meth:`predict_times_matrix`.  The monitored base
        size keeps its *observed* execution time (paper Section 3.5: "for
        monitored memory sizes the observed values can be used").
        """
        if float(summary.memory_mb) != float(self.config.base_memory_mb):
            raise ModelError(
                f"summary was monitored at {summary.memory_mb} MB but the model "
                f"expects base size {self.config.base_memory_mb} MB"
            )
        times = self.predict_times_matrix(
            self.extractor.extract(summary)[None], np.array([summary.mean_execution_time_ms])
        )
        return dict(zip(self.all_memory_sizes_mb, times[0].tolist()))

    @property
    def all_memory_sizes_mb(self) -> tuple[int, ...]:
        """Base and target sizes sorted ascending (prediction column order)."""
        return self._sizes

    def predict_times_matrix(
        self, features: np.ndarray, base_times_ms: np.ndarray
    ) -> np.ndarray:
        """Predict execution times for a whole feature matrix in one pass.

        One network forward pass over all rows, one broadcast multiply
        against the monitored base execution times — no per-function Python
        loop.  Returns a ``(n_functions, n_sizes)`` matrix with columns
        ordered as :attr:`all_memory_sizes_mb`; the base-size column carries
        the *observed* base times unchanged (paper Section 3.5).
        :meth:`predict_execution_times` is its one-row case.
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ModelError("features must be a (n_functions, n_features) matrix")
        base_times = np.asarray(base_times_ms, dtype=float)
        if base_times.shape != (features.shape[0],):
            raise ModelError("base_times_ms must have one entry per feature row")
        if not (np.isfinite(base_times).all() and (base_times > 0).all()):
            raise ModelError("base execution times must be positive and finite")
        ratios = self.predict_ratios(features)
        times = np.empty((features.shape[0], len(self._target_columns) + 1), dtype=float)
        times[:, self._base_column] = base_times
        times[:, self._target_columns] = base_times[:, None] * ratios
        return times

    # ----------------------------------------------------------- persistence
    def get_state(self) -> dict[str, object]:
        """Return a serialisable snapshot of the trained model."""
        if not self._fitted:
            raise ModelError("cannot snapshot an unfitted model")
        return {
            "config": self.config,
            "weights": self.network.get_weights(),
            "scaler_mean": None if self.network._scaler is None else self.network._scaler.mean_,
            "scaler_scale": None if self.network._scaler is None else self.network._scaler.scale_,
        }

    def __repr__(self) -> str:
        return (
            f"SizelessModel(base={self.config.base_memory_mb}MB, "
            f"targets={list(self.config.target_memory_sizes_mb)}, fitted={self._fitted})"
        )
