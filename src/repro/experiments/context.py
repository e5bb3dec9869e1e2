"""Shared, cached state for the evaluation experiments.

Reproducing the paper's evaluation needs three expensive artefacts:

1. the synthetic training dataset (functions measured at all six sizes),
2. the trained per-base-size models,
3. ground-truth measurements of the 27 case-study functions at all six sizes
   (with repetitions, like the paper's ten repeated trials).

:class:`ExperimentContext` builds each artefact lazily and caches it so that
all experiment modules and benchmarks can share one instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.core.features import DEFAULT_FEATURE_SET
from repro.core.model import SizelessModel, default_network_config
from repro.core.optimizer import MemorySizeOptimizer, TradeoffConfig
from repro.core.training import build_training_matrices, train_model
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.schema import FunctionMeasurement, MeasurementDataset
from repro.dataset.sharding import ShardedMeasurementTable, validate_sharding_options
from repro.dataset.table import MeasurementTable
from repro.ml.network import NetworkConfig
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.pricing import PricingModel
from repro.workloads.applications import CaseStudyApplication, all_case_studies


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs for the evaluation experiments.

    The paper's full scale (2 000 training functions, 18 000 invocations per
    measurement, 10 repetitions per case-study function) is reachable by
    constructing this dataclass with the corresponding values; the presets
    below keep laptop runs fast while preserving the experiment structure.
    """

    name: str = "standard"
    n_training_functions: int = 300
    train_invocations_per_size: int = 25
    case_invocations_per_size: int = 25
    case_repetitions: int = 3
    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    default_base_size_mb: int = 256
    network: NetworkConfig = field(default_factory=default_network_config)
    feature_names: tuple[str, ...] = DEFAULT_FEATURE_SET
    seed: int = 42
    backend: str = "vectorized"
    n_workers: int | None = None
    shard_size: int | None = None
    shard_directory: str | None = None

    def __post_init__(self) -> None:
        if self.n_training_functions < 5:
            raise ConfigurationError("n_training_functions must be at least 5")
        validate_sharding_options(self.shard_size, self.shard_directory)
        if self.default_base_size_mb not in self.memory_sizes_mb:
            raise ConfigurationError("default_base_size_mb must be a candidate size")
        if self.case_repetitions < 1:
            raise ConfigurationError("case_repetitions must be at least 1")

    @staticmethod
    def quick() -> "ExperimentScale":
        """Small preset used by the test suite (finishes in tens of seconds)."""
        return ExperimentScale(
            name="quick",
            n_training_functions=100,
            train_invocations_per_size=12,
            case_invocations_per_size=12,
            case_repetitions=1,
            network=NetworkConfig(
                n_layers=3, n_neurons=96, epochs=300, learning_rate=0.01,
                loss="mse", l2=0.0001, seed=0,
            ),
        )

    @staticmethod
    def standard() -> "ExperimentScale":
        """Default preset used by the benchmarks (a few minutes end to end)."""
        return ExperimentScale()

    @staticmethod
    def paper() -> "ExperimentScale":
        """The paper's measurement scale (hours of simulation + training)."""
        return ExperimentScale(
            name="paper",
            n_training_functions=2000,
            train_invocations_per_size=120,
            case_invocations_per_size=120,
            case_repetitions=10,
            backend="parallel",
        )


class ExperimentContext:
    """Lazily builds and caches the artefacts shared by all experiments."""

    def __init__(self, scale: ExperimentScale | None = None) -> None:
        self.scale = scale if scale is not None else ExperimentScale.standard()
        self.pricing = PricingModel()
        self._table: MeasurementTable | ShardedMeasurementTable | None = None
        self._dataset: MeasurementDataset | None = None
        self._models: dict[int, SizelessModel] = {}
        self._case_measurements: dict[str, list[list[FunctionMeasurement]]] | None = None
        self._applications: list[CaseStudyApplication] | None = None

    # --------------------------------------------------------------- dataset
    def training_table(self) -> MeasurementTable | ShardedMeasurementTable:
        """The synthetic training measurements as a columnar table.

        Generated once (straight from engine batch columns) and cached; the
        object-API :meth:`training_dataset` view and all training matrices
        derive from this one artefact.  When the scale sets ``shard_size``,
        the table is generated out of core and every downstream consumer
        (training matrices, Figure-4 selection, Table-2 grid search) streams
        it shard by shard.
        """
        if self._table is None:
            generator = TrainingDatasetGenerator(
                DatasetGenerationConfig(
                    n_functions=self.scale.n_training_functions,
                    memory_sizes_mb=self.scale.memory_sizes_mb,
                    invocations_per_size=self.scale.train_invocations_per_size,
                    seed=self.scale.seed,
                    backend=self.scale.backend,
                    n_workers=self.scale.n_workers,
                    shard_size=self.scale.shard_size,
                    shard_directory=self.scale.shard_directory,
                )
            )
            self._table = generator.generate_table()
        return self._table

    def training_dataset(self) -> MeasurementDataset:
        """The synthetic training dataset (object-API view of the table)."""
        if self._dataset is None:
            self._dataset = self.training_table().to_dataset()
        return self._dataset

    def training_matrices(self, base_memory_mb: int | None = None):
        """Training matrices for one base size (defaults to the paper's 256 MB)."""
        base = base_memory_mb if base_memory_mb is not None else self.scale.default_base_size_mb
        return build_training_matrices(
            self.training_table(),
            base_memory_mb=base,
            feature_names=self.scale.feature_names,
        )

    # ----------------------------------------------------------------- models
    def model(self, base_memory_mb: int | None = None) -> SizelessModel:
        """The trained model for one base size (trained once, then cached)."""
        base = int(
            base_memory_mb if base_memory_mb is not None else self.scale.default_base_size_mb
        )
        if base not in self._models:
            targets = tuple(size for size in self.scale.memory_sizes_mb if size != base)
            self._models[base] = train_model(
                self.training_table(),
                base_memory_mb=base,
                network_config=self.scale.network,
                feature_names=self.scale.feature_names,
                target_memory_sizes_mb=targets,
            )
        return self._models[base]

    # ----------------------------------------------------------- case studies
    def applications(self) -> list[CaseStudyApplication]:
        """The four case-study applications."""
        if self._applications is None:
            self._applications = all_case_studies()
        return self._applications

    def case_measurements(self) -> dict[str, list[list[FunctionMeasurement]]]:
        """Ground-truth measurements of every case-study function.

        Returns ``{application name: [repetition][function index]}`` where each
        entry is a :class:`~repro.dataset.schema.FunctionMeasurement` covering
        all six memory sizes.  Repetitions use different platform seeds, like
        the paper's randomized multiple interleaved trials.
        """
        if self._case_measurements is None:
            measurements: dict[str, list[list[FunctionMeasurement]]] = {}
            for app_index, application in enumerate(self.applications()):
                repetitions = []
                for repetition in range(self.scale.case_repetitions):
                    seed = self.scale.seed + 10_000 + 97 * app_index + repetition
                    platform = ServerlessPlatform(
                        config=PlatformConfig(allowed_memory_sizes_mb=None, seed=seed)
                    )
                    harness = MeasurementHarness(
                        platform=platform,
                        config=HarnessConfig(
                            memory_sizes_mb=self.scale.memory_sizes_mb,
                            max_invocations_per_size=self.scale.case_invocations_per_size,
                            seed=seed + 1,
                            backend=self.scale.backend,
                            n_workers=self.scale.n_workers,
                        ),
                    )
                    repetitions.append(
                        [harness.measure_function(function) for function in application.functions]
                    )
                measurements[application.name] = repetitions
            self._case_measurements = measurements
        return self._case_measurements

    def true_execution_times(self, application_name: str, function_name: str) -> dict[int, float]:
        """Mean measured execution time per size, averaged over repetitions."""
        repetitions = self.case_measurements()[application_name]
        times: dict[int, list[float]] = {}
        for repetition in repetitions:
            for measurement in repetition:
                if measurement.function_name != function_name:
                    continue
                for size, value in measurement.execution_times().items():
                    times.setdefault(size, []).append(value)
        return {size: float(np.mean(values)) for size, values in sorted(times.items())}

    def predicted_execution_times(
        self, application_name: str, function_name: str, base_memory_mb: int | None = None
    ) -> dict[int, float]:
        """Model predictions for one case-study function from one base size.

        The monitoring summary of the *first* repetition at the base size is
        used as the online-phase input (production monitoring happens once).
        """
        base = int(
            base_memory_mb if base_memory_mb is not None else self.scale.default_base_size_mb
        )
        repetitions = self.case_measurements()[application_name]
        for measurement in repetitions[0]:
            if measurement.function_name == function_name:
                summary = measurement.summary_at(base)
                return self.model(base).predict_execution_times(summary)
        raise ConfigurationError(
            f"function {function_name!r} not found in application {application_name!r}"
        )

    # -------------------------------------------------------------- optimizer
    def optimizer(self, tradeoff: float = 0.75) -> MemorySizeOptimizer:
        """A memory-size optimizer bound to the context's pricing model."""
        return MemorySizeOptimizer(pricing=self.pricing, tradeoff=TradeoffConfig(tradeoff))

    def function_names(self, application_name: str) -> list[str]:
        """Function names of one case-study application."""
        for application in self.applications():
            if application.name == application_name:
                return application.function_names
        raise ConfigurationError(f"unknown application {application_name!r}")
