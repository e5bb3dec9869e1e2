"""End-to-end Sizeless pipeline: offline training phase + online phase.

:class:`SizelessPipeline` wires the whole approach of paper Figure 2 together:

1. **Offline phase** — generate synthetic functions, measure them across all
   memory sizes on the (simulated) platform in grouped chunks, and train
   the multi-target regression model(s).
2. **Online phase** — monitor a production function at a single memory size
   (a one-function chunk of the same harness path) and recommend the
   optimal size.

The defaults are laptop-scale (a few hundred synthetic functions, a light
network); every knob can be raised to the paper's full scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ModelError
from repro.core.features import DEFAULT_FEATURE_SET
from repro.core.model import SizelessModel, default_network_config
from repro.core.optimizer import MemoryRecommendation
from repro.core.predictor import PredictionResult, SizelessPredictor
from repro.core.training import train_model
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.schema import MeasurementDataset
from repro.dataset.sharding import ShardedMeasurementTable, validate_sharding_options
from repro.dataset.table import MeasurementTable
from repro.ml.network import NetworkConfig
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.pricing import PricingModel
from repro.workloads.function import FunctionSpec
from repro.workloads.loadgen import Workload


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of the end-to-end pipeline.

    Attributes
    ----------
    n_training_functions:
        Number of synthetic functions in the offline phase (paper: 2 000).
    invocations_per_size:
        Simulated invocations aggregated per (function, size) measurement.
    memory_sizes_mb:
        The candidate memory sizes (paper: the six AWS sizes).
    base_memory_sizes_mb:
        Base sizes to train models for.  The paper recommends 256 MB; pass all
        six to reproduce Table 3 / Figure 6.
    network:
        Neural-network hyperparameters (defaults to
        :func:`repro.core.model.default_network_config`); use
        ``NetworkConfig()`` for the paper's exact Table-2 configuration.
    feature_names:
        Feature set used by the models (defaults to the paper's final F4 set).
    monitoring_invocations:
        Invocations used when monitoring a production function online.
    tradeoff:
        Default cost/performance trade-off for recommendations.
    provider:
        Pricing provider name.
    seed:
        Master seed for dataset generation, platform noise and training.
    backend:
        Execution backend for all simulated measurements (offline dataset
        generation and online monitoring): ``"serial"``, ``"vectorized"`` or
        ``"parallel"``.
    n_workers:
        Worker count for the parallel backend (``None`` = CPU count).
    shard_size:
        When set, the offline phase generates a sharded out-of-core training
        table with this many functions per on-disk shard (``None`` keeps the
        in-memory table); see :mod:`repro.dataset.sharding`.
    shard_directory:
        Target directory of the sharded training table (``None`` lets the
        generator pick a temporary directory).
    """

    n_training_functions: int = 200
    invocations_per_size: int = 25
    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    base_memory_sizes_mb: tuple[int, ...] = (256,)
    network: NetworkConfig = field(default_factory=default_network_config)
    feature_names: tuple[str, ...] = DEFAULT_FEATURE_SET
    monitoring_invocations: int = 25
    tradeoff: float = 0.75
    provider: str = "aws"
    seed: int = 42
    backend: str = "vectorized"
    n_workers: int | None = None
    shard_size: int | None = None
    shard_directory: str | None = None

    def __post_init__(self) -> None:
        if self.n_training_functions < 5:
            raise ConfigurationError("n_training_functions must be at least 5")
        validate_sharding_options(self.shard_size, self.shard_directory)
        if not self.base_memory_sizes_mb:
            raise ConfigurationError("base_memory_sizes_mb must not be empty")
        unknown = set(self.base_memory_sizes_mb) - set(self.memory_sizes_mb)
        if unknown:
            raise ConfigurationError(
                f"base sizes {sorted(unknown)} are not among memory_sizes_mb"
            )


class SizelessPipeline:
    """Offline training phase and online recommendation phase in one object."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.table: MeasurementTable | ShardedMeasurementTable | None = None
        self._dataset: MeasurementDataset | None = None
        self.models: dict[int, SizelessModel] = {}
        self.predictor: SizelessPredictor | None = None
        self.pricing = PricingModel.for_provider(self.config.provider)
        # Separate platform (different seed) for the online phase so that the
        # production measurements are not correlated with the training noise.
        self._online_platform = ServerlessPlatform(
            config=PlatformConfig(
                provider=self.config.provider,
                allowed_memory_sizes_mb=None,
                seed=self.config.seed + 1000,
            )
        )

    @property
    def dataset(self) -> MeasurementDataset | None:
        """Object-API view of the training measurements.

        Materialized lazily from :attr:`table` on first access, so the
        columnar offline phase pays for the per-summary object graph only
        when a caller actually asks for it.
        """
        if self._dataset is None and self.table is not None:
            self._dataset = self.table.to_dataset()
        return self._dataset

    @dataset.setter
    def dataset(self, value: MeasurementDataset | None) -> None:
        # Keep the two views coherent: the table is the canonical artefact,
        # so replacing the dataset re-columnarizes it (and clearing the
        # dataset clears the table, otherwise the lazy getter would silently
        # resurrect the old measurements).
        self._dataset = value
        self.table = value.to_table() if value is not None else None

    # ---------------------------------------------------------------- offline
    def run_offline_phase(self, progress_callback=None) -> SizelessPredictor:
        """Generate the training dataset and train the per-base-size models.

        The dataset is measured straight into a columnar
        :class:`~repro.dataset.table.MeasurementTable`; all per-base-size
        models are then trained by indexing that one table (the object-API
        :attr:`dataset` view is materialized lazily on first access).
        """
        generation_config = DatasetGenerationConfig(
            n_functions=self.config.n_training_functions,
            memory_sizes_mb=self.config.memory_sizes_mb,
            invocations_per_size=self.config.invocations_per_size,
            seed=self.config.seed,
            backend=self.config.backend,
            n_workers=self.config.n_workers,
            shard_size=self.config.shard_size,
            shard_directory=self.config.shard_directory,
        )
        generator = TrainingDatasetGenerator(generation_config)
        return self.train(generator.generate_table(progress_callback=progress_callback))

    def train(
        self,
        dataset: MeasurementDataset | MeasurementTable | ShardedMeasurementTable,
    ) -> SizelessPredictor:
        """Train models on existing measurements (skips dataset generation).

        Accepts any representation — in-memory table, sharded out-of-core
        table, or object-API dataset (columnarized once); every base size
        trains from the same table.
        """
        if len(dataset) == 0:
            raise ConfigurationError("cannot train on an empty dataset")
        if isinstance(dataset, (MeasurementTable, ShardedMeasurementTable)):
            self.table = dataset
            self._dataset = None
        else:
            self.table = dataset.to_table()
            self._dataset = dataset
        self.models = {}
        for base_size in self.config.base_memory_sizes_mb:
            targets = tuple(
                size for size in self.config.memory_sizes_mb if size != base_size
            )
            self.models[int(base_size)] = train_model(
                self.table,
                base_memory_mb=base_size,
                network_config=self.config.network,
                feature_names=self.config.feature_names,
                target_memory_sizes_mb=targets,
            )
        self.predictor = SizelessPredictor(
            self.models, pricing=self.pricing, default_tradeoff=self.config.tradeoff
        )
        return self.predictor

    # ----------------------------------------------------------------- online
    def _require_predictor(self) -> SizelessPredictor:
        if self.predictor is None:
            raise ModelError(
                "the offline phase has not run; call run_offline_phase() or train() first"
            )
        return self.predictor

    def monitor_function(
        self,
        function: FunctionSpec,
        base_memory_mb: int | None = None,
        workload: Workload | None = None,
    ):
        """Monitor a production function at a single (base) memory size.

        Returns the :class:`~repro.monitoring.aggregation.MonitoringSummary`
        that the online phase consumes.
        """
        base_size = (
            int(base_memory_mb)
            if base_memory_mb is not None
            else int(self.config.base_memory_sizes_mb[0])
        )
        harness = MeasurementHarness(
            platform=self._online_platform,
            config=HarnessConfig(
                memory_sizes_mb=(base_size,),
                workload=workload
                if workload is not None
                else Workload(requests_per_second=30.0, duration_s=600.0, warmup_s=30.0),
                max_invocations_per_size=self.config.monitoring_invocations,
                seed=self.config.seed + 2000,
                backend=self.config.backend,
                n_workers=self.config.n_workers,
            ),
        )
        measurement = harness.measure_function(function, memory_sizes_mb=(base_size,))
        return measurement.summary_at(base_size)

    def predict(self, function: FunctionSpec, base_memory_mb: int | None = None) -> PredictionResult:
        """Monitor a function online and predict its times at every size."""
        predictor = self._require_predictor()
        summary = self.monitor_function(function, base_memory_mb=base_memory_mb)
        return predictor.predict(summary)

    def recommend(
        self,
        function: FunctionSpec,
        tradeoff: float | None = None,
        base_memory_mb: int | None = None,
    ) -> MemoryRecommendation:
        """Monitor a function online and recommend its optimal memory size."""
        predictor = self._require_predictor()
        summary = self.monitor_function(function, base_memory_mb=base_memory_mb)
        return predictor.recommend(summary, tradeoff=tradeoff)
