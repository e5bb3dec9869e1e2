"""End-to-end training-dataset generation (paper Section 3.3).

Combines the synthetic function generator, the measurement harness and the
monitoring aggregation into one call: generate N unique synthetic functions,
measure them at all six memory sizes in grouped chunks (the harness's one
path, :mod:`repro.dataset.harness`), and return a table or a
:class:`~repro.dataset.schema.MeasurementDataset`.  The paper's full scale is
2 000 functions x 6 sizes x 18 000 invocations; the defaults below produce a
smaller (but structurally identical) dataset suitable for laptop runs, and
every knob can be raised to paper scale.

Datasets larger than RAM are generated out of core: pass ``shard_size`` (via
the config or :meth:`TrainingDatasetGenerator.generate_table`) and the
harness streams each measured function's stat block into a
:class:`~repro.dataset.sharding.ShardedTableWriter`, flushing one NPZ shard
to disk per ``shard_size`` functions.  Peak memory is then bounded by one
shard regardless of ``n_functions``
(``benchmarks/test_bench_sharding.py`` asserts this).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.schema import MeasurementDataset
from repro.dataset.sharding import (
    ShardedMeasurementTable,
    ShardedTableWriter,
    validate_sharding_options,
)
from repro.dataset.table import MeasurementTable
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.loadgen import Workload


@dataclass(frozen=True)
class DatasetGenerationConfig:
    """Configuration of the training-dataset generation run.

    Attributes
    ----------
    n_functions:
        Number of synthetic functions to generate and measure (paper: 2 000).
    memory_sizes_mb:
        Memory sizes measured per function (paper: the six AWS sizes).
    invocations_per_size:
        Simulated invocations aggregated per (function, size) pair.  The
        vectorized execution engine makes a window of 120 invocations (the
        same cap the paper-scale experiment preset uses) affordable by
        default; the paper's full 18 000-invocation windows are reachable by
        raising this knob.
    requests_per_second / duration_s:
        Open-loop workload parameters (paper: 30 req/s for 600 s).
    seed:
        Master seed; generator, platform and load generator derive from it.
    generator_config:
        Optional override for the synthetic function generator settings.
    backend:
        Execution backend measuring the functions: ``"serial"`` (the original
        scalar path), ``"vectorized"`` (numpy batches) or ``"parallel"``
        (vectorized batches fanned out over worker processes).
    n_workers:
        Worker count for the parallel backend (``None`` = CPU count).
    shard_size:
        When set, generate a sharded out-of-core table with this many
        functions per on-disk shard instead of one in-memory table
        (``None``, the default, keeps the in-memory path).
    shard_directory:
        Target directory of the sharded table.  ``None`` (the default) lets
        the generator create a fresh temporary directory; only meaningful
        together with ``shard_size``.
    """

    n_functions: int = 200
    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    invocations_per_size: int = 120
    requests_per_second: float = 30.0
    duration_s: float = 600.0
    warmup_s: float = 30.0
    seed: int = 42
    generator_config: GeneratorConfig | None = field(default=None)
    backend: str = "vectorized"
    n_workers: int | None = None
    shard_size: int | None = None
    shard_directory: str | None = None

    def __post_init__(self) -> None:
        if self.n_functions < 1:
            raise ConfigurationError("n_functions must be at least 1")
        if self.invocations_per_size < 2:
            raise ConfigurationError("invocations_per_size must be at least 2")
        if not self.memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")
        validate_sharding_options(self.shard_size, self.shard_directory)

    def workload(self) -> Workload:
        """The per-experiment workload implied by this configuration."""
        return Workload(
            requests_per_second=self.requests_per_second,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
        )


class TrainingDatasetGenerator:
    """Generates the synthetic-function training dataset."""

    def __init__(self, config: DatasetGenerationConfig | None = None) -> None:
        self.config = config if config is not None else DatasetGenerationConfig()
        generator_config = self.config.generator_config
        if generator_config is None:
            generator_config = GeneratorConfig(seed=self.config.seed)
        self.function_generator = SyntheticFunctionGenerator(config=generator_config)
        platform = ServerlessPlatform(
            config=PlatformConfig(allowed_memory_sizes_mb=None, seed=self.config.seed + 1)
        )
        harness_config = HarnessConfig(
            memory_sizes_mb=self.config.memory_sizes_mb,
            workload=self.config.workload(),
            max_invocations_per_size=self.config.invocations_per_size,
            seed=self.config.seed + 2,
            backend=self.config.backend,
            n_workers=self.config.n_workers,
        )
        self.harness = MeasurementHarness(platform=platform, config=harness_config)

    def _metadata(self) -> dict[str, object]:
        return {
            "n_functions": self.config.n_functions,
            "memory_sizes_mb": list(self.config.memory_sizes_mb),
            "invocations_per_size": self.config.invocations_per_size,
            "requests_per_second": self.config.requests_per_second,
            "duration_s": self.config.duration_s,
            "seed": self.config.seed,
            "backend": self.config.backend,
        }

    def _description(self) -> str:
        return (
            f"synthetic training dataset: {self.config.n_functions} functions x "
            f"{len(self.config.memory_sizes_mb)} memory sizes"
        )

    def _measure_inmemory_table(self, progress_callback=None) -> MeasurementTable:
        """Measure the configured dataset straight into an in-memory table."""
        return self.harness.measure_table(
            self.function_generator.generate(self.config.n_functions),
            progress_callback=progress_callback,
            description=self._description(),
            metadata=self._metadata(),
        )

    def generate_table(
        self,
        progress_callback=None,
        shard_size: int | None = None,
        shard_directory: str | Path | None = None,
    ) -> MeasurementTable | ShardedMeasurementTable:
        """Generate and measure the full dataset as a columnar table.

        The array-first path: measurements flow from the engine's batch
        columns straight into the dense
        :class:`~repro.dataset.table.MeasurementTable` without per-summary
        objects.

        Parameters
        ----------
        progress_callback:
            Optional ``callable(index, total, function_name)`` invoked after
            each measured function (used by the examples to print progress).
        shard_size:
            Generate a sharded out-of-core table with this many functions
            per on-disk shard.  Defaults to the config's ``shard_size``
            (``None`` keeps the in-memory table).
        shard_directory:
            Target directory of the sharded table; defaults to the config's
            ``shard_directory``, falling back to a fresh temporary directory
            (recorded in the table metadata under ``"shard_directory"``).
            Re-running generation into the same directory replaces the
            previous table, like the ``save_*`` helpers overwrite files.
            The directory — temporary or not — backs the returned table and
            is owned by the caller; it is never deleted automatically, so
            remove it when the table is no longer needed.

        Returns
        -------
        MeasurementTable or ShardedMeasurementTable
            The in-memory table, or — when sharding is requested — the
            sharded table backed by the written directory.  Both carry
            bit-identical numbers for the same configuration.
        """
        effective_shard_size = (
            shard_size if shard_size is not None else self.config.shard_size
        )
        validate_sharding_options(effective_shard_size, shard_directory)
        if effective_shard_size is None:
            return self._measure_inmemory_table(progress_callback=progress_callback)
        functions = self.function_generator.generate(self.config.n_functions)
        directory = (
            shard_directory
            if shard_directory is not None
            else self.config.shard_directory
        )
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-sharded-table-")
        metadata = self._metadata()
        metadata["shard_size"] = int(effective_shard_size)
        metadata["shard_directory"] = str(directory)
        # Generating into a configured directory replaces any previous table
        # there, matching the overwrite semantics of the save_* helpers.
        writer = ShardedTableWriter(
            directory,
            memory_sizes_mb=self.config.memory_sizes_mb,
            shard_size=effective_shard_size,
            description=self._description(),
            metadata=metadata,
            overwrite=True,
        )
        return self.harness.measure_table(
            functions, progress_callback=progress_callback, sink=writer
        )

    def generate(self, progress_callback=None) -> MeasurementDataset:
        """Generate and measure the full dataset (object-API view).

        Measures through the columnar table path and materializes the
        :class:`MeasurementDataset` view — same numbers as the table, same
        interface as before the table existed.

        The object API materializes every measurement regardless, so a
        configured ``shard_size`` is honoured only when a
        ``shard_directory`` is also configured (the caller wants the on-disk
        artefact as a side effect); with a temporary directory the sharded
        intermediate would only leak a dataset-sized copy on disk, and the
        measurement goes straight to the in-memory table instead.
        """
        if self.config.shard_size is not None and self.config.shard_directory is None:
            table = self._measure_inmemory_table(progress_callback=progress_callback)
        else:
            table = self.generate_table(progress_callback=progress_callback)
        return table.to_dataset()
