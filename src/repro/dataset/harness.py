"""The measurement harness (paper Section 3.3).

The paper's harness — written in Go, driving Vegeta — deploys each function,
pushes an open-loop load at every memory size, and stores the aggregated
metrics.  :class:`MeasurementHarness` is the simulator-side equivalent.  The
paper-scale parameters (10 minutes at 30 req/s = 18 000 invocations per size)
are supported but the default configuration caps the number of simulated
invocations per size so that the full 2 000-function dataset can be generated
in seconds; the cap preserves the arrival-process shape (see
:meth:`repro.workloads.loadgen.LoadGenerator.arrival_times`).

Every harness call takes one path into the engine.  Functions are measured
in chunks: all ``functions x sizes`` (function, size) groups of a chunk run
as one grouped batch (:meth:`MeasurementHarness.measure_chunk_stats` →
:meth:`~repro.simulation.engine.ExecutionBackend.run_grouped`), reduced
straight to dense stat blocks with segmented reductions — no per-invocation
metric dictionaries and no per-invocation records are left behind.
:meth:`~MeasurementHarness.measure_table` runs a list of functions through
:meth:`~repro.simulation.engine.ExecutionBackend.measure_stat_chunks`, which
the ``"parallel"`` backend fans out over worker processes, into a columnar
table.  :meth:`~MeasurementHarness.measure_function` is a one-function chunk
wrapped in the object view, for the online phase's one monitoring summary.
A chunk holds at most 64 functions and, for long measurement windows, fewer,
so peak memory stays at one chunk's metric columns even at paper scale.  The backend
decides only how a chunk executes: ``"serial"`` runs one scalar batch per
group (the reference path), ``"vectorized"`` and ``"parallel"`` run the
grouped kernel.

Every (function, size) experiment owns a private arrival stream and a
private execution-noise key, both derived from the base seeds, the
function's absolute index and the size's index
(:mod:`repro.simulation.seeding`; a chunk's keys in one vectorized call).  The
numbers therefore depend neither on chunking nor on worker count, and
``measure_function(f, index=k)`` equals row ``k`` of ``measure_table`` bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.aggregation import STAT_NAMES, summary_from_stats
from repro.monitoring.metrics import METRIC_NAMES
from repro.dataset.schema import FunctionMeasurement
from repro.dataset.table import MeasurementTableBuilder
from repro.simulation.engine import (
    ExecutionBackend,
    GroupBlock,
    available_backends,
    get_backend,
)
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import STREAM_ARRIVALS, STREAM_EXECUTION, child_rng, noise_keys
from repro.workloads.function import FunctionSpec
from repro.workloads.loadgen import LoadGenerator, Workload

#: Most functions in one grouped chunk.
_CHUNK_FUNCTIONS = 64

#: Most simulated invocations in one grouped chunk (64 functions x 6 sizes x
#: 120 invocations, the largest capped window any caller uses).  Paper-scale
#: windows (18 000 invocations per size) would otherwise put ~7 GB of metric
#: columns into one 64-function chunk.
_CHUNK_INVOCATIONS = 64 * 6 * 120


@dataclass(frozen=True)
class HarnessConfig:
    """Configuration of the measurement harness.

    Attributes
    ----------
    memory_sizes_mb:
        Memory sizes to measure (the paper's six sizes by default).
    workload:
        Open-loop load per experiment (paper scale: 600 s at 30 req/s).
    max_invocations_per_size:
        Simulation-side cap on invocations per memory size (``None`` runs the
        full workload).  The default keeps dataset generation fast while still
        averaging away per-invocation noise.
    seed:
        Base seed of the per-experiment arrival streams.
    backend:
        Execution backend name (``"serial"``, ``"vectorized"``,
        ``"parallel"``) that executes the grouped chunks.
    n_workers:
        Worker-process count for the parallel backend (``None`` = CPU count;
        ignored by the single-process backends).
    """

    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    workload: Workload = Workload(requests_per_second=30.0, duration_s=600.0, warmup_s=30.0)
    max_invocations_per_size: int | None = 40
    seed: int = 0
    backend: str = "serial"
    n_workers: int | None = None

    def __post_init__(self) -> None:
        if not self.memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")
        if any(size <= 0 for size in self.memory_sizes_mb):
            raise ConfigurationError("memory sizes must be positive")
        if self.max_invocations_per_size is not None and self.max_invocations_per_size < 2:
            raise ConfigurationError("max_invocations_per_size must be at least 2")
        if self.backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {available_backends()}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1 when given")


class MeasurementHarness:
    """Measures functions across memory sizes on a (simulated) platform."""

    def __init__(
        self,
        platform: ServerlessPlatform | None = None,
        config: HarnessConfig | None = None,
    ) -> None:
        self.config = config if config is not None else HarnessConfig()
        if platform is None:
            platform = ServerlessPlatform(
                config=PlatformConfig(
                    allowed_memory_sizes_mb=None, seed=self.config.seed
                )
            )
        self.platform = platform
        self.backend: ExecutionBackend = get_backend(
            self.config.backend, n_workers=self.config.n_workers
        )
        self._load_generator = LoadGenerator(seed=self.config.seed)
        self._auto_index = 0

    # -------------------------------------------------------- group streams
    def _arrivals_for(self, workload: Workload, index: int, size_index: int) -> np.ndarray:
        """Sample one (function, size) experiment's private arrival trace."""
        arrivals = self._load_generator.arrival_times(
            workload,
            max_requests=self.config.max_invocations_per_size,
            rng=child_rng(self.config.seed, STREAM_ARRIVALS, index, size_index),
        )
        if not arrivals:
            arrivals = [workload.warmup_s + 0.001]
        return np.asarray(arrivals, dtype=float)

    def _next_index(self, index: int | None) -> int:
        """Resolve a measurement's absolute index (auto-advancing default).

        Explicit indices come from schedulers (``measure_table`` enumerates
        its function list) and leave the auto-counter untouched; ``None``
        takes the next counter value so repeated standalone calls never
        replay one another's streams.
        """
        if index is not None:
            return int(index)
        index = self._auto_index
        self._auto_index += 1
        return index

    def _memory_sizes(self, memory_sizes_mb: tuple[int, ...] | None) -> tuple[int, ...]:
        sizes = memory_sizes_mb if memory_sizes_mb is not None else self.config.memory_sizes_mb
        return tuple(int(size) for size in sizes)

    def _chunk_size(self, n_sizes: int, workload: Workload | None) -> int:
        """Functions per chunk: at most 64, and at most 46 080 invocations."""
        per_size = self.config.max_invocations_per_size
        if per_size is None:
            load = workload if workload is not None else self.config.workload
            per_size = max(load.expected_requests, 1)
        return max(1, min(_CHUNK_FUNCTIONS, _CHUNK_INVOCATIONS // (n_sizes * per_size)))

    def measure_function(
        self,
        function: FunctionSpec,
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
        index: int | None = None,
    ) -> FunctionMeasurement:
        """Measure one function at every requested memory size.

        ``index`` is the function's absolute position within the overall
        measurement run; it selects the experiment's random streams, so a
        scheduler measuring a list reproduces the same numbers function for
        function.  When omitted, the harness assigns the next auto-index —
        successive standalone calls on one harness therefore draw from
        successive independent streams (the first standalone call equals
        measuring the function first in a list).  The function runs as a
        one-function chunk on the harness's own platform, whatever the
        backend.  Returns a
        :class:`~repro.dataset.schema.FunctionMeasurement` holding one
        aggregated summary per memory size, in the requested size order.
        """
        index = self._next_index(index)
        memory_sizes = self._memory_sizes(memory_sizes_mb)
        stats, counts = self.measure_chunk_stats(
            [function], index_offset=index, memory_sizes_mb=memory_sizes, workload=workload
        )
        return FunctionMeasurement(
            function_name=function.name,
            application=function.application,
            segments=function.segments,
            summaries={
                memory_mb: summary_from_stats(function.name, memory_mb, stats[0, j], counts[0, j])
                for j, memory_mb in enumerate(memory_sizes)
            },
        )

    # ----------------------------------------------------------- columnar path
    def measure_chunk_stats(
        self,
        functions: list[FunctionSpec],
        index_offset: int = 0,
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure a function chunk as ONE grouped cross-function batch.

        All ``len(functions) x n_sizes`` (function, size) groups are
        flattened into a single columnar pass through the engine
        (:meth:`ExecutionBackend.run_grouped`) and reduced to dense stat
        blocks with segmented reductions — no per-group batches or objects.
        ``functions[k]`` draws from the streams of index ``index_offset + k``.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(n_functions, n_sizes, n_metrics, n_stats)`` stats and
            ``(n_functions, n_sizes)`` surviving invocation counts.
        """
        memory_sizes = self._memory_sizes(memory_sizes_mb)
        load = workload if workload is not None else self.config.workload
        names, profiles, sizes, serials, arrivals = [], [], [], [], []
        for k, function in enumerate(functions):
            index = index_offset + k
            for j, memory_mb in enumerate(memory_sizes):
                # Each group runs at the deployment made for it; only the
                # last size's deployment stays current.
                deployed = self.platform.deploy(function.name, function.profile, memory_mb)
                names.append(function.name)
                profiles.append(function.profile)
                sizes.append(deployed.memory_mb)
                serials.append(deployed.serial)
                arrivals.append(self._arrivals_for(load, index, j))
        if not names:
            shape = (0, len(memory_sizes), len(METRIC_NAMES), len(STAT_NAMES))
            return np.zeros(shape), np.zeros((0, len(memory_sizes)), dtype=np.int64)
        # Every (function, size) group's noise key, keyed by the function's
        # absolute index and the size's index, derived for the chunk at once.
        n_sizes = len(memory_sizes)
        keys = noise_keys(
            self.platform.config.seed,
            STREAM_EXECUTION,
            np.repeat(np.arange(index_offset, index_offset + len(functions)), n_sizes),
            np.tile(np.arange(n_sizes), len(functions)),
        )
        block = GroupBlock.of_groups(
            names, profiles, sizes, serials, arrivals, keys, fresh_pool=True
        )
        batch = self.backend.run_grouped(self.platform, block)
        # Cold starts are always excluded: the paper's monitoring wrapper
        # measures warm executions only.
        stats, counts = batch.aggregate_stats(warmup_s=load.warmup_s)
        n_sizes = len(memory_sizes)
        return (
            stats.reshape(len(functions), n_sizes, len(METRIC_NAMES), len(STAT_NAMES)),
            counts.reshape(len(functions), n_sizes),
        )

    def measure_table(
        self,
        functions: list[FunctionSpec],
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: Workload | None = None,
        progress_callback=None,
        description: str = "",
        metadata: dict[str, object] | None = None,
        sink=None,
    ):
        """Measure a list of functions into a columnar measurement table.

        Function ``k`` draws from the streams of index ``k``, so row ``k``
        equals ``measure_function(functions[k], index=k)``.  Each chunk's
        stat blocks go straight into the sink; a chunk never exceeds a
        sharded sink's shard size.  ``progress_callback(done, total, name)``
        is invoked after each completed function.

        ``sink`` selects where the stat blocks land.  By default a fresh
        :class:`~repro.dataset.table.MeasurementTableBuilder` collects them
        into an in-memory table; passing a
        :class:`~repro.dataset.sharding.ShardedTableWriter` (or any object
        with the same ``add_function`` / ``build`` surface) streams them out
        of core instead, in which case the writer's own description/metadata
        apply and this method's ``description`` / ``metadata`` arguments are
        ignored.  Returns whatever ``sink.build()`` returns.
        """
        memory_sizes = self._memory_sizes(memory_sizes_mb)
        if sink is None:
            sink = MeasurementTableBuilder(
                memory_sizes_mb=memory_sizes, description=description, metadata=metadata
            )
        else:
            # Stat-block rows are produced in measure order; a sink expecting
            # a different size order would silently swap columns.
            sink_sizes = tuple(getattr(sink, "input_memory_sizes_mb", memory_sizes))
            if sink_sizes != memory_sizes:
                raise ConfigurationError(
                    f"sink expects memory sizes {sink_sizes}, harness measures "
                    f"{memory_sizes}"
                )
        # The sink buffers rows until a shard fills, so chunks below the
        # shard size never change its output; they bound memory to a shard.
        chunk_size = self._chunk_size(len(memory_sizes), workload)
        shard_size = int(getattr(sink, "shard_size", 0) or 0)
        if shard_size:
            chunk_size = min(chunk_size, shard_size)

        def on_chunk(chunk_start, chunk, stats, counts):
            for k, function in enumerate(chunk):
                sink.add_function(
                    function.name,
                    application=function.application,
                    segments=function.segments,
                    stats=stats[k],
                    counts=counts[k],
                )

        self.backend.measure_stat_chunks(
            self,
            functions,
            memory_sizes_mb=memory_sizes,
            workload=workload,
            chunk_size=chunk_size,
            on_chunk=on_chunk,
            progress_callback=progress_callback,
        )
        return sink.build()
