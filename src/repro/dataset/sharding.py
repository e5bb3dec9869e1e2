"""Sharded measurement tables: out-of-core storage for paper-scale datasets.

The in-memory :class:`~repro.dataset.table.MeasurementTable` holds every
statistic of a measurement campaign in one dense array, which caps dataset
scale by a single process's RAM.  A :class:`ShardedMeasurementTable`
partitions the function axis into fixed-size shards, persists each shard as
its own NPZ archive next to a versioned JSON manifest, and keeps only the
light index arrays (function names, applications, segments, invocation
counts) resident.  The dense ``values`` stat arrays stay on disk and are
opened shard by shard with :func:`numpy.load` (``mmap_mode="r"``; numpy
decodes NPZ members lazily per access rather than mapping them), so peak
memory is bounded by one shard regardless of dataset size.

Three moving parts:

- :class:`ShardedMeasurementTable` — the read surface.  It shares
  :class:`~repro.dataset.table.MeasurementAxes` with the in-memory table and
  implements the same block-iteration protocol
  (:meth:`~ShardedMeasurementTable.iter_value_blocks`), so
  :meth:`~repro.core.features.FeatureExtractor.extract_table`,
  :func:`~repro.core.training.build_training_matrices`, the pipeline and the
  experiment context accept either table type and produce bit-identical
  matrices (enforced by ``tests/test_dataset_sharding.py``).
- :class:`ShardedTableWriter` — the streaming producer.  The measurement
  harness appends one stat block per function; every ``shard_size`` functions
  the buffered shard is flushed to disk, so generation never holds more than
  one shard in memory (:meth:`TrainingDatasetGenerator.generate_table
  <repro.dataset.generation.TrainingDatasetGenerator.generate_table>` wires
  this in behind a ``shard_size=`` knob).
- :func:`shard_table` — shards an existing in-memory table.

The on-disk layout (manifest plus shard NPZs) is a documented, versioned
contract: see ``docs/FORMATS.md`` for the field-by-field specification and
:mod:`repro.dataset.io` for the enforcing reader/writer helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, DatasetError
from repro.dataset.io import (
    MANIFEST_FILENAME,
    MANIFEST_FORMAT_VERSION,
    SHARD_DTYPES,
    load_shard_index_arrays,
    load_shard_values,
    read_shard_manifest,
    save_shard_npz,
    write_shard_manifest,
)
from repro.dataset.table import (
    MeasurementAxes,
    MeasurementTable,
    MeasurementTableBuilder,
    SegmentTuple,
    validate_axis_names,
)
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES

#: File-name template of the per-shard NPZ archives.
SHARD_FILE_TEMPLATE = "shard-{index:05d}.npz"


def validate_sharding_options(
    shard_size: int | None, shard_directory: str | Path | None
) -> None:
    """Validate the ``(shard_size, shard_directory)`` config-knob pair.

    The shared check behind every layer exposing the sharding knobs
    (``DatasetGenerationConfig``, ``PipelineConfig``, ``ExperimentScale`` and
    ``generate_table``): a given ``shard_size`` must be at least 1, and a
    ``shard_directory`` is only meaningful together with a ``shard_size``.
    """
    if shard_size is not None and int(shard_size) < 1:
        raise ConfigurationError("shard_size must be at least 1 when given")
    if shard_directory is not None and shard_size is None:
        raise ConfigurationError("shard_directory requires shard_size")


@dataclass(frozen=True)
class ShardInfo:
    """Placement of one shard on the function axis.

    Attributes
    ----------
    file:
        Shard file name, relative to the sharded table directory.
    start / stop:
        Half-open function-row range ``[start, stop)`` the shard covers.
    """

    file: str
    start: int
    stop: int

    @property
    def n_functions(self) -> int:
        """Number of function rows stored in this shard."""
        return self.stop - self.start


class ShardedMeasurementTable(MeasurementAxes):
    """Columnar measurement table whose dense arrays live on disk, sharded.

    Behaves like a read-only :class:`~repro.dataset.table.MeasurementTable`:
    same axis lookups, same ``measured`` / ``summary`` / ``stat`` views, same
    :meth:`iter_value_blocks` protocol consumed by feature extraction and
    training-matrix assembly.  The difference is residency — only the
    manifest metadata and the light per-function index arrays are held in
    memory; each access to the dense statistics opens exactly one shard NPZ
    (``numpy.load(..., mmap_mode="r")``, decoded lazily per member) and
    releases it afterwards.

    Instances are created by :meth:`open` (from a directory written earlier),
    by :class:`ShardedTableWriter` (streaming generation), or by
    :func:`shard_table` (sharding an in-memory table).
    """

    def __init__(
        self,
        directory: str | Path,
        shards: tuple[ShardInfo, ...],
        function_names: tuple[str, ...],
        applications: tuple[str, ...],
        segments: tuple[SegmentTuple, ...],
        memory_sizes_mb: tuple[int, ...],
        n_invocations: np.ndarray,
        shard_size: int,
        metric_names: tuple[str, ...] = METRIC_NAMES,
        stat_names: tuple[str, ...] = STAT_NAMES,
        description: str = "",
        metadata: dict[str, object] | None = None,
    ) -> None:
        validate_axis_names(metric_names, stat_names)
        self.directory = Path(directory)
        self.shards = tuple(shards)
        self.function_names = tuple(function_names)
        self.applications = tuple(applications)
        self.segments = tuple(segments)
        self.memory_sizes_mb = tuple(int(size) for size in memory_sizes_mb)
        self.metric_names = tuple(metric_names)
        self.stat_names = tuple(stat_names)
        self.n_invocations = np.asarray(n_invocations, dtype=np.int64)
        self.shard_size = int(shard_size)
        self.description = description
        self.metadata = dict(metadata) if metadata is not None else {}
        if len(set(self.function_names)) != len(self.function_names):
            raise DatasetError("function names must be unique across shards")
        if len(self.applications) != len(self.function_names):
            raise DatasetError("applications must have one entry per function")
        if len(self.segments) != len(self.function_names):
            raise DatasetError("segments must have one entry per function")
        covered = sum(info.n_functions for info in self.shards)
        if covered != len(self.function_names):
            raise DatasetError(
                f"shards cover {covered} functions, index arrays have "
                f"{len(self.function_names)}"
            )
        expected = (len(self.function_names), len(self.memory_sizes_mb))
        if tuple(self.n_invocations.shape) != expected:
            raise DatasetError(
                f"n_invocations has shape {tuple(self.n_invocations.shape)}, "
                f"expected {expected}"
            )
        self._shard_starts = np.array([info.start for info in self.shards], dtype=int)
        self._execution_means: np.ndarray | None = None
        # One-entry cache for cell-wise access (summary loops): bounded by
        # one shard, like every other resident structure of this class.
        self._cell_cache: tuple[int, np.ndarray] | None = None

    # ------------------------------------------------------------ construction
    @classmethod
    def open(cls, directory: str | Path) -> "ShardedMeasurementTable":
        """Open a sharded table directory written by the writer or saver.

        Reads and validates the manifest, then loads the light index arrays
        of every shard (function names, applications, segments, invocation
        counts) — the dense ``values`` arrays are *not* read.  Missing or
        unreadable shard files, index arrays inconsistent with the manifest,
        duplicate function names and version mismatches all raise
        :class:`~repro.errors.DatasetError`.
        """
        directory = Path(directory)
        manifest = read_shard_manifest(directory)
        shards = tuple(
            ShardInfo(file=entry["file"], start=entry["start"], stop=entry["stop"])
            for entry in manifest["shards"]
        )
        n_sizes = len(manifest["memory_sizes_mb"])
        names: list[str] = []
        applications: list[str] = []
        segments: list[SegmentTuple] = []
        counts: list[np.ndarray] = []
        for info in shards:
            shard_names, shard_apps, shard_segments, shard_counts = (
                load_shard_index_arrays(directory / info.file)
            )
            if (
                len(shard_names) != info.n_functions
                or len(shard_apps) != info.n_functions
                or len(shard_segments) != info.n_functions
            ):
                raise DatasetError(
                    f"shard {info.file} holds {len(shard_names)} functions, "
                    f"manifest expects {info.n_functions}"
                )
            if tuple(shard_counts.shape) != (info.n_functions, n_sizes):
                raise DatasetError(
                    f"shard {info.file} n_invocations have shape "
                    f"{tuple(shard_counts.shape)}, expected "
                    f"{(info.n_functions, n_sizes)}"
                )
            names.extend(shard_names)
            applications.extend(shard_apps)
            segments.extend(shard_segments)
            counts.append(shard_counts)
        n_invocations = (
            np.concatenate(counts, axis=0)
            if counts
            else np.zeros((0, n_sizes), dtype=np.int64)
        )
        return cls(
            directory=directory,
            shards=shards,
            function_names=tuple(names),
            applications=tuple(applications),
            segments=tuple(segments),
            memory_sizes_mb=tuple(manifest["memory_sizes_mb"]),
            n_invocations=n_invocations,
            shard_size=manifest["shard_size"],
            metric_names=tuple(manifest["metric_names"]),
            stat_names=tuple(manifest["stat_names"]),
            description=manifest["description"],
            metadata=dict(manifest["metadata"]),
        )

    # ------------------------------------------------------------- shard access
    @property
    def n_shards(self) -> int:
        """Number of on-disk shards."""
        return len(self.shards)

    def _shard_values(self, info: ShardInfo) -> np.ndarray:
        """Load and shape-check the dense value array of one shard."""
        values = load_shard_values(self.directory / info.file)
        expected = (
            info.n_functions,
            self.n_sizes,
            self.n_metrics,
            len(self.stat_names),
        )
        if tuple(values.shape) != expected:
            raise DatasetError(
                f"shard {info.file} values have shape {tuple(values.shape)}, "
                f"expected {expected}"
            )
        return values

    def _shard_of_row(self, row: int) -> ShardInfo:
        """Return the shard covering one function row."""
        if row < 0 or row >= self.n_functions:
            raise DatasetError(
                f"function index {row} out of range for {self.n_functions} functions"
            )
        return self.shards[int(np.searchsorted(self._shard_starts, row, side="right")) - 1]

    def iter_value_blocks(self, function_indices=None):
        """Yield dense value blocks covering the requested function rows.

        Mirrors :meth:`MeasurementTable.iter_value_blocks
        <repro.dataset.table.MeasurementTable.iter_value_blocks>`: the
        concatenation of the yielded blocks along axis 0 equals the dense
        array restricted to ``function_indices`` (all rows when ``None``).
        Rows are served in the requested order, chunked into consecutive runs
        that fall into the same shard, so at most one shard's array is
        resident at any point.  The indices are checked with
        :meth:`~repro.dataset.table.MeasurementAxes.row_indices`.
        """
        if function_indices is None:
            for info in self.shards:
                yield self._shard_values(info)
            return
        indices = self.row_indices(function_indices)
        position = 0
        while position < indices.size:
            info = self._shard_of_row(int(indices[position]))
            stop = position + 1
            while stop < indices.size and info.start <= indices[stop] < info.stop:
                stop += 1
            values = self._shard_values(info)
            yield values[indices[position:stop] - info.start]
            position = stop

    # ------------------------------------------------------------ array views
    def stat(self, metric: str, stat: str = "mean") -> np.ndarray:
        """Assemble the ``(n_functions, n_sizes)`` array of one statistic.

        Unlike the in-memory table this cannot return a view; the result is
        assembled by streaming the shards (one resident at a time).
        """
        try:
            stat_index = self.stat_names.index(stat)
        except ValueError:
            raise DatasetError(
                f"unknown statistic {stat!r} (available: {list(self.stat_names)})"
            ) from None
        metric_index = self.metric_index(metric)
        out = np.empty((self.n_functions, self.n_sizes), dtype=float)
        for info in self.shards:
            out[info.start : info.stop] = self._shard_values(info)[
                :, :, metric_index, stat_index
            ]
        return out

    def execution_time_ms(self) -> np.ndarray:
        """Assemble the ``(n_functions, n_sizes)`` mean execution times.

        The result is cached on the table (it is tiny — two values per
        cell-row — while assembling it streams every shard), so repeated
        training-matrix builds over different base sizes pay the full-shard
        decode only once.  Treat it as read-only, like the in-memory
        table's array view.
        """
        if self._execution_means is None:
            self._execution_means = self.stat("execution_time", "mean")
        return self._execution_means

    def _stat_cell(self, function_index: int, size_index: int) -> np.ndarray:
        """Load the ``(n_metrics, n_stats)`` stat cell of one table entry.

        Cell-wise callers (``summary`` loops) typically walk functions in
        order, so the last-touched shard's values are kept in a one-entry
        cache instead of re-decoding the shard NPZ per cell.
        """
        info = self._shard_of_row(function_index)
        if self._cell_cache is None or self._cell_cache[0] != info.start:
            self._cell_cache = (info.start, self._shard_values(info))
        return self._cell_cache[1][function_index - info.start, size_index]

    # ---------------------------------------------------------- materialization
    def to_table(self) -> MeasurementTable:
        """Materialize the whole table in memory.

        Streams every shard into one preallocated dense array — bit-identical
        to a table generated without sharding, but resident; intended for
        parity tests and for datasets known to fit in RAM (peak memory is
        the dense array plus one shard, never two copies).
        """
        values = np.empty(
            (self.n_functions, self.n_sizes, self.n_metrics, len(self.stat_names)),
            dtype=float,
        )
        for info in self.shards:
            values[info.start : info.stop] = self._shard_values(info)
        return MeasurementTable(
            function_names=self.function_names,
            applications=self.applications,
            segments=self.segments,
            memory_sizes_mb=self.memory_sizes_mb,
            values=values,
            n_invocations=self.n_invocations.copy(),
            metric_names=self.metric_names,
            stat_names=self.stat_names,
            description=self.description,
            metadata=dict(self.metadata),
        )

    def to_dataset(self):
        """Materialize the object-API view (via :meth:`to_table`)."""
        return self.to_table().to_dataset()

    def take(self, function_indices) -> MeasurementTable:
        """Return an in-memory sub-table restricted to the given rows.

        Sub-tables are assumed small (selections, case studies), so the
        result is a regular resident :class:`MeasurementTable`.
        """
        indices = self.row_indices(function_indices)
        blocks = list(self.iter_value_blocks(indices))
        values = (
            np.concatenate(blocks, axis=0)
            if blocks
            else np.zeros(
                (0, self.n_sizes, self.n_metrics, len(self.stat_names)), dtype=float
            )
        )
        return MeasurementTable(
            function_names=tuple(self.function_names[i] for i in indices),
            applications=tuple(self.applications[i] for i in indices),
            segments=tuple(self.segments[i] for i in indices),
            memory_sizes_mb=self.memory_sizes_mb,
            values=values,
            n_invocations=self.n_invocations[indices],
            metric_names=self.metric_names,
            stat_names=self.stat_names,
            description=self.description,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:
        """Return a compact description of the sharded table."""
        return (
            f"ShardedMeasurementTable(n_functions={self.n_functions}, "
            f"n_shards={self.n_shards}, shard_size={self.shard_size}, "
            f"directory={str(self.directory)!r})"
        )


class ShardedTableWriter:
    """Streams measured functions into a sharded table directory.

    The writer exposes the same producer surface as
    :class:`~repro.dataset.table.MeasurementTableBuilder` (``add_function``
    with a per-function stat block, then ``build``), so the measurement
    harness can fill either sink.  Functions are buffered into an in-memory
    builder holding at most ``shard_size`` entries; each full buffer is
    flushed to its own NPZ and dropped, which bounds the producer's peak
    memory by one shard regardless of how many functions are measured.
    ``build`` flushes the final partial shard, writes the manifest, and
    returns the opened :class:`ShardedMeasurementTable`.
    """

    def __init__(
        self,
        directory: str | Path,
        memory_sizes_mb: tuple[int, ...],
        shard_size: int,
        description: str = "",
        metadata: dict[str, object] | None = None,
        overwrite: bool = False,
    ) -> None:
        if int(shard_size) < 1:
            raise ConfigurationError("shard_size must be at least 1")
        if not memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._replacing = (self.directory / MANIFEST_FILENAME).exists()
        if self._replacing and not overwrite:
            raise DatasetError(
                f"{self.directory} already holds a sharded table "
                f"(pass overwrite=True to replace it)"
            )
        self.shard_size = int(shard_size)
        self.input_memory_sizes_mb = tuple(int(size) for size in memory_sizes_mb)
        self.memory_sizes_mb = tuple(sorted(set(self.input_memory_sizes_mb)))
        self.description = description
        self.metadata = dict(metadata) if metadata is not None else {}
        self._shards: list[ShardInfo] = []
        self._builder: MeasurementTableBuilder | None = None
        self._seen_names: set[str] = set()
        self._n_functions = 0
        self._finalized = False
        # Light index state of the flushed shards, retained so build() can
        # construct the table directly instead of re-reading every shard.
        self._names: list[str] = []
        self._applications: list[str] = []
        self._segments: list[SegmentTuple] = []
        self._counts: list[np.ndarray] = []

    def __len__(self) -> int:
        """Return the number of functions appended so far (all shards)."""
        return self._n_functions

    def add_function(
        self,
        function_name: str,
        application: str,
        segments: SegmentTuple,
        stats: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Append one function's stat block, flushing a shard when full.

        The block layout matches
        :meth:`MeasurementTableBuilder.add_function
        <repro.dataset.table.MeasurementTableBuilder.add_function>`: one row
        per entry of the writer's ``memory_sizes_mb`` argument order.
        """
        if self._finalized:
            raise DatasetError("this writer has already built its table")
        if function_name in self._seen_names:
            raise DatasetError(f"function {function_name!r} is already in the table")
        if self._builder is None:
            self._builder = MeasurementTableBuilder(
                memory_sizes_mb=self.input_memory_sizes_mb
            )
        self._builder.add_function(
            function_name,
            application=application,
            segments=segments,
            stats=stats,
            counts=counts,
        )
        self._seen_names.add(function_name)
        self._n_functions += 1
        if len(self._builder) >= self.shard_size:
            self._flush()

    def _flush(self) -> None:
        """Write the buffered functions as the next staged shard NPZ.

        Shards are staged under a ``.tmp`` suffix and only renamed into
        place by :meth:`build`, so a run interrupted *while measuring*
        leaves a table already living in the directory untouched.  Once
        :meth:`build` starts replacing it, a crash can no longer corrupt
        silently — the old manifest is removed first, so a half-replaced
        directory fails :meth:`ShardedMeasurementTable.open` loudly instead
        of serving a valid manifest over mixed shard contents.
        """
        shard = self._builder.build()
        file = SHARD_FILE_TEMPLATE.format(index=len(self._shards))
        save_shard_npz(self.directory / (file + ".tmp"), shard)
        start = self._shards[-1].stop if self._shards else 0
        self._shards.append(ShardInfo(file=file, start=start, stop=start + len(shard)))
        self._names.extend(shard.function_names)
        self._applications.extend(shard.applications)
        self._segments.extend(shard.segments)
        self._counts.append(shard.n_invocations)
        self._builder = None

    def build(self) -> ShardedMeasurementTable:
        """Finalize the staged shards, write the manifest and return the table.

        Renames every staged shard into place, writes the manifest, and
        removes files a replaced table no longer references.  The returned
        :class:`ShardedMeasurementTable` is constructed from the writer's
        own index state — the shard NPZs just written are not re-read (a
        cold :meth:`ShardedMeasurementTable.open` of the directory yields an
        equal table).
        """
        if self._finalized:
            raise DatasetError("this writer has already built its table")
        if self._builder is not None and len(self._builder):
            self._flush()
        self._finalized = True
        stale_manifest = self.directory / MANIFEST_FILENAME
        if stale_manifest.exists():
            stale_manifest.unlink()
        for info in self._shards:
            (self.directory / (info.file + ".tmp")).replace(self.directory / info.file)
        manifest = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "shard_size": self.shard_size,
            "n_functions": self._n_functions,
            "n_shards": len(self._shards),
            "memory_sizes_mb": list(self.memory_sizes_mb),
            "metric_names": list(METRIC_NAMES),
            "stat_names": list(STAT_NAMES),
            "dtypes": dict(SHARD_DTYPES),
            "description": self.description,
            "metadata": self.metadata,
            "shards": [
                {"file": info.file, "start": info.start, "stop": info.stop}
                for info in self._shards
            ],
        }
        write_shard_manifest(self.directory, manifest)
        if self._replacing:
            # Genuine replacement: drop shard files the new manifest does
            # not reference.  A fresh directory's shard-*.npz files are
            # never swept, so unrelated files matching the pattern survive.
            referenced = {info.file for info in self._shards}
            for path in self.directory.glob("shard-*.npz"):
                if path.name not in referenced:
                    path.unlink()
        # Staging files are writer-owned artifacts in every case — leftovers
        # can only come from an interrupted earlier run — so sweep them
        # unconditionally.
        for path in self.directory.glob("shard-*.npz.tmp"):
            path.unlink()
        n_sizes = len(self.memory_sizes_mb)
        n_invocations = (
            np.concatenate(self._counts, axis=0)
            if self._counts
            else np.zeros((0, n_sizes), dtype=np.int64)
        )
        return ShardedMeasurementTable(
            directory=self.directory,
            shards=tuple(self._shards),
            function_names=tuple(self._names),
            applications=tuple(self._applications),
            segments=tuple(self._segments),
            memory_sizes_mb=self.memory_sizes_mb,
            n_invocations=n_invocations,
            shard_size=self.shard_size,
            description=self.description,
            metadata=dict(self.metadata),
        )


def shard_table(
    table: MeasurementTable,
    directory: str | Path,
    shard_size: int,
    overwrite: bool = False,
) -> ShardedMeasurementTable:
    """Shard an existing in-memory table into ``directory``.

    Writes ``shard_size`` functions per NPZ plus the manifest and returns the
    opened :class:`ShardedMeasurementTable`; the round trip is lossless
    (``shard_table(t, ...).to_table()`` equals ``t``).
    """
    writer = ShardedTableWriter(
        directory,
        memory_sizes_mb=table.memory_sizes_mb,
        shard_size=shard_size,
        description=table.description,
        metadata=dict(table.metadata),
        overwrite=overwrite,
    )
    for i, name in enumerate(table.function_names):
        writer.add_function(
            name,
            application=table.applications[i],
            segments=table.segments[i],
            stats=table.values[i],
            counts=table.n_invocations[i],
        )
    return writer.build()
