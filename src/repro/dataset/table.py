"""The columnar measurement table: dense arrays from engine to training.

PR 1 made the offline *simulation* columnar (:class:`BatchResult`); this
module makes the *dataset* columnar.  A :class:`MeasurementTable` holds every
aggregated statistic of a measurement campaign in one dense array of shape
``(n_functions, n_sizes, n_metrics, n_stats)`` — metrics in Table-1 order,
statistics in :data:`~repro.monitoring.aggregation.STAT_NAMES` order
(mean, std, cv) — plus index arrays for function names, applications,
segments and memory sizes.

The table is the canonical dataflow between the measurement harness and the
learning pipeline: the harness fills it straight from engine batch columns
(no per-invocation or per-summary dictionaries), feature extraction slices
it into whole feature matrices, and training/selection/grid-search index it
without re-extraction.  The table is the only data the offline pipeline
computes on.  The object API (:class:`~repro.dataset.schema.MeasurementDataset`
/ :class:`~repro.monitoring.aggregation.MonitoringSummary`) is a view
materialized from it (:meth:`MeasurementTable.to_dataset`) for the public
calls that take or return objects; it carries the table's numbers unchanged.

Two table implementations share one read surface (:class:`MeasurementAxes`):
this module's in-memory table, and the sharded out-of-core sibling in
:mod:`repro.dataset.sharding` whose dense arrays live on disk, one NPZ per
function shard.  Consumers that stream through :meth:`iter_value_blocks`
(such as :meth:`repro.core.features.FeatureExtractor.extract_table`) work on
either without materializing more than one shard at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError
from repro.monitoring.aggregation import STAT_NAMES, summary_from_stats
from repro.monitoring.metrics import METRIC_NAMES

#: Segment composition type: ``((segment_name, intensity), ...)`` per function.
SegmentTuple = tuple[tuple[str, float], ...]


def validate_axis_names(
    metric_names: tuple[str, ...], stat_names: tuple[str, ...]
) -> None:
    """Reject metric/stat axis labels that deviate from the canonical orders.

    Consumers (``summary_from_stats``, the stat columns selected by
    ``extract_table``) rely on the Table-1 metric order and the
    :data:`~repro.monitoring.aggregation.STAT_NAMES` statistic order; a table
    with different labels would be silently misread, so both the in-memory
    and the sharded table reject it outright.
    """
    if tuple(metric_names) != tuple(METRIC_NAMES):
        raise DatasetError(
            "metric_names must match the Table-1 metric order "
            "(repro.monitoring.metrics.METRIC_NAMES)"
        )
    if tuple(stat_names) != tuple(STAT_NAMES):
        raise DatasetError(
            "stat_names must match repro.monitoring.aggregation.STAT_NAMES"
        )


def measurement_stat_block(
    measurement, memory_sizes_mb: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Project one :class:`FunctionMeasurement` onto a dense stat block.

    Parameters
    ----------
    measurement:
        A :class:`~repro.dataset.schema.FunctionMeasurement` (or any object
        with a ``summaries`` mapping of memory size to
        :class:`~repro.monitoring.aggregation.MonitoringSummary`).
    memory_sizes_mb:
        Row order of the returned block.  Sizes the measurement does not
        cover produce zero rows with a zero invocation count.

    Returns
    -------
    tuple
        ``(stats, counts)`` where ``stats`` has shape
        ``(n_sizes, n_metrics, n_stats)`` and ``counts`` has shape
        ``(n_sizes,)``.
    """
    n_sizes = len(memory_sizes_mb)
    stats = np.zeros((n_sizes, len(METRIC_NAMES), len(STAT_NAMES)), dtype=float)
    counts = np.zeros(n_sizes, dtype=np.int64)
    for j, memory_mb in enumerate(memory_sizes_mb):
        summary = measurement.summaries.get(int(memory_mb))
        if summary is not None:
            stats[j] = summary.stat_rows()
            counts[j] = summary.n_invocations
    return stats, counts


class MeasurementAxes:
    """Shared axis-and-lookup surface of the measurement-table implementations.

    Implementations provide the index attributes (``function_names``,
    ``applications``, ``segments``, ``memory_sizes_mb``, ``metric_names``,
    ``stat_names``, ``n_invocations``, ``description``, ``metadata``) plus the
    :meth:`_stat_cell` accessor and :meth:`iter_value_blocks`; this mixin
    derives the dimensions, label lookups, measured-cell views and the
    per-cell :class:`~repro.monitoring.aggregation.MonitoringSummary` view
    from them, so the in-memory :class:`MeasurementTable` and the sharded
    :class:`~repro.dataset.sharding.ShardedMeasurementTable` behave
    identically wherever the dense array is not touched.
    """

    # ------------------------------------------------------------- dimensions
    @property
    def n_functions(self) -> int:
        """Number of functions (rows of axis 0)."""
        return len(self.function_names)

    @property
    def n_sizes(self) -> int:
        """Number of memory sizes (rows of axis 1)."""
        return len(self.memory_sizes_mb)

    @property
    def n_metrics(self) -> int:
        """Number of monitored metrics (rows of axis 2)."""
        return len(self.metric_names)

    def __len__(self) -> int:
        """Return the number of functions in the table."""
        return self.n_functions

    # ---------------------------------------------------------------- lookups
    def row_indices(self, function_indices) -> np.ndarray:
        """Check function row indices and return them as an integer array.

        The one row check of both table implementations: a negative or
        out-of-range index raises :class:`~repro.errors.DatasetError` (no
        numpy wraparound, no bare ``IndexError``) before any work is done.
        """
        indices = np.asarray(function_indices, dtype=int)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_functions):
            raise DatasetError(
                f"function indices out of range for {self.n_functions} functions"
            )
        return indices

    def function_index(self, function_name: str) -> int:
        """Row index of one function."""
        try:
            return self.function_names.index(function_name)
        except ValueError:
            raise DatasetError(f"function {function_name!r} not in table") from None

    def size_index(self, memory_mb: int) -> int:
        """Column index of one memory size."""
        try:
            return self.memory_sizes_mb.index(int(memory_mb))
        except ValueError:
            raise DatasetError(
                f"memory size {memory_mb} MB not in table "
                f"(available: {list(self.memory_sizes_mb)})"
            ) from None

    def metric_index(self, metric: str) -> int:
        """Axis-2 index of one metric."""
        try:
            return self.metric_names.index(metric)
        except ValueError:
            raise DatasetError(f"metric {metric!r} not in table") from None

    # ------------------------------------------------------------ array views
    @property
    def measured(self) -> np.ndarray:
        """Boolean ``(n_functions, n_sizes)`` mask of measured cells."""
        return self.n_invocations > 0

    def common_memory_sizes(self) -> list[int]:
        """Memory sizes measured for *every* function in the table."""
        if self.n_functions == 0:
            return []
        common = self.measured.all(axis=0)
        return [size for j, size in enumerate(self.memory_sizes_mb) if common[j]]

    # ----------------------------------------------------------- object views
    def _stat_cell(self, function_index: int, size_index: int) -> np.ndarray:
        """Return the ``(n_metrics, n_stats)`` stat cell of one table entry."""
        raise NotImplementedError

    def summary(self, function_name: str, memory_mb: int):
        """Materialize the :class:`MonitoringSummary` view of one cell."""
        i = self.function_index(function_name)
        j = self.size_index(memory_mb)
        if not self.n_invocations[i, j]:
            raise DatasetError(
                f"function {function_name!r} has no measurement at {memory_mb} MB"
            )
        return summary_from_stats(
            function_name=function_name,
            memory_mb=float(self.memory_sizes_mb[j]),
            stats=self._stat_cell(i, j),
            n_invocations=int(self.n_invocations[i, j]),
        )


@dataclass(frozen=True)
class MeasurementTable(MeasurementAxes):
    """Dense columnar storage of a measurement campaign.

    Attributes
    ----------
    function_names / applications / segments:
        Per-function index arrays (length ``n_functions``).
    memory_sizes_mb:
        Measured memory sizes in column order of axis 1, sorted ascending.
    metric_names / stat_names:
        Labels of axes 2 and 3 of ``values``.
    values:
        ``(n_functions, n_sizes, n_metrics, n_stats)`` float array of
        aggregated statistics.  Cells of unmeasured (function, size) pairs
        are zero; consult :attr:`~MeasurementAxes.measured`.
    n_invocations:
        ``(n_functions, n_sizes)`` integer array of invocations per cell
        (0 marks an unmeasured cell).
    description / metadata:
        Dataset-level annotations (mirrors :class:`MeasurementDataset`).
    """

    function_names: tuple[str, ...]
    applications: tuple[str, ...]
    segments: tuple[SegmentTuple, ...]
    memory_sizes_mb: tuple[int, ...]
    values: np.ndarray
    n_invocations: np.ndarray
    metric_names: tuple[str, ...] = METRIC_NAMES
    stat_names: tuple[str, ...] = STAT_NAMES
    description: str = ""
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate axis labels, array shapes and index-array consistency."""
        validate_axis_names(self.metric_names, self.stat_names)
        expected = (
            len(self.function_names),
            len(self.memory_sizes_mb),
            len(self.metric_names),
            len(self.stat_names),
        )
        if tuple(self.values.shape) != expected:
            raise DatasetError(
                f"values has shape {tuple(self.values.shape)}, expected {expected}"
            )
        if tuple(self.n_invocations.shape) != expected[:2]:
            raise DatasetError(
                f"n_invocations has shape {tuple(self.n_invocations.shape)}, "
                f"expected {expected[:2]}"
            )
        if len(self.applications) != len(self.function_names):
            raise DatasetError("applications must have one entry per function")
        if len(self.segments) != len(self.function_names):
            raise DatasetError("segments must have one entry per function")
        if len(set(self.function_names)) != len(self.function_names):
            raise DatasetError("function names must be unique")
        if tuple(sorted(self.memory_sizes_mb)) != tuple(self.memory_sizes_mb):
            raise DatasetError("memory_sizes_mb must be sorted ascending")

    # ------------------------------------------------------------ array views
    def stat(self, metric: str, stat: str = "mean") -> np.ndarray:
        """Return a ``(n_functions, n_sizes)`` view of one statistic of one metric."""
        try:
            stat_index = self.stat_names.index(stat)
        except ValueError:
            raise DatasetError(
                f"unknown statistic {stat!r} (available: {list(self.stat_names)})"
            ) from None
        return self.values[:, :, self.metric_index(metric), stat_index]

    def execution_time_ms(self) -> np.ndarray:
        """Return the ``(n_functions, n_sizes)`` mean execution times."""
        return self.stat("execution_time", "mean")

    def iter_value_blocks(self, function_indices=None):
        """Yield dense value blocks covering the requested function rows.

        The concatenation of the yielded ``(block_rows, n_sizes, n_metrics,
        n_stats)`` arrays along axis 0 equals ``values[function_indices]``
        (``values`` itself when ``function_indices`` is ``None``).  The
        in-memory table yields a single block; the sharded table yields one
        block per traversed shard so that consumers iterating blocks never
        hold more than one shard's dense array at a time.

        Both implementations check the indices with :meth:`row_indices`, so
        code written against one table behaves identically on the other.
        """
        if function_indices is None:
            yield self.values
            return
        yield self.values[self.row_indices(function_indices)]

    def _stat_cell(self, function_index: int, size_index: int) -> np.ndarray:
        """Return the ``(n_metrics, n_stats)`` stat cell of one table entry."""
        return self.values[function_index, size_index]

    def take(self, function_indices) -> "MeasurementTable":
        """Return a sub-table restricted to the given function rows."""
        indices = self.row_indices(function_indices)
        return MeasurementTable(
            function_names=tuple(self.function_names[i] for i in indices),
            applications=tuple(self.applications[i] for i in indices),
            segments=tuple(self.segments[i] for i in indices),
            memory_sizes_mb=self.memory_sizes_mb,
            values=self.values[indices],
            n_invocations=self.n_invocations[indices],
            metric_names=self.metric_names,
            stat_names=self.stat_names,
            description=self.description,
            metadata=dict(self.metadata),
        )

    # ----------------------------------------------------------- object views
    def to_dataset(self):
        """Materialize the object-API view over the whole table.

        Returns a :class:`~repro.dataset.schema.MeasurementDataset` whose
        summaries are built from the table's stat rows — the same numbers,
        packaged for the public calls that take or return objects.
        """
        from repro.dataset.schema import FunctionMeasurement, MeasurementDataset

        counts = self.n_invocations.tolist()
        measurements = [
            FunctionMeasurement(
                function_name=name,
                application=self.applications[i],
                segments=self.segments[i],
                summaries={
                    int(memory_mb): summary_from_stats(
                        name, float(memory_mb), self.values[i, j], count
                    )
                    for j, (memory_mb, count) in enumerate(zip(self.memory_sizes_mb, counts[i]))
                    if count
                },
            )
            for i, name in enumerate(self.function_names)
        ]
        return MeasurementDataset(
            measurements=measurements,
            description=self.description,
            metadata=dict(self.metadata),
        )

    # ----------------------------------------------------------- constructors
    @staticmethod
    def from_measurements(
        measurements,
        memory_sizes_mb: tuple[int, ...] | None = None,
        description: str = "",
        metadata: dict[str, object] | None = None,
    ) -> "MeasurementTable":
        """Columnarize :class:`FunctionMeasurement` objects.

        ``memory_sizes_mb`` defaults to the sorted union of all measured
        sizes; functions missing a size get an unmeasured (zero) cell.
        """
        if memory_sizes_mb is None:
            sizes: set[int] = set()
            for measurement in measurements:
                sizes.update(measurement.summaries)
            memory_sizes_mb = tuple(sorted(sizes))
        else:
            memory_sizes_mb = tuple(int(size) for size in memory_sizes_mb)
        builder = MeasurementTableBuilder(
            memory_sizes_mb=memory_sizes_mb,
            description=description,
            metadata=metadata,
        )
        for measurement in measurements:
            stats, counts = measurement_stat_block(measurement, memory_sizes_mb)
            builder.add_function(
                measurement.function_name,
                application=measurement.application,
                segments=measurement.segments,
                stats=stats,
                counts=counts,
            )
        return builder.build()


class MeasurementTableBuilder:
    """Incrementally assembles a :class:`MeasurementTable`, one function at a time.

    The harness appends one stat block per measured function (straight from
    engine batch columns), with one row per entry of ``memory_sizes_mb`` *as
    given*; :meth:`build` stacks the blocks into the dense table.  Like the
    dict-keyed object API, the builder accepts the sizes in any order (and
    tolerates duplicates, last measurement wins): blocks are reordered onto
    the table's sorted-ascending size axis internally.
    """

    def __init__(
        self,
        memory_sizes_mb: tuple[int, ...],
        description: str = "",
        metadata: dict[str, object] | None = None,
    ) -> None:
        given = tuple(int(size) for size in memory_sizes_mb)
        self.input_memory_sizes_mb = given
        self.memory_sizes_mb = tuple(sorted(set(given)))
        # Input row feeding each sorted column (last occurrence wins, like
        # repeated FunctionMeasurement.add_summary calls).
        self._source_rows = np.array(
            [max(i for i, s in enumerate(given) if s == size) for size in self.memory_sizes_mb],
            dtype=int,
        )
        self.description = description
        self.metadata = dict(metadata) if metadata is not None else {}
        self._names: list[str] = []
        self._seen_names: set[str] = set()
        self._applications: list[str] = []
        self._segments: list[SegmentTuple] = []
        self._stats: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []

    def add_function(
        self,
        function_name: str,
        application: str,
        segments: SegmentTuple,
        stats: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Append one function's ``(n_sizes, n_metrics, n_stats)`` stat block.

        Rows follow the builder's ``memory_sizes_mb`` argument order.
        """
        if function_name in self._seen_names:
            raise DatasetError(f"function {function_name!r} is already in the table")
        stats = np.asarray(stats, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        expected = (len(self.input_memory_sizes_mb), len(METRIC_NAMES), len(STAT_NAMES))
        if tuple(stats.shape) != expected:
            raise DatasetError(
                f"stat block has shape {tuple(stats.shape)}, expected {expected}"
            )
        if tuple(counts.shape) != expected[:1]:
            raise DatasetError("counts must have one entry per memory size")
        self._names.append(function_name)
        self._seen_names.add(function_name)
        self._applications.append(application)
        self._segments.append(tuple((str(n), float(v)) for n, v in segments))
        self._stats.append(stats[self._source_rows])
        self._counts.append(counts[self._source_rows])

    def __len__(self) -> int:
        """Return the number of functions appended so far."""
        return len(self._names)

    def build(self) -> MeasurementTable:
        """Stack the appended blocks into a :class:`MeasurementTable`."""
        n_sizes = len(self.memory_sizes_mb)
        if self._stats:
            values = np.stack(self._stats)
            counts = np.stack(self._counts)
        else:
            values = np.zeros((0, n_sizes, len(METRIC_NAMES), len(STAT_NAMES)))
            counts = np.zeros((0, n_sizes), dtype=np.int64)
        return MeasurementTable(
            function_names=tuple(self._names),
            applications=tuple(self._applications),
            segments=tuple(self._segments),
            memory_sizes_mb=self.memory_sizes_mb,
            values=values,
            n_invocations=counts,
            description=self.description,
            metadata=self.metadata,
        )
