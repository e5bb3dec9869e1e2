"""Dataset schema: the object view of measurements across memory sizes.

A :class:`FunctionMeasurement` is one function, measured at several memory
sizes, each yielding an aggregated
:class:`~repro.monitoring.aggregation.MonitoringSummary`.  A
:class:`MeasurementDataset` is a collection of such measurements together
with dataset-level metadata.

Both are views: the offline pipeline computes on the columnar
:class:`~repro.dataset.table.MeasurementTable`, and builds these objects only
for the public calls that return them
(:meth:`~repro.dataset.table.MeasurementTable.to_dataset` and
:meth:`~repro.dataset.harness.MeasurementHarness.measure_function`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DatasetError
from repro.monitoring.aggregation import MonitoringSummary


@dataclass
class FunctionMeasurement:
    """All measurements of one function across memory sizes.

    Attributes
    ----------
    function_name:
        Measured function.
    application:
        Application the function belongs to (``"synthetic"`` for generated
        training functions).
    summaries:
        Mapping from memory size (MB) to the aggregated monitoring summary
        obtained at that size.
    segments:
        Segment composition of the function (empty for case-study functions).
    """

    function_name: str
    application: str = "synthetic"
    summaries: dict[int, MonitoringSummary] = field(default_factory=dict)
    segments: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    def add_summary(self, memory_mb: int, summary: MonitoringSummary) -> None:
        """Record the summary measured at ``memory_mb``."""
        if memory_mb <= 0:
            raise DatasetError("memory_mb must be positive")
        if summary.function_name != self.function_name:
            raise DatasetError(
                f"summary belongs to {summary.function_name!r}, "
                f"not {self.function_name!r}"
            )
        self.summaries[int(memory_mb)] = summary

    @property
    def memory_sizes(self) -> list[int]:
        """Measured memory sizes, sorted ascending."""
        return sorted(self.summaries)

    def summary_at(self, memory_mb: int) -> MonitoringSummary:
        """Return the summary measured at ``memory_mb``."""
        try:
            return self.summaries[int(memory_mb)]
        except KeyError:
            raise DatasetError(
                f"function {self.function_name!r} has no measurement at {memory_mb} MB "
                f"(available: {self.memory_sizes})"
            ) from None

    def execution_time_ms(self, memory_mb: int) -> float:
        """Mean execution time measured at ``memory_mb``."""
        return self.summary_at(memory_mb).mean_execution_time_ms

    def execution_times(self) -> dict[int, float]:
        """Mean execution time for every measured memory size."""
        return {size: self.execution_time_ms(size) for size in self.memory_sizes}

    def speedup(self, from_memory_mb: int, to_memory_mb: int) -> float:
        """Speedup factor when moving from one memory size to another."""
        return self.execution_time_ms(from_memory_mb) / self.execution_time_ms(to_memory_mb)

    def has_all_sizes(self, memory_sizes: tuple[int, ...]) -> bool:
        """Whether the function was measured at every size in ``memory_sizes``."""
        return all(int(size) in self.summaries for size in memory_sizes)


@dataclass
class MeasurementDataset:
    """A collection of function measurements plus dataset-level metadata."""

    measurements: list[FunctionMeasurement] = field(default_factory=list)
    description: str = ""
    metadata: dict[str, object] = field(default_factory=dict)

    def add(self, measurement: FunctionMeasurement) -> None:
        """Add one function measurement (names must stay unique)."""
        if any(m.function_name == measurement.function_name for m in self.measurements):
            raise DatasetError(
                f"function {measurement.function_name!r} is already in the dataset"
            )
        self.measurements.append(measurement)

    def __len__(self) -> int:
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    @property
    def function_names(self) -> list[str]:
        """Names of all measured functions."""
        return [measurement.function_name for measurement in self.measurements]

    def get(self, function_name: str) -> FunctionMeasurement:
        """Return the measurement of one function."""
        for measurement in self.measurements:
            if measurement.function_name == function_name:
                return measurement
        raise DatasetError(f"function {function_name!r} not in dataset")

    def common_memory_sizes(self) -> list[int]:
        """Memory sizes measured for *every* function in the dataset."""
        if not self.measurements:
            return []
        common = set(self.measurements[0].summaries)
        for measurement in self.measurements[1:]:
            common &= set(measurement.summaries)
        return sorted(common)

    def filter(self, predicate) -> "MeasurementDataset":
        """Return a new dataset with the measurements satisfying ``predicate``."""
        subset = MeasurementDataset(
            measurements=[m for m in self.measurements if predicate(m)],
            description=self.description,
            metadata=dict(self.metadata),
        )
        return subset

    def to_table(self):
        """Columnarize into a :class:`~repro.dataset.table.MeasurementTable`.

        The inverse of :meth:`MeasurementTable.to_dataset`; the conversion is
        lossless for statistics, invocation counts, segments and metadata.
        """
        from repro.dataset.table import MeasurementTable

        return MeasurementTable.from_measurements(
            self.measurements, description=self.description, metadata=dict(self.metadata)
        )

    def split(self, n_first: int) -> tuple["MeasurementDataset", "MeasurementDataset"]:
        """Split into the first ``n_first`` measurements and the rest."""
        if not 0 < n_first < len(self.measurements):
            raise DatasetError(
                f"cannot split {len(self.measurements)} measurements at {n_first}"
            )
        first = MeasurementDataset(
            measurements=self.measurements[:n_first], description=self.description
        )
        second = MeasurementDataset(
            measurements=self.measurements[n_first:], description=self.description
        )
        return first, second

