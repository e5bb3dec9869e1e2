"""Execution-backend abstraction: batch invocation containers and registry.

The measurement path of the paper runs 2 000 functions x 6 memory sizes x
18 000 invocations (~216 M simulated invocations).  Driving that through the
scalar :meth:`~repro.simulation.platform.ServerlessPlatform.invoke` call is
infeasible, so the platform delegates batch execution to a pluggable
:class:`ExecutionBackend`:

- :class:`~repro.simulation.engine.serial.SerialBackend` — the original scalar
  path, kept as the reference implementation for white-box parity tests;
- :class:`~repro.simulation.engine.vectorized.VectorizedBackend` — the grouped
  kernel (batched noise post-processing, gather-based metric evaluation,
  cross-group instance walk) that every in-process batch runs through, a
  single arrival batch being a one-group call;
- :class:`~repro.simulation.engine.parallel.ParallelBackend` — the vectorized
  backend, with a harness's function chunks fanned out over
  ``concurrent.futures`` workers, each running the kernel.

Backends are selected by name (a declarative config concern: harness, dataset
generator, fleet simulator and pipeline all expose a ``backend=`` knob)
through :func:`get_backend`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.monitoring.aggregation import MonitoringSummary
    from repro.simulation.engine.grouped import GroupBlock
    from repro.simulation.platform import InvocationRecord, ServerlessPlatform
    from repro.workloads.function import FunctionSpec
    from repro.workloads.loadgen import Workload


@dataclass(frozen=True)
class BatchResult:
    """Columnar result of one invocation batch (one function, one size).

    Where the scalar path produces one
    :class:`~repro.simulation.platform.InvocationRecord` per invocation, a
    batch result keeps one numpy column per attribute, so a measurement window
    can be aggregated without ever materializing per-invocation dictionaries.

    Attributes
    ----------
    function_name / memory_mb:
        The (function, size) pair the batch was executed for.
    timestamps_s:
        Sorted virtual arrival times.
    execution_time_ms:
        Inner handler execution time per invocation (excludes cold starts).
    init_duration_ms:
        Cold-start duration per invocation (0 for warm invocations).
    cold_start:
        Boolean mask of cold-started invocations.
    cost_usd / billed_duration_ms:
        Billing columns under the platform's pricing model.
    metrics:
        One ``(n,)`` array per Table-1 metric name.
    """

    function_name: str
    memory_mb: float
    timestamps_s: np.ndarray
    execution_time_ms: np.ndarray
    init_duration_ms: np.ndarray
    cold_start: np.ndarray
    cost_usd: np.ndarray
    billed_duration_ms: np.ndarray
    metrics: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_invocations(self) -> int:
        """Number of invocations in the batch."""
        return int(self.timestamps_s.shape[0])

    @property
    def n_cold_starts(self) -> int:
        """Number of cold-started invocations."""
        return int(np.count_nonzero(self.cold_start))

    @property
    def total_cost_usd(self) -> float:
        """Total billed cost of the batch.

        Summed with the segmented reduction of
        :meth:`~repro.simulation.engine.grouped.GroupedBatch.cost_per_group`,
        so a group billed alone and the same group billed inside a grouped
        batch book exactly the same float.
        """
        if not self.cost_usd.shape[0]:
            return 0.0
        return float(np.add.reduceat(self.cost_usd, [0])[0])

    def aggregate(
        self, warmup_s: float = 0.0, exclude_cold_starts: bool = True
    ) -> "MonitoringSummary":
        """Aggregate the batch into a :class:`MonitoringSummary`.

        Invocations arriving before ``warmup_s`` are discarded (falling back
        to the full batch when everything arrived during warm-up), matching
        the scalar harness path record for record.
        """
        from repro.monitoring.aggregation import aggregate_arrays

        if self.n_invocations == 0:
            raise SimulationError("cannot aggregate an empty batch")
        return aggregate_arrays(
            function_name=self.function_name,
            memory_mb=self.memory_mb,
            metrics=self.metrics,
            cold_start=self.cold_start,
            exclude_cold_starts=exclude_cold_starts,
            window=self.timestamps_s >= warmup_s,
        )

    def aggregate_stats(
        self, warmup_s: float = 0.0, exclude_cold_starts: bool = True
    ) -> tuple[np.ndarray, int]:
        """Aggregate the batch into a bare ``(n_metrics, n_stats)`` stat row.

        The dict-free counterpart of :meth:`aggregate`, used by the columnar
        measurement-table path: no :class:`MonitoringSummary` (or any other
        per-summary object) is materialized, just the stat matrix and the
        surviving invocation count.  Same windowing semantics as
        :meth:`aggregate` and bit-identical numbers (both wrap
        :func:`repro.monitoring.aggregation.stat_matrix`).
        """
        from repro.monitoring.aggregation import stat_matrix

        if self.n_invocations == 0:
            raise SimulationError("cannot aggregate an empty batch")
        return stat_matrix(
            self.metrics,
            cold_start=self.cold_start,
            exclude_cold_starts=exclude_cold_starts,
            window=self.timestamps_s >= warmup_s,
        )

    @staticmethod
    def from_records(
        function_name: str, memory_mb: float, records: list["InvocationRecord"]
    ) -> "BatchResult":
        """Columnarize a list of scalar invocation records."""
        from repro.monitoring.metrics import METRIC_NAMES

        return BatchResult(
            function_name=function_name,
            memory_mb=float(memory_mb),
            timestamps_s=np.array([r.timestamp_s for r in records], dtype=float),
            execution_time_ms=np.array(
                [r.result.execution_time_ms for r in records], dtype=float
            ),
            init_duration_ms=np.array(
                [r.result.init_duration_ms for r in records], dtype=float
            ),
            cold_start=np.array([r.result.cold_start for r in records], dtype=bool),
            cost_usd=np.array([r.cost_usd for r in records], dtype=float),
            billed_duration_ms=np.array(
                [r.billed_duration_ms for r in records], dtype=float
            ),
            metrics={
                name: np.array([r.result.metrics[name] for r in records], dtype=float)
                for name in METRIC_NAMES
            },
        )


class ExecutionBackend(abc.ABC):
    """Strategy interface for executing invocation batches.

    Backends implement :meth:`run_batch` — execute one (function, size)
    arrival batch against a platform — and may override :meth:`run_grouped`
    (the vectorized backend's grouped kernel, of which its
    :meth:`run_batch` is a one-group call) and :meth:`measure_stat_chunks`
    (how a harness schedules its function chunks; the parallel backend fans
    them out over worker processes).
    """

    #: Registry name of the backend (used by the ``backend=`` config knobs).
    name: str = "abstract"

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1 when given")
        self.n_workers = n_workers

    @abc.abstractmethod
    def run_batch(
        self,
        platform: "ServerlessPlatform",
        function_name: str,
        arrivals: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BatchResult:
        """Execute one sorted arrival batch of a deployed function.

        ``rng`` optionally overrides the noise stream of this batch (the
        per-group streams spawned by :mod:`repro.simulation.seeding`);
        ``None`` keeps the platform's shared generator.
        """

    def run_grouped(self, platform: "ServerlessPlatform", block: "GroupBlock"):
        """Execute a block's (function, size) groups into one grouped result.

        The default schedules one :meth:`run_batch` call per group — the
        *looped* path the serial backend runs, and the schedule of the test
        suite's per-batch oracle (``tests/looped_oracle.py``) — and
        concatenates the per-group columns into a
        :class:`~repro.simulation.engine.grouped.GroupedBatch`.  The
        vectorized backend overrides this with the grouped kernel; the
        kernel and the oracle produce bit-identical numbers because every
        group draws its noise from its own stream.
        """
        from repro.monitoring.metrics import METRIC_NAMES
        from repro.simulation.engine.grouped import GroupedBatch

        offsets = block.offsets
        off_l = offsets.tolist()
        rows = platform.rows_for(block.names)
        batches = []
        for g, (name, profile, memory_mb, serial, fresh) in enumerate(
            zip(
                block.names,
                block.profiles,
                block.memory_mb.tolist(),
                block.serials.tolist(),
                block.fresh_pool.tolist(),
            )
        ):
            # Execute against the deployment the block captured: a
            # multi-size block (the harness measuring one function at
            # several sizes) holds groups whose deployment is no longer the
            # platform's current one, so redeploy it before the batch
            # (redeploying also drops warm instances, like the kernel's
            # fresh_pool reset does).
            if platform.deployments(rows[g : g + 1])[2][0] != serial:
                platform.deploy(name, profile, memory_mb)
            elif fresh:
                platform.store_pools(rows[g : g + 1].tolist(), [[]])
            arrivals = block.arrivals[off_l[g] : off_l[g + 1]]
            if arrivals.shape[0] == 0:
                batches.append(None)
                continue
            batches.append(self.run_batch(platform, name, arrivals, rng=block.streams[g]))

        def column(attribute, empty):
            parts = [
                getattr(batch, attribute) if batch is not None else empty
                for batch in batches
            ]
            return np.concatenate(parts)

        none = np.empty(0)
        return GroupedBatch(
            function_names=tuple(block.names),
            memory_mb=block.memory_mb.copy(),
            offsets=offsets,
            timestamps_s=column("timestamps_s", none),
            execution_time_ms=column("execution_time_ms", none),
            init_duration_ms=column("init_duration_ms", none),
            cold_start=column("cold_start", np.empty(0, dtype=bool)),
            cost_usd=column("cost_usd", none),
            billed_duration_ms=column("billed_duration_ms", none),
            metrics={
                name: np.concatenate(
                    [
                        batch.metrics[name] if batch is not None else none
                        for batch in batches
                    ]
                )
                for name in METRIC_NAMES
            },
        )

    def measure_stat_chunks(
        self,
        harness,
        functions: list["FunctionSpec"],
        memory_sizes_mb: tuple[int, ...] | None = None,
        workload: "Workload | None" = None,
        chunk_size: int | None = None,
        on_chunk: Callable | None = None,
        progress_callback: Callable[[int, int, str], None] | None = None,
    ) -> None:
        """Measure functions chunk-wise through the grouped path.

        The default runs each chunk as one in-process grouped batch
        (:meth:`repro.dataset.harness.MeasurementHarness.measure_chunk_stats`)
        and hands its dense stat blocks to ``on_chunk(chunk_start, chunk,
        stats, counts)`` in order; the parallel backend overrides this to fan
        chunks out over worker processes.  ``chunk_size`` bounds peak memory
        (one chunk's metric columns); ``functions[k]`` draws from the streams
        of index ``k`` whatever its chunk, so chunking never changes the
        numbers.
        """
        total = len(functions)
        step = int(chunk_size) if chunk_size else total
        step = max(1, min(step, total)) if total else 1
        for start in range(0, total, step):
            chunk = functions[start : start + step]
            stats, counts = harness.measure_chunk_stats(
                chunk,
                index_offset=start,
                memory_sizes_mb=memory_sizes_mb,
                workload=workload,
            )
            if on_chunk is not None:
                on_chunk(start, chunk, stats, counts)
            if progress_callback is not None:
                for k, function in enumerate(chunk):
                    progress_callback(start + k + 1, total, function.name)


_BACKENDS: dict[str, type[ExecutionBackend]] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    if not cls.name or cls.name == "abstract":
        raise ConfigurationError("backend classes must define a concrete name")
    _BACKENDS[cls.name] = cls
    return cls


def available_backends() -> list[str]:
    """Return the sorted names of all registered execution backends."""
    return sorted(_BACKENDS)


def get_backend(
    backend: str | ExecutionBackend, n_workers: int | None = None
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Parameters
    ----------
    backend:
        Registered backend name (``"serial"``, ``"vectorized"``,
        ``"parallel"``) or an already-constructed backend instance (returned
        as-is; the other arguments are then ignored).
    n_workers:
        Worker count forwarded to backends that parallelize (ignored by the
        single-threaded ones).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        cls = _BACKENDS[str(backend).lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {backend!r}; available: {available_backends()}"
        ) from None
    return cls(n_workers=n_workers)
