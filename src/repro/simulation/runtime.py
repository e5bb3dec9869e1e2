"""Node.js-style runtime metric model (paper Table 1).

The paper's wrapper-style monitor reads 25 metrics from the Node.js process:
``process.cpuUsage()``, ``process.resourceUsage()``, ``process.memoryUsage()``,
``v8.getHeapStatistics()``, ``/proc/net/dev`` and ``perf_hooks`` event-loop
monitoring.  :class:`NodeRuntimeModel` derives all of these from the simulated
execution: the resource profile says what the handler did, the timing
breakdown says how long the platform took to do it, and the memory size
determines the heap limits the V8 engine reports.

Metric semantics match the real counters:

- CPU times are *consumed CPU seconds*, which stay roughly constant across
  memory sizes (the work is fixed), while wall-clock time shrinks as the CPU
  share grows — this is exactly the signal the regression model learns from.
- Involuntary context switches grow when the worker is CPU-throttled
  (small memory sizes), voluntary ones grow with the number of I/O waits.
- Heap limit and available heap scale with the configured memory size.
- Event-loop lag reflects how long synchronous CPU chunks block the loop,
  which is longer at small memory sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.simulation.profile import ResourceProfile

#: Canonical names of the 25 monitored metrics (paper Table 1), in table order.
METRIC_NAMES: tuple[str, ...] = (
    "execution_time",
    "user_cpu_time",
    "system_cpu_time",
    "vol_context_switches",
    "invol_context_switches",
    "fs_reads",
    "fs_writes",
    "resident_set_size",
    "max_resident_set_size",
    "total_heap",
    "heap_used",
    "physical_heap",
    "available_heap",
    "heap_limit",
    "allocated_memory",
    "external_memory",
    "bytecode_metadata",
    "bytes_received",
    "bytes_transmitted",
    "packages_received",
    "packages_transmitted",
    "min_event_loop_lag",
    "max_event_loop_lag",
    "mean_event_loop_lag",
    "std_event_loop_lag",
)

#: Counter-jitter rows each Table-1 metric reads.  Row ``r`` is the ``r``-th
#: jitter factor of an invocation (:meth:`NodeRuntimeModel.metrics` takes
#: them in row order); a metric derived from another reads that one's rows
#: too (``invol_context_switches`` scales the jittered user CPU time).
METRIC_JITTER_ROWS: dict[str, tuple[int, ...]] = {
    "execution_time": (),
    "user_cpu_time": (0,),
    "system_cpu_time": (1,),
    "vol_context_switches": (2,),
    "invol_context_switches": (0, 3),
    "fs_reads": (4,),
    "fs_writes": (5,),
    "resident_set_size": (7,),
    "max_resident_set_size": (7,),
    "total_heap": (6,),
    "heap_used": (6,),
    "physical_heap": (6,),
    "available_heap": (6,),
    "heap_limit": (),
    "allocated_memory": (8,),
    "external_memory": (9,),
    "bytecode_metadata": (10,),
    "bytes_received": (11,),
    "bytes_transmitted": (12,),
    "packages_received": (11,),
    "packages_transmitted": (12,),
    "min_event_loop_lag": (),
    "max_event_loop_lag": (),
    "mean_event_loop_lag": (),
    "std_event_loop_lag": (),
}

#: Number of counter-jitter rows per invocation.
N_JITTER_ROWS = 13

_HEAP_METRICS = frozenset(
    ("total_heap", "heap_used", "physical_heap", "available_heap", "heap_limit")
)
_LAG_METRICS = frozenset(
    ("min_event_loop_lag", "max_event_loop_lag", "mean_event_loop_lag", "std_event_loop_lag")
)


def jitter_rows(names) -> tuple[int, ...]:
    """The sorted jitter rows the named metrics read (:data:`METRIC_JITTER_ROWS`)."""
    unknown = set(names).difference(METRIC_JITTER_ROWS)
    if unknown:
        raise SimulationError(f"unknown metrics: {sorted(unknown)}")
    return tuple(sorted({row for name in names for row in METRIC_JITTER_ROWS[name]}))


#: Typical MTU-sized packet used to convert bytes to packet counts.
_PACKET_BYTES = 1400.0

#: Baseline resident set of an idle Node.js Lambda runtime (MB).
_RUNTIME_BASELINE_MB = 54.0


@dataclass(frozen=True)
class TimingBreakdown:
    """Wall-clock composition of one simulated invocation (milliseconds)."""

    cpu_ms: float
    fs_ms: float
    network_ms: float
    service_ms: float
    overhead_ms: float

    @property
    def total_ms(self) -> float:
        """Total inner execution time."""
        return self.cpu_ms + self.fs_ms + self.network_ms + self.service_ms + self.overhead_ms


@dataclass(frozen=True)
class RuntimeBatchInputs:
    """Per-group profile/platform inputs of the Table-1 metric formulas.

    One ``(n_groups,)`` array per field, one entry per (function, memory
    size) group of a grouped batch, in field order of the grouped kernel's
    parameter column (:func:`~repro.simulation.engine.grouped.param_column`).
    :meth:`NodeRuntimeModel.metrics_batch_grouped` evaluates the formulas
    over them and gathers per invocation by group index.
    """

    memory_mb: np.ndarray
    cpu_share: np.ndarray
    pressure_factor: np.ndarray
    cpu_user_ms: np.ndarray
    cpu_system_ms: np.ndarray
    fs_read_ops: np.ndarray
    fs_write_ops: np.ndarray
    fs_read_bytes: np.ndarray
    fs_write_bytes: np.ndarray
    total_service_calls: np.ndarray
    has_network: np.ndarray
    network_bytes_in: np.ndarray
    network_bytes_out: np.ndarray
    heap_allocated_mb: np.ndarray
    memory_working_set_mb: np.ndarray
    code_size_kb: np.ndarray
    blocking_fraction: np.ndarray
    service_bytes_in: np.ndarray
    service_bytes_out: np.ndarray


class NodeRuntimeModel:
    """Derives the Table-1 metric values for one simulated invocation."""

    def __init__(self, heap_fraction_of_memory: float = 0.8) -> None:
        if not 0.1 <= heap_fraction_of_memory <= 1.0:
            raise SimulationError("heap_fraction_of_memory must be in [0.1, 1.0]")
        self.heap_fraction_of_memory = float(heap_fraction_of_memory)

    def metrics(
        self,
        profile: ResourceProfile,
        memory_mb: float,
        timing: TimingBreakdown,
        cpu_share: float,
        pressure_factor: float,
        service_bytes_in: float,
        service_bytes_out: float,
        jitters,
    ) -> dict[str, float]:
        """Return the full metric dictionary for one invocation.

        Parameters
        ----------
        profile:
            The invocation's resource demand.
        memory_mb:
            Configured memory size of the worker.
        timing:
            Wall-clock breakdown produced by the execution model.
        cpu_share:
            CPU share granted at ``memory_mb`` (vCPU fraction).
        pressure_factor:
            Memory-pressure multiplier applied to CPU work (>= 1).
        service_bytes_in / service_bytes_out:
            Network payloads exchanged with managed services (added to the
            profile's own network byte counts).
        jitters:
            The invocation's 13 counter-jitter factors in row order
            (:meth:`~repro.simulation.variability.VariabilityModel.jitter_factors`
            of the jitter sources' normals; all ones without counter noise).
        """
        if memory_mb <= 0:
            raise SimulationError("memory_mb must be positive")
        if cpu_share <= 0:
            raise SimulationError("cpu_share must be positive")

        execution_time = timing.total_ms

        # --- CPU time actually consumed (ms). GC pressure adds CPU work.
        user_cpu = profile.cpu_user_ms * pressure_factor * jitters[0]
        system_cpu = (
            profile.cpu_system_ms
            + 0.08 * timing.fs_ms
            + 0.05 * timing.network_ms
            + 0.02 * timing.service_ms
        ) * jitters[1]

        # --- Context switches.
        io_waits = (
            profile.fs_read_ops
            + profile.fs_write_ops
            + profile.total_service_calls
            + (1.0 if profile.network_bytes_in + profile.network_bytes_out > 0 else 0.0)
        )
        vol_switches = (8.0 + 2.5 * io_waits) * jitters[2]
        # Throttled workers are preempted at the end of every cgroup quota slice.
        throttle_rate = max(1.0 / cpu_share - 1.0, 0.0)
        invol_switches = (
            2.0 + 0.6 * user_cpu * throttle_rate / 10.0 + 0.02 * user_cpu
        ) * jitters[3]

        # --- File system counters (reported as operation counts, like ru_inblock).
        fs_reads = (profile.fs_read_ops + profile.fs_read_bytes / 4096.0) * jitters[4]
        fs_writes = (profile.fs_write_ops + profile.fs_write_bytes / 4096.0) * jitters[5]

        # --- Memory / heap statistics (MB).
        heap_limit = self.heap_fraction_of_memory * memory_mb
        heap_used = min(profile.heap_allocated_mb, heap_limit) * jitters[6]
        total_heap = min(heap_used * 1.35 + 6.0, heap_limit)
        physical_heap = total_heap * 0.95
        available_heap = max(heap_limit - total_heap, 0.0)
        resident_set = min(
            _RUNTIME_BASELINE_MB + profile.memory_working_set_mb, memory_mb
        ) * jitters[7]
        max_resident_set = min(resident_set * 1.08, memory_mb)
        allocated_memory = (profile.memory_working_set_mb * 1.05 + 4.0) * jitters[8]
        external_memory = (
            1.5 + 0.4 * (profile.fs_read_bytes + profile.network_bytes_in) / 1e6
        ) * jitters[9]
        bytecode_metadata = (0.4 + profile.code_size_kb / 1024.0 * 0.8) * jitters[10]

        # --- Network counters.
        bytes_received = (profile.network_bytes_in + service_bytes_in) * jitters[11]
        bytes_transmitted = (profile.network_bytes_out + service_bytes_out) * jitters[12]
        packages_received = np.ceil(bytes_received / _PACKET_BYTES) + profile.total_service_calls
        packages_transmitted = (
            np.ceil(bytes_transmitted / _PACKET_BYTES) + profile.total_service_calls
        )

        # --- Event-loop lag (ms): synchronous CPU chunks block the loop.
        async_boundaries = max(io_waits, 1.0)
        blocking_wall_ms = timing.cpu_ms * profile.blocking_fraction
        mean_lag = blocking_wall_ms / (async_boundaries + 1.0) + 0.05
        max_lag = mean_lag * 3.0 + 0.1
        min_lag = 0.02
        std_lag = mean_lag * 0.8

        metrics: dict[str, float] = {
            "execution_time": float(execution_time),
            "user_cpu_time": float(user_cpu),
            "system_cpu_time": float(system_cpu),
            "vol_context_switches": float(vol_switches),
            "invol_context_switches": float(invol_switches),
            "fs_reads": float(fs_reads),
            "fs_writes": float(fs_writes),
            "resident_set_size": float(resident_set),
            "max_resident_set_size": float(max_resident_set),
            "total_heap": float(total_heap),
            "heap_used": float(heap_used),
            "physical_heap": float(physical_heap),
            "available_heap": float(available_heap),
            "heap_limit": float(heap_limit),
            "allocated_memory": float(allocated_memory),
            "external_memory": float(external_memory),
            "bytecode_metadata": float(bytecode_metadata),
            "bytes_received": float(bytes_received),
            "bytes_transmitted": float(bytes_transmitted),
            "packages_received": float(packages_received),
            "packages_transmitted": float(packages_transmitted),
            "min_event_loop_lag": float(min_lag),
            "max_event_loop_lag": float(max_lag),
            "mean_event_loop_lag": float(mean_lag),
            "std_event_loop_lag": float(std_lag),
        }
        missing = set(METRIC_NAMES) - set(metrics)
        if missing:  # defensive: keep the metric list and the dict in sync
            raise SimulationError(f"runtime model missed metrics: {sorted(missing)}")
        return metrics

    def metrics_batch_grouped(
        self,
        inputs: RuntimeBatchInputs,
        group_ids: np.ndarray,
        cpu_ms: np.ndarray,
        fs_ms: np.ndarray,
        network_ms: np.ndarray,
        service_ms: np.ndarray,
        total_ms: np.ndarray,
        jitters,
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
        names: tuple[str, ...] = METRIC_NAMES,
    ) -> dict[str, np.ndarray]:
        """Temporary-free grouped evaluation of the Table-1 metric formulas.

        The metric kernel of the grouped execution kernel: ``inputs`` holds
        one value per *group* (``(n_groups,)`` arrays) and ``group_ids``
        maps each of the ``n`` invocations to its group, so the expensive
        ``np.repeat(columns, sizes)`` expansion never materializes.  Every
        purely profile/size-derived subexpression is evaluated once per group
        and gathered; per-invocation chains run through the two ``scratch``
        buffers with explicit ``out=`` so the only ``(n,)`` allocations are
        the result arrays themselves.

        Only the metrics in ``names`` are evaluated, each with the same
        expression whichever others are, so a row equals the same row of the
        full evaluation bit for bit; they read the jitter rows
        :data:`METRIC_JITTER_ROWS` lists.  Elementwise formula evaluation is
        length-independent, and the op order below matches the per-batch
        formulas of the test suite's oracle (``tests/looped_oracle.py``)
        operation for operation, so the result is bit-identical to
        evaluating them one group at a time.  The same formulas, per
        invocation, are :meth:`metrics`.

        Parameters
        ----------
        inputs:
            Per-group formula inputs, see :class:`RuntimeBatchInputs`.
        group_ids:
            The ``(n,)`` int index of each invocation's group.
        cpu_ms / fs_ms / network_ms / service_ms / total_ms:
            Per-invocation wall-clock components with all multiplicative
            noise applied.
        jitters:
            Counter-jitter factors indexed by row: ``jitters[r]`` is the
            ``(n,)`` row ``r`` (clipped at 0.5, all ones without counter
            noise).  Only the rows the named metrics read are read.
        scratch:
            Two ``(n,)`` buffers of the compute dtype; allocated here when
            ``None``.
        names:
            The metrics to evaluate (all 25 by default); the result holds
            them in this order.
        """
        if np.any(np.asarray(inputs.memory_mb) <= 0):
            raise SimulationError("memory_mb must be positive")
        if np.any(np.asarray(inputs.cpu_share) <= 0):
            raise SimulationError("cpu_share must be positive")
        unknown = set(names).difference(METRIC_NAMES)
        if unknown:
            raise SimulationError(f"unknown metrics: {sorted(unknown)}")
        n = int(np.asarray(total_ms).shape[0])
        dtype = np.asarray(total_ms).dtype
        if scratch is None:
            scratch = (np.empty(n, dtype=dtype), np.empty(n, dtype=dtype))
        s1, s2 = scratch
        g_memory = inputs.memory_mb
        want = set(names)
        out: dict[str, np.ndarray] = {"execution_time": np.asarray(total_ms)}

        def take(column: np.ndarray, out: np.ndarray) -> np.ndarray:
            return np.take(column, group_ids, out=out)

        # Per-invocation chains (scratch in, fresh result arrays out), one
        # block per family of metrics sharing a subexpression.  Group-level
        # subexpressions are one value per group, gathered by group index.
        g_io_waits = (
            inputs.fs_read_ops
            + inputs.fs_write_ops
            + inputs.total_service_calls
            + inputs.has_network
        )
        if want & {"user_cpu_time", "invol_context_switches"}:
            g_user = inputs.cpu_user_ms * inputs.pressure_factor
            user_cpu = np.multiply(take(g_user, s1), jitters[0])
            out["user_cpu_time"] = user_cpu
            if "invol_context_switches" in want:
                g_throttle = np.maximum(1.0 / inputs.cpu_share - 1.0, 0.0)
                np.multiply(user_cpu, 0.6, out=s1)
                np.multiply(s1, take(g_throttle, s2), out=s1)
                np.divide(s1, 10.0, out=s1)
                np.add(s1, 2.0, out=s1)
                np.multiply(user_cpu, 0.02, out=s2)
                np.add(s1, s2, out=s1)
                out["invol_context_switches"] = np.multiply(s1, jitters[3])

        if "system_cpu_time" in want:
            np.multiply(fs_ms, 0.08, out=s1)
            np.add(take(inputs.cpu_system_ms, s2), s1, out=s1)
            np.multiply(network_ms, 0.05, out=s2)
            np.add(s1, s2, out=s1)
            np.multiply(service_ms, 0.02, out=s2)
            np.add(s1, s2, out=s1)
            out["system_cpu_time"] = np.multiply(s1, jitters[1])

        if "vol_context_switches" in want:
            g_vol = 8.0 + 2.5 * g_io_waits
            out["vol_context_switches"] = np.multiply(take(g_vol, s1), jitters[2])
        if "fs_reads" in want:
            g_fs_reads = inputs.fs_read_ops + inputs.fs_read_bytes / 4096.0
            out["fs_reads"] = np.multiply(take(g_fs_reads, s1), jitters[4])
        if "fs_writes" in want:
            g_fs_writes = inputs.fs_write_ops + inputs.fs_write_bytes / 4096.0
            out["fs_writes"] = np.multiply(take(g_fs_writes, s1), jitters[5])

        if want & _HEAP_METRICS:
            g_heap_limit = self.heap_fraction_of_memory * g_memory
            heap_limit = take(g_heap_limit, s2)
            if "heap_limit" in want:
                heap_limit = out["heap_limit"] = heap_limit.copy()
            if (want & _HEAP_METRICS) - {"heap_limit"}:
                g_heap_used = np.minimum(inputs.heap_allocated_mb, g_heap_limit)
                heap_used = np.multiply(take(g_heap_used, s1), jitters[6])
                np.multiply(heap_used, 1.35, out=s1)
                np.add(s1, 6.0, out=s1)
                total_heap = np.minimum(s1, heap_limit)
                np.subtract(heap_limit, total_heap, out=s1)
                out["heap_used"] = heap_used
                out["total_heap"] = total_heap
                out["physical_heap"] = np.multiply(total_heap, 0.95)
                out["available_heap"] = np.maximum(s1, 0.0)
        if want & {"resident_set_size", "max_resident_set_size"}:
            g_resident = np.minimum(
                _RUNTIME_BASELINE_MB + inputs.memory_working_set_mb, g_memory
            )
            resident_set = np.multiply(take(g_resident, s1), jitters[7])
            np.multiply(resident_set, 1.08, out=s1)
            out["resident_set_size"] = resident_set
            out["max_resident_set_size"] = np.minimum(s1, take(g_memory, s2))
        if "allocated_memory" in want:
            g_allocated = inputs.memory_working_set_mb * 1.05 + 4.0
            out["allocated_memory"] = np.multiply(take(g_allocated, s1), jitters[8])
        if "external_memory" in want:
            g_external = 1.5 + 0.4 * (inputs.fs_read_bytes + inputs.network_bytes_in) / 1e6
            out["external_memory"] = np.multiply(take(g_external, s1), jitters[9])
        if "bytecode_metadata" in want:
            g_bytecode = 0.4 + inputs.code_size_kb / 1024.0 * 0.8
            out["bytecode_metadata"] = np.multiply(take(g_bytecode, s1), jitters[10])

        for direction, g_bytes_own, g_bytes_service, row in (
            ("received", inputs.network_bytes_in, inputs.service_bytes_in, 11),
            ("transmitted", inputs.network_bytes_out, inputs.service_bytes_out, 12),
        ):
            if want & {f"bytes_{direction}", f"packages_{direction}"}:
                g_bytes = g_bytes_own + g_bytes_service
                byte_count = np.multiply(take(g_bytes, s1), jitters[row])
                out[f"bytes_{direction}"] = byte_count
                if f"packages_{direction}" in want:
                    np.divide(byte_count, _PACKET_BYTES, out=s1)
                    np.ceil(s1, out=s1)
                    out[f"packages_{direction}"] = np.add(
                        s1, take(inputs.total_service_calls, s2)
                    )

        if want & _LAG_METRICS:
            g_async_plus_1 = np.maximum(g_io_waits, 1.0) + 1.0
            np.multiply(cpu_ms, take(inputs.blocking_fraction, s2), out=s1)
            np.divide(s1, take(g_async_plus_1, s2), out=s1)
            mean_lag = np.add(s1, 0.05)
            np.multiply(mean_lag, 3.0, out=s1)
            out["mean_event_loop_lag"] = mean_lag
            out["max_event_loop_lag"] = np.add(s1, 0.1)
            out["min_event_loop_lag"] = np.full(n, 0.02, dtype=dtype)
            out["std_event_loop_lag"] = np.multiply(mean_lag, 0.8)

        return {name: out[name] for name in names}
