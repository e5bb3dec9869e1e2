"""The looped per-batch oracle of the grouped execution kernel.

:class:`LoopedBackend` runs the base ``ExecutionBackend.run_grouped`` — one
``run_batch`` per group — over a per-batch implementation of its own: the
noise contract's values of the batch's key
(``repro.simulation.seeding.noise_uniforms``, one call per noise source and
one for the service block), the timing model and the 25 Table-1 formulas as
numpy arithmetic over the profile's scalars, and the sequential
``walk_instances``.  It shares the model objects, their noise
parameterizations, the noise function and that walk with the kernel, not the
arithmetic, so the parity tests comparing the two (:func:`assert_identical`)
catch a slip in either; the noise function's own known-answer and
statistical tests (``tests/test_noise_contract.py``) stand for its
independence.  ``tests/``, ``benchmarks/`` and ``tools/bench_report.py`` all
import this module.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import ndtri

from repro.simulation.engine.base import BatchResult, ExecutionBackend
from repro.simulation.engine.grouped import walk_instances
from repro.simulation.execution import _HANDLER_OVERHEAD_MS
from repro.simulation.runtime import _PACKET_BYTES, _RUNTIME_BASELINE_MB
from repro.simulation.seeding import (
    SOURCE_COLD,
    SOURCE_CPU,
    SOURCE_JITTER,
    SOURCE_SERVICE,
    SOURCE_TAIL,
    draw_key,
    noise_uniforms,
)


class LoopedBackend(ExecutionBackend):
    """One numpy batch per group: the grouped kernel's bit-exact reference."""

    name = "looped"

    def run_batch(self, platform, function_name, arrivals, key=None) -> BatchResult:
        """Execute one sorted arrival batch (``key`` is drawn from ``platform.rng`` if None)."""
        function = platform.get_function(function_name)
        profile, memory_mb = function.profile, function.memory_mb
        model = platform.execution_model
        variability = model.variability
        cold_model = platform.cold_start_model
        key = key if key is not None else draw_key(platform.rng)
        t = np.asarray(arrivals, dtype=float)
        n = int(t.shape[0])
        positions = np.arange(n)

        def uniforms(*sources):
            return noise_uniforms(key, positions, sources)

        def lognormal(source, mu, sigma):
            return np.exp(mu + sigma * ndtri(uniforms(source)[:, 0]))

        # The contract's values of every noise source the batch reads.
        cpu_cv = variability.cpu_noise_cv
        cpu_noise = (
            lognormal(SOURCE_CPU, *variability.lognormal_params(cpu_cv))
            if cpu_cv > 0
            else np.ones(n)
        )
        fixed_ms, mean_row, sigma_row = model.services.batch_rows(profile.service_calls)
        service_ms = np.full(n, fixed_ms) if fixed_ms else np.zeros(n)
        if mean_row is not None:
            width = mean_row.shape[0]
            z = ndtri(uniforms(*range(SOURCE_SERVICE, SOURCE_SERVICE + width)))
            factors = np.exp(-0.5 * sigma_row * sigma_row + sigma_row * z)
            service_ms += (mean_row * factors).sum(axis=1)
        tail_p, counter_cv = variability.tail_probability, variability.counter_noise_cv
        tail = np.ones(n)
        if tail_p > 0:
            tail_u = uniforms(SOURCE_TAIL)[:, 0]
            tail = np.where(tail_u < tail_p, float(variability.tail_multiplier), 1.0)
        jitters = np.ones((13, n))
        if counter_cv > 0:
            z = ndtri(uniforms(*range(SOURCE_JITTER, SOURCE_JITTER + 13)).T)
            jitters = np.maximum(1.0 + counter_cv * z, 0.5)
        cold_noise = (
            lognormal(SOURCE_COLD, *cold_model.noise_params()) if cold_model.noise_cv > 0 else None
        )

        # Timing model: noise-free bases times the noise, then the total factor.
        scaling = model.scaling
        cpu_share = scaling.cpu_share(memory_mb)
        pressure = scaling.memory_pressure_factor(profile.memory_working_set_mb, memory_mb)
        calls = profile.service_calls
        service_bytes = sum((c.request_bytes + c.response_bytes) * c.calls for c in calls)
        network_bytes = profile.network_bytes_in + profile.network_bytes_out + service_bytes
        factor = tail * variability.drift_factors(t)
        base_cpu_ms = (profile.cpu_user_ms + profile.cpu_system_ms) / cpu_share * pressure
        cpu_ms = base_cpu_ms * cpu_noise * factor
        fs_ms = scaling.fs_transfer_ms(profile.total_fs_bytes, memory_mb) * cpu_noise * factor
        network_ms = scaling.network_transfer_ms(network_bytes, memory_mb) * cpu_noise * factor
        service_ms = service_ms * factor
        exec_ms = cpu_ms + fs_ms + network_ms + service_ms + _HANDLER_OVERHEAD_MS

        metrics = _metrics(
            profile, float(memory_mb), float(cpu_share), float(pressure),
            model.runtime.heap_fraction_of_memory,
            float(sum(c.response_bytes * c.calls for c in calls)),
            float(sum(c.request_bytes * c.calls for c in calls)),
            cpu_ms, fs_ms, network_ms, service_ms, exec_ms, jitters,
        )
        init_base_ms = cold_model.duration_ms(memory_mb, profile.code_size_kb, cpu_share)
        row = platform.rows_for([function_name])
        pool = list(platform.pools(row.tolist())[0])
        cold_start, init_ms = walk_instances(
            t, exec_ms, init_base_ms, cold_noise, pool,
            cold_model.keep_alive_s, platform.config.max_instances_per_function,
        )
        platform.store_pools(row.tolist(), [pool])
        platform.book_invocations(row, np.array([function.serial]), np.array([n]))
        pricing = platform.pricing_model
        batch = BatchResult(
            function_name=function_name,
            memory_mb=float(memory_mb),
            timestamps_s=t,
            execution_time_ms=exec_ms,
            init_duration_ms=init_ms,
            cold_start=cold_start,
            cost_usd=pricing.execution_cost_batch(exec_ms, memory_mb),
            billed_duration_ms=pricing.billed_duration_batch_ms(exec_ms),
            metrics=metrics,
        )
        platform.book_costs(row, np.array([batch.total_cost_usd]))
        return batch


def assert_identical(got, expected) -> None:
    """Every field of two result dataclasses, bit for bit.

    Batches (``BatchResult``, ``GroupedBatch``) and fleet windows
    (``FleetWindow``) alike; a ``metrics`` dict is compared name by name.
    """
    for field in dataclasses.fields(expected):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if field.name == "metrics":
            assert a.keys() == b.keys()
            a, b = [a[name] for name in b], [b[name] for name in b]
        np.testing.assert_array_equal(a, b, err_msg=field.name)


def _metrics(
    p, memory_mb, cpu_share, pressure, heap_fraction, service_in, service_out,
    cpu_ms, fs_ms, network_ms, service_ms, total_ms, jitters,
) -> dict[str, np.ndarray]:
    """The 25 Table-1 metrics of one batch, from profile ``p``'s scalars."""
    n = int(total_ms.shape[0])
    user_cpu = p.cpu_user_ms * pressure * jitters[0]
    system_cpu = (
        p.cpu_system_ms + 0.08 * fs_ms + 0.05 * network_ms + 0.02 * service_ms
    ) * jitters[1]
    has_network = 1.0 if p.network_bytes_in + p.network_bytes_out > 0 else 0.0
    io_waits = p.fs_read_ops + p.fs_write_ops + p.total_service_calls + has_network
    throttle = np.maximum(1.0 / cpu_share - 1.0, 0.0)
    heap_limit = heap_fraction * memory_mb
    heap_used = np.minimum(p.heap_allocated_mb, heap_limit) * jitters[6]
    total_heap = np.minimum(heap_used * 1.35 + 6.0, heap_limit)
    resident_set = np.minimum(_RUNTIME_BASELINE_MB + p.memory_working_set_mb, memory_mb)
    resident_set = resident_set * jitters[7]
    bytes_received = (p.network_bytes_in + service_in) * jitters[11]
    bytes_transmitted = (p.network_bytes_out + service_out) * jitters[12]
    mean_lag = cpu_ms * p.blocking_fraction / (np.maximum(io_waits, 1.0) + 1.0) + 0.05
    return {
        "execution_time": total_ms,
        "user_cpu_time": user_cpu,
        "system_cpu_time": system_cpu,
        "vol_context_switches": (8.0 + 2.5 * io_waits) * jitters[2],
        "invol_context_switches": (
            2.0 + 0.6 * user_cpu * throttle / 10.0 + 0.02 * user_cpu
        ) * jitters[3],
        "fs_reads": (p.fs_read_ops + p.fs_read_bytes / 4096.0) * jitters[4],
        "fs_writes": (p.fs_write_ops + p.fs_write_bytes / 4096.0) * jitters[5],
        "resident_set_size": resident_set,
        "max_resident_set_size": np.minimum(resident_set * 1.08, memory_mb),
        "total_heap": total_heap,
        "heap_used": heap_used,
        "physical_heap": total_heap * 0.95,
        "available_heap": np.maximum(heap_limit - total_heap, 0.0),
        "heap_limit": heap_limit * np.ones(n),
        "allocated_memory": (p.memory_working_set_mb * 1.05 + 4.0) * jitters[8],
        "external_memory": (
            1.5 + 0.4 * (p.fs_read_bytes + p.network_bytes_in) / 1e6
        ) * jitters[9],
        "bytecode_metadata": (0.4 + p.code_size_kb / 1024.0 * 0.8) * jitters[10],
        "bytes_received": bytes_received,
        "bytes_transmitted": bytes_transmitted,
        "packages_received": np.ceil(bytes_received / _PACKET_BYTES) + p.total_service_calls,
        "packages_transmitted": (
            np.ceil(bytes_transmitted / _PACKET_BYTES) + p.total_service_calls
        ),
        "min_event_loop_lag": np.full(n, 0.02),
        "max_event_loop_lag": mean_lag * 3.0 + 0.1,
        "mean_event_loop_lag": mean_lag,
        "std_event_loop_lag": mean_lag * 0.8,
    }
