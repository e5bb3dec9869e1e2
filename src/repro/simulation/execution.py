"""Single-invocation execution model: profile + memory size -> time & metrics.

This is the heart of the AWS-Lambda substitute.  Given a
:class:`~repro.simulation.profile.ResourceProfile` and a memory size it
computes how long the invocation takes and what the wrapper-style monitor
would observe, by combining:

- the CPU share / bandwidth granted at that memory size
  (:class:`~repro.simulation.scaling.ResourceScalingModel`),
- memory-pressure penalties when the working set nears the limit,
- memory-independent managed-service latencies
  (:class:`~repro.simulation.services.ServiceCatalog`),
- run-to-run variability (:class:`~repro.simulation.variability.VariabilityModel`),
- the Node.js runtime metric model
  (:class:`~repro.simulation.runtime.NodeRuntimeModel`).

The resulting behaviour reproduces the paper's motivating observations
(Figure 1): CPU-bound functions speed up almost linearly with memory,
service-bound functions flatten out once their small CPU portion stops
dominating, and pure API-call functions barely react at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from scipy.special import ndtri

from repro.errors import SimulationError
from repro.simulation.profile import ResourceProfile
from repro.simulation.runtime import N_JITTER_ROWS, NodeRuntimeModel, TimingBreakdown
from repro.simulation.scaling import ResourceScalingModel
from repro.simulation.seeding import (
    SOURCE_CPU,
    SOURCE_JITTER,
    SOURCE_SERVICE,
    SOURCE_TAIL,
    invocation_uniforms,
)
from repro.simulation.services import ServiceCatalog
from repro.simulation.variability import VariabilityModel

#: Fixed per-invocation handler overhead (argument parsing, JSON encode), ms.
_HANDLER_OVERHEAD_MS = 0.8


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one simulated invocation.

    Attributes
    ----------
    execution_time_ms:
        Inner handler execution time (what the paper's monitor measures).
    memory_mb:
        Memory size the invocation ran with.
    metrics:
        The 25 Table-1 metric values observed by the monitor.
    breakdown:
        Wall-clock composition (cpu / fs / network / service / overhead), kept
        for white-box tests and ablation experiments.
    cold_start:
        Whether this invocation initialised a fresh worker.
    init_duration_ms:
        Cold-start duration (0 for warm invocations); *not* included in
        ``execution_time_ms``, matching the wrapper-style monitoring.
    """

    execution_time_ms: float
    memory_mb: float
    metrics: dict[str, float] = field(default_factory=dict)
    breakdown: TimingBreakdown | None = None
    cold_start: bool = False
    init_duration_ms: float = 0.0

    @property
    def total_latency_ms(self) -> float:
        """End-to-end latency including any cold start."""
        return self.execution_time_ms + self.init_duration_ms


class ExecutionModel:
    """Reusable execution simulator bundling scaling, services, noise and runtime."""

    def __init__(
        self,
        scaling: ResourceScalingModel | None = None,
        services: ServiceCatalog | None = None,
        variability: VariabilityModel | None = None,
        runtime: NodeRuntimeModel | None = None,
    ) -> None:
        self.scaling = scaling if scaling is not None else ResourceScalingModel()
        self.services = services if services is not None else ServiceCatalog.default()
        self.variability = variability if variability is not None else VariabilityModel()
        self.runtime = runtime if runtime is not None else NodeRuntimeModel()

    # ------------------------------------------------------------------ means
    def expected_execution_time_ms(self, profile: ResourceProfile, memory_mb: float) -> float:
        """Noise-free expected execution time (used by tests and baselines)."""
        timing = self._timing(profile, memory_mb, None, None)
        return timing.total_ms

    # ------------------------------------------------------------------ single
    def execute(
        self,
        profile: ResourceProfile,
        memory_mb: float,
        noise,
        timestamp_s: float = 0.0,
        cold_start: bool = False,
        init_duration_ms: float = 0.0,
    ) -> ExecutionResult:
        """Simulate one invocation and return its :class:`ExecutionResult`.

        ``noise`` is the invocation's row of execution-noise uniforms,
        indexed by source (stream contract v2,
        :mod:`repro.simulation.seeding`): at least ``SOURCE_SERVICE`` plus
        the profile's drawn service calls long.  The serial backend hands
        each arrival of a batch its row; the grouped kernel reads the same
        values.
        """
        if memory_mb <= 0:
            raise SimulationError("memory_mb must be positive")
        normals = ndtri(noise).tolist()
        timing = self._timing(profile, memory_mb, noise, normals, timestamp_s)

        cpu_share = self.scaling.cpu_share(memory_mb)
        pressure = self.scaling.memory_pressure_factor(
            profile.memory_working_set_mb, memory_mb
        )
        service_bytes_in = sum(call.response_bytes * call.calls for call in profile.service_calls)
        service_bytes_out = sum(call.request_bytes * call.calls for call in profile.service_calls)

        metrics = self.runtime.metrics(
            profile=profile,
            memory_mb=memory_mb,
            timing=timing,
            cpu_share=cpu_share,
            pressure_factor=pressure,
            service_bytes_in=service_bytes_in,
            service_bytes_out=service_bytes_out,
            jitters=self.variability.jitter_factors(
                normals[SOURCE_JITTER : SOURCE_JITTER + N_JITTER_ROWS]
            ),
        )
        return ExecutionResult(
            execution_time_ms=timing.total_ms,
            memory_mb=float(memory_mb),
            metrics=metrics,
            breakdown=timing,
            cold_start=cold_start,
            init_duration_ms=init_duration_ms,
        )

    # ----------------------------------------------------------------- timing
    def _timing(
        self,
        profile: ResourceProfile,
        memory_mb: float,
        uniforms,
        normals: list[float] | None,
        timestamp_s: float = 0.0,
    ) -> TimingBreakdown:
        """Compute the wall-clock breakdown; no noise row yields the noise-free mean."""
        noisy = uniforms is not None
        cpu_share = self.scaling.cpu_share(memory_mb)
        pressure = self.scaling.memory_pressure_factor(
            profile.memory_working_set_mb, memory_mb
        )

        cpu_noise = self.variability.cpu_factor(normals[SOURCE_CPU]) if noisy else 1.0

        # CPU-bound work slows down inversely with the CPU share and pays the
        # memory-pressure penalty (GC churn) on top.
        cpu_ms = (profile.cpu_user_ms + profile.cpu_system_ms) / cpu_share * pressure * cpu_noise

        # Local file-system traffic moves at the memory-scaled bandwidth.
        fs_ms = self.scaling.fs_transfer_ms(profile.total_fs_bytes, memory_mb) * cpu_noise

        # Raw network payloads plus managed-service payloads go through the
        # worker's (memory-scaled) network interface.
        service_bytes = sum(
            (call.request_bytes + call.response_bytes) * call.calls
            for call in profile.service_calls
        )
        network_bytes = profile.network_bytes_in + profile.network_bytes_out + service_bytes
        network_ms = self.scaling.network_transfer_ms(network_bytes, memory_mb) * cpu_noise

        # Service-side latency is independent of the function's memory size.
        # The c-th drawn call reads source SOURCE_SERVICE + c.
        service_ms = 0.0
        source = SOURCE_SERVICE
        for call in profile.service_calls:
            if noisy and self.services.draws(call):
                service_ms += self.services.sample_latency_ms(call, normals[source:])
                source += call.calls
            else:
                service_ms += self.services.mean_latency_ms(call)

        overhead_ms = _HANDLER_OVERHEAD_MS

        total_factor = 1.0
        if noisy:
            total_factor *= self.variability.tail_factor(float(uniforms[SOURCE_TAIL]))
            total_factor *= self.variability.drift_factor(timestamp_s)

        return TimingBreakdown(
            cpu_ms=cpu_ms * total_factor,
            fs_ms=fs_ms * total_factor,
            network_ms=network_ms * total_factor,
            service_ms=service_ms * total_factor,
            overhead_ms=overhead_ms,
        )


def simulate_execution(
    profile: ResourceProfile,
    memory_mb: float,
    key: int = 0,
    model: ExecutionModel | None = None,
    timestamp_s: float = 0.0,
) -> ExecutionResult:
    """Convenience wrapper: simulate one invocation with default models.

    Parameters
    ----------
    profile:
        Resource demand of the invocation.
    memory_mb:
        Configured memory size.
    key:
        Execution-noise key (:mod:`repro.simulation.seeding`); the
        invocation reads its position-0 values.
    model:
        Optional pre-configured :class:`ExecutionModel` (reuse it across calls
        to avoid re-building the service catalog).
    timestamp_s:
        Simulation time of the invocation, used for slow platform drift.
    """
    if model is None:
        model = ExecutionModel()
    return model.execute(profile, memory_mb, invocation_uniforms(key), timestamp_s=timestamp_s)
