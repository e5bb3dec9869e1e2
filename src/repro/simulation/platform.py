"""The serverless platform: deployment, invocation routing, scaling, billing.

:class:`ServerlessPlatform` models the provider-side behaviour the paper's
measurement harness interacts with:

- functions are *deployed* with a name, a resource profile and a memory size
  (changing the memory size redeploys and drops all warm instances),
- each *invocation* is routed to an idle warm worker instance if one exists,
  otherwise a new instance is cold-started (per-instance keep-alive follows
  the :class:`~repro.simulation.coldstart.ColdStartModel`),
- every invocation is billed with the configured
  :class:`~repro.simulation.pricing.PricingModel`,
- the platform keeps an invocation log so harnesses can aggregate
  measurements exactly like the paper's Go harness did.

The platform is a single-threaded simulation: callers drive virtual time by
passing invocation timestamps (the open-loop load generator in
:mod:`repro.workloads.loadgen` produces those).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.execution import ExecutionModel, ExecutionResult
from repro.simulation.pricing import PricingModel
from repro.simulation.profile import ResourceProfile
from repro.simulation.scaling import ResourceScalingModel
from repro.simulation.services import ServiceCatalog
from repro.simulation.variability import VariabilityModel


@dataclass(frozen=True)
class PlatformConfig:
    """Configuration of a :class:`ServerlessPlatform` instance.

    Attributes
    ----------
    provider:
        Pricing-scheme provider name (``"aws"``, ``"aws-legacy"``, ``"gcloud"``,
        ``"azure"``).
    allowed_memory_sizes_mb:
        Memory sizes that functions may be deployed with.  ``None`` allows any
        positive size (AWS supports 64 MB increments; the paper restricts
        itself to six sizes).
    seed:
        Seed for the platform-level random generator.
    max_instances_per_function:
        Concurrency limit per function (AWS default account limit is 1 000).
    """

    provider: str = "aws"
    allowed_memory_sizes_mb: tuple[int, ...] | None = (128, 256, 512, 1024, 2048, 3008)
    seed: int = 0
    max_instances_per_function: int = 1000

    def __post_init__(self) -> None:
        cap = self.max_instances_per_function
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ConfigurationError("max_instances_per_function must be an integer >= 1")
        if self.allowed_memory_sizes_mb is not None:
            if not self.allowed_memory_sizes_mb:
                raise ConfigurationError("allowed_memory_sizes_mb must not be empty")
            if any(size <= 0 for size in self.allowed_memory_sizes_mb):
                raise ConfigurationError("memory sizes must be positive")


@dataclass(slots=True)
class DeployedFunction:
    """Deployment record of one serverless function.

    Slotted: a million-function fleet holds one record per function, so the
    per-instance dict would dominate the platform's deployment memory.
    """

    name: str
    profile: ResourceProfile
    memory_mb: float
    invocation_count: int = 0


@dataclass(frozen=True)
class InvocationRecord:
    """One entry of the platform's invocation log."""

    function_name: str
    memory_mb: float
    timestamp_s: float
    result: ExecutionResult
    cost_usd: float
    billed_duration_ms: float


def _sorted_arrivals(timestamps_s) -> np.ndarray:
    """Timestamps as one sorted 1-D float array, checked before any runs.

    A negative or non-finite timestamp, or an array that is not 1-D, raises
    :class:`~repro.errors.SimulationError`.
    """
    arrivals = np.asarray(timestamps_s, dtype=float)
    if arrivals.ndim != 1:
        raise SimulationError(f"timestamps_s must be a 1-D array, not of shape {arrivals.shape}")
    arrivals = np.sort(arrivals)
    # Sorting puts the minimum first and +inf and NaN last, so the two ends
    # decide.
    if arrivals.shape[0] and not (arrivals[0] >= 0 and math.isfinite(arrivals[-1])):
        raise SimulationError("at_time_s must be finite and non-negative")
    return arrivals


class ServerlessPlatform:
    """A simulated FaaS provider (deploy / configure / invoke / billing)."""

    def __init__(
        self,
        config: PlatformConfig | None = None,
        execution_model: ExecutionModel | None = None,
        cold_start_model: ColdStartModel | None = None,
        pricing_model: PricingModel | None = None,
    ) -> None:
        self.config = config if config is not None else PlatformConfig()
        self.execution_model = (
            execution_model if execution_model is not None else ExecutionModel()
        )
        self.cold_start_model = (
            cold_start_model if cold_start_model is not None else ColdStartModel()
        )
        self.pricing_model = (
            pricing_model
            if pricing_model is not None
            else PricingModel.for_provider(self.config.provider)
        )
        self._rng = np.random.default_rng(self.config.seed)
        self._functions: dict[str, DeployedFunction] = {}
        # Each function's warm workers in pool order, a worker being the time
        # it is busy until: it can serve one request at a time, is idle from
        # then on and is reclaimed once idle longer than the keep-alive.
        self._instances: dict[str, list[float]] = {}
        self.invocation_log: list[InvocationRecord] = []
        self._records_by_function: dict[str, list[InvocationRecord]] = {}
        self._cost_by_function: dict[str, float] = {}
        self._cost_total = 0.0

    @property
    def rng(self) -> np.random.Generator:
        """The platform-level random generator (shared by all noise sources)."""
        return self._rng

    # ------------------------------------------------------------- deployment
    @property
    def function_names(self) -> list[str]:
        """Names of all deployed functions (sorted)."""
        return sorted(self._functions)

    def _check_memory(self, memory_mb: float) -> float:
        allowed = self.config.allowed_memory_sizes_mb
        if allowed is not None and memory_mb not in allowed:
            raise ConfigurationError(
                f"memory size {memory_mb} MB not in allowed sizes {sorted(allowed)}"
            )
        if memory_mb <= 0:
            raise ConfigurationError("memory_mb must be positive")
        return float(memory_mb)

    def deploy(self, name: str, profile: ResourceProfile, memory_mb: float) -> DeployedFunction:
        """Deploy (or redeploy) a function with the given profile and size."""
        if not name:
            raise ConfigurationError("function name must be non-empty")
        memory_mb = self._check_memory(memory_mb)
        deployment = DeployedFunction(name=name, profile=profile, memory_mb=memory_mb)
        self._functions[name] = deployment
        self._instances[name] = []  # redeployment drops all warm instances
        return deployment

    def deploy_many(
        self, names: list[str], profiles: list[ResourceProfile], memory_mb: float
    ) -> list[DeployedFunction]:
        """Deploy many functions at one shared memory size, in bulk.

        Semantically one :meth:`deploy` call per (name, profile) pair — same
        records, same redeployment semantics — but the size is validated once
        and the per-call overhead is amortized, which matters when a
        million-function fleet is brought up in one constructor.  Returns
        the deployment records in input order.
        """
        if len(names) != len(profiles):
            raise ConfigurationError(
                f"got {len(profiles)} profiles for {len(names)} function names"
            )
        if any(not name for name in names):
            raise ConfigurationError("function name must be non-empty")
        memory_mb = self._check_memory(memory_mb)
        deployments = list(map(DeployedFunction, names, profiles, repeat(memory_mb)))
        # C-level bulk insertion; a repeated name keeps its last record,
        # exactly as sequential deploys would.
        self._functions.update(zip(names, deployments))
        # Fresh warm-instance lists: redeployment drops warm instances.
        self._instances.update({name: [] for name in names})
        return deployments

    def get_function(self, name: str) -> DeployedFunction:
        """Return the deployment record for ``name``."""
        try:
            return self._functions[name]
        except KeyError:
            raise SimulationError(f"function {name!r} is not deployed") from None

    def set_memory_size(self, name: str, memory_mb: float) -> None:
        """Change a deployed function's memory size (drops warm instances)."""
        function = self.get_function(name)
        self.deploy(name, function.profile, memory_mb)

    def remove(self, name: str) -> None:
        """Remove a deployed function and its warm instances."""
        self.get_function(name)
        del self._functions[name]
        del self._instances[name]

    # ------------------------------------------------------------- invocation
    def _acquire_instance(self, name: str, at_time_s: float) -> tuple[list[float], int, bool]:
        """Find an idle warm worker or cold-start a new one.

        Returns the function's pool, the serving worker's slot in it and
        whether that worker was cold-started; the caller sets its busy-until.
        """
        pool = self._instances[name]
        keep_alive_s = self.cold_start_model.keep_alive_s
        if len(pool) == 1 and pool[0] <= at_time_s and at_time_s - pool[0] <= keep_alive_s:
            # Fast path for the dominant open-loop case: a single warm
            # worker, idle at the arrival and within its keep-alive — the
            # reclaim below would keep it and the search would pick it.
            return pool, 0, False
        # Reclaim workers idle longer than the keep-alive (a busy one has
        # been idle for no time, and the keep-alive is positive).
        pool[:] = [busy for busy in pool if at_time_s - busy <= keep_alive_s]
        for slot, busy in enumerate(pool):
            if busy <= at_time_s:
                return pool, slot, False
        if len(pool) >= self.config.max_instances_per_function:
            # Concurrency limit reached: queue on the earliest-free worker.
            return pool, pool.index(min(pool)), False
        pool.append(0.0)
        return pool, len(pool) - 1, True

    def invoke(self, name: str, at_time_s: float = 0.0) -> InvocationRecord:
        """Invoke a deployed function at virtual time ``at_time_s``.

        A negative or non-finite time raises
        :class:`~repro.errors.SimulationError` before any pool, counter or
        bill changes.
        """
        if at_time_s < 0 or not math.isfinite(at_time_s):
            raise SimulationError("at_time_s must be finite and non-negative")
        function = self.get_function(name)
        pool, slot, is_cold = self._acquire_instance(name, at_time_s)

        init_ms = 0.0
        if is_cold:
            cpu_share = self.execution_model.scaling.cpu_share(function.memory_mb)
            init_ms = self.cold_start_model.duration_ms(
                function.memory_mb,
                function.profile.code_size_kb,
                cpu_share,
                rng=self._rng,
            )

        result = self.execution_model.execute(
            function.profile,
            function.memory_mb,
            rng=self._rng,
            timestamp_s=at_time_s,
            cold_start=is_cold,
            init_duration_ms=init_ms,
        )

        pool[slot] = max(at_time_s, pool[slot]) + result.total_latency_ms / 1000.0
        function.invocation_count += 1

        billed_ms = self.pricing_model.billed_duration_ms(result.execution_time_ms)
        cost = self.pricing_model.execution_cost(result.execution_time_ms, function.memory_mb)
        record = InvocationRecord(
            function_name=name,
            memory_mb=function.memory_mb,
            timestamp_s=at_time_s,
            result=result,
            cost_usd=cost,
            billed_duration_ms=billed_ms,
        )
        self.invocation_log.append(record)
        self._records_by_function.setdefault(name, []).append(record)
        self._note_cost(name, cost)
        return record

    def invoke_many(self, name: str, timestamps_s: list[float]) -> list[InvocationRecord]:
        """Invoke a function once per timestamp (timestamps need not be sorted).

        Checked as :meth:`invoke_batch` checks its timestamps, before the
        first invocation runs.
        """
        return [self.invoke(name, at_time_s=t) for t in _sorted_arrivals(timestamps_s).tolist()]

    def invoke_batch(self, name: str, timestamps_s, backend=None, rng=None):
        """Invoke a function once per timestamp through an execution backend.

        Parameters
        ----------
        name:
            Deployed function to invoke.
        timestamps_s:
            Arrival timestamps (seconds, need not be sorted); a negative or
            non-finite one, or an array that is not 1-D, raises
            :class:`~repro.errors.SimulationError` before any arrival runs.
        backend:
            Backend name (``"serial"``, ``"vectorized"``, ``"parallel"``) or an
            :class:`~repro.simulation.engine.ExecutionBackend` instance;
            defaults to the serial (scalar) path.
        rng:
            Optional batch-private noise stream (the per-group streams
            spawned by :mod:`repro.simulation.seeding`); ``None`` keeps the
            platform's shared generator.

        Returns a :class:`~repro.simulation.engine.BatchResult` with one column
        per invocation attribute.  The serial backend calls :meth:`invoke`
        once per arrival, so it also appends every invocation to the log; the
        vectorized and parallel backends run the batch as one group of the
        grouped kernel and only update billing totals and instance state,
        keeping memory bounded during large runs.
        """
        from repro.simulation.engine import get_backend

        resolved = get_backend(backend if backend is not None else "serial")
        return resolved.run_batch(self, name, _sorted_arrivals(timestamps_s), rng=rng)

    # ---------------------------------------------------------------- billing
    def _note_cost(self, name: str, cost_usd: float) -> None:
        """Add an amount to the per-function and global billing totals."""
        self._cost_by_function[name] = self._cost_by_function.get(name, 0.0) + cost_usd
        self._cost_total += cost_usd

    def total_cost_usd(self, name: str | None = None) -> float:
        """Total billed cost, optionally restricted to one function.

        Totals are running counters and therefore include batch invocations
        whose per-invocation records were never materialized, as well as
        records already discarded via :meth:`discard_function_records`.
        """
        if name is None:
            return float(self._cost_total)
        return float(self._cost_by_function.get(name, 0.0))

    def records_for(self, name: str) -> list[InvocationRecord]:
        """All retained invocation records of one function."""
        return list(self._records_by_function.get(name, ()))

    def warm_instance_count(self, name: str) -> int:
        """Number of currently provisioned worker instances for ``name``."""
        self.get_function(name)
        return len(self._instances[name])

    def reset_log(self) -> None:
        """Clear the invocation log and billing totals (keeps deployments)."""
        self.invocation_log.clear()
        self._records_by_function.clear()
        self._cost_by_function.clear()
        self._cost_total = 0.0

    def discard_function_records(self, name: str) -> int:
        """Drop one function's retained records, keeping its billing totals.

        The looped grouped path
        (:meth:`~repro.simulation.engine.ExecutionBackend.run_grouped`) calls
        this once it has taken a group's columns, so the log stays bounded
        during large measurement runs and fleet simulations.  Returns the
        number of records discarded.
        """
        dropped = self._records_by_function.pop(name, None)
        if not dropped:
            return 0
        if len(dropped) == len(self.invocation_log):
            self.invocation_log.clear()
        else:
            self.invocation_log = [
                record for record in self.invocation_log if record.function_name != name
            ]
        return len(dropped)

    # ------------------------------------------------------------------ misc
    @staticmethod
    def with_default_noise(seed: int = 0, provider: str = "aws") -> "ServerlessPlatform":
        """Platform with default noise models and the given seed/provider."""
        return ServerlessPlatform(
            config=PlatformConfig(provider=provider, seed=seed),
            execution_model=ExecutionModel(
                scaling=ResourceScalingModel(),
                services=ServiceCatalog.default(),
                variability=VariabilityModel(),
            ),
        )

    @staticmethod
    def noise_free(seed: int = 0, provider: str = "aws") -> "ServerlessPlatform":
        """Platform whose execution model has :meth:`VariabilityModel.none`.

        Not free of all run-to-run noise: managed-service latencies keep
        their per-service ``latency_cv`` and cold starts the default
        :class:`ColdStartModel` noise (see :meth:`VariabilityModel.none`).
        Set ``cold_start_model`` to a zero-``noise_cv`` model for
        deterministic cold starts.
        """
        return ServerlessPlatform(
            config=PlatformConfig(provider=provider, seed=seed),
            execution_model=ExecutionModel(variability=VariabilityModel.none()),
        )
