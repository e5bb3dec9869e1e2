"""The serverless platform: deployment, invocation routing, scaling, billing.

:class:`ServerlessPlatform` models the provider-side behaviour the paper's
measurement harness interacts with:

- functions are *deployed* with a name, a resource profile and a memory size
  (changing the memory size redeploys and drops all warm instances),
- each *invocation* is routed to an idle warm worker instance if one exists,
  otherwise a new instance is cold-started (per-instance keep-alive follows
  the :class:`~repro.simulation.coldstart.ColdStartModel`),
- every invocation is billed with the configured
  :class:`~repro.simulation.pricing.PricingModel`; the platform keeps
  running totals of counts and costs, and returns each invocation's
  outcome to its caller rather than logging it.

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
from scipy.special import ndtri

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.execution import ExecutionModel, ExecutionResult
from repro.simulation.pricing import PricingModel
from repro.simulation.profile import ResourceProfile
from repro.simulation.seeding import SOURCE_COLD, draw_key, invocation_uniforms
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


@dataclass(frozen=True)
class DeployedFunction:
    """A function's deployment, read from the platform's rows as a value.

    It does not follow later deploys or invocations: read the function
    again for the current state.

    Attributes
    ----------
    name / profile / memory_mb:
        The deployed function, its resource profile and its size.
    invocation_count:
        Invocations since this deployment (a redeploy restarts it).
    serial:
        The deployment's serial, unique on its platform: grouped runs count
        a group's invocations only while the deployment it captured is
        current.
    """

    name: str
    profile: ResourceProfile
    memory_mb: float
    invocation_count: int = 0
    serial: int = 0


@dataclass(frozen=True)
class InvocationRecord:
    """The outcome and bill of one scalar invocation."""

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


def acquire_worker(
    pool: list[float], at_time_s: float, keep_alive_s: float, max_instances: int
) -> tuple[int, bool]:
    """Find an idle warm worker in ``pool`` or cold-start a new one.

    ``pool`` holds a function's warm workers in pool order, a worker being
    the time it is busy until; it is changed in place.  Returns the serving
    worker's slot and whether that worker was cold-started; the caller sets
    its busy-until.
    """
    if len(pool) == 1 and pool[0] <= at_time_s and at_time_s - pool[0] <= keep_alive_s:
        # Fast path for the dominant open-loop case: a single warm worker,
        # idle at the arrival and within its keep-alive — the reclaim below
        # would keep it and the search would pick it.
        return 0, False
    # Reclaim workers idle longer than the keep-alive (a busy one has been
    # idle for no time, and the keep-alive is positive).
    pool[:] = [busy for busy in pool if at_time_s - busy <= keep_alive_s]
    for slot, busy in enumerate(pool):
        if busy <= at_time_s:
            return slot, False
    if len(pool) >= max_instances:
        # Concurrency limit reached: queue on the earliest-free worker.
        return pool.index(min(pool)), False
    pool.append(0.0)
    return len(pool) - 1, True


class ServerlessPlatform:
    """A simulated FaaS provider (deploy / configure / invoke / billing).

    The platform keeps one row per function it has deployed or billed: a
    name-to-row map plus columns of the row's profile, size, deployment
    serial (0 while not deployed), invocation count and billed cost.  A
    function's warm pool is created when the function first runs.  Engine
    modules read deployments and pools and book invocation counts, costs
    and end pools through the batch methods (:meth:`rows_for`,
    :meth:`deployments`, :meth:`pools`, :meth:`store_pools`,
    :meth:`book_invocations`, :meth:`book_costs`), so a large fleet holds no
    Python object per function.
    """

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
        self._rows: dict[str, int] = {}
        self._n_rows = 0
        self._profiles: list[ResourceProfile | None] = []
        self._memory_mb = np.zeros(0)
        self._serial = np.zeros(0, dtype=np.int64)
        self._invocations = np.zeros(0, dtype=np.int64)
        self._cost = np.zeros(0)
        self._last_serial = 0
        # Each running function's warm workers in pool order, a worker being
        # the time it is busy until: it can serve one request at a time, is
        # idle from then on and is reclaimed once idle longer than the
        # keep-alive.
        self._pools: dict[int, list[float]] = {}
        self._cost_total = 0.0

    @property
    def rng(self) -> np.random.Generator:
        """The platform's shared generator: batches and invocations called
        without a noise key draw their key from it."""
        return self._rng

    # ------------------------------------------------------------- deployment
    @property
    def function_names(self) -> list[str]:
        """Names of all deployed functions (sorted)."""
        deployed = (self._serial[: self._n_rows] > 0).tolist()
        return sorted(name for name, row in self._rows.items() if deployed[row])

    def _check_memory(self, memory_mb: float) -> float:
        allowed = self.config.allowed_memory_sizes_mb
        if allowed is not None and memory_mb not in allowed:
            raise ConfigurationError(
                f"memory size {memory_mb} MB not in allowed sizes {sorted(allowed)}"
            )
        if (
            not isinstance(memory_mb, numbers.Real)
            or not math.isfinite(memory_mb)
            or memory_mb <= 0
        ):
            raise ConfigurationError(
                f"memory_mb must be a positive finite number, got {memory_mb!r}"
            )
        return float(memory_mb)

    def _add_rows(self, n: int) -> int:
        """Append ``n`` rows to the numeric columns; return the first.

        The columns grow by doubling; callers extend ``_profiles`` and the
        name map themselves.
        """
        start = self._n_rows
        need = start + n
        capacity = self._serial.shape[0]
        if need > capacity:
            capacity = max(need, 2 * capacity)
            for column in ("_memory_mb", "_serial", "_invocations", "_cost"):
                old = getattr(self, column)
                grown = np.zeros(capacity, dtype=old.dtype)
                grown[:start] = old[:start]
                setattr(self, column, grown)
        self._n_rows = need
        return start

    def _deploy_row(self, name: str, profile: ResourceProfile, memory_mb: float) -> int:
        """(Re)deploy one checked function: a new serial, no invocations, no pool."""
        row = self._rows.get(name)
        if row is None:
            row = self._rows[name] = self._add_rows(1)
            self._profiles.append(profile)
        else:
            self._profiles[row] = profile
            self._pools.pop(row, None)  # redeployment drops all warm instances
        self._last_serial += 1
        self._memory_mb[row] = memory_mb
        self._serial[row] = self._last_serial
        self._invocations[row] = 0
        return row

    def _deployed_row(self, name: str) -> int:
        row = self._rows.get(name)
        if row is None or not self._serial[row]:
            raise SimulationError(f"function {name!r} is not deployed")
        return row

    def deploy(self, name: str, profile: ResourceProfile, memory_mb: float) -> DeployedFunction:
        """Deploy (or redeploy) a function with the given profile and size.

        A size that is not allowed, not finite or not positive raises
        :class:`~repro.errors.ConfigurationError` before anything changes.
        """
        if not name:
            raise ConfigurationError("function name must be non-empty")
        memory_mb = self._check_memory(memory_mb)
        row = self._deploy_row(name, profile, memory_mb)
        return DeployedFunction(name, profile, memory_mb, 0, int(self._serial[row]))

    def deploy_many(
        self, names: list[str], profiles: list[ResourceProfile], memory_mb: float
    ) -> np.ndarray:
        """Deploy many functions at one shared memory size, in bulk.

        Semantically one :meth:`deploy` call per (name, profile) pair, in
        order — a repeated name keeps its last profile — but the size is
        checked once and, when every name is new and unique, the rows are
        filled with whole-column writes.  Returns the functions' rows in
        input order.
        """
        if len(names) != len(profiles):
            raise ConfigurationError(
                f"got {len(profiles)} profiles for {len(names)} function names"
            )
        memory_mb = self._check_memory(memory_mb)
        n = len(names)
        start = self._n_rows
        fresh = dict(zip(names, range(start, start + n)))
        if "" in fresh or None in fresh:
            raise ConfigurationError("function name must be non-empty")
        if len(fresh) < n or not fresh.keys().isdisjoint(self._rows):
            return np.array(
                [self._deploy_row(name, p, memory_mb) for name, p in zip(names, profiles)],
                dtype=np.int64,
            )
        self._add_rows(n)
        self._profiles.extend(profiles)
        if self._rows:
            self._rows.update(fresh)
        else:
            self._rows = fresh
        self._memory_mb[start : start + n] = memory_mb
        self._serial[start : start + n] = np.arange(
            self._last_serial + 1, self._last_serial + 1 + n
        )
        self._last_serial += n
        return np.arange(start, start + n)

    def get_function(self, name: str) -> DeployedFunction:
        """Return the current deployment of ``name`` as a value."""
        row = self._deployed_row(name)
        return DeployedFunction(
            name,
            self._profiles[row],
            float(self._memory_mb[row]),
            int(self._invocations[row]),
            int(self._serial[row]),
        )

    def set_memory_size(self, name: str, memory_mb: float) -> None:
        """Change a deployed function's memory size (drops warm instances)."""
        row = self._deployed_row(name)
        self._deploy_row(name, self._profiles[row], self._check_memory(memory_mb))

    def remove(self, name: str) -> None:
        """Remove a deployed function and its warm instances (its bill stays)."""
        row = self._deployed_row(name)
        self._serial[row] = 0
        self._profiles[row] = None
        self._pools.pop(row, None)

    # ------------------------------------------------------------ batch rows
    def rows_for(self, names) -> np.ndarray:
        """The row of each name, in order, as an int64 array.

        A name the platform has neither deployed nor billed gets a row that
        is not deployed, so its costs can be booked.
        """
        rows = self._rows
        for name in names:
            if name not in rows:
                rows[name] = self._add_rows(1)
                self._profiles.append(None)
        return np.fromiter(map(rows.__getitem__, names), dtype=np.int64, count=len(names))

    def deployments(self, rows: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """Profiles, sizes and serials of the rows' current deployments.

        A row that is not deployed reads serial 0 and profile ``None``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        profiles = list(map(self._profiles.__getitem__, rows.tolist()))
        return profiles, self._memory_mb[rows], self._serial[rows]

    def pools(self, rows: list[int]) -> list:
        """The warm pools of the given rows, in order.

        Each is the platform's list of busy-until times in pool order, or an
        empty tuple for a function that has not run since its deployment.
        Read only: :meth:`store_pools` replaces pools.
        """
        return list(map(self._pools.get, rows, repeat(())))

    def store_pools(self, rows, pools) -> None:
        """Set the warm pools of the given rows, in order (a repeated row keeps its last)."""
        self._pools.update(zip(rows, pools))

    def book_invocations(self, rows: np.ndarray, serials: np.ndarray, counts: np.ndarray) -> None:
        """Add invocation counts to the rows whose current deployment has the given serial.

        A count booked against a superseded deployment is dropped: the
        invocation count covers the current deployment only.
        """
        current = self._serial[rows] == serials
        np.add.at(self._invocations, rows[current], counts[current])

    def book_costs(self, rows: np.ndarray, costs: np.ndarray) -> None:
        """Add billed amounts, in order, to the rows' and the platform's totals.

        Each total is summed in the order given, so booking a grouped run's
        group costs equals booking them one at a time.
        """
        np.add.at(self._cost, rows, costs)
        total = self._cost_total
        for cost in costs.tolist():
            total += cost
        self._cost_total = total

    # ------------------------------------------------------------- invocation
    def invoke(
        self,
        name: str,
        at_time_s: float = 0.0,
        key: int | None = None,
        noise=None,
    ) -> InvocationRecord:
        """Invoke a deployed function at virtual time ``at_time_s``.

        The invocation reads its execution noise (stream contract v2,
        :mod:`repro.simulation.seeding`) from ``noise``, its row of
        uniforms indexed by source, which the serial backend hands each
        arrival of a batch; without one, from position 0 of ``key``; without
        either, from a key drawn from the platform's shared generator, so
        repeated calls differ.  A negative or non-finite time raises
        :class:`~repro.errors.SimulationError` before any pool, counter or
        bill changes.
        """
        if at_time_s < 0 or not math.isfinite(at_time_s):
            raise SimulationError("at_time_s must be finite and non-negative")
        row = self._deployed_row(name)
        if noise is None:
            noise = invocation_uniforms(draw_key(self._rng) if key is None else key)
        profile = self._profiles[row]
        memory_mb = float(self._memory_mb[row])
        pool = self._pools.setdefault(row, [])
        slot, is_cold = acquire_worker(
            pool,
            at_time_s,
            self.cold_start_model.keep_alive_s,
            self.config.max_instances_per_function,
        )

        init_ms = 0.0
        if is_cold:
            cpu_share = self.execution_model.scaling.cpu_share(memory_mb)
            init_ms = self.cold_start_model.duration_ms(
                memory_mb,
                profile.code_size_kb,
                cpu_share,
                z=float(ndtri(noise[SOURCE_COLD])),
            )

        result = self.execution_model.execute(
            profile,
            memory_mb,
            noise,
            timestamp_s=at_time_s,
            cold_start=is_cold,
            init_duration_ms=init_ms,
        )

        pool[slot] = max(at_time_s, pool[slot]) + result.total_latency_ms / 1000.0
        self._invocations[row] += 1

        billed_ms = self.pricing_model.billed_duration_ms(result.execution_time_ms)
        cost = self.pricing_model.execution_cost(result.execution_time_ms, memory_mb)
        self._cost[row] += cost
        self._cost_total += cost
        return InvocationRecord(
            function_name=name,
            memory_mb=memory_mb,
            timestamp_s=at_time_s,
            result=result,
            cost_usd=cost,
            billed_duration_ms=billed_ms,
        )

    def invoke_many(self, name: str, timestamps_s: list[float]) -> list[InvocationRecord]:
        """Invoke a function once per timestamp (timestamps need not be sorted).

        Checked as :meth:`invoke_batch` checks its timestamps, before the
        first invocation runs.
        """
        return [self.invoke(name, at_time_s=t) for t in _sorted_arrivals(timestamps_s).tolist()]

    def invoke_batch(self, name: str, timestamps_s, backend=None, key=None):
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
        key:
            Optional execution-noise key of the batch
            (:mod:`repro.simulation.seeding`); ``None`` draws one from the
            platform's shared generator.

        Returns a :class:`~repro.simulation.engine.BatchResult` with one column
        per invocation attribute.  The serial backend calls :meth:`invoke`
        once per arrival; the vectorized and parallel backends run the batch
        as one group of the grouped kernel.  Both read the same noise values.
        """
        from repro.simulation.engine import get_backend

        resolved = get_backend(backend if backend is not None else "serial")
        return resolved.run_batch(self, name, _sorted_arrivals(timestamps_s), key=key)

    # ---------------------------------------------------------------- billing
    def total_cost_usd(self, name: str | None = None) -> float:
        """Total billed cost, optionally restricted to one function (running totals)."""
        if name is None:
            return float(self._cost_total)
        row = self._rows.get(name)
        return 0.0 if row is None else float(self._cost[row])

    def warm_instance_count(self, name: str) -> int:
        """Number of currently provisioned worker instances for ``name``."""
        return len(self.busy_until(name))

    def busy_until(self, name: str) -> list[float]:
        """The times ``name``'s warm workers are busy until, in pool order (a copy)."""
        return list(self._pools.get(self._deployed_row(name), ()))

    # ------------------------------------------------------------------ misc
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
