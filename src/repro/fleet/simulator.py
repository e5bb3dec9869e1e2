"""Trace-driven simulation of a production fleet of deployed functions.

The offline harness (:mod:`repro.dataset.harness`) measures functions one at
a time, at every memory size, under a constant-rate workload — the paper's
controlled measurement protocol.  Production looks different: hundreds to
thousands of functions are deployed *simultaneously*, each at exactly one
memory size, serving time-varying traffic around the clock.

:class:`FleetSimulator` models that production side.  It deploys a whole
fleet on one :class:`~repro.simulation.platform.ServerlessPlatform`, assigns
every function a :class:`~repro.workloads.traffic.TrafficModel`, and advances
virtual time in fixed monitoring windows.  By default each :meth:`run_window`
call executes the whole fleet as **one fused cross-function mega-batch**
(:meth:`~repro.simulation.engine.ExecutionBackend.run_grouped`): every
function's window arrivals are flattened into single columnar arrays with a
group-id structure and reduced straight to the dense
``(n_functions, n_metrics, n_stats)`` window stats with segmented reductions
— no per-function batches, no per-summary objects.  With ``fused=False`` the
simulator issues one engine batch per function instead (the looped reference
path, bit-identical because every (function, window) pair owns private
traffic and noise streams spawned via :mod:`repro.simulation.seeding`).  The
result is one :class:`FleetWindow` of dense per-function monitoring arrays,
which the rightsizing controller (:mod:`repro.fleet.controller`) consumes.

Memory stays bounded by one window: batch columns are transient, per-function
records are discarded from the platform log after aggregation, and the
simulator retains only the fleet's current deployment state.

At platform scale (10^5–10^6 functions, mostly idle under diurnal traffic)
three compounding levers make :meth:`FleetSimulator.run_window` scale with
*active, distinct* work instead of fleet size:

- **Fused traffic sampling** (``traffic_mode="fused"``, the default) — one
  window draws the whole fleet's arrivals from a single stream via
  :class:`~repro.workloads.traffic.FleetTrafficSchedule`: one Poisson draw,
  one rate-matrix evaluation, one thinning pass, instead of one Python
  ``arrivals()`` call per function.  Engine groups are then built only for
  functions with >0 arrivals; idle functions cost O(1) bookkeeping.
- **Sparse windows** (``sparse=True``) — the window result itself is a
  :class:`SparseFleetWindow` holding rows only for active functions, so
  per-window memory is bounded by the active count, not the fleet size.
  ``sparse=False`` (the default) scatters the same rows into the dense
  :class:`FleetWindow`, bit-identically.
- **Cohort deduplication** (``cohort_mode="statistical"``) — active
  functions sharing (profile, memory size, mean-rate bucket) execute one
  representative group; members receive the representative's stat block
  scaled by their own arrival count.  Off by default: per-function noise
  streams make exact cohorting impossible, so this is an explicitly
  statistical approximation (representatives stay bit-exact).
- **Shard-parallel window execution** (``window_shard_size``) — the active
  groups are cut into shards executed through
  :meth:`~repro.simulation.engine.ExecutionBackend.run_stat_shards`
  (in-order delivery, parallel fan-out on the parallel backend), bounding
  peak batch memory by one shard and keeping results bit-identical across
  shard counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.profiling import WindowPhaseProfiler
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.engine import (
    ExecutionBackend,
    GroupRequest,
    available_backends,
    get_backend,
)
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import (
    STREAM_EXECUTION,
    STREAM_TRAFFIC,
    child_rng,
    keyed_child_rngs,
)
from repro.workloads.function import FunctionSpec
from repro.workloads.traffic import (
    FleetArrivals,
    FleetTrafficSchedule,
    TrafficModel,
    fleet_mean_rates,
)

#: Stat-axis column of the mean (column order of
#: :data:`~repro.monitoring.aggregation.STAT_NAMES`).
_MEAN = STAT_NAMES.index("mean")

#: Metric-axis row of the execution time (Table-1 order).
_EXECUTION_TIME = METRIC_NAMES.index("execution_time")


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of a fleet simulation.

    Attributes
    ----------
    window_s:
        Length of one monitoring window in virtual seconds (one hour by
        default — the granularity at which CloudWatch-style monitoring is
        typically aggregated).
    default_memory_mb:
        Memory size every function is initially deployed with (the paper's
        256 MB default deployment that Table 8 measures savings against).
    memory_sizes_mb:
        Sizes the fleet may be resized to (the platform is configured to
        allow exactly these).
    backend:
        Execution backend for the window batches (``"serial"``,
        ``"vectorized"``, ``"parallel"``).
    n_workers:
        Worker count for the parallel backend (ignored otherwise).
    exclude_cold_starts:
        Drop cold-start invocations from window aggregation (the monitoring
        wrapper only measures warm executions).
    max_arrivals_per_window:
        Optional per-function cap on simulated arrivals per window; the
        arrival *pattern* is preserved by uniform subsampling, exactly like
        the offline harness cap.
    stream_records:
        Discard per-invocation records from the platform log after each
        window (keeps memory bounded; billing totals are preserved).
    seed:
        Base seed of the per-(function, window) traffic and noise streams.
    fused:
        Execute each monitoring window as one fused cross-function
        mega-batch (the default) instead of one engine batch per function.
        Bit-identical either way — every (function, window) pair draws from
        its own spawned streams — but the fused path is several times
        faster at fleet scale (see ``benchmarks/test_bench_fleet.py``).
    traffic_mode:
        ``"fused"`` (default) samples the whole fleet's window arrivals from
        one stream via :class:`~repro.workloads.traffic.FleetTrafficSchedule`
        — one Poisson draw, one rate-matrix evaluation, one thinning pass
        per window.  ``"per-function"`` draws each function's arrivals from
        its own spawned stream (the pre-sparse behaviour).  Both are
        deterministic in the seed; the two modes draw *different* (equally
        valid) arrival realizations of the same processes.
    sparse:
        Return :class:`SparseFleetWindow` results holding rows only for the
        window's active functions (memory bounded by the active count).  The
        default ``False`` scatters the same rows into the dense
        :class:`FleetWindow` — the two representations are bit-identical.
    cohort_mode:
        ``"off"`` (default) executes every active function — the exactness
        escape hatch: per-function noise streams force per-function draws,
        so only this mode is bit-reproducible function by function.
        ``"statistical"`` deduplicates active functions into (profile,
        memory size, mean-rate bucket) cohorts, executes one representative
        each and broadcasts its stat block to the members scaled by their
        own arrival counts (representatives stay bit-exact).
    cohort_rate_buckets_per_decade:
        Resolution of the cohort rate bucketing: mean window rates are
        bucketed on a log10 grid with this many buckets per decade.
    window_shard_size:
        When set, the window's active groups execute in shards of this many
        functions through
        :meth:`~repro.simulation.engine.ExecutionBackend.run_stat_shards`
        (bounding peak batch memory by one shard; the parallel backend fans
        shards out over workers).  Results are bit-identical for any shard
        size.  ``None`` executes one mega-batch over all active groups.
    rate_resolution:
        Midpoint samples per window for the batched rate-matrix evaluations
        (cohort rate bucketing); see
        :func:`~repro.workloads.traffic.fleet_rate_matrix`.
    noise:
        Noise-draw mode: ``"per-group"`` (default; every (function, window)
        pair draws from its own spawned stream, bit-exact across backends
        and scheduling orders) or ``"pooled"`` (all active functions of a
        window draw from one shared window stream — removes the per-group
        draw loop and the per-function stream spawns; statistical parity;
        requires ``fused=True``, no window sharding and a backend with
        ``supports_pooled_noise``, currently ``"vectorized"``).
    """

    window_s: float = 3600.0
    default_memory_mb: int = 256
    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    backend: str = "vectorized"
    n_workers: int | None = None
    exclude_cold_starts: bool = True
    max_arrivals_per_window: int | None = None
    stream_records: bool = True
    seed: int = 0
    fused: bool = True
    traffic_mode: str = "fused"
    sparse: bool = False
    cohort_mode: str = "off"
    cohort_rate_buckets_per_decade: int = 2
    window_shard_size: int | None = None
    rate_resolution: int = 64
    noise: str = "per-group"

    def __post_init__(self) -> None:
        """Validate window geometry, sizes, backend and scaling knobs."""
        if not np.isfinite(self.window_s) or self.window_s <= 0:
            raise ConfigurationError("window_s must be a positive finite number")
        if not self.memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")
        if any(size <= 0 for size in self.memory_sizes_mb):
            raise ConfigurationError("memory sizes must be positive")
        if int(self.default_memory_mb) not in tuple(int(s) for s in self.memory_sizes_mb):
            raise ConfigurationError("default_memory_mb must be one of memory_sizes_mb")
        if self.backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {available_backends()}"
            )
        if self.max_arrivals_per_window is not None and self.max_arrivals_per_window < 1:
            raise ConfigurationError("max_arrivals_per_window must be at least 1 when given")
        if self.traffic_mode not in ("fused", "per-function"):
            raise ConfigurationError(
                f"traffic_mode must be 'fused' or 'per-function', got {self.traffic_mode!r}"
            )
        if self.cohort_mode not in ("off", "statistical"):
            raise ConfigurationError(
                f"cohort_mode must be 'off' or 'statistical', got {self.cohort_mode!r}"
            )
        if self.cohort_rate_buckets_per_decade < 1:
            raise ConfigurationError("cohort_rate_buckets_per_decade must be at least 1")
        if self.window_shard_size is not None and self.window_shard_size < 1:
            raise ConfigurationError("window_shard_size must be at least 1 when given")
        if self.rate_resolution < 1:
            raise ConfigurationError("rate_resolution must be at least 1")
        if self.noise not in ("per-group", "pooled"):
            raise ConfigurationError(
                f"noise must be 'per-group' or 'pooled', got {self.noise!r}"
            )
        if self.noise == "pooled" and not self.fused:
            raise ConfigurationError("noise='pooled' requires fused=True")
        if self.noise == "pooled" and self.window_shard_size is not None:
            raise ConfigurationError(
                "noise='pooled' cannot be combined with window_shard_size"
            )


@dataclass(frozen=True)
class FleetWindow:
    """Columnar monitoring result of one fleet window.

    Attributes
    ----------
    index:
        Zero-based window number.
    start_s / end_s:
        Window bounds in virtual seconds.
    memory_mb:
        ``(n_functions,)`` size each function was deployed at during the
        window.
    stats:
        ``(n_functions, n_metrics, n_stats)`` aggregated statistics (Table-1
        metric order, mean/std/cv stat order) of each function at its
        current size; zero rows mark functions without traffic.
    n_invocations:
        ``(n_functions,)`` invocations that survived the aggregation masks.
    n_arrivals:
        ``(n_functions,)`` raw arrivals driven through the platform.
    n_cold_starts:
        ``(n_functions,)`` cold-started invocations.
    cost_usd:
        ``(n_functions,)`` total billed cost of the window.
    """

    index: int
    start_s: float
    end_s: float
    memory_mb: np.ndarray
    stats: np.ndarray
    n_invocations: np.ndarray
    n_arrivals: np.ndarray
    n_cold_starts: np.ndarray
    cost_usd: np.ndarray

    @property
    def n_functions(self) -> int:
        """Number of fleet functions covered by the window."""
        return int(self.memory_mb.shape[0])

    @property
    def total_invocations(self) -> int:
        """Fleet-wide invocation count of the window."""
        return int(np.sum(self.n_invocations))

    @property
    def total_cost_usd(self) -> float:
        """Fleet-wide billed cost of the window."""
        return float(np.sum(self.cost_usd))

    def mean_execution_time_ms(self) -> np.ndarray:
        """Per-function mean execution time of the window (0 = no traffic)."""
        return self.stats[:, _EXECUTION_TIME, _MEAN]


@dataclass(frozen=True)
class SparseFleetWindow:
    """Active-rows-only monitoring result of one fleet window.

    Same numbers as the dense :class:`FleetWindow` representation —
    :meth:`to_dense` scatters the rows back bit-identically — but the
    stat/count/cost columns hold rows only for the window's *active*
    functions, so per-window memory is bounded by the active count rather
    than the fleet size.  ``memory_mb`` stays dense: the controller and the
    savings ledger need every function's deployed size, and one integer per
    function is the O(fleet) bookkeeping floor the simulator already pays.

    Attributes
    ----------
    index:
        Zero-based window number.
    start_s / end_s:
        Window bounds in virtual seconds.
    memory_mb:
        ``(n_functions,)`` size each function was deployed at during the
        window (dense).
    active:
        ``(n_active,)`` sorted function indices with >0 arrivals this
        window; all remaining columns are parallel to it.
    stats:
        ``(n_active, n_metrics, n_stats)`` aggregated statistics of the
        active functions (Table-1 metric order, mean/std/cv stat order).
    n_invocations:
        ``(n_active,)`` invocations that survived the aggregation masks.
    n_arrivals:
        ``(n_active,)`` raw arrivals driven through the platform.
    n_cold_starts:
        ``(n_active,)`` cold-started invocations.
    cost_usd:
        ``(n_active,)`` total billed cost of the window.
    """

    index: int
    start_s: float
    end_s: float
    memory_mb: np.ndarray
    active: np.ndarray
    stats: np.ndarray
    n_invocations: np.ndarray
    n_arrivals: np.ndarray
    n_cold_starts: np.ndarray
    cost_usd: np.ndarray

    @property
    def n_functions(self) -> int:
        """Number of fleet functions covered by the window."""
        return int(self.memory_mb.shape[0])

    @property
    def n_active(self) -> int:
        """Number of functions with traffic this window."""
        return int(self.active.shape[0])

    @property
    def total_invocations(self) -> int:
        """Fleet-wide invocation count of the window."""
        return int(np.sum(self.n_invocations))

    @property
    def total_cost_usd(self) -> float:
        """Fleet-wide billed cost of the window."""
        return float(np.sum(self.cost_usd))

    def mean_execution_time_ms(self) -> np.ndarray:
        """Mean execution time of the *active* rows (parallel to ``active``)."""
        return self.stats[:, _EXECUTION_TIME, _MEAN]

    def to_dense(self) -> FleetWindow:
        """Scatter the active rows into the dense window representation."""
        n = self.n_functions
        stats = np.zeros((n, len(METRIC_NAMES), len(STAT_NAMES)), dtype=float)
        n_invocations = np.zeros(n, dtype=np.int64)
        n_arrivals = np.zeros(n, dtype=np.int64)
        n_cold = np.zeros(n, dtype=np.int64)
        cost = np.zeros(n, dtype=float)
        stats[self.active] = self.stats
        n_invocations[self.active] = self.n_invocations
        n_arrivals[self.active] = self.n_arrivals
        n_cold[self.active] = self.n_cold_starts
        cost[self.active] = self.cost_usd
        return FleetWindow(
            index=self.index,
            start_s=self.start_s,
            end_s=self.end_s,
            memory_mb=self.memory_mb.copy(),
            stats=stats,
            n_invocations=n_invocations,
            n_arrivals=n_arrivals,
            n_cold_starts=n_cold,
            cost_usd=cost,
        )


class FleetSimulator:
    """Advances a deployed fleet through monitoring windows of virtual time."""

    def __init__(
        self,
        functions: list[FunctionSpec],
        traffic: list[TrafficModel],
        config: FleetConfig | None = None,
        platform: ServerlessPlatform | None = None,
    ) -> None:
        """Deploy the fleet at the default size and bind its traffic models.

        Parameters
        ----------
        functions:
            The fleet's function specifications (unique names).
        traffic:
            One :class:`~repro.workloads.traffic.TrafficModel` per function.
        config:
            Fleet configuration (defaults to :class:`FleetConfig`).
        platform:
            Optional pre-configured platform; by default one is created that
            allows exactly the configured memory sizes.
        """
        self.config = config if config is not None else FleetConfig()
        if not functions:
            raise ConfigurationError("a fleet needs at least one function")
        if len(traffic) != len(functions):
            raise ConfigurationError(
                f"got {len(traffic)} traffic models for {len(functions)} functions"
            )
        names = [function.name for function in functions]
        if len(set(names)) != len(names):
            raise ConfigurationError("fleet function names must be unique")
        self.functions = list(functions)
        self.traffic = list(traffic)
        if platform is None:
            platform = ServerlessPlatform(
                config=PlatformConfig(
                    allowed_memory_sizes_mb=tuple(
                        int(s) for s in self.config.memory_sizes_mb
                    ),
                    seed=self.config.seed,
                )
            )
        self.platform = platform
        self.backend: ExecutionBackend = get_backend(
            self.config.backend,
            n_workers=self.config.n_workers,
            noise=self.config.noise,
        )
        self._clock_s = 0.0
        self._window_index = 0
        self._memory_mb = np.full(
            len(self.functions), int(self.config.default_memory_mb), dtype=int
        )
        # Both traffic modes sample through the fused schedule kernels now
        # (the per-function mode through its keyed-stream entry point), so
        # the schedule is always built.
        self._schedule = FleetTrafficSchedule(self.traffic)
        # Deployment rows indexed by function, maintained across resizes, so
        # window request construction never round-trips through the
        # platform's name registry.
        self._deployments = self.platform.deploy_many(
            names,
            [function.profile for function in self.functions],
            float(self.config.default_memory_mb),
        )
        self.profiler = WindowPhaseProfiler()

    # ------------------------------------------------------------------ state
    @property
    def n_functions(self) -> int:
        """Number of functions in the fleet."""
        return len(self.functions)

    @property
    def clock_s(self) -> float:
        """Current virtual time (start of the next window)."""
        return self._clock_s

    @property
    def windows_run(self) -> int:
        """Number of windows simulated so far."""
        return self._window_index

    def current_memory_mb(self) -> np.ndarray:
        """Return a copy of the per-function deployed memory sizes."""
        return self._memory_mb.copy()

    def function_names(self) -> tuple[str, ...]:
        """Fleet function names in index order."""
        return tuple(function.name for function in self.functions)

    # ----------------------------------------------------------------- resize
    def resize(self, function_index: int, memory_mb: int) -> None:
        """Redeploy one function at a new memory size (drops warm instances)."""
        memory_mb = int(memory_mb)
        if memory_mb not in tuple(int(s) for s in self.config.memory_sizes_mb):
            raise SimulationError(
                f"memory size {memory_mb} MB not among fleet sizes "
                f"{list(self.config.memory_sizes_mb)}"
            )
        function = self.functions[int(function_index)]
        self.platform.set_memory_size(
            function.name, float(memory_mb), at_time_s=self._clock_s
        )
        # Redeployment replaced the platform record; refresh the cached row.
        self._deployments[int(function_index)] = self.platform.get_function(
            function.name
        )
        self._memory_mb[int(function_index)] = memory_mb

    # ----------------------------------------------------------------- window
    def _sample_arrivals(self, start_s: float, end_s: float) -> FleetArrivals:
        """Sample the whole fleet's window arrivals.

        ``traffic_mode="fused"`` draws the fleet from one window-wide stream
        (one Poisson draw, one rate-matrix evaluation, one thinning pass);
        ``"per-function"`` draws each function from its own spawned stream.
        Both are deterministic in the seed but produce *different* (equally
        valid) realizations of the same processes.
        """
        if self.config.traffic_mode == "fused":
            return self._schedule.sample_window(
                start_s,
                end_s,
                child_rng(self.config.seed, STREAM_TRAFFIC, self._window_index),
                max_per_function=self.config.max_arrivals_per_window,
            )
        traffic_rngs = keyed_child_rngs(
            self.config.seed,
            STREAM_TRAFFIC,
            self._window_index,
            indices=np.arange(self.n_functions),
        )
        return self._schedule.sample_window_keyed(
            start_s,
            end_s,
            traffic_rngs,
            max_per_function=self.config.max_arrivals_per_window,
        )

    def _execution_rngs(self, indices: np.ndarray) -> list[np.random.Generator]:
        """Derive the private noise streams of the given function indices.

        Keyed derivation (:func:`~repro.simulation.seeding.keyed_child_rngs`)
        constructs exactly the requested streams in one vectorized batch —
        bit-identical to spawning the full fleet and indexing, but O(active)
        regardless of fleet size, so idle functions never cost a stream.

        In the pooled-noise mode every group shares one window-scoped
        stream (keyed by window only, no per-function children), so the
        cost is O(1) regardless of how many functions are active.
        """
        seed = self.platform.config.seed
        if self.config.noise == "pooled":
            shared = child_rng(seed, STREAM_EXECUTION, self._window_index)
            return [shared] * indices.shape[0]
        return keyed_child_rngs(
            seed, STREAM_EXECUTION, self._window_index, indices=indices
        )

    def _cohort_plan(
        self, active: np.ndarray, start_s: float, end_s: float
    ) -> np.ndarray | None:
        """Map each active position to its cohort representative's position.

        Cohort key: (profile value, deployed memory size, log10 bucket of
        the mean window rate).  The profile participates by *value* —
        :class:`~repro.simulation.profile.ResourceProfile` is frozen and
        hashable — so cohort assignment is deterministic across processes,
        shards and runs, and equal-valued profiles cohort together even when
        they are distinct objects.  Functions whose mean rate is not
        bucketable (zero / non-finite) stay solo.  Returns ``None`` when
        cohorting is off or degenerate (every cohort a singleton) so callers
        keep the exact path.
        """
        if self.config.cohort_mode != "statistical" or active.shape[0] < 2:
            return None
        rates = fleet_mean_rates(
            [self.traffic[int(i)] for i in active],
            start_s,
            end_s,
            resolution=self.config.rate_resolution,
        )
        per_decade = self.config.cohort_rate_buckets_per_decade
        bucketable = np.isfinite(rates) & (rates > 0.0)
        buckets = np.zeros(active.shape[0], dtype=np.int64)
        buckets[bucketable] = np.floor(
            np.log10(rates[bucketable]) * per_decade
        ).astype(np.int64)
        seen: dict[object, int] = {}
        rep_of = np.empty(active.shape[0], dtype=np.int64)
        for position, index in enumerate(active):
            if bucketable[position]:
                key: object = (
                    self.functions[int(index)].profile,
                    int(self._memory_mb[int(index)]),
                    int(buckets[position]),
                )
            else:
                key = ("solo", int(index))
            rep_of[position] = seen.setdefault(key, position)
        if np.array_equal(rep_of, np.arange(active.shape[0])):
            return None
        return rep_of

    def _execute_active(
        self, arrivals: FleetArrivals
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Execute the window's active groups.

        Returns ``(active, stats, n_invocations, n_cold_starts, cost_usd)``
        where every column after ``active`` is parallel to it (one row per
        active function).  Zero-arrival functions never reach the engine:
        no group request is built for them, they cost O(1) here.
        """
        active = arrivals.active()
        k = active.shape[0]
        n_metrics, n_stats = len(METRIC_NAMES), len(STAT_NAMES)
        if k == 0:
            return (
                active,
                np.zeros((0, n_metrics, n_stats), dtype=float),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=float),
            )
        tick = perf_counter()
        plan = self._cohort_plan(active, arrivals.start_s, arrivals.end_s)
        if plan is None:
            execute_positions = np.arange(k)
        else:
            execute_positions = np.unique(plan)
        execute = active[execute_positions]
        self.profiler.add("group-build", perf_counter() - tick)
        tick = perf_counter()
        exec_rngs = self._execution_rngs(execute)
        self.profiler.add("seeding", perf_counter() - tick)
        e = execute.shape[0]
        if self.config.fused:
            # Build group requests straight from the cached deployment rows
            # and the columnar arrival buffers: no platform name-registry
            # lookups, no per-group array re-validation — each request holds
            # a view into the window's flat ``times_s``.
            tick = perf_counter()
            times_s = arrivals.times_s
            offsets = arrivals.offsets
            deployments = self._deployments
            requests = [
                GroupRequest(
                    deployment=deployments[i],
                    arrivals=times_s[offsets[i] : offsets[i + 1]],
                    rng=exec_rngs[j],
                )
                for j, i in enumerate(execute.tolist())
            ]
            self.profiler.add("group-build", perf_counter() - tick)
            tick = perf_counter()
            shard = self.config.window_shard_size
            if shard is not None and len(requests) > shard:
                stats_e = np.zeros((e, n_metrics, n_stats), dtype=float)
                ninv_e = np.zeros(e, dtype=np.int64)
                cold_e = np.zeros(e, dtype=np.int64)
                cost_e = np.zeros(e, dtype=float)

                def _collect(start, stats, counts, sizes, cold, costs):
                    stop = start + stats.shape[0]
                    stats_e[start:stop] = stats
                    ninv_e[start:stop] = counts
                    cold_e[start:stop] = cold
                    cost_e[start:stop] = costs

                self.backend.run_stat_shards(
                    self.platform,
                    requests,
                    shard,
                    exclude_cold_starts=self.config.exclude_cold_starts,
                    on_shard=_collect,
                )
                self.profiler.add("execute", perf_counter() - tick)
            else:
                batch = self.backend.run_grouped(self.platform, requests)
                self.profiler.add("execute", perf_counter() - tick)
                tick = perf_counter()
                stats_e, ninv_e = batch.aggregate_stats(
                    warmup_s=0.0, exclude_cold_starts=self.config.exclude_cold_starts
                )
                cold_e = batch.cold_starts_per_group()
                cost_e = batch.cost_per_group()
                self.profiler.add("reduce", perf_counter() - tick)
            if self.config.stream_records:
                # The batch backends materialize no records, but the serial
                # backend's scalar path appends every invocation to the
                # platform log — drop the window's records in one pass so
                # memory stays bounded by one window regardless of backend.
                self.platform.discard_all_records()
        else:
            tick = perf_counter()
            stats_e = np.zeros((e, n_metrics, n_stats), dtype=float)
            ninv_e = np.zeros(e, dtype=np.int64)
            cold_e = np.zeros(e, dtype=np.int64)
            cost_e = np.zeros(e, dtype=float)
            for j, i in enumerate(execute):
                name = self.functions[int(i)].name
                batch = self.platform.invoke_batch(
                    name,
                    arrivals.arrivals_of(int(i)),
                    backend=self.backend,
                    rng=exec_rngs[j],
                )
                stats_e[j], ninv_e[j] = batch.aggregate_stats(
                    warmup_s=0.0, exclude_cold_starts=self.config.exclude_cold_starts
                )
                cold_e[j] = batch.n_cold_starts
                cost_e[j] = batch.total_cost_usd
                if self.config.stream_records:
                    self.platform.discard_function_records(name)
            self.profiler.add("execute", perf_counter() - tick)
        if plan is None:
            return active, stats_e, ninv_e, cold_e, cost_e
        tick = perf_counter()
        # Broadcast each representative's stat block to its cohort members,
        # scaled by the member's own arrival count.  Representatives map to
        # themselves with scale exactly 1.0, so their rows stay bit-exact.
        rep_idx = np.searchsorted(execute_positions, plan)
        counts_all = arrivals.counts()
        scale = (
            counts_all[active].astype(float)
            / counts_all[execute].astype(float)[rep_idx]
        )
        stats_k = stats_e[rep_idx]
        ninv_k = np.rint(ninv_e[rep_idx] * scale).astype(np.int64)
        cold_k = np.rint(cold_e[rep_idx] * scale).astype(np.int64)
        cost_k = cost_e[rep_idx] * scale
        members = np.flatnonzero(plan != np.arange(k))
        for position in members:
            # Members never touched the engine: book their scaled cost and
            # invocation count on the platform so billing totals stay
            # consistent with the window's columns.
            name = self.functions[int(active[position])].name
            self.platform._note_cost(name, float(cost_k[position]))
            self.platform._functions[name].invocation_count += int(
                counts_all[active[position]]
            )
        self.profiler.add("reduce", perf_counter() - tick)
        return active, stats_k, ninv_k, cold_k, cost_k

    def run_window(self) -> FleetWindow | SparseFleetWindow:
        """Simulate the next monitoring window for the whole fleet.

        Arrivals are sampled for the fleet first; only functions with >0
        arrivals build engine groups (idle functions cost O(1) and never
        reach the engine).  By default the active groups execute as one
        fused cross-function mega-batch reduced straight to per-function
        stat rows with segmented reductions; with ``fused=False`` every
        active function's arrivals run as their own engine batch, and with
        ``window_shard_size`` set the groups execute in bounded shards.
        All execution paths are bit-identical under the same traffic mode.
        Functions without traffic produce zero rows in the dense result
        (``sparse=False``) or no row at all in the sparse one.
        """
        start_s = self._clock_s
        end_s = start_s + self.config.window_s
        tick = perf_counter()
        arrivals = self._sample_arrivals(start_s, end_s)
        self.profiler.add("traffic", perf_counter() - tick)
        active, stats_k, ninv_k, cold_k, cost_k = self._execute_active(arrivals)
        tick = perf_counter()
        n_arrivals_k = arrivals.counts()[active]
        index = self._window_index
        self._clock_s = end_s
        self._window_index += 1
        if self.config.sparse:
            window: FleetWindow | SparseFleetWindow = SparseFleetWindow(
                index=index,
                start_s=start_s,
                end_s=end_s,
                memory_mb=self._memory_mb.copy(),
                active=active,
                stats=stats_k,
                n_invocations=ninv_k,
                n_arrivals=n_arrivals_k,
                n_cold_starts=cold_k,
                cost_usd=cost_k,
            )
        else:
            n = self.n_functions
            stats = np.zeros((n, len(METRIC_NAMES), len(STAT_NAMES)), dtype=float)
            n_invocations = np.zeros(n, dtype=np.int64)
            n_arrivals = np.zeros(n, dtype=np.int64)
            n_cold = np.zeros(n, dtype=np.int64)
            cost = np.zeros(n, dtype=float)
            stats[active] = stats_k
            n_invocations[active] = ninv_k
            n_arrivals[active] = n_arrivals_k
            n_cold[active] = cold_k
            cost[active] = cost_k
            window = FleetWindow(
                index=index,
                start_s=start_s,
                end_s=end_s,
                memory_mb=self._memory_mb.copy(),
                stats=stats,
                n_invocations=n_invocations,
                n_arrivals=n_arrivals,
                n_cold_starts=n_cold,
                cost_usd=cost,
            )
        self.profiler.add("reduce", perf_counter() - tick)
        self.profiler.count_window()
        return window
