"""Trace-driven simulation of a production fleet of deployed functions.

The offline harness (:mod:`repro.dataset.harness`) measures functions one at
a time, at every memory size, under a constant-rate workload — the paper's
controlled measurement protocol.  Production looks different: hundreds to
thousands of functions are deployed *simultaneously*, each at exactly one
memory size, serving time-varying traffic around the clock.

:class:`FleetSimulator` models that production side.  It deploys a whole
fleet on one :class:`~repro.simulation.platform.ServerlessPlatform`, assigns
every function a :class:`~repro.workloads.traffic.TrafficModel`, and advances
virtual time in fixed monitoring windows.  Each :meth:`run_window` call has
one body, which scales with the window's *active* work rather than the
fleet size (10^5–10^6 functions, mostly idle under diurnal traffic):

1. **Traffic** — the whole fleet's arrivals are drawn from one window
   stream through :class:`~repro.workloads.traffic.FleetTrafficSchedule`:
   one Poisson draw, one rate-matrix evaluation, one thinning pass.
2. **Seeding** — only functions with >0 arrivals get an execution noise
   stream, derived by key (:mod:`repro.simulation.seeding`), so every
   (function, window) pair draws private noise and idle functions cost
   O(1) bookkeeping.
3. **Execute** — the active groups run as one cross-function mega-batch
   through the grouped kernel
   (:meth:`~repro.simulation.engine.VectorizedBackend.run_grouped`).
4. **Reduce** — segmented reductions turn the batch into one stat block
   per active function, over the metrics the simulator carries: all 25
   Table-1 metrics by default, or only those a predictor reads once
   :meth:`FleetSimulator.carry_metrics` narrows them (the rightsizing
   service does so).  The kernel still computes every metric and draws
   every jitter, so a carried row is the same whichever set is carried.

The result is one :class:`FleetWindow`, holding rows only for the window's
active functions, which the rightsizing controller
(:mod:`repro.fleet.controller`) and the savings ledger
(:mod:`repro.fleet.ledger`) consume.  Memory stays bounded by one window:
batch columns are transient, and the simulator retains only the fleet's
deployment state.  Every window runs this one exact path, so a function's
row depends only on the seed, the window and the function's own arrivals
and state.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ConfigurationError, SimulationError, is_integer
from repro.fleet.profiling import WindowPhaseProfiler
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.engine import ExecutionBackend, GroupBlock, VectorizedBackend
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
)

#: Stat-axis column of the mean (column order of
#: :data:`~repro.monitoring.aggregation.STAT_NAMES`).
_MEAN = STAT_NAMES.index("mean")


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
    seed:
        Base seed of the per-window traffic streams and the
        per-(function, window) noise streams.
    """

    window_s: float = 3600.0
    default_memory_mb: int = 256
    memory_sizes_mb: tuple[int, ...] = (128, 256, 512, 1024, 2048, 3008)
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate window geometry and sizes."""
        if not np.isfinite(self.window_s) or self.window_s <= 0:
            raise ConfigurationError("window_s must be a positive finite number")
        if not self.memory_sizes_mb:
            raise ConfigurationError("memory_sizes_mb must not be empty")
        if any(size <= 0 for size in self.memory_sizes_mb):
            raise ConfigurationError("memory sizes must be positive")
        if int(self.default_memory_mb) not in tuple(int(s) for s in self.memory_sizes_mb):
            raise ConfigurationError("default_memory_mb must be one of memory_sizes_mb")


@dataclass(frozen=True)
class FleetWindow:
    """Columnar monitoring result of one fleet window, active rows only.

    The stat/count/cost columns hold rows only for the window's *active*
    functions (>0 arrivals), so per-window memory is bounded by the active
    count rather than the fleet size; a function without traffic has no
    row.  ``memory_mb`` stays dense: the controller and the savings ledger
    need every function's deployed size, and one integer per function is the
    O(fleet) bookkeeping floor the simulator already pays.

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
        ``(n_active, len(metric_names), n_stats)`` aggregated statistics of
        the active functions (metric axis labelled by ``metric_names``,
        mean/std/cv stat order).
    n_invocations:
        ``(n_active,)`` invocations that survived the aggregation masks.
    n_arrivals:
        ``(n_active,)`` raw arrivals driven through the platform.
    n_cold_starts:
        ``(n_active,)`` cold-started invocations.
    cost_usd:
        ``(n_active,)`` total billed cost of the window.
    metric_names:
        Labels of the stats' metric axis: Table-1 metrics in Table-1 order,
        always including ``execution_time`` (all 25 unless the simulator
        was narrowed by :meth:`FleetSimulator.carry_metrics`).
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
    metric_names: tuple[str, ...] = METRIC_NAMES

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
        """Mean execution time of the active rows (parallel to ``active``)."""
        return self.stats[:, self.metric_names.index("execution_time"), _MEAN]


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
        # The grouped kernel; parity tests assign a reference backend here.
        self.backend: ExecutionBackend = VectorizedBackend()
        self._clock_s = 0.0
        self._window_index = 0
        self._memory_mb = np.full(
            len(self.functions), int(self.config.default_memory_mb), dtype=int
        )
        self._schedule = FleetTrafficSchedule(self.traffic)
        self._metric_names: tuple[str, ...] = METRIC_NAMES
        self._names = names
        # The platform rows of the fleet's functions, by function index: a
        # window reads its active functions' deployments by row.
        self._rows = self.platform.deploy_many(
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
        return tuple(self._names)

    @property
    def metric_names(self) -> tuple[str, ...]:
        """Metrics each window's stats carry (see :meth:`carry_metrics`)."""
        return self._metric_names

    def carry_metrics(self, names: Iterable[str]) -> None:
        """Reduce only the given metrics in the windows that follow.

        ``names`` must be Table-1 metrics and include ``execution_time``
        (the ledger reads its mean); they are stored in Table-1 order, and
        bad names raise :class:`~repro.errors.ConfigurationError` before any
        state changes.  The rightsizing service passes its predictor's
        :meth:`~repro.core.predictor.SizelessPredictor.required_metrics`.
        """
        wanted = set(names)
        unknown = wanted.difference(METRIC_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown metrics: {sorted(unknown)}")
        if "execution_time" not in wanted:
            raise ConfigurationError("carried metrics must include execution_time")
        self._metric_names = tuple(name for name in METRIC_NAMES if name in wanted)

    # ----------------------------------------------------------------- resize
    def resize(self, function_index: int, memory_mb: int) -> None:
        """Redeploy one function at a new memory size (drops warm instances).

        ``function_index`` must be an integer in ``[0, n_functions)`` (a
        negative index would wrap to another function) and ``memory_mb`` an
        integer among the fleet's sizes; Python and numpy integers pass,
        bools and floats do not.  Anything else raises
        :class:`~repro.errors.SimulationError` before any state changes.
        """
        if not is_integer(function_index) or not 0 <= function_index < self.n_functions:
            raise SimulationError(
                f"function index {function_index!r} out of range for "
                f"{self.n_functions} functions"
            )
        if not is_integer(memory_mb) or memory_mb not in self.config.memory_sizes_mb:
            raise SimulationError(
                f"memory size {memory_mb!r} MB not among fleet sizes "
                f"{list(self.config.memory_sizes_mb)}"
            )
        index = int(function_index)
        self.platform.set_memory_size(self._names[index], float(memory_mb))
        self._memory_mb[index] = memory_mb

    # ----------------------------------------------------------------- window
    def _execution_rngs(self, indices: np.ndarray) -> Sequence[np.random.Generator]:
        """The private noise streams of the given function indices.

        Keyed derivation (:func:`~repro.simulation.seeding.keyed_child_rngs`)
        derives exactly the requested streams in one vectorized batch —
        bit-identical to spawning the full fleet and indexing, but O(active)
        regardless of fleet size, so idle functions never cost a stream —
        and builds each generator only when the engine draws from it.
        """
        return keyed_child_rngs(
            self.platform.config.seed,
            STREAM_EXECUTION,
            self._window_index,
            indices=indices,
        )

    def _execute_active(
        self, arrivals: FleetArrivals
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Execute the window's active groups.

        Returns ``(active, stats, n_invocations, n_cold_starts, cost_usd)``
        where every column after ``active`` is parallel to it (one row per
        active function).  Zero-arrival functions never reach the engine:
        they have no group in the block and cost O(1) here.
        """
        active = arrivals.active()
        if not active.shape[0]:
            return (
                active,
                np.zeros((0, len(self._metric_names), len(STAT_NAMES)), dtype=float),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=float),
            )
        tick = perf_counter()
        exec_rngs = self._execution_rngs(active)
        self.profiler.add("seeding", perf_counter() - tick)
        # The active functions' group block: their current deployments read
        # from the platform by row, and the window's flat arrivals as they
        # are (idle functions own no arrivals, so the active groups tile
        # ``times_s``).  No object is built per group.
        tick = perf_counter()
        profiles, memory_mb, serials = self.platform.deployments(self._rows[active])
        offsets = arrivals.offsets
        names = self._names
        block = GroupBlock(
            names=[names[i] for i in active.tolist()],
            profiles=profiles,
            memory_mb=memory_mb,
            serials=serials,
            arrivals=arrivals.times_s,
            offsets=np.append(offsets[active], offsets[-1]),
            streams=exec_rngs,
            fresh_pool=np.zeros(active.shape[0], dtype=bool),
        )
        self.profiler.add("group-build", perf_counter() - tick)
        tick = perf_counter()
        batch = self.backend.run_grouped(self.platform, block)
        self.profiler.add("execute", perf_counter() - tick)
        tick = perf_counter()
        # Cold starts are always excluded: the paper's monitoring wrapper
        # measures warm executions only.
        stats, n_invocations = batch.aggregate_stats(
            warmup_s=0.0, exclude_cold_starts=True, metric_names=self._metric_names
        )
        n_cold = batch.cold_starts_per_group()
        cost = batch.cost_per_group()
        self.profiler.add("reduce", perf_counter() - tick)
        return active, stats, n_invocations, n_cold, cost

    def run_window(self) -> FleetWindow:
        """Simulate the next monitoring window for the whole fleet.

        The fleet's arrivals are drawn first from the window's traffic
        stream; only functions with >0 arrivals build engine groups (idle
        functions cost O(1) and never reach the engine).  The active groups
        execute as one cross-function mega-batch reduced straight to one
        stat row per active function; functions without traffic have no row.
        """
        start_s = self._clock_s
        end_s = start_s + self.config.window_s
        tick = perf_counter()
        arrivals = self._schedule.sample_window(
            start_s,
            end_s,
            child_rng(self.config.seed, STREAM_TRAFFIC, self._window_index),
        )
        self.profiler.add("traffic", perf_counter() - tick)
        active, stats, n_invocations, n_cold, cost = self._execute_active(arrivals)
        tick = perf_counter()
        window = FleetWindow(
            index=self._window_index,
            start_s=start_s,
            end_s=end_s,
            memory_mb=self._memory_mb.copy(),
            active=active,
            stats=stats,
            n_invocations=n_invocations,
            n_arrivals=arrivals.counts()[active],
            n_cold_starts=n_cold,
            cost_usd=cost,
            metric_names=self._metric_names,
        )
        self._clock_s = end_s
        self._window_index += 1
        self.profiler.add("reduce", perf_counter() - tick)
        self.profiler.count_window()
        return window
