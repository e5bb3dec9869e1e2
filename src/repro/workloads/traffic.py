"""Time-varying arrival models for production fleet simulation.

The dataset-generation experiments drive every function at a *constant*
request rate (:mod:`repro.workloads.loadgen`), which matches the paper's
controlled measurement protocol but not production traffic.  The fleet
subsystem (:mod:`repro.fleet`) simulates hundreds of deployed functions over
hours of virtual time, and production arrival processes are anything but
constant: request rates follow day/night cycles, spike when an upstream batch
job fires, ramp during rollouts, or replay a recorded trace.

This module provides those arrival models as :class:`TrafficModel`
subclasses.  Each model describes an inhomogeneous Poisson process through a
vectorized ``rate(times_s)`` function and generates the arrivals of one time
window ``[t0, t1)`` as a sorted numpy timestamp array via thinning — no
per-request Python loops:

- :class:`ConstantTraffic` — homogeneous Poisson (the loadgen protocol).
- :class:`DiurnalTraffic` — sinusoidal day/night cycle.
- :class:`BurstyTraffic` — periodic bursts on top of a base rate.
- :class:`RampTraffic`   — linear ramp between two rates (rollouts, decay).
- :class:`TraceTraffic`  — deterministic replay of a recorded timestamp
  trace, optionally looped.

A seeded fleet simulation that advances the same window sequence reproduces
the same arrivals run over run.  The *rate functions* are additionally
stateless and window-independent (any chunking evaluates the same burst
placement and cycle phase); the sampled arrivals themselves consume the
shared random stream per window, so changing the window boundaries redraws
them (:class:`TraceTraffic` replay is exact and chunking-independent).

Fleet-scale sampling lives here too.  :class:`FleetTrafficSchedule` fuses
the Lewis–Shedler thinning of a whole fleet into one Poisson draw, one
uniform pass and one thinning pass per window, evaluating candidate rates
with one batched kernel call per model *class*
(:meth:`TrafficModel.batch_rate`, bit-identical to the per-model path), and
produces columnar :class:`FleetArrivals` whose cost scales with the window's
*candidates*, not with fleet size.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.errors import ConfigurationError


def _require_positive(value: float, name: str) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is finite and > 0."""
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value}")


def _require_window(start_s: float, end_s: float) -> tuple[float, float]:
    """Validate a ``[start, end)`` window and return it as floats."""
    start_s, end_s = float(start_s), float(end_s)
    if not np.isfinite(start_s) or start_s < 0:
        raise ConfigurationError("window start must be non-negative and finite")
    if not np.isfinite(end_s) or end_s <= start_s:
        raise ConfigurationError("window end must be finite and after its start")
    return start_s, end_s


class TrafficModel(abc.ABC):
    """An inhomogeneous Poisson arrival process with a vectorized rate.

    Subclasses implement :meth:`rate` (instantaneous request rate, evaluated
    on a whole timestamp array at once) and :attr:`peak_rate` (a finite upper
    bound of the rate used for thinning).  :meth:`arrivals` then samples one
    window of the process without any per-request Python loop.
    """

    @abc.abstractmethod
    def rate(self, times_s: np.ndarray) -> np.ndarray:
        """Instantaneous arrival rate (requests/second) at each timestamp.

        Parameters
        ----------
        times_s:
            Array of absolute virtual timestamps in seconds.

        Returns
        -------
        numpy.ndarray
            The rate at each timestamp, same shape as ``times_s``.
        """

    @property
    @abc.abstractmethod
    def peak_rate(self) -> float:
        """A finite upper bound on :meth:`rate` (the thinning envelope)."""

    def arrivals(
        self, start_s: float, end_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample the sorted arrival timestamps of one window ``[start, end)``.

        Uses Lewis–Shedler thinning of a homogeneous Poisson process at
        :attr:`peak_rate`: candidate arrivals are drawn as sorted uniforms and
        kept with probability ``rate(t) / peak_rate``, all as numpy array
        operations.

        Parameters
        ----------
        start_s:
            Window start in absolute virtual seconds.
        end_s:
            Window end (exclusive, ``end_s > start_s``).
        rng:
            Random source; passing the same generator state reproduces the
            same arrivals.

        Returns
        -------
        numpy.ndarray
            Sorted absolute timestamps within ``[start_s, end_s)``.
        """
        start_s, end_s = _require_window(start_s, end_s)
        peak = float(self.peak_rate)
        n_candidates = int(rng.poisson(peak * (end_s - start_s)))
        if n_candidates == 0:
            return np.empty(0, dtype=float)
        times = np.sort(rng.uniform(start_s, end_s, n_candidates))
        keep = rng.uniform(0.0, peak, n_candidates) < self.rate(times)
        return times[keep]

    def mean_rate(self, start_s: float, end_s: float, resolution: int = 256) -> float:
        """Approximate mean rate over a window (midpoint rule, for reports).

        ``resolution`` is the number of midpoint samples.
        """
        start_s, end_s = _require_window(start_s, end_s)
        resolution = int(resolution)
        if resolution < 1:
            raise ConfigurationError("resolution must be at least 1")
        step = (end_s - start_s) / resolution
        midpoints = start_s + step * (np.arange(resolution) + 0.5)
        return float(np.mean(self.rate(midpoints)))

    def batch_params(self) -> tuple[float, ...] | None:
        """Parameters feeding the class-level batched rate kernel.

        Models whose rate is a closed-form elementwise function of a fixed
        parameter tuple return it here; :meth:`FleetTrafficSchedule.sample_window`
        then evaluates ONE :meth:`batch_rate` call per model *class* instead
        of one Python :meth:`rate` call per model.  Returning ``None`` (the default) opts
        out of batching — the per-model :meth:`rate` fallback is used
        (:class:`BurstyTraffic` needs its per-interval placement loop;
        :class:`TraceTraffic` replay never evaluates a rate).
        """
        return None

    @staticmethod
    def batch_rate(params: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Vectorized rate kernel over many models of one class at once.

        ``params`` carries one row per :meth:`batch_params` entry, already
        broadcastable against ``times_s`` (``(n_params, m, 1)`` against a
        ``(resolution,)`` grid, or ``(n_params, n)`` against per-candidate
        times).  Implementations must apply the exact elementwise operation
        order of :meth:`rate`, which makes batched evaluation bit-identical
        to the per-model path — the parity tests assert it.
        """
        raise NotImplementedError("this traffic model has no batched rate kernel")


@dataclass(frozen=True)
class ConstantTraffic(TrafficModel):
    """Homogeneous Poisson arrivals at a fixed rate.

    Attributes
    ----------
    rate_rps:
        Mean request rate in requests/second.
    """

    rate_rps: float

    def __post_init__(self) -> None:
        """Validate the configured rate."""
        _require_positive(self.rate_rps, "rate_rps")

    def rate(self, times_s: np.ndarray) -> np.ndarray:
        """Return the constant rate for every timestamp."""
        return np.full(np.asarray(times_s, dtype=float).shape, self.rate_rps)

    @property
    def peak_rate(self) -> float:
        """The constant rate is its own envelope."""
        return float(self.rate_rps)

    def batch_params(self) -> tuple[float, ...]:
        """The constant rate is the whole parameterization."""
        return (float(self.rate_rps),)

    @staticmethod
    def batch_rate(params: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Broadcast each model's rate over the times (x * 1.0 is exact)."""
        return params[0] * np.ones_like(times_s)


@dataclass(frozen=True)
class DiurnalTraffic(TrafficModel):
    """Sinusoidal day/night cycle around a mean rate.

    The rate is ``mean * (1 + amplitude * sin(2*pi*(t - phase)/period))``:
    it peaks at ``mean * (1 + amplitude)`` once per period and bottoms out at
    ``mean * (1 - amplitude)``.

    Attributes
    ----------
    mean_rate_rps:
        Mean request rate over one full period.
    amplitude:
        Relative swing in ``[0, 1)`` (0 degenerates to constant traffic; 1 is
        rejected because the trough rate would reach zero exactly and the
        thinning acceptance test degenerates there).
    period_s:
        Cycle length in seconds (one virtual day by default).
    phase_s:
        Time offset of the cycle, so fleet functions do not all peak together.
    """

    mean_rate_rps: float
    amplitude: float = 0.6
    period_s: float = 86_400.0
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        """Validate rate, amplitude, period and phase."""
        _require_positive(self.mean_rate_rps, "mean_rate_rps")
        _require_positive(self.period_s, "period_s")
        if not np.isfinite(self.amplitude) or not 0.0 <= self.amplitude < 1.0:
            raise ConfigurationError("amplitude must be in [0, 1)")
        if not np.isfinite(self.phase_s):
            raise ConfigurationError("phase_s must be finite")

    def rate(self, times_s: np.ndarray) -> np.ndarray:
        """Evaluate the sinusoidal rate at each timestamp."""
        times = np.asarray(times_s, dtype=float)
        cycle = np.sin(2.0 * np.pi * (times - self.phase_s) / self.period_s)
        return self.mean_rate_rps * (1.0 + self.amplitude * cycle)

    @property
    def peak_rate(self) -> float:
        """The crest of the sinusoid."""
        return float(self.mean_rate_rps * (1.0 + self.amplitude))

    def batch_params(self) -> tuple[float, ...]:
        """(mean, amplitude, period, phase) rows of the batched kernel."""
        return (
            float(self.mean_rate_rps),
            float(self.amplitude),
            float(self.period_s),
            float(self.phase_s),
        )

    @staticmethod
    def batch_rate(params: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Sinusoid kernel in the exact operation order of :meth:`rate`."""
        mean, amplitude, period, phase = params
        cycle = np.sin(2.0 * np.pi * (times_s - phase) / period)
        return mean * (1.0 + amplitude * cycle)

    @classmethod
    def batch_build(
        cls,
        mean_rate_rps: np.ndarray,
        amplitude: np.ndarray | float = 0.6,
        period_s: np.ndarray | float = 86_400.0,
        phase_s: np.ndarray | float = 0.0,
    ) -> list["DiurnalTraffic"]:
        """Construct many models at once with validation done vectorized.

        Fleet-scale scenarios build one model per function (10^5–10^6 of
        them); per-instance ``__post_init__`` validation dominates that
        setup.  This constructor enforces exactly the same constraints once
        over whole parameter arrays, then assembles the (frozen) instances
        directly.  Scalars broadcast across the batch.  The returned models
        are value-equal to ones built one by one.
        """
        n = int(np.asarray(mean_rate_rps).shape[0])
        columns = []
        for name, values in (
            ("mean_rate_rps", mean_rate_rps),
            ("amplitude", amplitude),
            ("period_s", period_s),
            ("phase_s", phase_s),
        ):
            column = np.broadcast_to(np.asarray(values, dtype=float), (n,))
            if not np.all(np.isfinite(column)):
                raise ConfigurationError(f"{name} must be finite")
            columns.append(column)
        means, amplitudes, periods, phases = columns
        if np.any(means <= 0.0):
            raise ConfigurationError("mean_rate_rps must be a positive finite number")
        if np.any(periods <= 0.0):
            raise ConfigurationError("period_s must be a positive finite number")
        if np.any((amplitudes < 0.0) | (amplitudes >= 1.0)):
            raise ConfigurationError("amplitude must be in [0, 1)")
        new, setattr_ = object.__new__, object.__setattr__
        models = []
        for mean, amp, period, phase in zip(
            means.tolist(), amplitudes.tolist(), periods.tolist(), phases.tolist()
        ):
            model = new(cls)
            setattr_(model, "mean_rate_rps", mean)
            setattr_(model, "amplitude", amp)
            setattr_(model, "period_s", period)
            setattr_(model, "phase_s", phase)
            models.append(model)
        return models


@dataclass(frozen=True)
class BurstyTraffic(TrafficModel):
    """Periodic bursts (spikes) on top of a low base rate.

    Every ``burst_every_s`` seconds a burst of length ``burst_duration_s``
    fires at ``burst_rate_rps``; outside bursts the process runs at
    ``base_rate_rps``.  The burst offset within each interval is derived
    deterministically from ``(burst_seed, interval index)``, so the rate
    function is stateless: any window of any simulation evaluates the same
    burst placement, regardless of chunking.

    Attributes
    ----------
    base_rate_rps:
        Quiet-period request rate.
    burst_rate_rps:
        Request rate during a burst (must exceed the base rate).
    burst_every_s:
        Length of one burst interval.
    burst_duration_s:
        Burst length (must fit inside an interval).
    burst_seed:
        Seed of the deterministic per-interval burst placement (an integer
        >= 0).
    """

    base_rate_rps: float
    burst_rate_rps: float
    burst_every_s: float = 7_200.0
    burst_duration_s: float = 300.0
    burst_seed: int = 0

    def __post_init__(self) -> None:
        """Validate rates, burst geometry and the placement seed."""
        _require_positive(self.base_rate_rps, "base_rate_rps")
        _require_positive(self.burst_rate_rps, "burst_rate_rps")
        _require_positive(self.burst_every_s, "burst_every_s")
        _require_positive(self.burst_duration_s, "burst_duration_s")
        if self.burst_rate_rps <= self.base_rate_rps:
            raise ConfigurationError("burst_rate_rps must exceed base_rate_rps")
        if self.burst_duration_s >= self.burst_every_s:
            raise ConfigurationError("burst_duration_s must be shorter than burst_every_s")
        seed = self.burst_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigurationError(
                f"burst_seed must be an integer >= 0, got {seed!r}"
            )

    def _burst_start(self, interval: int) -> float:
        """Deterministic burst start offset within one interval."""
        slack = self.burst_every_s - self.burst_duration_s
        rng = np.random.default_rng([int(self.burst_seed), int(interval)])
        return float(rng.uniform(0.0, slack))

    def rate(self, times_s: np.ndarray) -> np.ndarray:
        """Evaluate the base/burst rate at each timestamp."""
        times = np.asarray(times_s, dtype=float)
        intervals = np.floor_divide(times, self.burst_every_s).astype(int)
        offsets = times - intervals * self.burst_every_s
        rates = np.full(times.shape, self.base_rate_rps)
        for interval in np.unique(intervals):
            start = self._burst_start(int(interval))
            in_burst = (
                (intervals == interval)
                & (offsets >= start)
                & (offsets < start + self.burst_duration_s)
            )
            rates[in_burst] = self.burst_rate_rps
        return rates

    @property
    def peak_rate(self) -> float:
        """The burst rate bounds the process."""
        return float(self.burst_rate_rps)


@dataclass(frozen=True)
class RampTraffic(TrafficModel):
    """Linear ramp between two rates (rollout ramp-up or traffic decay).

    The rate holds at ``start_rate_rps`` until ``ramp_start_s``, changes
    linearly to ``end_rate_rps`` over ``ramp_duration_s``, then holds there.

    Attributes
    ----------
    start_rate_rps / end_rate_rps:
        Rates before and after the ramp (both positive; a decaying ramp has
        ``end < start``).
    ramp_start_s:
        Absolute time the ramp begins.
    ramp_duration_s:
        Length of the linear transition.
    """

    start_rate_rps: float
    end_rate_rps: float
    ramp_start_s: float = 0.0
    ramp_duration_s: float = 43_200.0

    def __post_init__(self) -> None:
        """Validate rates and ramp geometry."""
        _require_positive(self.start_rate_rps, "start_rate_rps")
        _require_positive(self.end_rate_rps, "end_rate_rps")
        _require_positive(self.ramp_duration_s, "ramp_duration_s")
        if not np.isfinite(self.ramp_start_s) or self.ramp_start_s < 0:
            raise ConfigurationError("ramp_start_s must be non-negative and finite")

    def rate(self, times_s: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise-linear rate at each timestamp."""
        times = np.asarray(times_s, dtype=float)
        progress = np.clip((times - self.ramp_start_s) / self.ramp_duration_s, 0.0, 1.0)
        return self.start_rate_rps + progress * (self.end_rate_rps - self.start_rate_rps)

    @property
    def peak_rate(self) -> float:
        """The larger of the two endpoint rates."""
        return float(max(self.start_rate_rps, self.end_rate_rps))

    def batch_params(self) -> tuple[float, ...]:
        """(start, end, ramp_start, ramp_duration) rows of the batched kernel."""
        return (
            float(self.start_rate_rps),
            float(self.end_rate_rps),
            float(self.ramp_start_s),
            float(self.ramp_duration_s),
        )

    @staticmethod
    def batch_rate(params: np.ndarray, times_s: np.ndarray) -> np.ndarray:
        """Piecewise-linear kernel in the exact operation order of :meth:`rate`."""
        start, end, ramp_start, ramp_duration = params
        progress = np.clip((times_s - ramp_start) / ramp_duration, 0.0, 1.0)
        return start + progress * (end - start)


@dataclass(frozen=True)
class TraceTraffic(TrafficModel):
    """Deterministic replay of a recorded arrival-timestamp trace.

    Attributes
    ----------
    timestamps_s:
        Sorted non-negative arrival timestamps of the recorded trace,
        relative to the trace start.
    loop_period_s:
        When set, the trace repeats every ``loop_period_s`` seconds (must be
        longer than the last trace timestamp); when ``None`` the trace plays
        once and windows beyond it are empty.
    """

    timestamps_s: tuple[float, ...]
    loop_period_s: float | None = None

    def __post_init__(self) -> None:
        """Validate the trace and its loop period."""
        trace = np.asarray(self.timestamps_s, dtype=float)
        object.__setattr__(self, "timestamps_s", tuple(float(t) for t in trace))
        if trace.size == 0:
            raise ConfigurationError("a trace needs at least one timestamp")
        if not np.all(np.isfinite(trace)) or np.any(trace < 0):
            raise ConfigurationError("trace timestamps must be non-negative and finite")
        if np.any(np.diff(trace) < 0):
            raise ConfigurationError("trace timestamps must be sorted ascending")
        if self.loop_period_s is not None:
            _require_positive(self.loop_period_s, "loop_period_s")
            if self.loop_period_s <= trace[-1]:
                raise ConfigurationError(
                    "loop_period_s must be longer than the last trace timestamp"
                )

    def _trace(self) -> np.ndarray:
        """Return the trace as a float array."""
        return np.asarray(self.timestamps_s, dtype=float)

    def rate(self, times_s: np.ndarray) -> np.ndarray:
        """Empirical rate: trace arrivals per second around each timestamp.

        Uses a one-period (or whole-trace) average window; only used for
        reporting — replay itself is exact.
        """
        times = np.asarray(times_s, dtype=float)
        trace = self._trace()
        if self.loop_period_s is not None:
            return np.full(times.shape, trace.size / self.loop_period_s)
        span = max(float(trace[-1]), 1.0)
        in_span = times <= trace[-1]
        return np.where(in_span, trace.size / span, 0.0)

    @property
    def peak_rate(self) -> float:
        """Upper bound on the empirical rate (unused by exact replay)."""
        return float(np.max(self.rate(self._trace())))

    def arrivals(
        self, start_s: float, end_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Replay the trace arrivals that fall inside ``[start_s, end_s)``.

        Deterministic — ``rng`` is accepted for interface compatibility but
        never consumed, so replay does not perturb a shared random stream.
        """
        start_s, end_s = _require_window(start_s, end_s)
        trace = self._trace()
        if self.loop_period_s is None:
            lo, hi = np.searchsorted(trace, [start_s, end_s])
            return trace[lo:hi].copy()
        period = float(self.loop_period_s)
        first_cycle = int(np.floor(start_s / period))
        last_cycle = int(np.floor((end_s - 1e-9) / period))
        chunks = []
        for cycle in range(first_cycle, last_cycle + 1):
            shifted = trace + cycle * period
            lo, hi = np.searchsorted(shifted, [start_s, end_s])
            chunks.append(shifted[lo:hi])
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=float)


def sample_fleet_traffic(
    n_functions: int,
    seed: int = 0,
    mean_rate_range: tuple[float, float] = (0.01, 0.05),
    period_s: float = 86_400.0,
) -> list[TrafficModel]:
    """Sample a mixed traffic assignment for a fleet of functions.

    Cycles through diurnal, bursty, ramp and constant models with
    per-function rates and phases drawn from ``seed``, so a fleet simulation
    sees heterogeneous, time-varying load without hand-assigning models.

    Parameters
    ----------
    n_functions:
        Number of traffic models to produce (one per fleet function).
    seed:
        Seed of the sampling.
    mean_rate_range:
        Inclusive range the per-function mean request rate is drawn from.
    period_s:
        Diurnal period (and the scale of burst/ramp geometry).

    Returns
    -------
    list of TrafficModel
        One model per function, in index order.
    """
    if n_functions < 1:
        raise ConfigurationError("n_functions must be at least 1")
    low, high = mean_rate_range
    _require_positive(low, "mean_rate_range[0]")
    _require_positive(high, "mean_rate_range[1]")
    if high < low:
        raise ConfigurationError("mean_rate_range must be (low, high) with high >= low")
    _require_positive(period_s, "period_s")
    rng = np.random.default_rng(seed)
    models: list[TrafficModel] = []
    for index in range(n_functions):
        mean_rate = float(rng.uniform(low, high))
        kind = index % 4
        if kind == 0:
            models.append(
                DiurnalTraffic(
                    mean_rate_rps=mean_rate,
                    amplitude=float(rng.uniform(0.3, 0.8)),
                    period_s=period_s,
                    phase_s=float(rng.uniform(0.0, period_s)),
                )
            )
        elif kind == 1:
            models.append(
                BurstyTraffic(
                    base_rate_rps=mean_rate,
                    burst_rate_rps=mean_rate * float(rng.uniform(3.0, 6.0)),
                    burst_every_s=period_s / 12.0,
                    burst_duration_s=period_s / 96.0,
                    burst_seed=int(rng.integers(0, 2**31)),
                )
            )
        elif kind == 2:
            up = bool(rng.integers(0, 2))
            factor = float(rng.uniform(1.5, 3.0))
            models.append(
                RampTraffic(
                    start_rate_rps=mean_rate if up else mean_rate * factor,
                    end_rate_rps=mean_rate * factor if up else mean_rate,
                    ramp_start_s=float(rng.uniform(0.0, period_s / 4.0)),
                    ramp_duration_s=period_s / 2.0,
                )
            )
        else:
            models.append(ConstantTraffic(rate_rps=mean_rate))
    return models


@dataclass(frozen=True)
class FleetArrivals:
    """One window's arrivals for a whole fleet, in columnar group-major form.

    ``times_s`` concatenates every function's sorted window arrivals in
    function-index order; ``offsets`` (``(n_functions + 1,)`` int64) delimits
    each function's slice.  Idle functions cost two equal offsets — O(1)
    bookkeeping instead of an empty array object each.

    Attributes
    ----------
    start_s / end_s:
        The sampled window.
    times_s:
        ``(total,)`` flat arrival timestamps, sorted within each function.
    offsets:
        ``(n_functions + 1,)`` group boundaries into ``times_s``.
    """

    start_s: float
    end_s: float
    times_s: np.ndarray
    offsets: np.ndarray

    @property
    def n_functions(self) -> int:
        """Number of fleet functions covered."""
        return int(self.offsets.shape[0] - 1)

    @property
    def total(self) -> int:
        """Fleet-wide arrival count of the window."""
        return int(self.offsets[-1])

    def counts(self) -> np.ndarray:
        """Per-function arrival counts, ``(n_functions,)``."""
        return np.diff(self.offsets)

    def active(self) -> np.ndarray:
        """Sorted indices of functions with at least one arrival."""
        return np.flatnonzero(np.diff(self.offsets))

    def arrivals_of(self, index: int) -> np.ndarray:
        """One function's window arrivals (a view into ``times_s``)."""
        return self.times_s[self.offsets[index] : self.offsets[index + 1]]

    @staticmethod
    def from_arrays(
        start_s: float, end_s: float, per_function: list[np.ndarray]
    ) -> "FleetArrivals":
        """Pack per-function arrival arrays into the columnar form."""
        counts = np.array([a.shape[0] for a in per_function], dtype=np.int64)
        offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        times = (
            np.concatenate(per_function)
            if per_function
            else np.empty(0, dtype=float)
        )
        return FleetArrivals(
            start_s=float(start_s),
            end_s=float(end_s),
            times_s=np.asarray(times, dtype=float),
            offsets=offsets,
        )


def _sort_within_groups(gids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sort ``values`` inside each group of the non-decreasing ``gids``.

    Returns ``values[np.lexsort((values, gids))]`` bit for bit, from one
    float sort key instead of lexsort's two passes.  ``values`` lie in
    ``[0, 1)``, so ``gid + value`` orders by group, then by value, but at
    large group ids it rounds away low bits: two values of one group can
    share a key and come out in either order, and a value close to 1 can
    round onto the next group's keys.  An O(n) check that every candidate
    stayed in its group and every group ascends catches both, and lexsort
    runs only then.  Ties need no check: a group's sorted values are the
    same numbers whichever order equal values take.
    """
    order = np.argsort(gids + values)
    if np.array_equal(gids[order], gids):
        ordered = values[order]
        descents = (ordered[1:] < ordered[:-1]) & (gids[1:] == gids[:-1])
        if not np.any(descents):
            return ordered
    return values[np.lexsort((values, gids))]


# Bulk parameter extraction for the kernel classes: the attribute sweep that
# reproduces each class's ``batch_params()`` row order, and the columnwise
# thinning envelope that reproduces ``peak_rate`` elementwise.  Keyed by
# EXACT class — subclasses may override either method, so they (and any
# third-party model) take the per-model fallback loop in
# ``FleetTrafficSchedule.__init__`` instead.
_BATCH_EXTRACT: dict[type, tuple] = {
    ConstantTraffic: (
        attrgetter("rate_rps"),
        lambda columns: columns[0],
    ),
    DiurnalTraffic: (
        attrgetter("mean_rate_rps", "amplitude", "period_s", "phase_s"),
        lambda columns: columns[0] * (1.0 + columns[1]),
    ),
    RampTraffic: (
        attrgetter(
            "start_rate_rps", "end_rate_rps", "ramp_start_s", "ramp_duration_s"
        ),
        lambda columns: np.maximum(columns[0], columns[1]),
    ),
}


class FleetTrafficSchedule:
    """Fused Lewis–Shedler thinning across a whole fleet of traffic models.

    Precomputes, once per fleet, everything the per-window sampler needs: the
    per-function thinning envelopes, one parameter matrix per model class
    with a batched rate kernel, and the index lists of the two exceptions —
    models without a kernel (rate evaluated per model on its contiguous
    candidate slice) and deterministic trace replays (spliced in exactly,
    outside the thinning process, with a thinning envelope of zero).

    :meth:`sample_window` then draws one window of the whole fleet from ONE
    random stream: one vectorized Poisson draw of per-function candidate
    counts, one uniform pass for candidate times, one batched rate-matrix
    evaluation, one thinning pass.  This replaces ``n_functions`` per-model
    ``arrivals()`` Python calls — the last per-function scalar loop of the
    fleet window hot path — with work proportional to the window's candidate
    count.  The fused stream is deterministic in (seed, window) but
    deliberately *different* from the per-function streams of
    :meth:`TrafficModel.arrivals`; both are valid draws of the same arrival
    processes.
    """

    def __init__(self, models: list[TrafficModel]) -> None:
        """Index the fleet's models by kernel class and exception kind.

        Partitions by exact class in C-level passes and extracts each known
        kernel class's parameter matrix with one :func:`~operator.attrgetter`
        sweep (``_BATCH_EXTRACT``), so million-model fleets index in a few
        hundred milliseconds.  Exact subclasses of the built-in models and
        third-party models go through the original per-model loop —
        ``batch_params()``/``peak_rate`` per instance — with identical
        results.
        """
        self.models = list(models)
        n = len(self.models)
        peaks = np.zeros(n, dtype=float)
        self._class_code = np.full(n, -1, dtype=np.int64)
        self._rank = np.zeros(n, dtype=np.int64)
        self._trace_indices: list[int] = []
        self._fallback_indices: list[int] = []
        class_ids = np.fromiter(
            map(id, map(type, self.models)), dtype=np.int64, count=n
        )
        # (first_index, cls, members, columns) — sorted below so kernel
        # codes follow first occurrence, as the per-model loop produced.
        kernels: list[tuple[int, type, np.ndarray, np.ndarray]] = []
        for cls in set(map(type, self.models)):
            members = np.flatnonzero(class_ids == id(cls))
            if cls is TraceTraffic:
                # peak stays 0.0: replay is exact, never thinned
                self._trace_indices.extend(members.tolist())
                continue
            extract = _BATCH_EXTRACT.get(cls)
            if extract is not None:
                getter, peaks_of = extract
                if members.shape[0] == n:
                    selected = self.models
                else:
                    all_models = self.models
                    selected = [all_models[i] for i in members.tolist()]
                rows = np.array(list(map(getter, selected)), dtype=np.float64)
                columns = rows.T if rows.ndim == 2 else rows[np.newaxis, :]
                peaks[members] = peaks_of(columns)
                kernels.append((int(members[0]), cls, members, columns))
                continue
            # Unknown model class: per-model indexing, original semantics.
            indices: list[int] = []
            param_rows: list[tuple[float, ...]] = []
            for index in members.tolist():
                model = self.models[index]
                if isinstance(model, TraceTraffic):
                    self._trace_indices.append(index)
                    continue
                peaks[index] = float(model.peak_rate)
                params = model.batch_params()
                if params is None:
                    self._fallback_indices.append(index)
                else:
                    indices.append(index)
                    param_rows.append(params)
            if indices:
                group = np.asarray(indices, dtype=np.int64)
                columns = np.array(param_rows, dtype=np.float64).T
                kernels.append((int(group[0]), cls, group, columns))
        self._trace_indices.sort()
        self._fallback_indices.sort()
        kernels.sort(key=lambda entry: entry[0])
        self._kernels: list[tuple[type, np.ndarray]] = []
        for code, (_, cls, members, columns) in enumerate(kernels):
            self._class_code[members] = code
            self._rank[members] = np.arange(members.shape[0])
            self._kernels.append((cls, columns))
        self.thinning_peaks = peaks

    @property
    def n_functions(self) -> int:
        """Number of fleet functions scheduled."""
        return len(self.models)

    def sample_window(
        self,
        start_s: float,
        end_s: float,
        rng: np.random.Generator,
    ) -> FleetArrivals:
        """Sample one window of the whole fleet's arrivals from one stream.

        Parameters
        ----------
        start_s / end_s:
            The window ``[start, end)``.
        rng:
            The window's fused traffic stream; equal state reproduces the
            window exactly.

        Returns
        -------
        FleetArrivals
            The window's columnar arrivals.
        """
        start_s, end_s = _require_window(start_s, end_s)
        duration = end_s - start_s
        n = self.n_functions
        counts = rng.poisson(self.thinning_peaks * duration)
        total = int(counts.sum())
        gids = np.repeat(np.arange(n, dtype=np.int64), counts)
        # Sort candidates within each function; gids is already grouped, so
        # only the uniforms move.  ``start + duration * u`` is monotone in
        # ``u``, so sorting the uniforms sorts the times.
        times = start_s + duration * _sort_within_groups(gids, rng.random(total))
        rates = self._candidate_rates(gids, times, counts)
        accept = rng.random(total) * self.thinning_peaks[gids] < rates
        kept_times = times[accept]
        kept_gids = gids[accept]
        kept_counts = np.bincount(kept_gids, minlength=n).astype(np.int64)

        # Deterministic trace replays splice in outside the thinning stream
        # (TraceTraffic.arrivals never consumes the rng).
        special: dict[int, np.ndarray] = {}
        for i in self._trace_indices:
            replay = self.models[i].arrivals(start_s, end_s, rng)
            if replay.shape[0]:
                special[i] = replay
        return self._assemble(
            start_s, end_s, kept_times, kept_gids, kept_counts, special
        )

    def _candidate_rates(
        self, gids: np.ndarray, times: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Evaluate every candidate's rate through the batched class kernels.

        ``gids``/``times`` are the window's candidates grouped by function
        (``counts`` per function); models without a kernel evaluate
        :meth:`~TrafficModel.rate` on their contiguous candidate slice —
        both bit-identical to per-model evaluation.
        """
        rates = np.empty(times.shape[0], dtype=float)
        candidate_codes = self._class_code[gids]
        for code, (cls, columns) in enumerate(self._kernels):
            members = candidate_codes == code
            if np.any(members):
                rates[members] = cls.batch_rate(
                    columns[:, self._rank[gids[members]]], times[members]
                )
        if self._fallback_indices:
            candidate_offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts, out=candidate_offsets[1:])
            for i in self._fallback_indices:
                a, b = int(candidate_offsets[i]), int(candidate_offsets[i + 1])
                if b > a:
                    rates[a:b] = self.models[i].rate(times[a:b])
        return rates

    def _assemble(
        self,
        start_s: float,
        end_s: float,
        kept_times: np.ndarray,
        kept_gids: np.ndarray,
        kept_counts: np.ndarray,
        special: dict[int, np.ndarray],
    ) -> FleetArrivals:
        """Assemble the window's columnar arrivals from the thinned candidates.

        Splices the trace replays into the thinned stream's columnar layout.
        """
        n = self.n_functions
        if not special:
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(kept_counts, out=offsets[1:])
            return FleetArrivals(
                start_s=start_s, end_s=end_s, times_s=kept_times, offsets=offsets
            )

        # General path: scatter the untouched thinned functions in one
        # vectorized pass and splice the few trace replays.
        final_counts = kept_counts.copy()
        for i, replay in special.items():
            final_counts[i] = replay.shape[0]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(final_counts, out=offsets[1:])
        out = np.empty(int(offsets[-1]), dtype=float)
        kept_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=kept_offsets[1:])
        untouched = np.ones(n, dtype=bool)
        untouched[list(special)] = False
        keep_mask = untouched[kept_gids]
        within_group = (
            np.arange(kept_gids.shape[0], dtype=np.int64) - kept_offsets[kept_gids]
        )
        destinations = offsets[kept_gids] + within_group
        out[destinations[keep_mask]] = kept_times[keep_mask]
        for i, replay in special.items():
            out[offsets[i] : offsets[i] + replay.shape[0]] = replay
        return FleetArrivals(start_s=start_s, end_s=end_s, times_s=out, offsets=offsets)
