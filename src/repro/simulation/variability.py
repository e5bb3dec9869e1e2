"""Run-to-run performance variability of cloud function executions.

Public-cloud measurements are noisy: co-located tenants, scheduling jitter and
service-side latency variation all perturb individual invocations.  The paper
counters this with 10-minute experiments, ten measurement repetitions and
randomised multiple interleaved trials [1, 37].  The simulator injects
matching noise so that (a) single invocations are *not* trustworthy, (b) mean
metrics over a measurement window *are* stable, mirroring Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class VariabilityModel:
    """Multiplicative / additive noise applied to simulated executions.

    Attributes
    ----------
    cpu_noise_cv:
        Coefficient of variation of the multiplicative log-normal noise on
        CPU-bound durations.
    service_noise_cv:
        Coefficient of variation for managed-service latencies (these are
        noisier than local compute).
    counter_noise_cv:
        Relative noise on byte/operation counters (small: counters are nearly
        deterministic but payload sizes vary slightly).
    tail_probability:
        Probability that an invocation is a tail-latency straggler.
    tail_multiplier:
        Execution-time multiplier applied to stragglers.
    drift_amplitude:
        Amplitude of a slow sinusoidal drift in platform performance,
        modelling time-of-day effects across long experiments.
    """

    cpu_noise_cv: float = 0.05
    service_noise_cv: float = 0.15
    counter_noise_cv: float = 0.02
    tail_probability: float = 0.01
    tail_multiplier: float = 2.0
    drift_amplitude: float = 0.03

    def __post_init__(self) -> None:
        for name in ("cpu_noise_cv", "service_noise_cv", "counter_noise_cv", "drift_amplitude"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0.0 <= self.tail_probability < 1.0:
            raise ConfigurationError("tail_probability must be in [0, 1)")
        if self.tail_multiplier < 1.0:
            raise ConfigurationError("tail_multiplier must be at least 1")

    @staticmethod
    def lognormal_params(cv: float) -> tuple[float, float]:
        """``(mu, sigma)`` of a mean-1 log-normal with coefficient of variation ``cv``.

        This is the single source of the parameterization used by every noise
        factory here; callers that hoist the parameters out of per-group loops
        (the grouped execution kernel) must use this helper so their raw
        ``rng.lognormal(mu, sigma, n)`` draws stay bit-identical to
        :meth:`cpu_factors`.
        """
        sigma = float(np.sqrt(np.log(1.0 + cv * cv)))
        return -0.5 * sigma * sigma, sigma

    @staticmethod
    def _lognormal_factor(rng: np.random.Generator, cv: float) -> float:
        """Sample a log-normal multiplicative factor with mean 1 and the given CV."""
        if cv <= 0:
            return 1.0
        mu, sigma = VariabilityModel.lognormal_params(cv)
        return float(rng.lognormal(mean=mu, sigma=sigma))

    @staticmethod
    def _lognormal_factors(rng: np.random.Generator, cv: float, n: int) -> np.ndarray:
        """Batched counterpart of :meth:`_lognormal_factor` (one draw per entry)."""
        if cv <= 0:
            return np.ones(n)
        mu, sigma = VariabilityModel.lognormal_params(cv)
        return rng.lognormal(mean=mu, sigma=sigma, size=n)

    def cpu_factor(self, rng: np.random.Generator) -> float:
        """Noise factor for locally executed (CPU / fs) durations."""
        return self._lognormal_factor(rng, self.cpu_noise_cv)

    def cpu_factors(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Batch of CPU noise factors for ``n`` invocations."""
        return self._lognormal_factors(rng, self.cpu_noise_cv, n)

    def service_factor(self, rng: np.random.Generator) -> float:
        """Noise factor for managed-service latencies."""
        return self._lognormal_factor(rng, self.service_noise_cv)

    def counter_factor(self, rng: np.random.Generator) -> float:
        """Noise factor for byte and operation counters."""
        return self._lognormal_factor(rng, self.counter_noise_cv)

    def tail_factor(self, rng: np.random.Generator) -> float:
        """Occasional straggler multiplier (1.0 for non-stragglers)."""
        if self.tail_probability > 0 and rng.random() < self.tail_probability:
            return float(self.tail_multiplier)
        return 1.0

    def tail_factors(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Batch of straggler multipliers for ``n`` invocations."""
        if self.tail_probability <= 0:
            return np.ones(n)
        stragglers = rng.random(n) < self.tail_probability
        return np.where(stragglers, float(self.tail_multiplier), 1.0)

    def drift_factor(self, timestamp_s: float) -> float:
        """Slow deterministic platform drift at ``timestamp_s`` (period ~1 h)."""
        if self.drift_amplitude <= 0:
            return 1.0
        return float(1.0 + self.drift_amplitude * np.sin(2.0 * np.pi * timestamp_s / 3600.0))

    def drift_factors(self, timestamps_s: np.ndarray) -> np.ndarray:
        """Deterministic drift factors for an array of timestamps."""
        timestamps_s = np.asarray(timestamps_s, dtype=float)
        if self.drift_amplitude <= 0:
            return np.ones(timestamps_s.shape)
        return 1.0 + self.drift_amplitude * np.sin(2.0 * np.pi * timestamps_s / 3600.0)

    @staticmethod
    def none() -> "VariabilityModel":
        """A noise-free model, useful for deterministic unit tests."""
        return VariabilityModel(
            cpu_noise_cv=0.0,
            service_noise_cv=0.0,
            counter_noise_cv=0.0,
            tail_probability=0.0,
            tail_multiplier=1.0,
            drift_amplitude=0.0,
        )
