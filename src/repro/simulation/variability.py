"""Run-to-run performance variability of cloud function executions.

Public-cloud measurements are noisy: co-located tenants, scheduling jitter and
service-side latency variation all perturb individual invocations.  The paper
counters this with 10-minute experiments, ten measurement repetitions and
randomised multiple interleaved trials [1, 37].  The simulator injects
matching noise so that (a) single invocations are *not* trustworthy, (b) mean
metrics over a measurement window *are* stable, mirroring Figure 3.
"""

from __future__ import annotations

import math
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
    counter_noise_cv: float = 0.02
    tail_probability: float = 0.01
    tail_multiplier: float = 2.0
    drift_amplitude: float = 0.03

    def __post_init__(self) -> None:
        # NaN compares False against every bound, so finiteness comes first.
        for name in ("cpu_noise_cv", "counter_noise_cv", "tail_probability",
                     "tail_multiplier", "drift_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a finite number")
        for name in ("cpu_noise_cv", "counter_noise_cv", "drift_amplitude"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0.0 <= self.tail_probability < 1.0:
            raise ConfigurationError("tail_probability must be in [0, 1)")
        if self.tail_multiplier < 1.0:
            raise ConfigurationError("tail_multiplier must be at least 1")

    @staticmethod
    def lognormal_params(cv: float) -> tuple[float, float]:
        """``(mu, sigma)`` of a mean-1 log-normal with coefficient of variation ``cv``.

        This is the single source of the parameterization: the scalar
        :meth:`cpu_factor` and the grouped execution kernel, which computes
        ``exp(mu + sigma * z)`` over a whole block, both use it.
        """
        sigma = float(np.sqrt(np.log(1.0 + cv * cv)))
        return -0.5 * sigma * sigma, sigma

    # The scalar noise transforms of stream contract v2
    # (:mod:`repro.simulation.seeding`): each reads one invocation's value of
    # its noise source, a uniform ``u`` or its standard normal ``ndtri(u)``.
    def cpu_factor(self, z: float) -> float:
        """Noise factor for locally executed (CPU / fs) durations.

        ``exp(mu + sigma * z)`` of the cpu source's normal ``z`` (1.0
        without CPU noise).
        """
        if self.cpu_noise_cv <= 0:
            return 1.0
        mu, sigma = self.lognormal_params(self.cpu_noise_cv)
        return float(np.exp(mu + sigma * z))

    def tail_factor(self, u: float) -> float:
        """Straggler multiplier where the tail source's uniform ``u`` < p, else 1.0."""
        if self.tail_probability > 0 and u < self.tail_probability:
            return float(self.tail_multiplier)
        return 1.0

    def jitter_factors(self, normals) -> list[float]:
        """Counter-jitter factors ``max(1 + cv * z, 0.5)`` of the jitter sources' normals.

        All ones without counter noise.
        """
        cv = self.counter_noise_cv
        if cv <= 0:
            return [1.0] * len(normals)
        return [max(1.0 + cv * z, 0.5) for z in normals]

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
        """A model with every noise source it owns switched off.

        Those are CPU noise, counter jitter, stragglers and drift.  Two
        sources live elsewhere and stay on: each
        :class:`~repro.simulation.services.ServiceModel`'s ``latency_cv``
        and :attr:`~repro.simulation.coldstart.ColdStartModel.noise_cv`.
        So execution times are deterministic only for profiles without
        noisy service calls, and cold starts only with a zero cold-start
        ``noise_cv``.
        """
        return VariabilityModel(
            cpu_noise_cv=0.0,
            counter_noise_cv=0.0,
            tail_probability=0.0,
            tail_multiplier=1.0,
            drift_amplitude=0.0,
        )
