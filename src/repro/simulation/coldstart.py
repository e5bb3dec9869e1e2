"""Cold-start model for serverless worker instances.

Cold starts are not the focus of the paper, but they are part of any credible
platform substrate: the first invocation routed to a fresh worker pays for
runtime initialisation and code loading, and the initialisation time itself
shrinks with larger memory sizes (Wang et al. [49] measured this on AWS).
The monitored *inner* execution time excludes the cold start — exactly like
the paper's wrapper-style monitoring — but the platform records it so that
end-to-end latency experiments can include it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ColdStartModel:
    """Parameters of the cold-start duration model.

    Attributes
    ----------
    base_init_ms:
        Fixed sandbox provisioning time, independent of memory size.
    runtime_init_ms:
        Node.js runtime bootstrap time at one full vCPU; scaled by the CPU
        share of the selected memory size.
    code_load_ms_per_mb:
        Additional initialisation time per MB of deployment package.
    keep_alive_s:
        Idle time after which a warm instance is reclaimed.
    noise_cv:
        Coefficient of variation of the multiplicative noise on cold starts.
    """

    base_init_ms: float = 120.0
    runtime_init_ms: float = 180.0
    code_load_ms_per_mb: float = 35.0
    keep_alive_s: float = 600.0
    noise_cv: float = 0.2

    def __post_init__(self) -> None:
        # NaN compares False against every bound, so finiteness comes first.
        for name in ("base_init_ms", "runtime_init_ms", "code_load_ms_per_mb",
                     "keep_alive_s", "noise_cv"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a finite number")
        if self.base_init_ms < 0 or self.runtime_init_ms < 0 or self.code_load_ms_per_mb < 0:
            raise ConfigurationError("cold-start durations must be non-negative")
        if self.keep_alive_s <= 0:
            raise ConfigurationError("keep_alive_s must be positive")
        if self.noise_cv < 0:
            raise ConfigurationError("noise_cv must be non-negative")

    def duration_ms(
        self,
        memory_mb: float,
        code_size_kb: float,
        cpu_share: float,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Cold-start duration in milliseconds for a worker of the given shape."""
        if memory_mb <= 0:
            raise ConfigurationError("memory_mb must be positive")
        if code_size_kb < 0:
            raise ConfigurationError("code_size_kb must be non-negative")
        if cpu_share <= 0:
            raise ConfigurationError("cpu_share must be positive")
        effective_share = min(cpu_share, 1.0)  # init is single-threaded
        duration = (
            self.base_init_ms
            + self.runtime_init_ms / effective_share
            + self.code_load_ms_per_mb * (code_size_kb / 1024.0) / effective_share
        )
        if rng is not None and self.noise_cv > 0:
            mu, sigma = self.noise_params()
            duration *= float(rng.lognormal(mean=mu, sigma=sigma))
        return float(duration)

    def noise_params(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the unit-mean log-normal cold-start noise.

        Single source of the parameterization: :meth:`duration_ms` draws
        with it, and so does the grouped execution kernel, which hoists the
        parameters out of its per-group loop.
        """
        sigma = float(np.sqrt(np.log(1.0 + self.noise_cv**2)))
        return -0.5 * sigma * sigma, sigma
