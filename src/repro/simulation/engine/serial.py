"""The scalar execution backend (the platform's original invocation path).

Kept as the reference implementation: it drives
:meth:`~repro.simulation.platform.ServerlessPlatform.invoke` once per arrival
and columnarizes the records it gets back.  The parity tests compare the
vectorized and parallel backends against it.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.engine.base import BatchResult, ExecutionBackend, register_backend


@register_backend
class SerialBackend(ExecutionBackend):
    """Executes a batch as one scalar :meth:`invoke` call per arrival."""

    name = "serial"

    def run_batch(
        self,
        platform,
        function_name: str,
        arrivals: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BatchResult:
        function = platform.get_function(function_name)
        records = [platform.invoke(function_name, t, rng) for t in arrivals.tolist()]
        return BatchResult.from_records(function_name, function.memory_mb, records)
