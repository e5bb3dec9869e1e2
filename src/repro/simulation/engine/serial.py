"""The scalar execution backend (the platform's original invocation path).

Kept as the reference implementation: it drives
:meth:`~repro.simulation.platform.ServerlessPlatform.invoke` once per arrival
and columnarizes the records it gets back.  The parity tests compare the
vectorized and parallel backends against it.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.engine.base import BatchResult, ExecutionBackend, register_backend
from repro.simulation.seeding import SOURCE_SERVICE, draw_key, noise_uniforms


@register_backend
class SerialBackend(ExecutionBackend):
    """Executes a batch as one scalar :meth:`invoke` call per arrival."""

    name = "serial"

    def run_batch(
        self,
        platform,
        function_name: str,
        arrivals: np.ndarray,
        key: int | None = None,
    ) -> BatchResult:
        """Execute one sorted arrival batch, one :meth:`invoke` per arrival.

        The batch's noise values are computed at once, with the function the
        grouped kernel reads, and arrival ``j`` is handed its row: the
        contract's values of ``key`` (drawn from the platform's shared
        generator when ``None``) at position ``j``.
        """
        function = platform.get_function(function_name)
        if key is None:
            key = draw_key(platform.rng)
        _, mean_row, _ = platform.execution_model.services.batch_rows(
            function.profile.service_calls
        )
        width = 0 if mean_row is None else mean_row.shape[0]
        noise = noise_uniforms(
            key, np.arange(arrivals.shape[0]), np.arange(SOURCE_SERVICE + width)
        )
        records = [
            platform.invoke(function_name, t, noise=row)
            for t, row in zip(arrivals.tolist(), noise)
        ]
        return BatchResult.from_records(function_name, function.memory_mb, records)
