"""Pluggable batch execution backends for the platform simulator.

See :mod:`repro.simulation.engine.base` for the architecture overview.  The
``backend=`` knobs on :class:`~repro.dataset.harness.HarnessConfig`,
:class:`~repro.dataset.generation.DatasetGenerationConfig` and
:class:`~repro.core.pipeline.PipelineConfig` accept any name in
:func:`available_backends`.
"""

from repro.simulation.engine.base import (
    BatchResult,
    ExecutionBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.simulation.engine.grouped import GroupBlock, GroupedBatch
from repro.simulation.engine.parallel import ParallelBackend
from repro.simulation.engine.serial import SerialBackend
from repro.simulation.engine.vectorized import VectorizedBackend

__all__ = [
    "BatchResult",
    "ExecutionBackend",
    "GroupBlock",
    "GroupedBatch",
    "SerialBackend",
    "VectorizedBackend",
    "ParallelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
