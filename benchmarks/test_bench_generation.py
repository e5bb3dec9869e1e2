"""Benchmark: training-dataset generation throughput per execution backend.

Generates the benchmark dataset (by default 200 synthetic functions x 6
memory sizes x 120 invocations = 144 000 simulated invocations) once per
backend variant and records the achieved invocations/second.  Variants:
``serial`` (scalar reference), ``vectorized`` (cross-function mega-batches
through the grouped kernel, the default path), ``vectorized-looped`` (one
engine batch per (function, size) pair — the pre-fusion path, kept for the
speedup ledger) and ``parallel`` (fused chunks fanned out over worker
processes).  The final
tests assert the engine's acceptance criteria: the default (fused
vectorized) path generates the dataset at least 10x faster than serial, and
measurably faster than its own looped schedule.

Unlike the other benchmarks this one deliberately ignores ``REPRO_BENCH_SCALE``
— the comparison is defined on the default generation configuration
(shrinkable for CI smoke runs via ``REPRO_BENCH_GEN_FUNCTIONS``).  On shared
CI runners the measured ratios are noisier than on a quiet machine, so the
asserted floors can be lowered via ``REPRO_BENCH_MIN_SPEEDUP`` (default: the
acceptance criterion, 10x) and ``REPRO_BENCH_GEN_FUSED_SPEEDUP`` (default
1.2x).
"""

from __future__ import annotations

import os
import time

from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator

N_FUNCTIONS = int(os.environ.get("REPRO_BENCH_GEN_FUNCTIONS", "200"))

_DURATIONS: dict[str, float] = {}
_INVOCATIONS = N_FUNCTIONS * 6 * 120  # functions x sizes x invocations_per_size

_VARIANTS = {
    "serial": dict(backend="serial"),
    "vectorized": dict(backend="vectorized", fused=True),
    "vectorized-looped": dict(backend="vectorized", fused=False),
    "parallel": dict(backend="parallel", fused=True),
}


def _generate(variant: str):
    """Generate the benchmark dataset with ``variant``, recording the duration."""
    generator = TrainingDatasetGenerator(
        DatasetGenerationConfig(n_functions=N_FUNCTIONS, **_VARIANTS[variant])
    )
    start = time.perf_counter()
    dataset = generator.generate()
    _DURATIONS[variant] = time.perf_counter() - start
    return dataset


def _throughput(variant: str) -> float:
    if variant not in _DURATIONS:
        _generate(variant)
    return _INVOCATIONS / _DURATIONS[variant]


def _bench(benchmark, variant: str):
    dataset = benchmark.pedantic(lambda: _generate(variant), rounds=1, iterations=1)
    benchmark.extra_info["invocations_per_second"] = round(_throughput(variant))
    assert len(dataset) == N_FUNCTIONS
    assert all(m.has_all_sizes((128, 256, 512, 1024, 2048, 3008)) for m in dataset)


def test_bench_generation_serial(benchmark):
    """Scalar reference path: one Python-level model evaluation per invocation."""
    _bench(benchmark, "serial")


def test_bench_generation_vectorized(benchmark):
    """Fused path: one cross-function mega-batch per chunk (the default)."""
    _bench(benchmark, "vectorized")


def test_bench_generation_vectorized_looped(benchmark):
    """Pre-fusion schedule: one numpy batch per (function, size) pair."""
    _bench(benchmark, "vectorized-looped")


def test_bench_generation_parallel(benchmark):
    """Fused chunks fanned out over worker processes."""
    _bench(benchmark, "parallel")


def test_vectorized_speedup_over_serial():
    """Acceptance criterion: >= 10x over serial on the default dataset."""
    minimum = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "10.0"))
    serial = _throughput("serial")
    vectorized = _throughput("vectorized")
    speedup = vectorized / serial
    print(
        f"\ngeneration throughput: serial {serial:,.0f} inv/s, "
        f"fused vectorized {vectorized:,.0f} inv/s ({speedup:.1f}x)"
    )
    assert speedup >= minimum


def test_fused_speedup_over_looped():
    """The fused mega-batch path beats its own looped schedule."""
    minimum = float(os.environ.get("REPRO_BENCH_GEN_FUSED_SPEEDUP", "1.2"))
    looped = _throughput("vectorized-looped")
    fused = _throughput("vectorized")
    speedup = fused / looped
    print(
        f"\ngeneration throughput: looped {looped:,.0f} inv/s, "
        f"fused {fused:,.0f} inv/s ({speedup:.2f}x)"
    )
    assert speedup >= minimum
