"""Benchmark: sharded out-of-core dataset generation at paper scale.

Generates the paper's 2 000-function dataset (6 memory sizes, short
8-invocation windows so the run fits in a test session) twice — once into
the in-memory :class:`~repro.dataset.table.MeasurementTable` and once shard
by shard through :class:`~repro.dataset.sharding.ShardedTableWriter` — and
measures generation throughput, feature-extraction latency, and (via
``tracemalloc``) peak memory.

The final tests assert the acceptance criteria of the sharded dataflow:

- generating shard-by-shard keeps peak traced memory below the size of the
  full dense stat array (the in-memory path must at least materialize that
  array, plus a second copy while stacking), i.e. the 2 000-function dataset
  is produced without ever holding it;
- assembling training matrices from the sharded table never materializes the
  dense array either — its peak is bounded by the output matrices plus one
  shard.

Like ``test_bench_generation`` this module ignores ``REPRO_BENCH_SCALE`` —
the comparison is defined at the fixed 2 000-function scale.  The asserted
memory ceilings can be loosened on noisy interpreters via
``REPRO_BENCH_SHARD_MEM_FACTOR`` (a multiplier on every ceiling, default 1).
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import time
import tracemalloc

import numpy as np

from repro.core.training import build_training_matrices
from repro.core.features import feature_superset
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import _CHUNK_FUNCTIONS
from repro.monitoring.aggregation import STAT_NAMES
from repro.monitoring.metrics import METRIC_NAMES

N_FUNCTIONS = 2000
MEMORY_SIZES = (128, 256, 512, 1024, 2048, 3008)
INVOCATIONS_PER_SIZE = 8
SHARD_SIZE = 100
SEED = 7

#: Bytes of the full dense float64 stat array
#: (functions x sizes x metrics x stats).
_VALUES_NBYTES = (
    N_FUNCTIONS * len(MEMORY_SIZES) * len(METRIC_NAMES) * len(STAT_NAMES) * 8
)

#: Bytes of one measurement chunk's invocation columns (~130 float64
#: slots per invocation: metric columns, timing/noise intermediates and the
#: segmented-aggregation working set).
_CHUNK_COLUMN_NBYTES = (
    _CHUNK_FUNCTIONS * len(MEMORY_SIZES) * INVOCATIONS_PER_SIZE * 130 * 8
)

_INVOCATIONS = N_FUNCTIONS * len(MEMORY_SIZES) * INVOCATIONS_PER_SIZE

_SUPERSET = tuple(feature_superset())

#: Cached per-variant artifacts: (table, seconds, traced peak bytes).
_RUNS: dict[str, tuple[object, float, int]] = {}


def _mem_factor() -> float:
    return float(os.environ.get("REPRO_BENCH_SHARD_MEM_FACTOR", "1.0"))


def _generate(variant: str):
    """Generate the 2000-function dataset once per variant, traced."""
    if variant not in _RUNS:
        config = DatasetGenerationConfig(
            n_functions=N_FUNCTIONS,
            memory_sizes_mb=MEMORY_SIZES,
            invocations_per_size=INVOCATIONS_PER_SIZE,
            seed=SEED,
        )
        generator = TrainingDatasetGenerator(config)
        tracemalloc.start()
        start = time.perf_counter()
        if variant == "sharded":
            directory = tempfile.mkdtemp(prefix="repro-bench-shards-")
            atexit.register(shutil.rmtree, directory, ignore_errors=True)
            table = generator.generate_table(
                shard_size=SHARD_SIZE, shard_directory=directory
            )
        else:
            table = generator.generate_table()
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        _RUNS[variant] = (table, seconds, peak)
    return _RUNS[variant]


def _bench_generation(benchmark, variant: str):
    table, seconds, peak = benchmark.pedantic(
        lambda: _generate(variant), rounds=1, iterations=1
    )
    benchmark.extra_info["invocations_per_second"] = round(_INVOCATIONS / seconds)
    benchmark.extra_info["traced_peak_mb"] = round(peak / 1e6, 2)
    assert table.n_functions == N_FUNCTIONS
    assert table.measured.all()


def test_bench_sharded_generation(benchmark):
    """Out-of-core path: one NPZ shard flushed per 100 measured functions."""
    _bench_generation(benchmark, "sharded")
    table, _, _ = _RUNS["sharded"]
    assert table.n_shards == N_FUNCTIONS // SHARD_SIZE


def test_bench_inmemory_generation(benchmark):
    """Resident reference path: the whole dense table stacked in RAM."""
    _bench_generation(benchmark, "inmemory")


def test_bench_sharded_feature_extraction(benchmark):
    """Training-matrix assembly streaming the sharded table shard by shard."""
    table, _, _ = _generate("sharded")
    matrices = benchmark(
        lambda: build_training_matrices(
            table, base_memory_mb=256, feature_names=_SUPERSET
        )
    )
    assert matrices.features.shape == (N_FUNCTIONS, len(_SUPERSET))


def test_sharded_generation_memory_bounded():
    """Acceptance criterion: sharded generation never holds the dense table.

    The in-memory path's peak must exceed the sharded path's by at least the
    dense array size (it stacks a second copy on build), and the sharded
    peak must stay within a small multiple of ONE measurement chunk's
    invocation columns — its table-related residency is one 100-function
    shard buffer (~0.36 MB of the 7.2 MB total) plus the current
    64-function mega-batch, both independent of ``N_FUNCTIONS``.
    """
    _, _, peak_sharded = _generate("sharded")
    _, _, peak_inmemory = _generate("inmemory")
    factor = _mem_factor()
    print(
        f"\ngeneration peak memory: in-memory {peak_inmemory / 1e6:.1f} MB, "
        f"sharded {peak_sharded / 1e6:.1f} MB "
        f"(dense array {_VALUES_NBYTES / 1e6:.1f} MB, "
        f"one chunk {_CHUNK_COLUMN_NBYTES / 1e6:.1f} MB, "
        f"one shard {_VALUES_NBYTES / 1e6 * SHARD_SIZE / N_FUNCTIONS:.2f} MB)"
    )
    assert peak_sharded < peak_inmemory
    assert peak_inmemory - peak_sharded > 0.75 * _VALUES_NBYTES / factor
    assert peak_sharded < 4 * _CHUNK_COLUMN_NBYTES * factor


def test_sharded_extraction_memory_bounded():
    """Matrix assembly from the sharded table stays below the dense array size."""
    table, _, _ = _generate("sharded")
    tracemalloc.start()
    matrices = build_training_matrices(
        table, base_memory_mb=256, feature_names=_SUPERSET
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"\nsharded superset extraction peak: {peak / 1e6:.2f} MB")
    assert matrices.features.shape == (N_FUNCTIONS, len(_SUPERSET))
    assert peak < 0.75 * _VALUES_NBYTES * _mem_factor()


def test_sharded_matrices_match_inmemory():
    """The two 2000-function tables assemble bit-identical training matrices."""
    sharded_table, _, _ = _generate("sharded")
    inmemory_table, _, _ = _generate("inmemory")
    sharded = build_training_matrices(
        sharded_table, base_memory_mb=256, feature_names=_SUPERSET
    )
    inmemory = build_training_matrices(
        inmemory_table, base_memory_mb=256, feature_names=_SUPERSET
    )
    assert sharded.function_names == inmemory.function_names
    assert np.array_equal(sharded.features, inmemory.features)
    assert np.array_equal(sharded.ratios, inmemory.ratios)
