"""Benchmark: feature-matrix assembly and Figure-4 selection, table vs object path.

Assembles the training matrices of the default 200-function dataset two
ways — ``build_training_matrices`` on the columnar
:class:`~repro.dataset.table.MeasurementTable` (vectorized slicing), and the
per-summary oracle of ``tests/reference_matrices.py`` on the object view
(one feature of one summary at a time) — and runs one Figure-4-style
forward-selection round on each.  The final test asserts the acceptance
criterion of the columnar refactor: table assembly at least 5x faster than
the per-summary loop on the default dataset (override the floor via
``REPRO_BENCH_MIN_FEATURE_SPEEDUP``).

Like ``test_bench_generation`` this ignores ``REPRO_BENCH_SCALE`` — the
comparison is defined on the default generation configuration.
"""

from __future__ import annotations

import os
import time

from repro.core.feature_selection import SequentialForwardSelection
from repro.core.features import feature_superset
from repro.core.training import build_training_matrices
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.ml.linear import LinearRegression

from reference_matrices import reference_matrices

_ARTIFACTS: dict[str, object] = {}

#: The full feature grammar — what Figure 4 extracts once as its superset.
_SUPERSET = tuple(feature_superset())


def _artifacts():
    """Default 200-function table + object dataset (generated once)."""
    if not _ARTIFACTS:
        generator = TrainingDatasetGenerator(DatasetGenerationConfig())
        table = generator.generate_table()
        _ARTIFACTS["table"] = table
        _ARTIFACTS["dataset"] = table.to_dataset()
    return _ARTIFACTS["table"], _ARTIFACTS["dataset"]


def _assemble_table():
    table, _ = _artifacts()
    return build_training_matrices(table, base_memory_mb=256, feature_names=_SUPERSET)


def _assemble_object():
    _, dataset = _artifacts()
    return reference_matrices(dataset, base_memory_mb=256, feature_names=_SUPERSET)


def _best_seconds(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _selection_round(matrices):
    """One Figure-4-style forward-selection round over the F0 mean columns."""
    columns = [i for i, name in enumerate(_SUPERSET) if name.endswith("_mean")]
    names = [_SUPERSET[i] for i in columns]
    selector = SequentialForwardSelection(
        model_factory=lambda: LinearRegression(alpha=1.0),
        n_splits=3,
        max_features=4,
        seed=3,
    )
    return selector.run(matrices.features[:, columns], matrices.ratios, names)


def test_bench_feature_matrix_table(benchmark):
    """Columnar path: one vectorized slice of the superset stat arrays."""
    _artifacts()
    matrices = benchmark(_assemble_table)
    assert matrices.features.shape == (200, len(_SUPERSET))


def test_bench_feature_matrix_object(benchmark):
    """Object path: the per-summary oracle of ``tests/reference_matrices.py``."""
    _artifacts()
    matrices = benchmark(_assemble_object)
    assert matrices.features.shape == (200, len(_SUPERSET))


def test_bench_selection_round_table(benchmark):
    """Figure-4 round on matrices assembled through the table path."""
    _artifacts()
    result = benchmark(lambda: _selection_round(_assemble_table()))
    assert len(result.selection_order) == 4


def test_bench_selection_round_object(benchmark):
    """Figure-4 round on matrices assembled through the object path."""
    _artifacts()
    result = benchmark(lambda: _selection_round(_assemble_object()))
    assert len(result.selection_order) == 4


def test_feature_matrix_assembly_speedup():
    """Acceptance criterion: table assembly >= 5x faster than the object path."""
    minimum = float(os.environ.get("REPRO_BENCH_MIN_FEATURE_SPEEDUP", "5.0"))
    table_matrices = _assemble_table()
    object_matrices = _assemble_object()
    assert table_matrices.features.shape == object_matrices.features.shape
    table_s = _best_seconds(_assemble_table)
    object_s = _best_seconds(_assemble_object)
    speedup = object_s / table_s
    print(
        f"\nfeature-matrix assembly (200 fns x {len(_SUPERSET)} features): "
        f"object {object_s * 1e3:.1f} ms, table {table_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= minimum
