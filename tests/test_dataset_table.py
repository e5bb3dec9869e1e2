"""Tests for the columnar measurement table and its persistence round-trips.

Covers the three contracts of the array-first dataflow:

1. **Parity** — feature/target matrices assembled from the columnar table
   equal the per-summary oracle of ``tests/reference_matrices.py`` bit for
   bit, and each row of the harness's table equals measuring its function
   alone.
2. **Views** — the object API (`MeasurementDataset`/`MonitoringSummary`)
   materialized from a table carries the same numbers.
3. **Persistence** — JSON (plain and gzipped), NPZ and CSV round-trips
   reproduce equal tables, and format-version / corrupt-file errors raise
   :class:`~repro.errors.DatasetError`.
"""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError, MonitoringError
from repro.core.features import FeatureExtractor, feature_superset
from repro.core.training import build_training_matrices
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.io import (
    load_dataset_csv,
    load_dataset_json,
    load_dataset_npz,
    load_table_npz,
    save_dataset_csv,
    save_dataset_json,
    save_dataset_npz,
    save_table_npz,
)
from repro.dataset.table import MeasurementTable, MeasurementTableBuilder
from repro.ml.linear import LinearRegression
from repro.ml.validation import KFold, cross_validate
from repro.monitoring.metrics import METRIC_NAMES

from reference_matrices import reference_features, reference_matrices


@pytest.fixture(scope="module")
def small_table():
    """A small generated table (module-scoped: generation is the slow part)."""
    generator = TrainingDatasetGenerator(
        DatasetGenerationConfig(n_functions=12, invocations_per_size=6, seed=9)
    )
    return generator.generate_table()


@pytest.fixture(scope="module")
def small_table_dataset(small_table):
    """The object-API view of the module table."""
    return small_table.to_dataset()


def assert_tables_equal(left, right, check_segments=True, check_metadata=True):
    assert left.function_names == right.function_names
    assert left.applications == right.applications
    assert left.memory_sizes_mb == right.memory_sizes_mb
    assert left.metric_names == right.metric_names
    assert left.stat_names == right.stat_names
    assert np.array_equal(left.n_invocations, right.n_invocations)
    np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=0)
    if check_segments:
        assert left.segments == right.segments
    if check_metadata:
        assert left.description == right.description
        assert left.metadata == right.metadata


class TestTableShape:
    def test_dimensions(self, small_table):
        table = small_table
        assert table.values.shape == (12, 6, len(METRIC_NAMES), 3)
        assert table.n_invocations.shape == (12, 6)
        assert table.measured.all()
        assert len(table) == table.n_functions == 12

    def test_common_memory_sizes(self, small_table):
        assert small_table.common_memory_sizes() == [128, 256, 512, 1024, 2048, 3008]

    def test_stat_view(self, small_table):
        times = small_table.execution_time_ms()
        assert times.shape == (12, 6)
        assert (times > 0).all()
        # More memory is never slower on average for the synthetic mix.
        assert (times[:, 0] >= times[:, -1]).all()

    def test_lookups_raise(self, small_table):
        with pytest.raises(DatasetError):
            small_table.size_index(4096)
        with pytest.raises(DatasetError):
            small_table.metric_index("bogus")
        with pytest.raises(DatasetError):
            small_table.function_index("nope")

    def test_take_subset(self, small_table):
        subset = small_table.take([2, 0])
        assert subset.n_functions == 2
        assert subset.function_names == (
            small_table.function_names[2],
            small_table.function_names[0],
        )
        np.testing.assert_array_equal(subset.values[1], small_table.values[0])

    def test_builder_validates(self):
        builder = MeasurementTableBuilder(memory_sizes_mb=(128, 256))
        with pytest.raises(DatasetError):
            builder.add_function("f", "synthetic", (), np.zeros((3, 25, 3)), np.zeros(3))
        builder.add_function(
            "f", "synthetic", (), np.zeros((2, len(METRIC_NAMES), 3)), np.zeros(2)
        )
        with pytest.raises(DatasetError):
            builder.add_function(
                "f", "synthetic", (), np.zeros((2, len(METRIC_NAMES), 3)), np.zeros(2)
            )

    def test_builder_refuses_a_duplicate_name(self):
        """A repeated name raises and leaves the builder as it was; a block
        refused for its shape does not take its name."""
        builder = MeasurementTableBuilder(memory_sizes_mb=(128, 256))
        block = np.zeros((2, len(METRIC_NAMES), 3))
        builder.add_function("f", "synthetic", (), block + 1.0, np.ones(2))
        builder.add_function("g", "synthetic", (), block, np.ones(2))
        with pytest.raises(DatasetError, match="already in the table"):
            builder.add_function("f", "synthetic", (), block + 2.0, np.ones(2))
        assert len(builder) == 2
        with pytest.raises(DatasetError, match="shape"):
            builder.add_function("h", "synthetic", (), np.zeros((3, 25, 3)), np.ones(3))
        builder.add_function("h", "synthetic", (), block, np.ones(2))
        table = builder.build()
        assert table.function_names == ("f", "g", "h")
        assert (table.values[0] == 1.0).all()

    def test_empty_builder_builds_empty_table(self):
        table = MeasurementTableBuilder(memory_sizes_mb=(128,)).build()
        assert table.n_functions == 0
        assert table.common_memory_sizes() == []

    def test_builder_accepts_unsorted_sizes(self, harness, cpu_function):
        # The object path accepted any size order via its dict keys; the
        # table path must as well (measured blocks land on sorted columns).
        unsorted = harness.measure_table([cpu_function], memory_sizes_mb=(512, 128))
        reference = harness.measure_table([cpu_function], memory_sizes_mb=(128, 512))
        assert unsorted.memory_sizes_mb == (128, 512)
        assert (unsorted.execution_time_ms() > 0).all()
        assert reference.memory_sizes_mb == unsorted.memory_sizes_mb

    def test_builder_duplicate_sizes_last_wins(self):
        builder = MeasurementTableBuilder(memory_sizes_mb=(256, 128, 256))
        stats = np.zeros((3, len(METRIC_NAMES), 3))
        stats[0, 0, 0] = 1.0  # first 256 MB block
        stats[1, 0, 0] = 2.0  # 128 MB block
        stats[2, 0, 0] = 3.0  # second 256 MB block (should win, like add_summary)
        builder.add_function("f", "synthetic", (), stats, np.array([4, 5, 6]))
        table = builder.build()
        assert table.memory_sizes_mb == (128, 256)
        assert table.stat("execution_time")[0].tolist() == [2.0, 3.0]
        assert table.n_invocations[0].tolist() == [5, 6]


class TestObjectViewParity:
    def test_summary_view_matches_dataset(self, small_table, small_table_dataset):
        name = small_table.function_names[3]
        for size in small_table.memory_sizes_mb:
            from_table = small_table.summary(name, size)
            from_dataset = small_table_dataset.get(name).summary_at(size)
            assert from_table.as_flat_dict() == from_dataset.as_flat_dict()
            assert from_table.n_invocations == from_dataset.n_invocations

    def test_round_trip_through_dataset(self, small_table, small_table_dataset):
        assert_tables_equal(small_table, small_table_dataset.to_table())

    def test_segments_and_metadata_preserved(self, small_table, small_table_dataset):
        assert all(m.segments for m in small_table_dataset)
        assert small_table_dataset.metadata["n_functions"] == 12

    def test_harness_table_matches_measure_many(self, cpu_function, service_function):
        """Measuring many functions into a table equals measuring each alone."""
        config = HarnessConfig(memory_sizes_mb=(128, 512), max_invocations_per_size=6, seed=3)
        functions = [cpu_function, service_function]
        single = MeasurementHarness(config=config)
        measurements = [
            single.measure_function(function, index=k) for k, function in enumerate(functions)
        ]
        table = MeasurementHarness(config=config).measure_table(functions)
        assert_tables_equal(
            table,
            MeasurementTable.from_measurements(measurements, memory_sizes_mb=(128, 512)),
            check_metadata=False,
        )

    def test_missing_sizes_become_unmeasured_cells(self, harness, cpu_function, service_function):
        partial = harness.measure_function(cpu_function, memory_sizes_mb=(128,))
        full = harness.measure_function(service_function, memory_sizes_mb=(128, 512))
        table = MeasurementTable.from_measurements([partial, full])
        assert table.memory_sizes_mb == (128, 512)
        assert table.measured.tolist() == [[True, False], [True, True]]
        assert table.common_memory_sizes() == [128]
        with pytest.raises(DatasetError):
            table.summary(cpu_function.name, 512)


class TestMatrixParity:
    def test_training_matrices_match_object_path(self, small_table, small_table_dataset):
        for feature_names in (None, tuple(feature_superset())):
            from_table = build_training_matrices(
                small_table, base_memory_mb=256, feature_names=feature_names
            )
            oracle = reference_matrices(
                small_table_dataset, base_memory_mb=256, feature_names=feature_names
            )
            # An object dataset is columnarized once and takes the table path.
            from_dataset = build_training_matrices(
                small_table_dataset, base_memory_mb=256, feature_names=feature_names
            )
            for matrices in (oracle, from_dataset):
                assert from_table.function_names == matrices.function_names
                assert from_table.feature_names == matrices.feature_names
                assert from_table.target_memory_sizes_mb == matrices.target_memory_sizes_mb
                np.testing.assert_array_equal(from_table.features, matrices.features)
                np.testing.assert_array_equal(from_table.ratios, matrices.ratios)
                np.testing.assert_array_equal(
                    from_table.base_execution_times_ms, matrices.base_execution_times_ms
                )

    def test_extract_table_matches_per_summary_extraction(
        self, small_table, small_table_dataset
    ):
        extractor = FeatureExtractor(tuple(feature_superset()))
        summaries = [m.summary_at(512) for m in small_table_dataset]
        oracle = np.vstack(
            [reference_features(extractor.feature_names, summary) for summary in summaries]
        )
        table_matrix = extractor.extract_table(small_table, memory_mb=512)
        np.testing.assert_array_equal(table_matrix, oracle)
        # One summary is a one-row call into the same arithmetic.
        np.testing.assert_array_equal(
            np.vstack([extractor.extract(summary) for summary in summaries]), oracle
        )

    def test_summary_stat_rows_invert_the_table_cell(self, small_table):
        name = small_table.function_names[2]
        summary = small_table.summary(name, 1024)
        np.testing.assert_array_equal(
            summary.stat_rows(),
            small_table.values[2, small_table.size_index(1024)],
        )

    def test_extract_table_flattens_all_sizes(self, small_table):
        extractor = FeatureExtractor(("execution_time_mean", "heap_used_cv"))
        matrix = extractor.extract_table(small_table)
        assert matrix.shape == (12 * 6, 2)
        np.testing.assert_array_equal(
            matrix[:, 0], small_table.execution_time_ms().reshape(-1)
        )

    def test_extract_table_function_subset(self, small_table):
        extractor = FeatureExtractor()
        rows = extractor.extract_table(small_table, memory_mb=256, function_indices=[4, 1])
        full = extractor.extract_table(small_table, memory_mb=256)
        np.testing.assert_array_equal(rows[0], full[4])
        np.testing.assert_array_equal(rows[1], full[1])

    def test_extract_table_rejects_zero_execution_time(self):
        builder = MeasurementTableBuilder(memory_sizes_mb=(128,))
        builder.add_function(
            "f", "synthetic", (), np.zeros((1, len(METRIC_NAMES), 3)), np.ones(1)
        )
        with pytest.raises(MonitoringError):
            FeatureExtractor().extract_table(builder.build(), memory_mb=128)

    def test_empty_table_raises(self):
        table = MeasurementTableBuilder(memory_sizes_mb=(128, 256)).build()
        with pytest.raises(DatasetError):
            build_training_matrices(table, base_memory_mb=128)


class TestCrossValidateHelper:
    def test_matches_manual_loop(self, rng):
        x = rng.normal(size=(40, 3))
        y = x @ np.array([[1.0], [0.5], [-2.0]]) + 0.01 * rng.normal(size=(40, 1))
        splits = list(KFold(n_splits=4, seed=0).split(len(x)))
        result = cross_validate(
            lambda: LinearRegression(alpha=0.1), x, y, splits, collect_reports=True
        )
        assert len(result.scores) == 4
        assert result.mean_score < 0.1
        report = result.mean_report()
        assert set(report) >= {"mse", "mape", "r2"}

    def test_requires_splits(self):
        with pytest.raises(ConfigurationError):
            cross_validate(lambda: LinearRegression(), np.zeros((4, 1)), np.zeros(4), [])

    def test_reports_require_flag(self, rng):
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 1))
        result = cross_validate(
            lambda: LinearRegression(), x, y, KFold(n_splits=2, seed=1).split(20)
        )
        with pytest.raises(ConfigurationError):
            result.mean_report()


class TestPersistence:
    def test_json_npz_csv_round_trips_equal_tables(self, small_table, tmp_path):
        dataset = small_table.to_dataset()

        json_path = save_dataset_json(dataset, tmp_path / "ds.json")
        from_json = load_dataset_json(json_path).to_table()
        assert_tables_equal(small_table, from_json)

        npz_path = save_table_npz(small_table, tmp_path / "ds.npz")
        from_npz = load_table_npz(npz_path)
        assert_tables_equal(small_table, from_npz)

        csv_path = save_dataset_csv(dataset, tmp_path / "ds.csv")
        from_csv = load_dataset_csv(csv_path).to_table()
        # CSV drops segments and dataset-level metadata by design.
        assert_tables_equal(small_table, from_csv, check_segments=False, check_metadata=False)

    def test_gzip_json_round_trip(self, small_table, tmp_path):
        dataset = small_table.to_dataset()
        path = save_dataset_json(dataset, tmp_path / "ds.json.gz")
        with path.open("rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"
        assert_tables_equal(small_table, load_dataset_json(path).to_table())

    def test_compact_json_is_smaller_than_indented(self, small_table, tmp_path):
        dataset = small_table.to_dataset()
        compact = save_dataset_json(dataset, tmp_path / "compact.json")
        indented = save_dataset_json(dataset, tmp_path / "indented.json", indent=2)
        assert compact.stat().st_size < indented.stat().st_size
        assert_tables_equal(
            load_dataset_json(compact).to_table(), load_dataset_json(indented).to_table()
        )

    def test_dataset_npz_wrappers(self, small_table, tmp_path):
        dataset = small_table.to_dataset()
        path = save_dataset_npz(dataset, tmp_path / "ds.npz")
        assert_tables_equal(small_table, load_dataset_npz(path).to_table())
        # The table-typed argument is accepted as well.
        save_dataset_npz(small_table, tmp_path / "ds2.npz")
        assert_tables_equal(small_table, load_table_npz(tmp_path / "ds2.npz"))

    def test_json_format_version_rejected(self, small_table, tmp_path):
        path = save_dataset_json(small_table.to_dataset(), tmp_path / "ds.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="format version"):
            load_dataset_json(path)

    def test_npz_format_version_rejected(self, small_table, tmp_path):
        path = tmp_path / "ds.npz"
        save_table_npz(small_table, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        arrays["format_version"] = np.int64(99)
        with path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(DatasetError, match="format version"):
            load_table_npz(path)

    def test_npz_with_reordered_metric_axis_rejected(self, small_table, tmp_path):
        path = tmp_path / "ds.npz"
        save_table_npz(small_table, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        arrays["metric_names"] = arrays["metric_names"][::-1]
        with path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(DatasetError, match="metric order"):
            load_table_npz(path)

    def test_npz_missing_keys_raise_typed_error(self, small_table, tmp_path):
        # A structurally valid NPZ lacking required keys must raise the
        # repo's DatasetError naming the missing keys, not a bare KeyError.
        for dropped in ("values", "function_names", "metadata_json"):
            path = tmp_path / f"missing-{dropped}.npz"
            save_table_npz(small_table, path)
            with np.load(path, allow_pickle=False) as archive:
                arrays = {k: v for k, v in archive.items() if k != dropped}
            with path.open("wb") as handle:
                np.savez_compressed(handle, **arrays)
            with pytest.raises(DatasetError, match=f"missing keys.*{dropped}"):
                load_table_npz(path)

    def test_corrupt_files_raise(self, tmp_path):
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"\x00\x01not a dataset\xff")
        for loader in (load_dataset_json, load_table_npz, load_dataset_npz):
            with pytest.raises(DatasetError, match="corrupt"):
                loader(garbage)
        truncated_gz = tmp_path / "ds.json.gz"
        truncated_gz.write_bytes(b"\x1f\x8b\x08\x00truncated")
        with pytest.raises(DatasetError, match="corrupt"):
            load_dataset_json(truncated_gz)
        headerless_csv = tmp_path / "headerless.csv"
        headerless_csv.write_text("this is,not a,dataset\n1,2,3\n")
        with pytest.raises(DatasetError, match="corrupt"):
            load_dataset_csv(headerless_csv)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text('{"format_version": 1, "measurements": [{"broken": true}]}')
        with pytest.raises(DatasetError, match="corrupt"):
            load_dataset_json(bad_json)

    def test_empty_dataset_round_trips(self, tmp_path):
        from repro.dataset.schema import MeasurementDataset

        empty = MeasurementDataset(description="empty")
        assert len(load_dataset_json(save_dataset_json(empty, tmp_path / "e.json"))) == 0
        assert len(load_dataset_csv(save_dataset_csv(empty, tmp_path / "e.csv"))) == 0
        assert len(load_dataset_npz(save_dataset_npz(empty, tmp_path / "e.npz"))) == 0

    def test_missing_files_raise(self, tmp_path):
        for loader in (load_dataset_json, load_dataset_csv, load_table_npz):
            with pytest.raises(DatasetError, match="does not exist"):
                loader(tmp_path / "absent")

    def test_gzip_compress_flag_overrides_suffix(self, small_table, tmp_path):
        dataset = small_table.to_dataset()
        path = save_dataset_json(dataset, tmp_path / "ds.json", compress=True)
        with path.open("rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert json.load(handle)["format_version"] == 1
