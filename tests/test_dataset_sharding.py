"""Tests for the sharded out-of-core measurement table.

Covers the four contracts of the sharded dataflow:

1. **Parity** — a sharded table generated with the same seed yields
   bit-identical training matrices, ``feature_superset()`` extraction and
   views to the in-memory :class:`~repro.dataset.table.MeasurementTable`.
2. **Round-trips** — writer → manifest + shard NPZs → ``open`` reproduces
   the same table, including the edge cases (empty table, single shard,
   shard size not dividing ``n_functions``).
3. **Error paths** — missing/truncated/tampered shard files and manifests
   raise :class:`~repro.errors.DatasetError`, never bare ``KeyError`` /
   ``ValueError``.
4. **Integration** — pipeline, experiment context and the parallel-backend
   harness accept the sharded table end to end.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.errors import ConfigurationError, DatasetError
from repro.core.features import FeatureExtractor, feature_superset
from repro.core.pipeline import PipelineConfig, SizelessPipeline
from repro.core.training import build_training_matrices
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.io import (
    MANIFEST_FILENAME,
    load_table_sharded,
    save_table_sharded,
)
from repro.dataset.sharding import (
    ShardedMeasurementTable,
    ShardedTableWriter,
    shard_table,
)
from repro.dataset.table import MeasurementTable
from repro.experiments.context import ExperimentContext, ExperimentScale
from repro.ml.network import NetworkConfig
from repro.monitoring.metrics import METRIC_NAMES

_GENERATION = dict(n_functions=11, invocations_per_size=6, seed=21)
_SHARD_SIZE = 4  # deliberately does not divide n_functions: shards of 4, 4, 3


@pytest.fixture(scope="module")
def inmem_table() -> MeasurementTable:
    """The reference in-memory table (module-scoped: generation is slow)."""
    return TrainingDatasetGenerator(
        DatasetGenerationConfig(**_GENERATION)
    ).generate_table()


@pytest.fixture(scope="module")
def sharded_dir(tmp_path_factory):
    """Directory of the module's sharded table."""
    return tmp_path_factory.mktemp("sharded")


@pytest.fixture(scope="module")
def sharded_table(sharded_dir) -> ShardedMeasurementTable:
    """The same dataset (same seed) generated shard by shard."""
    return TrainingDatasetGenerator(
        DatasetGenerationConfig(**_GENERATION)
    ).generate_table(shard_size=_SHARD_SIZE, shard_directory=sharded_dir)


def assert_tables_equal(left, right, check_metadata=True):
    """Assert two tables (any mix of implementations) carry equal contents."""
    left = left.to_table() if isinstance(left, ShardedMeasurementTable) else left
    right = right.to_table() if isinstance(right, ShardedMeasurementTable) else right
    assert left.function_names == right.function_names
    assert left.applications == right.applications
    assert left.segments == right.segments
    assert left.memory_sizes_mb == right.memory_sizes_mb
    assert np.array_equal(left.n_invocations, right.n_invocations)
    assert np.array_equal(left.values, right.values)
    if check_metadata:
        assert left.description == right.description
        assert left.metadata == right.metadata


class TestParity:
    def test_shard_layout(self, sharded_table):
        assert sharded_table.n_functions == 11
        assert sharded_table.n_shards == 3
        assert [info.n_functions for info in sharded_table.shards] == [4, 4, 3]
        assert sharded_table.shard_size == _SHARD_SIZE

    def test_bit_identical_training_matrices(self, inmem_table, sharded_table):
        for feature_names in (None, tuple(feature_superset())):
            reference = build_training_matrices(
                inmem_table, base_memory_mb=256, feature_names=feature_names
            )
            sharded = build_training_matrices(
                sharded_table, base_memory_mb=256, feature_names=feature_names
            )
            assert sharded.function_names == reference.function_names
            assert sharded.feature_names == reference.feature_names
            assert np.array_equal(sharded.features, reference.features)
            assert np.array_equal(sharded.ratios, reference.ratios)
            assert np.array_equal(
                sharded.base_execution_times_ms, reference.base_execution_times_ms
            )

    def test_bit_identical_superset_extraction(self, inmem_table, sharded_table):
        extractor = FeatureExtractor(tuple(feature_superset()))
        assert np.array_equal(
            extractor.extract_table(sharded_table),
            extractor.extract_table(inmem_table),
        )
        assert np.array_equal(
            extractor.extract_table(sharded_table, memory_mb=512),
            extractor.extract_table(inmem_table, memory_mb=512),
        )

    def test_extraction_with_out_of_order_indices(self, inmem_table, sharded_table):
        # Indices crossing shard boundaries, repeated and unsorted: blocks
        # must be served in the requested order.
        indices = [7, 2, 2, 9, 0, 10]
        extractor = FeatureExtractor()
        assert np.array_equal(
            extractor.extract_table(sharded_table, memory_mb=256, function_indices=indices),
            extractor.extract_table(inmem_table, memory_mb=256, function_indices=indices),
        )

    def test_array_views_match(self, inmem_table, sharded_table):
        assert np.array_equal(
            sharded_table.execution_time_ms(), inmem_table.execution_time_ms()
        )
        assert np.array_equal(
            sharded_table.stat("heap_used", "cv"), inmem_table.stat("heap_used", "cv")
        )
        assert np.array_equal(sharded_table.measured, inmem_table.measured)
        assert sharded_table.common_memory_sizes() == inmem_table.common_memory_sizes()

    def test_summary_and_dataset_views_match(self, inmem_table, sharded_table):
        name = inmem_table.function_names[5]
        for size in inmem_table.memory_sizes_mb:
            assert (
                sharded_table.summary(name, size).as_flat_dict()
                == inmem_table.summary(name, size).as_flat_dict()
            )
        assert_tables_equal(
            sharded_table.to_dataset().to_table(), inmem_table, check_metadata=False
        )

    def test_materialize_and_take(self, inmem_table, sharded_table):
        assert_tables_equal(sharded_table, inmem_table, check_metadata=False)
        subset = sharded_table.take([9, 1])
        assert isinstance(subset, MeasurementTable)
        assert subset.function_names == (
            inmem_table.function_names[9],
            inmem_table.function_names[1],
        )
        assert np.array_equal(subset.values[0], inmem_table.values[9])

    def test_lookups_and_errors(self, sharded_table):
        with pytest.raises(DatasetError):
            sharded_table.size_index(4096)
        with pytest.raises(DatasetError):
            sharded_table.metric_index("bogus")
        with pytest.raises(DatasetError):
            sharded_table.function_index("nope")

    def test_index_validation_is_uniform(self, inmem_table, sharded_table):
        # Both implementations reject negative and out-of-range function
        # indices the same way — no numpy wraparound on the in-memory table.
        for table in (inmem_table, sharded_table):
            with pytest.raises(DatasetError, match="out of range"):
                list(table.iter_value_blocks([99]))
            with pytest.raises(DatasetError, match="out of range"):
                list(table.iter_value_blocks([-1]))
            with pytest.raises(DatasetError, match="out of range"):
                FeatureExtractor().extract_table(table, memory_mb=256, function_indices=[-1])

    @pytest.mark.parametrize("bad", [-1, 11], ids=["negative", "past-the-end"])
    @pytest.mark.parametrize("kind", ["in-memory", "sharded"])
    def test_take_and_predict_table_check_rows_alike(
        self, inmem_table, sharded_table, trained_model, kind, bad, monkeypatch
    ):
        # One row check on both tables: take, iter_value_blocks and
        # predict_table raise DatasetError before any work, never a bare
        # IndexError and never a silent wraparound to the last function.
        from repro.core.predictor import SizelessPredictor

        table = inmem_table if kind == "in-memory" else sharded_table
        assert table.n_functions == 11
        for rows in ([bad], [0, bad]):
            with pytest.raises(DatasetError, match="out of range"):
                table.take(rows)
            with pytest.raises(DatasetError, match="out of range"):
                list(table.iter_value_blocks(rows))

        def no_work(*args, **kwargs):
            raise AssertionError("predict_table extracted features for a bad row")

        predictor = SizelessPredictor(trained_model)
        monkeypatch.setattr(FeatureExtractor, "from_stat_rows", no_work)
        with pytest.raises(DatasetError, match="out of range"):
            predictor.predict_table(table, base_memory_mb=256, function_indices=[bad])

    def test_predict_table_decodes_each_shard_once(self, tmp_path, trained_model, monkeypatch):
        """The features and the base times come from one walk of the stat
        blocks: predicting a 3-shard table loads each shard once, with the
        in-memory table's numbers."""
        from repro.core.predictor import SizelessPredictor

        config = DatasetGenerationConfig(**{**_GENERATION, "n_functions": 12})
        table = TrainingDatasetGenerator(config).generate_table()
        sharded = shard_table(table, tmp_path / "shards", shard_size=4)
        assert sharded.n_shards == 3
        loads = []
        shard_values = ShardedMeasurementTable._shard_values

        def spy(self, info):
            loads.append(info.file)
            return shard_values(self, info)

        monkeypatch.setattr(ShardedMeasurementTable, "_shard_values", spy)
        predictor = SizelessPredictor(trained_model)
        prediction = predictor.predict_table(sharded, base_memory_mb=256)
        assert sorted(loads) == sorted(info.file for info in sharded.shards)
        expected = predictor.predict_table(table, base_memory_mb=256)
        np.testing.assert_array_equal(
            prediction.execution_times_ms, expected.execution_times_ms
        )

    def test_metadata_records_sharding(self, sharded_table, sharded_dir):
        assert sharded_table.metadata["shard_size"] == _SHARD_SIZE
        assert sharded_table.metadata["shard_directory"] == str(sharded_dir)


class TestRoundTrip:
    def test_open_reproduces_table(self, sharded_table, sharded_dir):
        reopened = ShardedMeasurementTable.open(sharded_dir)
        assert_tables_equal(reopened, sharded_table)
        assert reopened.shards == sharded_table.shards

    def test_io_wrappers(self, inmem_table, tmp_path):
        directory = save_table_sharded(inmem_table, tmp_path / "t", shard_size=3)
        loaded = load_table_sharded(directory)
        assert isinstance(loaded, ShardedMeasurementTable)
        assert_tables_equal(loaded, inmem_table)

    def test_shard_table_helper_round_trips(self, inmem_table, tmp_path):
        sharded = shard_table(inmem_table, tmp_path, shard_size=4)
        assert sharded.n_shards == 3
        assert_tables_equal(sharded, inmem_table)

    def test_single_shard_when_size_exceeds_functions(self, inmem_table, tmp_path):
        sharded = shard_table(inmem_table, tmp_path, shard_size=50)
        assert sharded.n_shards == 1
        assert_tables_equal(sharded, inmem_table)

    def test_empty_table_round_trips(self, tmp_path):
        writer = ShardedTableWriter(tmp_path, memory_sizes_mb=(128, 256), shard_size=4)
        table = writer.build()
        assert table.n_functions == 0
        assert table.n_shards == 0
        assert table.common_memory_sizes() == []
        reopened = ShardedMeasurementTable.open(tmp_path)
        assert reopened.to_table().n_functions == 0
        with pytest.raises(DatasetError):
            build_training_matrices(reopened, base_memory_mb=128)

    def test_writer_rejects_duplicates_and_bad_sizes(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardedTableWriter(tmp_path / "a", memory_sizes_mb=(128,), shard_size=0)
        writer = ShardedTableWriter(tmp_path / "b", memory_sizes_mb=(128,), shard_size=1)
        block = np.zeros((1, len(METRIC_NAMES), 3))
        writer.add_function("f", "synthetic", (), block, np.ones(1))
        with pytest.raises(DatasetError):
            writer.add_function("f", "synthetic", (), block, np.ones(1))

    def test_writer_build_is_single_use(self, inmem_table, tmp_path):
        # A second build() (or post-build add_function) must refuse cleanly
        # instead of destroying the manifest the first build wrote.
        writer = ShardedTableWriter(
            tmp_path, memory_sizes_mb=inmem_table.memory_sizes_mb, shard_size=4
        )
        writer.add_function(
            "f", "synthetic", (), np.zeros((6, len(METRIC_NAMES), 3)), np.zeros(6)
        )
        writer.build()
        with pytest.raises(DatasetError, match="already built"):
            writer.build()
        with pytest.raises(DatasetError, match="already built"):
            writer.add_function(
                "g", "synthetic", (), np.zeros((6, len(METRIC_NAMES), 3)), np.zeros(6)
            )
        assert ShardedMeasurementTable.open(tmp_path).n_functions == 1

    def test_writer_refuses_existing_directory(self, inmem_table, tmp_path):
        shard_table(inmem_table, tmp_path, shard_size=4)
        with pytest.raises(DatasetError, match="already holds"):
            ShardedTableWriter(tmp_path, memory_sizes_mb=(128,), shard_size=4)
        # Explicit overwrite replaces the table, including shard files that
        # the smaller replacement no longer needs.
        replaced = shard_table(inmem_table, tmp_path, shard_size=6, overwrite=True)
        assert replaced.n_shards == 2
        assert sorted(p.name for p in tmp_path.glob("shard-*.npz")) == [
            "shard-00000.npz",
            "shard-00001.npz",
        ]
        assert_tables_equal(replaced, inmem_table)

    def test_fresh_directory_is_never_swept(self, inmem_table, tmp_path):
        # Without a pre-existing manifest there is nothing to replace, so
        # unrelated files matching the shard pattern must survive build() —
        # but staging leftovers (.tmp) are writer-owned and always swept.
        bystander = tmp_path / "shard-backup.npz"
        bystander.write_bytes(b"precious unrelated bytes")
        stale_staging = tmp_path / "shard-00099.npz.tmp"
        stale_staging.write_bytes(b"from an interrupted run")
        shard_table(inmem_table, tmp_path, shard_size=100)
        assert bystander.read_bytes() == b"precious unrelated bytes"
        assert not stale_staging.exists()

    def test_interrupted_overwrite_preserves_previous_table(self, inmem_table, tmp_path):
        # Shards are staged under .tmp and only finalized by build(), so an
        # abandoned overwrite run must leave the existing table untouched.
        original = shard_table(inmem_table, tmp_path, shard_size=4)
        writer = ShardedTableWriter(
            tmp_path,
            memory_sizes_mb=inmem_table.memory_sizes_mb,
            shard_size=2,
            overwrite=True,
        )
        for i in range(3):  # flushes one staged shard, buffers another
            writer.add_function(
                f"abandoned-{i}",
                application="synthetic",
                segments=(),
                stats=np.zeros((6, len(METRIC_NAMES), 3)),
                counts=np.zeros(6),
            )
        del writer  # interrupted: build() never runs
        survivor = ShardedMeasurementTable.open(tmp_path)
        assert_tables_equal(survivor, original)
        # A completed replacement cleans up the abandoned staging files.
        replaced = shard_table(inmem_table, tmp_path, shard_size=6, overwrite=True)
        assert replaced.n_shards == 2
        assert list(tmp_path.glob("shard-*.npz.tmp")) == []


def _copy_sharded(sharded_dir, tmp_path):
    target = tmp_path / "copy"
    shutil.copytree(sharded_dir, target)
    return target


class TestErrorPaths:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="not a sharded table"):
            ShardedMeasurementTable.open(tmp_path / "absent")

    def test_missing_shard_file(self, sharded_dir, tmp_path):
        broken = _copy_sharded(sharded_dir, tmp_path)
        (broken / "shard-00001.npz").unlink()
        with pytest.raises(DatasetError, match="missing"):
            ShardedMeasurementTable.open(broken)

    def test_truncated_shard_file(self, sharded_dir, tmp_path):
        broken = _copy_sharded(sharded_dir, tmp_path)
        payload = (broken / "shard-00000.npz").read_bytes()
        (broken / "shard-00000.npz").write_bytes(payload[:40])
        with pytest.raises(DatasetError, match="corrupt"):
            ShardedMeasurementTable.open(broken)

    def test_corrupt_manifest(self, sharded_dir, tmp_path):
        broken = _copy_sharded(sharded_dir, tmp_path)
        (broken / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt"):
            ShardedMeasurementTable.open(broken)

    def test_unsupported_manifest_version(self, sharded_dir, tmp_path):
        broken = _copy_sharded(sharded_dir, tmp_path)
        manifest = json.loads((broken / MANIFEST_FILENAME).read_text())
        manifest["format_version"] = 99
        (broken / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="format version"):
            ShardedMeasurementTable.open(broken)

    def test_manifest_missing_field(self, sharded_dir, tmp_path):
        broken = _copy_sharded(sharded_dir, tmp_path)
        manifest = json.loads((broken / MANIFEST_FILENAME).read_text())
        del manifest["shards"]
        (broken / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="missing fields"):
            ShardedMeasurementTable.open(broken)

    def test_manifest_with_wrong_field_types(self, sharded_dir, tmp_path):
        # Well-formed JSON with the right keys but wrong types must still be
        # rejected as corrupt, not escape as a bare ValueError/TypeError.
        for key, value in (
            ("shard_size", "four"),
            ("shard_size", True),
            ("n_functions", "11"),
            ("memory_sizes_mb", ["a", "b"]),
            ("metadata", []),
            ("description", 7),
        ):
            broken = tmp_path / f"{key}-{value}"
            shutil.copytree(sharded_dir, broken)
            manifest = json.loads((broken / MANIFEST_FILENAME).read_text())
            manifest[key] = value
            (broken / MANIFEST_FILENAME).write_text(json.dumps(manifest))
            with pytest.raises(DatasetError, match="corrupt"):
                ShardedMeasurementTable.open(broken)

    def test_manifest_with_escaping_shard_path(self, sharded_dir, tmp_path):
        # Shard entries must be bare file names: a manifest pointing outside
        # the table directory is rejected, not followed.
        for escape in ("../outside.npz", "/etc/passwd", "sub/shard.npz", ""):
            broken = tmp_path / f"escape-{abs(hash(escape))}"
            shutil.copytree(sharded_dir, broken)
            manifest = json.loads((broken / MANIFEST_FILENAME).read_text())
            manifest["shards"][0]["file"] = escape
            (broken / MANIFEST_FILENAME).write_text(json.dumps(manifest))
            with pytest.raises(DatasetError, match="bare file name"):
                ShardedMeasurementTable.open(broken)

    def test_manifest_with_shard_gap(self, sharded_dir, tmp_path):
        broken = _copy_sharded(sharded_dir, tmp_path)
        manifest = json.loads((broken / MANIFEST_FILENAME).read_text())
        manifest["shards"][1]["start"] += 1
        (broken / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="contiguous"):
            ShardedMeasurementTable.open(broken)

    def test_shard_index_arrays_shape_mismatch(self, sharded_dir, tmp_path):
        # A shard whose light index arrays disagree with the manifest (here:
        # n_invocations with a truncated size axis) must fail open() with a
        # typed error, not a bare numpy ValueError from concatenation.
        broken = _copy_sharded(sharded_dir, tmp_path)
        path = broken / "shard-00000.npz"
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        arrays["n_invocations"] = arrays["n_invocations"][:, :2]
        with path.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(DatasetError, match="n_invocations"):
            ShardedMeasurementTable.open(broken)

    def test_shard_values_shape_mismatch(self, sharded_dir, tmp_path):
        # Tamper with one shard's dense array only: the light index arrays
        # still match the manifest, so open() succeeds and the mismatch is
        # caught on first dense access.
        broken = _copy_sharded(sharded_dir, tmp_path)
        path = broken / "shard-00000.npz"
        with np.load(path, allow_pickle=False) as archive:
            arrays = dict(archive)
        arrays["values"] = arrays["values"][:, :3]
        with path.open("wb") as handle:
            np.savez(handle, **arrays)
        table = ShardedMeasurementTable.open(broken)
        with pytest.raises(DatasetError, match="shape"):
            table.execution_time_ms()


class TestIntegration:
    def test_pipeline_trains_on_sharded_table(self, sharded_table):
        pipeline = SizelessPipeline(
            PipelineConfig(
                network=NetworkConfig(
                    n_layers=2, n_neurons=8, epochs=20, learning_rate=0.01, seed=0
                )
            )
        )
        predictor = pipeline.train(sharded_table)
        assert predictor is pipeline.predictor
        assert pipeline.table is sharded_table
        assert len(pipeline.dataset) == sharded_table.n_functions

    def test_context_generates_sharded_table(self, tmp_path):
        scale = ExperimentScale(
            name="sharded-quick",
            n_training_functions=6,
            train_invocations_per_size=6,
            shard_size=4,
            shard_directory=str(tmp_path),
        )
        context = ExperimentContext(scale)
        table = context.training_table()
        assert isinstance(table, ShardedMeasurementTable)
        assert table.n_shards == 2
        matrices = context.training_matrices()
        assert matrices.features.shape[0] == 6

    def test_table3_and_ablations_stay_out_of_core(self, tmp_path, monkeypatch):
        # Table 3 and both training-data ablations stream the sharded table
        # (or take a row subset of it); none materializes the whole table.
        from repro.experiments import ablations, table3_basesize

        scale = ExperimentScale(
            name="sharded-tiny",
            n_training_functions=12,
            train_invocations_per_size=6,
            network=NetworkConfig(n_layers=1, n_neurons=8, epochs=5, seed=0),
            shard_size=5,
            shard_directory=str(tmp_path),
        )
        context = ExperimentContext(scale)
        assert isinstance(context.training_table(), ShardedMeasurementTable)

        def forbidden(self):
            raise AssertionError("the whole sharded table was materialized")

        monkeypatch.setattr(ShardedMeasurementTable, "to_table", forbidden)
        result = table3_basesize.run(context, base_sizes_mb=(256, 512), n_repeats=1)
        assert set(result.measured) == {256, 512}
        curve = ablations.run_dataset_size_sensitivity(context, fractions=(0.5, 1.0))
        assert sorted(curve) == [10, 12]
        comparison = ablations.run_feature_set_ablation(context)
        assert set(comparison) == {"f0_all_means", "f4_default", "extended"}

    def test_scale_validates_shard_knobs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ExperimentScale(shard_size=0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(shard_directory=str(tmp_path))
        with pytest.raises(ConfigurationError):
            PipelineConfig(shard_size=0)
        with pytest.raises(ConfigurationError):
            DatasetGenerationConfig(shard_directory=str(tmp_path))

    def test_generate_table_rejects_directory_without_size(self, tmp_path):
        generator = TrainingDatasetGenerator(
            DatasetGenerationConfig(n_functions=3, invocations_per_size=4, seed=5)
        )
        with pytest.raises(ConfigurationError, match="requires shard_size"):
            generator.generate_table(shard_directory=tmp_path)

    def test_generate_table_replaces_previous_run(self, tmp_path):
        # Re-running generation into a configured directory must replace the
        # previous table (save_* semantics), not fail on the existing
        # manifest or leave stale shards behind.
        config = DatasetGenerationConfig(n_functions=4, invocations_per_size=4, seed=5)
        TrainingDatasetGenerator(config).generate_table(
            shard_size=1, shard_directory=tmp_path
        )
        assert len(list(tmp_path.glob("shard-*.npz"))) == 4
        table = TrainingDatasetGenerator(config).generate_table(
            shard_size=2, shard_directory=tmp_path
        )
        assert table.n_shards == 2
        assert len(list(tmp_path.glob("shard-*.npz"))) == 2

    def test_generate_object_api_skips_tempdir_sharding(self, monkeypatch):
        # The object API materializes everything anyway: with shard_size but
        # no directory it must not leak a dataset-sized temp directory.
        import tempfile as tempfile_module

        def forbidden(*args, **kwargs):
            raise AssertionError("generate() must not create a temp shard dir")

        monkeypatch.setattr(tempfile_module, "mkdtemp", forbidden)
        dataset = TrainingDatasetGenerator(
            DatasetGenerationConfig(
                n_functions=3, invocations_per_size=4, seed=5, shard_size=2
            )
        ).generate()
        assert len(dataset) == 3

    def test_generate_table_defaults_to_tempdir(self):
        table = TrainingDatasetGenerator(
            DatasetGenerationConfig(n_functions=3, invocations_per_size=4, seed=5)
        ).generate_table(shard_size=2)
        assert isinstance(table, ShardedMeasurementTable)
        assert table.metadata["shard_directory"] == str(table.directory)

    def test_harness_rejects_sink_with_mismatched_sizes(self, tmp_path, cpu_function):
        # A sink expecting a different memory-size order would have its stat
        # columns silently swapped; the harness must refuse it up front.
        harness = MeasurementHarness(
            config=HarnessConfig(memory_sizes_mb=(128, 256), max_invocations_per_size=4)
        )
        writer = ShardedTableWriter(tmp_path, memory_sizes_mb=(256, 128), shard_size=2)
        with pytest.raises(ConfigurationError, match="sink expects"):
            harness.measure_table([cpu_function], sink=writer)

    def test_parallel_backend_streams_into_writer(self, tmp_path):
        # The parallel backend measures through its object path (it seeds
        # per function, so its numbers differ from the sequential backends);
        # the harness must columnarize into the provided sink exactly as it
        # does into the in-memory builder.
        config = dict(n_functions=4, invocations_per_size=5, seed=13)
        reference = TrainingDatasetGenerator(
            DatasetGenerationConfig(backend="parallel", n_workers=2, **config)
        ).generate_table()
        sharded = TrainingDatasetGenerator(
            DatasetGenerationConfig(backend="parallel", n_workers=2, **config)
        ).generate_table(shard_size=3, shard_directory=tmp_path)
        assert sharded.n_shards == 2
        assert_tables_equal(sharded, reference, check_metadata=False)
