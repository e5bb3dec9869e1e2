"""Unit tests for the dataset schema, measurement harness, generation and I/O."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, DatasetError
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.io import load_dataset_json, save_dataset_csv, save_dataset_json
from repro.dataset.schema import MeasurementDataset
from repro.workloads.loadgen import Workload


class TestSchema:
    def test_add_and_lookup_summary(self, harness, cpu_function):
        measurement = harness.measure_function(cpu_function, memory_sizes_mb=(128, 256))
        assert measurement.memory_sizes == [128, 256]
        assert measurement.execution_time_ms(128) > measurement.execution_time_ms(256)

    def test_missing_size_raises(self, harness, cpu_function):
        measurement = harness.measure_function(cpu_function, memory_sizes_mb=(256,))
        with pytest.raises(DatasetError):
            measurement.execution_time_ms(1024)

    def test_speedup(self, harness, cpu_function):
        measurement = harness.measure_function(cpu_function, memory_sizes_mb=(128, 1024))
        assert measurement.speedup(128, 1024) > 1.0

    def test_add_summary_validates_owner(self, harness, cpu_function, service_function):
        measurement = harness.measure_function(cpu_function, memory_sizes_mb=(256,))
        other = harness.measure_function(service_function, memory_sizes_mb=(256,))
        with pytest.raises(DatasetError):
            measurement.add_summary(512, other.summary_at(256))

    def test_dataset_unique_names(self, harness, cpu_function):
        dataset = MeasurementDataset()
        dataset.add(harness.measure_function(cpu_function, memory_sizes_mb=(256,)))
        with pytest.raises(DatasetError):
            dataset.add(harness.measure_function(cpu_function, memory_sizes_mb=(256,)))

    def test_dataset_get_and_filter(self, small_dataset):
        name = small_dataset.function_names[0]
        assert small_dataset.get(name).function_name == name
        subset = small_dataset.filter(lambda m: m.function_name == name)
        assert len(subset) == 1
        with pytest.raises(DatasetError):
            small_dataset.get("nope")

    def test_dataset_split(self, small_dataset):
        first, second = small_dataset.split(10)
        assert len(first) == 10
        assert len(second) == len(small_dataset) - 10
        with pytest.raises(DatasetError):
            small_dataset.split(0)

    def test_common_memory_sizes(self, small_dataset):
        assert small_dataset.common_memory_sizes() == [128, 256, 512, 1024, 2048, 3008]

    def test_has_all_sizes(self, small_dataset):
        measurement = small_dataset.measurements[0]
        assert measurement.has_all_sizes((128, 3008))
        assert not measurement.has_all_sizes((128, 4096))


class TestHarness:
    def test_measures_all_requested_sizes(self, harness, service_function):
        measurement = harness.measure_function(service_function)
        assert measurement.memory_sizes == [128, 256, 512, 1024, 2048, 3008]

    def test_cpu_function_monotone_speedup(self, harness, cpu_function):
        measurement = harness.measure_function(cpu_function)
        times = measurement.execution_times()
        assert times[128] > times[1024] > times[3008]

    def test_measure_many(self, harness, cpu_function, service_function):
        table = harness.measure_table([cpu_function, service_function], memory_sizes_mb=(256,))
        assert table.function_names == (cpu_function.name, service_function.name)

    def test_custom_workload(self, cpu_function):
        harness = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=(256,),
                workload=Workload(requests_per_second=5.0, duration_s=30.0, warmup_s=5.0),
                max_invocations_per_size=10,
            )
        )
        measurement = harness.measure_function(cpu_function)
        assert measurement.summary_at(256).n_invocations >= 1

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            HarnessConfig(memory_sizes_mb=())
        with pytest.raises(ConfigurationError):
            HarnessConfig(max_invocations_per_size=1)


class TestGeneration:
    def test_generated_dataset_shape(self, small_dataset):
        assert len(small_dataset) == 30
        assert small_dataset.metadata["n_functions"] == 30

    def test_progress_callback(self):
        calls = []
        generator = TrainingDatasetGenerator(
            DatasetGenerationConfig(n_functions=5, invocations_per_size=4, seed=1)
        )
        generator.generate(progress_callback=lambda i, n, name: calls.append((i, n, name)))
        assert len(calls) == 5
        assert calls[-1][0] == 5

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DatasetGenerationConfig(n_functions=0)
        with pytest.raises(ConfigurationError):
            DatasetGenerationConfig(invocations_per_size=1)

    def test_segments_recorded(self, small_dataset):
        assert all(measurement.segments for measurement in small_dataset)


class TestIO:
    def test_json_roundtrip(self, small_dataset, tmp_path):
        path = save_dataset_json(small_dataset, tmp_path / "dataset.json")
        loaded = load_dataset_json(path)
        assert len(loaded) == len(small_dataset)
        original = small_dataset.measurements[0]
        restored = loaded.get(original.function_name)
        for size in original.memory_sizes:
            assert restored.execution_time_ms(size) == pytest.approx(
                original.execution_time_ms(size)
            )

    def test_json_preserves_metadata(self, small_dataset, tmp_path):
        path = save_dataset_json(small_dataset, tmp_path / "dataset.json")
        loaded = load_dataset_json(path)
        assert loaded.metadata["n_functions"] == small_dataset.metadata["n_functions"]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset_json(tmp_path / "absent.json")

    def test_csv_export(self, small_dataset, tmp_path):
        path = save_dataset_csv(small_dataset, tmp_path / "dataset.csv")
        lines = path.read_text().strip().splitlines()
        # one header plus one row per (function, size)
        assert len(lines) == 1 + len(small_dataset) * 6
        assert lines[0].startswith("function_name,application,memory_mb")
