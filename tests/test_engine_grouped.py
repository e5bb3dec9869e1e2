"""Parity and error-path tests for the fused cross-function execution path.

The grouped kernel (``VectorizedBackend.run_grouped``) must be
bit-identical to the looped per-group schedule: every (function, size) or
(function, window) group owns its own noise key, both paths read the same
noise values, and both reduce through the same
segmented-summation primitive.  These tests enforce that for
``measure_table`` across backends and sinks and for stressed instance-pool
dynamics (overlaps, keep-alive expiry), check the fleet window's arrival
cap and record streaming, and cover the malformed-offset /
malformed-request error paths and the seeding helper's determinism.  The
fleet-window kernel-vs-looped parity lives in ``tests/test_engine_kernel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, MonitoringError, SimulationError
from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.table import measurement_stat_block
from repro.fleet import FleetConfig, FleetSimulator
from repro.monitoring.aggregation import (
    STAT_NAMES,
    grouped_stat_blocks,
    stat_matrix,
    validate_group_offsets,
)
from repro.monitoring.metrics import METRIC_NAMES
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.engine import (
    GroupBlock,
    GroupedBatch,
    VectorizedBackend,
    get_backend,
)
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import (
    STREAM_ARRIVALS,
    STREAM_EXECUTION,
    child_rng,
    child_seed_sequence,
    noise_keys,
    spawn_child_rngs,
)
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.loadgen import Workload
from repro.workloads.traffic import ConstantTraffic

from looped_oracle import LoopedBackend, assert_identical


def _functions(n, seed=11, prefix="grp"):
    return SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix=prefix)
    ).generate(n)


class TestSeeding:
    def test_child_rng_deterministic(self):
        a = child_rng(3, STREAM_EXECUTION, 5, 7).standard_normal(4)
        b = child_rng(3, STREAM_EXECUTION, 5, 7).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_roles_and_keys_are_independent(self):
        draws = {
            (stream, key): child_rng(0, stream, *key).standard_normal(3).tobytes()
            for stream in (STREAM_ARRIVALS, STREAM_EXECUTION)
            for key in ((0, 0), (0, 1), (1, 0))
        }
        assert len(set(draws.values())) == len(draws)

    def test_spawn_matches_individual_children(self):
        spawned = spawn_child_rngs(9, STREAM_EXECUTION, 4, n=6)
        for index, rng in enumerate(spawned):
            expected = child_rng(9, STREAM_EXECUTION, 4, index).standard_normal(5)
            np.testing.assert_array_equal(rng.standard_normal(5), expected)

    def test_seed_sequence_key_structure(self):
        sequence = child_seed_sequence(1, STREAM_ARRIVALS, 2, 3)
        assert sequence.spawn_key == (STREAM_ARRIVALS, 2, 3)


class TestGroupedStatBlocks:
    def _metrics(self, rng, n):
        return {m: rng.uniform(0.5, 10.0, n) for m in METRIC_NAMES}

    def test_segments_match_per_group_stat_matrix(self):
        self._assert_segments_match_stat_matrix([7, 0, 40, 1, 13])

    def test_sparse_window_segments_match_per_group_stat_matrix(self):
        # Mostly one-invocation groups (a sparse fleet window) with a longer
        # group last: the singleton path of the segmented sums.
        self._assert_segments_match_stat_matrix([1, 1, 0, 1, 1, 1, 3, 1, 1, 1, 1, 6])

    def _assert_segments_match_stat_matrix(self, sizes):
        rng = np.random.default_rng(0)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        n = int(offsets[-1])
        metrics = self._metrics(rng, n)
        cold = rng.random(n) < 0.3
        window = rng.random(n) < 0.8
        blocks, counts = grouped_stat_blocks(
            metrics, offsets, cold_start=cold, exclude_cold_starts=True, window=window
        )
        assert blocks.shape == (len(sizes), len(METRIC_NAMES), len(STAT_NAMES))
        for g in range(len(sizes)):
            a, b = int(offsets[g]), int(offsets[g + 1])
            if a == b:
                assert counts[g] == 0
                assert np.all(blocks[g] == 0.0)
                continue
            expected, expected_n = stat_matrix(
                {m: v[a:b] for m, v in metrics.items()},
                cold_start=cold[a:b],
                exclude_cold_starts=True,
                window=window[a:b],
            )
            np.testing.assert_array_equal(blocks[g], expected)
            assert counts[g] == expected_n

    def test_all_cold_group_falls_back_to_cold(self):
        rng = np.random.default_rng(1)
        metrics = self._metrics(rng, 6)
        offsets = np.array([0, 3, 6])
        cold = np.array([True, True, True, False, True, False])
        blocks, counts = grouped_stat_blocks(metrics, offsets, cold_start=cold)
        assert counts.tolist() == [3, 2]
        assert np.all(blocks[0] != 0.0)

    def test_empty_window_group_falls_back_to_full_group(self):
        rng = np.random.default_rng(2)
        metrics = self._metrics(rng, 5)
        offsets = np.array([0, 2, 5])
        window = np.array([False, False, True, True, False])
        _, counts = grouped_stat_blocks(metrics, offsets, window=window)
        assert counts.tolist() == [2, 2]

    def test_malformed_offsets_rejected(self):
        metrics = self._metrics(np.random.default_rng(3), 4)
        for bad in (
            np.array([0, 3]),            # does not end at n
            np.array([1, 4]),            # does not start at 0
            np.array([0, 3, 2, 4]),      # not monotone
            np.array([0.0, 4.0]),        # not integer
            np.array([4]),               # fewer than 2 boundaries
            np.array([[0, 4]]),          # not 1-D
        ):
            with pytest.raises(MonitoringError):
                grouped_stat_blocks(metrics, bad)

    def test_missing_metric_rejected(self):
        metrics = self._metrics(np.random.default_rng(4), 3)
        del metrics["execution_time"]
        with pytest.raises(MonitoringError):
            grouped_stat_blocks(metrics, np.array([0, 3]))

    def test_validate_group_offsets_returns_int64(self):
        offsets = validate_group_offsets(np.array([0, 2, 5], dtype=np.int32), 5)
        assert offsets.dtype == np.int64


class TestGroupedBatchErrors:
    def _batch_kwargs(self, n=4, groups=2):
        offsets = np.linspace(0, n, groups + 1).astype(np.int64)
        return dict(
            function_names=tuple(f"f{g}" for g in range(groups)),
            memory_mb=np.full(groups, 256.0),
            offsets=offsets,
            timestamps_s=np.arange(n, dtype=float),
            execution_time_ms=np.ones(n),
            init_duration_ms=np.zeros(n),
            cold_start=np.zeros(n, dtype=bool),
            cost_usd=np.zeros(n),
            billed_duration_ms=np.ones(n),
            metrics={m: np.ones(n) for m in METRIC_NAMES},
        )

    def test_malformed_offsets_raise(self):
        kwargs = self._batch_kwargs()
        kwargs["offsets"] = np.array([0, 3, 2, 4])
        with pytest.raises(SimulationError):
            GroupedBatch(**kwargs)
        kwargs["offsets"] = np.array([0, 2, 5])
        with pytest.raises(SimulationError):
            GroupedBatch(**kwargs)

    def test_group_count_mismatch_raises(self):
        kwargs = self._batch_kwargs()
        kwargs["offsets"] = np.array([0, 1, 2, 4])
        with pytest.raises(SimulationError):
            GroupedBatch(**kwargs)
        kwargs = self._batch_kwargs()
        kwargs["memory_mb"] = np.array([256.0])
        with pytest.raises(SimulationError):
            GroupedBatch(**kwargs)

    def test_group_index_out_of_range(self):
        batch = GroupedBatch(**self._batch_kwargs())
        with pytest.raises(SimulationError):
            batch.group(2)
        with pytest.raises(SimulationError):
            batch.group(-1)

    def test_run_grouped_rejects_empty_and_malformed(self, cpu_function):
        platform = ServerlessPlatform.noise_free(seed=0)
        with pytest.raises(SimulationError, match="at least one group"):
            GroupBlock.for_deployed(platform, [], [], [])
        with pytest.raises(SimulationError):
            GroupBlock.for_deployed(
                platform, ["missing"], [np.array([1.0])], [np.random.default_rng(0)]
            )
        platform.deploy(cpu_function.name, cpu_function.profile, 256)
        for bad in ([3.0, 1.0], [-1.0, 2.0]):
            with pytest.raises(SimulationError):
                GroupBlock.for_deployed(
                    platform, [cpu_function.name], [np.array(bad)], [0]
                )
        deployed = platform.get_function(cpu_function.name)
        good = dict(
            names=[cpu_function.name],
            profiles=[deployed.profile],
            memory_mb=np.array([256.0]),
            serials=np.array([deployed.serial]),
            arrivals=np.array([1.0, 2.0]),
            offsets=np.array([0, 2]),
            keys=np.zeros(1, dtype=np.uint64),
            fresh_pool=np.zeros(1, dtype=bool),
        )
        GroupBlock(**good)
        for column, bad in (
            ("offsets", np.array([0, 1])),
            ("offsets", np.array([0, 1, 2])),
            ("serials", np.array([1, 2])),
            ("keys", np.zeros(2, dtype=np.uint64)),
            ("keys", [0]),
            ("keys", np.zeros(1)),
            ("fresh_pool", np.zeros(2, dtype=bool)),
            ("arrivals", np.array([[1.0, 2.0]])),
        ):
            with pytest.raises(SimulationError):
                GroupBlock(**{**good, column: bad})


class TestFusedVersusLooped:
    """Bit-identical fused-vs-looped execution on shared group keys."""

    def _compare(self, functions, arrival_sets, seed=0, keep_alive_s=600.0):
        """Run the same groups through the kernel and the looped oracle;
        assert bit-identity of every batch and of each group's stats."""

        def run(backend):
            platform = ServerlessPlatform(
                config=PlatformConfig(allowed_memory_sizes_mb=None, seed=seed),
                cold_start_model=ColdStartModel(keep_alive_s=keep_alive_s),
            )
            for fn in functions:
                platform.deploy(fn.name, fn.profile, 512)
            batches = []
            for round_index, arrivals in enumerate(arrival_sets):
                keys = noise_keys(
                    seed, STREAM_EXECUTION, round_index, np.arange(len(functions))
                )
                block = GroupBlock.for_deployed(
                    platform, [fn.name for fn in functions], arrivals, keys
                )
                batches.append(backend.run_grouped(platform, block))
            return batches

        for fused, looped in zip(run(get_backend("vectorized")), run(LoopedBackend())):
            assert_identical(fused, looped)
            fused_stats, fused_counts = fused.aggregate_stats()
            for g in np.flatnonzero(looped.group_sizes()):
                stats, count = looped.group(g).aggregate_stats()
                np.testing.assert_array_equal(fused_stats[g], stats)
                assert int(fused_counts[g]) == count

    def test_sparse_traffic_multiple_rounds(self):
        functions = _functions(8, seed=3)
        rng = np.random.default_rng(5)
        arrival_sets = [
            [
                np.sort(rng.uniform(w * 3600.0, (w + 1) * 3600.0, rng.integers(0, 40)))
                for _ in functions
            ]
            for w in range(3)
        ]
        self._compare(functions, arrival_sets)

    def test_dense_overlapping_traffic(self):
        """Tight gaps force the scalar/warm-run paths of the hybrid walk."""
        functions = _functions(4, seed=4)
        rng = np.random.default_rng(6)
        arrival_sets = [
            [np.sort(rng.uniform(0.0, 30.0, 120)) for _ in functions],
            [np.sort(rng.uniform(30.0, 60.0, 120)) for _ in functions],
        ]
        self._compare(functions, arrival_sets, seed=1)

    def test_short_keep_alive_forces_expiry_churn(self):
        functions = _functions(4, seed=9)
        rng = np.random.default_rng(10)
        arrival_sets = [
            [np.sort(rng.uniform(0.0, 2000.0, 60)) for _ in functions],
            [np.sort(rng.uniform(2000.0, 4000.0, 60)) for _ in functions],
        ]
        self._compare(functions, arrival_sets, seed=2, keep_alive_s=12.0)

    def test_serial_run_grouped_matches_fused_noise_free(self):
        functions = _functions(3, seed=12)
        arrivals = [
            np.sort(np.random.default_rng(g).uniform(0.0, 600.0, 50))
            for g in range(len(functions))
        ]

        def run(backend_name):
            platform = ServerlessPlatform.noise_free(seed=0)
            platform.cold_start_model = ColdStartModel(noise_cv=0.0)
            for fn in functions:
                platform.deploy(fn.name, fn.profile, 512)
            keys = noise_keys(0, STREAM_EXECUTION, 0, np.arange(len(functions)))
            block = GroupBlock.for_deployed(
                platform, [fn.name for fn in functions], arrivals, keys
            )
            return get_backend(backend_name).run_grouped(platform, block)

        serial_stats, serial_counts = run("serial").aggregate_stats()
        fused_stats, fused_counts = run("vectorized").aggregate_stats()
        np.testing.assert_array_equal(serial_counts, fused_counts)
        np.testing.assert_allclose(serial_stats, fused_stats, rtol=1e-9, atol=1e-12)

    def test_looped_default_honours_multi_size_deployments(self):
        """The looped run_grouped default must execute every group at the
        deployment captured in its block, not the function's latest one —
        a harness-style block deploys one function at several sizes."""
        function = _functions(1, seed=14)[0]
        sizes = (128, 512, 3008)
        arrivals = np.sort(np.random.default_rng(0).uniform(0.0, 600.0, 40))

        def run(backend_name):
            platform = ServerlessPlatform.noise_free(seed=0)
            platform.cold_start_model = ColdStartModel(noise_cv=0.0)
            keys = noise_keys(0, STREAM_EXECUTION, 0, np.arange(len(sizes)))
            deployed = [
                platform.deploy(function.name, function.profile, size) for size in sizes
            ]
            block = GroupBlock.of_groups(
                [function.name] * len(sizes),
                [d.profile for d in deployed],
                [d.memory_mb for d in deployed],
                [d.serial for d in deployed],
                [arrivals] * len(sizes),
                keys,
                fresh_pool=True,
            )
            return get_backend(backend_name).run_grouped(platform, block)

        fused = run("vectorized")
        looped = run("serial")
        np.testing.assert_array_equal(fused.memory_mb, looped.memory_mb)
        fused_stats, _ = fused.aggregate_stats()
        looped_stats, _ = looped.aggregate_stats()
        np.testing.assert_allclose(looped_stats, fused_stats, rtol=1e-9, atol=1e-12)
        # Larger sizes must run strictly faster (a CPU-bearing profile): the
        # looped default at the wrong (latest) deployment would flatten this.
        exec_row = METRIC_NAMES.index("execution_time")
        means = looped_stats[:, exec_row, 0]
        assert means[0] > means[1] > means[2]


class TestFleetWindowParity:
    """Fleet windows through the grouped kernel: oracle, backends, arrival cap, records."""

    @pytest.mark.parametrize(
        "model_name", ["bursty", "constant", "diurnal", "ramp", "trace"]
    )
    def test_fused_equals_looped(
        self, model_name, traffic_model_fleet, assert_fleet_matches_looped
    ):
        """Fused traffic sampling plus one grouped kernel call per window equal
        the looped per-group oracle, per traffic model."""
        functions, traffic = traffic_model_fleet(model_name, "fleet")
        assert_fleet_matches_looped(
            functions, traffic, FleetConfig(window_s=3600.0, seed=17)
        )

    def test_fused_serial_windows_stream_records(self, cpu_function):
        """Fleet windows run through the serial backend's scalar path, one
        ``invoke`` per arrival, still count and bill every invocation."""
        simulator = FleetSimulator(
            [cpu_function],
            [ConstantTraffic(rate_rps=0.1)],
            FleetConfig(window_s=600.0, seed=6),
        )
        simulator.backend = get_backend("serial")
        for _ in range(2):
            window = simulator.run_window()
            assert window.n_invocations[0] > 0
        assert simulator.platform.total_cost_usd(cpu_function.name) > 0.0


class TestMeasureTableParity:
    """measure_table: kernel == looped oracle == parallel == sharded, bit-identical."""

    SIZES = (128, 512, 2048)

    def _harness(self, backend, n_workers=None):
        return MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=self.SIZES,
                max_invocations_per_size=25,
                seed=13,
                backend=backend,
                n_workers=n_workers,
            )
        )

    def _table(self, functions, backend, n_workers=None, **kwargs):
        return self._harness(backend, n_workers).measure_table(functions, **kwargs)

    def test_fused_equals_looped_vectorized(self, looped_backend):
        functions = _functions(7, seed=41)
        fused = self._table(functions, "vectorized")
        harness = self._harness("vectorized")
        harness.backend = looped_backend
        looped = harness.measure_table(functions)
        np.testing.assert_array_equal(fused.values, looped.values)
        np.testing.assert_array_equal(fused.n_invocations, looped.n_invocations)
        assert fused.function_names == looped.function_names

    def test_parallel_chunks_equal_vectorized_fused(self):
        functions = _functions(5, seed=42)
        fused = self._table(functions, "vectorized")
        parallel = self._table(functions, "parallel", n_workers=2)
        np.testing.assert_array_equal(fused.values, parallel.values)
        np.testing.assert_array_equal(fused.n_invocations, parallel.n_invocations)

    def test_serial_looped_matches_fused_statistically(self):
        functions = _functions(3, seed=43)
        serial = self._table(functions, "serial")
        fused = self._table(functions, "vectorized")
        exec_serial = serial.execution_time_ms()
        exec_fused = fused.execution_time_ms()
        np.testing.assert_allclose(exec_fused, exec_serial, rtol=0.15)

    def test_object_path_matches_fused_table(self):
        functions = _functions(4, seed=44)
        harness = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=self.SIZES,
                max_invocations_per_size=25,
                seed=13,
                backend="vectorized",
            )
        )
        from repro.dataset.table import MeasurementTable

        measured = [
            harness.measure_function(function, index=k) for k, function in enumerate(functions)
        ]
        table = self._table(functions, "vectorized")
        from_objects = MeasurementTable.from_measurements(
            measured, memory_sizes_mb=self.SIZES
        )
        np.testing.assert_array_equal(table.values, from_objects.values)

    def test_sharded_generation_equals_in_memory(self, tmp_path):
        config = dict(
            n_functions=9,
            memory_sizes_mb=self.SIZES,
            invocations_per_size=20,
            seed=77,
            backend="vectorized",
        )
        in_memory = TrainingDatasetGenerator(
            DatasetGenerationConfig(**config)
        ).generate_table()
        sharded = TrainingDatasetGenerator(
            DatasetGenerationConfig(**config)
        ).generate_table(shard_size=4, shard_directory=tmp_path / "shards")
        np.testing.assert_array_equal(in_memory.values, sharded.to_table().values)
        np.testing.assert_array_equal(in_memory.n_invocations, sharded.n_invocations)
        assert in_memory.function_names == sharded.function_names

    def test_looped_generation_equals_fused(self, looped_backend):
        config = DatasetGenerationConfig(
            n_functions=6, memory_sizes_mb=self.SIZES,
            invocations_per_size=15, seed=78, backend="vectorized",
        )
        fused = TrainingDatasetGenerator(config).generate_table()
        generator = TrainingDatasetGenerator(config)
        generator.harness.backend = looped_backend
        looped = generator.generate_table()
        np.testing.assert_array_equal(fused.values, looped.values)

    def test_standalone_measurements_use_independent_streams(self, cpu_function):
        """Repeated measure_function calls on one harness auto-advance the
        measurement index: probing the same function twice must not replay
        the identical arrival trace and noise stream."""
        harness = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=(256,), max_invocations_per_size=20, seed=9
            )
        )
        first = harness.measure_function(cpu_function)
        second = harness.measure_function(cpu_function)
        assert first.execution_time_ms(256) != second.execution_time_ms(256)
        # An explicit index reproduces the first standalone call exactly.
        replay = harness.measure_function(cpu_function, index=0)
        assert replay.execution_time_ms(256) == first.execution_time_ms(256)
        # ... and equals measuring the function first in a list.
        fresh = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=(256,), max_invocations_per_size=20, seed=9
            )
        )
        listed = fresh.measure_table([cpu_function])
        assert listed.execution_time_ms()[0, 0] == first.execution_time_ms(256)

    def test_sink_size_order_still_validated(self, cpu_function):
        from repro.dataset.sharding import ShardedTableWriter

        harness = MeasurementHarness(
            config=HarnessConfig(
                memory_sizes_mb=(128, 512), max_invocations_per_size=8,
                seed=1, backend="vectorized",
            )
        )
        import tempfile

        writer = ShardedTableWriter(
            tempfile.mkdtemp(prefix="repro-grouped-test-"),
            memory_sizes_mb=(512, 128),
            shard_size=2,
        )
        with pytest.raises(ConfigurationError):
            harness.measure_table([cpu_function], sink=writer)


class TestOneMeasurementPath:
    """Every harness call runs grouped chunks through ``run_grouped``."""

    @pytest.mark.parametrize(
        "sizes", [(256,), (128, 1024), (3008, 128, 512)], ids=lambda s: "-".join(map(str, s))
    )
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "parallel"])
    def test_function_many_and_table_rows_agree(self, backend, sizes, monkeypatch):
        """``measure_function(f, index=k)`` is row ``k`` of ``measure_table``:
        same stats, counts and billing, the requested size order on the
        object view and no per-size ``run_batch``."""
        batch_calls = []
        run_batch = VectorizedBackend.run_batch

        def spy(self, platform, function_name, arrivals, key=None):
            batch_calls.append(function_name)
            return run_batch(self, platform, function_name, arrivals, key=key)

        monkeypatch.setattr(VectorizedBackend, "run_batch", spy)
        functions = _functions(3, seed=45)

        def harness():
            return MeasurementHarness(
                config=HarnessConfig(
                    memory_sizes_mb=sizes,
                    max_invocations_per_size=12,
                    seed=21,
                    backend=backend,
                    n_workers=2,
                )
            )

        table_harness = harness()
        table = table_harness.measure_table(functions)
        for k, function in enumerate(functions):
            single_harness = harness()
            single = single_harness.measure_function(function, index=k)
            assert list(single.summaries) == list(sizes)
            # The table keeps its columns in ascending size order.
            stats, counts = measurement_stat_block(single, table.memory_sizes_mb)
            np.testing.assert_array_equal(table.values[k], stats)
            np.testing.assert_array_equal(table.n_invocations[k], counts)
            billed = single_harness.platform.total_cost_usd(function.name)
            assert billed > 0.0
            assert table_harness.platform.total_cost_usd(function.name) == billed
        assert batch_calls == []

    def test_long_windows_chunk_by_invocations(self, monkeypatch):
        """Paper-scale windows shrink the chunk below 64 functions
        (46 080 invocations at most), with unchanged numbers."""
        chunks = []
        measure_chunk_stats = MeasurementHarness.measure_chunk_stats

        def spy(self, functions, *args, **kwargs):
            chunks.append(len(functions))
            return measure_chunk_stats(self, functions, *args, **kwargs)

        monkeypatch.setattr(MeasurementHarness, "measure_chunk_stats", spy)
        # The chunk follows the cap; a short window keeps the run itself small.
        config = HarnessConfig(
            memory_sizes_mb=(128,),
            workload=Workload(requests_per_second=2.0, duration_s=60.0, warmup_s=5.0),
            max_invocations_per_size=20_000,
            backend="vectorized",
        )
        functions = _functions(5, seed=46)
        table = MeasurementHarness(config=config).measure_table(functions)
        assert chunks == [2, 2, 1]
        single = MeasurementHarness(config=config)
        for k, function in enumerate(functions):
            stats, counts = measurement_stat_block(
                single.measure_function(function, index=k), (128,)
            )
            np.testing.assert_array_equal(table.values[k], stats)
            np.testing.assert_array_equal(table.n_invocations[k], counts)
        # Without a cap the workload's expected requests bound the chunk:
        # 18 000 per size at paper scale leaves one function per chunk.
        uncapped = MeasurementHarness(config=HarnessConfig(max_invocations_per_size=None))
        assert uncapped._chunk_size(6, None) == 1
        assert MeasurementHarness()._chunk_size(6, None) == 64
