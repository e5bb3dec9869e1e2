"""Execution-noise stream contract, version 2 (``docs/FORMATS.md``).

A group's key is a fold of its coordinates, and the value of invocation
``j`` and source ``s`` is ``u(key, j, s)``: the SplitMix64 output mix of
``key + (64 j + s) * GAMMA`` read as ``((x >> 12) + 0.5) * 2**-52``.  These
tests pin known answers (also listed in ``docs/FORMATS.md``), check the
numpy evaluation against a plain-integer one, the open interval, the
distributions the transforms produce, the independence of neighbouring
values, and that a group's values do not depend on the schedule it runs in.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.engine import GroupBlock, get_backend
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.simulation.seeding import (
    GAMMA,
    MAX_SERVICE_DRAWS,
    SOURCE_COLD,
    SOURCE_CPU,
    SOURCE_JITTER,
    SOURCE_SERVICE,
    SOURCE_TAIL,
    STREAM_EXECUTION,
    CounterPass,
    counter_uniforms,
    noise_keys,
    noise_uniforms,
)
from repro.simulation.services import ServiceCatalog
from repro.simulation.variability import VariabilityModel
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator

MASK = (1 << 64) - 1

#: (coordinates, key) pairs: a fleet group (seed, stream, window, function),
#: a harness group (seed, stream, function, size) and a multi-word seed.
KNOWN_KEYS = [
    ((1, STREAM_EXECUTION, 0, 0), 0x18B7956F89F1E097),
    ((42, STREAM_EXECUTION, 7, 3), 0xF3C2AE9555272860),
    ((2**70 + 5, STREAM_EXECUTION, 3, 2**32 + 1), 0x908D333385E9DBE7),
]

#: u(0x18b7956f89f1e097, j, s) for j in (0, 1, 63) (rows), s in (0, 1, 3, 16).
KNOWN_UNIFORMS = [
    [0.0975318088368925, 0.8610172419858798, 0.3435657830741935, 0.07814929945850213],
    [0.33719288699561634, 0.684305391421476, 0.7181431002992188, 0.2588455372465245],
    [0.1708346316403503, 0.35635877481536815, 0.48920106667024077, 0.07230814573348232],
]


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _unmix(x: int) -> int:
    """The inverse of :func:`_mix`."""

    def unshift(y: int, shift: int) -> int:
        z = y
        for _ in range(64 // shift + 1):
            z = y ^ (z >> shift)
        return z

    x = unshift(x, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    x = unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return unshift(x, 30)


def _reference_key(*coordinates: int) -> int:
    h = GAMMA
    for coordinate in coordinates:
        value = coordinate
        while True:
            h = _mix(h ^ (value & MASK))
            value >>= 64
            if not value:
                break
    return h


def _reference_u(key: int, j: int, s: int) -> float:
    x = _mix((key + (64 * j + s) * GAMMA) & MASK)
    return ((x >> 12) + 0.5) * 2.0**-52


class TestKnownAnswers:
    @pytest.mark.parametrize("coordinates, key", KNOWN_KEYS)
    def test_keys(self, coordinates, key):
        assert int(noise_keys(*coordinates)) == key
        assert _reference_key(*coordinates) == key

    def test_array_coordinates_key_like_scalars(self):
        functions = np.array([0, 5, 2**32 + 1, 2**63 + 9], dtype=np.uint64)
        keys = noise_keys(3, STREAM_EXECUTION, 11, functions)
        assert keys.dtype == np.uint64
        for function, key in zip(functions.tolist(), keys.tolist()):
            assert key == _reference_key(3, STREAM_EXECUTION, 11, function)
        harness = noise_keys(9, STREAM_EXECUTION, np.array([4, 4, 5]), np.array([0, 1, 0]))
        assert harness.tolist() == [
            _reference_key(9, STREAM_EXECUTION, f, s) for f, s in ((4, 0), (4, 1), (5, 0))
        ]

    def test_uniforms(self):
        key = KNOWN_KEYS[0][1]
        got = noise_uniforms(key, [0, 1, 63], [0, 1, 3, 16])
        np.testing.assert_array_equal(got, np.array(KNOWN_UNIFORMS))
        for r, j in enumerate((0, 1, 63)):
            for c, s in enumerate((0, 1, 3, 16)):
                assert got[r, c] == _reference_u(key, j, s)

    def test_counter_pass_equals_the_reference(self):
        keys = np.array([KNOWN_KEYS[1][1], KNOWN_KEYS[2][1], 2**64 - 1], dtype=np.uint64)
        offsets = np.array([0, 3, 3, 8])
        gid = np.repeat(np.arange(3), np.diff(offsets))
        counter_pass = CounterPass.for_groups(keys, offsets, gid)
        for source in (SOURCE_CPU, SOURCE_TAIL, SOURCE_JITTER + 12, SOURCE_SERVICE + 47):
            got = counter_pass.uniforms(source, np.empty(8)).tolist()
            expected = [
                _reference_u(int(keys[g]), int(i - offsets[g]), source)
                for i, g in enumerate(gid.tolist())
            ]
            assert got == expected
        block = counter_pass.block_normals(np.array([0, 7]), SOURCE_SERVICE, 3)
        assert block.shape == (2, 3)
        assert block[1, 2] == ndtri(_reference_u(2**64 - 1, 4, SOURCE_SERVICE + 2))

    def test_sources_outside_the_invocation_raise(self):
        with pytest.raises(ValueError):
            noise_uniforms(1, [0], [64])
        with pytest.raises(ValueError):
            noise_uniforms(1, [0], [-1])
        with pytest.raises(ValueError):
            noise_keys(1, STREAM_EXECUTION, np.array([-1]))

    def test_a_service_row_wider_than_the_contract_raises(self):
        from repro.errors import SimulationError

        catalog = ServiceCatalog.default()
        catalog.batch_rows((ServiceCall("dynamodb", calls=MAX_SERVICE_DRAWS),))
        with pytest.raises(SimulationError):
            catalog.batch_rows((ServiceCall("dynamodb", calls=MAX_SERVICE_DRAWS + 1),))


class TestOpenInterval:
    def test_extremes_of_x_stay_inside(self):
        counters = np.array([_unmix(0), _unmix(MASK)], dtype=np.uint64)
        assert _mix(int(counters[0])) == 0 and _mix(int(counters[1])) == MASK
        u = counter_uniforms(counters.copy())
        assert u[0] == 2.0**-53
        assert u[1] == 1.0 - 2.0**-53
        assert np.all(np.isfinite(ndtri(u)))


def _sample(n_keys=4_000, n_positions=50, sources=(SOURCE_CPU, SOURCE_TAIL, SOURCE_COLD)):
    """``(n_keys, n_positions, len(sources))`` uniforms of fleet keys of window 0."""
    keys = noise_keys(5, STREAM_EXECUTION, 0, np.arange(n_keys))
    return np.stack([noise_uniforms(int(k), np.arange(n_positions), sources) for k in keys])


class TestDistributions:
    def test_normals_are_standard(self):
        z = ndtri(_sample(sources=(SOURCE_JITTER, SOURCE_SERVICE)).ravel())
        assert stats.kstest(z, "norm").pvalue > 1e-3

    def test_cpu_and_cold_factors_are_their_lognormals(self):
        u = _sample()
        variability = VariabilityModel()
        mu, sigma = variability.lognormal_params(variability.cpu_noise_cv)
        cpu = np.array([variability.cpu_factor(z) for z in ndtri(u[:, 0, 0])])
        cpu_all = np.exp(mu + sigma * ndtri(u[:, :, 0].ravel()))
        lognormal = stats.lognorm(s=sigma, scale=np.exp(mu)).cdf
        assert stats.kstest(cpu_all, lognormal).pvalue > 1e-3
        np.testing.assert_allclose(cpu, cpu_all.reshape(u.shape[:2])[:, 0], rtol=1e-12)

        cold = ColdStartModel()
        base = cold.duration_ms(256, 100.0, 0.2)
        factors = np.array(
            [cold.duration_ms(256, 100.0, 0.2, z=z) / base for z in ndtri(u[:, 0, 2])]
        )
        mu, sigma = cold.noise_params()
        assert stats.kstest(factors, stats.lognorm(s=sigma, scale=np.exp(mu)).cdf).pvalue > 1e-3

    def test_tail_frequency_is_p(self):
        u = _sample()[:, :, 1].ravel()
        variability = VariabilityModel(tail_probability=0.01, tail_multiplier=2.0)
        stragglers = sum(variability.tail_factor(x) == 2.0 for x in u[:20_000].tolist())
        assert stragglers == int(np.count_nonzero(u[:20_000] < 0.01))
        n, p = u.shape[0], 0.01
        hits = int(np.count_nonzero(u < p))
        # Five binomial standard deviations either side of n p.
        assert abs(hits - n * p) < 5 * np.sqrt(n * p * (1 - p))


class TestIndependence:
    BOUND = 0.01

    def _corr(self, a, b):
        return abs(np.corrcoef(ndtri(a.ravel()), ndtri(b.ravel()))[0, 1])

    def test_adjacent_sources_positions_keys_and_windows(self):
        u = _sample(n_keys=2_000, n_positions=64, sources=tuple(range(16)))
        # (keys, positions, sources); ~2 M values.
        assert self._corr(u[:, :, :-1], u[:, :, 1:]) < self.BOUND
        assert self._corr(u[:, :-1, :], u[:, 1:, :]) < self.BOUND
        assert self._corr(u[:-1], u[1:]) < self.BOUND
        next_window = noise_keys(5, STREAM_EXECUTION, 1, np.arange(2_000))
        w1 = np.stack(
            [noise_uniforms(int(k), np.arange(64), range(16)) for k in next_window]
        )
        assert self._corr(u, w1) < self.BOUND
        # The last source of one invocation and the first of the next are
        # neighbours in the key's sequence too (64 j + 63, 64 (j + 1)).
        last = noise_uniforms(int(noise_keys(5, STREAM_EXECUTION, 0, 0)), np.arange(20_000), [63])
        first = noise_uniforms(int(noise_keys(5, STREAM_EXECUTION, 0, 0)), np.arange(20_000), [0])
        assert self._corr(last[:-1], first[1:]) < 3 * self.BOUND


def _functions(n, seed=31):
    config = GeneratorConfig(seed=seed, name_prefix="nc")
    return SyntheticFunctionGenerator(config=config).generate(n)


class TestScheduleIndependence:
    """A group's values do not depend on what else its block computes."""

    def _run(self, functions, chosen, metric_names=None):
        platform = ServerlessPlatform(PlatformConfig(seed=8))
        for f in functions:
            platform.deploy(f.name, f.profile, 512)
        block = GroupBlock.for_deployed(
            platform,
            [functions[i].name for i in chosen],
            [np.sort(np.random.default_rng(i).uniform(0.0, 900.0, 25)) for i in chosen],
            noise_keys(8, STREAM_EXECUTION, 0, np.asarray(chosen)),
        )
        backend = get_backend("vectorized")
        if metric_names is None:
            return backend.run_grouped(platform, block)
        return backend.run_grouped(platform, block, metric_names)

    def test_alone_first_last_and_with_other_jitter_rows(self):
        functions = _functions(5)
        alone = self._run(functions, [2]).group(0)
        first = self._run(functions, [2, 0, 4]).group(0)
        last = self._run(functions, [1, 3, 2]).group(2)
        narrow = self._run(functions, [4, 2], ("execution_time", "fs_writes")).group(1)
        for other in (first, last):
            np.testing.assert_array_equal(other.execution_time_ms, alone.execution_time_ms)
            np.testing.assert_array_equal(other.cold_start, alone.cold_start)
            np.testing.assert_array_equal(other.init_duration_ms, alone.init_duration_ms)
            for name, values in alone.metrics.items():
                np.testing.assert_array_equal(other.metrics[name], values, err_msg=name)
        assert list(narrow.metrics) == ["execution_time", "fs_writes"]
        for name in narrow.metrics:
            np.testing.assert_array_equal(narrow.metrics[name], alone.metrics[name])

    def test_harness_chunking(self, monkeypatch):
        import repro.dataset.harness as harness_module

        functions = _functions(5, seed=32)

        def measure(chunk):
            monkeypatch.setattr(harness_module, "_CHUNK_FUNCTIONS", chunk)
            harness = MeasurementHarness(
                config=HarnessConfig(
                    memory_sizes_mb=(128, 1024), max_invocations_per_size=12,
                    seed=4, backend="vectorized",
                )
            )
            return harness.measure_table(functions).values

        np.testing.assert_array_equal(measure(2), measure(64))


def test_scalar_path_reads_the_same_noise():
    """One invocation's scalar result equals the kernel's for its key position."""
    profile = ResourceProfile(
        cpu_user_ms=40.0,
        memory_working_set_mb=30.0,
        service_calls=(ServiceCall("s3", "get_object", 256, 4096, calls=2),),
    )
    arrivals = np.array([1.0, 700.0, 700.01])
    key = int(noise_keys(2, STREAM_EXECUTION, 0, 0))
    results = []
    for backend in ("serial", "vectorized"):
        platform = ServerlessPlatform(PlatformConfig(seed=2))
        platform.deploy("f", profile, 256)
        results.append(platform.invoke_batch("f", arrivals, backend=backend, key=key))
    serial, kernel = results
    np.testing.assert_allclose(serial.execution_time_ms, kernel.execution_time_ms, rtol=1e-12)
    np.testing.assert_allclose(serial.init_duration_ms, kernel.init_duration_ms, rtol=1e-12)
    np.testing.assert_array_equal(serial.cold_start, kernel.cold_start)
