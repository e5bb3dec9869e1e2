"""Unit tests for the time-varying traffic models (repro.workloads.traffic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import traffic as traffic_module
from repro.workloads.traffic import (
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    FleetArrivals,
    FleetTrafficSchedule,
    RampTraffic,
    TraceTraffic,
    _sort_within_groups,
    sample_fleet_traffic,
)


class TestValidation:
    def test_constant_rejects_non_positive_and_non_finite_rates(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ConstantTraffic(rate_rps=bad)

    def test_diurnal_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(mean_rate_rps=-0.1)
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(mean_rate_rps=1.0, amplitude=1.0)
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(mean_rate_rps=1.0, amplitude=-0.2)
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(mean_rate_rps=1.0, period_s=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalTraffic(mean_rate_rps=1.0, phase_s=float("nan"))

    def test_bursty_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            BurstyTraffic(base_rate_rps=1.0, burst_rate_rps=0.5)  # burst below base
        with pytest.raises(ConfigurationError):
            BurstyTraffic(
                base_rate_rps=1.0, burst_rate_rps=5.0,
                burst_every_s=100.0, burst_duration_s=100.0,
            )
        with pytest.raises(ConfigurationError):
            BurstyTraffic(base_rate_rps=0.0, burst_rate_rps=5.0)
        # The placement seed must be an integer >= 0: numpy's default_rng
        # would reject -3 only at the first rate() call, and silently
        # truncate 2.7 to seed 2.
        for bad_seed in (-3, 2.7, True, 2.0):
            with pytest.raises(ConfigurationError, match="burst_seed"):
                BurstyTraffic(
                    base_rate_rps=0.01, burst_rate_rps=0.05, burst_seed=bad_seed
                )
        assert BurstyTraffic(
            base_rate_rps=0.01, burst_rate_rps=0.05, burst_seed=np.int64(3)
        ).burst_seed == 3

    def test_ramp_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RampTraffic(start_rate_rps=0.0, end_rate_rps=1.0)
        with pytest.raises(ConfigurationError):
            RampTraffic(start_rate_rps=1.0, end_rate_rps=2.0, ramp_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            RampTraffic(start_rate_rps=1.0, end_rate_rps=2.0, ramp_start_s=-5.0)

    def test_trace_rejects_bad_traces(self):
        with pytest.raises(ConfigurationError):
            TraceTraffic(timestamps_s=())
        with pytest.raises(ConfigurationError):
            TraceTraffic(timestamps_s=(3.0, 1.0))
        with pytest.raises(ConfigurationError):
            TraceTraffic(timestamps_s=(-1.0, 2.0))
        with pytest.raises(ConfigurationError):
            TraceTraffic(timestamps_s=(1.0, 2.0), loop_period_s=1.5)

    def test_bad_window_rejected(self):
        model = ConstantTraffic(rate_rps=1.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            model.arrivals(10.0, 10.0, rng)
        with pytest.raises(ConfigurationError):
            model.arrivals(-1.0, 5.0, rng)
        with pytest.raises(ConfigurationError):
            model.mean_rate(0.0, 10.0, resolution=0)


class TestArrivalGeneration:
    def test_arrivals_sorted_and_inside_window(self):
        models = [
            ConstantTraffic(rate_rps=2.0),
            DiurnalTraffic(mean_rate_rps=2.0, amplitude=0.7),
            BurstyTraffic(base_rate_rps=0.5, burst_rate_rps=5.0,
                          burst_every_s=600.0, burst_duration_s=60.0),
            RampTraffic(start_rate_rps=0.5, end_rate_rps=3.0, ramp_duration_s=1800.0),
        ]
        rng = np.random.default_rng(7)
        for model in models:
            times = model.arrivals(1000.0, 4600.0, rng)
            assert np.all(np.diff(times) >= 0)
            assert np.all((times >= 1000.0) & (times < 4600.0))
            assert times.size > 0

    def test_constant_rate_matches_poisson_mean(self):
        model = ConstantTraffic(rate_rps=5.0)
        rng = np.random.default_rng(3)
        counts = [model.arrivals(0.0, 1000.0, rng).size for _ in range(20)]
        assert np.mean(counts) == pytest.approx(5000, rel=0.05)

    def test_diurnal_peak_and_trough_differ(self):
        """Windows at the crest see several times the traffic of the trough."""
        model = DiurnalTraffic(mean_rate_rps=2.0, amplitude=0.8, period_s=86_400.0)
        rng = np.random.default_rng(11)
        # Rate peaks a quarter period after phase 0 and bottoms at three quarters.
        peak = model.arrivals(86_400 // 4 - 1800, 86_400 // 4 + 1800, rng).size
        trough = model.arrivals(3 * 86_400 // 4 - 1800, 3 * 86_400 // 4 + 1800, rng).size
        assert peak > 3 * trough

    def test_bursty_rate_hits_burst_level_deterministically(self):
        model = BurstyTraffic(
            base_rate_rps=0.1, burst_rate_rps=10.0,
            burst_every_s=3600.0, burst_duration_s=300.0, burst_seed=5,
        )
        times = np.linspace(0.0, 4 * 3600.0, 20_000)
        rates = model.rate(times)
        assert rates.min() == pytest.approx(0.1)
        assert rates.max() == pytest.approx(10.0)
        # Burst placement is a pure function of (seed, interval): same result
        # regardless of evaluation chunking.
        chunked = np.concatenate([model.rate(chunk) for chunk in np.split(times, 4)])
        assert np.array_equal(rates, chunked)

    def test_ramp_moves_between_endpoint_rates(self):
        model = RampTraffic(
            start_rate_rps=1.0, end_rate_rps=4.0,
            ramp_start_s=100.0, ramp_duration_s=200.0,
        )
        assert model.rate(np.array([0.0]))[0] == pytest.approx(1.0)
        assert model.rate(np.array([200.0]))[0] == pytest.approx(2.5)
        assert model.rate(np.array([1000.0]))[0] == pytest.approx(4.0)
        assert model.peak_rate == pytest.approx(4.0)

    def test_seeded_generation_is_reproducible(self):
        model = DiurnalTraffic(mean_rate_rps=1.0, amplitude=0.5)
        a = model.arrivals(0.0, 7200.0, np.random.default_rng(42))
        b = model.arrivals(0.0, 7200.0, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestTraceReplay:
    def test_replay_is_exact_and_windowed(self):
        trace = (1.0, 5.0, 9.0, 14.5)
        model = TraceTraffic(timestamps_s=trace)
        rng = np.random.default_rng(0)
        assert np.array_equal(model.arrivals(0.0, 10.0, rng), [1.0, 5.0, 9.0])
        assert np.array_equal(model.arrivals(5.0, 15.0, rng), [5.0, 9.0, 14.5])
        assert model.arrivals(20.0, 30.0, rng).size == 0

    def test_replay_does_not_consume_randomness(self):
        model = TraceTraffic(timestamps_s=(1.0, 2.0))
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        model.arrivals(0.0, 10.0, rng)
        assert rng.bit_generator.state == before

    def test_looped_replay_covers_every_cycle(self):
        model = TraceTraffic(timestamps_s=(1.0, 5.0), loop_period_s=10.0)
        rng = np.random.default_rng(0)
        assert np.array_equal(model.arrivals(0.0, 30.0, rng), [1, 5, 11, 15, 21, 25])
        # Chunked windows reproduce the contiguous replay.
        chunked = np.concatenate(
            [model.arrivals(t, t + 10.0, rng) for t in (0.0, 10.0, 20.0)]
        )
        assert np.array_equal(chunked, model.arrivals(0.0, 30.0, rng))
        # A window inside a later cycle.
        assert np.array_equal(model.arrivals(12.0, 18.0, rng), [15.0])


class TestFleetSampling:
    def test_sample_covers_all_model_kinds(self):
        models = sample_fleet_traffic(8, seed=3)
        kinds = {type(model) for model in models}
        assert kinds == {ConstantTraffic, DiurnalTraffic, BurstyTraffic, RampTraffic}

    def test_sample_is_seed_deterministic(self):
        assert sample_fleet_traffic(6, seed=9) == sample_fleet_traffic(6, seed=9)

    def test_sample_validation(self):
        with pytest.raises(ConfigurationError):
            sample_fleet_traffic(0)
        with pytest.raises(ConfigurationError):
            sample_fleet_traffic(3, mean_rate_range=(0.5, 0.1))
        with pytest.raises(ConfigurationError):
            sample_fleet_traffic(3, mean_rate_range=(0.0, 0.1))


def _one_of_each_model():
    """One instance of every traffic model class, batched and fallback."""
    return [
        ConstantTraffic(rate_rps=0.031),
        DiurnalTraffic(mean_rate_rps=0.02, amplitude=0.6, phase_s=4_000.0),
        RampTraffic(
            start_rate_rps=0.004,
            end_rate_rps=0.05,
            ramp_start_s=600.0,
            ramp_duration_s=5_000.0,
        ),
        BurstyTraffic(base_rate_rps=0.01, burst_rate_rps=0.2),
        TraceTraffic(timestamps_s=(100.0, 250.0, 2_500.0)),
    ]


class TestFleetTrafficSchedule:
    WINDOW = (1_000.0, 4_600.0)

    def test_sample_window_deterministic_sorted_and_bounded(self):
        models = _one_of_each_model()
        schedule = FleetTrafficSchedule(models)
        start_s, end_s = self.WINDOW
        samples = [
            schedule.sample_window(start_s, end_s, np.random.default_rng(5))
            for _ in range(2)
        ]
        assert np.array_equal(samples[0].times_s, samples[1].times_s)
        assert np.array_equal(samples[0].offsets, samples[1].offsets)
        arrivals = samples[0]
        assert arrivals.n_functions == len(models)
        assert arrivals.offsets[0] == 0
        assert arrivals.offsets[-1] == arrivals.total
        for i in range(len(models)):
            times = arrivals.arrivals_of(i)
            assert np.all(np.diff(times) >= 0)
            if times.size:
                assert times[0] >= start_s and times[-1] < end_s

    def test_trace_models_splice_exactly(self):
        trace = TraceTraffic(timestamps_s=(100.0, 250.0, 2_500.0))
        models = [ConstantTraffic(0.05), trace, ConstantTraffic(0.05)]
        schedule = FleetTrafficSchedule(models)
        arrivals = schedule.sample_window(0.0, 3_600.0, np.random.default_rng(6))
        assert np.array_equal(
            arrivals.arrivals_of(1), trace.arrivals(0.0, 3_600.0, None)
        )

    def test_rates_statistically_faithful(self):
        models = [
            ConstantTraffic(0.5),
            DiurnalTraffic(mean_rate_rps=0.4, amplitude=0.5, phase_s=0.0),
        ]
        schedule = FleetTrafficSchedule(models)
        totals = np.zeros(2)
        n_rounds = 40
        for round_index in range(n_rounds):
            arrivals = schedule.sample_window(
                0.0, 3_600.0, np.random.default_rng(100 + round_index)
            )
            totals += arrivals.counts()
        expected = np.array([m.mean_rate(0.0, 3_600.0) for m in models]) * 3_600.0
        np.testing.assert_allclose(totals / n_rounds, expected, rtol=0.05)

    def test_candidate_rates_bit_identical_to_per_model_rate(self):
        """The batched thinning rates equal ``TrafficModel.rate`` bit for bit.

        Covers every indexing route of the schedule: the attrgetter columns
        of the built-in kernel classes (two diurnal models, so the ``_rank``
        gather picks a non-zero column), the per-model indexing loop that
        exact subclasses take, and the per-model rate fallback of models
        without a kernel (bursty).
        """

        class ShiftedDiurnal(DiurnalTraffic):
            """A subclass: indexed by the per-model loop, rated by its kernel."""

        models = _one_of_each_model() + [
            DiurnalTraffic(mean_rate_rps=0.1, amplitude=0.2, phase_s=0.0),
            ShiftedDiurnal(mean_rate_rps=0.03, amplitude=0.5, phase_s=9_000.0),
            ShiftedDiurnal(mean_rate_rps=0.05, amplitude=0.3, phase_s=100.0),
        ]
        schedule = FleetTrafficSchedule(models)
        start_s, end_s = self.WINDOW
        rng = np.random.default_rng(12)
        # Trace replays are spliced in outside thinning and get no candidates.
        counts = np.array(
            [0 if isinstance(m, TraceTraffic) else 40 for m in models], dtype=np.int64
        )
        gids = np.repeat(np.arange(len(models), dtype=np.int64), counts)
        times = np.concatenate(
            [np.sort(rng.uniform(start_s, end_s, int(c))) for c in counts]
        )
        rates = schedule._candidate_rates(gids, times, counts)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for i, model in enumerate(models):
            segment = slice(offsets[i], offsets[i + 1])
            np.testing.assert_array_equal(rates[segment], model.rate(times[segment]))

    def test_from_arrays_round_trips(self):
        per_function = [
            np.array([1.0, 2.0, 3.0]),
            np.array([]),
            np.array([0.5]),
        ]
        arrivals = FleetArrivals.from_arrays(0.0, 10.0, per_function)
        assert np.array_equal(arrivals.counts(), [3, 0, 1])
        assert np.array_equal(arrivals.active(), [0, 2])
        for i, expected in enumerate(per_function):
            assert np.array_equal(arrivals.arrivals_of(i), expected)


def _lexsorted(gids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The two-key reference: ``values`` sorted within each group."""
    return values[np.lexsort((values, gids))]


class TestSortWithinGroups:
    """The one-key candidate sort equals the two-key lexsort bit for bit."""

    @staticmethod
    def _count_lexsorts(monkeypatch) -> list[int]:
        """Count the calls of ``np.lexsort`` made while the test runs."""
        calls = []
        lexsort = np.lexsort

        def counted(keys, *args, **kwargs):
            calls.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(traffic_module.np, "lexsort", counted)
        return calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("first_gid", [0, 2**20])
    def test_random_groups_equal_lexsort(self, seed, first_gid, monkeypatch):
        """Empty, single-candidate and long groups, at small and large ids."""
        calls = self._count_lexsorts(monkeypatch)
        rng = np.random.default_rng(seed)
        counts = rng.choice([0, 1, 2, 7, 300], size=60)
        counts[:3] = (0, 1, 300)
        gids = first_gid + np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        values = rng.random(gids.shape[0])
        result = _sort_within_groups(gids, values)
        assert calls in ([], [gids.shape[0]])
        expected = _lexsorted(gids, values)
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result.view(np.uint64), expected.view(np.uint64))

    def test_colliding_keys_fall_back_to_lexsort(self, monkeypatch):
        """``2**20 + u`` keeps only 32 bits of ``u``: two values of one group
        can share a key and leave the argsort out of order."""
        calls = self._count_lexsorts(monkeypatch)
        gid = 2**20
        high, low = 0.5 + 2.0**-40, 0.5
        assert gid + high == gid + low
        gids = np.array([0, gid, gid, gid + 1], dtype=np.int64)
        values = np.array([0.25, high, low, 0.75])
        result = _sort_within_groups(gids, values)
        assert calls == [4]
        np.testing.assert_array_equal(result, [0.25, low, high, 0.75])
        np.testing.assert_array_equal(result, _lexsorted(gids, values))

    def test_descending_run_of_equal_keys_falls_back(self, monkeypatch):
        """Whatever order the argsort gives ties, a descending run of 64
        values that share one key cannot come out ascending."""
        calls = self._count_lexsorts(monkeypatch)
        values = 0.5 + np.arange(64)[::-1] * 2.0**-40
        gids = np.full(64, 2**20, dtype=np.int64)
        assert np.unique(gids + values).shape[0] == 1
        result = _sort_within_groups(gids, values)
        np.testing.assert_array_equal(result, np.sort(values))
        assert calls == [64]

    def test_zero_candidates(self):
        empty = _sort_within_groups(np.empty(0, dtype=np.int64), np.empty(0))
        assert empty.shape == (0,)
        # A window whose envelope draws no candidate at all.
        schedule = FleetTrafficSchedule([ConstantTraffic(1e-12), ConstantTraffic(1e-12)])
        arrivals = schedule.sample_window(0.0, 1.0, np.random.default_rng(3))
        assert arrivals.total == 0
        np.testing.assert_array_equal(arrivals.offsets, [0, 0, 0])
        assert arrivals.times_s.shape == (0,)

    def test_sample_window_equals_the_lexsort_schedule(self, monkeypatch):
        """A whole window through the one-key sort equals the window whose
        candidate times are sorted by ``np.lexsort((times, gids))``."""
        start_s, duration = 3_600.0, 3_600.0

        def by_time(gids, uniforms):
            times = start_s + duration * uniforms
            return uniforms[np.lexsort((times, gids))]

        schedule = FleetTrafficSchedule(sample_fleet_traffic(40, seed=8) + _one_of_each_model())
        window = (start_s, start_s + duration)
        one_key = schedule.sample_window(*window, np.random.default_rng(21))
        monkeypatch.setattr(traffic_module, "_sort_within_groups", by_time)
        two_key = schedule.sample_window(*window, np.random.default_rng(21))
        assert one_key.total > 0
        np.testing.assert_array_equal(one_key.offsets, two_key.offsets)
        np.testing.assert_array_equal(
            one_key.times_s.view(np.uint64), two_key.times_s.view(np.uint64)
        )


class TestWorkloadValidation:
    """Typed ConfigurationError coverage for the loadgen Workload (satellite)."""

    def test_non_positive_rate_and_duration(self):
        from repro.workloads.loadgen import Workload

        with pytest.raises(ConfigurationError):
            Workload(requests_per_second=0.0)
        with pytest.raises(ConfigurationError):
            Workload(requests_per_second=-3.0)
        with pytest.raises(ConfigurationError):
            Workload(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            Workload(duration_s=-10.0)

    def test_warmup_must_stay_inside_duration(self):
        from repro.workloads.loadgen import Workload

        with pytest.raises(ConfigurationError):
            Workload(duration_s=60.0, warmup_s=60.0)
        with pytest.raises(ConfigurationError):
            Workload(duration_s=60.0, warmup_s=90.0)
        with pytest.raises(ConfigurationError):
            Workload(warmup_s=-1.0)

    def test_non_finite_values_rejected(self):
        """NaN compares False against every bound and must be caught explicitly."""
        from repro.workloads.loadgen import Workload

        for field in ("requests_per_second", "duration_s", "warmup_s"):
            with pytest.raises(ConfigurationError):
                Workload(**{field: float("nan")})
        with pytest.raises(ConfigurationError):
            Workload(duration_s=float("inf"))


class TestDiurnalBatchBuild:
    def test_value_equal_to_one_by_one_construction(self):
        rng = np.random.default_rng(8)
        means = rng.uniform(0.001, 0.1, 16)
        amplitudes = rng.uniform(0.0, 0.9, 16)
        phases = rng.uniform(0.0, 86_400.0, 16)
        batched = DiurnalTraffic.batch_build(
            mean_rate_rps=means, amplitude=amplitudes, phase_s=phases
        )
        for i, model in enumerate(batched):
            reference = DiurnalTraffic(
                mean_rate_rps=float(means[i]),
                amplitude=float(amplitudes[i]),
                phase_s=float(phases[i]),
            )
            assert model == reference
            assert model.batch_params() == reference.batch_params()

    def test_scalars_broadcast(self):
        models = DiurnalTraffic.batch_build(
            mean_rate_rps=np.array([0.1, 0.2]), amplitude=0.3, phase_s=5.0
        )
        assert [m.amplitude for m in models] == [0.3, 0.3]
        assert [m.period_s for m in models] == [86_400.0, 86_400.0]

    def test_validation_matches_the_scalar_constructor(self):
        with pytest.raises(ConfigurationError):
            DiurnalTraffic.batch_build(mean_rate_rps=np.array([0.1, 0.0]))
        with pytest.raises(ConfigurationError):
            DiurnalTraffic.batch_build(mean_rate_rps=np.array([0.1]), amplitude=1.0)
        with pytest.raises(ConfigurationError):
            DiurnalTraffic.batch_build(
                mean_rate_rps=np.array([0.1]), phase_s=float("nan")
            )
        with pytest.raises(ConfigurationError):
            DiurnalTraffic.batch_build(
                mean_rate_rps=np.array([0.1]), period_s=np.array([-1.0])
            )


class TestBurstyBatchedRates:
    """The schedule's one-pass bursty rates equal per-model ``rate()`` bit for bit."""

    def _models(self):
        return [
            BurstyTraffic(base_rate_rps=0.5, burst_rate_rps=5.0, burst_every_s=3600.0,
                          burst_duration_s=600.0, burst_seed=3),
            ConstantTraffic(rate_rps=1.0),
            BurstyTraffic(base_rate_rps=0.1, burst_rate_rps=2.5, burst_every_s=1800.0,
                          burst_duration_s=900.0, burst_seed=2**53 + 7),
            BurstyTraffic(base_rate_rps=0.2, burst_rate_rps=9.0, burst_seed=2**64 + 1),
        ]

    def test_batched_rates_match_per_model_across_interval_boundaries(self):
        models = self._models()
        schedule = FleetTrafficSchedule(models)
        counts = np.array([400, 50, 400, 400])
        gids = np.repeat(np.arange(4), counts)
        rng = np.random.default_rng(0)
        # Candidates span several burst intervals of every model.
        times = np.concatenate([np.sort(rng.uniform(0.0, 4 * 7200.0, c)) for c in counts])
        rates = schedule._candidate_rates(gids, times, counts)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(rates[gids == i], model.rate(times[gids == i]))
        # A second evaluation reads the cached burst starts, with equal rates.
        np.testing.assert_array_equal(schedule._candidate_rates(gids, times, counts), rates)

    def test_cache_drops_intervals_that_ended_before_the_window(self):
        models = self._models()
        schedule = FleetTrafficSchedule(models)
        for window in range(6):
            schedule.sample_window(window * 3600.0, (window + 1) * 3600.0,
                                   np.random.default_rng(window))
            start = window * 3600.0
            assert schedule._burst_starts
            for (function, interval), (_, end) in schedule._burst_starts.items():
                assert end > start
                assert end == (interval + 1) * models[function].burst_every_s

    def test_window_arrivals_unchanged_by_the_batched_path(self):
        models = self._models()

        class Opaque(BurstyTraffic):
            """A subclass: the schedule evaluates it per model."""

        per_model = [
            Opaque(**{f: getattr(m, f) for f in ("base_rate_rps", "burst_rate_rps",
                                                  "burst_every_s", "burst_duration_s",
                                                  "burst_seed")})
            if isinstance(m, BurstyTraffic) else m
            for m in models
        ]
        for window in range(3):
            a = FleetTrafficSchedule(models).sample_window(
                window * 3600.0, (window + 1) * 3600.0, np.random.default_rng(window))
            b = FleetTrafficSchedule(per_model).sample_window(
                window * 3600.0, (window + 1) * 3600.0, np.random.default_rng(window))
            np.testing.assert_array_equal(a.times_s, b.times_s)
            np.testing.assert_array_equal(a.offsets, b.offsets)
