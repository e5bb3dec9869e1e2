"""Parity and registry tests for the grouped execution kernel.

The kernel is the body of
:meth:`~repro.simulation.engine.vectorized.VectorizedBackend.run_grouped`.
It is bit-exact: every stat, cold-start flag, billed cost and the
platform pool state must match the looped per-batch oracle —
``LoopedBackend`` of ``tests/looped_oracle.py``, the base
:meth:`~repro.simulation.engine.base.ExecutionBackend.run_grouped` over a
per-batch implementation of its own (the ``looped_backend`` fixture of
``tests/conftest.py``, which a fleet simulator runs its windows through when
assigned as ``simulator.backend``) — across warm-pool carryover, resizes,
duplicate-name batches, fresh pools and overlapping (unsafe) arrivals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet import FleetConfig
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.engine import GroupBlock, available_backends, get_backend
from repro.simulation.engine import grouped as grouped_mod
from repro.simulation.engine import vectorized as vectorized_mod
from repro.simulation.execution import ExecutionModel
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.profile import ResourceProfile
from repro.simulation.seeding import STREAM_EXECUTION, child_rng
from repro.simulation.variability import VariabilityModel
from repro.workloads.function import FunctionSpec
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import ConstantTraffic, sample_fleet_traffic

from looped_oracle import LoopedBackend, assert_identical


def _functions(n, seed=11, prefix="cmp"):
    return SyntheticFunctionGenerator(
        config=GeneratorConfig(seed=seed, name_prefix=prefix)
    ).generate(n)


class TestFleetWindowParity:
    """Kernel fleet windows equal the looped oracle's, bit for bit.

    One fleet per traffic model, the mixed fleet (every model class, idle
    functions, trace replays) and a fleet sharing one constant traffic
    object run through the default simulator and through the looped oracle
    (``assert_fleet_matches_looped`` in ``tests/conftest.py``); a mid-run
    resize drops function 0's warm pool.  Beyond the windows, billing,
    invocation counters and the warm pools must end in the same state.
    """

    @staticmethod
    def _fleet(name, mixed_fleet, traffic_model_fleet):
        """``(functions, traffic, config)`` of one parity fleet."""
        if name == "mixed":
            functions, traffic = mixed_fleet(18)
            return functions, traffic, FleetConfig(window_s=1800.0, seed=9)
        if name == "shared-constant":
            functions = _functions(6, seed=9, prefix="defg")
            traffic = [ConstantTraffic(rate_rps=0.01)] * len(functions)
            return functions, traffic, FleetConfig(window_s=3600.0, seed=21)
        if name == "hot":
            # perfbench fleet-hot's shape: every function active, most of
            # them overlapping, so the windows walk in lockstep.
            functions = _functions(40, seed=13, prefix="hot")
            traffic = sample_fleet_traffic(40, seed=14, mean_rate_range=(0.01, 0.05))
            return functions, traffic, FleetConfig(window_s=3600.0, seed=15)
        functions, traffic = traffic_model_fleet(name, "cfleet")
        return functions, traffic, FleetConfig(window_s=3600.0, seed=17)

    @pytest.mark.parametrize(
        "fleet",
        ["bursty", "constant", "diurnal", "ramp", "trace", "mixed", "shared-constant", "hot"],
    )
    def test_kernel_equals_looped(
        self, fleet, mixed_fleet, traffic_model_fleet, assert_fleet_matches_looped
    ):
        assert_fleet_matches_looped(
            *self._fleet(fleet, mixed_fleet, traffic_model_fleet)
        )


class TestGroupedEdgeParity:
    """Kernel vs looped ``run_grouped`` on the walk's fallback-triggering shapes."""

    def _build_groups(self, platform, funcs, seed=23):
        """``(names, profiles, sizes, serials, arrivals, streams, fresh)`` columns."""
        current = platform.get_function
        groups = [
            # empty group
            (funcs[0].name, np.array([]), False),
            # dense overlapping arrivals: unsafe, walks in lockstep
            (funcs[1].name, np.sort(np.random.default_rng(1).uniform(0.0, 2.0, 40)), False),
            # sparse idle arrivals: the safe single-server-run regime
            (funcs[2].name, np.arange(10) * 900.0, False),
            # duplicate name later in the batch: forced unsafe (its pool
            # state depends on the earlier group in this very batch)
            (
                funcs[1].name,
                3.0 + np.sort(np.random.default_rng(2).uniform(0.0, 2.0, 15)),
                False,
            ),
            # fresh pool: prior instances must be dropped before the walk
            (funcs[3].name, np.arange(5) * 700.0, True),
            # single arrival
            (funcs[4].name, np.array([42.0]), False),
        ]
        deployed = [current(name) for name, _, _ in groups]
        # one function at two sizes with fresh pools (the harness shape):
        # each group keeps the deployment captured when it was built
        for j, size in enumerate((128, 1024)):
            platform.deploy(funcs[5].name, funcs[5].profile, size)
            groups.append((funcs[5].name, 500.0 * np.arange(4) + j, True))
            deployed.append(current(funcs[5].name))
        return (
            [name for name, _, _ in groups],
            [d.profile for d in deployed],
            [d.memory_mb for d in deployed],
            [d.serial for d in deployed],
            [arrivals for _, arrivals, _ in groups],
            [child_rng(seed, STREAM_EXECUTION, 0, g) for g in range(len(groups))],
            [fresh for _, _, fresh in groups],
        )

    def _run(self, execute):
        funcs = _functions(6, seed=7, prefix="edge")
        platform = ServerlessPlatform(PlatformConfig(seed=23))
        for f in funcs:
            platform.deploy(f.name, f.profile, 512)
        first = execute(platform, GroupBlock.of_groups(*self._build_groups(platform, funcs)))
        # second window: warm pools carried over, same names again
        names, _, _, _, arrivals, _, _ = self._build_groups(platform, funcs)
        second = execute(
            platform,
            GroupBlock.for_deployed(
                platform,
                names,
                [np.asarray(a) + 3600.0 for a in arrivals],
                [child_rng(23, STREAM_EXECUTION, 1, i) for i in range(len(names))],
            ),
        )
        return platform, funcs, first, second

    def test_batches_and_pool_state_bit_identical(self, looped_backend, pool_state):
        pa, funcs, a1, a2 = self._run(looped_backend.run_grouped)
        pb, _, b1, b2 = self._run(get_backend("vectorized").run_grouped)
        for a, b in ((a1, b1), (a2, b2)):
            assert_identical(b, a)
        names = [f.name for f in funcs]
        assert pool_state(pa, names) == pool_state(pb, names)
        for name in names:
            assert (
                pa.get_function(name).invocation_count
                == pb.get_function(name).invocation_count
            )
            assert pa.total_cost_usd(name) == pb.total_cost_usd(name)
        assert pa.total_cost_usd() == pb.total_cost_usd()


class TestDisagreementPath:
    """The vectorized cold-chain recurrence on warm/cold expiry disagreements.

    A disagreement pair is one where the warm-case idle time exceeds the
    keep-alive but the cold-case idle time does not — the run state at the
    pair's right arrival then depends on the left arrival's own (recursive)
    state.  With noise disabled the execution/init durations are exact, so
    the geometry below provably produces such pairs, and the resolved chains
    must agree bit for bit across the serial path, the looped vectorized
    oracle, the grouped kernel's flat walk and the scalar ``walk_instances``.
    """

    def _platform(self, seed=0):
        return ServerlessPlatform(
            config=PlatformConfig(allowed_memory_sizes_mb=None, seed=seed),
            execution_model=ExecutionModel(variability=VariabilityModel.none()),
            cold_start_model=ColdStartModel(
                base_init_ms=200.0,
                runtime_init_ms=300.0,
                code_load_ms_per_mb=0.0,
                keep_alive_s=1.0,
                noise_cv=0.0,
            ),
        )

    def _profile(self):
        # pure CPU work, no service calls: with VariabilityModel.none() and
        # cold noise off, execution and init durations are exactly
        # deterministic, so the pair geometry below is provable
        from repro.simulation.profile import ResourceProfile

        return ResourceProfile(
            cpu_user_ms=250.0,
            cpu_system_ms=8.0,
            memory_working_set_mb=70.0,
            heap_allocated_mb=50.0,
            blocking_fraction=0.9,
        )

    def test_disagreement_pairs_resolve_identically(self, looped_backend, pool_state):
        profile = self._profile()

        # probe the deterministic per-invocation execution and cold-init
        # durations once
        probe_platform = self._platform()
        probe_platform.deploy("dis-fn", profile, 512)
        probe = probe_platform.invoke_batch(
            "dis-fn", np.array([0.0]), backend="serial",
            rng=child_rng(0, STREAM_EXECUTION, 9, 0),
        )
        exec_s = float(probe.execution_time_ms[0]) / 1000.0
        init_s = float(probe.init_duration_ms[0]) / 1000.0
        assert init_s > 0.5  # the geometry below needs a sizeable init
        # gap = exec + keep_alive + d with 0 < d <= init: the warm-case idle
        # (keep_alive + d) exceeds the keep-alive while the cold-case idle
        # (keep_alive + d - init) does not -> every adjacent pair disagrees
        # and the resolved chain alternates cold/warm/cold/... from the head
        gap = exec_s + 1.0 + 0.5
        arrivals = np.cumsum(np.full(12, gap))

        def run(execute):
            platform = self._platform()
            platform.deploy("dis-fn", profile, 512)
            block = GroupBlock.for_deployed(
                platform, ["dis-fn"], [arrivals], [child_rng(0, STREAM_EXECUTION, 0, 0)]
            )
            return execute(platform, block), pool_state(platform, ["dis-fn"])

        serial, serial_pool = run(get_backend("serial").run_grouped)
        looped, looped_pool = run(looped_backend.run_grouped)
        kernel, kernel_pool = run(get_backend("vectorized").run_grouped)
        # the disagreement branch must actually fire: runs re-warm behind
        # cold starts, so the chain is neither all-cold nor all-warm
        np.testing.assert_array_equal(
            serial.cold_start, np.arange(12) % 2 == 0
        )
        for other in (looped, kernel):
            np.testing.assert_array_equal(serial.cold_start, other.cold_start)
            np.testing.assert_array_equal(
                serial.init_duration_ms, other.init_duration_ms
            )
        # the scalar walk resolves the same chain from an empty pool
        platform = self._platform()
        walk_pool = []
        cold, init = grouped_mod.walk_instances(
            arrivals, serial.execution_time_ms, float(serial.init_duration_ms[0]), None,
            walk_pool, platform.cold_start_model.keep_alive_s,
            platform.config.max_instances_per_function,
        )
        np.testing.assert_array_equal(serial.cold_start, cold)
        np.testing.assert_array_equal(serial.init_duration_ms, init)
        # and all four runs leave the same worker, busy until the same time
        assert serial_pool == looped_pool == kernel_pool == {"dis-fn": walk_pool}

    def test_solve_cold_recurrence_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            abs_mask = rng.random(n) < 0.3
            abs_mask[0] = True
            abs_vals = rng.random(n) < 0.5
            flip = (rng.random(n) < 0.4) & ~abs_mask
            expected = np.empty(n, dtype=bool)
            for i in range(n):
                if abs_mask[i]:
                    expected[i] = abs_vals[i]
                else:
                    expected[i] = expected[i - 1] ^ flip[i]
            np.testing.assert_array_equal(
                grouped_mod.solve_cold_recurrence(abs_mask, abs_vals, flip), expected
            )


#: Arrival shapes of the lockstep property test: (count range, span in s).
_ARRIVAL_KINDS = {
    "empty": ((0, 0), 1.0),
    "one": ((1, 1), 30.0),
    "sparse": ((3, 12), 300.0),
    "dense": ((10, 60), 20.0),
    "long": ((150, 300), 120.0),
}


def _lockstep_platform(seed, max_instances, keep_alive_s, noise_free=False):
    return ServerlessPlatform(
        config=PlatformConfig(
            allowed_memory_sizes_mb=None, seed=seed, max_instances_per_function=max_instances
        ),
        execution_model=ExecutionModel(
            variability=VariabilityModel.none() if noise_free else VariabilityModel()
        ),
        cold_start_model=ColdStartModel(
            keep_alive_s=keep_alive_s, noise_cv=0.0 if noise_free else 0.2
        ),
    )


def _record_scalar_walks(monkeypatch):
    """Record the arrivals of every kernel call of ``walk_instances``."""
    handed = []
    walk = vectorized_mod.walk_instances

    def recording_walk(arrivals, *rest):
        handed.append(arrivals.copy())
        return walk(arrivals, *rest)

    monkeypatch.setattr(vectorized_mod, "walk_instances", recording_walk)
    return handed


class TestLockstepWalk:
    """The lockstep walk of the unsafe groups equals the looped oracle.

    Groups the flat pass cannot prove single-server walk their pools in
    lockstep (``walk_lockstep``), handing the arrivals left once few groups
    remain, and every group whose pool depends on an earlier group of the
    batch, to the scalar ``walk_instances`` in group order.  Every
    ``GroupedBatch`` field and the warm pools after every batch must equal
    the looped oracle's, bit for bit.
    """

    @staticmethod
    def _run_batches(execute, functions, batches, max_instances, keep_alive_s, seed=3,
                     noise_free=False):
        """Run ``batches`` of ``(function index, arrivals, fresh)`` groups in order."""
        platform = _lockstep_platform(seed, max_instances, keep_alive_s, noise_free)
        for function in functions:
            platform.deploy(function.name, function.profile, 512)
        results = []
        for b, groups in enumerate(batches):
            block = GroupBlock.for_deployed(
                platform,
                [functions[i].name for i, _, _ in groups],
                [arrivals for _, arrivals, _ in groups],
                [child_rng(seed, STREAM_EXECUTION, b, g) for g in range(len(groups))],
                fresh_pool=[fresh for _, _, fresh in groups],
            )
            results.append(execute(platform, block))
        return platform, results

    def _assert_matches_looped(self, looped_backend, pool_state, functions, batches,
                               max_instances=1000, keep_alive_s=600.0, noise_free=False):
        """Compare kernel and oracle; return the kernel's batches and pools after each."""
        names = [f.name for f in functions]

        def run(execute):
            pools = []

            def execute_and_snapshot(platform, block):
                batch = execute(platform, block)
                pools.append(pool_state(platform, names))
                return batch

            platform, results = self._run_batches(
                execute_and_snapshot, functions, batches, max_instances, keep_alive_s,
                noise_free=noise_free,
            )
            return platform, results, pools

        kernel, kernel_batches, kernel_pools = run(get_backend("vectorized").run_grouped)
        looped, looped_batches, looped_pools = run(looped_backend.run_grouped)
        for got, expected, got_pools, expected_pools in zip(
            kernel_batches, looped_batches, kernel_pools, looped_pools
        ):
            assert_identical(got, expected)
            assert got_pools == expected_pools
        for name in names:
            assert kernel.total_cost_usd(name) == looped.total_cost_usd(name)
            assert (
                kernel.get_function(name).invocation_count
                == looped.get_function(name).invocation_count
            )
        return kernel_batches, kernel_pools

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        groups=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from(sorted(_ARRIVAL_KINDS)),
                st.booleans(),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=40,
        ),
        max_instances=st.sampled_from([1, 2, 3, 1000]),
        keep_alive_s=st.sampled_from([2.0, 8.0, 600.0]),
        gap_s=st.sampled_from([0.5, 5.0, 60.0]),
    )
    def test_two_batches_equal_looped(
        self, looped_backend, pool_state, groups, max_instances, keep_alive_s, gap_s
    ):
        """The second batch starts from pools of idle, busy and expired workers."""
        functions = _functions(8, seed=29, prefix="lock")
        first, second = [], []
        for i, kind, fresh, seed in groups:
            (low, high), span = _ARRIVAL_KINDS[kind]
            rng = np.random.default_rng(seed)
            arrivals = np.sort(rng.uniform(0.0, span, int(rng.integers(low, high + 1))))
            first.append((i, arrivals, fresh))
            # Shifted past the first batch's arrivals by a short, keep-alive
            # sized or long gap: a few workers are still busy, some expired.
            second.append((i, arrivals + span + gap_s, fresh))
        self._assert_matches_looped(
            looped_backend, pool_state, functions, [first, second],
            max_instances=max_instances, keep_alive_s=keep_alive_s,
        )

    def _tie_platform_state(self, keep_alive_s):
        """Noise-free first batch: two overlapping arrivals leave two workers."""
        # Pure CPU work and no noise source: exact, repeatable durations.
        profile = ResourceProfile(
            cpu_user_ms=250.0, cpu_system_ms=8.0, memory_working_set_mb=70.0,
            heap_allocated_mb=50.0, blocking_fraction=0.9,
        )
        function = FunctionSpec(name="tie-fn", profile=profile)
        first = [(0, np.array([0.0, 0.05]), False)]
        platform, _ = self._run_batches(
            LoopedBackend().run_grouped, [function], [first], 1000, keep_alive_s,
            noise_free=True,
        )
        return function, first, platform.busy_until("tie-fn")

    def test_arrival_exactly_at_busy_until_equals_looped(self, looped_backend, pool_state):
        """A worker free exactly at the arrival serves it warm."""
        function, first, (head, spare) = self._tie_platform_state(600.0)
        assert head < spare
        second = [(0, np.array([head]), False)]
        (_, batch), (_, pools) = self._assert_matches_looped(
            looped_backend, pool_state, [function], [first, second], noise_free=True
        )
        # The head's slot served it: only its busy-until moved.
        assert not batch.cold_start[0]
        assert pools[function.name] == [head + batch.execution_time_ms[0] / 1000.0, spare]

    @pytest.mark.parametrize("past_keep_alive", [False, True])
    def test_idle_gap_exactly_keep_alive_equals_looped(
        self, looped_backend, pool_state, past_keep_alive
    ):
        """An idle gap of exactly the keep-alive keeps the worker; one float more does not."""
        _, _, (_, spare) = self._tie_platform_state(600.0)
        # The keep-alive is the exact float gap from the spare's busy-until
        # to a later arrival, so that arrival sees idle == keep_alive: the
        # head (idle longer) is reclaimed and the spare serves warm.  The
        # next float after it sees both past the keep-alive: a cold start.
        tie_s = spare + 900.0
        keep_alive_s = tie_s - spare
        function, first, _ = self._tie_platform_state(keep_alive_s)
        at_s = np.nextafter(tie_s, np.inf) if past_keep_alive else tie_s
        # The arrival after the tie comes in a batch of its own, so the pool
        # the tie leaves is compared too.
        second = [(0, np.array([at_s]), False)]
        third = [(0, np.array([at_s + 1.0]), False)]
        (_, batch, _), (_, pools, _) = self._assert_matches_looped(
            looped_backend, pool_state, [function], [first, second, third],
            keep_alive_s=keep_alive_s, noise_free=True,
        )
        assert batch.cold_start[0] == past_keep_alive
        if not past_keep_alive:
            # The head's slot is reclaimed and the spare's busy-until moved.
            assert pools[function.name] == [at_s + batch.execution_time_ms[0] / 1000.0]

    def test_heavy_hitter_hands_off_mid_walk(self, looped_backend, pool_state, monkeypatch):
        """Short groups finish, and the long one's rest goes to walk_instances."""
        handed = _record_scalar_walks(monkeypatch)
        functions = _functions(31, seed=37, prefix="heavy")
        rng = np.random.default_rng(4)
        batch = [(i, np.sort(rng.uniform(0.0, 30.0, 24)), False) for i in range(30)]
        heavy = np.sort(rng.uniform(0.0, 600.0, 600))
        batch.append((30, heavy, False))
        self._assert_matches_looped(
            looped_backend, pool_state, functions, [batch, batch[::-1]]
        )
        # A handoff of the heavy group walks a proper suffix of its arrivals.
        assert any(
            0 < len(arrivals) < len(heavy) and np.array_equal(arrivals, heavy[-len(arrivals):])
            for arrivals in handed
        ), [len(arrivals) for arrivals in handed]

    def test_repeated_name_between_group_and_fresh_group(
        self, looped_backend, pool_state, monkeypatch
    ):
        """A non-fresh repeat walks after its predecessor; a fresh repeat starts empty."""
        handed = _record_scalar_walks(monkeypatch)
        functions = _functions(3, seed=41, prefix="rep")
        rng = np.random.default_rng(6)

        def dense():
            return np.sort(rng.uniform(0.0, 15.0, 30))

        batch = [
            (0, dense(), False),
            (1, dense(), False),
            (0, dense() + 20.0, False),  # depends on group 0's end pool
            (2, dense(), True),
            (0, dense() + 40.0, True),  # fresh: group 2's pool is dropped
            (1, dense() + 40.0, False),
        ]
        later = [(i, arrivals + 100.0, False) for i, arrivals, _ in batch]
        self._assert_matches_looped(looped_backend, pool_state, functions, [batch, later])
        # Every non-fresh repeat steps through the scalar walk whole: groups 2
        # and 5 of the first batch, and groups 2, 4 and 5 of the second, where
        # group 4 is no longer fresh.  The lockstep's handoffs carry fewer.
        whole = [arrivals for arrivals in handed if len(arrivals) == 30]
        expected = [batch[2], batch[5], later[2], later[4], later[5]]
        assert len(whole) == len(expected), [len(arrivals) for arrivals in handed]
        for arrivals, (_, group_arrivals, _) in zip(whole, expected):
            np.testing.assert_array_equal(arrivals, group_arrivals)


class TestRegistryErrorPaths:
    """Registry error paths and name stability."""

    def test_unknown_backend_lists_available_names(self):
        with pytest.raises(ConfigurationError, match="vectorized"):
            get_backend("gpu")

    def test_registry_sorted_without_compiled(self):
        names = available_backends()
        # the kernel is the vectorized backend's run_grouped, not a backend
        assert "compiled" not in names
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            get_backend("compiled")
        assert names == sorted(names)
        # stable across calls (no registration side effects)
        assert available_backends() == names
