"""Parity and registry tests for the grouped execution kernel.

The kernel is the body of
:meth:`~repro.simulation.engine.vectorized.VectorizedBackend.run_grouped`.
It is bit-exact: every stat, cold-start flag, instance id, billed cost and
the platform pool state must match the looped per-batch oracle —
``LoopedBackend`` of ``tests/looped_oracle.py``, the base
:meth:`~repro.simulation.engine.base.ExecutionBackend.run_grouped` over a
per-batch implementation of its own (the ``looped_backend`` fixture of
``tests/conftest.py``, which a fleet simulator runs its windows through when
assigned as ``simulator.backend``) — across warm-pool carryover, resizes,
duplicate-name batches, fresh pools and overlapping (unsafe) arrivals.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetConfig
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.engine import GroupRequest, available_backends, get_backend
from repro.simulation.engine import grouped as grouped_mod
from repro.simulation.execution import ExecutionModel
from repro.simulation.platform import PlatformConfig, ServerlessPlatform
from repro.simulation.seeding import STREAM_EXECUTION, child_rng
from repro.simulation.variability import VariabilityModel
from repro.workloads.generator import GeneratorConfig, SyntheticFunctionGenerator
from repro.workloads.traffic import ConstantTraffic

from looped_oracle import assert_identical


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
        functions, traffic = traffic_model_fleet(name, "cfleet")
        return functions, traffic, FleetConfig(window_s=3600.0, seed=17)

    @pytest.mark.parametrize(
        "fleet",
        ["bursty", "constant", "diurnal", "ramp", "trace", "mixed", "shared-constant"],
    )
    def test_kernel_equals_looped(
        self, fleet, mixed_fleet, traffic_model_fleet, assert_fleet_matches_looped
    ):
        assert_fleet_matches_looped(
            *self._fleet(fleet, mixed_fleet, traffic_model_fleet)
        )


class TestGroupedEdgeParity:
    """Kernel vs looped ``run_grouped`` on the walk's fallback-triggering shapes."""

    def _build_requests(self, platform, funcs, seed=23):
        reqs = [
            # empty group
            GroupRequest.for_deployed(
                platform, funcs[0].name, np.array([]),
                child_rng(seed, STREAM_EXECUTION, 0, 0),
            ),
            # dense overlapping arrivals: unsafe, falls back to walk_group
            GroupRequest.for_deployed(
                platform, funcs[1].name,
                np.sort(np.random.default_rng(1).uniform(0.0, 2.0, 40)),
                child_rng(seed, STREAM_EXECUTION, 0, 1),
            ),
            # sparse idle arrivals: the safe single-server-run regime
            GroupRequest.for_deployed(
                platform, funcs[2].name, np.arange(10) * 900.0,
                child_rng(seed, STREAM_EXECUTION, 0, 2),
            ),
            # duplicate name later in the batch: forced unsafe (its pool
            # state depends on the earlier group in this very batch)
            GroupRequest.for_deployed(
                platform, funcs[1].name,
                3.0 + np.sort(np.random.default_rng(2).uniform(0.0, 2.0, 15)),
                child_rng(seed, STREAM_EXECUTION, 0, 3),
            ),
            # fresh pool: prior instances must be dropped before the walk
            replace(
                GroupRequest.for_deployed(
                    platform, funcs[3].name, np.arange(5) * 700.0,
                    child_rng(seed, STREAM_EXECUTION, 0, 4),
                ),
                fresh_pool=True,
            ),
            # single arrival
            GroupRequest.for_deployed(
                platform, funcs[4].name, np.array([42.0]),
                child_rng(seed, STREAM_EXECUTION, 0, 5),
            ),
        ]
        # one function at two sizes with fresh pools (the harness shape):
        # each request keeps the deployment captured when it was built
        for j, size in enumerate((128, 1024)):
            platform.deploy(funcs[5].name, funcs[5].profile, size)
            reqs.append(
                GroupRequest.for_deployed(
                    platform, funcs[5].name, 500.0 * np.arange(4) + j,
                    child_rng(seed, STREAM_EXECUTION, 0, 6 + j), fresh_pool=True,
                )
            )
        return reqs

    def _run(self, execute):
        funcs = _functions(6, seed=7, prefix="edge")
        platform = ServerlessPlatform(PlatformConfig(seed=23))
        for f in funcs:
            platform.deploy(f.name, f.profile, 512)
        first = execute(platform, self._build_requests(platform, funcs))
        # second window: warm pools carried over, same names again
        shifted = [
            GroupRequest.for_deployed(
                platform, r.function_name, np.asarray(r.arrivals) + 3600.0,
                child_rng(23, STREAM_EXECUTION, 1, i),
            )
            for i, r in enumerate(self._build_requests(platform, funcs))
        ]
        second = execute(platform, shifted)
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
                pa._functions[name].invocation_count
                == pb._functions[name].invocation_count
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
    oracle, the grouped kernel's flat walk and its ``walk_group`` fallback.
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

    def test_disagreement_pairs_resolve_identically(self, looped_backend):
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
            request = GroupRequest.for_deployed(
                platform, "dis-fn", arrivals, child_rng(0, STREAM_EXECUTION, 0, 0)
            )
            return execute(platform, [request])

        serial = run(get_backend("serial").run_grouped)
        looped = run(looped_backend.run_grouped)
        kernel = run(get_backend("vectorized").run_grouped)
        # the disagreement branch must actually fire: runs re-warm behind
        # cold starts, so the chain is neither all-cold nor all-warm
        np.testing.assert_array_equal(
            serial.cold_start, np.arange(12) % 2 == 0
        )
        for other in (looped, kernel):
            np.testing.assert_array_equal(serial.cold_start, other.cold_start)
            np.testing.assert_array_equal(serial.instance_ids, other.instance_ids)
            np.testing.assert_array_equal(
                serial.init_duration_ms, other.init_duration_ms
            )
        # the per-group fallback walk resolves the same chain on its own
        platform = self._platform()
        platform.deploy("dis-fn", profile, 512)
        cold, init, ids = grouped_mod.walk_group(
            platform, "dis-fn", 512.0, arrivals, serial.execution_time_ms,
            float(serial.init_duration_ms[0]), None,
        )
        np.testing.assert_array_equal(serial.cold_start, cold)
        np.testing.assert_array_equal(serial.instance_ids, ids)
        np.testing.assert_array_equal(serial.init_duration_ms, init)

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
