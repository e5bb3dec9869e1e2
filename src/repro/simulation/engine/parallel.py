"""Process-parallel execution backend.

Per-batch execution is delegated to the vectorized backend; the parallelism
operates one level up, where a harness measures many functions:

- the object path (:meth:`ParallelBackend.measure_functions`) fans whole
  functions (all memory sizes) out over ``concurrent.futures`` worker
  processes;
- the fused columnar path (:meth:`ParallelBackend.measure_stat_chunks`) fans
  *group chunks* out: every worker executes one cross-function mega-batch
  through the grouped kernel
  (:meth:`~repro.simulation.engine.vectorized.VectorizedBackend.run_grouped`)
  for its slice of functions and ships back only the dense stat blocks.

Every (function, size) group draws its noise from a stream spawned from the
parent's seeds and the function's *absolute* index
(:mod:`repro.simulation.seeding`), so results are bit-identical regardless
of worker count, chunking or scheduling order — and identical to the
sequential vectorized schedule.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.simulation.engine.base import ExecutionBackend, register_backend
from repro.simulation.engine.grouped import GroupRequest
from repro.simulation.engine.vectorized import VectorizedBackend


def _worker_configs(harness):
    """Clone the parent's harness/platform configs for a worker process.

    Seeds are left untouched: per-group streams derive from the base seeds
    and the absolute function index, so a worker reproduces exactly the
    numbers the sequential schedule would produce for the same functions.
    The worker always executes vectorized (no nested pools).
    """
    return (
        replace(harness.config, backend="vectorized", n_workers=None),
        harness.platform.config,
        harness.platform.execution_model,
        harness.platform.cold_start_model,
        harness.platform.pricing_model,
    )


def _build_worker_harness(payload_configs):
    """Rebuild a platform + harness pair inside a worker process."""
    # Imported lazily: the engine package must stay importable without the
    # dataset layer (which itself imports the engine).
    from repro.dataset.harness import MeasurementHarness
    from repro.simulation.platform import ServerlessPlatform

    harness_config, platform_config, execution_model, cold_start_model, pricing_model = (
        payload_configs
    )
    platform = ServerlessPlatform(
        config=platform_config,
        execution_model=execution_model,
        cold_start_model=cold_start_model,
        pricing_model=pricing_model,
    )
    return MeasurementHarness(platform=platform, config=harness_config)


def _measure_function_task(payload):
    """Measure one function on a fresh platform (runs in a worker process).

    Returns the measurement together with the function's billed cost so the
    parent can fold worker billing into its own platform totals.
    """
    function, index, configs, memory_sizes_mb, workload = payload
    harness = _build_worker_harness(configs)
    measurement = harness.measure_function(
        function, memory_sizes_mb=memory_sizes_mb, workload=workload, index=index
    )
    return measurement, harness.platform.total_cost_usd(function.name)


def _run_shard_task(payload):
    """Execute one window shard as a fused mega-batch (worker process).

    The shard ships the parent's platform models plus, per group, the
    deployment coordinates, the window arrivals, the group's private noise
    stream and the function's warm-instance pool.  The worker rebuilds a
    platform around exactly that state, runs the grouped kernel and
    returns dense per-group reductions plus the evolved pools, so the parent
    can keep warm-state continuity across windows.
    """
    from repro.simulation.platform import ServerlessPlatform

    (
        platform_config,
        execution_model,
        cold_start_model,
        pricing_model,
        groups,
        exclude_cold_starts,
        next_instance_id,
    ) = payload
    platform = ServerlessPlatform(
        config=platform_config,
        execution_model=execution_model,
        cold_start_model=cold_start_model,
        pricing_model=pricing_model,
    )
    platform._next_instance_id = next_instance_id
    requests = []
    for name, profile, memory_mb, deployed_at_s, arrivals, rng, pool in groups:
        platform.deploy(name, profile, memory_mb, at_time_s=deployed_at_s)
        platform._instances[name] = pool
        requests.append(GroupRequest.for_deployed(platform, name, arrivals, rng))
    batch = VectorizedBackend().run_grouped(platform, requests)
    stats, counts = batch.aggregate_stats(
        warmup_s=0.0, exclude_cold_starts=exclude_cold_starts
    )
    pools = {group[0]: platform._instances[group[0]] for group in groups}
    return (
        stats,
        counts,
        batch.group_sizes(),
        batch.cold_starts_per_group(),
        batch.cost_per_group(),
        pools,
        platform._next_instance_id,
    )


def _measure_chunk_stats_task(payload):
    """Measure one function chunk as a fused mega-batch (worker process).

    Returns the chunk's dense stat blocks, invocation counts and per-function
    billed costs — arrays only, no measurement objects cross the process
    boundary.
    """
    functions, index_offset, configs, memory_sizes_mb, workload = payload
    harness = _build_worker_harness(configs)
    stats, counts = harness.measure_chunk_stats(
        functions,
        index_offset=index_offset,
        memory_sizes_mb=memory_sizes_mb,
        workload=workload,
    )
    costs = [harness.platform.total_cost_usd(function.name) for function in functions]
    return stats, counts, costs


@register_backend
class ParallelBackend(ExecutionBackend):
    """Fans whole functions out over worker processes (vectorized per batch)."""

    name = "parallel"

    def __init__(self, n_workers: int | None = None, noise: str = "per-group") -> None:
        """Create the backend with an optional worker count (None = CPUs).

        ``noise`` is validated by the base class: the parallel backend only
        runs the bit-exact per-group configuration (its workers must
        reproduce the sequential schedule's numbers exactly), so
        ``"pooled"`` raises.
        """
        super().__init__(n_workers, noise=noise)
        self._vectorized = VectorizedBackend()

    def run_batch(self, platform, function_name, arrivals, rng=None):
        """A single batch has no function-level parallelism; run it vectorized."""
        return self._vectorized.run_batch(platform, function_name, arrivals, rng=rng)

    def run_grouped(self, platform, requests):
        """A single mega-batch shares one platform; run the kernel in-process."""
        return self._vectorized.run_grouped(platform, requests)

    def _max_workers(self, n_tasks: int) -> int:
        return self.n_workers or min(n_tasks, os.cpu_count() or 1)

    def run_stat_shards(
        self,
        platform,
        requests,
        shard_size,
        exclude_cold_starts=True,
        on_shard=None,
    ):
        """Fan window shards out over worker processes, delivered in order.

        Requests must reference *distinct* functions (the fleet-window case):
        each worker owns its shard's warm-instance pools for the duration of
        the shard, which is only race-free when no function is split across
        shards.  Per-group numbers are bit-identical to the sequential
        default — every group draws from its own request stream and warm
        pools travel with their shard — though worker-local instance ids may
        differ from the sequential schedule (ids never enter any metric,
        stat, cost or cold-start number).  Delivery to ``on_shard`` is
        strictly in request order with a bounded submission window, mirroring
        :meth:`measure_stat_chunks`.
        """
        from repro.errors import ConfigurationError

        if int(shard_size) < 1:
            raise ConfigurationError("shard_size must be at least 1")
        shard_size = int(shard_size)
        total = len(requests)
        if total == 0:
            return
        starts = list(range(0, total, shard_size))

        def payload_for(start):
            groups = [
                (
                    request.function_name,
                    request.deployment.profile,
                    request.deployment.memory_mb,
                    request.deployment.deployed_at_s,
                    request.arrivals,
                    request.rng,
                    platform._instances.get(request.function_name, []),
                )
                for request in requests[start : start + shard_size]
            ]
            return (
                platform.config,
                platform.execution_model,
                platform.cold_start_model,
                platform.pricing_model,
                groups,
                exclude_cold_starts,
                platform._next_instance_id,
            )

        def flush(start, result):
            stats, counts, sizes, cold, costs, pools, next_id = result
            shard = requests[start : start + shard_size]
            for request, size, cost in zip(shard, sizes, costs):
                platform._instances[request.function_name] = pools[
                    request.function_name
                ]
                platform._note_cost(request.function_name, float(cost))
                request.deployment.invocation_count += int(size)
            platform._next_instance_id = max(platform._next_instance_id, next_id)
            if on_shard is not None:
                on_shard(start, stats, counts, sizes, cold, costs)

        remaining = set(starts)
        buffered: dict[int, tuple] = {}
        max_workers = self._max_workers(len(starts))
        if len(starts) > 1 and max_workers > 1:
            pointer = 0
            submit_window = max_workers + 2
            try:
                with ProcessPoolExecutor(max_workers=max_workers) as executor:
                    futures: dict = {}
                    next_submit = 0

                    def submit_up_to_window():
                        nonlocal next_submit
                        while (
                            next_submit < len(starts)
                            and len(futures) + len(buffered) < submit_window
                        ):
                            start = starts[next_submit]
                            futures[
                                executor.submit(_run_shard_task, payload_for(start))
                            ] = start
                            next_submit += 1

                    submit_up_to_window()
                    while futures:
                        done, _ = wait(futures, return_when=FIRST_COMPLETED)
                        for future in done:
                            buffered[futures.pop(future)] = future.result()
                        while pointer < len(starts) and starts[pointer] in buffered:
                            start = starts[pointer]
                            flush(start, buffered.pop(start))
                            remaining.discard(start)
                            pointer += 1
                        submit_up_to_window()
            except BrokenProcessPool:
                warnings.warn(
                    "parallel backend: worker pool broke, finishing "
                    f"{len(remaining)} of {len(starts)} window shards in-process "
                    "(results are unaffected, throughput is)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        # In-order tail: buffered out-of-order shards flush from the buffer;
        # shards the pool never finished run in-process through the same task.
        for start in starts:
            if start not in remaining:
                continue
            result = buffered.pop(start, None)
            if result is None:
                result = _run_shard_task(payload_for(start))
            flush(start, result)
            remaining.discard(start)

    def measure_functions(
        self,
        harness,
        functions,
        memory_sizes_mb=None,
        workload=None,
        progress_callback=None,
        index_offset=0,
    ):
        """Measure every function on its own worker platform (object path).

        All platform state (deployments, warm instances, retained records)
        lives in the per-function worker platforms and is discarded with
        them; only measurements and billing totals flow back to the parent,
        so ``stream_records=False`` has no effect here and post-measurement
        platform queries on the parent see no deployments.  Because every
        (function, size) group draws from a stream derived from the
        function's *absolute* index (``index_offset`` + position), the
        numbers are identical across worker counts, chunkings and the
        sequential vectorized schedule.
        """
        if not functions:
            return []
        platform = harness.platform
        configs = _worker_configs(harness)
        payloads = [
            (function, index_offset + index, configs, memory_sizes_mb, workload)
            for index, function in enumerate(functions)
        ]
        results: list = [None] * len(functions)
        done = 0

        def finish_sequentially():
            # Runs the same per-group-seeded tasks in-process, so results are
            # identical whether a function was measured by a pool worker, a
            # single-worker schedule, or this fallback.
            nonlocal done
            for index, payload in enumerate(payloads):
                if results[index] is not None:
                    continue
                measurement, cost_usd = _measure_function_task(payload)
                results[index] = measurement
                platform._note_cost(functions[index].name, cost_usd)
                done += 1
                if progress_callback is not None:
                    progress_callback(done, len(functions), functions[index].name)

        max_workers = self._max_workers(len(functions))
        if len(functions) == 1 or max_workers == 1:
            finish_sequentially()
            return results
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as executor:
                futures = {
                    executor.submit(_measure_function_task, payload): index
                    for index, payload in enumerate(payloads)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    measurement, cost_usd = future.result()
                    results[index] = measurement
                    platform._note_cost(functions[index].name, cost_usd)
                    done += 1
                    if progress_callback is not None:
                        progress_callback(done, len(functions), functions[index].name)
        except BrokenProcessPool:
            # Worker processes unavailable (restricted environments kill the
            # pool at spawn time): finish the remaining functions in-process,
            # keeping measurements and billing already collected.  Task-level
            # exceptions propagate instead.
            warnings.warn(
                "parallel backend: worker pool broke, finishing "
                f"{sum(r is None for r in results)} of {len(functions)} functions "
                "in-process (results are unaffected, throughput is)",
                RuntimeWarning,
                stacklevel=2,
            )
            finish_sequentially()
        return results

    def measure_stat_chunks(
        self,
        harness,
        functions,
        memory_sizes_mb=None,
        workload=None,
        chunk_size=None,
        on_chunk=None,
        progress_callback=None,
        index_offset=0,
    ):
        """Fan fused group chunks out over worker processes.

        Each worker executes one fused cross-function mega-batch per chunk
        and returns only dense stat arrays; chunks are delivered to
        ``on_chunk`` strictly in order (out-of-order completions are buffered
        so a streaming sharded sink sees functions in sequence).  Submission
        is windowed a few chunks ahead of the in-order flush pointer, so the
        buffer — and with it the parent's peak memory — stays bounded by a
        handful of chunks even when an early chunk lands on a slow worker.
        Numbers are bit-identical to the in-process fused schedule because
        every group's stream derives from its absolute index.
        """
        total = len(functions)
        if total == 0:
            return
        step = int(chunk_size) if chunk_size else total
        step = max(1, min(step, total))
        configs = _worker_configs(harness)
        starts = list(range(0, total, step))
        payloads = {
            start: (
                functions[start : start + step],
                index_offset + start,
                configs,
                memory_sizes_mb,
                workload,
            )
            for start in starts
        }

        def flush(start, result):
            chunk = functions[start : start + step]
            stats, counts, costs = result
            for function, cost in zip(chunk, costs):
                harness.platform._note_cost(function.name, cost)
            if on_chunk is not None:
                on_chunk(start, chunk, stats, counts)
            if progress_callback is not None:
                for k, function in enumerate(chunk):
                    progress_callback(start + k + 1, total, function.name)

        remaining = set(starts)
        buffered: dict[int, tuple] = {}
        max_workers = self._max_workers(len(starts))
        if len(starts) > 1 and max_workers > 1:
            pointer = 0
            submit_window = max_workers + 2
            try:
                with ProcessPoolExecutor(max_workers=max_workers) as executor:
                    futures: dict = {}
                    next_submit = 0

                    def submit_up_to_window():
                        nonlocal next_submit
                        while (
                            next_submit < len(starts)
                            and len(futures) + len(buffered) < submit_window
                        ):
                            start = starts[next_submit]
                            futures[
                                executor.submit(_measure_chunk_stats_task, payloads[start])
                            ] = start
                            next_submit += 1

                    submit_up_to_window()
                    while futures:
                        done, _ = wait(futures, return_when=FIRST_COMPLETED)
                        for future in done:
                            buffered[futures.pop(future)] = future.result()
                        while pointer < len(starts) and starts[pointer] in buffered:
                            start = starts[pointer]
                            flush(start, buffered.pop(start))
                            remaining.discard(start)
                            pointer += 1
                        submit_up_to_window()
            except BrokenProcessPool:
                warnings.warn(
                    "parallel backend: worker pool broke, finishing "
                    f"{len(remaining)} of {len(starts)} chunks in-process "
                    "(results are unaffected, throughput is)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        # In-order tail: chunks the pool finished out of order are delivered
        # from the buffer; chunks it never finished run in-process.  Numbers
        # are identical either way (per-group streams by absolute index).
        for start in starts:
            if start not in remaining:
                continue
            result = buffered.pop(start, None)
            if result is None:
                result = _measure_chunk_stats_task(payloads[start])
            flush(start, result)
            remaining.discard(start)