"""Process-parallel execution backend.

:class:`ParallelBackend` is the vectorized backend with one change, one
level up, where a harness measures many functions:
:meth:`ParallelBackend.measure_stat_chunks` fans the harness's *function
chunks* out over ``concurrent.futures`` worker processes.  Every worker
executes its chunk as one cross-function grouped batch through the kernel
(:meth:`~repro.simulation.engine.vectorized.VectorizedBackend.run_grouped`)
on a fresh platform and ships back only the dense stat blocks and billing
totals.  Everything else — a single batch, a single grouped batch
(``harness.measure_function``, a fleet window) — shares one platform and
runs the inherited kernel in-process.

Every (function, size) group reads its arrivals and noise from a stream and
a key derived from the parent's seeds and the function's *absolute* index
(:mod:`repro.simulation.seeding`), so results are bit-identical regardless
of worker count, chunking or scheduling order — and identical to the
sequential vectorized schedule.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np

from repro.simulation.engine.base import register_backend
from repro.simulation.engine.vectorized import VectorizedBackend


def _worker_configs(harness):
    """Clone the parent's harness/platform configs for a worker process.

    Seeds are left untouched: per-group streams and keys derive from the
    base seeds and the absolute function index, so a worker reproduces exactly the
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


def _measure_chunk_stats_task(payload):
    """Measure one function chunk as a grouped batch (worker process).

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
class ParallelBackend(VectorizedBackend):
    """The vectorized backend, with function chunks fanned out over processes."""

    name = "parallel"

    def measure_stat_chunks(
        self,
        harness,
        functions,
        memory_sizes_mb=None,
        workload=None,
        chunk_size=None,
        on_chunk=None,
        progress_callback=None,
    ):
        """Fan function chunks out over worker processes.

        Each worker executes one cross-function grouped batch per chunk and
        returns only dense stat arrays and billing totals, which are folded
        into the parent platform's totals (the deployments stay in the
        workers).  Chunks are delivered to ``on_chunk`` strictly in order
        (out-of-order completions are buffered so a streaming sharded sink
        sees functions in sequence).  Submission is windowed a few chunks
        ahead of the in-order flush pointer, so the buffer — and with it the
        parent's peak memory — stays bounded by a handful of chunks even when
        an early chunk lands on a slow worker.
        Numbers are bit-identical to the in-process schedule because every
        group's arrival stream and noise key derive from its absolute index.
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
                start,
                configs,
                memory_sizes_mb,
                workload,
            )
            for start in starts
        }

        def flush(start, result):
            chunk = functions[start : start + step]
            stats, counts, costs = result
            platform = harness.platform
            platform.book_costs(
                platform.rows_for([function.name for function in chunk]), np.asarray(costs)
            )
            if on_chunk is not None:
                on_chunk(start, chunk, stats, counts)
            if progress_callback is not None:
                for k, function in enumerate(chunk):
                    progress_callback(start + k + 1, total, function.name)

        remaining = set(starts)
        buffered: dict[int, tuple] = {}
        max_workers = self.n_workers or min(len(starts), os.cpu_count() or 1)
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
        # are identical either way (per-group streams and keys by absolute index).
        for start in starts:
            if start not in remaining:
                continue
            result = buffered.pop(start, None)
            if result is None:
                result = _measure_chunk_stats_task(payloads[start])
            flush(start, result)
            remaining.discard(start)