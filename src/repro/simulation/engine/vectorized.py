"""Numpy-vectorized execution backend: the grouped execution kernel.

:meth:`VectorizedBackend.run_grouped` is the one batch execution path of the
simulator: it runs many (function, size) groups — a fleet window, a
dataset-generation chunk, or a single arrival batch — as one columnar
mega-batch, computing timing noise, resource scaling, managed service
latencies, all 25 monitor metrics and billing as numpy array operations.
:meth:`VectorizedBackend.run_batch` is a one-group call of it.  The kernel
makes three flat passes:

1. **Raw noise draws** — per group only the raw generator calls remain
   (``lognormal``/``standard_normal``/``random``/``normal``, in the fixed
   stream order cpu, service, tail, jitters, cold); all post-draw arithmetic
   (tail thresholding, jitter clamping, the service latency row math) runs
   batched over the concatenated draws, which is bit-identical to drawing
   and post-processing group by group because the ops are elementwise or
   row-local.
2. **Gather-by-group metric kernel** — the group-level subexpressions of the
   timing model and the Table-1 formulas are evaluated once per group and
   gathered by group index through scratch buffers held on the backend
   (:meth:`~repro.simulation.runtime.NodeRuntimeModel.metrics_batch_grouped`);
   no ``(n_params, n)`` expansion materializes.
3. **Cross-group instance walk** — one acquire rule, the scalar
   :func:`~repro.simulation.engine.grouped.walk_instances`, applied in two
   array forms.  First a flat pass, its closed form for single-server
   runs, evaluated once over the flat group-major columns (pair
   completion/idle arrays, expiry masks and the cold-chain recurrence
   :func:`~repro.simulation.engine.grouped.solve_cold_recurrence`, with
   every group head as an absolute anchor) for *all* groups at once; a
   running maximum of the cold positions recovers each run's serving
   worker and end-pool state.  The groups it cannot prove safe — busy or
   multi-instance pools, overlapping arrivals — then walk in lockstep
   (:func:`~repro.simulation.engine.grouped.walk_lockstep`): each numpy
   step advances every such group by one arrival over a (pool slots,
   groups) state.  Once few groups remain, their remaining arrivals step
   through ``walk_instances`` in group order, as does every group whose
   pool depends on an earlier group of the batch (a repeated function
   without ``fresh_pool``).  A warm worker is the time it is busy until,
   so every walk leaves each pool as a list of those times in pool order.

Every group draws its noise from its own stream, so the kernel is
bit-identical to executing the groups one batch at a time in group order.
The test suite keeps that per-batch schedule as an independent oracle
(``tests/looped_oracle.py``).  With every noise source disabled the kernel
also agrees invocation for invocation with the serial backend's scalar path
(see ``tests/test_engine_backends.py``).
"""

from __future__ import annotations

import numpy as np

from repro.simulation.engine.base import BatchResult, ExecutionBackend, register_backend
from repro.simulation.engine.grouped import (
    GroupBlock,
    GroupedBatch,
    param_column,
    solve_cold_recurrence,
    walk_instances,
    walk_lockstep,
)
from repro.simulation.platform import ServerlessPlatform


#: Shapes the per-backend shape table holds before it is rebuilt: a fleet
#: needs one row per distinct deployed (profile, memory size), a harness
#: sweep reuses none, so the cap is sized for fleets and kept small.
_SHAPE_TABLE_MAX = 1024

#: Columns of a shape-table row after :func:`param_column`'s 23: the fixed
#: (never drawn) service latency, the width of the drawn service-call row and
#: that row's rank among the stacked rows of its width.
_FIXED_MS, _WIDTH, _RANK = 23, 24, 25


class _ShapeTable:
    """Kernel inputs of every (profile, memory size) shape, kept across batches.

    Each shape is one table row: its :func:`param_column` followed by its
    service calls' fixed latency, draw width and rank.  The drawn calls'
    mean and sigma rows are stacked per width, so a batch gathers all its
    groups' inputs with one fancy index and post-processes the service draws
    of each width together.  Rows are pure functions of the profile, the
    memory size and the two models the table was built for.
    """

    def __init__(self, model, cold_model) -> None:
        self.model = model
        self.cold_model = cold_model
        # (id(profile), memory size) -> (profile, table row, draw width)
        self.entries: dict[tuple, tuple] = {}
        self.n_rows = 0
        self.table = np.empty((64, _RANK + 1))
        self._services: dict[tuple, tuple[float, int, int]] = {}
        self._rows_by_width: dict[int, tuple[list, list]] = {}
        self._stacked: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, profile, memory_mb) -> tuple:
        """Append the row of one shape and return its entry."""
        calls = profile.service_calls
        service = self._services.get(calls)
        if service is None:
            fixed, mean_row, sigma_row = self.model.services.batch_rows(calls)
            if mean_row is None:
                service = (fixed, 0, 0)
            else:
                width = mean_row.shape[0]
                means, sigmas = self._rows_by_width.setdefault(width, ([], []))
                service = (fixed, width, len(means))
                means.append(mean_row)
                sigmas.append(sigma_row)
                self._stacked.pop(width, None)
            self._services[calls] = service
        row = self.n_rows
        if row == self.table.shape[0]:
            grown = np.empty((2 * row, self.table.shape[1]))
            grown[:row] = self.table
            self.table = grown
        self.table[row, :_FIXED_MS] = param_column(
            profile, float(memory_mb), self.model, self.cold_model
        )
        self.table[row, _FIXED_MS:] = service
        self.n_rows = row + 1
        entry = (profile, row, service[1])
        self.entries[(id(profile), memory_mb)] = entry
        return entry

    def width_rows(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``(ranks, width)`` mean and sigma rows of one width."""
        stacked = self._stacked.get(width)
        if stacked is None:
            means, sigmas = self._rows_by_width[width]
            stacked = self._stacked[width] = (np.array(means), np.array(sigmas))
        return stacked


def _classify_pairs(t, exec_ms, init_worst, gid, keep_alive):
    """Warm/cold expiry, overlap and same-group masks of adjacent pairs.

    For every adjacent arrival pair ``(k, k+1)`` of the flat group-major
    columns: whether a *warm* (respectively *cold*) invocation at ``k``
    leaves the worker expired at ``k+1``, whether ``k+1`` could reach a
    still-busy worker even after a worst-case cold start at ``k`` (then the
    group is not a single-server run), and whether the pair lies inside one
    group.  Same float expressions as ``walk_instances``' busy-until update,
    so every comparison matches the scalar walk's bit for bit.
    """
    completion = t + (exec_ms + init_worst) / 1000.0
    warm_base = t + exec_ms / 1000.0
    warm_expired = (t[1:] - warm_base[:-1]) > keep_alive
    cold_expired = (t[1:] - completion[:-1]) > keep_alive
    unsafe = t[1:] < completion[:-1]
    internal = gid[1:] == gid[:-1]
    return warm_expired, cold_expired, unsafe, internal


@register_backend
class VectorizedBackend(ExecutionBackend):
    """Numpy batch execution: every batch runs the grouped kernel."""

    name = "vectorized"

    def __init__(self, n_workers: int | None = None) -> None:
        super().__init__(n_workers=n_workers)
        self._scratch: dict[str, np.ndarray] = {}
        self._shapes: _ShapeTable | None = None

    def run_batch(
        self,
        platform,
        function_name: str,
        arrivals: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> BatchResult:
        """Execute one sorted arrival batch of a deployed function.

        A one-group :meth:`run_grouped` call, so a single batch runs exactly
        the kernel every fleet window and measurement chunk runs.

        Parameters
        ----------
        platform:
            The platform the function is deployed on.
        function_name:
            Name of the deployed function.
        arrivals:
            Sorted, finite, non-negative arrival timestamps (seconds);
            anything else raises :class:`~repro.errors.SimulationError`
            before any pool, counter or bill changes.
        rng:
            Optional group-private noise stream
            (:mod:`repro.simulation.seeding`); defaults to the platform's
            shared generator.
        """
        block = GroupBlock.for_deployed(
            platform, [function_name], [arrivals], [rng if rng is not None else platform.rng]
        )
        return self.run_grouped(platform, block).group(0)

    def _buffer(self, key: str, n: int) -> np.ndarray:
        """A reusable float64 scratch buffer of at least ``n`` elements (view)."""
        buf = self._scratch.get(key)
        if buf is None or buf.shape[0] < n:
            capacity = n if buf is None else max(n, 2 * buf.shape[0])
            buf = np.empty(capacity)
            self._scratch[key] = buf
        return buf[:n]

    def _shape_table(self, model, cold_model) -> _ShapeTable:
        """The shape table for these models, rebuilt when they change or it fills."""
        shapes = self._shapes
        if (
            shapes is None
            or shapes.model is not model
            or shapes.cold_model is not cold_model
            or shapes.n_rows >= _SHAPE_TABLE_MAX
        ):
            shapes = self._shapes = _ShapeTable(model, cold_model)
        return shapes

    def run_grouped(self, platform: "ServerlessPlatform", block: GroupBlock) -> GroupedBatch:
        """Execute a block's groups as one columnar mega-batch (see module doc).

        Bit-identical to executing the groups one batch at a time in group
        order: each group's noise is drawn from its own stream, and billing
        totals, invocation counters and instance pools end in the same
        state.
        """
        from repro.simulation.execution import _HANDLER_OVERHEAD_MS
        from repro.simulation.runtime import RuntimeBatchInputs

        model = platform.execution_model
        variability = model.variability
        cold_model = platform.cold_start_model
        runtime = model.runtime
        # Group inputs are cached per (profile, memory size) shape, keyed on
        # profile identity, so a fleet hits the table every window after the
        # first and a batch gathers them with one fancy index.
        shapes = self._shape_table(model, cold_model)
        entries = shapes.entries

        # Hoisted noise-distribution parameters: the per-group loop below
        # only issues raw generator calls, in the fixed stream order (cpu,
        # service, tail, jitters, cold), so per-group streams stay bit-exact;
        # all post-draw arithmetic runs batched.
        cpu_cv = variability.cpu_noise_cv
        cpu_mu, cpu_sigma = variability.lognormal_params(cpu_cv)
        tail_p = float(variability.tail_probability)
        tail_mult = float(variability.tail_multiplier)
        counter_cv = variability.counter_noise_cv
        draw_cold = cold_model.noise_cv > 0
        cold_mu, cold_sigma = cold_model.noise_params()

        # The block's arrivals were checked when it was built.
        n_groups = block.n_groups
        timestamps = block.arrivals
        offsets = block.offsets
        sizes = np.diff(offsets)
        sizes_l = sizes.tolist()
        n_total = int(offsets[-1])
        rows = platform.rows_for(block.names)
        rows_l = rows.tolist()
        fresh_l = block.fresh_pool.tolist()

        table_rows: list[int] = []
        cpu_parts: list[np.ndarray] = []
        tail_parts: list[np.ndarray] = []
        jitter_parts: list[np.ndarray] = []
        cold_parts: list[np.ndarray] = []
        # Service-call z-draws by draw width, in group order: the row
        # arithmetic then runs once per distinct width.
        service_parts: dict[int, list[np.ndarray]] = {}
        # Pool scan for the cross-group walk: the flat pass only handles
        # groups whose pool is empty or one idle worker; everything else
        # walks in lockstep, and repeated non-fresh functions, whose pool
        # state depends on earlier groups in this very batch, step through
        # walk_instances.  The scan keeps flat lists of existing objects and
        # floats, and each group's stream is taken only for its draws: an
        # object per group alive across the batch would be promoted by the
        # cyclic GC until it forces full collections over the whole fleet's
        # objects.  An empty pool reads as one worker free since -inf
        # (expired), a pool of several as one busy until +inf.
        pools: list = []
        head_busy_l: list[float] = []
        streams = block.streams
        for g, (profile, memory_mb, n, fresh, pool) in enumerate(
            zip(
                block.profiles,
                block.memory_mb.tolist(),
                sizes_l,
                fresh_l,
                platform.pools(rows_l),
            )
        ):
            if fresh:
                pool = ()
            pools.append(pool)
            if len(pool) == 1:
                head_busy_l.append(pool[0])
            else:
                head_busy_l.append(np.inf if pool else -np.inf)
            entry = entries.get((id(profile), memory_mb))
            if entry is None or entry[0] is not profile:
                entry = shapes.add(profile, memory_mb)
            table_rows.append(entry[1])
            rng = streams[g]
            if cpu_cv > 0:
                cpu_parts.append(rng.lognormal(cpu_mu, cpu_sigma, n))
            width = entry[2]
            if width:
                service_parts.setdefault(width, []).append(rng.standard_normal((n, width)))
            if tail_p > 0:
                tail_parts.append(rng.random(n))
            if counter_cv > 0:
                jitter_parts.append(rng.normal(1.0, counter_cv, (13, n)))
            if draw_cold:
                cold_parts.append(rng.lognormal(cold_mu, cold_sigma, n))

        # (table columns, n_groups): one column of shape inputs per group.
        columns = shapes.table[np.asarray(table_rows, dtype=np.intp)].T
        gid = np.repeat(np.arange(n_groups), sizes)

        # ---- batched noise post-processing --------------------------------
        cpu_noise = np.concatenate(cpu_parts) if cpu_cv > 0 else np.ones(n_total)
        tail_raw = np.concatenate(tail_parts) if tail_p > 0 else None
        jitters = np.hstack(jitter_parts) if counter_cv > 0 else np.ones((13, n_total))
        cold_noise = np.concatenate(cold_parts) if draw_cold else None
        widths = sorted(service_parts)
        tail = (
            np.where(tail_raw < tail_p, tail_mult, 1.0)
            if tail_raw is not None
            else np.ones(n_total)
        )
        if counter_cv > 0:
            np.maximum(jitters, 0.5, out=jitters)
        service_ms = np.take(columns[_FIXED_MS], gid)
        if widths:
            inv_width = np.take(columns[_WIDTH], gid)
            inv_rank = np.take(columns[_RANK], gid).astype(np.intp)
        for width in widths:
            # The invocations of every group drawing this width, in group
            # order — the row order of the concatenated draws.  Elementwise
            # arithmetic and row sums keep every row's value independent of
            # which other rows share the pass.
            mask = inv_width == width
            parts = service_parts[width]
            z = np.concatenate(parts) if len(parts) > 1 else parts[0]
            means, sigmas = shapes.width_rows(width)
            rank = inv_rank[mask]
            sigma = sigmas[rank]
            factors = np.exp(-0.5 * sigma * sigma + sigma * z)
            service_ms[mask] += (means[rank] * factors).sum(axis=1)

        # ---- timing kernel (scratch in, fixed op order) -------------------
        sg = self._buffer("gather", n_total)
        s_cpu = self._buffer("cpu", n_total)
        s_fs = self._buffer("fs", n_total)
        s_net = self._buffer("net", n_total)
        s_tf = self._buffer("factor", n_total)

        np.take(columns[0], gid, out=sg)
        np.multiply(sg, cpu_noise, out=s_cpu)
        np.take(columns[1], gid, out=sg)
        np.multiply(sg, cpu_noise, out=s_fs)
        np.take(columns[2], gid, out=sg)
        np.multiply(sg, cpu_noise, out=s_net)
        np.multiply(tail, variability.drift_factors(timestamps), out=s_tf)
        np.multiply(s_cpu, s_tf, out=s_cpu)
        np.multiply(s_fs, s_tf, out=s_fs)
        np.multiply(s_net, s_tf, out=s_net)
        np.multiply(service_ms, s_tf, out=service_ms)
        np.add(s_cpu, s_fs, out=sg)
        np.add(sg, s_net, out=sg)
        np.add(sg, service_ms, out=sg)
        execution_time_ms = np.add(sg, _HANDLER_OVERHEAD_MS)

        metrics = runtime.metrics_batch_grouped(
            RuntimeBatchInputs(*columns[4:_FIXED_MS]),
            gid,
            cpu_ms=s_cpu,
            fs_ms=s_fs,
            network_ms=s_net,
            service_ms=service_ms,
            total_ms=execution_time_ms,
            jitters=jitters,
            scratch=(self._buffer("metric1", n_total), self._buffer("metric2", n_total)),
        )

        cold_start, init_ms = self._walk_all_groups(
            platform,
            block,
            rows_l,
            fresh_l,
            pools,
            np.asarray(head_busy_l),
            sizes,
            gid,
            execution_time_ms,
            columns,
            cold_noise,
        )

        billed_ms = platform.pricing_model.billed_duration_batch_ms(execution_time_ms)
        np.take(columns[4], gid, out=sg)
        cost_usd = platform.pricing_model.execution_cost_batch(execution_time_ms, sg)

        batch = GroupedBatch(
            function_names=tuple(block.names),
            memory_mb=columns[4].copy(),
            offsets=offsets,
            timestamps_s=timestamps,
            execution_time_ms=execution_time_ms,
            init_duration_ms=init_ms,
            cold_start=cold_start,
            cost_usd=cost_usd,
            billed_duration_ms=billed_ms,
            metrics=metrics,
        )
        # Billing and counts in group order, one amount per non-empty group:
        # what a batch-at-a-time schedule books.
        ran = sizes > 0
        platform.book_costs(rows[ran], batch.cost_per_group()[ran])
        platform.book_invocations(rows[ran], block.serials[ran], sizes[ran])
        return batch

    def _walk_all_groups(
        self,
        platform: ServerlessPlatform,
        block: GroupBlock,
        rows: list[int],
        fresh: list[bool],
        pools: list,
        head_busy: np.ndarray,
        sizes: np.ndarray,
        gid: np.ndarray,
        exec_ms: np.ndarray,
        columns: np.ndarray,
        cold_noise: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One instance walk over all groups' flat columns.

        Safe groups (empty or idle single-worker pool, no overlapping
        arrival pairs, function not executed earlier in this batch) are
        resolved entirely from the flat pair masks.  The other groups walk
        their pools in lockstep (:func:`walk_lockstep`), except a group whose
        pool depends on an earlier group of the batch (a repeated function
        without ``fresh_pool``): it steps through the scalar
        :func:`walk_instances` from its first arrival, in group order, and so
        do the arrivals the lockstep hands off.  ``pools`` are the platform's
        pools before the batch, empty where a group is fresh; the end pools
        are stored on the platform.  Returns the cold-start flags and init
        durations.
        """
        n_groups = len(rows)
        offsets = block.offsets
        t = block.arrivals
        n_total = int(offsets[-1])
        if not n_total:
            resets = [row for row, fresh_g in zip(rows, fresh) if fresh_g]
            platform.store_pools(resets, [[] for _ in resets])
            return np.zeros(0, dtype=bool), np.zeros(0)
        keep_alive = platform.cold_start_model.keep_alive_s
        max_instances = platform.config.max_instances_per_function

        forced_unsafe = np.zeros(n_groups, dtype=bool)
        if len(set(rows)) < n_groups:
            seen: set[int] = set()
            for g, (row, fresh_g) in enumerate(zip(rows, fresh)):
                forced_unsafe[g] = row in seen and not fresh_g
                seen.add(row)

        nonempty = sizes > 0
        starts = offsets[:-1]
        starts_ne = starts[nonempty]
        first_t = t[np.minimum(starts, n_total - 1)]
        init_worst = np.take(columns[3], gid)
        if cold_noise is not None:
            init_worst *= cold_noise
        warm_expired, cold_expired, unsafe_pair, internal = _classify_pairs(
            t, exec_ms, init_worst, gid, keep_alive
        )
        group_has_unsafe = np.zeros(n_groups, dtype=bool)
        group_has_unsafe[gid[1:][internal & unsafe_pair]] = True
        safe = nonempty & (head_busy <= first_t) & ~group_has_unsafe & ~forced_unsafe

        # Resolve every group's cold chain in one pass: group heads are
        # absolute anchors, so anchors and flip parity never leak across
        # group boundaries (see solve_cold_recurrence).
        disagree = (warm_expired != cold_expired) & internal
        cold_start = np.empty(n_total, dtype=bool)
        cold_start[1:] = warm_expired
        cold_start[starts_ne] = ((first_t - head_busy) > keep_alive)[nonempty]
        if disagree.any():
            abs_mask = np.empty(n_total, dtype=bool)
            abs_mask[0] = True
            abs_mask[1:] = ~disagree
            abs_mask[starts_ne] = True
            flip = np.zeros(n_total, dtype=bool)
            flip[1:] = disagree & warm_expired
            flip[starts_ne] = False
            cold_start = solve_cold_recurrence(abs_mask, cold_start, flip)
        init_ms = np.where(cold_start, init_worst, 0.0)
        # A single-server run ends with one worker, busy until its last
        # arrival's completion (walk_instances' float expression).
        ends = np.maximum(offsets[1:] - 1, 0)
        tail_busy_l = (t[ends] + (exec_ms[ends] + init_ms[ends]) / 1000.0).tolist()

        # Lockstep walk of the unsafe groups whose pools do not depend on an
        # earlier group, into the flat columns (their flat-pass cold flags
        # and init times cleared first).
        walked: dict[int, tuple] = {}
        lockstep = nonempty & ~safe & ~forced_unsafe
        if lockstep.any():
            lock_groups = np.flatnonzero(lockstep).tolist()
            in_lockstep = np.repeat(lockstep, sizes)
            cold_start[in_lockstep] = False
            init_ms[in_lockstep] = 0.0
            del in_lockstep
            lock_rows = walk_lockstep(
                t,
                exec_ms,
                init_worst,
                starts[lockstep],
                offsets[1:][lockstep],
                [pools[g] for g in lock_groups],
                keep_alive,
                max_instances,
                cold_start,
                init_ms,
            )
            walked = dict(zip(lock_groups, lock_rows))

        # ---- end pools in group order; scalar walks for the rest ----------
        # A later group of a repeated function replaces its earlier end pool,
        # as storing them one by one would.
        end_pools: dict[int, list[float]] = {}
        off_l = offsets.tolist()
        for g, (row, fresh_g, a, b, safe_g, tail_busy) in enumerate(
            zip(rows, fresh, off_l, off_l[1:], safe.tolist(), tail_busy_l)
        ):
            if fresh_g:
                end_pools[row] = []
            if a == b:
                continue
            if safe_g:
                end_pools[row] = [tail_busy]
                continue
            if g in walked:
                # The lockstep's end pool; arrivals left at the handoff
                # continue from it.
                start, pool = walked[g]
            else:
                # A repeated function continues from its pool as the batch
                # has left it so far (not being fresh, pools[g] is the
                # platform's pool before the batch).
                start = a
                pool = end_pools[row] if row in end_pools else list(pools[g])
            end_pools[row] = pool
            if start < b:
                # The scalar walk steps through the end pool, in place.
                cold_start[start:b], init_ms[start:b] = walk_instances(
                    t[start:b],
                    exec_ms[start:b],
                    float(columns[3, g]),
                    cold_noise[start:b] if cold_noise is not None else None,
                    pool,
                    keep_alive,
                    max_instances,
                )
        platform.store_pools(end_pools.keys(), end_pools.values())
        return cold_start, init_ms
