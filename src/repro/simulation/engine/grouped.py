"""Grouped execution: request/result containers and the instance walks.

The offline sweep measures every function at six memory sizes and the online
fleet re-monitors hundreds of deployed functions every window — both are
embarrassingly batchable, yet a per-(function, size) loop pays the full
numpy dispatch overhead of a whole batch pipeline for every group.  Grouped
execution flattens all invocations of many (function, size) *groups* into
single columnar arrays carrying a group-id structure (``offsets``), executes
them in one pass and reduces them straight to per-group
``(n_groups, n_metrics, n_stats)`` stat blocks with segmented reductions
(:func:`repro.monitoring.aggregation.grouped_stat_blocks`) — no per-group
:class:`~repro.simulation.engine.base.BatchResult` objects on the hot path.

This module holds the pieces every grouped executor shares: the
:class:`GroupRequest` input and :class:`GroupedBatch` output containers, the
per-group parameter column, and the exact warm/cold instance walks
(:func:`walk_instances`, the hybrid :func:`walk_group` and the closed-form
cold-chain solver).  The kernel itself is
:meth:`repro.simulation.engine.vectorized.VectorizedBackend.run_grouped`.

Determinism survives grouping because every group carries its own random
stream (spawned via :mod:`repro.simulation.seeding`): the kernel draws each
group's noise from that stream in exactly the order the looped per-group
path would, so grouped and looped execution produce bit-identical
per-invocation values and therefore bit-identical stats (enforced by the
parity tests in ``tests/test_engine_grouped.py`` and
``tests/test_engine_kernel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.simulation.engine.base import BatchResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simulation.platform import DeployedFunction, ServerlessPlatform


@dataclass(frozen=True)
class GroupRequest:
    """One (function, size) group of a fused cross-function batch.

    Attributes
    ----------
    deployment:
        The platform deployment record the group executes against, captured
        at request-build time (the harness redeploys the same function at
        several sizes within one fused batch, so the record cannot be
        resolved later).
    arrivals:
        Sorted non-negative arrival timestamps of the group (may be empty).
    rng:
        The group's private noise stream (see
        :mod:`repro.simulation.seeding`); both the grouped kernel and the
        looped path draw this group's noise from it, in the same order.
    fresh_pool:
        Reset the function's warm-instance pool before walking this group's
        arrivals — set by callers whose groups each represent a fresh
        deployment (the measurement harness).  Fleet windows keep pools warm
        across windows and leave this ``False``.
    """

    deployment: "DeployedFunction"
    arrivals: np.ndarray
    rng: np.random.Generator
    fresh_pool: bool = False

    @property
    def function_name(self) -> str:
        """Name of the deployed function the group invokes."""
        return self.deployment.name

    @property
    def memory_mb(self) -> float:
        """Memory size the group executes at."""
        return float(self.deployment.memory_mb)

    @staticmethod
    def for_deployed(
        platform: "ServerlessPlatform",
        function_name: str,
        arrivals: np.ndarray,
        rng: np.random.Generator,
        fresh_pool: bool = False,
    ) -> "GroupRequest":
        """Build a request against a function's *current* deployment."""
        return GroupRequest(
            deployment=platform.get_function(function_name),
            arrivals=np.asarray(arrivals, dtype=float),
            rng=rng,
            fresh_pool=fresh_pool,
        )


def walk_instances(
    platform: "ServerlessPlatform",
    function_name: str,
    memory_mb: float,
    arrivals: np.ndarray,
    exec_ms: np.ndarray,
    init_base_ms: float,
    cold_noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk one group's sorted arrivals through the platform's instance pool.

    Reuses the platform's own acquisition logic (keep-alive reclaim, warm
    reuse, concurrency limit) so warm/cold decisions are identical to the
    scalar path; only the noise pairing differs when cold-start noise is
    enabled.  Mutates the pool, so consecutive batches see warm workers.

    Parameters
    ----------
    platform:
        The platform owning the instance pool.
    function_name:
        The deployed function being executed.
    memory_mb:
        The memory size the function is deployed at.
    arrivals:
        Sorted arrival timestamps.
    exec_ms:
        Matching inner execution times.
    init_base_ms:
        Noise-free cold-start duration at this (size, code size).
    cold_noise:
        Optional per-invocation cold-start noise factors (``None`` when the
        cold-start model is noise-free).

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray, numpy.ndarray]
        Cold-start mask, init durations and serving instance ids.
    """
    n = int(arrivals.shape[0])
    cold_start = np.zeros(n, dtype=bool)
    init_ms = np.zeros(n)
    instance_ids = np.empty(n, dtype=np.int64)

    acquire = platform._acquire_instance
    arrival_list = arrivals.tolist()
    exec_list = exec_ms.tolist()
    noise_list = cold_noise.tolist() if cold_noise is not None else None
    for i, at_time_s in enumerate(arrival_list):
        instance, is_cold = acquire(function_name, memory_mb, at_time_s)
        init = 0.0
        if is_cold:
            init = init_base_ms * noise_list[i] if noise_list is not None else init_base_ms
            cold_start[i] = True
            init_ms[i] = init
        start_s = max(at_time_s, instance.busy_until_s)
        instance.busy_until_s = start_s + (exec_list[i] + init) / 1000.0
        instance.last_used_s = instance.busy_until_s
        instance.invocations += 1
        instance_ids[i] = instance.instance_id
    return cold_start, init_ms, instance_ids


def walk_group(
    platform: "ServerlessPlatform",
    function_name: str,
    memory_mb: float,
    arrivals: np.ndarray,
    exec_ms: np.ndarray,
    init_base_ms: float,
    cold_noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hybrid exact instance walk: vectorized runs, scalar tight spots.

    Production fleet traffic is sparse relative to execution times: almost
    every function serves its arrivals strictly one after another on a
    single worker, and the per-arrival Python walk (:func:`walk_instances`)
    spends the whole window doing trivial bookkeeping.  This walk splits
    each group's arrivals into maximal *single-server runs* — stretches
    where the pool holds at most one idle instance and every inter-arrival
    gap is (pessimistically, assuming a worst-case cold start) large enough
    to absorb the previous invocation — and computes each run with array
    operations:

    - an invocation cold-starts iff the idle time since the previous
      completion exceeds the keep-alive (strictly), with the previous
      completion including its own cold-start init;
    - instance ids advance by one per cold start, in arrival order, from
      the platform's global counter;
    - the run ends with exactly the last serving instance in the pool
      (earlier ones expired, which is what forced the later cold starts).

    Arrivals at tight gaps, short runs and multi-instance pool states step
    through the platform's own acquisition logic instead, one arrival at a
    time, exactly like :func:`walk_instances`.  The combined result is
    bit-identical to the sequential walk — same cold decisions, same float
    expressions for the pool's busy/idle state — it just skips the Python
    loop wherever the single-server regime holds.

    Parameters and return value match :func:`walk_instances`.
    """
    n = int(arrivals.shape[0])
    if n < 10:
        # Tiny groups: the vectorized bookkeeping costs more than it saves.
        return walk_instances(
            platform, function_name, memory_mb, arrivals, exec_ms,
            init_base_ms, cold_noise,
        )
    instances = platform._instances[function_name]
    keep_alive = platform.cold_start_model.keep_alive_s
    exec_s = exec_ms / 1000.0
    if cold_noise is not None:
        init_worst_ms = init_base_ms * cold_noise
    else:
        init_worst_ms = np.full(n, init_base_ms)
    cold = np.zeros(n, dtype=bool)
    init_out = np.zeros(n)
    ids = np.empty(n, dtype=np.int64)
    if n > 1:
        # Exact per-pair bookkeeping, using the same float expressions the
        # sequential walk uses for busy_until, so every comparison below
        # matches it bit for bit: the worst-case (cold) and warm completion
        # of arrival k, and the idle time arrival k+1 would observe.
        cold_completion = arrivals[:-1] + (exec_ms[:-1] + init_worst_ms[:-1]) / 1000.0
        warm_idle = arrivals[1:] - (arrivals[:-1] + exec_s[:-1])
        cold_idle = arrivals[1:] - cold_completion
        # unsafe[k]: arrival k+1 could reach a still-busy worker even after a
        # cold start at k — the pair needs the sequential logic.
        unsafe = np.nonzero(arrivals[1:] < cold_completion)[0]
    else:
        warm_idle = cold_idle = np.empty(0)
        unsafe = np.empty(0, dtype=np.int64)
    u_ptr = 0
    w_ptr = 0
    warm_stop: np.ndarray | None = None
    acquire = platform._acquire_instance
    i = 0
    while i < n:
        single = instances[0] if len(instances) == 1 else None
        idle = not instances or (
            single is not None and single.busy_until_s <= arrivals[i]
        )
        j = i
        if idle:
            while u_ptr < unsafe.shape[0] and unsafe[u_ptr] < i:
                u_ptr += 1
            j = int(unsafe[u_ptr]) if u_ptr < unsafe.shape[0] else n - 1
        elif (
            len(instances) >= 2
            and all(inst.busy_until_s <= arrivals[i] for inst in instances)
            and arrivals[i] - instances[0].last_used_s <= keep_alive
        ):
            # --- vectorized warm run on a multi-instance pool -----------
            # After an overlap the pool briefly holds a spare instance.
            # While every pooled worker is idle and the head instance stays
            # within its keep-alive, the first-idle scan always picks the
            # head — so a stretch of arrivals whose gaps rule out both
            # overlap (pessimistically, with a worst-case cold start) and
            # head expiry is served entirely warm by the head instance.
            if warm_stop is None:
                warm_stop = (
                    np.nonzero(
                        (arrivals[1:] < cold_completion) | (warm_idle > keep_alive)
                    )[0]
                    if n > 1
                    else np.empty(0, dtype=np.int64)
                )
                w_ptr = 0
            while w_ptr < warm_stop.shape[0] and warm_stop[w_ptr] < i:
                w_ptr += 1
            j = int(warm_stop[w_ptr]) if w_ptr < warm_stop.shape[0] else n - 1
            if j - i + 1 >= 6:
                m = j - i + 1
                head = instances[0]
                ids[i : j + 1] = head.instance_id
                head.invocations += m
                head.busy_until_s = float(arrivals[j]) + (float(exec_ms[j]) + 0.0) / 1000.0
                head.last_used_s = head.busy_until_s
                # Spares are reclaimed at the first scan that finds them
                # expired; by the end of the run that is any spare idle
                # longer than the keep-alive.
                last_t = float(arrivals[j])
                instances[:] = [head] + [
                    spare
                    for spare in instances[1:]
                    if last_t - spare.last_used_s <= keep_alive
                ]
                i = j + 1
                continue
            j = i  # run too short: fall through to the scalar step
        if idle and j - i + 1 >= 6:
            # --- vectorized single-server run over [i..j] ---------------
            m = j - i + 1
            run_cold = np.empty(m, dtype=bool)
            if single is not None:
                run_cold[0] = (
                    max(arrivals[i] - single.last_used_s, 0.0) > keep_alive
                )
            else:
                run_cold[0] = True
            warm_expired = warm_idle[i:j] > keep_alive
            cold_expired = cold_idle[i:j] > keep_alive
            # warm_expired is the answer when the previous invocation was
            # warm, cold_expired when it was cold (its completion includes
            # the init).  Where the two disagree the answer depends on the
            # previous cold flag — resolve those rare positions with the
            # closed-form scan (bit-identical to the sequential recurrence).
            run_cold[1:] = warm_expired
            disagree = warm_expired != cold_expired
            if disagree.any():
                abs_mask = np.empty(m, dtype=bool)
                abs_mask[0] = True
                abs_mask[1:] = ~disagree
                flip = np.zeros(m, dtype=bool)
                flip[1:] = disagree & warm_expired
                run_cold[:] = solve_cold_recurrence(abs_mask, run_cold, flip)
            run_init = np.where(run_cold, init_worst_ms[i : j + 1], 0.0)
            segment = np.cumsum(run_cold)
            n_cold = int(segment[-1])
            start_id = platform._next_instance_id
            if single is not None:
                ids[i : j + 1] = np.where(
                    segment == 0, single.instance_id, start_id + segment
                )
            else:
                ids[i : j + 1] = start_id + segment
            platform._next_instance_id = start_id + n_cold
            cold[i : j + 1] = run_cold
            init_out[i : j + 1] = run_init
            if n_cold == 0:
                instance = single
                instance.invocations += m
            else:
                last_cold = j - int(np.argmax(run_cold[::-1]))
                instance = _worker_instance_cls()(
                    instance_id=int(start_id + n_cold),
                    memory_mb=float(memory_mb),
                    created_at_s=float(arrivals[last_cold]),
                    invocations=j - last_cold + 1,
                )
            # Same float expression as the sequential walk busy_until update,
            # so the pool end state is bit-identical too.
            instance.busy_until_s = (
                float(arrivals[j]) + (float(exec_ms[j]) + float(run_init[-1])) / 1000.0
            )
            instance.last_used_s = instance.busy_until_s
            instances[:] = [instance]
            i = j + 1
        else:
            # --- scalar step (identical to walk_instances) --------------
            at_time_s = float(arrivals[i])
            instance, is_cold = acquire(function_name, memory_mb, at_time_s)
            init = 0.0
            if is_cold:
                init = float(init_worst_ms[i])
                cold[i] = True
                init_out[i] = init
            start_s = max(at_time_s, instance.busy_until_s)
            instance.busy_until_s = start_s + (float(exec_ms[i]) + init) / 1000.0
            instance.last_used_s = instance.busy_until_s
            instance.invocations += 1
            ids[i] = instance.instance_id
            i += 1
    return cold, init_out, ids


def solve_cold_recurrence(
    abs_mask: np.ndarray, abs_vals: np.ndarray, flip: np.ndarray
) -> np.ndarray:
    """Solve the cold-start recurrence ``x[i] = x[i-1] ^ flip[i]`` in one pass.

    The hybrid walk classifies each arrival ``i`` as cold or warm.  Where the
    warm-case and cold-case expiry tests agree (and at run heads), the value
    is known *absolutely*: ``abs_mask[i]`` is true and ``x[i] =
    abs_vals[i]``.  Where they disagree, the sequential rule ``x[i] =
    cold_expired if x[i-1] else warm_expired`` reduces to an XOR with the
    warm-case answer: ``x[i] = x[i-1] ^ warm_expired[i-1]`` (check both
    disagreement cases).  That makes every position the XOR of its closest
    absolute anchor at-or-before it with the parity of the flips between
    them — a ``maximum.accumulate`` over anchor indices plus a flip-count
    prefix sum, with no Python loop.

    ``abs_mask[0]`` must be true (run heads are always absolute).  Positions
    may span many concatenated groups at once: marking every group head
    absolute confines anchors and flip parity to their own group, which is
    how the grouped kernel resolves all groups' chains in one call.

    Returns the resolved boolean array (a new array; inputs are not
    modified).
    """
    idx = np.arange(abs_mask.shape[0])
    anchor = np.maximum.accumulate(np.where(abs_mask, idx, 0))
    cum = np.cumsum(flip)
    parity = ((cum - cum[anchor]) & 1).astype(bool)
    return abs_vals[anchor] ^ parity


_WORKER_INSTANCE_CLS = None


def _worker_instance_cls():
    """Resolve the platform's worker-instance class once (import-cycle safe)."""
    global _WORKER_INSTANCE_CLS
    if _WORKER_INSTANCE_CLS is None:
        from repro.simulation.platform import _WorkerInstance

        _WORKER_INSTANCE_CLS = _WorkerInstance
    return _WORKER_INSTANCE_CLS


def param_column(profile, memory_mb: float, model, cold_model) -> np.ndarray:
    """Compute one group's scalar parameter column.

    The column holds every profile/size-derived scalar the grouped kernel
    needs: 4 noise-free timing bases (CPU, file system, network, cold-start
    init) followed by the 19 metric-formula inputs of
    :class:`~repro.simulation.runtime.RuntimeBatchInputs`, in field order.
    All values are pure functions of (profile, execution model, cold-start
    model, memory size), so callers may cache them on object identity — a
    fleet whose deployments are stable then hits the cache every window.
    """
    scaling = model.scaling
    cpu_share = scaling.cpu_share(memory_mb)
    pressure = scaling.memory_pressure_factor(profile.memory_working_set_mb, memory_mb)
    calls = profile.service_calls
    service_bytes = sum((c.request_bytes + c.response_bytes) * c.calls for c in calls)
    network_bytes = profile.network_bytes_in + profile.network_bytes_out + service_bytes
    return np.array(
        [
            (profile.cpu_user_ms + profile.cpu_system_ms) / cpu_share * pressure,
            scaling.fs_transfer_ms(profile.total_fs_bytes, memory_mb),
            scaling.network_transfer_ms(network_bytes, memory_mb),
            cold_model.duration_ms(memory_mb, profile.code_size_kb, cpu_share, rng=None),
            float(memory_mb),
            cpu_share,
            pressure,
            profile.cpu_user_ms,
            profile.cpu_system_ms,
            profile.fs_read_ops,
            profile.fs_write_ops,
            profile.fs_read_bytes,
            profile.fs_write_bytes,
            profile.total_service_calls,
            1.0 if profile.network_bytes_in + profile.network_bytes_out > 0 else 0.0,
            profile.network_bytes_in,
            profile.network_bytes_out,
            profile.heap_allocated_mb,
            profile.memory_working_set_mb,
            profile.code_size_kb,
            profile.blocking_fraction,
            sum(c.response_bytes * c.calls for c in calls),
            sum(c.request_bytes * c.calls for c in calls),
        ]
    )


def _segment_sums_1d(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-group sums of a flat per-invocation array (empty groups sum to 0)."""
    n_groups = offsets.shape[0] - 1
    counts = np.diff(offsets)
    nonempty = counts > 0
    sums = np.zeros(n_groups)
    if np.any(nonempty):
        sums[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty])
    return sums


@dataclass(frozen=True)
class GroupedBatch:
    """Columnar result of one fused cross-function mega-batch.

    The multi-group sibling of
    :class:`~repro.simulation.engine.base.BatchResult`: one numpy column per
    invocation attribute over *all* groups, concatenated group-major, plus
    the ``offsets`` boundaries that say which slice belongs to which group.

    Attributes
    ----------
    function_names:
        Function name of each group, in group order.
    memory_mb:
        ``(n_groups,)`` memory size each group executed at.
    offsets:
        ``(n_groups + 1,)`` boundaries: group ``g`` owns the column slice
        ``[offsets[g], offsets[g + 1])``.
    timestamps_s / execution_time_ms / init_duration_ms / cold_start /
    instance_ids / cost_usd / billed_duration_ms:
        Flat per-invocation columns (same meaning as on ``BatchResult``).
    metrics:
        One flat ``(n,)`` array per Table-1 metric name.
    """

    function_names: tuple[str, ...]
    memory_mb: np.ndarray
    offsets: np.ndarray
    timestamps_s: np.ndarray
    execution_time_ms: np.ndarray
    init_duration_ms: np.ndarray
    cold_start: np.ndarray
    instance_ids: np.ndarray
    cost_usd: np.ndarray
    billed_duration_ms: np.ndarray
    metrics: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        """Validate the group structure against the flat columns."""
        from repro.monitoring.aggregation import validate_group_offsets

        n = int(self.timestamps_s.shape[0])
        try:
            offsets = validate_group_offsets(self.offsets, n)
        except Exception as error:
            raise SimulationError(f"malformed group offsets: {error}") from error
        if offsets.shape[0] - 1 != len(self.function_names):
            raise SimulationError(
                f"{len(self.function_names)} groups but "
                f"{offsets.shape[0] - 1} offset segments"
            )
        if self.memory_mb.shape[0] != len(self.function_names):
            raise SimulationError("memory_mb must have one entry per group")
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_groups(self) -> int:
        """Number of (function, size) groups in the batch."""
        return len(self.function_names)

    @property
    def n_invocations(self) -> int:
        """Total number of invocations across all groups."""
        return int(self.timestamps_s.shape[0])

    def group_sizes(self) -> np.ndarray:
        """``(n_groups,)`` raw arrival count of each group."""
        return np.diff(self.offsets)

    def cold_starts_per_group(self) -> np.ndarray:
        """``(n_groups,)`` cold-started invocation count of each group."""
        return _segment_sums_1d(
            self.cold_start.astype(float), self.offsets
        ).astype(np.int64)

    def cost_per_group(self) -> np.ndarray:
        """``(n_groups,)`` total billed cost of each group."""
        return _segment_sums_1d(self.cost_usd, self.offsets)

    def aggregate_stats(
        self, warmup_s: float = 0.0, exclude_cold_starts: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reduce the mega-batch to per-group stat blocks in one pass.

        The fused counterpart of
        :meth:`~repro.simulation.engine.base.BatchResult.aggregate_stats`:
        segmented reductions over the group offsets produce the
        ``(n_groups, n_metrics, n_stats)`` block and the per-group surviving
        invocation counts without materializing any per-group objects.
        Windowing semantics match the per-batch path per group (warm-up
        discard with full-group fallback, cold-start exclusion with all-cold
        fallback); empty groups yield zero rows.
        """
        from repro.monitoring.aggregation import grouped_stat_blocks

        return grouped_stat_blocks(
            self.metrics,
            self.offsets,
            cold_start=self.cold_start,
            exclude_cold_starts=exclude_cold_starts,
            # Timestamps are validated non-negative, so a zero warm-up keeps
            # everything — skip the mask entirely.
            window=self.timestamps_s >= warmup_s if warmup_s > 0 else None,
        )

    def group(self, index: int) -> BatchResult:
        """Materialize one group as a plain :class:`BatchResult` (debug path).

        Slices are views into the fused columns; used by tests and debugging
        tools, not by the hot path.
        """
        index = int(index)
        if not 0 <= index < self.n_groups:
            raise SimulationError(
                f"group index {index} out of range for {self.n_groups} groups"
            )
        a, b = int(self.offsets[index]), int(self.offsets[index + 1])
        return BatchResult(
            function_name=self.function_names[index],
            memory_mb=float(self.memory_mb[index]),
            timestamps_s=self.timestamps_s[a:b],
            execution_time_ms=self.execution_time_ms[a:b],
            init_duration_ms=self.init_duration_ms[a:b],
            cold_start=self.cold_start[a:b],
            instance_ids=self.instance_ids[a:b],
            cost_usd=self.cost_usd[a:b],
            billed_duration_ms=self.billed_duration_ms[a:b],
            metrics={name: values[a:b] for name, values in self.metrics.items()},
        )


def validate_group_timestamps(
    timestamps: np.ndarray, offsets: np.ndarray, requests: list[GroupRequest]
) -> None:
    """One batched validation pass over all groups' concatenated arrivals.

    Checks that timestamps are non-negative and non-decreasing inside every
    group (decreases across group boundaries are fine).
    """
    if not timestamps.shape[0]:
        return
    decreasing = np.diff(timestamps) < 0
    boundaries = offsets[1:-1] - 1
    boundaries = boundaries[(boundaries >= 0) & (boundaries < decreasing.shape[0])]
    decreasing[boundaries] = False
    if np.any(timestamps < 0) or np.any(decreasing):
        bad = np.nonzero(decreasing)[0]
        g = int(np.searchsorted(offsets, bad[0], side="right") - 1) if bad.size else (
            int(np.searchsorted(offsets, np.nonzero(timestamps < 0)[0][0], side="right") - 1)
        )
        raise SimulationError(
            f"group {g} ({requests[g].function_name!r}): arrivals must be "
            "sorted and non-negative"
        )
