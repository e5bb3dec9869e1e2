"""Grouped execution: the group block, the result container and the instance walks.

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

This module holds the pieces every grouped executor shares: the columnar
:class:`GroupBlock` input and the :class:`GroupedBatch` output, the
per-group parameter column, and the exact warm/cold instance walks: the
scalar :func:`walk_instances`, its array form :func:`walk_lockstep` and the
closed-form cold-chain solver.  The kernel itself is
:meth:`repro.simulation.engine.vectorized.VectorizedBackend.run_grouped`.

Determinism survives grouping because every group carries its own noise
key (stream contract v2, :mod:`repro.simulation.seeding`): a noise value is
a pure function of (key, invocation position, source), so the kernel, which
computes every group's values in one pass over the flat columns, and a
batch-at-a-time schedule read the same per-invocation values and therefore
produce bit-identical stats (enforced against the test suite's per-batch
oracle, ``tests/looped_oracle.py``, by the parity tests in
``tests/test_engine_grouped.py`` and ``tests/test_engine_kernel.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.simulation.engine.base import BatchResult
from repro.simulation.platform import ServerlessPlatform, acquire_worker
from repro.simulation.runtime import METRIC_NAMES


@dataclass(frozen=True)
class GroupBlock:
    """The groups of one grouped run, as columns.

    Group ``g`` invokes ``names[g]`` at the deployment captured when the
    block was built — ``profiles[g]`` at ``memory_mb[g]``, deployment serial
    ``serials[g]`` — on the arrivals ``arrivals[offsets[g]:offsets[g + 1]]``,
    and reads its noise from the key ``keys[g]``.  A block builds no object per
    group: a fleet window passes its flat arrivals and its active
    functions' columns as they are.  The columns and arrivals are checked
    when the block is built, so an invalid block cannot be built.

    Attributes
    ----------
    names:
        Function name of each group.
    profiles:
        Resource profile each group executes.
    memory_mb:
        ``(n_groups,)`` size each group executes at.
    serials:
        ``(n_groups,)`` deployment serials
        (:attr:`~repro.simulation.platform.DeployedFunction.serial`): a
        group's invocations count towards its function only while that
        deployment is current.  The measurement harness redeploys one
        function at several sizes within one block, so only its last group's
        deployment is current.
    arrivals:
        Flat group-major arrival times: finite, non-negative and sorted
        within every group.
    offsets:
        ``(n_groups + 1,)`` boundaries into ``arrivals``.
    keys:
        ``(n_groups,)`` uint64 execution-noise keys (stream contract v2,
        :mod:`repro.simulation.seeding`): derived from the group's
        coordinates (:func:`~repro.simulation.seeding.noise_keys`) or, for a
        single batch run without one, drawn from the platform's shared
        generator.
    fresh_pool:
        ``(n_groups,)`` whether to drop the function's warm pool before the
        group's arrivals — set by callers whose groups each stand for a
        fresh deployment (the measurement harness).  Fleet windows keep
        pools warm across windows.
    """

    names: Sequence[str]
    profiles: Sequence
    memory_mb: np.ndarray
    serials: np.ndarray
    arrivals: np.ndarray
    offsets: np.ndarray
    keys: np.ndarray
    fresh_pool: np.ndarray

    def __post_init__(self) -> None:
        """Check the columns' lengths and every group's arrivals."""
        from repro.monitoring.aggregation import validate_group_offsets

        n_groups = len(self.names)
        if not n_groups:
            raise SimulationError("a group block needs at least one group")
        for label, column in (
            ("profiles", self.profiles),
            ("memory_mb", self.memory_mb),
            ("serials", self.serials),
            ("keys", self.keys),
            ("fresh_pool", self.fresh_pool),
        ):
            if len(column) != n_groups:
                raise SimulationError(
                    f"{label} has {len(column)} entries for {n_groups} groups"
                )
        keys = self.keys
        if not isinstance(keys, np.ndarray) or keys.dtype != np.uint64 or keys.ndim != 1:
            raise SimulationError("keys must be a 1-D uint64 array")
        t = self.arrivals
        if t.ndim != 1:
            raise SimulationError(f"arrivals must be a 1-D array, not of shape {t.shape}")
        try:
            offsets = validate_group_offsets(self.offsets, int(t.shape[0]))
        except Exception as error:
            raise SimulationError(f"malformed group offsets: {error}") from error
        if offsets.shape[0] - 1 != n_groups:
            raise SimulationError(
                f"{n_groups} groups but {offsets.shape[0] - 1} offset segments"
            )
        if not t.shape[0]:
            return
        # Decreases across group boundaries are fine.  NaN compares false
        # both ways, so only the finiteness check catches it.
        decreasing = np.diff(t) < 0
        boundaries = offsets[1:-1] - 1
        boundaries = boundaries[(boundaries >= 0) & (boundaries < decreasing.shape[0])]
        decreasing[boundaries] = False
        valid = np.isfinite(t) & (t >= 0)
        if not np.all(valid) or np.any(decreasing):
            bad = np.flatnonzero(decreasing)
            first = int(bad[0]) if bad.size else int(np.argmin(valid))
            g = int(np.searchsorted(offsets, first, side="right") - 1)
            raise SimulationError(
                f"group {g} ({self.names[g]!r}): arrivals must be "
                "finite, sorted and non-negative"
            )

    @property
    def n_groups(self) -> int:
        """Number of groups in the block."""
        return len(self.names)

    @staticmethod
    def of_groups(
        names: Sequence[str],
        profiles: Sequence,
        memory_mb,
        serials,
        arrivals: Sequence,
        keys,
        fresh_pool=False,
    ) -> "GroupBlock":
        """A block from one arrival array per group.

        Each group's arrivals must be one 1-D array, checked before they are
        joined; ``fresh_pool`` is one flag for every group or one per group.
        """
        parts = [np.asarray(group, dtype=float) for group in arrivals]
        for g, part in enumerate(parts):
            if part.ndim != 1:
                raise SimulationError(
                    f"group {g} ({names[g]!r}): arrivals must be a 1-D "
                    f"array, not of shape {part.shape}"
                )
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([part.shape[0] for part in parts], out=offsets[1:])
        return GroupBlock(
            names=names,
            profiles=profiles,
            memory_mb=np.asarray(memory_mb, dtype=float),
            serials=np.asarray(serials, dtype=np.int64),
            arrivals=np.concatenate(parts) if parts else np.empty(0),
            offsets=offsets,
            keys=np.asarray(keys, dtype=np.uint64),
            fresh_pool=np.full(len(parts), fresh_pool, dtype=bool)
            if np.ndim(fresh_pool) == 0
            else np.asarray(fresh_pool, dtype=bool),
        )

    @staticmethod
    def for_deployed(
        platform: "ServerlessPlatform",
        names: Sequence[str],
        arrivals: Sequence,
        keys,
        fresh_pool=False,
    ) -> "GroupBlock":
        """A block of groups against the named functions' *current* deployments."""
        deployed = [platform.get_function(name) for name in names]
        return GroupBlock.of_groups(
            names,
            [d.profile for d in deployed],
            [d.memory_mb for d in deployed],
            [d.serial for d in deployed],
            arrivals,
            keys,
            fresh_pool,
        )


def walk_instances(
    arrivals: np.ndarray,
    exec_ms: np.ndarray,
    init_base_ms: float,
    cold_noise: np.ndarray | None,
    pool: list[float],
    keep_alive_s: float,
    max_instances: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk one group's sorted arrivals through a warm pool.

    The scalar walk: one :func:`~repro.simulation.platform.acquire_worker`
    call per arrival (keep-alive reclaim, warm reuse, concurrency limit), so
    warm/cold decisions are identical to the serial path's; only the noise
    pairing differs when cold-start noise is enabled.  The grouped kernel
    runs it for the arrivals :func:`walk_lockstep` hands off and for every
    group whose pool depends on an earlier group of the batch; the looped
    oracle runs it for every group.

    Parameters
    ----------
    arrivals:
        Sorted arrival timestamps.
    exec_ms:
        Matching inner execution times.
    init_base_ms:
        Noise-free cold-start duration at this (size, code size).
    cold_noise:
        Optional per-invocation cold-start noise factors (``None`` when the
        cold-start model is noise-free).
    pool:
        The function's warm workers, busy-until times in pool order; the
        walk leaves its end pool in this list.
    keep_alive_s / max_instances:
        The platform's keep-alive and per-function concurrency limit.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        Cold-start mask and init durations.
    """
    n = int(arrivals.shape[0])
    cold_start = np.zeros(n, dtype=bool)
    init_ms = np.zeros(n)

    noise_list = cold_noise.tolist() if cold_noise is not None else None
    for i, (at_time_s, run_ms) in enumerate(zip(arrivals.tolist(), exec_ms.tolist())):
        slot, is_cold = acquire_worker(pool, at_time_s, keep_alive_s, max_instances)
        if is_cold:
            init = init_base_ms * noise_list[i] if noise_list is not None else init_base_ms
            cold_start[i] = True
            init_ms[i] = init
            run_ms += init
        pool[slot] = max(at_time_s, pool[slot]) + run_ms / 1000.0
    return cold_start, init_ms


#: The lockstep walk hands its still-walking groups to :func:`walk_instances`
#: once they hold fewer than this many groups plus warm workers: one numpy
#: step then costs more than stepping their next arrivals one by one.
#: Counting workers keeps a few groups with large pools in lockstep, where
#: the scalar acquire scans the whole pool on every arrival.
LOCKSTEP_HANDOFF = 48

#: Steps before the lockstep walk first weighs a handoff (a fresh window or
#: measurement chunk starts with empty pools, which fill within a few
#: arrivals), and the interval between later checks while no group ends.
_HANDOFF_CHECK_STEPS = 16


def walk_lockstep(
    arrivals: np.ndarray,
    exec_ms: np.ndarray,
    init_ms: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    pools: list,
    keep_alive_s: float,
    max_instances: int,
    cold_out: np.ndarray,
    init_out: np.ndarray,
) -> list[tuple[int, list[float]]]:
    """Walk many groups through their instance pools, one arrival per group a step.

    The array form of :func:`walk_instances`, bit-identical to it.

    Row ``r`` walks the flat positions ``[starts[r], stops[r])`` of the
    group-major columns from the pool ``pools[r]`` (its workers' busy-until
    times in pool order; the list is not modified).  Each step advances
    every still-walking row by one arrival with numpy operations over a
    (pool slots, rows) busy-until array, slots kept in pool order, and
    applies :func:`~repro.simulation.platform.acquire_worker`'s rule with
    :func:`walk_instances`' float expressions: reclaim workers idle past
    the keep-alive, take the first idle worker in pool order, at
    ``max_instances`` queue on the earliest-free one, else cold-start a
    worker appended to the pool.  ``init_ms`` holds every position's
    (noisy) cold-start init duration.

    The cold flags and init durations of the walked positions are written
    into ``cold_out`` and ``init_out``, which must hold ``False`` and ``0.0``
    there on entry.  Once the walking rows hold fewer than
    :data:`LOCKSTEP_HANDOFF` rows plus workers, the walk stops; the caller
    steps each row's remaining arrivals through the scalar
    :func:`walk_instances` from the pools returned here.

    Returns
    -------
    list of tuple
        One ``(stop, pool)`` per row: the first position not walked and the
        end pool, busy-until times in pool order.
    """
    n_rows = len(pools)
    lengths = stops - starts
    # Rows longest first, so the still-walking rows are always a prefix; the
    # state is (slots, rows), so every step works on contiguous row runs.
    order = np.argsort(-lengths, kind="stable")
    first = starts[order]
    length_l = lengths[order].tolist()
    held = [len(pools[r]) for r in order.tolist()]
    used = np.asarray(held, dtype=np.int64)  # slots each row has used
    top = max(1, max(held))  # slots any walking row has used
    state = _LockstepState(n_rows, 2 * top)
    busy = state.busy
    existing = [worker for r in order.tolist() for worker in pools[r]]
    if existing:
        # Worker j of a row's pool goes to slot j.
        row_of = np.repeat(np.arange(n_rows), held)
        slot_of = np.arange(len(existing)) - np.repeat(np.cumsum(used) - used, held)
        state.busy_f[slot_of * n_rows + row_of] = existing
    row_index = np.arange(n_rows)
    active = n_rows
    checked = n_rows
    k = 0
    while True:
        while active and length_l[active - 1] <= k:
            active -= 1
        if not active:
            break
        if k >= _HANDOFF_CHECK_STEPS and (
            active < checked or not k % _HANDOFF_CHECK_STEPS
        ):
            checked = active
            if active + np.count_nonzero(busy[:top, :active] < np.inf) < LOCKSTEP_HANDOFF:
                break
        if top == state.width:
            # A row may need a new slot: drop reclaimed slots (keeping pool
            # order), and grow the state if a pool still fills it.
            used[:active] = state.compact(active)
            top = max(1, int(used[:active].max()))
            if top > state.width // 2:
                state = _LockstepState(n_rows, 2 * top, state)
            busy = state.busy
        pos = first[:active] + k
        t = arrivals[pos]
        pool = busy[:top, :active]
        idle = pool <= t
        countdown = state.countdown[-top:]
        # top - slot of each row's first idle worker in pool order, 0 if none;
        # a row without one points at slot `top`, which no row has used.
        rank = (idle * countdown).max(axis=0)
        rows = row_index[:active]
        at = np.subtract(top, rank, dtype=np.int64) * n_rows + rows
        if ((t - state.busy_f[at]) > keep_alive_s).any():
            # Workers idle past the keep-alive are reclaimed when one of them
            # would be picked (and at the end): until then they cannot be
            # picked, counted at the cap or move a later worker up the pool.
            # A busy worker has been idle for no time, never past it.
            pool[(t - pool) > keep_alive_s] = np.inf
            idle = pool <= t
            rank = (idle * countdown).max(axis=0)
            at = np.subtract(top, rank, dtype=np.int64) * n_rows + rows
        cold = None
        if not rank.all():
            cold = rank == 0
            if max_instances <= top:
                at_cap = cold & (np.count_nonzero(pool < np.inf, axis=0) >= max_instances)
                if at_cap.any():
                    at = np.where(at_cap, pool.argmin(axis=0) * n_rows + rows, at)
                    cold &= ~at_cap
            new = np.flatnonzero(cold)
            if new.shape[0]:
                new_slot = used[new]
                at_new = new_slot * n_rows + new
                at[new] = at_new
                # A new worker is free from time 0, as in the platform's pool.
                state.busy_f[at_new] = 0.0
                used[new] = new_slot + 1
                top = max(top, int(new_slot.max()) + 1)
            else:
                cold = None
        start = np.maximum(t, state.busy_f[at])
        run_ms = exec_ms[pos]
        if cold is not None:
            init = np.where(cold, init_ms[pos], 0.0)
            cold_out[pos] = cold
            init_out[pos] = init
            run_ms = run_ms + init
        state.busy_f[at] = start + run_ms / 1000.0
        k += 1

    stop = first + np.minimum(lengths[order], k)
    # The reclaim each row's last walked arrival made.
    busy[(arrivals[stop - 1] - busy) > keep_alive_s] = np.inf
    stop_l = stop.tolist()
    busy_l = busy.T.tolist()
    results: list = [None] * n_rows
    for i, r in enumerate(order.tolist()):
        results[r] = (stop_l[i], [worker for worker in busy_l[i] if worker < np.inf])
    return results


class _LockstepState:
    """The (slots, rows) busy-until array of :func:`walk_lockstep`.

    Slots are kept in pool order.  +inf marks a slot with no worker (unused
    or reclaimed): it is never free and never expired.  ``busy_f`` is a
    flat view, indexed at ``slot * n_rows + row``.
    """

    def __init__(self, n_rows: int, width: int, old: "_LockstepState | None" = None):
        width = max(8, width)
        self.width = width
        self.busy = np.full((width, n_rows), np.inf)
        if old is not None:
            self.busy[: old.width] = old.busy
        self.busy_f = self.busy.ravel()
        # Descending slot weights: a (slots, rows) max over them finds each
        # row's first flagged slot.
        self.countdown = np.arange(
            width, 0, -1, dtype=np.int16 if width < 2**15 else np.int64
        )[:, None]

    def compact(self, active: int) -> np.ndarray:
        """Move the workers of rows ``[0, active)`` to their first slots, in order.

        Returns the rows' worker counts.
        """
        busy = self.busy[:, :active]
        empty = busy == np.inf
        busy[:] = np.take_along_axis(busy, np.argsort(empty, axis=0, kind="stable"), axis=0)
        return self.width - np.count_nonzero(empty, axis=0)


def solve_cold_recurrence(
    abs_mask: np.ndarray, abs_vals: np.ndarray, flip: np.ndarray
) -> np.ndarray:
    """Solve the cold-start recurrence ``x[i] = x[i-1] ^ flip[i]`` in one pass.

    The grouped kernel's flat pass classifies each arrival ``i`` of a
    single-server run as cold or warm.  Where the warm-case and cold-case
    expiry tests agree (and at run heads), the value is known
    *absolutely*: ``abs_mask[i]`` is true and ``x[i] =
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
            cold_model.duration_ms(memory_mb, profile.code_size_kb, cpu_share),
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
    cost_usd / billed_duration_ms:
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
        self,
        warmup_s: float = 0.0,
        exclude_cold_starts: bool = True,
        metric_names: tuple[str, ...] = METRIC_NAMES,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reduce the mega-batch to per-group stat blocks in one pass.

        The fused counterpart of
        :meth:`~repro.simulation.engine.base.BatchResult.aggregate_stats`:
        segmented reductions over the group offsets produce the
        ``(n_groups, len(metric_names), n_stats)`` block and the per-group
        surviving invocation counts without materializing any per-group
        objects.  Windowing semantics match the per-batch path per group
        (warm-up discard with full-group fallback, cold-start exclusion with
        all-cold fallback); empty groups yield zero rows.  ``metric_names``
        selects the reduced metrics (all Table-1 metrics by default); their
        rows equal the same rows of the full reduction bit for bit.
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
            metric_names=metric_names,
        )

    def group(self, index: int) -> BatchResult:
        """Materialize one group as a plain :class:`BatchResult`.

        Slices are views into the fused columns.  A single arrival batch
        (:meth:`~repro.simulation.engine.vectorized.VectorizedBackend.run_batch`)
        is group 0 of a one-group batch.
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
            cost_usd=self.cost_usd[a:b],
            billed_duration_ms=self.billed_duration_ms[a:b],
            metrics={name: values[a:b] for name, values in self.metrics.items()},
        )
