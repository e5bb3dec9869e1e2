"""Deterministic per-group random stream derivation (one ``SeedSequence`` route).

Every hot path that simulates many (function, size) or (function, window)
groups — the measurement harness, the parallel worker processes, the fleet
simulator and the fused grouped executor — needs its *own* random stream per
group, for two reasons:

1. **Structural parity.**  The fused cross-function executor
   (:mod:`repro.simulation.engine.grouped`) computes many groups in one
   columnar pass, while the looped path executes one batch per group.  Both
   produce bit-identical numbers only when every group draws its noise from
   an independent stream that does not depend on scheduling order.
2. **Reproducible parallelism.**  Worker processes measuring function ``i``
   must draw the same noise the sequential schedule would, regardless of
   worker count or completion order.

Before this module existed, those seeds were derived ad hoc (a prime stride
in the parallel backend, a shared sequential stream in the harness and the
load generator), so parity was coincidental.  All per-group streams are now
spawned here, from one scheme: ``SeedSequence(base_seed,
spawn_key=(stream_role, *group_key))``.  Distinct roles keep e.g. the
arrival stream of group ``(3, 1)`` independent from its execution-noise
stream even when the underlying base seeds collide.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Stream role of open-loop / traffic arrival sampling.
STREAM_ARRIVALS = 1

#: Stream role of platform execution noise (timing, counters, cold starts).
STREAM_EXECUTION = 2

#: Stream role of fleet traffic-model sampling (per function, per window).
STREAM_TRAFFIC = 3


def child_seed_sequence(
    base_seed: int, stream: int, *group_key: int
) -> np.random.SeedSequence:
    """Spawn the seed sequence of one group-scoped random stream.

    Parameters
    ----------
    base_seed:
        The configuring object's seed (harness, platform or fleet config).
    stream:
        Stream role constant (:data:`STREAM_ARRIVALS`,
        :data:`STREAM_EXECUTION` or :data:`STREAM_TRAFFIC`) separating
        independent uses of the same base seed.
    *group_key:
        Integer coordinates identifying the group — e.g. ``(function_index,
        size_index)`` for a harness measurement or ``(function_index,
        window_index)`` for a fleet window.

    Returns
    -------
    numpy.random.SeedSequence
        A child sequence unique to ``(base_seed, stream, *group_key)``.
    """
    return np.random.SeedSequence(
        int(base_seed), spawn_key=(int(stream), *(int(k) for k in group_key))
    )


def child_rng(base_seed: int, stream: int, *group_key: int) -> np.random.Generator:
    """Create the generator of one group-scoped random stream.

    Convenience wrapper around :func:`child_seed_sequence`; see there for the
    parameters.  Two calls with equal arguments return generators with
    identical initial state, so callers never need to share generator objects
    across groups (which would reintroduce order dependence).

    The generator is constructed as ``Generator(PCG64(seed_sequence))``
    directly — exactly what :func:`numpy.random.default_rng` does for a
    ``SeedSequence`` argument (same bit generator, same initial state), minus
    the wrapper overhead that dominates when a sparse fleet window spawns
    thousands of streams.
    """
    return np.random.Generator(
        np.random.PCG64(child_seed_sequence(base_seed, stream, *group_key))
    )


def spawn_child_rngs(
    base_seed: int, stream: int, *prefix: int, n: int
) -> list[np.random.Generator]:
    """Spawn ``n`` consecutive group streams sharing a key prefix, in bulk.

    ``spawn_child_rngs(seed, stream, *prefix, n=n)[i]`` has exactly the same
    state as ``child_rng(seed, stream, *prefix, i)`` — ``SeedSequence.spawn``
    numbers its children by appending the child index to the spawn key — but
    amortizes the entropy-pool setup, which matters on hot paths that need
    hundreds of streams per call (one fleet window spawns two streams per
    function).

    Parameters
    ----------
    base_seed:
        The configuring object's seed.
    stream:
        Stream role constant (see :func:`child_seed_sequence`).
    *prefix:
        Leading group-key coordinates shared by all ``n`` streams (e.g. the
        window index); the child index ``0..n-1`` is appended as the last
        coordinate.
    n:
        Number of streams to spawn.
    """
    parent = np.random.SeedSequence(
        int(base_seed), spawn_key=(int(stream), *(int(k) for k in prefix))
    )
    return [
        np.random.Generator(np.random.PCG64(child)) for child in parent.spawn(int(n))
    ]


# --------------------------------------------------------------------------
# Keyed batch derivation
#
# ``spawn_child_rngs`` amortizes entropy-pool setup but still hashes one
# ``SeedSequence`` per child and — crucially — can only number children
# ``0..n-1``, so a sparse fleet window that needs streams for 1 000 active
# functions out of 1 000 000 had to spawn the full fleet.  The keyed
# constructor below builds the streams for an *arbitrary index subset*
# directly, by replicating the ``SeedSequence`` entropy-pool hash in
# vectorized numpy over the one spawn-key word that varies (the child
# index).  The result is bit-identical to ``child_rng(seed, stream,
# *prefix, i)`` — asserted by a one-time self-check against numpy's own
# implementation; if numpy ever changes its hashing, the self-check fails
# and every call transparently falls back to the reference route.
# --------------------------------------------------------------------------

# Hash constants of numpy's SeedSequence (a fixed-entropy-pool seed sequence
# after O'Neill's seed_seq_fe).  Replicated only for the vectorized batch
# path; parity with numpy is verified at runtime, not assumed.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """Split a non-negative int into little-endian 32-bit words (0 -> [0])."""
    value = int(value)
    if value == 0:
        return [0]
    words = []
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def keyed_state_words(
    base_seed: int, stream: int, *prefix: int, indices
) -> np.ndarray:
    """PCG64 seed words for many sibling streams, derived in one batch.

    Row ``j`` equals ``child_seed_sequence(base_seed, stream, *prefix,
    indices[j]).generate_state(4, np.uint64)`` bit for bit.  All spawn-key
    coordinates except the trailing child index are shared, so the entropy
    pool is hashed once in scalar arithmetic and only the final mixing step
    — the one that folds in the index — runs vectorized over the batch.

    Parameters
    ----------
    base_seed, stream, *prefix:
        Shared stream coordinates, as in :func:`spawn_child_rngs`.
    indices:
        Integer array of trailing child indices, each in ``[0, 2**32)``
        (one 32-bit spawn-key word; fleet indices always are).

    Returns
    -------
    numpy.ndarray
        Shape ``(len(indices), 4)`` uint64 seed words.
    """
    idx = np.ascontiguousarray(indices, dtype=np.uint32)
    entropy = _uint32_words(base_seed)
    if len(entropy) < _POOL_SIZE:
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy.extend(_uint32_words(stream))
    for coordinate in prefix:
        entropy.extend(_uint32_words(coordinate))

    # Scalar phase: pool initialisation and every entropy word shared by the
    # whole batch, in plain-int arithmetic (wrapped mod 2**32 by hand).
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value = (value ^ hash_const) & _MASK32
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = ((_MIX_MULT_L * x) - (_MIX_MULT_R * y)) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [
        hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))

    # Vector phase: fold the per-child index into each pool word.  The hash
    # constant evolves per hashmix call but never depends on the data, so it
    # stays scalar; only the hashed value is a batch array.  uint32 array
    # arithmetic wraps mod 2**32, matching the reference.
    xshift = np.uint32(_XSHIFT)
    columns = []
    for i_dst in range(_POOL_SIZE):
        hashed = idx ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        hashed = hashed * np.uint32(hash_const)
        hashed ^= hashed >> xshift
        mixed = np.uint32((_MIX_MULT_L * pool[i_dst]) & _MASK32) - (
            np.uint32(_MIX_MULT_R) * hashed
        )
        mixed ^= mixed >> xshift
        columns.append(mixed)

    # generate_state(4, uint64): eight uint32 output words, cycling the pool.
    hash_const = _INIT_B
    state = np.empty((idx.shape[0], 2 * _POOL_SIZE), dtype=np.uint32)
    for word in range(2 * _POOL_SIZE):
        data = columns[word % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        data = data * np.uint32(hash_const)
        state[:, word] = data ^ (data >> xshift)
    return state.view(np.uint64)


class _PrecomputedSeedSequence:
    """Minimal seed-sequence stand-in returning precomputed state words.

    Registered with :class:`numpy.random.bit_generator.ISeedSequence` so
    ``PCG64(instance)`` accepts it and seeds from :meth:`generate_state`
    directly, skipping the per-child entropy-pool hashing that
    :func:`keyed_state_words` already performed for the whole batch.
    """

    __slots__ = ("words",)

    def __init__(self) -> None:
        self.words: np.ndarray | None = None

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        words = self.words
        if np.dtype(dtype) != np.uint64 or int(n_words) != words.shape[0]:
            raise ValueError(
                "precomputed seed words cover exactly "
                f"{words.shape[0]} uint64 words, not {n_words} of {dtype}"
            )
        return words


np.random.bit_generator.ISeedSequence.register(_PrecomputedSeedSequence)


def _keyed_fast_path_available() -> bool:
    """One-time self-check: keyed derivation matches numpy bit for bit.

    Exercises multi-word seeds, multi-coordinate prefixes and boundary
    indices.  Any numpy-internals drift makes this return ``False`` and the
    keyed constructors silently take the reference route instead.
    """
    try:
        probes = [
            (1234, STREAM_EXECUTION, (17,), [0, 1, 999, 2**32 - 1]),
            (2**96 + 5, STREAM_TRAFFIC, (0, 3), [2, 2**31]),
            (0, STREAM_ARRIVALS, (), [5]),
        ]
        for seed, stream, prefix, indices in probes:
            words = keyed_state_words(seed, stream, *prefix, indices=indices)
            for row, index in enumerate(indices):
                reference = child_seed_sequence(
                    seed, stream, *prefix, index
                ).generate_state(4, np.uint64)
                if not np.array_equal(words[row], reference):
                    return False
        seeded = np.random.PCG64(_make_precomputed(words[0]))
        reference_bg = np.random.PCG64(
            child_seed_sequence(0, STREAM_ARRIVALS, 5)
        )
        return seeded.state == reference_bg.state
    except Exception:
        return False


def _make_precomputed(words: np.ndarray) -> _PrecomputedSeedSequence:
    holder = _PrecomputedSeedSequence()
    holder.words = words
    return holder


_KEYED_FAST_PATH: bool | None = None


class KeyedStreams(Sequence):
    """Group streams of an index subset, each built only when taken.

    Item ``j`` is a new generator at the initial state of ``child_rng(seed,
    stream, *prefix, indices[j])``, built from seed words derived for the
    whole subset in one batch (:func:`keyed_state_words`).  Nothing per
    group is kept between items, so a grouped run that takes each group's
    stream when it draws the group's noise holds one generator at a time.
    Taking an item twice gives two generators at the same initial state.
    """

    __slots__ = ("_words", "_holder")

    def __init__(self, words: np.ndarray) -> None:
        self._words = words
        self._holder = _PrecomputedSeedSequence()

    def __len__(self) -> int:
        return int(self._words.shape[0])

    def __getitem__(self, j: int) -> np.random.Generator:
        # PCG64 reads the holder's words once, while it is constructed.
        self._holder.words = self._words[j]
        return np.random.Generator(np.random.PCG64(self._holder))


def keyed_child_rngs(
    base_seed: int, stream: int, *prefix: int, indices
) -> Sequence[np.random.Generator]:
    """Create group streams for an arbitrary index subset, in one batch.

    ``keyed_child_rngs(seed, stream, *prefix, indices=idx)[j]`` has exactly
    the same state as ``child_rng(seed, stream, *prefix, idx[j])`` and as
    ``spawn_child_rngs(seed, stream, *prefix, n=n)[idx[j]]`` — but the cost
    is O(len(indices)), independent of how many sibling streams exist, so a
    sparse fleet window pays only for its *active* functions.  The result is
    a :class:`KeyedStreams` sequence, whose items are built when taken.

    Falls back to a list of :func:`child_rng` streams when the vectorized
    derivation's one-time self-check against numpy fails or an index does
    not fit one 32-bit spawn-key word.
    """
    global _KEYED_FAST_PATH
    idx = np.asarray(indices)
    if idx.shape[0] == 0:
        return []
    if _KEYED_FAST_PATH is None:
        _KEYED_FAST_PATH = _keyed_fast_path_available()
    if not _KEYED_FAST_PATH or idx.dtype.kind not in "iu" or (
        idx.dtype.itemsize > 4 and bool((idx >= 2**32).any())
    ) or (idx.dtype.kind == "i" and bool((idx < 0).any())):
        return [
            child_rng(base_seed, stream, *prefix, int(i)) for i in idx
        ]
    return KeyedStreams(keyed_state_words(base_seed, stream, *prefix, indices=idx))
