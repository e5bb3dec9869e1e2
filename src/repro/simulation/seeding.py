"""Deterministic random streams: generator streams and keyed execution noise.

Every path that simulates many (function, size) or (function, window) groups
— the measurement harness, its worker processes, the fleet simulator and the
grouped kernel — needs randomness that belongs to one group, so that a
group's numbers do not depend on the groups it is scheduled with, on
chunking or on worker count.

**Generator streams** (:func:`child_rng`): arrival traces and fleet traffic
draw from a PCG64 generator seeded by ``SeedSequence(base_seed,
spawn_key=(stream_role, *group_key))``; distinct roles keep e.g. a group's
arrival stream independent from its traffic stream.

**Execution noise** (stream contract version 2, ``docs/FORMATS.md``) is
counter-based, after Salmon et al., "Parallel Random Numbers: As Easy as 1,
2, 3" (SC'11): no generator and no state.  A group has one uint64 key
(:func:`noise_keys`, a whole block's keys in one vectorized pass), and the
value of invocation ``j`` of the group and noise source ``s`` is a pure
function ``u(key, j, s)``: the output mix of position ``64 j + s`` of the
SplitMix64 sequence seeded by the key (Steele, Lea and Flood, OOPSLA 2014),
read as a double strictly inside (0, 1).  Every schedule that computes a
value gets the same one, however many other groups, invocations or sources
it computes beside it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

#: Stream role of open-loop / traffic arrival sampling.
STREAM_ARRIVALS = 1

#: Stream role of platform execution noise (timing, counters, cold starts).
STREAM_EXECUTION = 2

#: Stream role of fleet traffic-model sampling (per window).
STREAM_TRAFFIC = 3

#: Noise source of the CPU / file-system / network timing factor.
SOURCE_CPU = 0
#: Noise source of the straggler (tail-latency) decision.
SOURCE_TAIL = 1
#: Noise source of the cold-start duration factor.
SOURCE_COLD = 2
#: First of the 13 counter-jitter sources (jitter row ``r`` is source 3 + r).
SOURCE_JITTER = 3
#: First service-call source (the ``c``-th drawn call is source 16 + c).
SOURCE_SERVICE = 16
#: Sources one invocation owns: ``u(key, j, s)`` is defined for s < 64.
SOURCES_PER_INVOCATION = 64
#: Most drawn service calls one invocation can have.
MAX_SERVICE_DRAWS = SOURCES_PER_INVOCATION - SOURCE_SERVICE

_MASK64 = (1 << 64) - 1
#: SplitMix64's increment, the golden-ratio constant.
GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# Counter steps of one invocation (64 sources) and of one source.
_STEP_INVOCATION = np.uint64((SOURCES_PER_INVOCATION * GAMMA) & _MASK64)
_STEP_SOURCE = np.uint64(GAMMA)
# Exponent bits of 1.0: OR-ing 52 mantissa bits into them gives [1, 2).
_ONE_BITS = np.uint64(0x3FF0000000000000)
_ONE_MINUS_HALF_ULP = 1.0 - 2.0**-53


def child_seed_sequence(
    base_seed: int, stream: int, *group_key: int
) -> np.random.SeedSequence:
    """Spawn the seed sequence of one group-scoped generator stream.

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
        size_index)`` for a harness arrival trace or ``(window_index,)`` for
        a fleet traffic window.

    Returns
    -------
    numpy.random.SeedSequence
        A child sequence unique to ``(base_seed, stream, *group_key)``.
    """
    return np.random.SeedSequence(
        int(base_seed), spawn_key=(int(stream), *(int(k) for k in group_key))
    )


def child_rng(base_seed: int, stream: int, *group_key: int) -> np.random.Generator:
    """Create the generator of one group-scoped stream.

    Convenience wrapper around :func:`child_seed_sequence`; see there for the
    parameters.  Two calls with equal arguments return generators with
    identical initial state, so callers never need to share generator objects
    across groups (which would reintroduce order dependence).  The generator
    is ``Generator(PCG64(seed_sequence))``, exactly what
    :func:`numpy.random.default_rng` builds for a ``SeedSequence``.
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
    amortizes the entropy-pool setup.

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
# Execution noise, stream contract version 2
# --------------------------------------------------------------------------


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of a uint64 array, in place (``tmp``: scratch)."""
    np.right_shift(x, 30, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, np.uint64(_MIX_A), out=x)
    np.right_shift(x, 27, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, np.uint64(_MIX_B), out=x)
    np.right_shift(x, 31, out=tmp)
    return np.bitwise_xor(x, tmp, out=x)


def _mix64_int(z: int) -> int:
    """:func:`_mix64` of one Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _words(coordinate) -> list[int]:
    """Little-endian 64-bit words of a non-negative integer (0 -> [0])."""
    value = int(coordinate)
    if value < 0:
        raise ValueError(f"noise key coordinates must be non-negative, got {value}")
    words = [value & _MASK64]
    value >>= 64
    while value:
        words.append(value & _MASK64)
        value >>= 64
    return words


def noise_keys(base_seed: int, stream: int, *coordinates) -> np.ndarray:
    """Keys of execution-noise groups, derived in one vectorized pass.

    Starting from ``h = GAMMA``, every 64-bit word ``w`` of the coordinates
    ``(base_seed, stream, *coordinates)`` is folded in, in order, as ``h =
    mix64(h ^ w)`` (a coordinate of 2**64 or more contributes its
    little-endian words).  A coordinate may be an integer array: the leading
    scalars are folded once in Python ints and the rest elementwise,
    broadcast against each other, so a fleet window keys all its active
    functions — ``noise_keys(seed, STREAM_EXECUTION, window, active)`` — and
    a harness chunk all its (function, size) groups — ``noise_keys(seed,
    STREAM_EXECUTION, function_index, size_index)`` — with no Python call
    per group.  An array coordinate's entries must fit one word.

    Returns
    -------
    numpy.ndarray
        uint64 keys of the array coordinates' broadcast shape (0-d when
        every coordinate is a scalar).
    """
    h = GAMMA
    rest = [base_seed, stream, *coordinates]
    while rest and np.ndim(rest[0]) == 0:
        for word in _words(rest.pop(0)):
            h = _mix64_int(h ^ word)
    keys = np.array(h, dtype=np.uint64)
    for coordinate in rest:
        if np.ndim(coordinate) == 0:
            words = [np.uint64(word) for word in _words(coordinate)]
        else:
            column = np.asarray(coordinate)
            if column.dtype.kind not in "iu":
                raise ValueError("noise key coordinates must be integers")
            if column.dtype.kind == "i" and column.size and column.min() < 0:
                raise ValueError("noise key coordinates must be non-negative")
            words = [column.astype(np.uint64)]
        for word in words:
            keys = np.bitwise_xor(keys, word)
            _mix64(keys, np.empty_like(keys))
    return keys


def draw_key(rng: np.random.Generator) -> int:
    """A fresh noise key from a generator (a platform's shared one)."""
    return int(rng.integers(1 << 64, dtype=np.uint64))


def counter_uniforms(counters: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The uniforms of execution-noise counters ``key + (64 j + s) * GAMMA``.

    ``x = mix64(counter)`` and ``u = ((x >> 12) + 0.5) * 2**-52``: exact in
    float64, so every ``u`` lies in ``[2**-53, 1 - 2**-53]``, strictly
    inside (0, 1).  It is formed without an integer-to-float conversion:
    ``(x >> 12) | bits(1.0)`` read as a double is ``1 + (x >> 12) * 2**-52``,
    and subtracting ``1 - 2**-53`` from it is exact.  ``counters`` (uint64)
    is overwritten; ``out`` (float64, same shape) doubles as the mix's
    scratch space.
    """
    if out is None:
        out = np.empty(counters.shape)
    _mix64(counters, out.view(np.uint64))
    np.right_shift(counters, 12, out=counters)
    np.bitwise_or(counters, _ONE_BITS, out=counters)
    return np.subtract(counters.view(np.float64), _ONE_MINUS_HALF_ULP, out=out)


def noise_uniforms(key: int, positions, sources) -> np.ndarray:
    """``u(key, j, s)`` for every position ``j`` and source ``s``.

    The reference evaluation of the contract: a ``(len(positions),
    len(sources))`` float64 array.  The serial backend hands each
    invocation of its batch one row of it and the looped oracle reads one
    group's columns; the grouped kernel computes the same values source by
    source (:class:`CounterPass`).
    """
    sources = np.asarray(sources, dtype=np.int64).reshape(1, -1)
    if sources.size and (sources.min() < 0 or sources.max() >= SOURCES_PER_INVOCATION):
        raise ValueError(f"noise sources must lie in [0, {SOURCES_PER_INVOCATION})")
    positions = np.asarray(positions, dtype=np.uint64).reshape(-1, 1)
    counters = positions * _STEP_INVOCATION + sources.astype(np.uint64) * _STEP_SOURCE
    counters += np.uint64(int(key))
    return counter_uniforms(counters)


def invocation_uniforms(key: int, position: int = 0) -> np.ndarray:
    """Every source's ``u(key, position, s)`` of one invocation, indexed by ``s``."""
    return noise_uniforms(key, [position], np.arange(SOURCES_PER_INVOCATION))[0]


class CounterPass:
    """Source-by-source noise of a flat set of invocations: the kernel's pass.

    Invocation ``i`` is position ``j_i`` of key ``k_i``; the pass keeps its
    base counters ``k_i + 64 j_i * GAMMA`` and one work array, both uint64,
    so each source costs one add, one mix and one conversion over them.
    """

    def __init__(self, base: np.ndarray, work: np.ndarray) -> None:
        self.base = base
        self.work = work

    @staticmethod
    def for_groups(
        keys: np.ndarray, offsets: np.ndarray, gid: np.ndarray, buffers=None
    ) -> "CounterPass":
        """The pass of groups' flat group-major invocations.

        ``keys`` are the groups' keys, ``offsets`` their boundaries into the
        flat columns and ``gid`` each invocation's group; ``buffers`` are two
        reusable uint64 arrays of the flat length.
        """
        n = int(gid.shape[0])
        if buffers is None:
            buffers = (np.empty(n, np.uint64), np.empty(n, np.uint64))
        base, work = buffers
        # The position of each invocation within its group, then its counter.
        np.take(offsets.astype(np.uint64), gid, out=work)
        np.subtract(np.arange(n, dtype=np.uint64), work, out=work)
        np.multiply(work, _STEP_INVOCATION, out=work)
        np.take(keys, gid, out=base)
        np.add(base, work, out=base)
        return CounterPass(base, work)

    def uniforms(self, source: int, out: np.ndarray) -> np.ndarray:
        """``u`` of one source for every invocation, into ``out``."""
        np.add(self.base, np.uint64((source * GAMMA) & _MASK64), out=self.work)
        return counter_uniforms(self.work, out)

    def normals(self, source: int, out: np.ndarray) -> np.ndarray:
        """``ndtri(u)`` of one source for every invocation, into ``out``."""
        return ndtri(self.uniforms(source, out), out=out)

    def block_normals(self, rows: np.ndarray, first_source: int, width: int) -> np.ndarray:
        """``(len(rows), width)`` normals of consecutive sources, C-ordered.

        Row ``r`` holds sources ``first_source .. first_source + width - 1``
        of invocation ``rows[r]``: the service-call draws of the invocations
        with ``width`` drawn calls.
        """
        sources = np.arange(first_source, first_source + width, dtype=np.uint64)
        counters = self.base[rows][:, None] + sources * _STEP_SOURCE
        z = counter_uniforms(counters)
        return ndtri(z, out=z)
