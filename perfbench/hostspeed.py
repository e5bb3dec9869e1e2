"""Host-speed normalisation of measured times.

On a shared host the same work can take twice as long from one minute to
the next, because other tenants contend for the same cores and memory.  The
benchmark therefore runs a fixed reference kernel (NumPy sort, gather and
scan, a small matrix product, Python tuple churn; about 7 ms) between the
measured steps, and reports every time of a run scaled to a host on which
the kernel takes ``REFERENCE_S``:

    normalised = wall seconds * REFERENCE_S / median probe time of the run

The median weighs each probe by the stretch of the run around it, so a run's
host speed is its speed over time, however densely its steps are probed.
Host speed also flickers within a fraction of a second; one factor per run
leaves that to the medians over many steps.  A change to the program moves
the measured times but not the probes, so ratios between runs keep their
meaning while host drift cancels.  Raw wall times are printed beside the
normalised ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds of one reference-kernel call on a quiet reference host (2-core
#: Xeon at 2.1 GHz, one BLAS thread); the scale of every normalised time.
REFERENCE_S = 0.007


class HostSpeed:
    """Reference probes of one run and the normalisation they imply."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        rng = np.random.default_rng(20_211_206)
        self._values = rng.random(65_536)
        self._index = rng.integers(0, self._values.shape[0], self._values.shape[0])
        self._matrix = rng.random((192, 192))
        # Preallocated outputs: a large allocation's cost depends on the
        # allocator's history in the process, which the program changes, so
        # the kernel makes none.
        self._outputs = [np.empty_like(self._values) for _ in range(3)]
        self._outputs.append(np.empty_like(self._matrix))

    def reference_kernel(self, rounds: int = 4) -> float:
        """Fixed work mixing the program's kinds of cost; return a checksum."""
        ordered, gathered, scan, product = self._outputs
        total = 0.0
        for _ in range(rounds):
            ordered[:] = self._values
            ordered.sort()
            np.take(ordered, self._index, out=gathered)
            np.cumsum(gathered, out=scan)
            np.matmul(self._matrix, self._matrix, out=product)
            pairs = [(i, i * 0.5) for i in range(2_000)]
            total += float(scan[-1] + product[0, 0]) + len(pairs)
        return total

    def probe(self) -> None:
        """Time one reference-kernel call now, after an untimed one.

        The untimed call refills the caches the program just evicted, so the
        timed one reads the host's speed rather than the program's footprint.
        """
        self.reference_kernel()
        start = perf_counter()
        self.reference_kernel()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)

    def reference_s(self) -> float:
        """Median probe time, each probe weighted by the half-gaps to its neighbours."""
        starts, seconds = self.starts, self.seconds
        last = len(starts) - 1
        weights = [
            (starts[min(i + 1, last)] - starts[max(i - 1, 0)]) / 2 or 1.0
            for i in range(len(starts))
        ]
        half = sum(weights) / 2
        covered = 0.0
        for i in sorted(range(len(seconds)), key=seconds.__getitem__):
            covered += weights[i]
            if covered >= half:
                return seconds[i]
        raise ValueError("no reference probes taken")

    def scale(self) -> float:
        """Factor from this run's wall seconds to seconds on the reference host."""
        return REFERENCE_S / self.reference_s()
