"""Benchmark: the flat-buffer trainer against the allocate-per-step reference.

Trains ``default_network_config()`` (3 x 128 ReLU, Adam, MSE, L2 = 1e-4,
batch 32) on a 1 000 x 12 -> 5 regression problem twice per repeat: once
with ``NeuralNetwork.fit`` (one flat parameter buffer, in-place optimizer
updates and gradients) and once with the reference trainer of
``tests/reference_trainer.py`` (one array per layer parameter, a new array
per operation).  The trainers run in :data:`TRAINING_REPEATS` back-to-back
pairs, each run after a ``gc.collect()``; which trainer goes first
alternates from pair to pair, so neither always inherits the other's
warm caches or lands at the start of a slow stretch of the host.  The runs
execute in one child process with BLAS pinned to one thread before NumPy
loads, as in ``perfbench/run.py``: with a threaded BLAS on a small host the
GEMM timings swing by tens of percent from run to run and hide the
optimizer's share.  An untimed one-epoch fit of each trainer comes first.

The test asserts that both trainers produce bit-identical weights, biases
and loss histories, and that the median over the pairs of reference time /
flat time is at least ``REPRO_BENCH_TRAIN_MIN_SPEEDUP`` (default 1.1).  A
pair's two runs are seconds apart, so host noise that slows both cancels
in its ratio, where a ratio of the two arms' medians can pair a flat run
from a slow stretch with a reference run from a fast one.  On a shared
2-core host four 400-epoch measurements read 1.15, 1.20, 1.30 and 1.42x
(the reference's own runs spread 9.4-12.4 s), so the default floor sits
below that spread rather than at its bottom.  Epochs default to the
config's 400; ``REPRO_BENCH_TRAIN_EPOCHS`` shrinks them for smoke runs.
``tools/bench_report.py --only training`` reports the same measurement
(:func:`training_seconds`).

Run the measurement alone with
``PYTHONPATH=src:tests python benchmarks/test_bench_training.py EPOCHS``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.model import default_network_config
from repro.ml.network import NeuralNetwork

from reference_trainer import reference_fit

EPOCHS = int(os.environ.get("REPRO_BENCH_TRAIN_EPOCHS", str(default_network_config().epochs)))

#: Back-to-back (flat, reference) pairs in :func:`training_seconds`.
TRAINING_REPEATS = 3

#: The regression problem: samples, input features, targets.
N_SAMPLES, N_FEATURES, N_TARGETS = 1000, 12, 5

_ROOT = Path(__file__).resolve().parent.parent
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _problem() -> tuple[np.ndarray, np.ndarray]:
    """Features and log-ratio-like targets, fixed by seed."""
    rng = np.random.default_rng(2021)
    x = rng.normal(size=(N_SAMPLES, N_FEATURES))
    mixing = rng.normal(size=(N_FEATURES, N_TARGETS)) / np.sqrt(N_FEATURES)
    y = np.tanh(x @ mixing) + 0.05 * rng.normal(size=(N_SAMPLES, N_TARGETS))
    return x, y


def _train_flat(config, x, y):
    net = NeuralNetwork(config)
    history = net.fit(x, y)
    return net.get_weights(), history.loss


def _train_reference(config, x, y):
    fit = reference_fit(config, x, y)
    return fit.weights, fit.loss


TRAINERS = {"flat": _train_flat, "reference": _train_reference}


def measure(epochs: int, repeats: int = TRAINING_REPEATS) -> dict:
    """Time both trainers in this process, in pairs, and compare their fits.

    Pair ``k`` runs the trainers in :data:`TRAINERS` order when ``k`` is
    even and in reverse order when it is odd; run ``k`` of each label in
    ``seconds_runs`` belongs to pair ``k``.
    """
    x, y = _problem()
    config = default_network_config().replace(epochs=epochs)
    # An untimed one-epoch fit of each trainer first: a process's first fit
    # pays one-off costs (BLAS buffers, first-touch pages) that would
    # otherwise land on whichever trainer runs first.
    for train in TRAINERS.values():
        train(config.replace(epochs=1), x, y)
    runs: dict[str, list[float]] = {label: [] for label in TRAINERS}
    fits = {}
    order = list(TRAINERS.items())
    for pair in range(repeats):
        for label, train in order if pair % 2 == 0 else order[::-1]:
            gc.collect()
            start = time.perf_counter()
            fits[label] = train(config, x, y)
            runs[label].append(time.perf_counter() - start)
    (flat_weights, flat_loss), (ref_weights, ref_loss) = fits["flat"], fits["reference"]
    identical = flat_loss == ref_loss and all(
        np.array_equal(w, ref_w) and np.array_equal(b, ref_b)
        for (w, b), (ref_w, ref_b) in zip(flat_weights, ref_weights)
    )
    return {"epochs": epochs, "seconds_runs": runs, "bit_identical": identical}


def training_seconds(epochs: int = EPOCHS, repeats: int = TRAINING_REPEATS) -> dict:
    """:func:`measure` in a child process with BLAS pinned to one thread."""
    env = dict(os.environ, **{name: "1" for name in _THREAD_VARIABLES})
    paths = [str(_ROOT / "src"), str(_ROOT / "tests"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    child = subprocess.run(
        [sys.executable, __file__, str(epochs), str(repeats)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_flat_trainer_matches_reference_and_is_faster():
    minimum = float(os.environ.get("REPRO_BENCH_TRAIN_MIN_SPEEDUP", "1.1"))
    result = training_seconds()
    runs = result["seconds_runs"]
    ratios = [ref / flat for flat, ref in zip(runs["flat"], runs["reference"])]
    speedup = statistics.median(ratios)
    print(
        f"\ntraining {EPOCHS} epochs: flat {statistics.median(runs['flat']):.2f} s, "
        f"reference {statistics.median(runs['reference']):.2f} s, per-pair ratios "
        f"{', '.join(f'{ratio:.2f}' for ratio in ratios)} (median {speedup:.2f}x)"
    )
    assert result["bit_identical"]
    assert speedup >= minimum


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else 1)))
