"""The allocate-per-step trainer: the flat-buffer trainer's bit-exact reference.

:func:`reference_fit` trains a :class:`~repro.ml.network.NetworkConfig`
network with one weight and one bias array per layer, fresh gradient arrays
from every backward pass, the L2 term added layer by layer, and one
:class:`ReferenceOptimizer` update per parameter array through the textbook
expressions, each operation allocating a new array.  It shares the model
objects with ``src/`` (config, initializer, activations, losses, scaler), not
the training arithmetic, so the parity tests comparing it with
``NeuralNetwork.fit`` catch a slip in either.  ``tests/``, ``benchmarks/``
and ``tools/bench_report.py`` all import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.activations import get_activation
from repro.ml.initializers import get_initializer
from repro.ml.losses import get_loss
from repro.ml.network import NetworkConfig
from repro.ml.scaling import StandardScaler


class ReferenceOptimizer:
    """SGD (with momentum), Adam or Adagrad, one new array per operation.

    The defaults are those of :func:`repro.ml.optimizers.get_optimizer`.
    State is kept per parameter array, keyed by its identity.
    """

    def __init__(
        self,
        name: str,
        learning_rate: float,
        momentum: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.update = {"sgd": self._sgd, "adam": self._adam, "adagrad": self._adagrad}[name]
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._state: dict[int, dict[str, np.ndarray]] = {}

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for param, grad in zip(params, grads):
            self.update(param, grad, self._state.setdefault(id(param), {}))

    def _sgd(self, param, grad, state) -> None:
        if self.momentum == 0.0:
            param -= self.learning_rate * grad
            return
        velocity = state.get("velocity")
        if velocity is None:
            velocity = np.zeros_like(param)
        velocity = self.momentum * velocity - self.learning_rate * grad
        state["velocity"] = velocity
        param += velocity

    def _adam(self, param, grad, state) -> None:
        if not state:
            state["m"] = np.zeros_like(param)
            state["v"] = np.zeros_like(param)
            state["t"] = np.zeros(1)
        state["t"] += 1
        t = float(state["t"][0])
        state["m"] = self.beta1 * state["m"] + (1.0 - self.beta1) * grad
        state["v"] = self.beta2 * state["v"] + (1.0 - self.beta2) * grad * grad
        m_hat = state["m"] / (1.0 - self.beta1**t)
        v_hat = state["v"] / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def _adagrad(self, param, grad, state) -> None:
        accumulated = state.get("accumulated")
        if accumulated is None:
            accumulated = np.zeros_like(param)
        accumulated = accumulated + grad * grad
        state["accumulated"] = accumulated
        param -= self.learning_rate * grad / (np.sqrt(accumulated) + self.epsilon)


@dataclass
class ReferenceFit:
    """What :func:`reference_fit` trained: per-layer ``(weights, biases)`` and losses."""

    weights: list[tuple[np.ndarray, np.ndarray]]
    loss: list[float]
    validation_loss: list[float]


def reference_fit(
    config: NetworkConfig,
    x: np.ndarray,
    y: np.ndarray,
    validation_data: tuple[np.ndarray, np.ndarray] | None = None,
) -> ReferenceFit:
    """Train ``config`` on ``(x, y)`` as ``NeuralNetwork.fit`` does, array by array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    scaler = StandardScaler().fit(x) if config.standardize_inputs else None

    def scaled(features):
        return scaler.transform(features) if scaler is not None else features

    # Layer by layer, weights drawn from the seed's generator in layer order.
    init_rng = np.random.default_rng(config.seed)
    widths = [x.shape[1]] + [config.n_neurons] * config.n_layers + [y.shape[1]]
    initializer = get_initializer("he_normal")
    weights = [initializer(init_rng, a, b) for a, b in zip(widths[:-1], widths[1:])]
    biases = [np.zeros(b) for b in widths[1:]]
    activations = [get_activation(config.activation)] * config.n_layers
    activations.append(get_activation("linear"))
    n_layers = len(weights)

    def forward(inputs, training):
        cache = []
        out = inputs
        for w, b, activation in zip(weights, biases, activations):
            if training:
                pre = out @ w + b
            else:
                pre = np.einsum("nf,fh->nh", out, w) + b
            cache.append((out, pre))
            out = activation.forward(pre)
        return out, cache

    loss_fn = get_loss(config.loss)
    optimizer = ReferenceOptimizer(config.optimizer, config.learning_rate)
    order_rng = np.random.default_rng(config.seed + 1)
    fit = ReferenceFit(weights=[], loss=[], validation_loss=[])
    x_scaled = scaled(x)
    n = len(x_scaled)
    batch_size = min(config.batch_size, n)
    for _ in range(config.epochs):
        order = order_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            batch_idx = order[start : start + batch_size]
            yb = y[batch_idx]
            pred, cache = forward(x_scaled[batch_idx], training=True)
            epoch_losses.append(loss_fn.value(yb, pred))
            grad = loss_fn.gradient(yb, pred)
            grad_weights: list[np.ndarray] = [np.empty(0)] * n_layers
            grad_biases: list[np.ndarray] = [np.empty(0)] * n_layers
            for i in reversed(range(n_layers)):
                layer_input, pre = cache[i]
                grad_pre = activations[i].backward(pre, grad)
                grad_weights[i] = layer_input.T @ grad_pre
                grad_biases[i] = grad_pre.sum(axis=0)
                grad = grad_pre @ weights[i].T
            if config.l2 > 0:
                for i in range(n_layers):
                    grad_weights[i] += config.l2 * weights[i]
            for i in range(n_layers):
                optimizer.step([weights[i], biases[i]], [grad_weights[i], grad_biases[i]])
        fit.loss.append(float(np.mean(epoch_losses)))
        if validation_data is not None:
            x_val, y_val = validation_data
            y_val = np.asarray(y_val, dtype=float)
            if y_val.ndim == 1:
                y_val = y_val.reshape(-1, 1)
            val_pred, _ = forward(scaled(np.asarray(x_val, dtype=float)), training=False)
            fit.validation_loss.append(loss_fn.value(y_val, val_pred))
    fit.weights = [(w.copy(), b.copy()) for w, b in zip(weights, biases)]
    return fit
