"""Unit tests for dense layers and optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.ml.layers import DenseLayer
from repro.ml.optimizers import SGD, Adagrad, Adam, get_optimizer

from reference_trainer import ReferenceOptimizer


class TestDenseLayer:
    def test_forward_shape(self, rng):
        layer = DenseLayer(4, 8, rng=rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 8)

    def test_forward_rejects_wrong_width(self, rng):
        layer = DenseLayer(4, 8, rng=rng)
        with pytest.raises(ModelError):
            layer.forward(rng.normal(size=(5, 3)))

    def test_backward_requires_training_forward(self, rng):
        layer = DenseLayer(3, 2, rng=rng)
        layer.forward(rng.normal(size=(4, 3)), training=False)
        with pytest.raises(ModelError):
            layer.backward(np.ones((4, 2)))

    def test_backward_gradient_shapes(self, rng):
        layer = DenseLayer(3, 2, rng=rng)
        x = rng.normal(size=(6, 3))
        layer.forward(x, training=True)
        grad_input = layer.backward(np.ones((6, 2)))
        assert grad_input.shape == (6, 3)
        assert layer.grad_weights.shape == layer.weights.shape
        assert layer.grad_biases.shape == layer.biases.shape

    def test_linear_layer_gradient_is_exact(self, rng):
        layer = DenseLayer(3, 1, activation="linear", rng=rng)
        x = rng.normal(size=(10, 3))
        layer.forward(x, training=True)
        grad_out = np.ones((10, 1))
        layer.backward(grad_out)
        # For y = xW + b with upstream gradient of ones, dW = X^T 1.
        assert np.allclose(layer.grad_weights, x.T @ grad_out)
        assert np.allclose(layer.grad_biases, grad_out.sum(axis=0))

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ConfigurationError):
            DenseLayer(0, 4)

    def test_n_parameters(self, rng):
        layer = DenseLayer(3, 5, rng=rng)
        assert layer.n_parameters == 3 * 5 + 5

    def test_backward_writes_gradients_in_place(self, rng):
        """A standalone layer keeps its own gradient arrays; backward fills
        them with exactly the freshly allocated products."""
        layer = DenseLayer(3, 4, rng=rng)
        grad_weights, grad_biases = layer.grad_weights, layer.grad_biases
        x = rng.normal(size=(7, 3))
        grad_out = rng.normal(size=(7, 4))
        layer.forward(x, training=True)
        layer.backward(grad_out)
        assert layer.grad_weights is grad_weights and layer.grad_biases is grad_biases
        grad_pre = layer.activation.backward(x @ layer.weights + layer.biases, grad_out)
        assert np.array_equal(grad_weights, x.T @ grad_pre)
        assert np.array_equal(grad_biases, grad_pre.sum(axis=0))


class TestOptimizers:
    def _quadratic_descent(self, optimizer, steps=300):
        """Minimise f(w) = ||w - 3||^2 and return the final parameter."""
        w = np.array([10.0])
        for _ in range(steps):
            grad = 2.0 * (w - 3.0)
            optimizer.step([w], [grad])
        return w[0]

    def test_sgd_converges(self):
        assert self._quadratic_descent(SGD(learning_rate=0.05)) == pytest.approx(3.0, abs=1e-3)

    def test_sgd_momentum_converges(self):
        optimizer = SGD(learning_rate=0.02, momentum=0.9)
        assert self._quadratic_descent(optimizer) == pytest.approx(3.0, abs=1e-2)

    def test_adam_converges(self):
        assert self._quadratic_descent(Adam(learning_rate=0.1)) == pytest.approx(3.0, abs=1e-2)

    def test_adagrad_converges(self):
        assert self._quadratic_descent(Adagrad(learning_rate=1.0), steps=800) == pytest.approx(
            3.0, abs=1e-2
        )

    def test_step_validates_lengths(self):
        with pytest.raises(ConfigurationError):
            Adam().step([np.zeros(2)], [])

    def test_step_validates_shapes(self):
        with pytest.raises(ConfigurationError):
            Adam().step([np.zeros(2)], [np.zeros(3)])

    def test_reset_clears_state(self):
        optimizer = Adam()
        w = np.array([1.0])
        optimizer.step([w], [np.array([0.5])])
        assert optimizer._state
        optimizer.reset()
        assert not optimizer._state

    def test_get_optimizer_by_name(self):
        assert isinstance(get_optimizer("sgd"), SGD)
        assert isinstance(get_optimizer("adam"), Adam)
        assert isinstance(get_optimizer("adagrad"), Adagrad)

    def test_get_optimizer_learning_rate_override(self):
        assert get_optimizer("adam", learning_rate=0.5).learning_rate == 0.5

    def test_get_optimizer_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_optimizer("rmsprop")

    def test_invalid_learning_rate_raises(self):
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.0)

    def test_invalid_momentum_raises(self):
        with pytest.raises(ConfigurationError):
            SGD(momentum=1.5)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-8, float("nan")])
    @pytest.mark.parametrize("cls", [Adam, Adagrad], ids=["adam", "adagrad"])
    def test_invalid_epsilon_raises(self, cls, epsilon):
        """With epsilon = 0 a zero-gradient weight would step by 0 / 0 = NaN."""
        with pytest.raises(ConfigurationError):
            cls(epsilon=epsilon)

    @pytest.mark.parametrize(
        "name, make",
        [
            ("sgd", lambda: (SGD(learning_rate=0.02), {})),
            ("sgd", lambda: (SGD(learning_rate=0.02, momentum=0.9), {"momentum": 0.9})),
            ("adam", lambda: (Adam(learning_rate=0.05), {})),
            ("adagrad", lambda: (Adagrad(learning_rate=0.1), {})),
        ],
        ids=["sgd", "sgd-momentum", "adam", "adagrad"],
    )
    def test_step_matches_reference_update(self, name, make, rng):
        """Stepped directly, the in-place updates equal the textbook
        expressions bit for bit, array by array, zero gradients included."""
        optimizer, options = make()
        reference = ReferenceOptimizer(name, optimizer.learning_rate, **options)
        params = [rng.normal(size=(5, 3)), rng.normal(size=4)]
        expected = [p.copy() for p in params]
        for step in range(12):
            grads = [rng.normal(size=p.shape) for p in params]
            grads[0][0] = 0.0
            optimizer.step(params, grads)
            reference.step(expected, [g.copy() for g in grads])
            for got, want in zip(params, expected):
                assert np.array_equal(got, want), step
