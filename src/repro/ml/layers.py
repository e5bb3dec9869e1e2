"""Dense (fully connected) layer with explicit forward/backward passes."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ModelError
from repro.ml.activations import Activation, get_activation
from repro.ml.initializers import get_initializer


class DenseLayer:
    """A fully connected layer ``y = activation(x @ W + b)``.

    Parameters
    ----------
    n_inputs:
        Number of input features.
    n_outputs:
        Number of output units.
    activation:
        Activation name or instance (default ``"relu"``).
    initializer:
        Weight initialiser name (default ``"he_normal"``).
    rng:
        Random generator used for weight initialisation.
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        activation: str | Activation = "relu",
        initializer: str = "he_normal",
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_inputs <= 0 or n_outputs <= 0:
            raise ConfigurationError("layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        self.activation = get_activation(activation)
        self.weights = get_initializer(initializer)(rng, self.n_inputs, self.n_outputs)
        self.biases = np.zeros(self.n_outputs)

        # Gradients written in place by backward().
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_biases = np.zeros_like(self.biases)

        # Forward-pass cache used by backward().
        self._last_input: np.ndarray | None = None
        self._last_preactivation: np.ndarray | None = None

    @property
    def n_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return self.weights.size + self.biases.size

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch ``x`` of shape (n, n_inputs)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise ModelError(
                f"expected input of shape (n, {self.n_inputs}), got {x.shape}"
            )
        if training:
            preactivation = x @ self.weights + self.biases
            self._last_input = x
            self._last_preactivation = preactivation
        else:
            # Inference uses einsum without contraction optimization: unlike
            # BLAS GEMM (whose accumulation order depends on the batch shape)
            # its inner-product kernel computes row i of a batch exactly as
            # it computes that row alone.  This row-stability is what makes
            # the fleet batch-prediction API bit-identical to per-function
            # predictions; training keeps the faster GEMM path, where
            # row-stability is irrelevant.
            preactivation = np.einsum("nf,fh->nh", x, self.weights) + self.biases
        return self.activation.forward(preactivation)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the gradient w.r.t. the input.

        Also writes ``grad_weights`` / ``grad_biases`` in place, so a network
        that bound them to views of its flat gradient buffer sees them there.
        They are batch sums: no 1/n averaging happens here, because the loss
        gradient already carries the 1/n factor.
        """
        if self._last_input is None or self._last_preactivation is None:
            raise ModelError("backward() called before a training forward() pass")
        grad_pre = self.activation.backward(self._last_preactivation, grad_output)
        np.matmul(self._last_input.T, grad_pre, out=self.grad_weights)
        np.sum(grad_pre, axis=0, out=self.grad_biases)
        return grad_pre @ self.weights.T

    def __repr__(self) -> str:
        return (
            f"DenseLayer(n_inputs={self.n_inputs}, n_outputs={self.n_outputs}, "
            f"activation={self.activation.name!r})"
        )
