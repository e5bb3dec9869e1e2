"""Feed-forward neural network (multi-layer perceptron) for multi-target regression.

This is the model family explored by the paper's grid search (Table 2):

- 2-5 hidden layers of 64/128/256 neurons (ReLU),
- MSE / MAE / MAPE loss,
- SGD / Adam / Adagrad optimizer,
- L2 regularisation of 0 to 1e-2,
- 200-1000 training epochs.

The implementation is plain numpy with explicit forward/backward passes and
mini-batch training; it is deliberately small but complete (training history,
input standardisation, weight export/import) so the rest of the library never
needs an external deep-learning framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ModelError
from repro.ml.activations import get_activation
from repro.ml.layers import DenseLayer
from repro.ml.losses import get_loss
from repro.ml.optimizers import get_optimizer
from repro.ml.scaling import StandardScaler


@dataclass(frozen=True)
class NetworkConfig:
    """Hyperparameters of the multi-layer perceptron.

    The defaults correspond to the configuration the paper's grid search
    selects: Adam optimizer, MAPE loss, 200 epochs, 256 neurons, L2 = 1e-2,
    four hidden layers (Table 2).
    """

    n_layers: int = 4
    n_neurons: int = 256
    activation: str = "relu"
    optimizer: str = "adam"
    learning_rate: float = 0.001
    loss: str = "mape"
    epochs: int = 200
    batch_size: int = 32
    l2: float = 0.01
    standardize_inputs: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ConfigurationError("n_layers must be at least 1")
        if self.n_neurons < 1:
            raise ConfigurationError("n_neurons must be at least 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.l2 < 0:
            raise ConfigurationError("l2 must be non-negative")
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be positive")
        # Unknown names fail here, not inside fit after the scaler has run.
        get_activation(self.activation)
        get_loss(self.loss)
        get_optimizer(self.optimizer)

    def replace(self, **kwargs: Any) -> "NetworkConfig":
        """Return a copy of this config with the given fields overridden."""
        values = {**self.__dict__, **kwargs}
        return NetworkConfig(**values)


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics recorded by :meth:`NeuralNetwork.fit`."""

    loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        """Training loss of the last epoch (NaN if fit was never called)."""
        return self.loss[-1] if self.loss else float("nan")


class NeuralNetwork:
    """Multi-layer perceptron for (multi-target) regression.

    Parameters
    ----------
    config:
        Hyperparameters; see :class:`NetworkConfig`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.ml import NeuralNetwork, NetworkConfig
    >>> rng = np.random.default_rng(0)
    >>> x = rng.normal(size=(64, 3))
    >>> y = x @ np.array([[1.0], [2.0], [-1.0]])
    >>> net = NeuralNetwork(NetworkConfig(n_layers=2, n_neurons=32, epochs=50,
    ...                                   loss="mse", l2=0.0, seed=1))
    >>> _ = net.fit(x, y)
    >>> net.predict(x).shape
    (64, 1)
    """

    def __init__(self, config: NetworkConfig | None = None) -> None:
        self.config = config if config is not None else NetworkConfig()
        self.layers: list[DenseLayer] = []
        self.history = TrainingHistory()
        self._scaler: StandardScaler | None = None
        self._n_inputs: int | None = None
        self._n_outputs: int | None = None
        self._fitted = False

    # ------------------------------------------------------------------ build
    def _build(self, n_inputs: int, n_outputs: int) -> None:
        rng = np.random.default_rng(self.config.seed)
        layers = []
        fan_in = n_inputs
        for _ in range(self.config.n_layers):
            layers.append(
                DenseLayer(fan_in, self.config.n_neurons, self.config.activation, rng=rng)
            )
            fan_in = self.config.n_neurons
        layers.append(DenseLayer(fan_in, n_outputs, "linear", rng=rng))
        # One flat buffer holds every layer's weights, then every layer's
        # biases, and a matching flat buffer their gradients; the layers keep
        # views into both.  An optimizer step is then one set of passes over
        # contiguous memory, and the L2 term one pass over the weight slice.
        arrays = [layer.weights for layer in layers] + [layer.biases for layer in layers]
        cuts = np.cumsum([array.size for array in arrays])[:-1]
        self._params = np.concatenate([array.ravel() for array in arrays])
        self._grads = np.zeros_like(self._params)
        self._n_weights = int(cuts[len(layers) - 1])
        self._l2_scratch = np.empty(self._n_weights)

        def views(buffer: np.ndarray) -> list[np.ndarray]:
            return [part.reshape(a.shape) for part, a in zip(np.split(buffer, cuts), arrays)]

        params, grads = views(self._params), views(self._grads)
        n = len(layers)
        for i, layer in enumerate(layers):
            layer.weights, layer.biases = params[i], params[n + i]
            layer.grad_weights, layer.grad_biases = grads[i], grads[n + i]
        self.layers = layers
        self._n_inputs = n_inputs
        self._n_outputs = n_outputs

    @property
    def n_parameters(self) -> int:
        """Total number of trainable scalars across all layers."""
        return sum(layer.n_parameters for layer in self.layers)

    # ---------------------------------------------------------------- forward
    def _forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def _apply_l2(self) -> None:
        if self.config.l2 <= 0:
            return
        n = self._n_weights
        np.multiply(self.config.l2, self._params[:n], out=self._l2_scratch)
        self._grads[:n] += self._l2_scratch

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        validation_data: tuple[np.ndarray, np.ndarray] | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train the network with mini-batch gradient descent.

        Parameters
        ----------
        x:
            Feature matrix of shape ``(n_samples, n_features)``.
        y:
            Targets of shape ``(n_samples,)`` or ``(n_samples, n_targets)``.
        validation_data:
            Optional ``(x_val, y_val)`` pair; the validation loss is recorded
            per epoch in :attr:`history`.
        verbose:
            Print the loss every 50 epochs (used by the examples only).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        if x.ndim != 2 or y.ndim != 2:
            raise ModelError("fit expects 2-D x and 1-D or 2-D y")
        if len(x) != len(y):
            raise ModelError("x and y must contain the same number of samples")
        if len(x) == 0:
            raise ModelError("cannot fit on an empty dataset")

        if self.config.standardize_inputs:
            self._scaler = StandardScaler().fit(x)
            x_scaled = self._scaler.transform(x)
        else:
            self._scaler = None
            x_scaled = x

        self._build(x.shape[1], y.shape[1])
        loss_fn = get_loss(self.config.loss)
        optimizer = get_optimizer(self.config.optimizer, self.config.learning_rate)
        rng = np.random.default_rng(self.config.seed + 1)
        self.history = TrainingHistory()

        n = len(x_scaled)
        batch_size = min(self.config.batch_size, n)
        for epoch in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                batch_idx = order[start : start + batch_size]
                xb = x_scaled[batch_idx]
                yb = y[batch_idx]
                pred = self._forward(xb, training=True)
                epoch_losses.append(loss_fn.value(yb, pred))
                grad = loss_fn.gradient(yb, pred)
                self._backward(grad)
                self._apply_l2()
                optimizer.step([self._params], [self._grads])
            self.history.loss.append(float(np.mean(epoch_losses)))
            if validation_data is not None:
                x_val, y_val = validation_data
                y_val = np.asarray(y_val, dtype=float)
                if y_val.ndim == 1:
                    y_val = y_val.reshape(-1, 1)
                val_pred = self._predict_scaled(np.asarray(x_val, dtype=float))
                self.history.validation_loss.append(loss_fn.value(y_val, val_pred))
            if verbose and (epoch % 50 == 0 or epoch == self.config.epochs - 1):
                print(f"epoch {epoch:4d}  loss={self.history.loss[-1]:.5f}")

        self._fitted = True
        return self.history

    # ---------------------------------------------------------------- predict
    def _predict_scaled(self, x: np.ndarray) -> np.ndarray:
        if self._scaler is not None:
            x = self._scaler.transform(x)
        return self._forward(x, training=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for ``x``; shape ``(n_samples, n_targets)``."""
        if not self._fitted:
            raise ModelError("predict() called before fit()")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self._n_inputs:
            raise ModelError(
                f"expected {self._n_inputs} features, got {x.shape[1]}"
            )
        return self._predict_scaled(x)

    # ------------------------------------------------------------ persistence
    def get_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return copies of each layer's ``(weights, biases)``."""
        return [(layer.weights.copy(), layer.biases.copy()) for layer in self.layers]

    def set_weights(self, weights: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Load weights previously produced by :meth:`get_weights`.

        The values are copied into the layers' views of the flat parameter
        buffer; nothing is loaded unless every shape matches.
        """
        if len(weights) != len(self.layers):
            raise ModelError(
                f"expected {len(self.layers)} layer weight pairs, got {len(weights)}"
            )
        pairs = [(np.asarray(w, dtype=float), np.asarray(b, dtype=float)) for w, b in weights]
        for layer, (w, b) in zip(self.layers, pairs):
            if layer.weights.shape != w.shape or layer.biases.shape != b.shape:
                raise ModelError("weight shapes do not match the network architecture")
        for layer, (w, b) in zip(self.layers, pairs):
            layer.weights[...] = w
            layer.biases[...] = b

    def __repr__(self) -> str:
        return (
            f"NeuralNetwork(layers={self.config.n_layers}, neurons={self.config.n_neurons}, "
            f"loss={self.config.loss!r}, optimizer={self.config.optimizer!r}, "
            f"fitted={self._fitted})"
        )
