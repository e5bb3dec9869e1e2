"""Gradient-descent optimizers from the paper's hyperparameter grid (Table 2).

The grid considers SGD, Adam, and Adagrad; the grid search selects Adam.  Each
optimizer holds per-parameter state keyed by the identity of the parameter
array, so the same optimizer instance can drive several arrays (a network
passes its one flat parameter buffer).  Updates run in place through scratch
arrays kept in that state, with the same ufuncs on the same operands in the
same order as the textbook expressions quoted in each ``_update``, so every
rounding matches them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class Optimizer:
    """Base class: updates parameter arrays in place from their gradients."""

    name = "optimizer"

    def __init__(self, learning_rate: float = 0.001) -> None:
        if not learning_rate > 0:
            raise ConfigurationError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self._state: dict[int, dict[str, np.ndarray]] = {}

    def reset(self) -> None:
        """Drop all accumulated per-parameter state (e.g. between CV folds)."""
        self._state.clear()

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update every parameter array in place using its gradient."""
        if len(params) != len(grads):
            raise ConfigurationError("params and grads must have equal length")
        for param, grad in zip(params, grads):
            if param.shape != grad.shape:
                raise ConfigurationError(
                    f"parameter shape {param.shape} != gradient shape {grad.shape}"
                )
            self._update(param, grad)

    def _update(self, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _param_state(self, param: np.ndarray) -> dict[str, np.ndarray]:
        return self._state.setdefault(id(param), {})

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(learning_rate={self.learning_rate})"


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    name = "sgd"

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        self.momentum = float(momentum)

    def _update(self, param: np.ndarray, grad: np.ndarray) -> None:
        # param -= lr * grad, or with momentum:
        # velocity = momentum * velocity - lr * grad; param += velocity
        state = self._param_state(param)
        if not state:
            state["scratch"] = np.empty_like(param)
            if self.momentum != 0.0:
                state["velocity"] = np.zeros_like(param)
        step = np.multiply(self.learning_rate, grad, out=state["scratch"])
        if self.momentum == 0.0:
            param -= step
            return
        velocity = state["velocity"]
        velocity *= self.momentum
        velocity -= step
        param += velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) — the paper's selected optimizer."""

    name = "adam"

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must be in [0, 1)")
        if not epsilon > 0:  # a zero-gradient entry would step by 0 / 0
            raise ConfigurationError("epsilon must be positive")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _update(self, param: np.ndarray, grad: np.ndarray) -> None:
        # m = beta1 * m + (1 - beta1) * grad
        # v = beta2 * v + (1 - beta2) * grad * grad
        # param -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + epsilon)
        state = self._param_state(param)
        if not state:
            state["m"] = np.zeros_like(param)
            state["v"] = np.zeros_like(param)
            state["t"] = np.zeros(1)
            state["s1"], state["s2"] = np.empty_like(param), np.empty_like(param)
        state["t"] += 1
        t = float(state["t"][0])
        m, v, s1, s2 = state["m"], state["v"], state["s1"], state["s2"]
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=s1)
        np.multiply(1.0 - self.beta2, grad, out=s1)
        s1 *= grad
        v *= self.beta2
        v += s1
        np.divide(m, 1.0 - self.beta1**t, out=s1)
        s1 *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.epsilon
        s1 /= s2
        param -= s1


class Adagrad(Optimizer):
    """Adagrad optimizer with per-parameter adaptive learning rates."""

    name = "adagrad"

    def __init__(self, learning_rate: float = 0.01, epsilon: float = 1e-8) -> None:
        super().__init__(learning_rate)
        if not epsilon > 0:  # a zero-gradient entry would step by 0 / 0
            raise ConfigurationError("epsilon must be positive")
        self.epsilon = float(epsilon)

    def _update(self, param: np.ndarray, grad: np.ndarray) -> None:
        # accumulated = accumulated + grad * grad
        # param -= lr * grad / (sqrt(accumulated) + epsilon)
        state = self._param_state(param)
        if not state:
            state["accumulated"] = np.zeros_like(param)
            state["s1"], state["s2"] = np.empty_like(param), np.empty_like(param)
        accumulated, s1, s2 = state["accumulated"], state["s1"], state["s2"]
        accumulated += np.multiply(grad, grad, out=s1)
        np.multiply(self.learning_rate, grad, out=s1)
        np.sqrt(accumulated, out=s2)
        s2 += self.epsilon
        s1 /= s2
        param -= s1


_OPTIMIZERS: dict[str, type[Optimizer]] = {
    "sgd": SGD,
    "adam": Adam,
    "adagrad": Adagrad,
}


def get_optimizer(name: str | Optimizer, learning_rate: float | None = None) -> Optimizer:
    """Resolve an optimizer by name, optionally overriding the learning rate."""
    if isinstance(name, Optimizer):
        return name
    key = str(name).lower()
    if key not in _OPTIMIZERS:
        raise ConfigurationError(
            f"unknown optimizer {name!r}; expected one of {sorted(_OPTIMIZERS)}"
        )
    cls = _OPTIMIZERS[key]
    if learning_rate is None:
        return cls()
    return cls(learning_rate=learning_rate)
