"""Unit tests for the numpy neural network and the model-selection helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.ml.grid_search import GridSearch
from repro.ml.linear import LinearRegression, PolynomialRegression
from repro.ml.network import NetworkConfig, NeuralNetwork
from repro.ml.optimizers import Optimizer
from repro.ml.scaling import MinMaxScaler, StandardScaler
from repro.ml.validation import KFold, RepeatedKFold, train_test_split

from reference_trainer import reference_fit


def _toy_regression(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = np.column_stack([x @ np.array([1.0, -2.0, 0.5]), 2.0 * x[:, 1] + 1.0])
    return x, y


class TestNeuralNetwork:
    def test_fit_predict_shapes(self):
        x, y = _toy_regression()
        net = NeuralNetwork(NetworkConfig(n_layers=2, n_neurons=16, epochs=30, loss="mse", l2=0.0))
        net.fit(x, y)
        assert net.predict(x).shape == y.shape

    def test_learns_linear_relationship(self):
        x, y = _toy_regression()
        net = NeuralNetwork(
            NetworkConfig(n_layers=2, n_neurons=32, epochs=150, learning_rate=0.01, loss="mse", l2=0.0)
        )
        net.fit(x, y)
        residual = np.mean((net.predict(x) - y) ** 2)
        assert residual < 0.05 * np.var(y)

    def test_training_loss_decreases(self):
        x, y = _toy_regression()
        net = NeuralNetwork(NetworkConfig(n_layers=2, n_neurons=16, epochs=60, loss="mse", l2=0.0))
        history = net.fit(x, y)
        assert history.loss[-1] < history.loss[0]

    def test_validation_loss_recorded(self):
        x, y = _toy_regression()
        net = NeuralNetwork(NetworkConfig(n_layers=1, n_neurons=8, epochs=10, loss="mse"))
        history = net.fit(x[:80], y[:80], validation_data=(x[80:], y[80:]))
        assert len(history.validation_loss) == 10

    def test_predict_before_fit_raises(self):
        net = NeuralNetwork()
        with pytest.raises(ModelError):
            net.predict(np.zeros((1, 3)))

    def test_predict_wrong_width_raises(self):
        x, y = _toy_regression()
        net = NeuralNetwork(NetworkConfig(n_layers=1, n_neurons=8, epochs=5))
        net.fit(x, y)
        with pytest.raises(ModelError):
            net.predict(np.zeros((1, 5)))

    def test_deterministic_given_seed(self):
        x, y = _toy_regression()
        config = NetworkConfig(n_layers=2, n_neurons=16, epochs=20, loss="mse", seed=7)
        net_a, net_b = NeuralNetwork(config), NeuralNetwork(config)
        net_a.fit(x, y)
        net_b.fit(x, y)
        assert np.allclose(net_a.predict(x), net_b.predict(x))

    def test_1d_targets_accepted(self):
        x, y = _toy_regression()
        net = NeuralNetwork(NetworkConfig(n_layers=1, n_neurons=8, epochs=5))
        net.fit(x, y[:, 0])
        assert net.predict(x).shape == (len(x), 1)

    def test_weight_roundtrip(self):
        x, y = _toy_regression()
        net = NeuralNetwork(NetworkConfig(n_layers=2, n_neurons=8, epochs=5))
        net.fit(x, y)
        weights = net.get_weights()
        prediction = net.predict(x)
        net.set_weights(weights)
        assert np.allclose(net.predict(x), prediction)

    def test_empty_dataset_raises(self):
        net = NeuralNetwork()
        with pytest.raises(ModelError):
            net.fit(np.zeros((0, 3)), np.zeros((0, 1)))

    def test_invalid_config_raises(self):
        """Invalid configs fail at construction, not inside ``fit``."""
        for field in (
            {"n_layers": 0},
            {"l2": -1.0},
            {"optimizer": "rmsprop"},
            {"loss": "huber"},
            {"activation": "gelu"},
            {"learning_rate": -1.0},
            {"learning_rate": 0.0},
            {"learning_rate": float("nan")},
        ):
            with pytest.raises(ConfigurationError):
                NetworkConfig(**field)
            with pytest.raises(ConfigurationError):
                NetworkConfig().replace(**field)

    def test_config_replace(self):
        config = NetworkConfig()
        modified = config.replace(epochs=42)
        assert modified.epochs == 42
        assert config.epochs != 42 or config.epochs == 200


class TestFlatBufferTrainer:
    """``fit`` trains one flat parameter buffer in place, bit-identical to the
    allocate-per-step reference trainer (``tests/reference_trainer.py``)."""

    #: 70 samples in batches of 16: the last mini-batch of each epoch has 6.
    CONFIG = NetworkConfig(n_layers=2, n_neurons=12, epochs=5, batch_size=16, seed=5)

    @staticmethod
    def _problem():
        rng = np.random.default_rng(11)
        x = rng.normal(size=(90, 4))
        # Positive targets away from zero keep MAPE's gradient well scaled.
        y = np.abs(np.column_stack([x @ [1.0, -2.0, 0.5, 0.1], 2.0 * x[:, 1]])) + 0.5
        return (x[:70], y[:70]), (x[70:], y[70:])

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    @pytest.mark.parametrize("loss", ["mse", "mae", "mape"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "adagrad"])
    def test_matches_reference_trainer(self, optimizer, loss, l2):
        (x, y), validation = self._problem()
        config = self.CONFIG.replace(optimizer=optimizer, loss=loss, l2=l2, learning_rate=0.01)
        net = NeuralNetwork(config)
        history = net.fit(x, y, validation_data=validation)
        reference = reference_fit(config, x, y, validation_data=validation)
        assert len(net.get_weights()) == len(reference.weights) == 3
        for (w, b), (ref_w, ref_b) in zip(net.get_weights(), reference.weights):
            assert np.array_equal(w, ref_w)
            assert np.array_equal(b, ref_b)
        assert history.loss == reference.loss
        assert history.validation_loss == reference.validation_loss
        assert len(history.validation_loss) == config.epochs

    def test_one_optimizer_step_per_mini_batch(self, monkeypatch):
        """``fit`` steps the optimizer once per mini-batch, with one flat array
        holding every parameter and one matching flat gradient array."""
        calls = []
        step = Optimizer.step

        def spy(self, params, grads):
            calls.append((params, grads))
            return step(self, params, grads)

        monkeypatch.setattr(Optimizer, "step", spy)
        (x, y), _ = self._problem()
        net = NeuralNetwork(self.CONFIG)
        net.fit(x, y)
        assert len(calls) == self.CONFIG.epochs * 5  # ceil(70 / 16) mini-batches
        for params, grads in calls:
            assert len(params) == len(grads) == 1
            assert params[0] is net._params and grads[0] is net._grads
        assert net._params.shape == net._grads.shape == (net.n_parameters,)
        for layer in net.layers:
            for view in (layer.weights, layer.biases):
                assert np.shares_memory(view, net._params)
            for view in (layer.grad_weights, layer.grad_biases):
                assert np.shares_memory(view, net._grads)

    def test_set_weights_copies_into_the_flat_buffer(self):
        (x, y), _ = self._problem()
        net = NeuralNetwork(self.CONFIG)
        net.fit(x, y)
        weights = net.get_weights()
        prediction = net.predict(x)
        other = NeuralNetwork(self.CONFIG.replace(seed=9))
        other.fit(x, y)
        net.set_weights(other.get_weights())
        assert np.array_equal(net.predict(x), other.predict(x))
        net.set_weights(weights)
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net._params)
            assert np.shares_memory(layer.biases, net._params)
        assert np.array_equal(net.predict(x), prediction)
        # Weights first, then biases, layer by layer.
        flat = [w.ravel() for w, _ in weights] + [b for _, b in weights]
        assert np.array_equal(net._params, np.concatenate(flat))

    def test_set_weights_with_a_bad_shape_loads_nothing(self):
        (x, y), _ = self._problem()
        net = NeuralNetwork(self.CONFIG)
        net.fit(x, y)
        before = net._params.copy()
        weights = [(w + 1.0, b + 1.0) for w, b in net.get_weights()]
        weights[-1] = (weights[-1][0][:, :1], weights[-1][1])
        with pytest.raises(ModelError):
            net.set_weights(weights)
        assert np.array_equal(net._params, before)


class TestScalers:
    def test_standard_scaler_zero_mean_unit_std(self, rng):
        x = rng.normal(5.0, 3.0, size=(200, 4))
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_column(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(scaled))

    def test_standard_scaler_inverse(self, rng):
        x = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(x)
        assert np.allclose(scaler.inverse_transform(scaler.transform(x)), x)

    def test_minmax_scaler_range(self, rng):
        x = rng.uniform(-5, 9, size=(100, 3))
        scaled = MinMaxScaler().fit_transform(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0 + 1e-12

    def test_scaler_used_before_fit_raises(self):
        with pytest.raises(ModelError):
            StandardScaler().transform(np.zeros((2, 2)))
        with pytest.raises(ModelError):
            MinMaxScaler().transform(np.zeros((2, 2)))


class TestValidation:
    def test_train_test_split_sizes(self, rng):
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        x_train, x_test, y_train, y_test = train_test_split(x, y, test_fraction=0.2, seed=0)
        assert len(x_test) == 10 and len(x_train) == 40
        assert len(y_test) == 10 and len(y_train) == 40

    def test_train_test_split_disjoint(self, rng):
        x = np.arange(30).reshape(-1, 1)
        y = np.arange(30)
        x_train, x_test, _, _ = train_test_split(x, y, test_fraction=0.3, seed=1)
        assert set(x_train.ravel()).isdisjoint(set(x_test.ravel()))

    def test_kfold_covers_all_indices(self):
        fold = KFold(n_splits=5, seed=0)
        seen = []
        for train_idx, test_idx in fold.split(23):
            assert set(train_idx).isdisjoint(set(test_idx))
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(23))

    def test_kfold_too_few_samples_raises(self):
        with pytest.raises(ConfigurationError):
            list(KFold(n_splits=5).split(3))

    def test_repeated_kfold_count(self):
        splitter = RepeatedKFold(n_splits=4, n_repeats=3, seed=0)
        assert len(list(splitter.split(20))) == 12

    def test_invalid_fraction_raises(self, rng):
        with pytest.raises(ConfigurationError):
            train_test_split(rng.normal(size=(10, 1)), rng.normal(size=10), test_fraction=1.5)


class TestLinearModels:
    def test_linear_regression_exact_fit(self):
        x = np.arange(20, dtype=float).reshape(-1, 1)
        y = 3.0 * x.ravel() + 2.0
        model = LinearRegression().fit(x, y)
        assert model.coef_[0, 0] == pytest.approx(3.0, abs=1e-8)
        assert float(model.intercept_[0]) == pytest.approx(2.0, abs=1e-8)

    def test_linear_regression_multi_target(self, rng):
        x = rng.normal(size=(60, 3))
        y = np.column_stack([x @ np.array([1.0, 2.0, 3.0]), x @ np.array([-1.0, 0.0, 1.0])])
        pred = LinearRegression().fit(x, y).predict(x)
        assert np.allclose(pred, y, atol=1e-8)

    def test_ridge_shrinks_coefficients(self, rng):
        x = rng.normal(size=(40, 2))
        y = x @ np.array([5.0, -5.0])
        plain = LinearRegression(alpha=0.0).fit(x, y)
        ridge = LinearRegression(alpha=100.0).fit(x, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(plain.coef_)

    def test_polynomial_regression_fits_quadratic(self):
        x = np.linspace(1, 10, 30)
        y = 2.0 * x**2 - 3.0 * x + 1.0
        model = PolynomialRegression(degree=2).fit(x, y)
        assert np.allclose(model.predict(x), y, rtol=1e-4, atol=1e-4)

    def test_polynomial_needs_enough_points(self):
        with pytest.raises(ModelError):
            PolynomialRegression(degree=3).fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(ModelError):
            LinearRegression().predict(np.zeros((2, 2)))


class TestGridSearch:
    def test_grid_search_finds_better_config(self):
        x, y = _toy_regression(n=60)
        search = GridSearch(
            {"epochs": [2, 60]},
            base_config=NetworkConfig(n_layers=1, n_neurons=8, loss="mse", learning_rate=0.01, l2=0.0),
            n_splits=2,
        )
        result = search.run(x, y)
        assert result.best_config.epochs == 60
        assert len(result.results) == 2

    def test_combinations_cartesian_product(self):
        search = GridSearch({"epochs": [1, 2], "n_layers": [1, 2, 3]})
        assert len(search.combinations()) == 6

    def test_unknown_parameter_raises(self):
        with pytest.raises(ConfigurationError):
            GridSearch({"definitely_not_a_field": [1]})

    def test_empty_grid_raises(self):
        with pytest.raises(ConfigurationError):
            GridSearch({})

    def test_as_table_sorted(self):
        x, y = _toy_regression(n=40)
        search = GridSearch(
            {"epochs": [1, 30]},
            base_config=NetworkConfig(n_layers=1, n_neurons=8, loss="mse", l2=0.0),
            n_splits=2,
        )
        table = search.run(x, y).as_table()
        assert table[0]["score"] <= table[-1]["score"]
