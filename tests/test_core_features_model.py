"""Unit tests for feature engineering, feature selection, and the Sizeless model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.core.feature_selection import SequentialForwardSelection
from repro.core.features import (
    DEFAULT_FEATURE_SET,
    EXTENDED_FEATURE_SET,
    FeatureExtractor,
    feature_set_f0,
    feature_set_f2,
)
from repro.core.model import SizelessModel, SizelessModelConfig, default_network_config
from repro.ml.linear import LinearRegression
from repro.ml.network import NetworkConfig
from repro.monitoring.metrics import PRODUCTION_METRICS


class TestFeatureExtractor:
    def test_default_feature_count(self):
        assert FeatureExtractor().n_features == len(DEFAULT_FEATURE_SET)

    def test_f0_has_25_means(self):
        assert len(feature_set_f0()) == 25
        assert all(name.endswith("_mean") for name in feature_set_f0())

    def test_f2_adds_per_second_features(self):
        features = feature_set_f2(("user_cpu_time", "heap_used"))
        assert "user_cpu_time_per_second" in features
        assert "heap_used_mean" in features

    def test_default_set_only_needs_production_metrics(self):
        extractor = FeatureExtractor()
        required = set(extractor.required_metrics())
        assert required <= set(PRODUCTION_METRICS) | {"execution_time"}

    def test_extended_set_supersets_default(self):
        assert set(DEFAULT_FEATURE_SET) < set(EXTENDED_FEATURE_SET)

    def test_extract_vector(self, sample_summary):
        vector = FeatureExtractor().extract(sample_summary)
        assert vector.shape == (len(DEFAULT_FEATURE_SET),)
        assert np.all(np.isfinite(vector))

    def test_mean_feature_matches_summary(self, sample_summary):
        extractor = FeatureExtractor(("heap_used_mean",))
        assert extractor.extract(sample_summary)[0] == pytest.approx(
            sample_summary.mean("heap_used")
        )

    def test_per_second_feature_normalised_by_execution_time(self, sample_summary):
        extractor = FeatureExtractor(("user_cpu_time_per_second",))
        expected = sample_summary.mean("user_cpu_time") / (
            sample_summary.mean_execution_time_ms / 1000.0
        )
        assert extractor.extract(sample_summary)[0] == pytest.approx(expected)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureExtractor(("bogus_metric_mean",))

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureExtractor(("heap_used_max",))

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureExtractor(("heap_used_mean", "heap_used_mean"))

    def test_subset(self):
        extractor = FeatureExtractor()
        subset = extractor.subset(["heap_used_mean", "execution_time_mean"])
        assert subset.n_features == 2
        with pytest.raises(ConfigurationError):
            extractor.subset(["not_in_set_mean"])


class TestSequentialForwardSelection:
    def _data(self, seed=0, n=80):
        rng = np.random.default_rng(seed)
        informative = rng.normal(size=(n, 2))
        noise = rng.normal(size=(n, 3))
        x = np.hstack([informative, noise])
        y = (2.0 * informative[:, 0] - informative[:, 1]).reshape(-1, 1)
        names = ["signal_a", "signal_b", "noise_a", "noise_b", "noise_c"]
        return x, y, names

    def test_selects_informative_features_first(self):
        x, y, names = self._data()
        selection = SequentialForwardSelection(
            model_factory=lambda: LinearRegression(), n_splits=3, seed=0
        ).run(x, y, names)
        assert set(selection.selection_order[:2]) == {"signal_a", "signal_b"}

    def test_selected_prefix_small(self):
        x, y, names = self._data()
        selection = SequentialForwardSelection(
            model_factory=lambda: LinearRegression(), n_splits=3, tolerance=0.05
        ).run(x, y, names)
        assert len(selection.selected_features) <= 3

    def test_scores_monotone_order_length(self):
        x, y, names = self._data()
        selection = SequentialForwardSelection(
            model_factory=lambda: LinearRegression(), max_features=4
        ).run(x, y, names)
        assert len(selection.scores) == 4
        assert len(selection.curve()) == 4

    def test_shape_validation(self):
        selector = SequentialForwardSelection(model_factory=lambda: LinearRegression())
        with pytest.raises(ConfigurationError):
            selector.run(np.zeros((10, 3)), np.zeros((10, 1)), ["a", "b"])

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SequentialForwardSelection(model_factory=lambda: None, n_splits=1)
        with pytest.raises(ConfigurationError):
            SequentialForwardSelection(model_factory=lambda: None, max_features=0)


class TestSizelessModel:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SizelessModelConfig(base_memory_mb=256, target_memory_sizes_mb=(256, 512))
        with pytest.raises(ConfigurationError):
            SizelessModelConfig(target_memory_sizes_mb=())
        with pytest.raises(ConfigurationError):
            SizelessModelConfig(target_memory_sizes_mb=(512, 512))

    def test_default_network_config_trains_fast_architecture(self):
        config = default_network_config()
        assert config.loss == "mse"
        assert config.n_layers == 3

    def test_fit_predict_roundtrip(self, trained_model, small_matrices):
        ratios = trained_model.predict_ratios(small_matrices.features)
        assert ratios.shape == small_matrices.ratios.shape
        assert np.all(ratios > 0)

    def test_training_fit_quality(self, trained_model, small_matrices):
        """The model must at least fit its own (small) training set reasonably."""
        predicted = trained_model.predict_ratios(small_matrices.features)
        mape = np.mean(np.abs(predicted - small_matrices.ratios) / small_matrices.ratios)
        assert mape < 0.35

    def test_predict_before_fit_raises(self):
        model = SizelessModel()
        with pytest.raises(ModelError):
            model.predict_ratios(np.zeros(len(DEFAULT_FEATURE_SET)))

    def test_fit_validates_shapes(self, small_matrices, tiny_network_config):
        model = SizelessModel(SizelessModelConfig(network=tiny_network_config))
        with pytest.raises(ModelError):
            model.fit(small_matrices.features, small_matrices.ratios[:, :2])

    def test_fit_rejects_nonpositive_ratios(self, small_matrices, tiny_network_config):
        model = SizelessModel(
            SizelessModelConfig(
                feature_names=small_matrices.feature_names, network=tiny_network_config
            )
        )
        bad = small_matrices.ratios.copy()
        bad[0, 0] = 0.0
        with pytest.raises(ModelError):
            model.fit(small_matrices.features, bad)

    def test_predict_execution_times_includes_base(self, trained_model, sample_summary):
        times = trained_model.predict_execution_times(sample_summary)
        assert set(times) == {128, 256, 512, 1024, 2048, 3008}
        assert times[256] == pytest.approx(sample_summary.mean_execution_time_ms)
        assert all(value > 0 for value in times.values())

    def test_predict_execution_times_wrong_base_raises(self, trained_model, small_dataset):
        summary_512 = small_dataset.measurements[0].summary_at(512)
        with pytest.raises(ModelError):
            trained_model.predict_execution_times(summary_512)

    def test_single_row_prediction(self, trained_model, small_matrices):
        single = trained_model.predict_ratios(small_matrices.features[0])
        assert single.shape == (len(small_matrices.target_memory_sizes_mb),)

    def test_get_state_requires_fit(self):
        with pytest.raises(ModelError):
            SizelessModel().get_state()

    def test_log_targets_off_also_works(self, small_matrices):
        config = SizelessModelConfig(
            feature_names=small_matrices.feature_names,
            network=NetworkConfig(n_layers=2, n_neurons=16, epochs=60, loss="mse", l2=0.0001,
                                  learning_rate=0.01),
            log_targets=False,
        )
        model = SizelessModel(config)
        model.fit(small_matrices.features, small_matrices.ratios)
        assert np.all(model.predict_ratios(small_matrices.features) > 0)
