"""Unit tests for resource profiles, service models, variability and cold starts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.simulation.coldstart import ColdStartModel
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.simulation.services import ServiceCatalog, ServiceModel
from repro.simulation.variability import VariabilityModel


class TestServiceCall:
    def test_defaults(self):
        call = ServiceCall("dynamodb")
        assert call.calls == 1 and call.operation == "invoke"

    def test_invalid_values_raise(self):
        with pytest.raises(WorkloadError):
            ServiceCall("")
        with pytest.raises(WorkloadError):
            ServiceCall("s3", request_bytes=-1)
        with pytest.raises(WorkloadError):
            ServiceCall("s3", calls=0)

    def test_scaled(self):
        call = ServiceCall("s3", calls=2).scaled(3)
        assert call.calls == 6


class TestResourceProfile:
    def test_negative_values_rejected(self):
        with pytest.raises(WorkloadError):
            ResourceProfile(cpu_user_ms=-1.0)

    def test_blocking_fraction_bounds(self):
        with pytest.raises(WorkloadError):
            ResourceProfile(blocking_fraction=1.5)

    def test_combine_adds_cpu_and_bytes(self, cpu_profile, service_profile):
        combined = cpu_profile.combine(service_profile)
        assert combined.cpu_user_ms == pytest.approx(
            cpu_profile.cpu_user_ms + service_profile.cpu_user_ms
        )
        assert combined.total_service_calls == service_profile.total_service_calls

    def test_combine_working_set_not_additive(self, cpu_profile):
        combined = cpu_profile.combine(cpu_profile)
        assert combined.memory_working_set_mb < 2 * cpu_profile.memory_working_set_mb
        assert combined.memory_working_set_mb >= cpu_profile.memory_working_set_mb

    def test_combine_blocking_fraction_weighted(self):
        a = ResourceProfile(cpu_user_ms=100.0, blocking_fraction=1.0)
        b = ResourceProfile(cpu_user_ms=100.0, blocking_fraction=0.0)
        assert a.combine(b).blocking_fraction == pytest.approx(0.5)

    def test_compose_empty_raises(self):
        with pytest.raises(WorkloadError):
            ResourceProfile.compose([])

    def test_compose_order_independent_totals(self, cpu_profile, service_profile):
        forward = ResourceProfile.compose([cpu_profile, service_profile])
        backward = ResourceProfile.compose([service_profile, cpu_profile])
        assert forward.total_cpu_ms == pytest.approx(backward.total_cpu_ms)

    def test_describe_contains_key_fields(self, cpu_profile):
        description = cpu_profile.describe()
        assert "cpu_user_ms" in description and "service_calls" in description


class TestServiceCatalog:
    def test_default_catalog_has_paper_services(self):
        catalog = ServiceCatalog.default()
        for service in ("dynamodb", "s3", "sns", "sqs", "rekognition", "aurora", "kinesis"):
            assert service in catalog.service_names

    def test_unknown_service_raises(self):
        with pytest.raises(SimulationError):
            ServiceCatalog.default().get("no-such-service")

    def test_register_and_overwrite(self):
        catalog = ServiceCatalog.default()
        model = ServiceModel("custom", base_latency_ms=5.0)
        catalog.register(model)
        assert catalog.get("custom") is model
        with pytest.raises(ConfigurationError):
            catalog.register(ServiceModel("custom", base_latency_ms=9.0))
        catalog.register(ServiceModel("custom", base_latency_ms=9.0), overwrite=True)
        assert catalog.get("custom").base_latency_ms == 9.0

    def test_mean_latency_scales_with_calls(self):
        catalog = ServiceCatalog.default()
        one = catalog.mean_latency_ms(ServiceCall("dynamodb", calls=1))
        three = catalog.mean_latency_ms(ServiceCall("dynamodb", calls=3))
        assert three == pytest.approx(3 * one)

    def test_operation_factor_applied(self):
        catalog = ServiceCatalog.default()
        get = catalog.mean_latency_ms(ServiceCall("dynamodb", "get_item"))
        scan = catalog.mean_latency_ms(ServiceCall("dynamodb", "scan"))
        assert scan > get

    def test_sampled_latency_positive_and_near_mean(self, rng):
        catalog = ServiceCatalog.default()
        call = ServiceCall("s3", "get_object", response_bytes=1024)
        samples = [catalog.sample_latency_ms(call, rng) for _ in range(300)]
        assert min(samples) > 0
        assert np.mean(samples) == pytest.approx(catalog.mean_latency_ms(call), rel=0.15)

    def test_service_model_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceModel("x", base_latency_ms=-1.0)


class TestVariabilityModel:
    def test_noise_factors_mean_one(self, rng):
        model = VariabilityModel()
        samples = np.array([model.cpu_factor(rng) for _ in range(4000)])
        assert np.mean(samples) == pytest.approx(1.0, rel=0.05)

    def test_none_model_is_deterministic(self, rng):
        model = VariabilityModel.none()
        assert model.cpu_factor(rng) == 1.0
        assert model.tail_factor(rng) == 1.0
        assert model.drift_factor(12345.0) == 1.0

    def test_tail_factor_values(self, rng):
        model = VariabilityModel(tail_probability=0.5, tail_multiplier=3.0)
        values = {model.tail_factor(rng) for _ in range(200)}
        assert values <= {1.0, 3.0}
        assert len(values) == 2

    def test_drift_bounded(self):
        model = VariabilityModel(drift_amplitude=0.05)
        drifts = [model.drift_factor(t) for t in range(0, 7200, 60)]
        assert max(drifts) <= 1.05 + 1e-9 and min(drifts) >= 0.95 - 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            VariabilityModel(cpu_noise_cv=-0.1)
        with pytest.raises(ConfigurationError):
            VariabilityModel(tail_probability=1.5)
        with pytest.raises(ConfigurationError):
            VariabilityModel(tail_multiplier=0.5)
        # NaN passes every range check, so each field is checked finite:
        # a NaN CPU or straggler factor would otherwise reach the kernel.
        for name in (
            "cpu_noise_cv", "counter_noise_cv", "tail_probability",
            "tail_multiplier", "drift_amplitude",
        ):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ConfigurationError, match=name):
                    VariabilityModel(**{name: value})


class TestColdStartModel:
    def test_duration_decreases_with_cpu_share(self):
        model = ColdStartModel(noise_cv=0.0)
        slow = model.duration_ms(128, 512.0, cpu_share=0.07)
        fast = model.duration_ms(2048, 512.0, cpu_share=1.2)
        assert slow > fast

    def test_duration_grows_with_code_size(self):
        model = ColdStartModel(noise_cv=0.0)
        small = model.duration_ms(512, 100.0, cpu_share=0.3)
        large = model.duration_ms(512, 10_000.0, cpu_share=0.3)
        assert large > small

    def test_invalid_arguments(self):
        model = ColdStartModel()
        with pytest.raises(ConfigurationError):
            model.duration_ms(0, 100.0, 0.5)
        with pytest.raises(ConfigurationError):
            model.duration_ms(128, -1.0, 0.5)
        # A NaN keep-alive would never expire a worker, and a NaN init or
        # noise would reach every cold start.
        for name in (
            "base_init_ms", "runtime_init_ms", "code_load_ms_per_mb",
            "keep_alive_s", "noise_cv",
        ):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ConfigurationError, match=name):
                    ColdStartModel(**{name: value})
