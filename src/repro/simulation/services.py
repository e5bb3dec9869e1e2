"""Managed-service and external-API latency models.

The synthetic function segments and the four case-study applications call a
range of managed services: DynamoDB, S3, SNS, SQS, API Gateway, Step
Functions, Kinesis, Aurora, Rekognition and arbitrary external HTTP APIs.
The defining property exploited by the paper is that *service-side* latency
does not change with the calling function's memory size — only the transfer
of the request/response payloads through the function's (memory-scaled)
network interface does.  :class:`ServiceModel` captures the service-side part;
the payload transfer is added by :mod:`repro.simulation.execution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.profile import ServiceCall
from repro.simulation.seeding import MAX_SERVICE_DRAWS


@dataclass(frozen=True)
class ServiceModel:
    """Latency model of a single managed service.

    Attributes
    ----------
    name:
        Service identifier used by :class:`ServiceCall.service`.
    base_latency_ms:
        Median service-side latency of one call.
    per_kb_ms:
        Additional service-side processing latency per KB of request +
        response payload (e.g. S3 object streaming, Rekognition image size).
    latency_cv:
        Coefficient of variation of the per-call latency noise.
    operation_factors:
        Optional per-operation multipliers on the base latency
        (e.g. ``{"put_item": 1.4}``).
    """

    name: str
    base_latency_ms: float
    per_kb_ms: float = 0.0
    latency_cv: float = 0.2
    operation_factors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.base_latency_ms < 0 or self.per_kb_ms < 0:
            raise ConfigurationError("service latencies must be non-negative")
        if self.latency_cv < 0:
            raise ConfigurationError("latency_cv must be non-negative")

    def mean_latency_ms(self, call: ServiceCall) -> float:
        """Expected service-side latency of one call (excluding noise)."""
        factor = self.operation_factors.get(call.operation, 1.0)
        payload_kb = (call.request_bytes + call.response_bytes) / 1024.0
        return float(factor * self.base_latency_ms + self.per_kb_ms * payload_kb)

    def draws(self, call: ServiceCall) -> bool:
        """Whether a call's latency is noisy (a positive CV and a positive mean)."""
        return self.latency_cv > 0 and self.mean_latency_ms(call) > 0

    def sample_latency_ms(self, call: ServiceCall, z: float) -> float:
        """The service-side latency of one call, ``mean * exp(-sigma**2 / 2 + sigma * z)``.

        ``z`` is the call's standard normal (stream contract v2); a call
        that does not :meth:`draw <draws>` returns its mean.
        """
        mean = self.mean_latency_ms(call)
        if not self.draws(call):
            return mean
        sigma = float(np.sqrt(np.log(1.0 + self.latency_cv**2)))
        return float(mean * np.exp(-0.5 * sigma * sigma + sigma * z))


def _default_services() -> dict[str, ServiceModel]:
    """The managed services used by the paper's segments and case studies."""
    models = [
        ServiceModel("dynamodb", base_latency_ms=6.0, per_kb_ms=0.15, latency_cv=0.25,
                     operation_factors={"put_item": 1.4, "query": 1.6, "scan": 3.0}),
        ServiceModel("s3", base_latency_ms=22.0, per_kb_ms=0.02, latency_cv=0.3,
                     operation_factors={"put_object": 1.5, "list_objects": 1.2}),
        ServiceModel("sns", base_latency_ms=14.0, per_kb_ms=0.05, latency_cv=0.25),
        ServiceModel("sqs", base_latency_ms=10.0, per_kb_ms=0.05, latency_cv=0.25),
        ServiceModel("api_gateway", base_latency_ms=8.0, per_kb_ms=0.02, latency_cv=0.2),
        ServiceModel("step_functions", base_latency_ms=25.0, per_kb_ms=0.02, latency_cv=0.3),
        ServiceModel("kinesis", base_latency_ms=16.0, per_kb_ms=0.04, latency_cv=0.25),
        ServiceModel("aurora", base_latency_ms=9.0, per_kb_ms=0.10, latency_cv=0.25,
                     operation_factors={"insert": 1.3, "join_query": 2.5}),
        ServiceModel("rekognition", base_latency_ms=650.0, per_kb_ms=0.5, latency_cv=0.2,
                     operation_factors={"index_faces": 1.4, "search_faces": 1.1}),
        ServiceModel("ses", base_latency_ms=60.0, per_kb_ms=0.05, latency_cv=0.3),
        ServiceModel("external_api", base_latency_ms=120.0, per_kb_ms=0.01, latency_cv=0.35),
        ServiceModel("payment_provider", base_latency_ms=240.0, per_kb_ms=0.01, latency_cv=0.3),
        ServiceModel("cloudwatch", base_latency_ms=12.0, per_kb_ms=0.02, latency_cv=0.25),
    ]
    return {model.name: model for model in models}


class ServiceCatalog:
    """Registry of :class:`ServiceModel` instances known to the platform."""

    def __init__(self, models: dict[str, ServiceModel] | None = None) -> None:
        self._models = dict(_default_services() if models is None else models)
        # Batch-draw rows per distinct service-call tuple (see batch_rows);
        # invalidated when models change.
        self._batch_rows: dict[tuple[ServiceCall, ...], tuple] = {}

    @property
    def service_names(self) -> list[str]:
        """Sorted list of registered service names."""
        return sorted(self._models)

    def register(self, model: ServiceModel, overwrite: bool = False) -> None:
        """Add a service model; refuses to silently replace one unless asked."""
        if model.name in self._models and not overwrite:
            raise ConfigurationError(
                f"service {model.name!r} already registered (pass overwrite=True)"
            )
        self._models[model.name] = model
        self._batch_rows.clear()

    def get(self, name: str) -> ServiceModel:
        """Return the model for ``name`` or raise :class:`SimulationError`."""
        try:
            return self._models[name]
        except KeyError:
            raise SimulationError(
                f"unknown service {name!r}; registered: {self.service_names}"
            ) from None

    def mean_latency_ms(self, call: ServiceCall) -> float:
        """Expected total service-side latency for all ``call.calls`` calls."""
        return self.get(call.service).mean_latency_ms(call) * call.calls

    def draws(self, call: ServiceCall) -> bool:
        """Whether ``call`` draws noise: then each of its ``call.calls`` calls reads one normal."""
        return self.get(call.service).draws(call)

    def sample_latency_ms(self, call: ServiceCall, normals) -> float:
        """The total service-side latency of all ``call.calls`` calls.

        ``normals`` holds one standard normal per call (read only when the
        call :meth:`draws`).
        """
        model = self.get(call.service)
        if not model.draws(call):
            return model.mean_latency_ms(call) * call.calls
        return float(sum(model.sample_latency_ms(call, z) for z in normals[: call.calls]))

    def batch_rows(
        self, calls: tuple[ServiceCall, ...]
    ) -> tuple[float, np.ndarray | None, np.ndarray | None]:
        """``(fixed_ms, mean_row, sigma_row)`` of one distinct call tuple.

        ``fixed_ms`` sums the calls the scalar sampler never draws for (zero
        CV or zero mean); ``mean_row``/``sigma_row`` hold one entry per drawn
        call, repeated ``call.calls`` times, or ``None`` when every call is
        fixed.  The grouped execution kernel reads the standard normals of
        the service sources (the ``c``-th drawn call is source ``16 + c`` of
        stream contract v2, :mod:`repro.simulation.seeding`) and adds
        ``(mean_row * exp(-sigma_row**2 / 2 + sigma_row * z)).sum(axis=1)``
        to ``fixed_ms``.  Cached per distinct call tuple; a tuple with more
        than :data:`~repro.simulation.seeding.MAX_SERVICE_DRAWS` drawn calls
        raises :class:`~repro.errors.SimulationError`.
        """
        rows = self._batch_rows.get(calls)
        if rows is None:
            fixed = 0.0
            means: list[float] = []
            sigmas: list[float] = []
            for call in calls:
                model = self.get(call.service)
                mean = model.mean_latency_ms(call)
                if not model.draws(call):
                    # The scalar sampler returns the mean without a draw.
                    fixed += mean * call.calls
                    continue
                sigma = float(np.sqrt(np.log(1.0 + model.latency_cv**2)))
                means.extend([mean] * call.calls)
                sigmas.extend([sigma] * call.calls)
            if len(means) > MAX_SERVICE_DRAWS:
                raise SimulationError(
                    f"{len(means)} drawn service calls per invocation; the "
                    f"noise contract keys at most {MAX_SERVICE_DRAWS}"
                )
            rows = (
                fixed,
                np.asarray(means) if means else None,
                np.asarray(sigmas) if means else None,
            )
            self._batch_rows[calls] = rows
        return rows

    @staticmethod
    def default() -> "ServiceCatalog":
        """Catalog with the default AWS-like service models."""
        return ServiceCatalog()
