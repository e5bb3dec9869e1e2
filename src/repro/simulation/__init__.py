"""Serverless platform simulator standing in for AWS Lambda.

The paper measures 2 000 synthetic functions and four case-study applications
on AWS Lambda.  This package provides the substitute substrate: a simulator
that reproduces the *causal structure* those measurements expose —

- CPU, I/O and network capacity allocated to a worker scale with the selected
  memory size (:mod:`repro.simulation.scaling`),
- calls to managed services and external APIs have latencies that do *not*
  scale with the function's memory size (:mod:`repro.simulation.services`),
- functions whose working set barely fits the memory limit pay pressure
  penalties that disappear at larger sizes,
- every invocation is billed with the provider's GB-second pricing scheme
  (:mod:`repro.simulation.pricing`),
- invocations exhibit realistic run-to-run variability
  (:mod:`repro.simulation.variability`), cold starts
  (:mod:`repro.simulation.coldstart`) and produce the 25 Node.js runtime
  metrics of paper Table 1 (:mod:`repro.simulation.runtime`).

The entry points are :class:`~repro.simulation.platform.ServerlessPlatform`
(deploy + invoke) and the lower-level
:func:`~repro.simulation.execution.simulate_execution`.
"""

from repro.simulation.coldstart import ColdStartModel
from repro.simulation.execution import ExecutionResult, simulate_execution
from repro.simulation.platform import (
    DeployedFunction,
    InvocationRecord,
    PlatformConfig,
    ServerlessPlatform,
)
from repro.simulation.pricing import PricingModel, PricingScheme
from repro.simulation.profile import ResourceProfile, ServiceCall
from repro.simulation.scaling import ResourceScalingModel
from repro.simulation.services import ServiceCatalog, ServiceModel
from repro.simulation.variability import VariabilityModel

# The engine imports must stay below the platform import: backends consume the
# platform module, which only reaches back into the engine lazily.
from repro.simulation.engine import (
    BatchResult,
    ExecutionBackend,
    ParallelBackend,
    SerialBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)

__all__ = [
    "ResourceProfile",
    "ServiceCall",
    "ResourceScalingModel",
    "PricingModel",
    "PricingScheme",
    "VariabilityModel",
    "ColdStartModel",
    "ServiceModel",
    "ServiceCatalog",
    "ExecutionResult",
    "simulate_execution",
    "ServerlessPlatform",
    "PlatformConfig",
    "DeployedFunction",
    "InvocationRecord",
    "BatchResult",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ParallelBackend",
    "available_backends",
    "get_backend",
]
