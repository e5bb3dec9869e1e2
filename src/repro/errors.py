"""Exception hierarchy shared across the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish configuration problems from runtime problems.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object contains invalid or inconsistent values."""


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (bools are not).

    Floats with an integral value are not either: storing them would
    silently truncate or reinterpret them.
    """
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def require_count(value, name: str, least: int) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an integer >= ``least``.

    Integers in the sense of :func:`is_integer`.
    """
    if not is_integer(value) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


class SimulationError(ReproError):
    """The serverless platform simulator was asked to do something invalid."""


class WorkloadError(ReproError):
    """A function specification or workload definition is invalid."""


class MonitoringError(ReproError):
    """The resource consumption monitor received inconsistent data."""


class DatasetError(ReproError):
    """A dataset is malformed, empty, or incompatible with the requested task."""


class ModelError(ReproError):
    """A machine-learning model was used incorrectly (e.g. predict before fit)."""


class OptimizationError(ReproError):
    """The memory size optimizer received invalid inputs."""
