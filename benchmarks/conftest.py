"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's evaluation.
All of them share one :class:`~repro.experiments.context.ExperimentContext`
(session-scoped) so the expensive artefacts — the synthetic training dataset,
the trained models, and the case-study ground-truth measurements — are built
exactly once per benchmark session.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:
``quick`` (default, a couple of minutes), ``standard`` or ``paper``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.context import ExperimentContext, ExperimentScale


def _scale_from_env() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    presets = {
        "quick": ExperimentScale.quick,
        "standard": ExperimentScale.standard,
        "paper": ExperimentScale.paper,
    }
    return presets.get(name, ExperimentScale.quick)()


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """The shared experiment context (dataset + models + case measurements)."""
    return ExperimentContext(_scale_from_env())


@pytest.fixture(scope="session")
def warm_context(context) -> ExperimentContext:
    """The context with training table, default model and case measurements prebuilt.

    Benchmarked functions should measure the *analysis* step, not the shared
    setup, so the expensive artefacts are materialised here.
    """
    context.training_table()
    context.model(context.scale.default_base_size_mb)
    context.case_measurements()
    return context
