"""Span tracing of the program's layers, installed only in the traced run.

Each wrapped entry point records one span: layer name, start, end, parent
span and the iteration it belongs to (``"setup"`` or a window / pass
number), plus counts read off its arguments and result.  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
duration minus the time its child spans cover.

Wrappers replace public names on the program's classes and modules from
here, so the untraced run executes the program untouched.  An entry point
the program no longer has is skipped, and its layer reads 0.
"""

from __future__ import annotations

import importlib
import json
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.simulation.engine import ExecutionBackend


@dataclass
class Span:
    """One timed call of a layer entry point."""

    name: str
    start: float
    parent: int | None
    iteration: object
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds from start to end."""
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[i] for i, span in enumerate(spans)]


def _backend_classes() -> list[type]:
    """Every execution backend class that defines its own ``run_grouped``."""
    pending, seen = [ExecutionBackend], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "run_grouped" in cls.__dict__]


def _traffic_counts(args, kwargs, result) -> dict:
    offsets = result.offsets
    return {"arrivals": result.total, "active": int((offsets[1:] > offsets[:-1]).sum())}


def _engine_counts(args, kwargs, result) -> dict:
    return {"groups": int(result.offsets.shape[0] - 1), "invocations": int(result.offsets[-1])}


def _fit_counts(args, kwargs, result) -> dict:
    return {"epochs": len(result.network.history.loss), "samples": int(args[1].shape[0])}


def _controller_counts(args, kwargs, result) -> dict:
    return {
        "resizes": sum(e.reason == "recommendation" for e in result),
        "rollbacks": sum(e.reason == "rollback" for e in result),
    }


#: ``(module, owner in it or "", attribute, layer, counts)`` of every wrapped
#: entry point.  Module-level functions are patched where the caller binds them.
ENTRY_POINTS = [
    ("repro.workloads.traffic", "FleetTrafficSchedule", "sample_window", "traffic",
     _traffic_counts),
    ("repro.workloads.traffic", "FleetTrafficSchedule", "sample_window_keyed", "traffic",
     _traffic_counts),
    ("repro.fleet.simulator", "", "keyed_child_rngs", "seeding",
     lambda a, k, r: {"streams": len(r)}),
    ("repro.simulation.engine.grouped", "GroupedBatch", "aggregate_stats", "aggregation", None),
    ("repro.fleet.controller", "", "merge_stat_blocks", "aggregation", None),
    ("repro.fleet.simulator", "FleetSimulator", "run_window", "simulator", None),
    ("repro.fleet.simulator", "FleetSimulator", "resize", "simulator.resize", None),
    ("repro.fleet.controller", "RightsizingController", "step", "controller",
     _controller_counts),
    ("repro.core.predictor", "SizelessPredictor", "recommend_table", "predictor",
     lambda a, k, r: {"rows": len(r[0].function_names)}),
    ("repro.fleet.ledger", "SavingsLedger", "observe", "ledger", None),
    ("repro.dataset.generation", "TrainingDatasetGenerator", "generate_table", "generation",
     None),
    ("repro.dataset.harness", "MeasurementHarness", "measure_function", "harness", None),
    ("repro.core.training", "", "build_training_matrices", "training", None),
    ("repro.core.model", "SizelessModel", "fit", "ml", _fit_counts),
]


def _entry_points() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, layer, counts)`` of every entry point the program has."""
    points = []
    for module_name, owner_name, attribute, layer, counts in ENTRY_POINTS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is not None and attribute in vars(owner):
            points.append((owner, attribute, layer, counts))
    points += [(cls, "run_grouped", "engine", _engine_counts) for cls in _backend_classes()]
    return points


class Tracer:
    """Installs span wrappers and keeps the spans of one run in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration: object = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Replace every entry point with its span-recording wrapper."""
        for owner, attribute, layer, counts in _entry_points():
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(original, layer, counts))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put the original entry points back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function, layer: str, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].name == layer:
                return function(*args, **kwargs)  # e.g. an override calling super()
            span = Span(layer, 0.0, stack[-1] if stack else None, self.iteration)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counts is not None:
                try:
                    span.counts = counts(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed result type: the layer's counts read 0
            return result

        traced.__wrapped__ = function
        return traced

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "iteration": span.iteration,
                    "counts": span.counts,
                }) + "\n")


def layer_metrics(spans: list[Span], windows: int, run_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Window layers are per-window means over the spans of the measured
    iterations (``windows`` of them; offline passes count as one).  The
    offline layers (generation, harness, training, ml) are totals over the
    whole run, set-up included, because on the fleets they run in set-up.
    """
    own = self_times(spans)
    measured = [i for i, s in enumerate(spans) if s.iteration != "setup"]
    per = max(windows, 1)

    def total(name, key=None, indices=measured, self_time=False):
        return sum(
            (own[i] if self_time else spans[i].duration) if key is None
            else spans[i].counts.get(key, 0)
            for i in indices if spans[i].name == name
        )

    everywhere = range(len(spans))
    engine_s = total("engine")
    groups = total("engine", "groups")
    invocations = total("engine", "invocations")
    resize_s = total("simulator.resize")
    resize_calls = sum(1 for i in measured if spans[i].name == "simulator.resize")
    resizes = total("controller", "resizes")
    rollbacks = total("controller", "rollbacks")
    generation_invocations = sum(
        spans[i].counts.get("invocations", 0)
        for i in everywhere
        if spans[i].name == "engine" and _has_ancestor(spans, i, "generation")
    )
    top_level = sum(spans[i].duration for i in measured if spans[i].parent is None)
    return {
        "traffic.sample_ms": 1e3 * total("traffic") / per,
        "traffic.arrivals": total("traffic", "arrivals") / per,
        "traffic.active": total("traffic", "active") / per,
        "seeding.derive_ms": 1e3 * total("seeding") / per,
        "seeding.streams": total("seeding", "streams") / per,
        "engine.run_grouped_ms": 1e3 * engine_s / per,
        "engine.groups": groups / per,
        "engine.invocations": invocations / per,
        "engine.us_per_group": 1e6 * engine_s / groups if groups else 0.0,
        "engine.ns_per_invocation": 1e9 * engine_s / invocations if invocations else 0.0,
        "aggregation.reduce_ms": 1e3 * total("aggregation") / per,
        "simulator.self_ms": 1e3 * total("simulator", self_time=True) / per,
        "controller.step_ms": 1e3 * total("controller", self_time=True) / per,
        "controller.eligible": total("predictor", "rows") / per,
        "controller.resizes": resizes / per,
        "controller.rollbacks": rollbacks / per,
        "controller.resize_yield": 100.0 * (resizes - rollbacks) / resizes if resizes else 0.0,
        "predictor.recommend_ms": 1e3 * total("predictor") / per,
        "predictor.rows": total("predictor", "rows") / per,
        "simulator.resize_us": 1e6 * resize_s / resize_calls if resize_calls else 0.0,
        "simulator.resize_calls": resize_calls / per,
        "ledger.observe_ms": 1e3 * total("ledger") / per,
        "generation.generate_s": total("generation", indices=everywhere),
        "generation.invocations": float(generation_invocations),
        "harness.case_measure_s": total("harness", indices=everywhere),
        "training.matrices_ms": 1e3 * total("training", indices=everywhere),
        "ml.fit_s": total("ml", indices=everywhere),
        "ml.epochs": total("ml", "epochs", indices=everywhere),
        "ml.samples": total("ml", "samples", indices=everywhere),
        "trace.unattributed_pct": (
            100.0 * (run_seconds - top_level) / run_seconds if run_seconds > 0 else 0.0
        ),
    }


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


class PeakMeter:
    """Peak traced bytes of each top-level call, from ``tracemalloc``.

    Kept apart from span timing: tracing allocations slows the loop several
    times over.
    """

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}

    def __enter__(self) -> "PeakMeter":
        """Start tracing allocations."""
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        """Stop tracing allocations."""
        tracemalloc.stop()

    def call(self, name: str, function, *args):
        """Call ``function`` and keep the largest allocation peak seen under ``name``."""
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
        self.peaks[name] = max(self.peaks.get(name, 0), peak)
        return result
