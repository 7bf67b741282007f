"""Spans around sensorplace's public functions, recorded from outside the program.

``install`` rebinds each traced function under every module attribute that
refers to it (``sensorplace.cli`` and ``sensorplace.experiments`` import the
selectors and evaluators by name; ``pod`` and ``evaluate`` call ``linalg``
through the module), so calls made by the program itself are traced without
changing any file of the program.  Spans stay in memory until the run ends.

A span records its name, start, end, parent span, run id and round.  A
layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field

# (module, function) pairs that get a span; the span name is "<module>.<function>".
TRACED = (
    ("fileio", "read_matrix"),
    ("fileio", "write_matrix"),
    ("fileio", "read_selection"),
    ("fileio", "write_selection"),
    ("pod", "compute_pod"),
    ("linalg", "thin_svd"),
    ("linalg", "log_abs_det"),
    ("selection", "select_vector_greedy"),
    ("selection", "select_scalar_greedy"),
    ("selection", "select_random"),
    ("selection", "select_convex"),
    ("evaluate", "build_model"),
    ("evaluate", "observe"),
    ("evaluate", "reconstruct"),
    ("evaluate", "score_logdet"),
    ("experiments", "run_random_benchmark"),
    ("experiments", "run_reconstruction_study"),
)

MODULES = ("", "cli", "fileio", "pod", "linalg", "selection", "evaluate", "experiments")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run_id: str
    round: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; ``round`` tags spans with the workload round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.round = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter_ns(), 0, parent, self.run_id, self.round)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record.attrs
        finally:
            self._stack.pop()
            record.end_ns = time.perf_counter_ns()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def _annotate(name: str, attrs: dict, args, result, error) -> None:
    """Counts taken at the layer boundary: bytes moved, greedy steps, exhaustion."""
    if name.startswith("fileio.") and error is None:
        key = "bytes_read" if name.startswith("fileio.read_") else "bytes_written"
        attrs[key] = os.path.getsize(args[0])
    elif name in ("selection.select_vector_greedy", "selection.select_scalar_greedy"):
        if error is None:
            attrs["steps"] = result.sensor_count
        elif type(error).__name__ == "ExhaustionError":
            attrs["steps"] = error.step
            attrs["exhausted"] = 1


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _annotate(name, attrs, args, None, exc)
                raise
            _annotate(name, attrs, args, result, None)
            return result

    return traced


@contextlib.contextmanager
def install(tracer: Tracer, package):
    """Rebind every traced function of ``package`` for the duration of the block."""
    import importlib

    modules = [
        importlib.import_module(f"{package.__name__}.{m}") if m else package for m in MODULES
    ]
    saved = []
    for module_name, fn_name in TRACED:
        original = getattr(getattr(package, module_name), fn_name)
        wrapper = _wrap(tracer, f"{module_name}.{fn_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _self_ns(spans: list[Span], index: int, children: dict[int, list[int]]) -> int:
    """Duration of span ``index`` minus the union of its children's intervals."""
    span = spans[index]
    covered, cursor = 0, span.start_ns
    for child in sorted(children.get(index, ()), key=lambda c: spans[c].start_ns):
        start = max(spans[child].start_ns, cursor)
        end = min(spans[child].end_ns, span.end_ns)
        if end > start:
            covered += end - start
            cursor = end
    return span.end_ns - span.start_ns - covered


# Per-layer metric -> (unit, how it is computed from one round's spans).
SECONDS = "s"
LAYER_METRICS = {
    "cli.pod_s": (SECONDS, ("total", ["cli.pod"])),
    "cli.select_s": (SECONDS, ("total", ["cli.select"])),
    "cli.reconstruct_s": (SECONDS, ("total", ["cli.reconstruct"])),
    "cli.self_s": (SECONDS, ("self", ["cli.pod", "cli.select", "cli.reconstruct"])),
    "fileio.read_matrix_s": (SECONDS, ("total", ["fileio.read_matrix"])),
    "fileio.write_matrix_s": (SECONDS, ("total", ["fileio.write_matrix"])),
    "fileio.selection_io_s": (SECONDS, ("total", ["fileio.read_selection", "fileio.write_selection"])),
    "fileio.bytes_read": ("bytes", ("attr", "bytes_read")),
    "fileio.bytes_written": ("bytes", ("attr", "bytes_written")),
    "pod.compute_pod_s": (SECONDS, ("total", ["pod.compute_pod"])),
    "linalg.thin_svd_s": (SECONDS, ("total", ["linalg.thin_svd"])),
    "selection.vector_greedy_s": (SECONDS, ("total", ["selection.select_vector_greedy"])),
    "selection.scalar_greedy_s": (SECONDS, ("total", ["selection.select_scalar_greedy"])),
    "selection.random_s": (SECONDS, ("total", ["selection.select_random"])),
    "selection.convex_s": (SECONDS, ("total", ["selection.select_convex"])),
    "selection.calls": ("count", ("count", [
        "selection.select_vector_greedy", "selection.select_scalar_greedy",
        "selection.select_random", "selection.select_convex",
    ])),
    "selection.greedy_steps": ("count", ("attr", "steps")),
    "selection.exhausted": ("count", ("attr", "exhausted")),
    "evaluate.observe_s": (SECONDS, ("total", ["evaluate.observe"])),
    "evaluate.observe_calls": ("count", ("count", ["evaluate.observe"])),
    "evaluate.reconstruct_s": (SECONDS, ("total", ["evaluate.reconstruct"])),
    "evaluate.build_model_s": (SECONDS, ("total", ["evaluate.build_model"])),
    "evaluate.score_logdet_s": (SECONDS, ("total", ["evaluate.score_logdet"])),
    "linalg.log_abs_det_s": (SECONDS, ("total", ["linalg.log_abs_det"])),
    "experiments.study_s": (SECONDS, ("total", [
        "experiments.run_random_benchmark", "experiments.run_reconstruction_study",
    ])),
    "experiments.self_s": (SECONDS, ("self", [
        "experiments.run_random_benchmark", "experiments.run_reconstruction_study",
    ])),
}


def layer_metrics_by_round(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Every per-layer metric for each round that recorded spans."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    out: dict[int, dict[str, float]] = {}
    for rnd in sorted({s.round for s in spans}):
        members = [i for i, s in enumerate(spans) if s.round == rnd]
        values = {}
        for metric, (_, (kind, what)) in LAYER_METRICS.items():
            if kind == "total":
                ns = sum(spans[i].end_ns - spans[i].start_ns for i in members if spans[i].name in what)
                values[metric] = ns / 1e9
            elif kind == "self":
                ns = sum(_self_ns(spans, i, children) for i in members if spans[i].name in what)
                values[metric] = ns / 1e9
            elif kind == "count":
                values[metric] = sum(1 for i in members if spans[i].name in what)
            else:
                values[metric] = sum(spans[i].attrs.get(what, 0) for i in members)
        out[rnd] = values
    return out
