import importlib

import sensorplace
from sensorplace import evaluate, experiments, pod, selection

from oracles import load_bench_module

MODULES = (pod, selection, evaluate, experiments)

# The package's public names before it re-exported each module's own list;
# every one of them must stay exported.
API_REFERENCE = (
    "PODBasis", "SnapshotMatrix", "compute_pod", "mode_amplitudes",
    "METHOD_CONVEX", "METHOD_RANDOM", "METHOD_SCALAR_GREEDY", "METHOD_VECTOR_GREEDY",
    "ConvexSolverError", "ExhaustionError", "SensorSelection",
    "select_convex", "select_random", "select_scalar_greedy", "select_vector_greedy",
    "MeasurementModel", "ReconstructionResult", "build_model", "observe", "reconstruct",
    "reconstruction_error", "score_logdet",
    "METHOD_FULL_OBSERVATION", "ExperimentConfig", "ExperimentReport", "ReportCell",
    "generate_synthetic_flow", "run_random_benchmark", "run_reconstruction_study",
)


def test_public_names_are_the_module_lists_concatenated():
    expected = [name for module in MODULES for name in module.__all__]
    assert sensorplace.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_each_module_object():
    namespace = {}
    exec("from sensorplace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sensorplace.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)


def test_reference_api_is_still_exported():
    assert len(API_REFERENCE) == 29
    assert set(API_REFERENCE) <= set(sensorplace.__all__)


def test_every_benchmark_traced_name_resolves():
    # bench/tracing.py wraps these by name; a deleted or renamed one would
    # break the traced benchmark runs.  It imports only the standard library.
    tracing = load_bench_module("tracing")
    assert tracing.TRACED
    for module_name, fn_name in tracing.TRACED:
        module = importlib.import_module(f"sensorplace.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
