"""Sparse sensor placement over POD mode bases.

Selects scalar- or vector-measurement sensor locations that maximize the
determinant of the reduced measurement matrix, and reconstructs full-state
mode amplitudes from the resulting sparse observations.
"""

from .evaluate import (
    MeasurementModel,
    ReconstructionResult,
    build_model,
    observe,
    reconstruct,
    reconstruction_error,
    score_logdet,
)
from .experiments import (
    METHOD_FULL_OBSERVATION,
    ExperimentConfig,
    ExperimentReport,
    ReportCell,
    generate_synthetic_flow,
    run_random_benchmark,
    run_reconstruction_study,
)
from .pod import PODBasis, SnapshotMatrix, compute_pod, mode_amplitudes
from .selection import (
    METHOD_CONVEX,
    METHOD_RANDOM,
    METHOD_SCALAR_GREEDY,
    METHOD_VECTOR_GREEDY,
    ConvexSolverError,
    ExhaustionError,
    SensorSelection,
    select_convex,
    select_random,
    select_scalar_greedy,
    select_vector_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "PODBasis",
    "SnapshotMatrix",
    "compute_pod",
    "mode_amplitudes",
    "METHOD_CONVEX",
    "METHOD_RANDOM",
    "METHOD_SCALAR_GREEDY",
    "METHOD_VECTOR_GREEDY",
    "ConvexSolverError",
    "ExhaustionError",
    "SensorSelection",
    "select_convex",
    "select_random",
    "select_scalar_greedy",
    "select_vector_greedy",
    "MeasurementModel",
    "ReconstructionResult",
    "build_model",
    "observe",
    "reconstruct",
    "reconstruction_error",
    "score_logdet",
    "METHOD_FULL_OBSERVATION",
    "ExperimentConfig",
    "ExperimentReport",
    "ReportCell",
    "generate_synthetic_flow",
    "run_random_benchmark",
    "run_reconstruction_study",
]
