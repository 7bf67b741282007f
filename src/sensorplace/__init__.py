"""Sparse sensor placement over POD mode bases.

Selects scalar- or vector-measurement sensor locations that maximize the
determinant of the reduced measurement matrix, and reconstructs full-state
mode amplitudes from the resulting sparse observations.
"""

from . import evaluate, experiments, pod, selection
from .evaluate import *
from .experiments import *
from .pod import *
from .selection import *

__version__ = "0.1.0"

__all__ = pod.__all__ + selection.__all__ + evaluate.__all__ + experiments.__all__
