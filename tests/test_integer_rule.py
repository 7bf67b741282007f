"""One integer rule for every integer parameter of a public entry point.

``linalg.as_count`` decides it: Python and numpy integers and integral floats
pass as ``int``; bools, strings, ``None``, fractions, NaN and infinities raise
``ValueError`` naming the parameter.
"""

import math
import pickle
import re

import numpy as np
import pytest

from sensorplace import linalg
from sensorplace.experiments import ExperimentConfig, generate_synthetic_flow
from sensorplace.pod import PODBasis, SnapshotMatrix, compute_pod
from sensorplace.selection import (
    SensorSelection,
    select_convex,
    select_random,
    select_scalar_greedy,
    select_vector_greedy,
)

CANDIDATE, _ = np.linalg.qr(np.random.default_rng(20).standard_normal((40, 6)))
SNAPSHOTS = np.random.default_rng(21).standard_normal((40, 10))
SIGMA = np.array([4.0, 3.0, 2.0, 1.0])


def config(**overrides):
    kwargs = dict(r_values=(4,), base_seed=1, n_per_component=10, components=2, trials=2)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# id -> (call with the value under test, the name its message gives, a valid value of it)
ENTRY_POINTS = {
    "config-base_seed": (lambda v: config(base_seed=v), "base_seed", 2),
    "config-n_per_component": (lambda v: config(n_per_component=v), "n_per_component", 2),
    "config-components": (lambda v: config(components=v), "components", 2),
    "config-trials": (lambda v: config(trials=v), "trials", 2),
    "config-r_values": (lambda v: config(r_values=(v,)), "r_values entry", 2),
    "snapshots-components": (lambda v: SnapshotMatrix(SNAPSHOTS, components=v), "components", 2),
    "basis-components": (lambda v: PODBasis(CANDIDATE[:, :4], SIGMA, components=v),
                         "components", 2),
    "selection-components": (lambda v: SensorSelection((1, 3), v, 10, "m"), "components", 2),
    "selection-dof": (lambda v: SensorSelection((0, 1), 2, v, "m"), "dof_per_component", 2),
    "selection-location": (lambda v: SensorSelection((v, 3), 1, 10, "m"), "location", 2),
    "vector-greedy-sensors": (lambda v: select_vector_greedy(CANDIDATE, v, components=2),
                              "sensor count", 2),
    "vector-greedy-components": (lambda v: select_vector_greedy(CANDIDATE, 2, components=v),
                                 "components", 2),
    "convex-sensors": (lambda v: select_convex(CANDIDATE, v, components=2), "sensor count", 2),
    "convex-components": (lambda v: select_convex(CANDIDATE, 2, components=v), "components", 2),
    "scalar-greedy-sensors": (lambda v: select_scalar_greedy(CANDIDATE, v), "sensor count", 2),
    "random-n_locations": (lambda v: select_random(v, 2, seed=1), "n_locations", 2),
    "random-sensors": (lambda v: select_random(10, v, seed=1), "sensor count", 2),
    "random-components": (lambda v: select_random(10, 2, seed=1, components=v), "components", 2),
    "compute_pod-rank": (lambda v: compute_pod(SnapshotMatrix(SNAPSHOTS), v), "rank", 2),
    "thin_svd-rank": (lambda v: linalg.thin_svd(SNAPSHOTS, v), "rank", 2),
    "flow-n_per_component": (lambda v: generate_synthetic_flow(v, 2, 2, 10, seed=1),
                             "n_per_component", 2),
    "flow-components": (lambda v: generate_synthetic_flow(5, v, 2, 10, seed=1), "components", 2),
    "flow-true_rank": (lambda v: generate_synthetic_flow(5, 2, v, 10, seed=1), "true_rank", 2),
    "flow-n_snapshots": (lambda v: generate_synthetic_flow(5, 2, 2, v, seed=1), "n_snapshots", 5),
}
# There None selects the default, s from the basis or 1.
NONE_IS_DEFAULT = {"vector-greedy-components", "convex-components"}
NON_INTEGERS = {"fraction": 2.5, "string": "2", "bool": True, "none": None, "inf": math.inf,
                "nan": math.nan}


@pytest.mark.parametrize("call, name, bad", [
    pytest.param(call, name, bad, id=f"{entry}-{kind}")
    for entry, (call, name, _) in ENTRY_POINTS.items()
    for kind, bad in NON_INTEGERS.items()
    if not (bad is None and entry in NONE_IS_DEFAULT)
])
def test_non_integers_raise_value_error_naming_the_parameter(call, name, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be >= \d and an integer"):
        call(bad)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=entry) for entry, (call, _, good) in ENTRY_POINTS.items()
])
def test_integral_floats_and_numpy_integers_match_ints_byte_for_byte(call, good):
    expected = pickle.dumps(call(good))
    for value in (float(good), np.int64(good)):
        assert pickle.dumps(call(value)) == expected


def test_as_count_returns_a_python_int_and_keeps_the_lower_bound():
    assert type(linalg.as_count(np.uint8(3), "n")) is int
    assert linalg.as_count(0, "seed", least=0) == 0
    with pytest.raises(ValueError, match="^seed must be >= 0 and an integer; got -1$"):
        linalg.as_count(-1, "seed", least=0)
