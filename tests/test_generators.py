"""Bit pins of the generators: every CLI CSV depends on these bytes.

The fingerprints hash the problem data (A, f, F, g, p, q). They were
recorded with numpy 2.4 on x86-64; a different numpy build may evaluate
sin in the last bit differently, and then every pin moves at once.
"""

import numpy as np
import pytest

from schauderlab.domain_grid import make_grid
from schauderlab.elliptic_solver import EllipticProblem
from schauderlab.field_calculus import Field, VecField
from schauderlab.generators import random_problem, sup_bound_problem, trig_coefficient_field


def _nonsymmetric_trig(grid, rng):
    A = trig_coefficient_field(grid, rng, symmetric=False)
    zero = Field.zeros(grid)
    return EllipticProblem(A=A, f=zero, F=VecField.zeros(grid), g=zero)


def _rough(grid, rng):
    return random_problem(grid, rng, rough_alpha=0.5)


PINS = [
    ("random-2d-m65", random_problem, 2, 65, {0: "2ee015b6248b", 7: "10945da6b202"}),
    ("random-3d-m17", random_problem, 3, 17, {0: "e19985eb592d", 7: "ccc05a385bf5"}),
    ("sup-bound-m65", sup_bound_problem, 2, 65, {0: "ed64b9e8e453", 7: "326aed37fcd0"}),
    ("rough-m65", _rough, 2, 65, {0: "179e18e1fcd4", 7: "a40967174aff"}),
    ("nonsymmetric-trig-m65", _nonsymmetric_trig, 2, 65, {0: "c4bf8d6754fb", 7: "0054b0cd7542"}),
]


@pytest.mark.parametrize("build, n, m, pins", [p[1:] for p in PINS], ids=[p[0] for p in PINS])
@pytest.mark.parametrize("seed", [0, 7])
def test_generator_fingerprint_pinned(build, n, m, pins, seed):
    problem = build(make_grid(n, 1.0, m), np.random.default_rng(seed))
    assert problem.fingerprint() == pins[seed]
