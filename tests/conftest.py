# robinheat first: it sets the BLAS thread count before numpy loads.
from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_box_mesh,
)

import pytest


@pytest.fixture(scope="session")
def interval4():
    """Unit interval split into 4 cells; small enough for hand oracles."""
    return build_box_mesh((1.0,), (4,))


@pytest.fixture(scope="session")
def square11():
    return build_box_mesh((1.0, 1.0), (1, 1))


@pytest.fixture(scope="session")
def cube2():
    return build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))


@pytest.fixture(scope="session")
def interval4_robin_system(interval4):
    """Interval system with endpoint absorption: A = 2, beta = -0.1,
    alpha = 2.  The coupling satisfies the strong admissibility condition,
    so every check downstream is in hypothesis.
    """
    field = CoefficientField.isotropic(interval4, 2.0)
    spec = BoundaryOperatorSpec.multiplication(interval4, -0.1)
    return assemble_system(interval4, field, spec)


@pytest.fixture(scope="session")
def cube2_neumann_system(cube2):
    field = CoefficientField.isotropic(cube2, 1.0)
    spec = BoundaryOperatorSpec.zero(cube2)
    return assemble_system(cube2, field, spec)
