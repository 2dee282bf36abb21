"""Positivity, domination, and sup norm growth.

Three order-theoretic properties of the matrix semigroup.  Positivity
can fail for strongly sheared diffusion fields even though the continuum
flow is always positive; the checker recognizes that situation from the
sign structure of the stiffness matrix and labels it instead of failing.
Domination compares |S(t) u| against a sign-free comparison semigroup,
and the sup bound keeps the unshifted flow below exp(alpha t).
"""

# robinheat first: it sets the BLAS thread count before numpy loads.
from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_box_mesh,
    build_evaluator,
    check_domination,
    check_positivity,
    check_sup_contraction,
    geometric_times,
)

import numpy as np

TIMES = geometric_times(count=12)


def main():
    cube = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4))
    plain = assemble_system(cube, CoefficientField.isotropic(cube, 1.0),
                            BoundaryOperatorSpec.zero(cube))
    report = check_positivity(build_evaluator(plain, grid=TIMES))
    print(f"isotropic cube:      positivity {report.status}, smallest "
          f"entry {report.min_entries.min():+.2e}")

    square = build_box_mesh((1.0, 1.0), (4, 4))
    sheared = assemble_system(
        square,
        CoefficientField.matrix(square, np.array([[1.0, -0.9],
                                                  [-0.9, 1.0]])),
        BoundaryOperatorSpec.zero(square))
    report = check_positivity(build_evaluator(sheared, grid=TIMES))
    print(f"sheared square:      positivity {report.status}, smallest "
          f"entry {report.min_entries.min():+.2e}")

    spec = BoundaryOperatorSpec.multiplication(cube, -0.1)
    robin = assemble_system(cube, CoefficientField.isotropic(cube, 5.0),
                            spec)
    comparison = assemble_system(cube, robin.field, spec.dominating())
    evaluator = build_evaluator(robin, grid=TIMES)
    report = check_domination(evaluator,
                              build_evaluator(comparison, grid=TIMES),
                              samples=30, seed=2024)
    print(f"robin cube:          domination {report.status}, largest "
          f"violation {report.max_violation:+.2e}")

    report = check_sup_contraction(evaluator)
    print(f"robin cube:          sup bound {report.status}, largest "
          f"excess {report.max_sup_excess:+.2e}")


if __name__ == "__main__":
    main()
