"""Assembled forms and the coupling condition.

The discrete operator combines a stiffness matrix for the diffusion
field, a lumped mass matrix, and a boundary term that weights the
boundary operator by facet areas.  The boundary operator is admissible
when

    1 + 2 |B| tr^2 <= alpha,

where tr is the trace constant of the mesh and alpha the shift.  The
demo prints the interval matrices, sweeps the multiplication strength
through the threshold, and shows the trace constant settling towards
its one-dimensional limit 1/tanh(1/2) under refinement.
"""

import math

# robinheat first: it sets the BLAS thread count before numpy loads.
from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_box_mesh,
    check_admissibility,
)

import numpy as np

np.set_printoptions(precision=4, suppress=True)


def main():
    mesh = build_box_mesh((1.0,), (4,))
    field = CoefficientField.isotropic(mesh, 2.0)
    spec = BoundaryOperatorSpec.multiplication(mesh, -0.1)
    system = assemble_system(mesh, field, spec)

    print("interval with 4 cells, A = 2, boundary multiplication by -0.1")
    print("stiffness:")
    print(system.K.toarray())
    print(f"lumped mass: {system.mass}")
    print("shifted form:")
    print(system.FormAtilde.toarray())
    report = system.admissibility
    print(f"trace constant squared: {report.trace_norm_sq:.6f}  "
          f"(limit 1/tanh(1/2) = {1.0 / math.tanh(0.5):.6f})")
    print()

    print("sweep of the multiplication strength at alpha = 2:")
    for beta in (-0.05, -0.1, -0.2, -0.23, -0.2323, -0.24, -0.5):
        sweep = BoundaryOperatorSpec.multiplication(mesh, beta)
        rep = check_admissibility(sweep, 2.0, report.trace_norm_sq)
        verdict = "admissible" if rep.admissible else "rejected"
        print(f"  beta = {beta:+.4f}  margin = {rep.margin:+.4f}  {verdict}")
    print()

    print("trace constant under refinement:")
    for divisions in (4, 16, 64, 256):
        fine = build_box_mesh((1.0,), (divisions,))
        value = assemble_system(
            fine, CoefficientField.isotropic(fine, 1.0),
            BoundaryOperatorSpec.zero(fine)).admissibility.trace_norm_sq
        gap = value - 1.0 / math.tanh(0.5)
        print(f"  {divisions:>4} cells: {value:.8f}  gap {gap:+.2e}")


if __name__ == "__main__":
    main()
