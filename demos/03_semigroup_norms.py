"""Operator norms of the heat semigroup.

All norms are taken with respect to the lumped mass weights, so discrete
L1, L2, and sup norms mean exactly what their continuum counterparts
mean on piecewise linear functions.  Two structural facts show up
directly in the table: the 2 -> sup norm equals the 1 -> 2 norm at every
time, because the 1 -> 2 norm of a semigroup is the 2 -> sup norm of its
adjoint and a symmetric form is its own adjoint, and composing two short
steps reproduces one long step to machine precision.
"""

import io

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_box_mesh,
    build_evaluator,
    geometric_times,
    semigroup_law_defect,
    write_norms_csv,
)


def main():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4))
    system = assemble_system(mesh, CoefficientField.isotropic(mesh, 1.0),
                             BoundaryOperatorSpec.zero(mesh))
    times = geometric_times(t_max=1.0, count=9, ratio=0.5)
    forward = build_evaluator(system, grid=times)
    # one sweep of the doubling chain records every norm the table reads
    forward.record("norm_2_to_inf", "norm_1_to_2", "norm_inf_to_inf")
    forward.sweep()
    print("unit cube, 4 divisions per axis, A = I, no boundary operator")
    print(f"{'t':>10} {'2->2':>10} {'2->sup':>10} {'1->2':>10} "
          f"{'sup->sup':>10}")
    for t in times:
        print(f"{t:>10.5f} {forward.norm_2_to_2(t):>10.6f} "
              f"{forward.norm_2_to_inf(t):>10.6f} "
              f"{forward.norm_1_to_2(t):>10.6f} "
              f"{forward.norm_inf_to_inf(t):>10.6f}")

    defect = semigroup_law_defect(forward, 0.25, 0.375)
    print(f"\ncomposition law defect at (0.25, 0.375): {defect:.3e}")

    buffer = io.StringIO()
    write_norms_csv(forward, buffer)
    print("\nfirst rows of the csv export:")
    print("\n".join(buffer.getvalue().splitlines()[:4]))


if __name__ == "__main__":
    main()
