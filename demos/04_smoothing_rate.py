"""Fitting the smoothing rate.

On a d-dimensional domain the 2 -> sup norm of the shifted semigroup is
expected to decay like C t^(-d/4) for small times.  The fit removes the
exponential shift, restricts to times the mesh can resolve, and trims
the tail where the curve leaves the power-law regime.  On the cube the
fitted exponent lands near the predicted -3/4 and stays there when a
negative Robin term is switched on.
"""

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_box_mesh,
    build_evaluator,
    fit_ultracontractivity,
    geometric_times,
)

DIVISIONS = 6
TIMES = geometric_times(t_max=1.0, ratio=2.0 ** -0.5, count=24)


def report(label, system):
    # given the grid, the evaluator squares S(t) into S(2t) along it
    evaluator = build_evaluator(system, grid=TIMES)
    fit = fit_ultracontractivity(evaluator)
    window = f"[{fit.window_times[0]:.4f}, {fit.window_times[-1]:.4f}]"
    print(f"{label}:")
    print(f"  fitted slope {fit.fitted_slope:+.4f}  (prediction -0.75)")
    print(f"  prefactor C = {fit.fitted_C:.4f}   mu = {fit.mu:.4f}")
    print(f"  fit window {window} with {len(fit.window_times)} points, "
          f"envelope holds: {fit.envelope_ok}")


def main():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (DIVISIONS,) * 3)
    report("plain cube, A = I",
           assemble_system(mesh, CoefficientField.isotropic(mesh, 1.0),
                           BoundaryOperatorSpec.zero(mesh)))
    print()
    report("absorbing boundary, A = 2.5 I, multiplication by -0.05",
           assemble_system(
               mesh, CoefficientField.isotropic(mesh, 2.5),
               BoundaryOperatorSpec.multiplication(mesh, -0.05)))


if __name__ == "__main__":
    main()
