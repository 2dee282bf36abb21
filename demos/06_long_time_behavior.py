"""Eventual positivity under an antisymmetric boundary kernel.

A kernel operator with B + B* = 0 and B 1 = 0 conserves mass and leaves
the constant functions alone, yet it rotates boundary values, so the
flow of a positive initial state can develop negative values at small
times.  On a connected domain the flow still converges to the mean, and
past a finite time t0 every such state stays above a fixed positive
fraction delta of its mass.  The checker locates t0 and delta from
sampled trajectories; with no boundary operator at all the same ratios
climb monotonically to 1, the uniform density on the unit cube.
"""

# robinheat first: it sets the BLAS thread count before numpy loads.
from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_box_mesh,
    build_boundary_operator,
    build_evaluator,
    check_eventual_positivity,
    geometric_times,
)

import numpy as np

GRID = geometric_times(count=12)
TIMES = np.concatenate([GRID, [2.0, 5.0, 10.0, 50.0]])


def run(label, mesh, spec):
    system = assemble_system(mesh, CoefficientField.isotropic(mesh, 2.0),
                             spec)
    report = check_eventual_positivity(build_evaluator(system, grid=GRID),
                                       TIMES, samples=20, seed=2024)
    print(f"{label}: {report.status}, t0 = {report.t0:.4g}, "
          f"delta = {report.delta:.4g}")
    for t, ratio in zip(report.times, report.ratios):
        marker = " <- first uniformly positive time" if t == report.t0 \
            else ""
        print(f"    t = {t:>8.4f}   min ratio = {ratio:+.6f}{marker}")
    print()


def main():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4))
    run("antisymmetric cosine kernel", mesh,
        build_boundary_operator(mesh, {"kind": "kernel",
                                       "profile": "cosine",
                                       "scale": 0.005}))
    run("no boundary operator", mesh, BoundaryOperatorSpec.zero(mesh))


if __name__ == "__main__":
    main()
