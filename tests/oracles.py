"""Dense reference constructions that only the tests use.

The package assembles the boundary coupling without a trace matrix,
lumps the mass and reads the adjoint semigroup off the primal's
matrices.  These are the textbook forms it is checked against: the 0/1
trace matrix, the exact P1 mass matrix, and the duality of the mixed
norms between a semigroup and an adjoint evaluated on its own.
"""

from dataclasses import dataclass

import numpy as np

from robinheat.report import Report


def trace_matrix(mesh):
    """0/1 restriction matrix from vertex values to boundary vertex values."""
    nb = len(mesh.boundary_vertices)
    G = np.zeros((nb, mesh.n_vertices))
    G[np.arange(nb), mesh.boundary_vertices] = 1.0
    return G


def assemble_consistent_mass(mesh):
    """Exact P1 mass matrix: each cell adds |cell| (1 + delta_ij) /
    ((d + 1)(d + 2)) on its vertex pairs."""
    d = mesh.dim
    scale = 1.0 / ((d + 1) * (d + 2))
    local = (mesh.cell_volumes * scale)[:, None, None] * (
        np.ones((d + 1, d + 1)) + np.eye(d + 1))
    rows = np.repeat(mesh.cells, d + 1, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, d + 1)).ravel()
    M = np.zeros((mesh.n_vertices, mesh.n_vertices))
    np.add.at(M, (rows, cols), local.ravel())
    return M


@dataclass
class DualityReport(Report):
    max_relative_difference: float
    status: str


def check_duality(evaluator, adjoint_evaluator, times, tol=1e-10):
    """The 2 -> sup norm of the semigroup equals the 1 -> 2 norm of its
    adjoint at every time."""
    worst = 0.0
    for t in times:
        a = evaluator.norm_2_to_inf(t)
        b = adjoint_evaluator.norm_1_to_2(t)
        worst = max(worst, abs(a - b) / max(a, b))
    return DualityReport(
        max_relative_difference=float(worst),
        status="passed" if worst <= tol else "failed",
    )
