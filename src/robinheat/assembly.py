"""P1 finite element assembly of the shifted boundary-coupled forms.

All matrices are dense; the laboratory targets a few hundred to a few
thousand unknowns where dense algebra is exact enough to check operator
inequalities at tolerances near machine precision.  Stiffness uses exact
one-point quadrature (piecewise constant coefficients, piecewise constant
gradients); volume and boundary mass are lumped.

Assembly is array-at-a-time: the cell matrices come from one stacked
``inv`` and one stacked ``matmul``, and one ``np.bincount`` sums them in
cell order, so every entry has the bits of a loop over cells.  Boundary
matrices are scattered onto the boundary vertex rows and columns; no 0/1
trace matrix is formed.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .coefficients import CoefficientField, check_admissibility
from .semigroup import SYMMETRY_TOL

__all__ = [
    "assemble_stiffness",
    "assemble_lumped_mass",
    "assemble_consistent_mass",
    "assemble_boundary_mass",
    "trace_matrix",
    "assemble_boundary_term",
    "AssembledSystem",
    "assemble_system",
    "compute_trace_norm",
    "AccretivityReport",
    "check_accretivity",
    "ContinuityReport",
    "check_continuity",
    "export_coordinate_format",
]


def _barycentric_gradients(points):
    """Gradients of the d+1 hat functions per simplex, (m, d+1, d)."""
    inv = np.linalg.inv(np.swapaxes(points[:, 1:] - points[:, :1], 1, 2))
    return np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)


def _scatter_cells(mesh, local):
    """Sum the (m, d+1, d+1) cell matrices into an n x n matrix, cell by
    cell in mesh order."""
    n = mesh.n_vertices
    index = mesh.cells[:, :, None] * n + mesh.cells[:, None, :]
    return np.bincount(index.ravel(), weights=local.ravel(),
                       minlength=n * n).reshape(n, n)


def _on_boundary(mesh, block):
    """n x n matrix with ``block`` on the boundary vertex rows and columns,
    the same as trace_matrix(mesh).T @ block @ trace_matrix(mesh)."""
    n = mesh.n_vertices
    out = np.zeros((n, n))
    out[np.ix_(mesh.boundary_vertices, mesh.boundary_vertices)] = block
    return out


def assemble_stiffness(mesh, field):
    """K with v^t K u = sum_cells |cell| (A_c grad u) . grad v.

    Works for nonsymmetric cell matrices; the entry convention is
    K[i, j] = |cell| grad(phi_i)^t A_c grad(phi_j).
    """
    grads = _barycentric_gradients(mesh.vertices[mesh.cells])
    vol = mesh.cell_volumes[:, None, None]
    local = (vol * grads) @ field.per_cell @ np.swapaxes(grads, 1, 2)
    return _scatter_cells(mesh, local)


def assemble_lumped_mass(mesh):
    """Diagonal of the lumped mass matrix as a vector: each cell spreads its
    volume equally over its d+1 vertices."""
    share = np.repeat(mesh.cell_volumes / (mesh.dim + 1), mesh.dim + 1)
    return np.bincount(mesh.cells.ravel(), weights=share,
                       minlength=mesh.n_vertices)


def assemble_consistent_mass(mesh):
    """Exact P1 mass matrix (for quadrature comparisons)."""
    d = mesh.dim
    scale = 1.0 / ((d + 1) * (d + 2))
    pattern = np.ones((d + 1, d + 1)) + np.eye(d + 1)
    return _scatter_cells(
        mesh, (mesh.cell_volumes * scale)[:, None, None] * pattern)


def assemble_boundary_mass(mesh):
    """Lumped boundary measure: (boundary vertex ids, weights)."""
    return mesh.boundary_vertices.copy(), mesh.boundary_vertex_weights()


def trace_matrix(mesh):
    """0/1 restriction matrix from vertex values to boundary vertex values."""
    nb = len(mesh.boundary_vertices)
    G = np.zeros((nb, mesh.n_vertices))
    G[np.arange(nb), mesh.boundary_vertices] = 1.0
    return G


def assemble_boundary_term(mesh, spec):
    """Weighted boundary coupling Bw = diag(w) @ T so that the boundary part
    of the form is (trace v)^t Bw (trace u)."""
    return mesh.boundary_vertex_weights()[:, None] * spec.matrix()


# ----------------------------------------------------------------------
class AssembledSystem:
    """All matrices of the shifted form on one mesh.

    Attributes
    ----------
    K, K_id : (n, n)
        Stiffness for the coefficient field and for the identity field.
    mass : (n,)
        Lumped mass diagonal.
    boundary_weights : (nb,)
        Lumped boundary measure at the boundary vertices.
    Bw : (nb, nb)
        Weighted boundary coupling diag(w) T on boundary vertex values.
    FormA, FormAtilde : (n, n)
        Boundary-coupled form and its alpha-shifted version.
    FormA_adj, FormAtilde_adj : (n, n)
        Same built from the transposed field and the weighted adjoint of
        the boundary operator; equals the transpose entrywise.
    H1 : (n, n)
        Discrete H1 Gram matrix K_id + diag(mass).
    trace_norm_sq : float
        Largest generalized eigenvalue of (Gamma^t diag(w) Gamma, H1),
        Gamma = trace_matrix(mesh).
    admissibility : AdmissibilityReport
    """

    def __init__(self, mesh, field, spec, alpha):
        self.mesh = mesh
        self.field = field
        self.spec = spec
        self.alpha = float(alpha)

        self.K = assemble_stiffness(mesh, field)
        self.K_id = assemble_stiffness(
            mesh, CoefficientField.isotropic(mesh, 1.0))
        self.mass = assemble_lumped_mass(mesh)
        self.boundary_weights = mesh.boundary_vertex_weights()
        self.Bw = assemble_boundary_term(mesh, spec)

        Mdiag = np.diag(self.mass)
        self.FormA = self.K + _on_boundary(mesh, self.Bw)
        self.FormAtilde = self.FormA + self.alpha * Mdiag
        self.H1 = self.K_id + Mdiag

        K_adj = assemble_stiffness(mesh, field.transposed())
        Bw_adj = self.boundary_weights[:, None] * spec.adjoint_matrix()
        self.FormA_adj = K_adj + _on_boundary(mesh, Bw_adj)
        self.FormAtilde_adj = self.FormA_adj + self.alpha * Mdiag

        S = _on_boundary(mesh, np.diag(self.boundary_weights))
        self.trace_norm_sq = compute_trace_norm(S, self.H1)
        self.admissibility = check_admissibility(
            spec, self.alpha, self.trace_norm_sq)

    @property
    def n(self):
        return self.mesh.n_vertices

    def form_with_boundary(self, spec):
        """FormAtilde rebuilt with a different boundary operator, same field
        and shift."""
        Bw = self.boundary_weights[:, None] * spec.matrix()
        return (self.K + _on_boundary(self.mesh, Bw)
                + self.alpha * np.diag(self.mass))

    def h1_norm(self, u):
        return math.sqrt(max(float(u @ self.H1 @ u), 0.0))

    def l2_norm(self, u):
        return math.sqrt(float(self.mass @ (u * u)))

    def l1_norm(self, u):
        return float(self.mass @ np.abs(u))


def assemble_system(mesh, field, spec, alpha=None):
    """Assemble every matrix of the laboratory on one mesh.

    ``alpha`` defaults to the field's certified ellipticity constant, which
    is the only value for which the shifted-form inequalities are claimed.
    """
    if alpha is None:
        alpha = field.alpha
    return AssembledSystem(mesh, field, spec, alpha)


# ----------------------------------------------------------------------
def compute_trace_norm(S, H1, tol=1e-10, max_iterations=10000, shift=0.0):
    """Largest generalized eigenvalue of (S, H1) by power iteration on the
    H1-solve, with an optional spectral shift.

    Both matrices must be symmetric and H1 positive definite; the pencil
    then has a real nonnegative spectrum and the Rayleigh quotient
    converges monotonically up to roundoff.
    """
    factor = cho_factor(H1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(len(H1))
    x /= math.sqrt(float(x @ H1 @ x))
    value = float(x @ S @ x)
    for _ in range(max_iterations):
        y = cho_solve(factor, S @ x) + shift * x
        norm = math.sqrt(float(y @ H1 @ y))
        if norm == 0.0:
            return 0.0
        x = y / norm
        new_value = float(x @ S @ x) / float(x @ H1 @ x)
        if abs(new_value - value) <= tol * abs(new_value):
            return float(new_value)
        value = new_value
    raise RuntimeError(
        f"trace norm power iteration did not converge within "
        f"{max_iterations} iterations (last value {value:.6g})")


# ----------------------------------------------------------------------
@dataclass
class AccretivityReport:
    status: str                 # "passed" | "failed" | "hypothesis unmet"
    lambda_min: float
    scale: float
    tolerance: float

    def as_dict(self):
        return {
            "status": self.status,
            "lambda_min": self.lambda_min,
            "scale": self.scale,
            "tolerance": self.tolerance,
        }


def check_accretivity(system, tol=1e-10):
    """Verify that the shifted form dominates the H1 Gram matrix:
    sym(FormAtilde - H1) must be positive semidefinite up to
    tol * ||FormAtilde||.

    Requires the weaker admissibility condition; otherwise the check is
    reported as hypothesis unmet rather than failed.  ||FormAtilde|| is
    the largest |eigenvalue| of its symmetric part when the form is
    symmetric within SYMMETRY_TOL, and the largest singular value
    otherwise.
    """
    F = system.FormAtilde
    if np.abs(F - F.T).max() <= SYMMETRY_TOL * np.abs(F).max():
        eigs = np.linalg.eigvalsh(0.5 * (F + F.T))
        scale = float(max(-eigs[0], eigs[-1]))
    else:
        scale = float(np.linalg.norm(F, 2))
    if not system.admissibility.accretive:
        return AccretivityReport("hypothesis unmet", math.nan, scale, tol)
    diff = system.FormAtilde - system.H1
    lam = float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())
    status = "passed" if lam >= -tol * scale else "failed"
    return AccretivityReport(status, lam, scale, tol)


@dataclass
class ContinuityReport:
    max_ratio: float
    bound_constant: float
    samples: int
    seed: int
    passed: bool

    def as_dict(self):
        return {
            "max_ratio": self.max_ratio,
            "bound_constant": self.bound_constant,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
        }


def check_continuity(system, samples=200, seed=2024):
    """Sampled check of the continuity bound

        |v^t FormAtilde u| <= (d^2 sup|A| + norm2 tr^2) |u|_H1 |v|_H1
                              + alpha |u|_L2 |v|_L2.

    Reports the largest observed ratio of left to right side.
    """
    d = system.mesh.dim
    const = (d * d * system.field.sup_norm
             + system.spec.norm2 * system.trace_norm_sq)
    rng = np.random.default_rng(seed)
    u, v = np.moveaxis(rng.standard_normal((samples, 2, system.n)), 1, 0)

    def norms(w):
        h1 = np.sqrt(np.maximum(((w @ system.H1) * w).sum(axis=1), 0.0))
        return h1, np.sqrt((w * w) @ system.mass)

    (h1_u, l2_u), (h1_v, l2_v) = norms(u), norms(v)
    lhs = np.abs(((v @ system.FormAtilde) * u).sum(axis=1))
    rhs = const * h1_u * h1_v + system.alpha * l2_u * l2_v
    worst = (lhs / rhs).max(initial=0.0)
    return ContinuityReport(
        max_ratio=float(worst),
        bound_constant=float(const),
        samples=samples,
        seed=seed,
        passed=bool(worst <= 1.0 + 1e-10),
    )


# ----------------------------------------------------------------------
def export_coordinate_format(matrix, target):
    """Write nonzero entries as ``row col value`` lines (17 significant
    digits, row-major)."""
    matrix = np.asarray(matrix)
    lines = []
    for i, j in zip(*np.nonzero(matrix)):
        lines.append(f"{i} {j} {matrix[i, j]:.17g}")
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)
    return text
