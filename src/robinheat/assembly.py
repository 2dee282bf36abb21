"""P1 finite element assembly of the shifted boundary-coupled forms.

The matrices an ``AssembledSystem`` exposes are dense; the laboratory
targets a few hundred to a few thousand unknowns where dense algebra is
exact enough to check operator inequalities at tolerances near machine
precision.  Stiffness uses exact one-point quadrature (piecewise constant
coefficients, piecewise constant gradients); volume and boundary mass are
lumped.

Three computations use structure instead of dense algebra.  The trace
norm is a power iteration on a sparse LU of H1 and the sparse diagonal
trace form.  The norm of a large form detected as symmetric is one Lanczos
Ritz value rather than a full spectrum (``form_norm``).  On a large system
the accretivity status comes from the pivot signs of a sparse symmetric
factorization and lambda_min from shift-invert Lanczos on the same factor
(``check_accretivity``).  Their sparse matrices are gathered from the dense
ones at the P1 sparsity pattern (the cell vertex pairs, computed once per
system, and the boundary block of a non-diagonal boundary operator), so
no n x n scan builds them.

Assembly is array-at-a-time: the cell matrices come from one stacked
``inv`` and one stacked ``matmul``, and one ``np.bincount`` sums them in
cell order, so every entry has the bits of a loop over cells.  Boundary
matrices are scattered onto the boundary vertex rows and columns; no 0/1
trace matrix is formed.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .coefficients import CoefficientField, check_admissibility
from .report import Report
from .semigroup import SYMMETRY_TOL

__all__ = [
    "assemble_stiffness",
    "assemble_lumped_mass",
    "AssembledSystem",
    "assemble_system",
    "compute_trace_norm",
    "form_norm",
    "AccretivityReport",
    "check_accretivity",
    "ContinuityReport",
    "check_continuity",
]

# Smallest form that ``form_norm`` and ``check_accretivity`` hand to
# Lanczos.  Below it one dense ``eigvalsh`` is faster than ARPACK's
# reverse-communication loop: for the norm the two cost the same near 220
# unknowns in 3-D and 290 in 2-D.  In 1-D the top of the spectrum is more
# tightly clustered and Lanczos stays slower (106 against 19 ms at 513
# unknowns, 2-core x86-64).  No 1-D scenario or benchmark workload reaches
# this size, so the rule is left by size alone until one does and the 1-D
# case can be measured against it.  The certified lambda_min of
# ``check_accretivity`` (factor and shift-invert Lanczos) ties with
# ``eigvalsh`` near 216 unknowns in 3-D and is faster from here on in
# every dimension (5.4 against 9.7 ms at 343 unknowns in 3-D, 1.9 against
# 7.1 ms at 301 in 1-D, one thread).
LANCZOS_MIN_SIZE = 300

# Most unknowns an AssembledSystem admits: it holds several dense n x n
# arrays (288 MB each at this size), so it refuses before allocating one.
DENSE_LIMIT = 6000

ACCRETIVITY_TOL = 1e-10     # relative to the norm of the form
RATIO_TOL = 1e-10           # how far a ratio bounded by 1 may exceed it


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


def _p1_pattern(mesh, block=None):
    """CSC structure (indptr, rows, cols) of the vertex pairs of each cell
    of ``mesh`` and, when given, of every pair of ``block`` vertices.  The
    pattern is symmetric and holds the whole diagonal."""
    n = mesh.n_vertices
    k = mesh.cells.shape[1]
    rows = [np.repeat(mesh.cells, k, axis=1).ravel()]
    cols = [np.tile(mesh.cells, k).ravel()]
    if block is not None:
        rows.append(np.repeat(block, len(block)))
        cols.append(np.tile(block, len(block)))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    pattern = scipy.sparse.csc_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    pattern.sum_duplicates()
    indptr, rows = pattern.indptr, pattern.indices
    return indptr, rows, np.repeat(np.arange(n, dtype=rows.dtype),
                                   np.diff(indptr))


def _at_pattern(pattern, values):
    """CSC matrix with ``values``, one per entry of ``pattern``, without
    explicit zeros.  Gathered from a dense matrix with no nonzero off the
    pattern, it has the arrays of csc_matrix(dense)."""
    indptr, rows, _ = pattern
    n = len(indptr) - 1
    A = scipy.sparse.csc_matrix((values, rows.copy(), indptr.copy()),
                                shape=(n, n))
    A.eliminate_zeros()
    return A


def _on_boundary(mesh, block):
    """n x n matrix with ``block`` on the boundary vertex rows and columns,
    the same as Gamma^t block Gamma for the 0/1 restriction Gamma from
    vertex values to boundary vertex values."""
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
        Weighted boundary coupling diag(w) T on boundary vertex values, so
        the boundary part of the form is (trace v)^t Bw (trace u).
    FormAtilde : (n, n)
        Alpha-shifted boundary-coupled form.  The adjoint form
        a*(u, v) = a(v, u) is its transpose, so none is assembled.
    H1 : (n, n)
        Discrete H1 Gram matrix K_id + diag(mass).
    trace_norm_sq : float
        Largest generalized eigenvalue of (Gamma^t diag(w) Gamma, H1),
        Gamma the 0/1 restriction to the boundary vertices.  The trace
        form is passed to
        ``compute_trace_norm`` as a sparse diagonal and H1 gathered at the
        P1 pattern; neither sparse matrix is stored.
    admissibility : AdmissibilityReport

    ``with_boundary`` derives the system of another boundary operator
    from this one.
    """

    def __init__(self, mesh, field, spec, alpha):
        if mesh.n_vertices > DENSE_LIMIT:
            raise RuntimeError(f"mesh has {mesh.n_vertices} unknowns, above "
                               f"the dense limit {DENSE_LIMIT}")
        self.mesh = mesh
        self.field = field
        self.alpha = float(alpha)

        self.K = assemble_stiffness(mesh, field)
        self.K_id = assemble_stiffness(
            mesh, CoefficientField.isotropic(mesh, 1.0))
        self.mass = assemble_lumped_mass(mesh)
        self.boundary_weights = mesh.boundary_vertex_weights()
        self.H1 = self.K_id + np.diag(self.mass)

        self._pattern = _p1_pattern(mesh)
        _, rows, cols = self._pattern
        weights = np.zeros(mesh.n_vertices)
        weights[mesh.boundary_vertices] = self.boundary_weights
        H1 = _at_pattern(self._pattern, self.H1[rows, cols])
        self.trace_norm_sq = compute_trace_norm(scipy.sparse.diags(weights),
                                                H1)
        self._couple(spec)

    def _couple(self, spec):
        """Set the boundary operator: Bw, FormAtilde and admissibility."""
        self.spec = spec
        self.Bw = self.boundary_weights[:, None] * spec.matrix()
        self.FormAtilde = ((self.K + _on_boundary(self.mesh, self.Bw))
                           + self.alpha * np.diag(self.mass))
        self.admissibility = check_admissibility(
            spec, self.alpha, self.trace_norm_sq)

    @property
    def n(self):
        return self.mesh.n_vertices

    def with_boundary(self, spec):
        """The system of boundary operator ``spec`` with this field and
        shift.  It shares the stiffness, mass, H1, pattern and trace norm
        of this system; Bw, FormAtilde and admissibility are its own, with
        the bits ``assemble_system`` gives them."""
        derived = copy.copy(self)
        derived._couple(spec)
        return derived

    def h1_norm(self, u):
        return math.sqrt(max(float(u @ self.H1 @ u), 0.0))

    def l2_norm(self, u):
        return math.sqrt(float(self.mass @ (u * u)))


def assemble_system(mesh, field, spec, alpha=None):
    """Assemble every matrix of the laboratory on one mesh.

    ``alpha`` defaults to the field's certified ellipticity constant, which
    is the only value for which the shifted-form inequalities are claimed.
    """
    if alpha is None:
        alpha = field.alpha
    return AssembledSystem(mesh, field, spec, alpha)


# ----------------------------------------------------------------------
def _sparse(A, kind):
    """The dense or sparse A as a ``kind`` sparse matrix without explicit
    zeros: A itself when it already is one, a copy otherwise."""
    if isinstance(A, kind) and A.data.all():
        return A
    A = kind(A, copy=True)
    A.eliminate_zeros()
    return A


def compute_trace_norm(S, H1, tol=1e-10, max_iterations=10000):
    """Largest generalized eigenvalue of (S, H1) by power iteration on the
    H1-solve.

    Both matrices must be symmetric and H1 positive definite; the pencil
    then has a real nonnegative spectrum and the Rayleigh quotient
    converges monotonically up to roundoff.  S and H1 may be dense or
    sparse.  Both are converted to sparse matrices without explicit
    zeros and H1 is factored once by sparse LU, so the same nonzeros give
    the same bits in either form.
    """
    S = _sparse(S, scipy.sparse.csr_matrix)
    H1 = _sparse(H1, scipy.sparse.csc_matrix)
    solve = scipy.sparse.linalg.splu(H1).solve
    rng = np.random.default_rng(0)
    x = rng.standard_normal(H1.shape[0])
    x /= math.sqrt(float(x @ (H1 @ x)))
    Sx = S @ x
    value = float(x @ Sx)
    for _ in range(max_iterations):
        y = solve(Sx)
        norm = math.sqrt(float(y @ (H1 @ y)))
        if norm == 0.0:
            return 0.0
        x = y / norm
        Sx = S @ x
        new_value = float(x @ Sx) / float(x @ (H1 @ x))
        if abs(new_value - value) <= tol * abs(new_value):
            return float(new_value)
        value = new_value
    raise RuntimeError(
        f"trace norm power iteration did not converge within "
        f"{max_iterations} iterations (last value {value:.6g})")


def form_norm(F):
    """||F||_2 of a dense n x n form.

    When max|F - F^T| <= SYMMETRY_TOL * max|F| the form counts as
    symmetric, and the norm is the largest |eigenvalue| of its symmetric
    part.  From LANCZOS_MIN_SIZE unknowns on it is one Lanczos Ritz value
    (ARPACK ``eigsh`` with k=1 and tol=0).  The start vector is a fixed
    seeded random vector, so runs stay deterministic, and unlike the
    all-ones vector a mirror symmetry of the mesh cannot make it
    orthogonal to the top eigenvector.  A Ritz value lies inside the
    spectrum, so this can only underestimate the norm.  Smaller forms,
    and forms on which ARPACK fails, take the full dense spectrum.  Any
    other form takes the SVD.
    """
    if np.abs(F - F.T).max() > SYMMETRY_TOL * np.abs(F).max():
        return float(np.linalg.norm(F, 2))
    sym = 0.5 * (F + F.T)
    if len(F) >= LANCZOS_MIN_SIZE:
        start = np.random.default_rng(0).standard_normal(len(F))
        try:
            ritz = scipy.sparse.linalg.eigsh(
                scipy.sparse.csr_matrix(sym), k=1, which="LM", tol=0,
                v0=start, return_eigenvectors=False)
            return float(abs(ritz[0]))
        except scipy.sparse.linalg.ArpackError:
            pass
    return float(np.abs(np.linalg.eigvalsh(sym)).max())


# ----------------------------------------------------------------------
@dataclass
class AccretivityReport(Report):
    status: str                 # "passed" | "failed" | "hypothesis unmet"
    lambda_min: float
    scale: float
    tolerance: float = ACCRETIVITY_TOL


def _form_pattern(system):
    """The pattern of FormAtilde: the P1 pattern of ``system``, with the
    boundary block when the boundary term Bw couples distinct vertices."""
    Bw = system.Bw
    if np.array_equal(Bw, np.diag(np.diagonal(Bw))):
        return system._pattern
    return _p1_pattern(system.mesh, system.mesh.boundary_vertices)


def _certified_lambda_min(system, sigma):
    """lambda_min of D = sym(FormAtilde - H1) when D - sigma I is certified
    positive definite, else None.

    D - sigma I is gathered at the pattern of FormAtilde
    (``_form_pattern``) and factored once by
    sparse LU with symmetric ordering and diagonal pivots.  When the row and
    column permutations agree, the factor is P (D - sigma I) P^t = L U
    with U = diag(U) L^t, so by Sylvester's law of inertia a positive
    diag(U) certifies lambda_min > sigma.  lambda_min is then sigma + 1/nu,
    with nu the top Ritz value of shift-invert Lanczos on the same factor
    (ARPACK ``eigsh``, k=1, tol=0, the seeded start vector of
    ``form_norm``).  A nonpositive pivot, another permutation, an exactly
    singular factor or an ARPACK failure give None.
    """
    pattern = _form_pattern(system)
    _, rows, cols = pattern
    F, H1 = system.FormAtilde, system.H1
    values = 0.5 * ((F[rows, cols] - H1[rows, cols])
                    + (F[cols, rows] - H1[cols, rows]))
    values[rows == cols] -= sigma
    try:
        lu = scipy.sparse.linalg.splu(
            _at_pattern(pattern, values), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0, options=dict(SymmetricMode=True))
    except RuntimeError:
        return None
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and (lu.U.diagonal() > 0).all()):
        return None
    n = system.n
    start = np.random.default_rng(0).standard_normal(n)
    inverse = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve,
                                                 dtype=float)
    try:
        ritz = scipy.sparse.linalg.eigsh(inverse, k=1, which="LA", tol=0,
                                         v0=start, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackError:
        return None
    return sigma + 1.0 / float(ritz[0])


def check_accretivity(system):
    """Verify that the shifted form dominates the H1 Gram matrix:
    sym(FormAtilde - H1) must be positive semidefinite up to
    ACCRETIVITY_TOL * ||FormAtilde||.

    Requires the weaker admissibility condition; otherwise the check is
    reported as hypothesis unmet rather than failed.  ||FormAtilde|| comes
    from ``form_norm``: a Lanczos Ritz value when the form is symmetric
    within SYMMETRY_TOL and has at least LANCZOS_MIN_SIZE unknowns, the
    dense spectrum of a smaller symmetric form, the largest singular
    value otherwise.  The Ritz value can only underestimate the norm,
    which tightens the tolerance and so never turns a failure into a
    pass.

    From LANCZOS_MIN_SIZE unknowns on, a sparse factorization whose pivot
    signs certify sym(FormAtilde - H1) + ACCRETIVITY_TOL * scale * I
    positive definite decides ``passed``, and lambda_min comes from
    shift-invert Lanczos on that factor (``_certified_lambda_min``).
    Every other case, including each one that factorization cannot
    certify, takes the full dense spectrum of sym(FormAtilde - H1), so a
    Ritz value never decides a pass.
    """
    scale = form_norm(system.FormAtilde)
    if not system.admissibility.accretive:
        return AccretivityReport("hypothesis unmet", math.nan, scale)
    sigma = -ACCRETIVITY_TOL * scale
    lam = None
    if system.n >= LANCZOS_MIN_SIZE:
        lam = _certified_lambda_min(system, sigma)
    if lam is None:
        diff = system.FormAtilde - system.H1
        lam = float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())
    status = "passed" if lam >= sigma else "failed"
    return AccretivityReport(status, lam, scale)


@dataclass
class ContinuityReport(Report):
    max_ratio: float
    bound_constant: float
    samples: int
    seed: int
    passed: bool


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
        passed=bool(worst <= 1.0 + RATIO_TOL),
    )
