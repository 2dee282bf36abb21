"""P1 finite element assembly of the shifted boundary-coupled forms, and
the form checks.

An ``AssembledSystem`` holds scipy CSR matrices.  K and K_id sit at the
P1 sparsity pattern, the vertex pairs of each cell.  H1 and FormAtilde
are scipy sparse sums of them with the diagonal and with the boundary
coupling Bw = diag(w) T, itself CSR, placed at the boundary vertices;
they store no zero.  Each stored entry has the bits that a dense n x n
assembly gives it, so ``toarray()`` returns that dense matrix, and no
boundary operator is made dense on the way.  Stiffness uses exact
one-point quadrature (piecewise constant coefficients, piecewise
constant gradients); volume and boundary mass are lumped.  The cell
gradients come from one stacked ``inv``, shared by K and K_id, and one
``np.bincount`` sums the cell matrices in cell order, so every entry has
the bits of a loop over cells.

The form checks cost O(nnz) apart from their samples.  The trace norm is
a power iteration on a sparse LU of H1.  A form is symmetric when
max|F - F^T| <= SYMMETRY_TOL max|F|, tested, like its symmetric part, by
a sparse sum with the transpose.  From LANCZOS_MIN_SIZE unknowns on, the
norm of a symmetric form is one Lanczos Ritz value, which lies inside
the spectrum and so can only underestimate the norm, and accretivity is
decided by the pivot signs of a sparse symmetric factorization, with
lambda_min from shift-invert Lanczos on the same factor
(``_certified_lambda_min``).  Lanczos is ARPACK ``eigsh`` with k=1, tol=0
and a fixed seeded random start vector, so runs stay deterministic, and
unlike the all-ones vector a mirror symmetry of the mesh cannot make the
start orthogonal to the top eigenvector.  Smaller forms, and every case
that ARPACK or the factorization cannot settle, take the dense spectrum,
so a Ritz value never decides a pass.  A non-symmetric form's norm is
the SVD of its dense copy.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .coefficients import check_admissibility
from .report import Report, require_samples
from .semigroup import SYMMETRY_TOL

__all__ = [
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

# Most unknowns an AssembledSystem admits.  Every run computes
# exponentials of the semigroup evaluator's generator (norms.csv scans the
# grid whatever the checks).  What sets its dense peak is a seed
# ``expm``'s operand and workspace, with no chain matrix beside it, and in
# an ``accretivity`` run ``semigroup_law_defect``'s first factor, held
# through the ``expm`` of the second; a sweep otherwise holds the factor
# being squared and its square, and no step keeps an n x n array past its
# chain.  Each n x n array is 288 MB at this size.  So the system refuses
# before assembling anything, and ``robinheat run`` before it builds the
# mesh.  Below it n^2 < 2^31, so the P1 pattern's indices fit int32.
DENSE_LIMIT = 6000

ACCRETIVITY_TOL = 1e-10     # relative to the norm of the form
RATIO_TOL = 1e-10           # how far a ratio bounded by 1 may exceed it
CONTINUITY_BLOCK = 16       # samples check_continuity draws at a time


def _barycentric_gradients(points):
    """Gradients of the d+1 hat functions per simplex, (m, d+1, d)."""
    inv = np.linalg.inv(np.swapaxes(points[:, 1:] - points[:, :1], 1, 2))
    return np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)


def _cell_pairs(mesh):
    """The CSR pattern of the vertex pairs of each cell, int32: the entry
    of each pair in the order of the (m, d+1, d+1) cell matrices, and the
    pattern's indices and indptr."""
    n, cells = mesh.n_vertices, mesh.cells
    keys, slots = np.unique((cells[:, :, None] * n + cells[:, None, :]).ravel(),
                            return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return (slots.astype(np.int32), (keys % n).astype(np.int32),
            indptr.astype(np.int32))


def _cell_stiffness(mesh, *per_cells):
    """The (m, d+1, d+1) cell matrices |cell| grad(phi_i)^t A_c grad(phi_j)
    for each (m, d, d) coefficient array A, None meaning the identity, from
    one gradient computation."""
    grads = _barycentric_gradients(mesh.vertices[mesh.cells])
    scaled = mesh.cell_volumes[:, None, None] * grads
    right = np.swapaxes(grads, 1, 2)
    return [scaled @ right if A is None else scaled @ A @ right
            for A in per_cells]


def refuse_above_dense_limit(n):
    """Refuse a mesh of ``n`` unknowns above DENSE_LIMIT with RuntimeError."""
    if n > DENSE_LIMIT:
        raise RuntimeError(f"mesh has {n} unknowns, above the dense limit "
                           f"{DENSE_LIMIT}")


def assemble_lumped_mass(mesh):
    """Diagonal of the lumped mass matrix as a vector: each cell spreads its
    volume equally over its d+1 vertices."""
    share = np.repeat(mesh.cell_volumes / (mesh.dim + 1), mesh.dim + 1)
    return np.bincount(mesh.cells.ravel(), weights=share,
                       minlength=mesh.n_vertices)


# ----------------------------------------------------------------------
class AssembledSystem:
    """All matrices of the shifted form on one mesh: the stiffness K of
    the field and K_id of the identity, the lumped ``mass`` and
    ``boundary_weights``, the H1 Gram matrix K_id + diag(mass), the form
    FormAtilde shifted by the field's certified ellipticity constant
    ``alpha`` (its transpose is the adjoint form, so none is assembled),
    ``trace_norm_sq``, the largest generalized eigenvalue of
    (Gamma^t diag(w) Gamma, H1) with Gamma the restriction to the
    boundary vertices, and ``admissibility``.  H1 and FormAtilde store no
    zero.  A mesh above DENSE_LIMIT unknowns is refused before anything
    is assembled.
    """

    def __init__(self, mesh, field, spec):
        refuse_above_dense_limit(mesh.n_vertices)
        self.mesh = mesh
        self.field = field
        self.alpha = float(field.alpha)

        # the pattern first, so its temporaries are gone before the cell
        # matrices exist
        slots, indices, indptr = _cell_pairs(mesh)
        self.K, self.K_id = (
            scipy.sparse.csr_matrix(
                (np.bincount(slots, weights=local.ravel(),
                             minlength=len(indices)), indices, indptr),
                shape=(self.n, self.n))
            for local in _cell_stiffness(mesh, field.per_cell, None))
        self.mass = assemble_lumped_mass(mesh)
        self.boundary_weights = mesh.boundary_vertex_weights()
        self.H1 = self.K_id + scipy.sparse.diags(self.mass)

        weights = np.zeros(mesh.n_vertices)
        weights[mesh.boundary_vertices] = self.boundary_weights
        self.trace_norm_sq = compute_trace_norm(scipy.sparse.diags(weights),
                                                self.H1)
        self._couple(spec)

    def _couple(self, spec):
        """Set the boundary operator: spec, FormAtilde and admissibility.
        FormAtilde is (K + Bw) + alpha * mass by sparse sums, each entry in
        the order of the dense expression, Bw at the boundary vertices."""
        self.spec = spec
        Bw = self.Bw.tocoo()
        vertices = self.mesh.boundary_vertices
        coupling = scipy.sparse.csr_matrix(
            (Bw.data, (vertices[Bw.row], vertices[Bw.col])),
            shape=(self.n, self.n))
        self.FormAtilde = ((self.K + coupling)
                           + scipy.sparse.diags(self.alpha * self.mass))
        self.admissibility = check_admissibility(
            spec, self.alpha, self.trace_norm_sq)
        self._form_scale = None
        self._shifted = {}      # sign -> the system of spec.shifted_bar(sign)

    @property
    def n(self):
        return self.mesh.n_vertices

    @property
    def Bw(self):
        """diag(w) T as a CSR matrix, each entry w_i T_ij, computed on each
        access so that the system keeps no second copy of T's entries."""
        Bw = self.spec.matrix()
        Bw.data *= np.repeat(self.boundary_weights, np.diff(Bw.indptr))
        return Bw

    @property
    def form_scale(self):
        """||FormAtilde||_2 from ``form_norm``, computed on first access
        and kept until the boundary operator changes."""
        if self._form_scale is None:
            self._form_scale = form_norm(self.FormAtilde)
        return self._form_scale

    def shifted_bar(self, sign):
        """The system of boundary operator |bar|_inf + sign * bar
        (``spec.shifted_bar``), built on first call and kept until the
        boundary operator changes."""
        if sign not in self._shifted:
            self._shifted[sign] = self.with_boundary(
                self.spec.shifted_bar(sign))
        return self._shifted[sign]

    def with_boundary(self, spec):
        """The system of boundary operator ``spec`` with this field and
        shift.  It shares the stiffness, mass, H1 and trace norm of this
        system; spec, FormAtilde and admissibility are its own,
        with the bits ``assemble_system`` gives them."""
        derived = copy.copy(self)
        derived._couple(spec)
        return derived

    def h1_norm(self, u):
        return math.sqrt(max(float(u @ (self.H1 @ u)), 0.0))

    def l2_norm(self, u):
        return math.sqrt(float(self.mass @ (u * u)))


def assemble_system(mesh, field, spec):
    """Assemble every matrix of the laboratory on one mesh, the form
    shifted by the field's certified ellipticity constant, the only shift
    for which the shifted-form inequalities are claimed."""
    return AssembledSystem(mesh, field, spec)


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
    H1-solve.  Both must be symmetric and H1 positive definite, so the
    Rayleigh quotient converges monotonically up to roundoff.  Dense or
    sparse, both become sparse without explicit zeros and H1 is factored
    once by sparse LU, so the same nonzeros give the same bits."""
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
    """||F||_2 of a sparse n x n form: the largest |eigenvalue| of the
    symmetric part of a symmetric form, the largest singular value of any
    other (module docstring)."""
    n = F.shape[0]
    if abs(F - F.T).max() > SYMMETRY_TOL * abs(F).max():
        return float(np.linalg.norm(F.toarray(), 2))
    sym = 0.5 * (F + F.T)
    if n >= LANCZOS_MIN_SIZE:
        start = np.random.default_rng(0).standard_normal(n)
        try:
            ritz = scipy.sparse.linalg.eigsh(
                sym, k=1, which="LM", tol=0, v0=start,
                return_eigenvectors=False)
            return float(abs(ritz[0]))
        except scipy.sparse.linalg.ArpackError:
            pass
    return float(np.abs(np.linalg.eigvalsh(sym.toarray())).max())


# ----------------------------------------------------------------------
@dataclass
class AccretivityReport(Report):
    status: str                 # "passed" | "failed" | "hypothesis unmet"
    lambda_min: float
    scale: float
    tolerance: float = ACCRETIVITY_TOL


def _symmetric_difference(system, sigma=0.0):
    """sym(FormAtilde - H1) - sigma I as a CSC matrix without explicit
    zeros, entry by entry the bits of the dense expression."""
    diff = system.FormAtilde - system.H1
    identity = scipy.sparse.identity(system.n, format="csr")
    return (0.5 * (diff + diff.T) - sigma * identity).tocsc()


def _certified_lambda_min(system, sigma):
    """lambda_min of D = sym(FormAtilde - H1) when D - sigma I is certified
    positive definite, else None.

    D - sigma I is factored once by sparse LU with symmetric ordering and
    diagonal pivots.  When the row and column permutations agree, the
    factor is P (D - sigma I) P^t = L U with U = diag(U) L^t, so by
    Sylvester's law of inertia a positive diag(U) certifies
    lambda_min > sigma.  lambda_min is then sigma + 1/nu, with nu the top
    Ritz value of shift-invert Lanczos on the same factor.  A nonpositive
    pivot, another permutation, an exactly singular factor or an ARPACK
    failure give None.
    """
    try:
        lu = scipy.sparse.linalg.splu(
            _symmetric_difference(system, sigma), permc_spec="MMD_AT_PLUS_A",
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
    ACCRETIVITY_TOL times the system's ``form_scale``.  Without the weaker
    admissibility condition the status is hypothesis unmet.  A Ritz value
    in ``form_scale`` can only underestimate the norm, which tightens the
    tolerance and so never turns a failure into a pass.
    """
    scale = system.form_scale
    if not system.admissibility.accretive:
        return AccretivityReport("hypothesis unmet", math.nan, scale)
    sigma = -ACCRETIVITY_TOL * scale
    lam = None
    if system.n >= LANCZOS_MIN_SIZE:
        lam = _certified_lambda_min(system, sigma)
    if lam is None:
        lam = float(np.linalg.eigvalsh(
            _symmetric_difference(system).toarray()).min())
    status = "passed" if lam >= sigma else "failed"
    return AccretivityReport(status, lam, scale)


@dataclass
class ContinuityReport(Report):
    max_ratio: float
    bound_constant: float
    samples: int
    seed: int
    passed: bool
    status: str                 # "passed" | "failed", as ``passed`` says


def check_continuity(system, samples=200, seed=2024):
    """Sampled check of the continuity bound

        |v^t FormAtilde u| <= (d^2 sup|A| + norm2 tr^2) |u|_H1 |v|_H1
                              + alpha |u|_L2 |v|_L2.

    Reports the largest observed ratio of left to right side.  The
    samples are drawn and evaluated CONTINUITY_BLOCK at a time, in the
    order of one (samples, 2, n) draw, so memory does not grow with
    ``samples``.  Fewer than one sample is refused with ValueError.
    """
    require_samples(samples)
    d = system.mesh.dim
    const = (d * d * system.field.sup_norm
             + system.spec.norm2 * system.trace_norm_sq)
    rng = np.random.default_rng(seed)

    def norms(w):
        h1 = np.sqrt(np.maximum(((system.H1 @ w.T).T * w).sum(axis=1), 0.0))
        return h1, np.sqrt((w * w) @ system.mass)

    def ratios(count):
        u, v = np.moveaxis(rng.standard_normal((count, 2, system.n)), 1, 0)
        (h1_u, l2_u), (h1_v, l2_v) = norms(u), norms(v)
        lhs = np.abs(((system.FormAtilde @ u.T).T * v).sum(axis=1))
        rhs = const * h1_u * h1_v + system.alpha * l2_u * l2_v
        return lhs / rhs

    worst = np.max([ratios(min(CONTINUITY_BLOCK, samples - start))
                    .max(initial=0.0)
                    for start in range(0, samples, CONTINUITY_BLOCK)],
                   initial=0.0)
    passed = bool(worst <= 1.0 + RATIO_TOL)
    return ContinuityReport(
        max_ratio=float(worst),
        bound_constant=float(const),
        samples=samples,
        seed=seed,
        passed=passed,
        status="passed" if passed else "failed",
    )
