"""Diffusion coefficients and boundary operators.

A coefficient field is one (possibly nonsymmetric) d x d matrix per cell
with a certified ellipticity constant.  A boundary operator acts on values
at boundary vertices; its discrete L2 and Linf norms on the weighted
boundary space are computed exactly and stored alongside a positive
comparison operator ("bar") that dominates it entrywise.
"""

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .report import Report

__all__ = [
    "CoefficientField",
    "certify_ellipticity",
    "BoundaryOperatorSpec",
    "build_boundary_operator",
    "coefficient_field_from_config",
    "AdmissibilityReport",
    "check_admissibility",
]


# ----------------------------------------------------------------------
class CoefficientField:
    """Per-cell diffusion matrices with certified ellipticity.

    Parameters
    ----------
    mesh : Mesh
    per_cell : (n_cells, d, d) float array
        One matrix per cell; symmetry is not assumed.

    Attributes
    ----------
    alpha : float
        Certified ellipticity constant: the smallest eigenvalue of the
        symmetric part over all cells.
    sup_norm : float
        Largest absolute matrix entry over all cells.
    """

    def __init__(self, mesh, per_cell):
        per_cell = np.asarray(per_cell, dtype=float)
        d = mesh.dim
        if per_cell.shape != (mesh.n_cells, d, d):
            raise ValueError(
                f"need shape {(mesh.n_cells, d, d)}, got {per_cell.shape}")
        self.mesh = mesh
        self.per_cell = per_cell
        self.alpha = certify_ellipticity(self)
        self.sup_norm = float(np.abs(per_cell).max())

    @classmethod
    def isotropic(cls, mesh, value):
        """value * identity on every cell."""
        value = float(value)
        eye = np.eye(mesh.dim)
        return cls(mesh, np.tile(value * eye, (mesh.n_cells, 1, 1)))

    @classmethod
    def diagonal(cls, mesh, values):
        """Constant diagonal matrix diag(values) on every cell."""
        mat = np.diag(np.asarray(values, dtype=float))
        if mat.shape != (mesh.dim, mesh.dim):
            raise ValueError(f"need {mesh.dim} diagonal values")
        return cls(mesh, np.tile(mat, (mesh.n_cells, 1, 1)))

    @classmethod
    def matrix(cls, mesh, entries):
        """Full matrix coefficient: one d x d matrix for the whole domain
        or one per cell."""
        entries = np.asarray(entries, dtype=float)
        if entries.shape == (mesh.dim, mesh.dim):
            entries = np.tile(entries, (mesh.n_cells, 1, 1))
        return cls(mesh, entries)

    @property
    def is_isotropic(self):
        """True when every cell matrix is a scalar multiple of the identity."""
        d = self.mesh.dim
        scal = self.per_cell[:, 0, 0]
        target = scal[:, None, None] * np.eye(d)
        return bool(np.allclose(self.per_cell, target, rtol=0.0, atol=1e-14))


def certify_ellipticity(field):
    """Smallest eigenvalue of the symmetric part over all cells.

    Raises ``ValueError`` if the field is not uniformly elliptic.
    """
    sym = 0.5 * (field.per_cell + np.transpose(field.per_cell, (0, 2, 1)))
    eigs = np.linalg.eigvalsh(sym)
    alpha = float(eigs.min())
    if alpha <= 0.0:
        worst = int(np.argmin(eigs[:, 0]))
        raise ValueError(
            f"coefficient is not elliptic: symmetric part has eigenvalue "
            f"{alpha:.6g} on cell {worst}")
    return alpha


def coefficient_field_from_config(mesh, config):
    """Build a field from a flat config mapping (kind + numbers)."""
    kind = config["kind"]
    if kind == "isotropic":
        return CoefficientField.isotropic(mesh, config["value"])
    if kind == "diagonal":
        return CoefficientField.diagonal(mesh, config["values"])
    if kind == "matrix":
        return CoefficientField.matrix(
            mesh, _square(config["entries"], mesh.dim, "a matrix coefficient"))
    raise ValueError(f"unknown coefficient kind {kind!r}")


def _square(entries, size, what):
    """The row-major list ``entries`` as a size x size array; a list of
    another length is refused with the count it should have."""
    entries = np.asarray(entries, dtype=float)
    if entries.size != size * size:
        raise ValueError(f"{what} needs {size * size} entries ({size} x "
                         f"{size}, row-major), got {entries.size}")
    return entries.reshape(size, size)


# ----------------------------------------------------------------------
class BoundaryOperatorSpec:
    """Boundary operator on values at boundary vertices.

    The operator is stored through its application matrix ``T`` mapping
    boundary vertex values to boundary vertex values:

    * ``zero``            T = 0
    * ``multiplication``  T = diag(beta)
    * ``kernel``          T = Kmat @ diag(w), integration of k(x, y)
                          against the lumped boundary measure w
    * ``dense``           T = Bm, a raw matrix on vertex values

    ``T`` is held as a CSR matrix without explicit zeros, so a zero or
    multiplication operator never stores an nb x nb array.  The positive
    comparison operator ("bar") is |T|, entrywise: the operator of the
    absolute kernel |k(x, y)| w(y), since the weights are positive.  It is
    formed from ``T`` by the derived operators that use it.

    ``norm2`` / ``norm_inf`` are the exact operator norms of ``T`` on the
    w-weighted L2 and the Linf boundary spaces, and ``norm2_bar`` and
    ``norm_inf_bar`` those of |T|.  They are computed from the matrix the
    constructor is given, so a kernel's come from the dense samples its
    builder holds; a sparse non-diagonal ``T`` is copied dense for the SVD
    behind its L2 norm (``_operator_norms``).
    """

    def __init__(self, weights, application):
        self.weights = np.asarray(weights, dtype=float)
        self._T = scipy.sparse.csr_matrix(application, dtype=float,
                                         copy=True)
        self._T.eliminate_zeros()

        self.norm2, self.norm_inf = _operator_norms(application, self.weights)
        self.norm2_bar, self.norm_inf_bar = _operator_norms(
            abs(application), self.weights)

    # -- construction ---------------------------------------------------
    @classmethod
    def zero(cls, mesh):
        nb = len(mesh.boundary_vertices)
        return cls(mesh.boundary_vertex_weights(),
                   scipy.sparse.csr_matrix((nb, nb)))

    @classmethod
    def multiplication(cls, mesh, beta):
        nb = len(mesh.boundary_vertices)
        beta = np.broadcast_to(np.asarray(beta, dtype=float), (nb,))
        return cls(mesh.boundary_vertex_weights(),
                   scipy.sparse.diags(beta, format="csr"))

    @classmethod
    def kernel(cls, mesh, values):
        """``values``: (nb, nb) samples k(x_i, x_j) at boundary vertices."""
        w = mesh.boundary_vertex_weights()
        nb = len(w)
        kmat = np.asarray(values, dtype=float)
        if kmat.shape != (nb, nb):
            raise ValueError(f"kernel samples must have shape {(nb, nb)}")
        return cls(w, kmat * w[None, :])

    @classmethod
    def dense(cls, mesh, matrix):
        matrix = np.asarray(matrix, dtype=float)
        nb = len(mesh.boundary_vertices)
        if matrix.shape != (nb, nb):
            raise ValueError(f"dense operator must have shape {(nb, nb)}")
        return cls(mesh.boundary_vertex_weights(), matrix)

    # -- operator data --------------------------------------------------
    def matrix(self):
        """Application matrix on boundary vertex values, a CSR copy."""
        return self._T.copy()

    # -- derived operators ----------------------------------------------
    def dominating(self):
        """Negated comparison operator; its semigroup dominates this one's.
        Its comparison operator |-|T|| is |T|, so it keeps this operator's
        bar norms and computes only the norms of -|T|."""
        spec = copy.copy(self)
        spec._T = -abs(self._T)
        spec.norm2, spec.norm_inf = _operator_norms(spec._T, self.weights)
        return spec

    def shifted_bar(self, sign):
        """norm_inf_bar * identity +/- bar."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        nb = len(self.weights)
        comb = (self.norm_inf_bar * scipy.sparse.identity(nb, format="csr")
                + sign * abs(self._T))
        return BoundaryOperatorSpec(self.weights, comb)


def _operator_norms(T, w):
    """Exact discrete operator norms of the application matrix ``T``, an
    array or a sparse matrix.

    L2 norm on the w-weighted space comes from the largest singular value
    of W^(1/2) T W^(-1/2), which is max|T_ii| when T has no off-diagonal
    nonzero; the Linf norm is the max absolute row sum, which is then
    max|T_ii| too.  Any other T takes the SVD of the dense array it is,
    or of a dense copy of a sparse T, and both norms come from that.
    """
    sparse = scipy.sparse.csr_matrix(T)
    diagonal = sparse.diagonal()
    if np.count_nonzero(diagonal) == sparse.count_nonzero():
        value = float(np.abs(diagonal).max())
        return value, value
    if scipy.sparse.issparse(T):
        T = T.toarray()
    root = np.sqrt(w)
    scaled = (T * root[:, None]) / root[None, :]
    norm2 = float(np.linalg.norm(scaled, 2))
    norm_inf = float(np.abs(T).sum(axis=1).max())
    return norm2, norm_inf


# ----------------------------------------------------------------------
def build_boundary_operator(mesh, config):
    """Build an operator from a config mapping.

    Recognized kinds: ``zero``; ``multiplication`` with ``beta`` (scalar or
    per-boundary-vertex array); ``kernel`` with a ``profile`` selector
    (``constant``, ``gaussian`` with a positive ``width``, ``cosine``) and
    ``scale``; ``dense`` with an inline row-major ``entries`` array.
    """
    kind = config["kind"]
    if kind == "zero":
        return BoundaryOperatorSpec.zero(mesh)
    if kind == "multiplication":
        return BoundaryOperatorSpec.multiplication(mesh, config["beta"])
    if kind == "kernel":
        profile = config["profile"]
        x = mesh.vertices[mesh.boundary_vertices]
        if profile == "constant":
            samples = np.ones((len(x), len(x)))
        elif profile == "gaussian":
            width = float(config["width"])
            if not width > 0:
                raise ValueError(f"kernel width {width!r} is not positive")
            # not over width**2, which can overflow; a tiny width: exp(-inf)
            dist2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
            with np.errstate(over="ignore"):
                samples = np.exp(-0.5 * (dist2 / width / width))
        elif profile == "cosine":
            if mesh.dim < 2:
                raise ValueError("cosine kernel needs dim >= 2")
            c0, c1 = np.cos(np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])
            samples = c0[:, None] * c1[None, :] - c1[:, None] * c0[None, :]
        else:
            raise ValueError(f"unknown kernel profile {profile!r}")
        return BoundaryOperatorSpec.kernel(mesh, config["scale"] * samples)
    if kind == "dense":
        return BoundaryOperatorSpec.dense(mesh, _square(
            config["entries"], len(mesh.boundary_vertices), "a dense operator"))
    raise ValueError(f"unknown boundary operator kind {kind!r}")


# ----------------------------------------------------------------------
@dataclass
class AdmissibilityReport(Report):
    """Outcome of the coupling condition between diffusion strength and
    boundary operator size.

    ``admissible`` uses the comparison operator's norms (the hypothesis of
    the smoothing theory); ``accretive`` is the weaker condition with the
    operator's own L2 norm that already makes the shifted form coercive.
    """

    alpha: float
    trace_norm_sq: float
    admissible: bool
    margin: float
    accretive: bool
    accretive_margin: float


def check_admissibility(spec, alpha, trace_norm_sq):
    """Check 1 + (norm_inf_bar + norm2_bar) * trace_norm_sq <= alpha and the
    weaker variant 1 + norm2 * trace_norm_sq <= alpha.
    """
    alpha = float(alpha)
    trace_norm_sq = float(trace_norm_sq)
    margin = alpha - 1.0 - (spec.norm_inf_bar + spec.norm2_bar) * trace_norm_sq
    accretive_margin = alpha - 1.0 - spec.norm2 * trace_norm_sq
    return AdmissibilityReport(
        alpha=alpha,
        trace_norm_sq=trace_norm_sq,
        admissible=bool(margin >= 0.0),
        margin=float(margin),
        accretive=bool(accretive_margin >= 0.0),
        accretive_margin=float(accretive_margin),
    )
