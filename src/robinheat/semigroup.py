"""Semigroup evaluation for the lumped generator M^{-1} FormAtilde.

The evaluator exponentiates the (negated, scaled) generator with dense
scaling and squaring and reports the mixed operator norms used by the
smoothing estimates.  All norms refer to the lumped measures: L2 and L1
carry the mass weights, the sup norm is the plain max over vertices.

Every quantity refers to the shifted contraction semigroup
exp(-t M^{-1} FormAtilde).  The original evolution is exp(alpha t) times
it (Ouhabaz, Analysis of Heat Equations on Domains, 2005); the checks
that report it apply that scalar, so an evaluator is its form, mass and grid.

Sharing and duality.  Each evaluator owns its grid's read-only matrices,
its mixed norms per time (each computed once), its symmetry residual and
the spectrum of its symmetrized weighted generator.  There is no adjoint
evaluator: in the lumped inner product u^T M v the adjoint semigroup is
exactly S*(t) = M^{-1} S(t)^T M = exp(-t M^{-1} FormAtilde^T) on every
form.  Its mixed norms are the primal's dual norms,
|S*|_{1->2} = |S|_{2->inf} and |S*|_{1->1} = |S|_{inf->inf}, and a check
that needs S*(t) itself forms it from the primal's matrix.
``reuse(evaluator, candidate)`` returns ``evaluator`` when the
candidate's form, mass and grid are bitwise equal to its own, so
whoever builds the evaluators of an original and a comparison system
whose boundary operators coincide detects that they can share and never
assumes it.  A form one bit away keeps its own evaluator, and a reused
one gives the bits the candidate would give.

Doubling chain.  An evaluator maps each grid time t_k to the earliest
grid time t_j with |t_k - 2 t_j| <= 4 eps t_k (eps the float64 machine
epsilon) and computes S(t_k) = S(t_j) @ S(t_j) instead of a fresh
``expm``: on the default ratio 2^-1/2, t_{k+2} = 2 t_k, so two
exponentials and squarings cover a grid that does not start too early
(below).  This is scaling and squaring (Higham, SIAM J. Matrix
Anal. Appl. 26(4), 2005) run across grid points instead of inside each
one.  Floats rarely double exactly (5 of the 22 pairs of the default
grid do; the rest differ in the last bit), so pairs are detected with
the tolerance and never assumed; a grid with no pairs, such as ratio
0.6, keeps one ``expm`` per time.  The first grid request builds the
grid in ascending time order, so the bits depend only on the generator
and the grid; an off-grid time takes one uncached ``expm``.
Error: S(t_k) becomes the 2^m-th power of an exponential at t_k / 2^m,
and each squaring at most doubles the factor's error and adds one
product's rounding (the factors of an accretive form are weighted
2-norm contractions).  A factor far below the norm ``expm`` scales to
has its rounding amplified by 2^m, overscaling (Al-Mohy and Higham,
SIAM J. Matrix Anal. Appl. 31(3), 2009), so the chain squares only a
factor with |t_j P|_inf >= MIN_SQUARED = 2^-4 and takes one ``expm`` at
any other time.  The tolerated time mismatch moves S(t_k) by at most
4 eps t_k |P S(t)|.  ``exponential(t)`` is the uncached single-``expm``
route, ``dense_exponential`` of the generator; ``semigroup_law_defect``
and the energy check use it, so neither tests a law the chain satisfies
by construction.  A matrix with a non-finite entry, from an exponential
or a squaring, is refused with ``FloatingPointError``.

The 2->2 norm.  For the generator P = M^{-1} FormAtilde, the weighted
generator W = M^{1/2} P M^{-1/2} equals M^{-1/2} FormAtilde M^{-1/2}.
When max|W - W^T| <= SYMMETRY_TOL * max|W|, S(t) is self-adjoint in the
lumped inner product and its 2->2 norm is exp(-t lambda_min(W)): the
evaluator computes the spectrum of W with one ``eigvalsh`` on first use,
and ``norm_2_to_2`` takes no SVD.  The same spectrum gives the weighted
2->2 norm of the resolvent (I + lam P)^{-1}, max_k 1 / |1 + lam lambda_k|,
which is 1 / (1 + lam lambda_min) whenever 1 + lam lambda_min > 0, so
``resolvent_contraction`` takes neither ``inv`` nor an SVD.  Any other
generator (sheared matrix fields, non-symmetric kernels) keeps the SVD of
the weighted S(t) and the ``inv`` and SVD of the weighted resolvent.  The
rule is a tolerance, not bitwise symmetry: from 216 unknowns on, the
stiffness sum leaves a self-adjoint form asymmetric in its last bits, with
residuals near 1e-16, while the shipped non-self-adjoint forms sit above
1e-5.
"""

import functools
import math

import numpy as np
import scipy.linalg

__all__ = [
    "SemigroupEvaluator",
    "build_evaluator",
    "dense_exponential",
    "geometric_times",
    "reuse",
    "semigroup_law_defect",
]

# Largest entrywise asymmetry of the weighted generator, relative to its
# largest entry, for which the 2->2 norm is taken from the spectrum.
SYMMETRY_TOL = 1e-12
MIN_SQUARED = 2.0 ** -4     # least |t P|_inf of a factor the chain squares


def _once_per_time(norm):
    """Compute a mixed norm once per evaluator and time."""
    @functools.wraps(norm)
    def cached(self, t):
        key = (norm.__name__, float(t))
        value = self._norms.get(key)
        if value is None:
            value = self._norms[key] = norm(self, t)
        return value
    return cached


class SemigroupEvaluator:
    """Evaluate exp(-t M^{-1} F) and its mixed operator norms.

    Parameters
    ----------
    system : AssembledSystem
    grid : sequence of float
        The times the grid checks scan, built together by ``matrix`` (see
        the module docstring).  Empty by default.
    """

    def __init__(self, system, grid=()):
        self.system = system
        self.mass = system.mass
        self.form = system.FormAtilde
        self.generator = self.form.toarray()
        self.generator /= self.mass[:, None]
        self.grid = np.asarray(grid, dtype=float)
        if not (self.grid >= 0).all():
            raise ValueError("grid times must be nonnegative")
        self._chain = None
        self._norms = {}
        self._residual = None
        self._eigenvalues = None

    def _weighted(self):
        root = np.sqrt(self.mass)
        return root[:, None] * self.generator / root[None, :]

    @property
    def symmetry_residual(self):
        """max|W - W^T| / max|W| for W = M^{1/2} P M^{-1/2}; the 2->2 norm
        comes from the spectrum when it is at most SYMMETRY_TOL."""
        if self._residual is None:
            W = self._weighted()
            scale = float(np.abs(W).max())
            asym = float(np.abs(W - W.T).max())
            self._residual = asym / scale if scale > 0 else 0.0
        return self._residual

    # -- exponentials --------------------------------------------------
    def matrix(self, t):
        """Read-only matrix of the semigroup at time t >= 0: a grid time's
        from the chain, any other's from one uncached ``expm``."""
        if t < 0:
            raise ValueError("negative time")
        hits = np.flatnonzero(self.grid == t)
        if len(hits) and self._chain is None:
            halves = _halves(self.grid)
            chain = [None] * len(self.grid)
            norm = float(np.linalg.norm(self.generator, np.inf))
            for k in np.argsort(self.grid, kind="stable"):
                if halves[k] < 0 or self.grid[halves[k]] * norm < MIN_SQUARED:
                    chain[k] = self.exponential(float(self.grid[k]))
                else:
                    half = chain[halves[k]]
                    with np.errstate(over="ignore", invalid="ignore"):
                        chain[k] = _finite(half @ half, self.grid[k])
            self._chain = chain
        S = self._chain[hits[0]] if len(hits) else self.exponential(float(t))
        S.flags.writeable = False   # a grid matrix is handed to every caller
        return S

    def exponential(self, t):
        """Shifted semigroup matrix at time t >= 0 from one dense scaling
        and squaring ``expm``, uncached: the route the checks use as an
        oracle independent of the doubling chain."""
        return dense_exponential(self.generator, t)

    def apply(self, t, u):
        """Semigroup applied to a vertex vector."""
        return self.matrix(t) @ np.asarray(u, dtype=float)

    # -- mixed norms ---------------------------------------------------
    @_once_per_time
    def norm_2_to_inf(self, t):
        """sup norm of S(t) u over the L2 unit ball."""
        S = self.matrix(t)
        return float(np.sqrt((S * S / self.mass[None, :]).sum(axis=1)).max())

    @_once_per_time
    def norm_1_to_2(self, t):
        """L2 norm of S(t) u over the L1 unit ball (extreme points are the
        scaled vertex indicators)."""
        S = self.matrix(t)
        col = np.sqrt((self.mass[:, None] * S * S).sum(axis=0)) / self.mass
        return float(col.max())

    @_once_per_time
    def norm_inf_to_inf(self, t):
        S = self.matrix(t)
        return float(np.abs(S).sum(axis=1).max())

    @_once_per_time
    def norm_1_to_1(self, t):
        S = self.matrix(t)
        col = (self.mass[:, None] * np.abs(S)).sum(axis=0) / self.mass
        return float(col.max())

    @_once_per_time
    def norm_2_to_2(self, t):
        if self.symmetry_residual > SYMMETRY_TOL:
            S = self.matrix(t)
            root = np.sqrt(self.mass)
            return float(np.linalg.norm(root[:, None] * S / root[None, :], 2))
        if t < 0:
            raise ValueError("negative time")
        return math.exp(-float(t) * self._spectrum()[0])

    def _spectrum(self):
        """Ascending eigenvalues of the symmetrized W, from one
        ``eigvalsh`` on first use."""
        if self._eigenvalues is None:
            W = self._weighted()
            self._eigenvalues = np.linalg.eigvalsh(0.5 * (W + W.T))
        return self._eigenvalues

    # -- resolvent -----------------------------------------------------
    def resolvent_contraction(self, lam):
        """Weighted L2 norm of (I + lam M^{-1} FormAtilde)^{-1}; at most 1
        for an accretive form.  On a self-adjoint form (the rule of
        ``norm_2_to_2``) it is max_k 1 / |1 + lam lambda_k| over the
        spectrum of W, which is 1 / (1 + lam lambda_min) whenever
        1 + lam lambda_min > 0; any other form takes ``inv`` and an SVD."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        if self.symmetry_residual <= SYMMETRY_TOL:
            with np.errstate(divide="ignore"):
                return float((1.0 / np.abs(1.0 + lam * self._spectrum()))
                             .max())
        R = np.linalg.inv(np.eye(len(self.mass)) + lam * self.generator)
        root = np.sqrt(self.mass)
        return float(np.linalg.norm(root[:, None] * R / root[None, :], 2))


def build_evaluator(system, grid=()):
    return SemigroupEvaluator(system, grid=grid)


def dense_exponential(generator, t):
    """exp(-t generator) for t >= 0 from one dense scaling and squaring
    ``expm``; a result with a non-finite entry is refused."""
    if t == 0.0:
        return np.eye(len(generator))
    scaled = -t * generator
    norm = float(np.linalg.norm(scaled, np.inf))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        S = scipy.linalg.expm(scaled / 2 ** squarings)
        for _ in range(squarings):
            S = S @ S
    return _finite(S, t)


def _finite(S, t):
    """``S``, unless it has a non-finite entry: then FloatingPointError."""
    if not np.isfinite(S).all():
        raise FloatingPointError(
            f"the semigroup matrix at t = {float(t):.17g} has a non-finite "
            "entry; the generator is too large for the time grid")
    return S


def reuse(evaluator, candidate):
    """``evaluator`` when ``candidate`` has a bitwise-equal form, mass and
    grid, so both would compute the same matrices, else ``candidate``.
    For comparison systems."""
    if (np.array_equal(candidate.mass, evaluator.mass)
            and (candidate.form != evaluator.form).nnz == 0
            and np.array_equal(candidate.grid, evaluator.grid)):
        return evaluator
    return candidate


def _halves(grid):
    """For each grid index, the index of the earliest grid time that is
    its half within 4 eps relative (see the module docstring), or -1."""
    close = (np.abs(grid[:, None] - 2.0 * grid[None, :])
             <= 4.0 * np.finfo(float).eps * grid[:, None])
    return np.where((grid > 0) & close.any(axis=1), close.argmax(axis=1), -1)


def geometric_times(t_max=1.0, ratio=2 ** -0.5, count=24):
    """Geometrically spaced times, increasing, ending at t_max; a grid
    whose first time underflows to 0 is refused."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    if count < 1 or t_max <= 0:
        raise ValueError("count must be >= 1 and t_max positive")
    times = t_max * ratio ** np.arange(count - 1, -1, -1, dtype=float)
    if not times[0] > 0:
        raise ValueError(f"the first grid time t_max * ratio^{count - 1} "
                         "underflows to 0")
    return times


def semigroup_law_defect(evaluator, t, s):
    """Relative weighted-L2 defect of S(t+s) - S(t) S(s), each factor from
    its own ``expm`` (``exponential``), never from the doubling chain."""
    root = np.sqrt(evaluator.mass)

    def weighted(S):
        return root[:, None] * S / root[None, :]

    combined = evaluator.exponential(t + s)
    product = evaluator.exponential(t) @ evaluator.exponential(s)
    return float(np.linalg.norm(weighted(combined - product), 2)
                 / np.linalg.norm(weighted(combined), 2))
