"""Semigroup evaluation for the lumped generator M^{-1} FormAtilde.

The evaluator exponentiates the (negated, scaled) generator with dense
scaling and squaring and reports the mixed operator norms used by the
smoothing estimates.  All norms refer to the lumped measures: L2 and L1
carry the mass weights, the sup norm is the plain max over vertices.

By default every quantity refers to the shifted contraction semigroup
exp(-t M^{-1} FormAtilde).  Passing ``shifted=False`` multiplies by
exp(alpha t) and so returns the corresponding quantity for the original,
unshifted evolution.

Propagators.  The matrices S(t) live in a propagator, one per distinct
dense generator and lumped mass, not in the evaluator.  On its first
matrix or norm call an evaluator looks its generator up in a registry of
live propagators, keyed by a digest of the generator and mass bytes, and
shares an entry only when both arrays are ``np.array_equal`` to its own.
Sharing is detected, never assumed: the primal and adjoint evaluators of
a self-adjoint form, or an original and a comparison system whose
boundary operators coincide, end up with one matrix per time, while a
generator that differs in a single bit gets its own propagator.  Each
shared matrix is the one ``_exponential`` computes for that generator, so
sharing moves no bit of any result.  The registry holds propagators
weakly: a propagator lives exactly as long as an evaluator uses it.

The 2->2 norm.  For the generator P = M^{-1} FormAtilde, the weighted
generator W = M^{1/2} P M^{-1/2} equals M^{-1/2} FormAtilde M^{-1/2}.
When max|W - W^T| <= SYMMETRY_TOL * max|W|, S(t) is self-adjoint in the
lumped inner product and its 2->2 norm is exp(-t lambda_min(W)): the
propagator computes lambda_min with one ``eigvalsh`` on first use, and
``norm_2_to_2`` takes no SVD.  Any other generator (sheared matrix
fields, non-symmetric kernels) keeps the SVD of the weighted S(t).
"""

import hashlib
import math
import weakref

import numpy as np
import scipy.linalg

__all__ = [
    "SemigroupEvaluator",
    "build_evaluator",
    "geometric_times",
    "semigroup_law_defect",
]

DENSE_LIMIT = 6000

# Largest entrywise asymmetry of the weighted generator, relative to its
# largest entry, for which the 2->2 norm is taken from the spectrum.
SYMMETRY_TOL = 1e-12

# Live propagators by generator digest; an entry vanishes with the last
# evaluator that uses it.
_PROPAGATORS = weakref.WeakValueDictionary()


class _Propagator:
    """One dense generator with its lumped mass, the semigroup matrix per
    time, and the spectral data of the 2->2 norm, computed on first use."""

    def __init__(self, generator, mass):
        self.generator = generator
        self.mass = mass
        self.matrices = {}
        self._residual = None
        self._lambda_min = None

    def _weighted(self):
        root = np.sqrt(self.mass)
        return root[:, None] * self.generator / root[None, :]

    def symmetry_residual(self):
        """max|W - W^T| / max|W| for W = M^{1/2} P M^{-1/2}."""
        if self._residual is None:
            W = self._weighted()
            scale = float(np.abs(W).max())
            asym = float(np.abs(W - W.T).max())
            self._residual = asym / scale if scale > 0 else 0.0
        return self._residual

    def lambda_min(self):
        """Smallest eigenvalue of the symmetrized W, or None when W is not
        symmetric within SYMMETRY_TOL."""
        if self.symmetry_residual() > SYMMETRY_TOL:
            return None
        if self._lambda_min is None:
            W = self._weighted()
            self._lambda_min = float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
        return self._lambda_min


def _digest(generator, mass):
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(generator))
    h.update(np.ascontiguousarray(mass))
    return h.hexdigest()


def _propagator_for(generator, mass):
    """The live propagator of a bitwise-equal generator and mass, or a new
    one.  A digest collision between unequal arrays gets a private,
    unregistered propagator."""
    key = _digest(generator, mass)
    found = _PROPAGATORS.get(key)
    if (found is not None and np.array_equal(found.generator, generator)
            and np.array_equal(found.mass, mass)):
        return found
    propagator = _Propagator(generator, mass)
    if found is None:
        _PROPAGATORS[key] = propagator
    return propagator


class SemigroupEvaluator:
    """Evaluate exp(-t M^{-1} F) and its mixed operator norms.

    Parameters
    ----------
    system : AssembledSystem
    adjoint : bool
        Use the adjoint form matrix; together with the mass weights this
        realizes the adjoint semigroup on the same mesh.
    dense_limit : int
        Largest number of unknowns the dense exponential accepts.
    """

    def __init__(self, system, adjoint=False, dense_limit=DENSE_LIMIT):
        if system.n > dense_limit:
            raise RuntimeError(
                f"system has {system.n} unknowns, above the dense "
                f"exponential limit {dense_limit}; coarsen the mesh")
        self.system = system
        self.adjoint = bool(adjoint)
        self.mass = system.mass
        self.alpha = system.alpha
        self.form = system.FormAtilde_adj if adjoint else system.FormAtilde
        self.generator = self.form / self.mass[:, None]
        self._shared = None

    def _propagator(self):
        """The propagator of this generator, resolved on first use."""
        if self._shared is None:
            self._shared = _propagator_for(self.generator, self.mass)
            self.generator = self._shared.generator     # drop a duplicate
        return self._shared

    @property
    def symmetry_residual(self):
        """Relative asymmetry of M^{1/2} P M^{-1/2}; the 2->2 norm comes
        from the spectrum when it is at most SYMMETRY_TOL."""
        return self._propagator().symmetry_residual()

    # -- exponentials --------------------------------------------------
    def matrix(self, t, shifted=True):
        """Dense matrix of the semigroup at time t >= 0."""
        matrices = self._propagator().matrices
        if t < 0:
            raise ValueError("negative time")
        t = float(t)
        S = matrices.get(t)
        if S is None:
            S = matrices[t] = self._exponential(t)
            S.flags.writeable = False   # shared by every evaluator of P
        if not shifted:
            S = math.exp(self.alpha * t) * S
        return S

    def _exponential(self, t):
        if t == 0.0:
            return np.eye(len(self.mass))
        scaled = -t * self.generator
        norm = float(np.linalg.norm(scaled, np.inf))
        squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
        S = scipy.linalg.expm(scaled / 2 ** squarings)
        for _ in range(squarings):
            S = S @ S
        return S

    def apply(self, t, u, shifted=True):
        """Semigroup applied to a vertex vector."""
        return self.matrix(t, shifted=shifted) @ np.asarray(u, dtype=float)

    # -- mixed norms ---------------------------------------------------
    def norm_2_to_inf(self, t, shifted=True):
        """sup norm of S(t) u over the L2 unit ball."""
        S = self.matrix(t, shifted=shifted)
        return float(np.sqrt((S * S / self.mass[None, :]).sum(axis=1)).max())

    def norm_1_to_2(self, t, shifted=True):
        """L2 norm of S(t) u over the L1 unit ball (extreme points are the
        scaled vertex indicators)."""
        S = self.matrix(t, shifted=shifted)
        col = np.sqrt((self.mass[:, None] * S * S).sum(axis=0)) / self.mass
        return float(col.max())

    def norm_inf_to_inf(self, t, shifted=True):
        S = self.matrix(t, shifted=shifted)
        return float(np.abs(S).sum(axis=1).max())

    def norm_1_to_1(self, t, shifted=True):
        S = self.matrix(t, shifted=shifted)
        col = (self.mass[:, None] * np.abs(S)).sum(axis=0) / self.mass
        return float(col.max())

    def norm_2_to_2(self, t, shifted=True):
        lam = self._propagator().lambda_min()
        if lam is None:
            S = self.matrix(t, shifted=shifted)
            root = np.sqrt(self.mass)
            return float(np.linalg.norm(root[:, None] * S / root[None, :], 2))
        if t < 0:
            raise ValueError("negative time")
        t = float(t)
        value = math.exp(-t * lam)
        if not shifted:
            value *= math.exp(self.alpha * t)
        return value

    # -- resolvent -----------------------------------------------------
    def resolvent_contraction(self, lam):
        """Weighted L2 norm of (I + lam M^{-1} FormAtilde)^{-1}; at most 1
        for an accretive form."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        R = np.linalg.inv(np.eye(len(self.mass)) + lam * self.generator)
        root = np.sqrt(self.mass)
        return float(np.linalg.norm(root[:, None] * R / root[None, :], 2))


def build_evaluator(system, adjoint=False):
    return SemigroupEvaluator(system, adjoint=adjoint)


def geometric_times(t_max=1.0, ratio=2 ** -0.5, count=24):
    """Geometrically spaced times, increasing, ending at t_max."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    if count < 1 or t_max <= 0:
        raise ValueError("count must be >= 1 and t_max positive")
    return t_max * ratio ** np.arange(count - 1, -1, -1, dtype=float)


def semigroup_law_defect(evaluator, t, s):
    """Relative weighted-L2 defect of S(t+s) - S(t) S(s)."""
    root = np.sqrt(evaluator.mass)

    def weighted(S):
        return root[:, None] * S / root[None, :]

    combined = evaluator.matrix(t + s)
    product = evaluator.matrix(t) @ evaluator.matrix(s)
    return float(np.linalg.norm(weighted(combined - product), 2)
                 / np.linalg.norm(weighted(combined), 2))
