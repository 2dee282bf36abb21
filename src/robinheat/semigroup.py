"""Semigroup evaluation for the lumped generator M^{-1} FormAtilde.

The evaluator exponentiates the (negated, scaled) generator with dense
scaling and squaring and reports the mixed operator norms used by the
smoothing estimates.  All norms refer to the lumped measures: L2 and L1
carry the mass weights, the sup norm is the plain max over vertices.

The generator is a CSR matrix at the form's pattern, each entry
FormAtilde_ij / m_i.  Its dense copy, bit for bit
FormAtilde.toarray() / mass[:, None], is built once, on the first call
that needs a dense kernel (``dense_generator``): the doubling chain,
``exponential``, the non-self-adjoint ``resolvent_contraction`` and the
energy check.  The symmetry residual is computed on the sparse weighted
generator when the evaluator is built, so an evaluator that is never
exponentiated holds no n x n array, and the residual's temporaries come
before the grid matrices.

Every quantity refers to the shifted contraction semigroup
exp(-t M^{-1} FormAtilde).  The original evolution is exp(alpha t) times
it (Ouhabaz, Analysis of Heat Equations on Domains, 2005); the checks
that report it apply that scalar, so an evaluator is its form, mass and grid.

Sharing and duality.  Each evaluator owns its record of per-time values
(``PER_TIME``: the mixed norms and the smallest entry, each computed once
per time), its symmetry residual and the spectrum of its symmetrized
weighted generator, and no grid matrix outlives the sweep that made it
unless a step holds it.  There is no adjoint
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
0.6, keeps one ``expm`` per time.

The sweep.  ``sweep`` runs the chain once, in ascending time order, so
the bits depend only on the generator and the grid, and hands each
read-only S(t_k) to every per-time step registered before it
(``register``, or ``record`` for the ``PER_TIME`` values).  It keeps a
matrix only until the last squaring that reads it: three n x n arrays on
the default ratio, not one per grid time.  A sweep with no step
registered computes nothing, so whoever registers every step first
computes each chain once.  A per-time value asked for at a grid time and
not yet recorded is recorded at every grid time by one sweep.
``matrix(t)`` reruns the chain up to a grid time t, for tests and
demos; an off-grid time takes one uncached ``expm``.
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
or a squaring (of the chain or of ``apply_beyond``), is refused with
``FloatingPointError``.

Past the grid.  The eventual positivity scan asks for times past the
grid's last time t_max.  ``apply_beyond`` serves them from the sweep's
S(t_max), applied to the samples: a time u = m t_max + r takes
S(t_max)^m by binary powering, each power S(t_max)^(2^j) squared once
for all times, after one ``expm`` of r only when r exceeds the chain's
tolerance 4 eps u.  It holds at most two n x n arrays besides S(t_max).
The m-th power carries about m times the rounding of S(t_max): it sits
within 3.3e-12 of one ``expm`` of u, relative to the largest entry, at
u = 50 = 71 * 0.7 + 0.3 on a 125-unknown cosine-kernel cube.

The 2->2 norm.  For the generator P = M^{-1} FormAtilde, the weighted
generator W = M^{1/2} P M^{-1/2} equals M^{-1/2} FormAtilde M^{-1/2}.
When max|W - W^T| <= SYMMETRY_TOL * max|W|, S(t) is self-adjoint in the
lumped inner product and its 2->2 norm is exp(-t lambda_min(W)): the
evaluator computes the spectrum of W with one ``eigvalsh`` of a dense
copy of sym W on first use,
and ``norm_2_to_2`` takes no SVD.  The same spectrum gives the weighted
2->2 norm of the resolvent (I + lam P)^{-1}, max_k 1 / |1 + lam lambda_k|,
which is 1 / (1 + lam lambda_min) whenever 1 + lam lambda_min > 0, so
``resolvent_contraction`` takes neither ``inv`` nor an SVD.  Any other
generator (sheared matrix fields, non-symmetric kernels) takes the
weighted 2-norm of S(t), and the ``inv`` and weighted 2-norm of the
resolvent.  Those dense 2-norms, and both of ``semigroup_law_defect``,
come from one helper, ``_norm_2``: it scales X by its largest |entry|, so
X^T X neither overflows nor underflows, and returns the square root of
the top eigenvalue of X^T X, from one ``eigvalsh``.  That eigenvalue has
a relative error of a few eps (the top singular value is well
conditioned), and no SVD is taken.  ``eigvalsh`` is the LAPACK routine
the form checks already run; one that computes only the top eigenvalue
(``syevr``) was a third faster at 125 unknowns, but its first call pages
in about 0.6 MB of library code.

The symmetry rule is a tolerance, not bitwise symmetry: from 216
unknowns on, the stiffness sum leaves a self-adjoint form asymmetric in
its last bits, with residuals near 1e-16, while the shipped
non-self-adjoint forms sit above 1e-5.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "PER_TIME",
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


class SemigroupEvaluator:
    """Evaluate exp(-t M^{-1} F) and its mixed operator norms.

    Parameters
    ----------
    system : AssembledSystem
    grid : sequence of float
        The times the grid checks scan, which ``sweep`` streams in
        ascending order (see the module docstring).  Empty by default.

    Attributes
    ----------
    generator : (n, n) CSR matrix
        M^{-1} FormAtilde at the form's pattern; ``dense_generator()`` is
        its dense copy.
    symmetry_residual : float
        max|W - W^T| / max|W| for W = M^{1/2} P M^{-1/2}; the 2->2 norm
        comes from the spectrum when it is at most SYMMETRY_TOL.
    """

    def __init__(self, system, grid=()):
        self.system = system
        self.mass = system.mass
        self.form = system.FormAtilde
        form = self.form.tocsr()
        self.generator = _at_pattern(
            form, form.data / self.mass[_row_indices(form)])
        self.grid = np.asarray(grid, dtype=float)
        if not (self.grid >= 0).all():
            raise ValueError("grid times must be nonnegative")
        W = self._weighted()
        scale = float(np.abs(W.data).max(initial=0.0))
        asym = float(np.abs((W - W.T).data).max(initial=0.0))
        self.symmetry_residual = asym / scale if scale > 0 else 0.0
        self._dense = None
        self._steps = []
        self._record = {}       # (name, t) -> a PER_TIME value
        self._eigenvalues = None

    def dense_generator(self):
        """The generator as an n x n array, ``generator.toarray()``, built
        on the first call and kept: what ``expm``, the squarings and
        ``inv`` take."""
        if self._dense is None:
            self._dense = self.generator.toarray()
        return self._dense

    def _weighted(self):
        """W = M^{1/2} P M^{-1/2} at the generator's pattern, each entry
        (root_i P_ij) / root_j."""
        root = np.sqrt(self.mass)
        P = self.generator
        return _at_pattern(P, root[_row_indices(P)] * P.data / root[P.indices])

    # -- the sweep -----------------------------------------------------
    def register(self, step):
        """Have the next ``sweep`` call ``step(t, S)`` at each grid time
        t, in ascending order, with the read-only S(t)."""
        self._steps.append(step)

    def record(self, *names):
        """Have the next ``sweep`` record the named ``PER_TIME`` values at
        every grid time, unless they are recorded already.  A self-adjoint
        form's 2->2 norm comes from the spectrum, so none is recorded."""
        names = [name for name in names
                 if (name != "norm_2_to_2"
                     or self.symmetry_residual > SYMMETRY_TOL)
                 and any((name, float(t)) not in self._record
                         for t in self.grid)]
        if names:
            def step(t, S):
                for name in names:
                    if (name, t) not in self._record:
                        self._record[name, t] = PER_TIME[name](S, self.mass)
            self.register(step)

    def sweep(self):
        """Run the doubling chain once if a step is registered, handing
        each S(t_k) to every registered step, and drop the steps."""
        steps, self._steps = self._steps, []
        if steps and len(self.grid):
            for t, S in self._chain():
                for step in steps:
                    step(t, S)
                del S       # not alive while the next matrix is made

    def _chain(self):
        """(t_k, read-only S(t_k)) for each grid index k, in ascending
        time order: an ``expm`` or the square of S at the half time (see
        the module docstring).  A matrix is kept only until the last
        squaring that reads it."""
        grid = self.grid
        halves = _halves(grid)
        norm = float(np.linalg.norm(self.dense_generator(), np.inf))
        halves[grid[halves] * norm < MIN_SQUARED] = -1
        order = np.argsort(grid, kind="stable")
        last = {half: k for k in order if (half := halves[k]) >= 0}
        kept = {}
        for k in order:
            half = halves[k]
            if half < 0:
                S = self.exponential(float(grid[k]))
            else:
                factor = kept.pop(half) if last[half] == k else kept[half]
                with np.errstate(over="ignore", invalid="ignore"):
                    S = _finite(factor @ factor, grid[k])
                del factor
            S.flags.writeable = False
            if k in last:
                kept[k] = S
            yield float(grid[k]), S
            del S

    # -- exponentials --------------------------------------------------
    def matrix(self, t):
        """Read-only matrix of the semigroup at time t >= 0: a grid time's
        from the chain, rerun up to t, any other's from one ``expm``."""
        if t < 0:
            raise ValueError("negative time")
        if np.any(self.grid == t):
            for s, S in self._chain():
                if s == t:
                    return S
        S = self.exponential(float(t))
        S.flags.writeable = False
        return S

    def exponential(self, t):
        """Shifted semigroup matrix at time t >= 0 from one dense scaling
        and squaring ``expm``, uncached: the route the checks use as an
        oracle independent of the doubling chain."""
        return dense_exponential(self.dense_generator(), t)

    def apply(self, t, u):
        """Semigroup applied to a vertex vector."""
        return self.matrix(t) @ np.asarray(u, dtype=float)

    def apply_beyond(self, t, S, times, block):
        """[S(u) @ block for u in times], each u > t, from S = S(t) with
        no ``expm`` at u: with u = m t + r (``divmod``), the block takes
        one ``exponential(r)`` only when r exceeds the chain's tolerance
        4 eps u (an r within it of t counts as one more power), and then
        S(t)^m by binary powering, each power S(t)^(2^j) squared once for
        all times.  At most two n x n arrays are held besides S; a
        non-finite square is refused like the chain's."""
        tol = 4.0 * np.finfo(float).eps
        images, counts = [], []
        for u in times:
            m, r = divmod(u, t)
            if t - r <= tol * u:
                m, r = m + 1, 0.0
            images.append(block if r <= tol * u
                          else self.exponential(r) @ block)
            counts.append(int(m))
        power, bit, top = S, 1, max(counts, default=0)
        while bit <= top:
            images = [power @ X if m & bit else X
                      for X, m in zip(images, counts)]
            bit <<= 1
            if bit <= top:
                with np.errstate(over="ignore", invalid="ignore"):
                    power = _finite(power @ power, bit * t)
        return images

    # -- mixed norms, each recorded once per time ----------------------
    def _recorded(self, name, t):
        """The ``PER_TIME`` value ``name`` of S(t), recorded: at a grid
        time by one sweep that records it at every grid time, at any
        other from one ``expm``."""
        key = (name, float(t))
        if key not in self._record:
            if np.any(self.grid == t):
                self.record(name)
                self.sweep()
            else:
                self._record[key] = PER_TIME[name](self.matrix(t), self.mass)
        return self._record[key]

    def norm_2_to_inf(self, t):
        """sup norm of S(t) u over the L2 unit ball."""
        return self._recorded("norm_2_to_inf", t)

    def norm_1_to_2(self, t):
        """L2 norm of S(t) u over the L1 unit ball."""
        return self._recorded("norm_1_to_2", t)

    def norm_inf_to_inf(self, t):
        return self._recorded("norm_inf_to_inf", t)

    def norm_1_to_1(self, t):
        return self._recorded("norm_1_to_1", t)

    def min_entry(self, t):
        """The smallest entry of S(t)."""
        return self._recorded("min_entry", t)

    def norm_2_to_2(self, t):
        """exp(-t lambda_min(W)) on a self-adjoint form, else the largest
        singular value of the weighted S(t), from its Gram matrix
        (``_norm_2``)."""
        if self.symmetry_residual > SYMMETRY_TOL:
            return self._recorded("norm_2_to_2", t)
        if t < 0:
            raise ValueError("negative time")
        return math.exp(-float(t) * self._spectrum()[0])

    def _spectrum(self):
        """Ascending eigenvalues of the symmetrized W, from one
        ``eigvalsh`` on first use."""
        if self._eigenvalues is None:
            W = self._weighted()
            self._eigenvalues = np.linalg.eigvalsh(
                (0.5 * (W + W.T)).toarray())
        return self._eigenvalues

    # -- resolvent -----------------------------------------------------
    def resolvent_contraction(self, lam):
        """Weighted L2 norm of (I + lam M^{-1} FormAtilde)^{-1}; at most 1
        for an accretive form.  On a self-adjoint form (the rule of
        ``norm_2_to_2``) it is max_k 1 / |1 + lam lambda_k| over the
        spectrum of W, which is 1 / (1 + lam lambda_min) whenever
        1 + lam lambda_min > 0; any other form takes ``inv`` and the
        weighted 2-norm of the inverse from its Gram matrix
        (``_norm_2``)."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        if self.symmetry_residual <= SYMMETRY_TOL:
            with np.errstate(divide="ignore"):
                return float((1.0 / np.abs(1.0 + lam * self._spectrum()))
                             .max())
        R = np.linalg.inv(np.eye(len(self.mass))
                          + lam * self.dense_generator())
        return _weighted_norm_2(R, self.mass)


def _row_indices(A):
    """The row of each stored entry of the CSR matrix A."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def _at_pattern(A, data):
    """The CSR matrix at the pattern of the CSR matrix A, sharing its
    index arrays, with entries ``data``."""
    return scipy.sparse.csr_matrix((data, A.indices, A.indptr),
                                   shape=A.shape)


def _norm_2_to_inf(S, mass):
    return float(np.sqrt((S * S / mass[None, :]).sum(axis=1)).max())


def _norm_1_to_2(S, mass):
    """Over the L1 unit ball, whose extreme points are the scaled vertex
    indicators."""
    return float((np.sqrt((mass[:, None] * S * S).sum(axis=0)) / mass).max())


def _norm_1_to_1(S, mass):
    return float(((mass[:, None] * np.abs(S)).sum(axis=0) / mass).max())


def _norm_2(X):
    """The 2-norm (largest singular value) of the dense matrix X, without
    an SVD: X is scaled by its largest |entry|, so X^T X neither overflows
    nor underflows, and the norm is the square root of the top eigenvalue
    of that Gram matrix, from one ``eigvalsh``.  A zero, infinite or nan
    scale is returned as it is."""
    scale = float(np.abs(X).max(initial=0.0))
    if not 0.0 < scale < math.inf:
        return scale
    X = X / scale
    top = float(np.linalg.eigvalsh(X.T @ X)[-1])
    return scale * math.sqrt(max(top, 0.0))


def _weighted_norm_2(X, mass):
    """The weighted L2 operator norm of X, the 2-norm of
    M^{1/2} X M^{-1/2}."""
    root = np.sqrt(mass)
    return _norm_2(root[:, None] * X / root[None, :])


# What a sweep can record per grid time: name -> f(S(t), mass).
PER_TIME = {
    "norm_2_to_inf": _norm_2_to_inf,
    "norm_1_to_2": _norm_1_to_2,
    "norm_inf_to_inf": lambda S, mass: float(np.abs(S).sum(axis=1).max()),
    "norm_1_to_1": _norm_1_to_1,
    "norm_2_to_2": _weighted_norm_2,
    "min_entry": lambda S, mass: float(S.min()),
}


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
    if squarings:
        scaled /= 2 ** squarings
    with np.errstate(over="ignore", invalid="ignore"):
        S = scipy.linalg.expm(scaled)
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
    its own ``expm`` (``exponential``), never from the doubling chain.
    Both weighted 2-norms come from ``_norm_2``, with no SVD."""
    combined = evaluator.exponential(t + s)
    product = evaluator.exponential(t) @ evaluator.exponential(s)
    return (_weighted_norm_2(combined - product, evaluator.mass)
            / _weighted_norm_2(combined, evaluator.mass))
