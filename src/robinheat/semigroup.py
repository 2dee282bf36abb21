"""Semigroup evaluation for the lumped generator P = M^{-1} FormAtilde.

An evaluator is a form, its mass and a time grid.  It holds P only as a
CSR matrix at the form's pattern, each entry FormAtilde_ij / mass_i, and
no n x n array outside a sweep or a kernel call: each dense kernel
(``dense_exponential``, the resolvent's ``inv``) densifies its one
operand from the sparse P, and the chain and the symmetry residual read
the sparse P.
Every quantity refers to the shifted contraction semigroup
S(t) = exp(-t P); the original evolution is exp(alpha t) S(t) (Ouhabaz,
Analysis of Heat Equations on Domains, 2005), and the checks that report
it apply that scalar.  L2 and L1 carry the mass weights, the sup norm is
the plain max over vertices.

Duality and sharing.  In the lumped inner product u^T M v the adjoint
semigroup is exactly S*(t) = M^{-1} S(t)^T M on every form, so there is
no adjoint evaluator: |S*|_{1->2} = |S|_{2->inf} and
|S*|_{1->1} = |S|_{inf->inf}.  ``reuse`` gives a comparison system the
primal evaluator when their form, mass and grid are bitwise equal; that
is detected, never assumed.

The doubling chain.  A grid time t_k whose half is a grid time t_j within
4 eps t_k (eps the float64 machine epsilon) gets S(t_k) = S(t_j) @ S(t_j)
instead of a fresh ``expm``: scaling and squaring (Higham, SIAM J.
Matrix Anal. Appl. 26(4), 2005) run across grid points.  On the default
ratio 2^-1/2 two exponentials cover the grid; 5 of its 22 pairs double
exactly and the rest differ in the last bit, and a grid with no pairs,
such as ratio 0.6, keeps one ``expm`` per time.  The tolerated mismatch
moves S(t_k) by at most 4 eps t_k |P S(t)|.  A factor far below the norm
``expm`` scales to has its rounding amplified by 2^m, overscaling
(Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009), so the
chain squares only a factor with |t_j P|_inf >= MIN_SQUARED.
``exponential(t)`` is the single-``expm`` route; ``semigroup_law_defect``
and the energy check use it, so neither tests a law the chain satisfies
by construction; ``matrix(t)`` is its read-only result at any time, and
only a sweep hands out the chain's.  A matrix with a non-finite entry,
from an exponential or a squaring, is refused with ``FloatingPointError``.

The sweep.  ``sweep`` runs the chains of several evaluators once, chain
by chain: chain c of each evaluator, in the order given, before chain
c + 1 of any, and ``SemigroupEvaluator.sweep`` is its call on one
evaluator.  Each read-only S(t_k) goes to every step registered on its
evaluator before the sweep (``register``, or ``record`` for the
``PER_TIME`` values).  An evaluator's chains are its seeds in ascending
time order, each followed at once by the squarings that double it up,
ascending; an evaluator with fewer chains skips the missing ones, and
one listed twice is swept once.  The bits of each S(t_k) depend only on
the generator and the grid, not on the order.  A matrix is kept only
until the last squaring that reads it, which its own chain makes, so on
a grid with no repeated time the sweep holds one factor, the one being
squared, and no chain matrix of any evaluator is alive while a seed is
exponentiated.  Every step keys what it keeps by time, and keeps no
n x n array past the chain that handed it out; a step that pairs two
evaluators' products at one time waits for the other within one chain
when both evaluators' chains hold the same times.  A sweep with nothing
registered computes nothing, so whoever registers every step first
computes each chain once.

Past the grid.  ``apply_beyond`` serves a time u = m t_max + r past the
grid's last time from the sweep's S(t_max): S(t_max)^m by binary
powering, after one ``expm`` of r only when r exceeds 4 eps u, so on the
default grid (t_max = 1) the times 2, 5, 10, 20 and 50 take no ``expm``.
The m-th power carries about m times the rounding of S(t_max): it sits
within 3.3e-12 of one ``expm`` of u, relative to the largest entry, at
u = 50 = 71 * 0.7 + 0.3 on a 125-unknown cosine-kernel cube.

The 2->2 norm.  The weighted generator W = M^{1/2} P M^{-1/2} equals
M^{-1/2} FormAtilde M^{-1/2}.  When max|W - W^T| <= SYMMETRY_TOL max|W|,
S(t) is self-adjoint in the lumped inner product, and one ``eigvalsh`` of
sym W gives its 2->2 norm exp(-t lambda_min(W)) and the resolvent norm
max_k 1 / |1 + lam lambda_k|.  The rule is a tolerance, not bitwise
symmetry: from 216 unknowns on, the stiffness sum leaves a self-adjoint
form asymmetric in its last bits, near 1e-16, while the shipped
non-self-adjoint forms sit above 1e-5.  Any other generator takes the
weighted 2-norm of S(t) and of the resolvent's ``inv`` from ``_norm_2``:
X scaled by its largest |entry|, so X^T X neither overflows nor
underflows, and the square root of the top eigenvalue of X^T X from one
``eigvalsh``.  That has a relative error of a few eps (the top singular
value is well conditioned), and no SVD is taken.  LAPACK ``syevr``, which
computes only the top eigenvalue, was a third faster at 125 unknowns,
but its first call pages in about 0.6 MB of library code.
"""

import itertools
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
    "sweep",
]

# Largest entrywise asymmetry of the weighted generator, relative to its
# largest entry, for which the 2->2 norm is taken from the spectrum.
SYMMETRY_TOL = 1e-12
MIN_SQUARED = 2.0 ** -4     # least |t P|_inf of a factor the chain squares


class SemigroupEvaluator:
    """exp(-t M^{-1} FormAtilde) of an ``AssembledSystem`` and its mixed
    operator norms, on the nonnegative times ``grid`` (none by default)
    that ``sweep`` streams.  ``generator`` is the CSR matrix P and
    ``symmetry_residual`` is max|W - W^T| / max|W|."""

    def __init__(self, system, grid=()):
        self.system = system
        self.mass = system.mass
        self.form = system.FormAtilde
        self.generator = lumped_generator(self.form, self.mass)
        self.grid = np.asarray(grid, dtype=float)
        if not (self.grid >= 0).all():
            raise ValueError("grid times must be nonnegative")
        W = self._weighted()
        scale = float(np.abs(W.data).max(initial=0.0))
        asym = float(np.abs((W - W.T).data).max(initial=0.0))
        self.symmetry_residual = asym / scale if scale > 0 else 0.0
        self._steps = []
        self._record = {}       # (name, t) -> a PER_TIME value
        self._eigenvalues = None

    def _weighted(self):
        """W = M^{1/2} P M^{-1/2} at the generator's pattern, each entry
        (root_i P_ij) / root_j."""
        root = np.sqrt(self.mass)
        P = self.generator
        return _at_pattern(P, root[_row_indices(P)] * P.data / root[P.indices])

    # -- the sweep -----------------------------------------------------
    def register(self, step):
        """Have the next sweep of this evaluator call ``step(t, S)`` at each
        grid time t, in chain order (module docstring, "The sweep"), with
        the read-only S(t)."""
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
        """``sweep([self])``: run this evaluator's doubling chains once if
        a step is registered, and drop the steps."""
        sweep([self])

    def _chains(self):
        """One iterable per doubling chain, seeds in ascending time order;
        each yields (t_k, read-only S(t_k)) for the grid indices k of its
        chain: the seed (an ``expm``), then the times that double it up,
        ascending, each the square of S at its half time.  A matrix is
        kept only until its last square is made, which its own chain
        makes, so a chain holds no matrix once it is done."""
        grid = self.grid
        halves = _halves(grid)
        norm = float(abs(self.generator).sum(axis=1).max())
        halves[grid[halves] * norm < MIN_SQUARED] = -1
        ascending = np.argsort(grid, kind="stable")
        seed = np.empty(len(grid), dtype=np.intp)   # its seed's rank
        for rank, k in enumerate(ascending):    # a half before its doubles
            seed[k] = rank if halves[k] < 0 else seed[halves[k]]
        order = ascending[np.argsort(seed[ascending], kind="stable")]
        last = {half: k for k in order if (half := halves[k]) >= 0}
        starts = np.flatnonzero(halves[order] < 0)
        for chain in np.split(order, starts[1:]):
            yield self._squarings(chain, halves, last)

    def _squarings(self, chain, halves, last):
        """(t_k, read-only S(t_k)) for the grid indices k of ``chain``: an
        ``expm`` at its seed, else the square of S at the half time
        ``halves[k]``, each half kept until the index ``last[half]``."""
        grid = self.grid
        kept = {}
        for k in chain:
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
        """Read-only S(t) from one ``expm`` at any time t >= 0, a grid time
        included; the chain's S(t) is handed only to sweep steps."""
        S = self.exponential(float(t))
        S.flags.writeable = False
        return S

    def exponential(self, t):
        """S(t) from one ``expm``, uncached and independent of the chain."""
        return dense_exponential(self.generator, t)

    def apply(self, t, u):
        """Semigroup applied to a vertex vector."""
        return self.matrix(t) @ np.asarray(u, dtype=float)

    def apply_beyond(self, t, S, times, block):
        """[S(u) @ block for u in times], each u > t, from S = S(t) and
        no ``expm`` at u (module docstring, "Past the grid").  Each power
        S(t)^(2^j) is squared once for all times, and an r within 4 eps u
        of t counts as one more power.  At most two n x n arrays are held
        besides S."""
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
        """The weighted L2 operator norm of S(t) (module docstring)."""
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
        """Weighted L2 norm of (I + lam M^{-1} FormAtilde)^{-1}, at most 1
        for an accretive form (module docstring, "The 2->2 norm")."""
        if lam <= 0:
            raise ValueError("lam must be positive")
        if self.symmetry_residual <= SYMMETRY_TOL:
            with np.errstate(divide="ignore"):
                return float((1.0 / np.abs(1.0 + lam * self._spectrum()))
                             .max())
        A = self.generator.toarray()
        A *= lam
        A.flat[::len(A) + 1] += 1.0     # I + lam P
        return _weighted_norm_2(np.linalg.inv(A), self.mass)


def lumped_generator(form, mass):
    """M^{-1} form as a CSR matrix at the pattern of the sparse ``form``,
    each entry form_ij / mass_i."""
    form = form.tocsr()
    return _at_pattern(form, form.data / mass[_row_indices(form)])


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
    """The 2-norm of the dense matrix X from its scaled Gram matrix
    (module docstring); a zero, infinite or nan scale is returned as it
    is."""
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


def sweep(evaluators):
    """Run the doubling chains of the ``evaluators`` with a step
    registered once, chain by chain: chain c of each, in the order given,
    before chain c + 1 of any (module docstring, "The sweep").  Hand each
    S(t_k) to every step registered on its evaluator, and drop the steps.
    An evaluator listed twice is swept once."""
    swept = []
    for evaluator in {id(e): e for e in evaluators}.values():
        steps, evaluator._steps = evaluator._steps, []
        if steps and len(evaluator.grid):
            swept.append((evaluator._chains(), steps))
    for chains in itertools.zip_longest(*(chains for chains, _ in swept),
                                        fillvalue=()):
        for chain, (_, steps) in zip(chains, swept):
            for t, S in chain:
                for step in steps:
                    step(t, S)
                del S       # not alive while the next matrix is made


def dense_exponential(generator, t):
    """exp(-t generator) of the sparse ``generator`` for a finite t >= 0
    from one dense scaling and squaring ``expm``, whose one n x n operand
    is -t generator densified; a negative or non-finite t is refused with
    ValueError, and a result with a non-finite entry with
    FloatingPointError."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time {t!r} is not finite and nonnegative")
    if t == 0.0:
        return np.eye(generator.shape[0])
    scaled = generator.toarray()
    scaled *= -t
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
    its half within 4 eps relative, or -1.  In linear memory: with the
    times sorted, ``searchsorted`` finds each one's window of doubled
    times and one ``minimum.reduceat`` the earliest index in it."""
    order = np.argsort(grid, kind="stable")
    times = grid[order]
    tol = 4.0 * np.finfo(float).eps * times
    # [t - tol, t + tol] rounded inward (t - low, high - t are exact)
    low, high = times - tol, times + tol
    low = np.where(times - low > tol, np.nextafter(low, np.inf), low)
    high = np.where(high - times > tol, np.nextafter(high, -np.inf), high)
    lo = np.searchsorted(2.0 * times, low, "left")
    hi = np.searchsorted(2.0 * times, high, "right")
    earliest = np.minimum.reduceat(np.append(order, len(grid)),
                                   np.column_stack([lo, hi]).ravel())[::2]
    halves = np.empty(len(grid), dtype=np.intp)
    halves[order] = np.where((times > 0) & (lo < hi), earliest, -1)
    return halves


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
    its own ``exponential``, never from the doubling chain.  The product
    is formed, and both factors dropped, before S(t+s) is made."""
    product = evaluator.exponential(t) @ evaluator.exponential(s)
    combined = evaluator.exponential(t + s)
    return (_weighted_norm_2(combined - product, evaluator.mass)
            / _weighted_norm_2(combined, evaluator.mass))
