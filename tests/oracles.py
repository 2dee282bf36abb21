"""Dense reference constructions that only the tests use.

The package assembles its forms as sparse matrices at the P1 pattern and
the boundary coupling without a trace matrix, holds the boundary
operator and its coupling as sparse matrices, lumps the mass, reads the
adjoint semigroup off the primal's matrices by duality, runs each time's
samples as one matrix product and takes a self-adjoint resolvent norm
from the spectrum.  These are the textbook forms it is checked against:
the dense n x n assembly, the dense nb x nb boundary operator and its
norms, the 0/1 trace matrix, the lumped L1 norm, the
exact P1 mass matrix, the adjoint semigroup evaluated on its own
with a chain of its own, the duality of the mixed norms between a
semigroup and that adjoint, the per-sample loops of the sampled checks,
the continuity samples drawn at once, the resolvent from ``inv`` and
an SVD, the pairing of grid times from the table of every pair, and the
doubling chain with every grid matrix kept, with the grid reports
computed from its matrices.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from robinheat import CoefficientField, build_evaluator, semigroup, verify
from robinheat.assembly import _barycentric_gradients, form_norm
from robinheat.report import Report


def scatter_cells(mesh, local):
    """Sum the (m, d+1, d+1) cell matrices into an n x n matrix, cell by
    cell in mesh order."""
    n = mesh.n_vertices
    index = mesh.cells[:, :, None] * n + mesh.cells[:, None, :]
    return np.bincount(index.ravel(), weights=local.ravel(),
                       minlength=n * n).reshape(n, n)


def on_boundary(mesh, block):
    """n x n matrix with ``block`` on the boundary vertex rows and columns,
    the same as Gamma^t block Gamma for the 0/1 trace matrix Gamma."""
    n = mesh.n_vertices
    out = np.zeros((n, n))
    out[np.ix_(mesh.boundary_vertices, mesh.boundary_vertices)] = block
    return out


def dense_stiffness(mesh, field):
    grads = _barycentric_gradients(mesh.vertices[mesh.cells])
    vol = mesh.cell_volumes[:, None, None]
    return scatter_cells(
        mesh, (vol * grads) @ field.per_cell @ np.swapaxes(grads, 1, 2))


class DenseOperator:
    """A boundary operator held as dense nb x nb arrays: the application
    matrix T, the comparison operator |T|, their norms, the derived
    operators and the coupling diag(w) T, each with the arithmetic of a
    dense construction."""

    def __init__(self, weights, T):
        self.weights = weights
        self.T = T
        self.Tbar = np.abs(T)
        self.norm2, self.norm_inf = dense_operator_norms(T, weights)
        self.norm2_bar, self.norm_inf_bar = dense_operator_norms(self.Tbar,
                                                                 weights)

    def dominating(self):
        return DenseOperator(self.weights, -self.Tbar)

    def shifted_bar(self, sign):
        nb = len(self.weights)
        return DenseOperator(self.weights,
                             self.norm_inf_bar * np.eye(nb) + sign * self.Tbar)

    def coupling(self):
        """Bw = diag(w) T."""
        return self.weights[:, None] * self.T


def dense_operator_norms(T, w):
    """The weighted L2 norm of T from an SVD, or max|T_ii| when T is
    diagonal, and the max absolute row sum."""
    if not np.any(T):
        return 0.0, 0.0
    diagonal = np.diagonal(T)
    if np.array_equal(T, np.diag(diagonal)):
        norm2 = float(np.abs(diagonal).max())
    else:
        root = np.sqrt(w)
        scaled = (T * root[:, None]) / root[None, :]
        norm2 = float(np.linalg.norm(scaled, 2))
    norm_inf = float(np.abs(T).sum(axis=1).max())
    return norm2, norm_inf


def dense_forms(system, operator):
    """K, K_id, H1 and FormAtilde of ``system`` as n x n arrays, summed
    the way a dense assembly sums them, with the boundary coupling of the
    DenseOperator ``operator``."""
    mesh = system.mesh
    K = dense_stiffness(mesh, system.field)
    K_id = dense_stiffness(mesh, CoefficientField.isotropic(mesh, 1.0))
    mass = np.diag(system.mass)
    return {"K": K, "K_id": K_id, "H1": K_id + mass,
            "FormAtilde": ((K + on_boundary(mesh, operator.coupling()))
                           + system.alpha * mass)}


def dense_symmetry_residual(generator, mass):
    """max|W - W^T| / max|W| of the dense weighted generator
    W = M^1/2 P M^-1/2."""
    root = np.sqrt(mass)
    W = root[:, None] * generator / root[None, :]
    scale = float(np.abs(W).max())
    return float(np.abs(W - W.T).max()) / scale if scale > 0 else 0.0


def trace_matrix(mesh):
    """0/1 restriction matrix from vertex values to boundary vertex values."""
    nb = len(mesh.boundary_vertices)
    G = np.zeros((nb, mesh.n_vertices))
    G[np.arange(nb), mesh.boundary_vertices] = 1.0
    return G


def l1_norm(system, u):
    """Lumped L1 norm sum_i m_i |u_i| of a vertex vector."""
    return float(system.mass @ np.abs(u))


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


def adjoint_evaluator(system, grid=()):
    """The adjoint semigroup exp(-t M^-1 FormAtilde^T) evaluated on its
    own: an evaluator of a copy of ``system`` whose FormAtilde is the
    transpose view, so its chain and its exponentials never read the
    primal's matrices."""
    adjoint = copy.copy(system)
    adjoint.FormAtilde = system.FormAtilde.T
    return build_evaluator(adjoint, grid=grid)


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


# -- the sampled checks, one matrix-vector product per sample and time --
#
# verify.py runs each time's samples as one matrix product; these are the
# per-sample loops it replaced, with the same random draws in the same
# order.  They return the package's own report types.

def loop_straddling_samples(mesh, count, rng):
    out = []
    for _ in range(count):
        u = np.zeros(mesh.n_vertices)
        for _ in range(3):
            amp = rng.standard_normal()
            freqs = rng.integers(0, 4, size=mesh.dim)
            phase = rng.uniform(0, math.pi, size=mesh.dim)
            mode = np.ones(mesh.n_vertices) * amp
            for axis in range(mesh.dim):
                mode *= np.cos(freqs[axis] * math.pi
                               * mesh.vertices[:, axis] + phase[axis])
            u += mode
        peak = np.abs(u).max()
        if peak == 0.0:
            u = np.ones(mesh.n_vertices)
            peak = 1.0
        out.append(u / peak * rng.uniform(1.2, 3.0))
    return out


def loop_nash(system, samples=200, seed=2024):
    mesh = system.mesh
    d = mesh.dim
    rng = np.random.default_rng(seed)
    vectors = [np.ones(mesh.n_vertices)]
    vectors += verify._tensor_cosine_modes(mesh, 10)
    while len(vectors) < samples:
        vectors.append(rng.standard_normal(mesh.n_vertices))
    exponent = 4.0 / d

    def log_ratio(u, h1_sq):
        return ((2 + exponent) * math.log(system.l2_norm(u))
                - exponent * math.log(l1_norm(system, u))
                - (math.log(h1_sq) if h1_sq > 0.0 else -math.inf))

    worst = -math.inf
    used = 0
    for u in vectors[:samples]:
        if l1_norm(system, u) == 0.0:
            continue
        used += 1
        worst = max(worst, log_ratio(u, float(u @ system.H1 @ u)))
    ones = np.ones(mesh.n_vertices)
    gradient_only_violation = bool(
        log_ratio(ones, float(ones @ system.K_id @ ones)) > worst)
    try:
        constant = math.exp(worst)
    except OverflowError:
        constant = math.inf
    return verify.NashReport(
        dim=d, samples=used, max_ratio=constant, implied_constant=constant,
        gradient_only_violation=gradient_only_violation,
        status="passed" if d > 2 else "hypothesis unmet", seed=seed)


def loop_contractivity_criterion(system, samples=100, seed=2024):
    form_plus = system.with_boundary(system.spec.shifted_bar(+1)).FormAtilde
    form_minus = system.with_boundary(system.spec.shifted_bar(-1)).FormAtilde
    scale = max(form_norm(form_plus), form_norm(form_minus))
    rng = np.random.default_rng(seed)
    min_plus = math.inf
    min_minus = math.inf
    for u in loop_straddling_samples(system.mesh, samples, rng):
        w = np.clip(u, -1.0, 1.0)
        z = u - w
        min_plus = min(min_plus, float(z @ form_plus @ w))
        min_minus = min(min_minus, float(z @ form_minus @ w))
    ok = min(min_plus, min_minus) >= -1e-9 * scale
    return verify.ContractivityReport(
        min_value_plus=float(min_plus), min_value_minus=float(min_minus),
        scale=scale, samples=samples, seed=seed,
        status="passed" if ok else "failed")


def loop_domination(evaluator, bar_evaluator, samples=50, seed=2024,
                    tol=1e-8):
    times = evaluator.grid
    rng = np.random.default_rng(seed)
    n = len(evaluator.mass)
    draws = rng.standard_normal((samples, n))
    draws /= np.abs(draws).max(axis=1, keepdims=True)
    worst = 0.0
    for t in times:
        S = evaluator.matrix(t)
        Sbar = bar_evaluator.matrix(t)
        for u in draws:
            excess = np.abs(S @ u) - Sbar @ np.abs(u)
            worst = max(worst, float(excess.max()))
    form = evaluator.form
    form_bar = bar_evaluator.form
    form_scale = form_norm(form)
    form_worst = -math.inf
    for _ in range(100):
        u = rng.standard_normal(n)
        v = np.abs(rng.standard_normal(n)) * np.sign(u)
        value = float(np.abs(v) @ form_bar @ np.abs(u) - v @ form @ u)
        form_worst = max(form_worst, value)
    form_worst = max(form_worst, 0.0)
    ok = worst <= tol and form_worst <= 1e-9 * form_scale
    return verify.DominationReport(
        times=times, max_violation=float(worst),
        form_max_violation=float(form_worst), form_scale=form_scale,
        samples=samples, seed=seed, status="passed" if ok else "failed")


def loop_eventual_positivity(evaluator, times, samples=20, seed=2024):
    """The sampling loop of the check; the hypothesis test is the
    package's, so this takes only inputs that meet it."""
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(seed)
    mesh = evaluator.system.mesh
    mass = evaluator.system.mass
    data = [np.abs(rng.standard_normal(mesh.n_vertices))
            for _ in range(max(samples - 3, 1))]
    for vertex in (0, mesh.n_vertices // 2, int(mesh.boundary_vertices[-1])):
        bump = np.zeros(mesh.n_vertices)
        bump[vertex] = 1.0
        data.append(bump)
    ratios = np.empty(len(times))
    for k, t in enumerate(times):
        S = evaluator.matrix(t)
        ratios[k] = math.exp(evaluator.system.alpha * t) * min(
            float((S @ u).min() / float(mass @ u)) for u in data)
    positive = ratios > 0.0
    start = next((k for k in range(len(times)) if positive[k:].all()), None)
    if start is None:
        return verify.EventualPositivityReport(
            delta=math.nan, t0=math.nan, hypothesis_ok=True, times=times,
            ratios=ratios, samples=len(data), seed=seed, status="failed")
    return verify.EventualPositivityReport(
        delta=float(ratios[start:].min()), t0=float(times[start]),
        hypothesis_ok=True, times=times, ratios=ratios, samples=len(data),
        seed=seed, status="passed")


def loop_smoothing_decay(adjoint_evaluator, nash_constant, times,
                         samples=50, seed=2024):
    """The sampling loop of the check, for a nonempty grid."""
    system = adjoint_evaluator.system
    d = system.mesh.dim
    prefactor = (d * nash_constant / 4.0) ** (d / 4.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    times = np.asarray(times, dtype=float)
    for t in times:
        S = adjoint_evaluator.matrix(t)
        bound = prefactor * t ** (-d / 4.0)
        for _ in range(samples):
            u = rng.standard_normal(system.n)
            worst = max(worst,
                        system.l2_norm(S @ u)
                        / (bound * l1_norm(system, u)))
    return verify.DecayReport(
        constant=float(nash_constant), prefactor=float(prefactor),
        max_ratio=float(worst), times=times, samples=samples, seed=seed,
        status="passed" if worst <= 1.0 else "failed")


def one_draw_continuity_ratio(system, samples, seed):
    """The largest ratio of ``check_continuity`` from one (samples, 2, n)
    draw, every sample in one product."""
    d = system.mesh.dim
    const = (d * d * system.field.sup_norm
             + system.spec.norm2 * system.trace_norm_sq)
    rng = np.random.default_rng(seed)
    u, v = np.moveaxis(rng.standard_normal((samples, 2, system.n)), 1, 0)

    def norms(w):
        h1 = np.sqrt(np.maximum(((system.H1 @ w.T).T * w).sum(axis=1), 0.0))
        return h1, np.sqrt((w * w) @ system.mass)

    (h1_u, l2_u), (h1_v, l2_v) = norms(u), norms(v)
    lhs = np.abs(((system.FormAtilde @ u.T).T * v).sum(axis=1))
    rhs = const * h1_u * h1_v + system.alpha * l2_u * l2_v
    return float((lhs / rhs).max(initial=0.0))


def inverse_resolvent_norm(evaluator, lam):
    """Weighted L2 norm of (I + lam M^-1 FormAtilde)^-1 from ``inv`` and
    an SVD, for any form."""
    R = np.linalg.inv(np.eye(len(evaluator.mass))
                      + lam * evaluator.generator.toarray())
    root = np.sqrt(evaluator.mass)
    return float(np.linalg.norm(root[:, None] * R / root[None, :], 2))


# -- the doubling chain, every grid matrix kept -------------------------
#
# The evaluator streams its chain through one sweep and keeps a matrix
# only until its square is made.  These are the chain as it was once
# cached whole and the grid reports computed from its matrices, with the
# arithmetic of the checks that read a cached matrix per time.

def halves(grid):
    """For each grid index, the index of the earliest grid time that is
    its half within 4 eps relative, or -1, from the count x count table
    of every pair (``semigroup._halves`` in linear memory)."""
    close = (np.abs(grid[:, None] - 2.0 * grid[None, :])
             <= 4.0 * np.finfo(float).eps * grid[:, None])
    return np.where((grid > 0) & close.any(axis=1), close.argmax(axis=1), -1)


def chain_matrices(evaluator):
    """The grid matrices of ``evaluator`` by grid index, from one
    ascending pass that takes an ``expm`` or squares the matrix at the half
    time (``halves``, ``MIN_SQUARED``) and keeps them all."""
    grid = evaluator.grid
    halves_at = halves(grid)
    norm = float(np.linalg.norm(evaluator.dense_generator(), np.inf))
    chain = [None] * len(grid)
    for k in np.argsort(grid, kind="stable"):
        if (halves_at[k] < 0
                or grid[halves_at[k]] * norm < semigroup.MIN_SQUARED):
            chain[k] = evaluator.exponential(float(grid[k]))
        else:
            half = chain[halves_at[k]]
            chain[k] = half @ half
    return chain


def cached_matrices(evaluator):
    """t -> S(t): a grid time's matrix from ``chain_matrices``, any
    other's from one ``expm``."""
    chain = dict(zip(map(float, evaluator.grid), chain_matrices(evaluator)))

    def at(t):
        t = float(t)
        return chain[t] if t in chain else evaluator.exponential(t)
    return at


def cached_norms(mass, S):
    """The shifted 2->inf, 1->2 and inf->inf norms and the smallest entry
    of S."""
    return (float(np.sqrt((S * S / mass[None, :]).sum(axis=1)).max()),
            float((np.sqrt((mass[:, None] * S * S).sum(axis=0))
                   / mass).max()),
            float(np.abs(S).sum(axis=1).max()),
            float(S.min()))


def cached_norms_rows(evaluator, at):
    """The norms.csv rows after the header: t and the unshifted
    ``cached_norms`` of S(t) = at(t)."""
    rows = []
    for t in evaluator.grid:
        shifted = cached_norms(evaluator.mass, at(t))
        shift = math.exp(evaluator.system.alpha * t)
        row = (float(t), *(shift * v for v in shifted))
        rows.append(",".join(f"{v:.17g}" for v in row))
    return rows


def cached_weighted_2_to_2(evaluator, at, t):
    """The weighted 2->2 norm of S(t) = at(t) from ``semigroup._norm_2``,
    whose agreement with an SVD ``test_semigroup`` checks."""
    root = np.sqrt(evaluator.mass)
    return semigroup._norm_2(root[:, None] * at(t) / root[None, :])


def cached_domination_violation(at, bar_at, times, n, samples, seed):
    """max_violation of ``check_domination`` from S(t) = at(t) and
    S_bar(t) = bar_at(t)."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((samples, n))
    draws /= np.abs(draws).max(axis=1, keepdims=True)
    magnitudes = np.abs(draws).T
    worst = 0.0
    for t in times:
        excess = np.abs(at(t) @ draws.T) - bar_at(t) @ magnitudes
        worst = max(worst, float(excess.max(initial=0.0)))
    return worst


def beyond_image(S, t, u, block, exponential):
    """S(u) @ block for a time u > t from S = S(t), with the arithmetic of
    ``SemigroupEvaluator.apply_beyond`` but one time at a time: u = m t + r,
    one ``exponential(r)`` unless r, or t - r, is within 4 eps u, and then
    S^m by binary powering from the lowest bit, with the powers squared
    afresh for this time."""
    tol = 4.0 * np.finfo(float).eps
    m, r = divmod(u, t)
    if t - r <= tol * u:
        m, r = m + 1, 0.0
    image = block if r <= tol * u else exponential(r) @ block
    m, power = int(m), S
    while m:
        if m & 1:
            image = power @ image
        m >>= 1
        if m:
            power = power @ power
    return image


def cached_eventual_positivity(system, image, times, samples, seed):
    """(ratios, t0, delta) of ``check_eventual_positivity`` from
    S(t) @ block = image(t, block), for a system that meets its
    hypotheses."""
    rng = np.random.default_rng(seed)
    mesh, mass = system.mesh, system.mass
    data = [np.abs(rng.standard_normal(mesh.n_vertices))
            for _ in range(max(samples - 3, 1))]
    for vertex in (0, mesh.n_vertices // 2, int(mesh.boundary_vertices[-1])):
        bump = np.zeros(mesh.n_vertices)
        bump[vertex] = 1.0
        data.append(bump)
    integrals = np.array([float(mass @ u) for u in data])
    block = np.array(data).T
    ratios = np.empty(len(times))
    for k, t in enumerate(times):
        lowest = image(t, block).min(axis=0)
        ratios[k] = (math.exp(system.alpha * t)
                     * float((lowest / integrals).min()))
    start = 1 + max(np.flatnonzero(~(ratios > 0.0)), default=-1)
    if start == len(times):
        return ratios, math.nan, math.nan
    return ratios, float(times[start]), float(ratios[start:].min())


def cached_decay_ratio(system, at, nash_constant, times, samples, seed):
    """max_ratio of ``check_smoothing_decay`` from S(t) = at(t)."""
    mass = system.mass
    d = system.mesh.dim
    prefactor = (d * nash_constant / 4.0) ** (d / 4.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        U = rng.standard_normal((samples, system.n))
        S = at(t)
        SU = U @ ((S.T * mass) / mass[:, None]).T
        bound = prefactor * t ** (-d / 4.0)
        ratios = np.sqrt((SU * SU) @ mass) / (bound * (np.abs(U) @ mass))
        worst = max(worst, float(ratios.max(initial=0.0)))
    return worst
