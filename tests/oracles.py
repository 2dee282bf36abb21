"""Dense reference constructions that only the tests use.

The package assembles its forms as sparse matrices at the P1 pattern and
the boundary coupling without a trace matrix, lumps the mass, reads the
adjoint semigroup off the primal's matrices by duality, runs each time's
samples as one matrix product and takes a self-adjoint resolvent norm
from the spectrum.  These are the textbook forms it is checked against:
the dense n x n assembly, the 0/1 trace matrix, the lumped L1 norm, the
exact P1 mass matrix, the adjoint semigroup evaluated on its own
with a chain of its own, the duality of the mixed norms between a
semigroup and that adjoint, the per-sample loops of the sampled checks,
and the resolvent from ``inv`` and an SVD.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from robinheat import CoefficientField, build_evaluator, verify
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


def dense_forms(system):
    """K, K_id, H1 and FormAtilde of ``system`` as n x n arrays, summed
    the way a dense assembly sums them."""
    mesh = system.mesh
    K = dense_stiffness(mesh, system.field)
    K_id = dense_stiffness(mesh, CoefficientField.isotropic(mesh, 1.0))
    mass = np.diag(system.mass)
    return {"K": K, "K_id": K_id, "H1": K_id + mass,
            "FormAtilde": ((K + on_boundary(mesh, system.Bw))
                           + system.alpha * mass)}


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
        status="passed" if d > 2 else "out-of-hypothesis", seed=seed)


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


def inverse_resolvent_norm(evaluator, lam):
    """Weighted L2 norm of (I + lam M^-1 FormAtilde)^-1 from ``inv`` and
    an SVD, for any form."""
    R = np.linalg.inv(np.eye(len(evaluator.mass)) + lam * evaluator.generator)
    root = np.sqrt(evaluator.mass)
    return float(np.linalg.norm(root[:, None] * R / root[None, :], 2))
