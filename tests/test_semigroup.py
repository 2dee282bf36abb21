"""Semigroup evaluation against scalar and closed-form oracles.

The exponential itself is checked on systems small enough to integrate by
hand: a diagonal generator (entrywise scalar decay) and an upper
triangular 2 x 2 generator whose off-diagonal entry has the explicit
divided-difference form.  Mixed norms are cross-checked by brute force
over random inputs and by constructing the maximizers.  Reused
evaluators are checked against unshared exponentials bit for bit, the
energy check's adjoint generator (the evaluator's own on a self-adjoint
form) against the symmetry tolerance from both sides, and the spectral
2->2 norm against the SVD.  The duality routes that read the adjoint
semigroup off the primal (the dual mixed norms, the decay check's
S*(t) = M^-1 S(t)^T M and the energy check's exponentials) are checked
against the adjoint form's own chain from ``oracles.py``: at 1e-12
relative, and the exponentials bit for bit.
The doubling chain along a time grid is checked against one ``expm``
per time at 1e-11 relative in the weighted 2-norm (6.9e-14 is the
largest gap the derandomized examples reach), and its pairing, its
chain order, the chain-by-chain order of one sweep of several
evaluators, its independence of the grid's order, the read-only
matrices a sweep hands its steps, the traced memory at each seed, the
single ``expm`` behind a grid time's ``matrix``, the uncached off-grid
route and its part in ``reuse`` are checked exactly.
"""

import copy
import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    SemigroupEvaluator,
    assemble_system,
    build_box_mesh,
    build_boundary_operator,
    build_evaluator,
    fit_ultracontractivity,
    geometric_times,
    reuse,
    semigroup_law_defect,
    write_norms_csv,
)
from robinheat import assembly, semigroup, verify
from robinheat.semigroup import dense_exponential
from robinheat.cli import main
import oracles
from oracles import adjoint_evaluator, l1_norm, loop_smoothing_decay

EXP_TOL = 1e-13


def stub_system(form, mass, alpha=0.0):
    form = scipy.sparse.csr_matrix(np.asarray(form, dtype=float))
    mass = np.asarray(mass, dtype=float)
    return SimpleNamespace(
        FormAtilde=form,
        mass=mass,
        alpha=alpha,
        n=len(mass),
    )


# -- exponential oracles -------------------------------------------------

def test_diagonal_generator_matches_scalar_decay():
    rates = np.array([0.7, 3.2, 11.0])
    mass = np.array([1.0, 2.0, 0.5])
    system = stub_system(np.diag(rates * mass), mass)
    ev = SemigroupEvaluator(system)
    for t in (0.0, 0.05, 0.3, 1.7):
        expected = np.diag(np.exp(-rates * t))
        assert np.abs(ev.matrix(t) - expected).max() <= EXP_TOL


def test_triangular_generator_closed_form():
    # generator [[a, b], [0, c]]: the (0, 1) entry of exp(-t P) is
    # b (e^{-a t} - e^{-c t}) / (a - c)
    a, b, c = 1.0, 0.5, 3.0
    system = stub_system(np.array([[a, b], [0.0, c]]), np.ones(2))
    ev = SemigroupEvaluator(system)
    for t in (0.1, 0.8, 2.5):
        S = ev.matrix(t)
        assert_allclose(S[0, 0], math.exp(-a * t), rtol=0, atol=EXP_TOL)
        assert_allclose(S[1, 1], math.exp(-c * t), rtol=0, atol=EXP_TOL)
        expected01 = b * (math.exp(-a * t) - math.exp(-c * t)) / (a - c)
        assert_allclose(S[0, 1], expected01, rtol=0, atol=EXP_TOL)
        assert_allclose(S[1, 0], 0.0, rtol=0, atol=EXP_TOL)


def test_unshifted_outputs_carry_exponential_factor():
    """The evaluator gives the shifted semigroup only; norms.csv and the
    fit report the unshifted evolution as exp(alpha t) times it, bit for
    bit."""
    cube4 = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4))
    system = assemble_system(
        cube4, CoefficientField.isotropic(cube4, 2.5),
        BoundaryOperatorSpec.multiplication(cube4, -0.05))
    alpha = system.alpha
    times = geometric_times()
    ev = build_evaluator(system, grid=times)
    buffer = io.StringIO()
    write_norms_csv(ev, buffer)
    chain = oracles.cached_matrices(ev)
    for line, t in zip(buffer.getvalue().splitlines()[1:], times):
        shifted = (ev.norm_2_to_inf(t), ev.norm_1_to_2(t),
                   ev.norm_inf_to_inf(t), float(chain(t).min()))
        assert [float(v) for v in line.split(",")] == [
            t, *(math.exp(alpha * t) * v for v in shifted)]
    fit = fit_ultracontractivity(ev)
    g = np.array([ev.norm_2_to_inf(t) for t in times])
    assert np.array_equal(fit.norms, g * np.exp(alpha * times))


def test_matrix_rejects_negative_time():
    ev = SemigroupEvaluator(stub_system(np.eye(2), np.ones(2)))
    with pytest.raises(ValueError):
        ev.matrix(-0.1)


@pytest.mark.parametrize("t", [-1.0, -1e-300, math.inf, math.nan])
def test_exponentials_refuse_negative_and_non_finite_times(
        interval4_robin_system, t):
    """Unrefused, a negative time answers with a growing matrix (entries
    near 1e222 at t = -1 on an 8-cell interval)."""
    ev = build_evaluator(interval4_robin_system)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        dense_exponential(ev.generator, t)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ev.exponential(t)


def test_law_defect_refuses_a_negative_time(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        semigroup_law_defect(ev, -0.5, 0.25)


# -- structural identities ----------------------------------------------

def test_semigroup_law(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    for t, s in ((0.25, 0.375), (1.0 / 3.0, 2.0 / 3.0)):
        assert semigroup_law_defect(ev, t, s) <= 1e-10


def test_adjoint_pairing(cube2):
    entries = np.array([[2.0, 0.5, 0.0],
                        [-0.5, 2.0, 0.3],
                        [0.0, -0.3, 2.0]])
    field = CoefficientField.matrix(cube2, entries)
    spec = BoundaryOperatorSpec.multiplication(cube2, -0.02)
    system = assemble_system(cube2, field, spec)
    primal = build_evaluator(system)
    adjoint = adjoint_evaluator(system)
    mass = system.mass
    rng = np.random.default_rng(3)
    t = 0.2
    for _ in range(50):
        u = rng.standard_normal(system.n)
        v = rng.standard_normal(system.n)
        lhs = float((primal.apply(t, u) * mass) @ v)
        rhs = float(u @ (mass * adjoint.apply(t, v)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)


def test_generator_consistency(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    P = ev.generator
    rng = np.random.default_rng(5)
    u = rng.standard_normal(5)

    def euler_error(dt):
        approx = (u - ev.apply(dt, u)) / dt
        return float(np.abs(approx - P @ u).max())

    ratio = euler_error(2e-3) / euler_error(1e-3)
    assert 1.7 <= ratio <= 2.3


def test_resolvent_contraction(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    for lam in (0.1, 1.0, 10.0):
        assert ev.resolvent_contraction(lam) <= 1.0 + 1e-10
    with pytest.raises(ValueError):
        ev.resolvent_contraction(0.0)


def test_l2_contraction_along_grid(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    for t in geometric_times(count=8):
        assert ev.norm_2_to_2(t) <= 1.0 + 1e-10


# -- mixed norm formulas -------------------------------------------------

def test_norms_at_time_zero(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    mass = interval4_robin_system.mass
    assert np.array_equal(ev.matrix(0.0), np.eye(5))
    assert_allclose(ev.norm_2_to_inf(0.0), 1.0 / math.sqrt(mass.min()),
                    rtol=1e-14, atol=0)
    assert_allclose(ev.norm_1_to_2(0.0), 1.0 / math.sqrt(mass.min()),
                    rtol=1e-14, atol=0)
    assert_allclose(ev.norm_inf_to_inf(0.0), 1.0, rtol=0, atol=0)
    assert_allclose(ev.norm_1_to_1(0.0), 1.0, rtol=0, atol=0)
    assert_allclose(ev.norm_2_to_2(0.0), 1.0, rtol=1e-13, atol=0)


def test_norm_2_to_inf_brute_force(interval4_robin_system):
    system = interval4_robin_system
    ev = build_evaluator(system)
    t = 0.1
    S = ev.matrix(t)
    value = ev.norm_2_to_inf(t)
    rng = np.random.default_rng(17)
    for _ in range(200):
        u = rng.standard_normal(system.n)
        assert np.abs(S @ u).max() <= value * system.l2_norm(u) * (1 + 1e-12)
    # the maximizing input is the mass-rescaled worst row
    row = int(np.argmax(np.sqrt((S * S / system.mass[None, :]).sum(axis=1))))
    u_star = S[row] / system.mass
    attained = np.abs(S @ u_star).max() / system.l2_norm(u_star)
    assert_allclose(attained, value, rtol=1e-12, atol=0)


def test_norm_1_to_2_matches_indicator_sweep(interval4_robin_system):
    system = interval4_robin_system
    ev = build_evaluator(system)
    t = 0.1
    S = ev.matrix(t)
    # extreme points of the L1 unit ball are the scaled vertex indicators
    best = 0.0
    for j in range(system.n):
        e = np.zeros(system.n)
        e[j] = 1.0
        best = max(best, system.l2_norm(S @ e) / l1_norm(system, e))
    assert_allclose(ev.norm_1_to_2(t), best, rtol=1e-12, atol=0)


def test_norm_inf_to_inf_attained_by_sign_vector(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    t = 0.1
    S = ev.matrix(t)
    value = ev.norm_inf_to_inf(t)
    row = int(np.argmax(np.abs(S).sum(axis=1)))
    u = np.sign(S[row])
    assert_allclose(np.abs(S @ u).max(), value, rtol=1e-12, atol=0)


def test_norm_1_to_1_is_adjoint_sup_norm(interval4_robin_system):
    system = interval4_robin_system
    ev = build_evaluator(system)
    t = 0.1
    S = ev.matrix(t)
    mass = system.mass
    Sstar = (S.T * mass[None, :]) / mass[:, None]
    assert_allclose(ev.norm_1_to_1(t), np.abs(Sstar).sum(axis=1).max(),
                    rtol=1e-12, atol=0)


def test_norm_2_to_2_matches_svd(interval4_robin_system):
    ev = build_evaluator(interval4_robin_system)
    t = 0.1
    S = ev.matrix(t)
    root = np.sqrt(interval4_robin_system.mass)
    expected = scipy.linalg.svdvals(root[:, None] * S / root[None, :])[0]
    assert_allclose(ev.norm_2_to_2(t), expected, rtol=1e-12, atol=0)


def test_duality_of_mixed_norms(cube2_neumann_system):
    primal = build_evaluator(cube2_neumann_system)
    adjoint = adjoint_evaluator(cube2_neumann_system)
    for t in (0.05, 0.2, 1.0):
        a = primal.norm_2_to_inf(t)
        b = adjoint.norm_1_to_2(t)
        assert abs(a - b) <= 1e-10 * a


# -- time grids ----------------------------------------------------------

def test_geometric_times_shape():
    times = geometric_times(t_max=2.0, ratio=0.5, count=5)
    assert len(times) == 5
    assert_allclose(times, [0.125, 0.25, 0.5, 1.0, 2.0], rtol=1e-15, atol=0)
    assert np.all(np.diff(times) > 0)
    with pytest.raises(ValueError):
        geometric_times(ratio=1.5)
    with pytest.raises(ValueError):
        geometric_times(count=0)
    with pytest.raises(ValueError):
        geometric_times(t_max=-1.0)


# -- dense limit ---------------------------------------------------------

def test_dense_limit_refusal(tmp_path, monkeypatch, capsys):
    """A mesh above the limit is refused with exit 2 before assembly
    allocates its first dense array."""
    def refuse(*args, **kwargs):
        raise AssertionError("assembly started above the dense limit")

    monkeypatch.setattr(assembly, "DENSE_LIMIT", 20)
    monkeypatch.setattr(assembly, "_cell_stiffness", refuse)
    path = tmp_path / "cube2.ini"
    path.write_text("[domain]\nshape = box\nextents = 1, 1, 1\n"
                    "divisions = 2\n[run]\nchecks = accretivity\n")
    assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "27 unknowns, above the dense limit 20" in err


# -- reused evaluators and the spectral 2->2 norm -----------------------

def svd_norm_2_to_2(ev, t):
    """Oracle: largest singular value of the mass-weighted S(t)."""
    root = np.sqrt(ev.mass)
    S = ev.matrix(t)
    return scipy.linalg.svdvals(root[:, None] * S / root[None, :])[0]


@st.composite
def selfadjoint_systems(draw):
    """Small box meshes with symmetric forms: isotropic or diagonal fields
    and zero or multiplication operators with scalar or per-vertex beta."""
    dim = draw(st.integers(1, 2))
    mesh = build_box_mesh((1.0,) * dim, (draw(st.integers(2, 4)),) * dim)
    value = st.floats(0.1, 5.0)
    if draw(st.booleans()):
        field = CoefficientField.isotropic(mesh, draw(value))
    else:
        field = CoefficientField.diagonal(
            mesh, draw(st.lists(value, min_size=dim, max_size=dim)))
    kind = draw(st.sampled_from(("zero", "scalar", "per-vertex")))
    beta = st.floats(-2.0, 2.0)
    nb = len(mesh.boundary_vertices)
    if kind == "zero":
        spec = BoundaryOperatorSpec.zero(mesh)
    elif kind == "scalar":
        spec = BoundaryOperatorSpec.multiplication(mesh, draw(beta))
    else:
        spec = BoundaryOperatorSpec.multiplication(
            mesh, draw(st.lists(beta, min_size=nb, max_size=nb)))
    return assemble_system(mesh, field, spec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(selfadjoint_systems(), st.sampled_from((0.01, 0.1, 0.5)))
def test_selfadjoint_evaluators_share_one_propagator(system, t):
    """The energy check exponentiates the evaluator's own generator on a
    self-adjoint form, so every exponential is the primal's."""
    primal = build_evaluator(system)
    assert np.array_equal(energy_exponentials(primal, t),
                          primal.exponential(t))
    S = primal.matrix(t)
    assert not S.flags.writeable
    assert np.array_equal(S, SemigroupEvaluator(system).exponential(t))
    assert primal.symmetry_residual <= semigroup.SYMMETRY_TOL
    assert_allclose(primal.norm_2_to_2(t), svd_norm_2_to_2(primal, t),
                    rtol=1e-12, atol=0)


def nonsymmetric_system(kind):
    square = build_box_mesh((1.0, 1.0), (3, 3))
    if kind == "sheared-matrix":
        field = CoefficientField.matrix(square, [[2.0, 0.5], [-0.5, 2.0]])
        spec = BoundaryOperatorSpec.multiplication(square, -0.1)
    elif kind == "random-kernel":
        field = CoefficientField.isotropic(square, 2.0)
        nb = len(square.boundary_vertices)
        spec = BoundaryOperatorSpec.kernel(
            square, 0.1 * np.random.default_rng(1).standard_normal((nb, nb)))
    else:
        field = CoefficientField.isotropic(square, 2.0)
        spec = build_boundary_operator(
            square, {"kind": "kernel", "profile": "cosine", "scale": 0.5})
    return assemble_system(square, field, spec)


@pytest.mark.parametrize("kind", ["sheared-matrix", "cosine-kernel"])
def test_nonsymmetric_generators_keep_svd_path(kind, monkeypatch):
    """A non-self-adjoint form never takes the spectrum's shortcut: its
    2->2 norm is the largest singular value of the weighted S(t), which
    ``semigroup._norm_2`` computes from the Gram matrix."""
    system = nonsymmetric_system(kind)
    primal = build_evaluator(system)
    adjoint = adjoint_evaluator(system)
    t = 0.1
    assert reuse(primal, adjoint) is adjoint
    assert primal.symmetry_residual > semigroup.SYMMETRY_TOL
    expected = svd_norm_2_to_2(primal, t)

    def refuse(*args, **kwargs):
        raise AssertionError("spectral route taken for a nonsymmetric form")

    monkeypatch.setattr(SemigroupEvaluator, "_spectrum", refuse)
    assert_allclose(primal.norm_2_to_2(t), expected, rtol=1e-12, atol=0)


def test_norm_1_to_2_satisfies_weighted_adjoint_identity():
    """The 1 -> 2 norm of S(t) equals the 2 -> sup norm of its adjoint in
    the lumped inner product, M^-1 S^T M, on a non-self-adjoint form."""
    system = nonsymmetric_system("cosine-kernel")
    ev = build_evaluator(system)
    m = system.mass
    for t in (0.01, 0.1, 0.7):
        S = ev.matrix(t)
        Sstar = (S.T * m[None, :]) / m[:, None]
        dual = float(np.sqrt((Sstar * Sstar / m[None, :]).sum(axis=1)).max())
        assert_allclose(ev.norm_1_to_2(t), dual, rtol=1e-10, atol=0)


def test_adjoint_form_is_the_transpose_view(cube2):
    """The oracle's adjoint copies no matrix: its form is a view of the
    primal's, and the primal system keeps its own."""
    field = CoefficientField.matrix(cube2, [[2.0, 0.5, 0.0],
                                            [-0.5, 2.0, 0.3],
                                            [0.0, -0.3, 2.0]])
    system = assemble_system(
        cube2, field, BoundaryOperatorSpec.multiplication(cube2, -0.02))
    form = system.FormAtilde
    adjoint = adjoint_evaluator(system)
    assert np.array_equal(adjoint.form.toarray(), form.T.toarray())
    assert np.shares_memory(adjoint.form.data, form.data)
    assert system.FormAtilde is form


@pytest.mark.parametrize("kind", ["sheared-matrix", "cosine-kernel"])
def test_nonsymmetric_adjoint_is_the_weighted_transpose(kind):
    """The semigroup of the adjoint form, from a chain of its own, is
    M^-1 S(t)^T M, the adjoint in the lumped inner product, and the
    energy check's exponentials keep the bits of the adjoint form's own
    single-expm route."""
    system = nonsymmetric_system(kind)
    grid = geometric_times(count=6)
    primal = build_evaluator(system, grid=grid)
    independent = adjoint_evaluator(system, grid=grid)
    chain, adjoint_chain = (oracles.cached_matrices(ev)
                            for ev in (primal, independent))
    m = system.mass
    for t in grid:
        dual = (chain(t).T * m[None, :]) / m[:, None]
        assert weighted_gap(primal, adjoint_chain(t), dual) <= 1e-12
        assert np.array_equal(energy_exponentials(primal, t),
                              independent.exponential(t))


def energy_exponentials(evaluator, t):
    """The matrix ``check_energy_dissipation`` exponentiates at time t,
    recorded from a one-sample check at t."""
    taken = {}
    real = verify.dense_exponential

    def recorded(generator, s):
        taken[s] = real(generator, s)
        return taken[s]

    verify.dense_exponential = recorded
    try:
        verify.check_energy_dissipation(evaluator, [t], samples=1)
    finally:
        verify.dense_exponential = real
    return taken[t]


# (primal norm, the adjoint's norm it equals by duality)
DUAL_NORMS = (("norm_2_to_inf", "norm_1_to_2"),
              ("norm_1_to_2", "norm_2_to_inf"),
              ("norm_inf_to_inf", "norm_1_to_1"),
              ("norm_1_to_1", "norm_inf_to_inf"),
              ("norm_2_to_2", "norm_2_to_2"))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(("sheared-matrix", "cosine-kernel", "random-kernel")),
       st.sampled_from((2 ** -0.5, 0.6)), st.integers(1, 12),
       st.floats(0.05, 2.0), st.integers(0, 2 ** 16))
def test_duality_routes_match_an_independent_chain(kind, ratio, count, t_max,
                                                   seed):
    """What the checks read off the primal for the adjoint semigroup,
    against the adjoint form's own chain on grids with doublings (ratio
    2^-1/2) and without (ratio 0.6): every mixed norm against its dual
    and the sup check's L1 bound at 1e-12 relative, the decay check's
    S*(t) through its ratios at 1e-12 relative, and the energy check's
    exponentials bit for bit.  On the first two forms each mixed norm of
    S(t) equals its dual norm to roundoff; on the random kernel they
    differ by about 1e-3, so a dual norm read off the wrong primal norm
    shows, and the lumped masses differ from vertex to vertex, so S*(t)
    without its mass weights shows."""
    system = nonsymmetric_system(kind)
    grid = geometric_times(t_max, ratio, count)
    primal = build_evaluator(system, grid=grid)
    oracle = adjoint_evaluator(system, grid=grid)
    for t in grid:
        for norm, dual in DUAL_NORMS:
            assert_allclose(getattr(primal, norm)(t), getattr(oracle, dual)(t),
                            rtol=1e-12, atol=0)
        decay = verify.check_smoothing_decay(primal, 0.3, [t], 5, seed)
        expected = loop_smoothing_decay(oracle, 0.3, [t], 5, seed)
        assert_allclose(decay.max_ratio, expected.max_ratio, rtol=1e-12,
                        atol=0)
    bounds = verify.check_sup_contraction(primal)
    assert_allclose(bounds.max_l1_excess + 1.0,
                    max(oracle.norm_1_to_1(t) for t in grid),
                    rtol=1e-12, atol=0)
    for t in grid[-3:]:
        assert np.array_equal(energy_exponentials(primal, t),
                              oracle.exponential(t))


@pytest.mark.parametrize("divisions", [5, 6])
def test_selfadjoint_sharing_tolerates_stiffness_roundoff(divisions):
    """On the cube_robin operator at 216 and 343 unknowns the form is not
    bitwise symmetric, only to roundoff; the energy check still takes the
    primal's own exponentials."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (divisions,) * 3)
    system = assemble_system(
        cube, CoefficientField.isotropic(cube, 2.5),
        BoundaryOperatorSpec.multiplication(cube, -0.05))
    assert not np.array_equal(system.FormAtilde.toarray(),
                              system.FormAtilde.T.toarray())
    primal = build_evaluator(system)
    assert primal.symmetry_residual <= semigroup.SYMMETRY_TOL
    assert np.array_equal(energy_exponentials(primal, 0.1),
                          primal.exponential(0.1))


@pytest.mark.parametrize("factor, shared", [(0.5, True), (2.0, False)])
def test_sharing_stops_above_the_symmetry_tolerance(interval4_robin_system,
                                                    factor, shared):
    """One off-diagonal entry is moved so that the weighted generator's
    asymmetry is ``factor`` times SYMMETRY_TOL of its largest entry.  The
    energy check exponentiates the primal's own generator below the
    tolerance and the transpose's above it; the two differ in their bits."""
    system = interval4_robin_system
    m = system.mass
    root = np.sqrt(m)
    scale = np.abs(system.FormAtilde.toarray() / root[:, None]
                   / root[None, :]).max()
    form = system.FormAtilde.copy()
    form[0, 1] += factor * semigroup.SYMMETRY_TOL * scale * root[0] * root[1]
    pushed = copy.copy(system)
    pushed.FormAtilde = form
    primal = build_evaluator(pushed)
    assert_allclose(primal.symmetry_residual,
                    factor * semigroup.SYMMETRY_TOL, rtol=1e-3)
    t = 0.1
    own = primal.exponential(t)
    transposed = semigroup.dense_exponential(
        scipy.sparse.csr_matrix(form.toarray().T / m[:, None]), t)
    assert not np.array_equal(own, transposed)
    taken = energy_exponentials(primal, t)
    assert np.array_equal(taken, own if shared else transposed)


def test_sharing_requires_bitwise_equal_generators(interval4_robin_system):
    system = interval4_robin_system
    form = system.FormAtilde.copy()
    form[-1, -1] = np.nextafter(form[-1, -1], np.inf)
    nudged = SimpleNamespace(FormAtilde=form, mass=system.mass,
                             alpha=system.alpha, n=system.n)
    ev = build_evaluator(system)
    assert reuse(ev, build_evaluator(system)) is ev
    candidate = build_evaluator(nudged)
    assert reuse(ev, candidate) is candidate


def test_building_an_evaluator_is_lazy(cube2_neumann_system, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eager work while building an evaluator")

    for owner, name in ((scipy.linalg, "expm"), (scipy.linalg, "eigh"),
                        (np.linalg, "eigvalsh"), (np.linalg, "eigh")):
        monkeypatch.setattr(owner, name, refuse)
    build_evaluator(cube2_neumann_system)
    build_evaluator(cube2_neumann_system, grid=geometric_times())
    SemigroupEvaluator(cube2_neumann_system,
                       grid=geometric_times(ratio=2 ** -0.25))


# -- the doubling chain --------------------------------------------------

def weighted_gap(ev, A, B):
    """|A - B| / |B| in the weighted 2-norm of the evaluator's mass."""
    root = np.sqrt(ev.mass)

    def weighted(S):
        return root[:, None] * S / root[None, :]

    return (np.linalg.norm(weighted(A - B), 2)
            / np.linalg.norm(weighted(B), 2))


def swept(ev):
    """Every (t, S(t)) that one sweep of ``ev`` hands its steps, in order."""
    seen = []
    ev.register(lambda t, S: seen.append((t, S)))
    ev.sweep()
    return seen


def chain_order(ev, step):
    """The times of ``ev``'s ascending grid, on which each time doubles
    the one ``step`` indices before it, in chain order: each seed in
    ascending order, followed by the times that double it up.  A time is
    a seed until the grid first doubles a time t_j with
    |t_j P|_inf >= 2^-4."""
    grid = ev.grid
    norm = np.linalg.norm(ev.generator.toarray(), np.inf)
    seed = {}
    for k in range(len(grid)):
        fresh = k < step or grid[k - step] * norm < 2.0 ** -4
        seed[k] = k if fresh else seed[k - step]
    return [float(grid[k]) for k in sorted(seed, key=lambda k: (seed[k], k))]


def recording_exponentials(ev):
    """Record, on the instance, every time ``matrix`` takes an expm at."""
    times = []
    exponential = ev.exponential

    def recorded(t):
        times.append(t)
        return exponential(t)

    ev.exponential = recorded
    return times


@st.composite
def chain_systems(draw):
    """Interval, square and 2x2x2 cube meshes with an isotropic field and
    a multiplication or a random (non-symmetric) kernel operator."""
    mesh = draw(st.sampled_from((
        build_box_mesh((1.0,), (6,)),
        build_box_mesh((1.0, 1.0), (3, 3)),
        build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)))))
    field = CoefficientField.isotropic(mesh, draw(st.floats(0.5, 3.0)))
    nb = len(mesh.boundary_vertices)
    if draw(st.booleans()):
        spec = BoundaryOperatorSpec.multiplication(
            mesh, draw(st.floats(-0.2, 0.2)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        spec = BoundaryOperatorSpec.kernel(
            mesh, draw(st.floats(0.01, 0.2)) * rng.standard_normal((nb, nb)))
    return assemble_system(mesh, field, spec)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(chain_systems(), st.sampled_from((2 ** -0.5, 2 ** -0.25)),
       st.integers(1, 30), st.floats(0.1, 3.0), st.booleans())
def test_chain_agrees_with_single_exponentials(system, ratio, count, t_max,
                                               adjoint):
    grid = geometric_times(t_max, ratio, count)
    build = adjoint_evaluator if adjoint else build_evaluator
    ev = build(system, grid=grid)
    taken = recording_exponentials(ev)
    chained = swept(ev)
    step = 2 if ratio == 2 ** -0.5 else 4
    assert [t for t, _ in chained] == chain_order(ev, step)
    # one expm per time until the grid first doubles a time t_j with
    # |t_j P|_inf >= 2^-4, squarings after
    norm = np.linalg.norm(ev.generator.toarray(), np.inf)
    assert taken == [float(t) for k, t in enumerate(grid)
                     if k < step or grid[k - step] * norm < 2.0 ** -4]
    oracle = build(system)
    for t, S in chained:
        assert weighted_gap(ev, S, oracle.exponential(t)) <= 1e-11


@pytest.fixture(scope="module")
def cube_robin_125():
    """The cube_robin operator at 4 divisions: 125 unknowns."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4))
    return assemble_system(cube, CoefficientField.isotropic(cube, 2.5),
                           BoundaryOperatorSpec.multiplication(cube, -0.05))


@pytest.mark.parametrize("count", [40, 80, 120, 400])
def test_long_grid_chain_does_not_overscale(cube_robin_125, count):
    """A long grid starts at a tiny time.  Squaring up from there would
    amplify that exponential's rounding by 2^m (at count 120 S(1) was off
    by 100%), so the chain starts squaring only from |t P|_inf >= 2^-4
    and agrees with one ``expm`` per time at every grid time."""
    grid = geometric_times(count=count)
    ev = build_evaluator(cube_robin_125, grid=grid)
    checked = []

    def check(t, S):
        oracle = ev.exponential(t)
        assert np.abs(S - oracle).max() <= 1e-12 * np.abs(oracle).max()
        checked.append(t)

    ev.register(check)
    ev.sweep()
    assert checked == chain_order(ev, 2)


@pytest.mark.parametrize("grid", [
    geometric_times(ratio=0.6),
    # every pair t_k = 2 t_{k-2} has exactly one member moved by 1e-12
    geometric_times() * np.where(np.arange(24) // 2 % 2, 1 + 1e-12, 1.0),
], ids=["ratio-0.6", "nudged"])
def test_pairs_are_detected_not_assumed(interval4_robin_system, grid):
    ev = build_evaluator(interval4_robin_system, grid=grid)
    taken = recording_exponentials(ev)
    matrices = swept(ev)
    assert taken == [float(t) for t in grid]
    oracle = build_evaluator(interval4_robin_system)
    for t, S in matrices:
        assert np.array_equal(S, oracle.exponential(t))


def test_sweep_hands_every_step_read_only_matrices(interval4_robin_system):
    """One sweep takes the two exponentials of the grid and hands each
    grid time's read-only matrix to every registered step; a second sweep
    with nothing registered computes nothing."""
    grid = geometric_times(count=6)
    ev = build_evaluator(interval4_robin_system, grid=grid)
    taken = recording_exponentials(ev)
    first, second = [], []
    ev.register(lambda t, S: first.append((t, S)))
    ev.register(lambda t, S: second.append((t, S)))
    ev.sweep()
    assert taken == [float(t) for t in grid[:2]]
    assert [t for t, _ in first] == chain_order(ev, 2)
    for (t, S), (_, other) in zip(first, second):
        assert S is other
        assert not S.flags.writeable
    ev.sweep()
    assert len(taken) == 2


@pytest.mark.parametrize("grid, order, exponentials", [
    # the repeat of grid[3] doubles grid[1] too, after grid[3] and
    # before grid[5], which doubles the earlier copy
    (np.append(geometric_times(count=6), geometric_times(count=6)[3]),
     [0, 2, 4, 1, 3, 6, 5], [0, 1]),
    # no time doubles another: every time is a seed, in ascending order
    (geometric_times(ratio=0.6), list(range(24)), list(range(24))),
], ids=["repeated-time", "ratio-0.6"])
def test_sweep_hands_out_chain_order(interval4_robin_system, grid, order,
                                     exponentials):
    ev = build_evaluator(interval4_robin_system, grid=grid)
    taken = recording_exponentials(ev)
    matrices = swept(ev)
    assert [t for t, _ in matrices] == [float(grid[k]) for k in order]
    assert taken == [float(grid[k]) for k in exponentials]
    oracle = build_evaluator(interval4_robin_system)
    first = {}
    for t, S in matrices:
        assert weighted_gap(ev, S, oracle.exponential(t)) <= 1e-11
        # the copies of a repeated time are squares of one half
        assert np.array_equal(S, first.setdefault(t, S))


def test_one_sweep_of_several_evaluators_goes_chain_by_chain(
        interval4_robin_system):
    """On the default ratio a comparison and the primal each have two
    chains; one sweep hands out comparison chain 1, primal chain 1,
    comparison chain 2 and primal chain 2, each in its evaluator's chain
    order.  An evaluator listed twice is swept once, and one with a single
    chain takes part in the first chain only."""
    grid = geometric_times(count=6)
    primal = build_evaluator(interval4_robin_system, grid=grid)
    comparison = build_evaluator(interval4_robin_system.shifted_bar(-1),
                                 grid=grid)
    short = build_evaluator(interval4_robin_system, grid=grid[:1])
    seen = []
    for name, ev in (("comparison", comparison), ("primal", primal),
                     ("short", short)):
        ev.register(lambda t, S, name=name: seen.append((name, t)))
    semigroup.sweep([comparison, primal, comparison, short])
    chains = [[float(t) for t in grid[0::2]], [float(t) for t in grid[1::2]]]
    assert chain_order(primal, 2) == chain_order(comparison, 2) == sum(
        chains, [])
    assert seen == ([("comparison", t) for t in chains[0]]
                    + [("primal", t) for t in chains[0]]
                    + [("short", float(grid[0]))]
                    + [("comparison", t) for t in chains[1]]
                    + [("primal", t) for t in chains[1]])


def test_no_chain_matrix_is_alive_at_a_seed(cube_robin_125):
    """Each seed's ``expm`` starts with no chain matrix held.  On the
    default ratio two chains interleave in time; swept in ascending
    time, the second seed would be exponentiated while the first chain's
    matrix waits for its square."""
    n = cube_robin_125.n
    ev = build_evaluator(cube_robin_125, grid=geometric_times())
    exponential, levels = ev.exponential, []

    def traced(t):
        levels.append(tracemalloc.get_traced_memory()[0])
        return exponential(t)

    ev.exponential = traced
    ev.register(lambda t, S: None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ev.sweep()
    finally:
        tracemalloc.stop()
    assert len(levels) >= 2
    assert max(levels) - before <= 0.5 * n * n * 8, (
        f"{(max(levels) - before) / (n * n * 8):+.2f} n^2 doubles")


def test_matrix_at_a_grid_time_takes_one_expm(interval4_robin_system):
    """``matrix`` reruns no chain: at every grid time it takes one
    ``expm``, with the bits of ``exponential``."""
    grid = geometric_times(count=6)
    ev = build_evaluator(interval4_robin_system, grid=grid)
    oracle = build_evaluator(interval4_robin_system)
    taken = recording_exponentials(ev)
    for t in grid[1:]:
        taken.clear()
        S = ev.matrix(t)
        assert taken == [float(t)]
        assert np.array_equal(S, oracle.exponential(t))
        assert not S.flags.writeable


@pytest.mark.parametrize("grid", [(), geometric_times(count=6)],
                         ids=["no-grid", "grid"])
def test_off_grid_time_takes_one_expm_per_request(interval4_robin_system,
                                                  grid):
    ev = build_evaluator(interval4_robin_system, grid=grid)
    taken = recording_exponentials(ev)
    first, second = ev.matrix(0.3), ev.matrix(0.3)
    assert taken == [0.3, 0.3]
    assert first is not second
    assert np.array_equal(first, second)
    assert not first.flags.writeable


def test_shuffled_grid_gives_the_sorted_bits():
    """The chain is built in ascending time order whatever the grid's
    order, so each time gets the bits, and the two exponentials, of the
    sorted grid."""
    system = nonsymmetric_system("cosine-kernel")
    grid = geometric_times()
    ordered = build_evaluator(system, grid=grid)
    permutation = np.random.default_rng(0).permutation(len(grid))
    expected = swept(ordered)
    for shuffled in (grid[::-1], grid[permutation]):
        ev = build_evaluator(system, grid=shuffled)
        taken = recording_exponentials(ev)
        matrices = swept(ev)
        assert [t for t, _ in matrices] == [t for t, _ in expected]
        for (_, S), (_, other) in zip(matrices, expected):
            assert np.array_equal(S, other)
        assert taken == [float(t) for t in grid[:2]]


@st.composite
def pairing_grids(draw):
    """Times with a near double each (moved by up to 10 ulps, across the
    4 eps of the pairing), zeros, subnormals, powers of two and repeats,
    shuffled."""
    times = draw(st.lists(st.one_of(
        st.floats(0.0, 1e300),
        st.integers(-1074, 996).map(lambda e: math.ldexp(1.0, e))),
        min_size=1, max_size=12))
    for t in list(times):
        ulps = draw(st.integers(-10, 10))
        times.append(float(2 * t + ulps * np.spacing(2 * t)))
    times += draw(st.lists(st.sampled_from(times), max_size=6))
    return np.array(draw(st.permutations(times)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairing_grids())
def test_halves_match_the_pairwise_table(grid):
    assert np.array_equal(semigroup._halves(grid), oracles.halves(grid))


def test_halves_take_linear_memory():
    """4 000 grid times in under 1 MiB; the pairwise table took 256 MB."""
    grid = geometric_times(ratio=0.9999, count=4000)
    tracemalloc.start()
    try:
        semigroup._halves(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_negative_grid_time_is_refused(interval4_robin_system):
    with pytest.raises(ValueError, match="nonnegative"):
        build_evaluator(interval4_robin_system, grid=[-0.1, 0.5])


def test_reuse_requires_an_equal_grid(interval4_robin_system):
    grid = geometric_times()
    ev = build_evaluator(interval4_robin_system, grid=grid)
    assert reuse(ev, build_evaluator(interval4_robin_system,
                                     grid=grid.copy())) is ev
    for other in ((), grid[1:], geometric_times(ratio=0.6)):
        candidate = build_evaluator(interval4_robin_system, grid=other)
        assert reuse(ev, candidate) is candidate


# -- times past the grid, dense 2-norms, the exponential's scaling --------

def kernel_cube(divisions=3):
    """The shipped cosine-kernel operator on a cube: a non-self-adjoint
    form that meets the eventual positivity hypotheses."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (divisions,) * 3)
    return assemble_system(cube, CoefficientField.isotropic(cube, 2.0),
                           build_boundary_operator(cube, {
                               "kind": "kernel", "profile": "cosine",
                               "scale": 0.005}))


# The m-th power raises the rounding of S(t_max), a few 1e-14 relative,
# to about m times that: 1.9e-12 at u = 50 = 71 * 0.7 + 0.3 on this cube,
# 3.3e-12 on the 4-division one.  Powering a fresh ``expm`` of t_max
# instead of the chain's matrix differs from the single ``expm`` of u by
# up to 1.7e-12 too, so the bound is the doubling chain's 1e-11.
ROUTE_TOL = 1e-11


@pytest.mark.parametrize("t_max, remainders", [
    (1.0, 0),
    (0.7, 5),
    # 2, 10, 20 and 50 leave remainders within 4 eps u of 0.4 itself,
    # which count as one more power; only 5 = 12 * 0.4 + 0.2 takes one
    (0.4, 1),
    (None, 0),
], ids=["t_max-1", "t_max-0.7", "t_max-0.4", "no-grid"])
def test_times_past_the_grid_agree_with_one_exponential(t_max, remainders,
                                                        monkeypatch):
    """Eventual positivity takes each time u past the grid's last time
    from S(t_max): S(t_max)^m after one ``expm`` of a nonzero remainder
    u - m t_max.  Each such S(u) @ block agrees with one
    ``dense_exponential`` of u at ROUTE_TOL relative to its largest entry,
    and so do the reported ratios.  A grid-less evaluator takes one
    ``expm`` per time, with its bits."""
    from robinheat.cli import EXTRA_POSITIVITY_TIMES

    system = kernel_cube()
    grid = () if t_max is None else geometric_times(t_max)
    ev = build_evaluator(system, grid=grid)
    times = np.union1d(grid, EXTRA_POSITIVITY_TIMES)
    taken = recording_exponentials(ev)
    beyond = []
    apply_beyond = ev.apply_beyond

    def recorded(t, S, past, block):
        images = apply_beyond(t, S, past, block)
        beyond.append((t, past, block, images))
        return images

    monkeypatch.setattr(ev, "apply_beyond", recorded)
    report = verify.check_eventual_positivity(ev, times, 20, 5)
    assert report.hypothesis_ok
    generator = ev.generator
    if t_max is None:
        assert beyond == []
        assert taken == [float(t) for t in times]
        return
    (t, past, block, images), = beyond
    assert t == t_max and past == list(EXTRA_POSITIVITY_TIMES)
    integrals = system.mass @ block
    for u, image in zip(past, images):
        exact = dense_exponential(generator, u) @ block
        assert np.abs(image - exact).max() <= ROUTE_TOL * np.abs(exact).max()
        k = list(times).index(u)
        ratio = math.exp(system.alpha * u) * (exact.min(axis=0)
                                              / integrals).min()
        slack = (ROUTE_TOL * math.exp(system.alpha * u) * np.abs(exact).max()
                 / integrals.min())
        assert abs(report.ratios[k] - ratio) <= slack
    # the chain's exponentials are at grid times; past the grid only the
    # remainders take one
    rest = [s for s in taken if s not in set(map(float, grid))]
    assert len(rest) == remainders
    assert all(0.0 < r < t_max for r in rest)


def test_a_non_finite_power_is_refused():
    S = np.full((2, 2), 1e200)
    ev = build_evaluator(stub_system(np.eye(2), np.ones(2)))
    with pytest.raises(FloatingPointError, match="t = 2"):
        ev.apply_beyond(1.0, S, [4.0], np.ones((2, 1)))


def norm_cases():
    """Random matrices, a weighted chain matrix and a semigroup-law
    residual of a non-self-adjoint form, whose entries sit near 1e-14."""
    rng = np.random.default_rng(3)
    ev = build_evaluator(kernel_cube(), grid=geometric_times(count=6))
    root = np.sqrt(ev.mass)
    _, S = swept(ev)[-1]
    residual = ev.exponential(1.0) - ev.exponential(0.25) @ ev.exponential(
        0.75)
    return {
        "random-7": rng.standard_normal((7, 7)),
        "random-60x40": rng.standard_normal((60, 40)),
        "uniform-50": rng.uniform(size=(50, 50)),
        "chain": root[:, None] * S / root[None, :],
        "law-residual": root[:, None] * residual / root[None, :],
    }


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150])
def test_dense_2_norm_matches_the_svd(scale):
    cases = norm_cases()
    assert 1e-16 < np.abs(cases["law-residual"]).max() < 1e-12
    for name, X in cases.items():
        X = X * scale
        assert_allclose(semigroup._norm_2(X), np.linalg.norm(X, 2),
                        rtol=1e-12, atol=0, err_msg=name)
    assert semigroup._norm_2(np.zeros((3, 3))) == 0.0


def old_dense_exponential(generator, t):
    """``dense_exponential`` with the scaled copy handed to ``expm``."""
    if t == 0.0:
        return np.eye(len(generator))
    scaled = -t * generator
    norm = float(np.linalg.norm(scaled, np.inf))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    S = scipy.linalg.expm(scaled / 2 ** squarings)
    for _ in range(squarings):
        S = S @ S
    return S


@pytest.mark.parametrize("kind", ["interval", "cube", "cosine-kernel"])
def test_scaling_in_place_keeps_the_bits(kind, interval4_robin_system,
                                         cube2_neumann_system):
    system = {"interval": interval4_robin_system,
              "cube": cube2_neumann_system,
              "cosine-kernel": kernel_cube()}[kind]
    generator = build_evaluator(system).generator
    assert scipy.sparse.issparse(generator) and generator.format == "csr"
    dense = generator.toarray()
    norm = np.linalg.norm(dense, np.inf)
    # below and above the norm 0.5 from which expm's input is scaled
    times = (0.0, 0.1 / norm, 0.49 / norm, 0.3, 1.0, 7.3)
    for t in times:
        assert np.array_equal(dense_exponential(generator, t),
                              old_dense_exponential(dense, t))


def test_an_evaluator_holds_no_dense_array_between_kernels():
    """After a sweep, an ``exponential``, the resolvent's ``inv`` and the
    energy check on a non-self-adjoint form, no attribute of the evaluator
    (nor an item of one) is an n x n array: each kernel densified its
    operand from the sparse generator and dropped it."""
    ev = build_evaluator(kernel_cube(), grid=geometric_times(count=6))
    n = len(ev.mass)
    assert ev.symmetry_residual > semigroup.SYMMETRY_TOL
    ev.record("norm_2_to_2", "min_entry")
    ev.sweep()
    ev.exponential(0.3)
    ev.resolvent_contraction(1.0)
    verify.check_energy_dissipation(ev, [0.5], samples=2)
    held = []
    for value in vars(ev).values():
        held.append(value)
        if isinstance(value, dict):
            held += value.values()
        elif isinstance(value, (list, tuple)):
            held += value
    assert not [value for value in held
                if isinstance(value, np.ndarray) and value.size == n * n]
