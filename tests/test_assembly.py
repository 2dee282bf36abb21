"""Assembled matrices against hand-integrated oracles.

The interval oracles below are the full matrices worked out by hand for
4 cells of width 1/4 with A = 2, endpoint absorption beta = -0.1 and shift
alpha = 2.  The triangle oracle integrates one nonsymmetric coefficient
matrix against the closed-form hat gradients of the reference triangle.
Everything is compared entrywise at 1e-12 or tighter.

The sparse forms are held bit for bit against the dense n x n assembly
of ``oracles.dense_forms``, and the assembly, the form checks and the
evaluator of a 1 331-unknown cube must stay below the bytes of half a
dense n x n array.
"""

import copy
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose

from robinheat import (
    AssembledSystem,
    BoundaryOperatorSpec,
    CoefficientField,
    Mesh,
    assemble_lumped_mass,
    assemble_system,
    build_box_mesh,
    build_boundary_operator,
    build_evaluator,
    build_lshape_mesh,
    check_accretivity,
    check_continuity,
    compute_trace_norm,
)
from robinheat import assembly
from oracles import (
    DenseOperator,
    assemble_consistent_mass,
    dense_forms,
    dense_symmetry_residual,
    l1_norm,
    one_draw_continuity_ratio,
    trace_matrix,
)

ENTRY_TOL = 1e-12


def stiffness(mesh, field):
    """K as a run assembles it: ``AssembledSystem.K``."""
    return assemble_system(mesh, field, BoundaryOperatorSpec.zero(mesh)).K


def tridiag(lower, diag, upper, n):
    return (np.diag(np.full(n - 1, lower), -1)
            + np.diag(np.full(n, diag))
            + np.diag(np.full(n - 1, upper), 1))


# -- interval hand oracles ----------------------------------------------

def test_interval_stiffness_oracle(interval4):
    # per cell: (A/h) [[1, -1], [-1, 1]] with A = 2, h = 1/4
    field = CoefficientField.isotropic(interval4, 2.0)
    K = stiffness(interval4, field)
    expected = 8.0 * tridiag(-1.0, 2.0, -1.0, 5)
    expected[0, 0] = 8.0
    expected[4, 4] = 8.0
    assert np.abs(K - expected).max() <= ENTRY_TOL


def test_interval_mass_oracles(interval4):
    mass = assemble_lumped_mass(interval4)
    assert np.abs(mass - np.array([0.125, 0.25, 0.25, 0.25, 0.125])).max() \
        <= ENTRY_TOL
    M = assemble_consistent_mass(interval4)
    # per cell: (h/6) [[2, 1], [1, 2]]
    expected = tridiag(1.0 / 24, 1.0 / 6, 1.0 / 24, 5)
    expected[0, 0] = 1.0 / 12
    expected[4, 4] = 1.0 / 12
    assert np.abs(M - expected).max() <= ENTRY_TOL


def test_interval_boundary_pieces(interval4, interval4_robin_system):
    assert list(interval4.boundary_vertices) == [0, 4]
    assert np.abs(interval4.boundary_vertex_weights() - 1.0).max() \
        <= ENTRY_TOL
    G = trace_matrix(interval4)
    expected = np.zeros((2, 5))
    expected[0, 0] = 1.0
    expected[1, 4] = 1.0
    assert np.array_equal(G, expected)
    # beta = -0.1 at both ends
    Bw = interval4_robin_system.Bw
    assert np.abs(Bw - np.diag([-0.1, -0.1])).max() <= ENTRY_TOL


def test_interval_full_system_oracle(interval4_robin_system):
    system = interval4_robin_system
    K = 8.0 * tridiag(-1.0, 2.0, -1.0, 5)
    K[0, 0] = 8.0
    K[4, 4] = 8.0
    mass = np.array([0.125, 0.25, 0.25, 0.25, 0.125])

    form_a = K.copy()
    form_a[0, 0] -= 0.1
    form_a[4, 4] -= 0.1
    form_shifted = form_a + 2.0 * np.diag(mass)
    assert np.abs(system.FormAtilde - form_shifted).max() <= ENTRY_TOL
    # spot values: 8.15 at the absorbing ends, 16.5 inside
    assert_allclose(system.FormAtilde[0, 0], 8.15, rtol=0, atol=ENTRY_TOL)
    assert_allclose(system.FormAtilde[2, 2], 16.5, rtol=0, atol=ENTRY_TOL)

    K_id = 4.0 * tridiag(-1.0, 2.0, -1.0, 5)
    K_id[0, 0] = 4.0
    K_id[4, 4] = 4.0
    assert np.abs(system.H1 - (K_id + np.diag(mass))).max() <= ENTRY_TOL


# -- single reference triangle ------------------------------------------

def test_reference_triangle_nonsymmetric_stiffness():
    """One-cell quadrature check: gradients (-1,-1), (1,0), (0,1) and
    area 1/2 against A = [[2, 1], [0, 3]], multiplied out by hand."""
    mesh = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))
    field = CoefficientField.matrix(mesh, np.array([[2.0, 1.0], [0.0, 3.0]]))
    K = stiffness(mesh, field)
    expected = np.array([[3.0, -1.0, -2.0],
                         [-1.5, 1.0, 0.5],
                         [-1.5, 0.0, 1.5]])
    assert np.abs(K - expected).max() <= ENTRY_TOL
    # rows and columns sum to zero: constants are in both kernels
    assert np.abs(K.sum(axis=0)).max() <= ENTRY_TOL
    assert np.abs(K.sum(axis=1)).max() <= ENTRY_TOL


def test_stiffness_transpose_identity(cube2):
    entries = np.array([[2.0, 0.5, 0.0],
                        [-0.5, 2.0, 0.3],
                        [0.0, -0.3, 2.0]])
    field = CoefficientField.matrix(cube2, entries)
    K = stiffness(cube2, field)
    transposed = CoefficientField(
        cube2, np.transpose(field.per_cell, (0, 2, 1)))
    Kt = stiffness(cube2, transposed)
    assert np.abs(K.T - Kt).max() <= 1e-14


# -- mass and quadrature relations --------------------------------------

def test_lumping_dominates_consistent_mass(cube2):
    lumped = np.diag(assemble_lumped_mass(cube2))
    consistent = assemble_consistent_mass(cube2)
    # row-sum lumping preserves row sums, so the difference is a weakly
    # diagonally dominant symmetric matrix, hence positive semidefinite
    assert np.abs(lumped.sum(axis=1) - consistent.sum(axis=1)).max() <= 1e-14
    eigs = np.linalg.eigvalsh(lumped - consistent)
    assert eigs.min() >= -1e-14


def test_mass_sums_to_volume(cube2, interval4):
    for mesh in (cube2, interval4):
        assert_allclose(assemble_lumped_mass(mesh).sum(), mesh.volume,
                        rtol=1e-13, atol=0)
        assert_allclose(assemble_consistent_mass(mesh).sum(), mesh.volume,
                        rtol=1e-13, atol=0)


# -- trace norm ----------------------------------------------------------

def dense_trace_norm(system):
    G = trace_matrix(system.mesh)
    S = G.T @ (system.boundary_weights[:, None] * G)
    eigs = scipy.linalg.eigh(S, system.H1.toarray(), eigvals_only=True)
    return float(eigs[-1])


def test_trace_norm_matches_dense_solver(interval4_robin_system,
                                         cube2_neumann_system):
    for system in (interval4_robin_system, cube2_neumann_system):
        expected = dense_trace_norm(system)
        assert_allclose(system.trace_norm_sq, expected, rtol=1e-10, atol=0)


def test_trace_norm_interval_frozen_value(interval4_robin_system):
    # value computed once from the dense generalized eigensolver and frozen
    assert_allclose(interval4_robin_system.trace_norm_sq, 2.1519813519813518,
                    rtol=1e-9, atol=0)


def test_trace_norm_converges_to_continuum_limit():
    """On [0, 1] the largest trace-to-H1 ratio is coth(1/2), attained by
    cosh(x - 1/2); the lumped P1 value converges at second order."""
    mesh = build_box_mesh((1.0,), (1024,))
    field = CoefficientField.isotropic(mesh, 1.0)
    system = assemble_system(mesh, field, BoundaryOperatorSpec.zero(mesh))
    continuum = 1.0 / math.tanh(0.5)
    assert abs(system.trace_norm_sq - continuum) <= 1e-5


def test_trace_norm_rejects_bad_iteration_budget(interval4_robin_system):
    system = interval4_robin_system
    G = trace_matrix(system.mesh)
    S = G.T @ (system.boundary_weights[:, None] * G)
    with pytest.raises(RuntimeError, match="did not converge"):
        compute_trace_norm(S, system.H1, tol=0.0, max_iterations=3)


# -- form inequalities ---------------------------------------------------

def test_accretivity_report(interval4_robin_system):
    report = check_accretivity(interval4_robin_system)
    assert report.status == "passed"
    assert report.lambda_min >= -1e-10 * report.scale
    payload = report.as_dict()
    assert set(payload) >= {"status", "lambda_min", "scale"}


def test_accretivity_gates_on_hypothesis(interval4):
    # beta = -2 needs alpha >= 1 + 2 * trace_norm_sq ~ 5.3; alpha = 1 is
    # far outside, so the check must refuse rather than fail
    field = CoefficientField.isotropic(interval4, 1.0)
    spec = BoundaryOperatorSpec.multiplication(interval4, -2.0)
    system = assemble_system(interval4, field, spec)
    assert not system.admissibility.accretive
    report = check_accretivity(system)
    assert report.status == "hypothesis unmet"


def test_shifted_form_dominates_h1(cube2_neumann_system):
    diff = (cube2_neumann_system.FormAtilde.toarray()
            - cube2_neumann_system.H1.toarray())
    eigs = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    scale = np.linalg.norm(cube2_neumann_system.FormAtilde.toarray(), 2)
    assert eigs.min() >= -1e-10 * scale


def test_continuity_report(interval4_robin_system):
    report = check_continuity(interval4_robin_system, samples=100, seed=11)
    assert report.passed
    assert report.max_ratio <= 1.0 + 1e-10
    assert report.samples == 100


def test_continuity_report_carries_its_status(interval4_robin_system):
    """``status`` is the report's last field, after ``passed``, and says
    the same: a form scaled far past the bound fails."""
    report = check_continuity(interval4_robin_system, samples=20, seed=11)
    assert list(report.as_dict())[-2:] == ["passed", "status"]
    assert (report.passed, report.status) == (True, "passed")
    stretched = copy.copy(interval4_robin_system)
    stretched.FormAtilde = 1e6 * stretched.FormAtilde
    report = check_continuity(stretched, samples=20, seed=11)
    assert (report.passed, report.status) == (False, "failed")


@pytest.mark.parametrize("shape, operator", [("lshape", "dense"),
                                             ("cube", "kernel")])
def test_continuity_blocks_keep_the_bits_of_one_draw(shape, operator):
    """The samples drawn and evaluated in blocks give the largest ratio of
    one draw of all of them, for sample counts on and off the block
    size; no sample, or a negative count, is refused."""
    mesh = oracle_mesh(shape)
    spec, _ = oracle_spec(mesh, operator)
    system = assemble_system(mesh, CoefficientField.isotropic(mesh, 2.0),
                             spec)
    for samples in (1, 15, 16, 17, 203):
        report = check_continuity(system, samples=samples, seed=7)
        assert report.max_ratio == one_draw_continuity_ratio(system,
                                                             samples, 7)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_continuity(system, samples=samples)


def test_form_with_boundary_matches_direct_assembly(interval4_robin_system):
    system = interval4_robin_system
    rebuilt = system.with_boundary(system.spec).FormAtilde
    assert np.abs(rebuilt - system.FormAtilde).max() <= 1e-14


def test_cached_norm_and_comparison_systems_follow_the_operator(cube2):
    """A system keeps its form norm and its |bar|_inf +- bar systems once
    made; a system derived with another boundary operator starts with
    neither, so it never reads its parent's."""
    rng = np.random.default_rng(4)
    nb = len(cube2.boundary_vertices)
    system = assemble_system(
        cube2, CoefficientField.isotropic(cube2, 2.0),
        BoundaryOperatorSpec.kernel(cube2, 0.05 * rng.standard_normal(
            (nb, nb))))
    assert system.form_scale == assembly.form_norm(system.FormAtilde)
    minus = system.shifted_bar(-1)
    assert system.shifted_bar(-1) is minus
    assert system.shifted_bar(+1) is not minus
    assert minus.spec.matrix().toarray().tolist() == (
        system.spec.shifted_bar(-1).matrix().toarray().tolist())
    derived = system.with_boundary(BoundaryOperatorSpec.multiplication(
        cube2, -0.1))
    assert derived.form_scale == assembly.form_norm(derived.FormAtilde)
    assert derived.form_scale != system.form_scale
    assert derived.shifted_bar(-1) is not minus
    assert minus.form_scale == assembly.form_norm(minus.FormAtilde)


@pytest.mark.parametrize("value, operator", [
    (2.5, {"kind": "multiplication", "beta": -0.05}),
    (2.0, {"kind": "kernel", "profile": "cosine", "scale": 0.005}),
], ids=["cube_robin", "cosine-kernel"])
def test_summed_forms_store_no_zero(value, operator):
    """H1 and FormAtilde are sparse sums, which store no exact zero,
    although 608 entries of the stiffness on the P1 pattern of the cube at
    4 divisions cancel."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4))
    system = assemble_system(cube, CoefficientField.isotropic(cube, value),
                             build_boundary_operator(cube, operator))
    for name in ("H1", "FormAtilde"):
        assert getattr(system, name).data.all(), name


def test_with_boundary_makes_no_sparse_matrix_dense(cube2, monkeypatch):
    """A kernel operator, which couples distinct boundary vertices,
    reaches FormAtilde through sparse sums alone."""
    system = assemble_system(cube2, CoefficientField.isotropic(cube2, 2.0),
                             build_boundary_operator(
                                 cube2, {"kind": "kernel", "profile": "cosine",
                                         "scale": 0.005}))
    spec = system.spec.dominating()     # its norms come from a dense copy

    def refuse(self, *args, **kwargs):
        raise AssertionError("with_boundary made a sparse matrix dense")

    for fmt in ("bsr", "coo", "csc", "csr", "dia", "dok", "lil"):
        for kind in ("matrix", "array"):
            monkeypatch.setattr(getattr(scipy.sparse, f"{fmt}_{kind}"),
                                "toarray", refuse)
    derived = system.with_boundary(spec)
    assert derived.spec is spec
    assert derived.FormAtilde.nnz > system.K.count_nonzero()


@pytest.mark.parametrize("sheared", [False, True])
def test_with_boundary_matches_assemble_system(cube2, sheared):
    """A derived system shares the mesh-level data of its parent and has
    the bits of a system assembled for its boundary operator."""
    if sheared:
        field = CoefficientField.matrix(cube2, [[2.0, 0.5, 0.0],
                                                [-0.5, 2.0, 0.3],
                                                [0.0, -0.3, 2.0]])
    else:
        field = CoefficientField.isotropic(cube2, 2.0)
    nb = len(cube2.boundary_vertices)
    coupling = np.random.default_rng(3).uniform(-0.01, 0.01, (nb, nb))
    system = assemble_system(cube2, field,
                             BoundaryOperatorSpec.kernel(cube2, coupling))
    for spec in (system.spec.dominating(), system.spec.shifted_bar(-1)):
        derived = system.with_boundary(spec)
        direct = assemble_system(cube2, field, spec)
        for name in ("K", "K_id", "mass", "boundary_weights", "H1",
                     "trace_norm_sq"):
            assert getattr(derived, name) is getattr(system, name), name
        assert np.array_equal(derived.Bw.toarray(), direct.Bw.toarray())
        assert np.array_equal(derived.FormAtilde.toarray(),
                              direct.FormAtilde.toarray())
        assert derived.spec is spec
        assert derived.admissibility == direct.admissibility
        assert not np.array_equal(derived.FormAtilde.toarray(),
                                  system.FormAtilde.toarray())


def test_norm_helpers(interval4_robin_system):
    system = interval4_robin_system
    u = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    assert_allclose(system.l2_norm(u),
                    math.sqrt(float(system.mass @ (u * u))), rtol=0, atol=0)
    # masses 1/8, 1/4, 1/4, 1/4, 1/8
    assert l1_norm(system, u) == 3.0
    assert system.h1_norm(u) > system.l2_norm(u)


# -- the sparse forms against the dense assembly --------------------------

def oracle_mesh(shape):
    if shape == "interval":
        return build_box_mesh((1.3,), (9,))
    if shape == "lshape":
        return build_lshape_mesh(4, dim=2)
    return build_box_mesh((1.0, 0.7, 1.0), (3, 4, 3))


def oracle_spec(mesh, operator):
    """The boundary operator of the case and its dense application
    matrix."""
    nb = len(mesh.boundary_vertices)
    rng = np.random.default_rng(5)
    if operator == "zero":
        return BoundaryOperatorSpec.zero(mesh), np.zeros((nb, nb))
    if operator == "multiplication":
        beta = rng.uniform(-0.1, 0.1, nb)
        return BoundaryOperatorSpec.multiplication(mesh, beta), np.diag(beta)
    if operator == "dense":
        matrix = rng.uniform(-0.01, 0.01, (nb, nb))
        return BoundaryOperatorSpec.dense(mesh, matrix), matrix
    x = mesh.vertices[mesh.boundary_vertices]
    c0, c1 = np.cos(np.pi * x[:, 0]), np.cos(np.pi * x[:, 1])
    samples = 0.05 * (c0[:, None] * c1[None, :] - c1[:, None] * c0[None, :])
    return (build_boundary_operator(
                mesh, {"kind": "kernel", "profile": "cosine", "scale": 0.05}),
            samples * mesh.boundary_vertex_weights()[None, :])


def same_bits_but_zero_signs(actual, expected):
    """Equal bits once -0.0 is read as 0.0 (adding 0.0 does only that);
    a sparse matrix stores no zero, so it cannot keep a sign there."""
    return (actual + 0.0).tobytes() == (expected + 0.0).tobytes()


@pytest.mark.parametrize("shape, operator", [
    (shape, operator)
    for shape in ("interval", "lshape", "cube")
    for operator in ("zero", "multiplication", "kernel", "dense")
    # the cosine kernel needs two dimensions
    if (shape, operator) != ("interval", "kernel")])
def test_sparse_forms_have_the_bits_of_the_dense_assembly(shape, operator):
    """K, K_id, H1, FormAtilde, Bw, the operator norms, and the evaluator's
    dense generator and symmetry residual, also of the systems derived
    with the shifted and dominating operators, against the dense sums."""
    mesh = oracle_mesh(shape)
    if mesh.dim == 1:
        field = CoefficientField.isotropic(mesh, 2.0)
    else:
        entries = 2.0 * np.eye(mesh.dim)
        entries[0, 1], entries[1, 0] = 0.4, -0.3
        field = CoefficientField.matrix(mesh, entries)
    spec, T = oracle_spec(mesh, operator)
    system = assemble_system(mesh, field, spec)
    dense = DenseOperator(system.boundary_weights, T)
    for derived, reference in (
            (system, dense),
            (system.with_boundary(spec.shifted_bar(+1)),
             dense.shifted_bar(+1)),
            (system.with_boundary(spec.shifted_bar(-1)),
             dense.shifted_bar(-1)),
            (system.with_boundary(spec.dominating()), dense.dominating())):
        expected = dense_forms(derived, reference)
        for name in ("K", "K_id", "H1", "FormAtilde"):
            matrix = getattr(derived, name)
            assert scipy.sparse.issparse(matrix), name
            assert matrix.toarray().tobytes() == expected[name].tobytes(), \
                name
        assert scipy.sparse.issparse(derived.Bw)
        assert same_bits_but_zero_signs(derived.Bw.toarray(),
                                        reference.coupling())
        assert same_bits_but_zero_signs(derived.spec.matrix().toarray(),
                                        reference.T)
        for name in ("norm2", "norm_inf", "norm2_bar", "norm_inf_bar"):
            assert getattr(derived.spec, name) == getattr(reference, name), \
                name
        evaluator = build_evaluator(derived)
        generator = expected["FormAtilde"] / derived.mass[:, None]
        assert evaluator.generator.toarray().tobytes() == generator.tobytes()
        assert evaluator.symmetry_residual == dense_symmetry_residual(
            generator, derived.mass)


def test_gate_trace_norm_and_certified_lambda_min_match_the_dense_forms():
    """On the cube_robin operator at 10 divisions (1 331 unknowns), the
    trace norm and the certified lambda_min from the sparse forms have the
    bits of the ones computed from the dense arrays."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (10, 10, 10))
    system = assemble_system(cube, CoefficientField.isotropic(cube, 2.5),
                             BoundaryOperatorSpec.multiplication(cube, -0.05))
    nb = len(cube.boundary_vertices)
    forms = dense_forms(system, DenseOperator(system.boundary_weights,
                                              np.diag(np.full(nb, -0.05))))
    weights = np.zeros(system.n)
    weights[system.mesh.boundary_vertices] = system.boundary_weights
    assert system.trace_norm_sq == compute_trace_norm(np.diag(weights),
                                                      forms["H1"])
    dense = SimpleNamespace(
        n=system.n,
        FormAtilde=scipy.sparse.csr_matrix(forms["FormAtilde"]),
        H1=scipy.sparse.csr_matrix(forms["H1"]))
    sigma = -1e-10 * check_accretivity(system).scale
    lam = assembly._certified_lambda_min(system, sigma)
    assert lam is not None
    assert lam == assembly._certified_lambda_min(dense, sigma)


def test_form_checks_and_evaluator_stay_below_half_a_dense_array():
    """Assembly, the continuity and accretivity checks, and building the
    evaluator of the gate system and reading its symmetry residual
    allocate less than half an n x n float64 array at their peak: no
    dense generator or coupling is made before a dense kernel runs."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), (10, 10, 10))
    field = CoefficientField.isotropic(mesh, 2.5)
    spec = BoundaryOperatorSpec.multiplication(mesh, -0.05)
    tracemalloc.start()
    try:
        system = assemble_system(mesh, field, spec)
        check_continuity(system)
        check_accretivity(system)
        build_evaluator(system).symmetry_residual
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < system.n ** 2 * 8 / 2
