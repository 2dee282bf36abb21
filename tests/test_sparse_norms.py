"""The sparse trace norm and the Lanczos form norm against dense oracles.

``compute_trace_norm`` runs its power iteration on a sparse LU of H1 and
a sparse trace form; it is checked against the dense generalized
eigensolver ``scipy.linalg.eigh(S, H1)`` at rtol 1e-10.  ``form_norm``
takes the norm of a form detected as symmetric from one Lanczos Ritz
value from LANCZOS_MIN_SIZE unknowns on; the Lanczos path, forced on
small meshes by lowering that size, is checked against the full dense
spectrum at rtol 1e-10 and must never exceed it by more than 1e-12
relative, because a Ritz value lies inside the spectrum and a scale that
only underestimates can only tighten the tolerance of a check.  Smaller
symmetric forms take the dense spectrum itself; non-symmetric forms keep
the SVD.

From LANCZOS_MIN_SIZE unknowns on, ``check_accretivity`` decides
``passed`` from the pivot signs of a sparse factorization of
sym(FormAtilde - H1) - sigma I and takes lambda_min from shift-invert
Lanczos on it.  With that path forced, the status must equal the one the
dense spectrum gives and lambda_min must match it at rtol 1e-10 with atol
1e-12 * scale; every case the factorization cannot certify must reach
the dense spectrum.  The sparse matrices both paths factor are gathered
at the P1 sparsity pattern and must have the arrays of csc_matrix(dense).
"""

import types

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    assemble_system,
    build_box_mesh,
    build_boundary_operator,
    build_evaluator,
    build_lshape_mesh,
    check_accretivity,
    check_domination,
    check_ouhabaz_contractivity_criterion,
    compute_trace_norm,
    geometric_times,
)
from robinheat import assembly
from robinheat.assembly import form_norm
from robinheat.semigroup import SYMMETRY_TOL
from oracles import trace_matrix


def dense_trace_form(system):
    G = trace_matrix(system.mesh)
    return G.T @ (system.boundary_weights[:, None] * G)


def dense_trace_norm(system):
    return float(scipy.linalg.eigh(dense_trace_form(system), system.H1,
                                   eigvals_only=True)[-1])


def is_symmetric(F):
    return np.abs(F - F.T).max() <= SYMMETRY_TOL * np.abs(F).max()


def dense_form_norm(F):
    return float(np.abs(np.linalg.eigvalsh(0.5 * (F + F.T))).max())


def dense_lambda_min(system):
    diff = system.FormAtilde - system.H1
    return float(np.linalg.eigvalsh(0.5 * (diff + diff.T)).min())


def assert_accretivity_matches_dense(report, system):
    """Status and lambda_min of a report against the dense spectrum."""
    if not system.admissibility.accretive:
        assert report.status == "hypothesis unmet"
        return
    lam = dense_lambda_min(system)
    sigma = -report.tolerance * report.scale
    assert report.status == ("passed" if lam >= sigma else "failed")
    assert_allclose(report.lambda_min, lam, rtol=1e-10,
                    atol=1e-12 * report.scale)


def lanczos_everywhere():
    return mock.patch.object(assembly, "LANCZOS_MIN_SIZE", 2)


def assert_lanczos_scale(F):
    """form_norm(F), on its own path and with Lanczos forced, against the
    dense spectrum (symmetric F) or the SVD."""
    value = form_norm(F)
    with lanczos_everywhere():
        lanczos = form_norm(F)
        assert form_norm(F) == lanczos          # deterministic to the bit
    if not is_symmetric(F):
        assert value == lanczos == float(np.linalg.norm(F, 2))
        return
    expected = dense_form_norm(F)
    if len(F) < assembly.LANCZOS_MIN_SIZE:
        assert value == expected
    for scale in (value, lanczos):
        assert_allclose(scale, expected, rtol=1e-10, atol=0)
        assert scale <= expected * (1.0 + 1e-12)


@st.composite
def systems(draw):
    if draw(st.booleans()):
        mesh = build_lshape_mesh(draw(st.sampled_from((2, 4))),
                                 dim=draw(st.integers(2, 3)))
    else:
        dim = draw(st.integers(1, 3))
        top = {1: 9, 2: 5, 3: 3}[dim]
        mesh = build_box_mesh(
            draw(st.lists(st.sampled_from((0.3, 0.7, 1.0, 1.3)),
                          min_size=dim, max_size=dim)),
            draw(st.lists(st.integers(1, top), min_size=dim, max_size=dim)))
    d = mesh.dim
    kind = draw(st.sampled_from(("isotropic", "symmetric", "sheared")))
    if kind == "isotropic" or d == 1:
        field = CoefficientField.isotropic(mesh, draw(st.floats(0.5, 4.0)))
    else:
        entries = np.diag(draw(st.lists(st.floats(1.0, 4.0), min_size=d,
                                        max_size=d)))
        entries[0, 1] = draw(st.floats(-0.4, 0.4))
        entries[1, 0] = (entries[0, 1] if kind == "symmetric"
                         else draw(st.floats(-0.4, 0.4)))
        field = CoefficientField.matrix(mesh, entries)
    operators = ["zero", "multiplication", "constant", "gaussian"]
    if d >= 2:
        operators.append("cosine")
    op = draw(st.sampled_from(operators))
    if op == "zero":
        spec = BoundaryOperatorSpec.zero(mesh)
    elif op == "multiplication":
        nb = len(mesh.boundary_vertices)
        spec = BoundaryOperatorSpec.multiplication(
            mesh, draw(st.lists(st.floats(-0.5, 0.5), min_size=nb,
                                max_size=nb)))
    else:
        config = {"kind": "kernel", "profile": op,
                  "scale": draw(st.sampled_from((0.005, 0.05, -0.2)))}
        if op == "gaussian":
            config["width"] = draw(st.sampled_from((0.1, 0.3, 1.0)))
        spec = build_boundary_operator(mesh, config)
    return assemble_system(mesh, field, spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems())
def test_sparse_trace_norm_and_lanczos_scale_match_dense_oracles(system):
    assert_allclose(system.trace_norm_sq, dense_trace_norm(system),
                    rtol=1e-10, atol=0)

    forms = {"form": system.FormAtilde,
             "plus": system.with_boundary(
                 system.spec.shifted_bar(+1)).FormAtilde,
             "minus": system.with_boundary(
                 system.spec.shifted_bar(-1)).FormAtilde}
    for F in forms.values():
        assert_lanczos_scale(F)

    # the accretivity and contractivity scales go through form_norm, and
    # the certified lambda_min agrees with the dense spectrum
    with lanczos_everywhere():
        report = check_accretivity(system)
        assert report.scale == form_norm(forms["form"])
        assert_accretivity_matches_dense(report, system)
        contractivity = check_ouhabaz_contractivity_criterion(system,
                                                              samples=3)
        assert contractivity.scale == max(form_norm(forms["plus"]),
                                          form_norm(forms["minus"]))

    # gathered at its P1 pattern, a form has the arrays of csc_matrix(dense)
    for pattern, A in ((system._pattern, system.H1),
                       (assembly._form_pattern(system), system.FormAtilde)):
        _, rows, cols = pattern
        gathered = assembly._at_pattern(pattern, A[rows, cols])
        expected = scipy.sparse.csc_matrix(A)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(gathered, name),
                                  getattr(expected, name)), name

    # the inertia certificate holds exactly when the dense spectrum says
    # so, inside the hypothesis or not
    lam = dense_lambda_min(system)
    sigma = -1e-10 * report.scale
    certified = assembly._certified_lambda_min(system, sigma)
    assert (certified is not None) == (lam >= sigma)
    if certified is not None:
        assert_allclose(certified, lam, rtol=1e-10, atol=1e-12 * report.scale)


@pytest.mark.parametrize("mesh", [
    build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)),
    build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3)),
    build_box_mesh((1.0,), (1,)),
], ids=["cube-2", "cube-3", "interval-2-vertices"])
@pytest.mark.parametrize("beta", [0.0, -0.05])
def test_lanczos_scale_on_mirror_symmetric_meshes(mesh, beta):
    """On a mirror-symmetric mesh the top eigenvector of the form can be
    orthogonal to the all-ones vector; the seeded start vector is not."""
    field = CoefficientField.isotropic(mesh, 2.5)
    spec = BoundaryOperatorSpec.multiplication(mesh, beta)
    system = assemble_system(mesh, field, spec)
    assert_lanczos_scale(system.FormAtilde)
    assert_allclose(system.trace_norm_sq, dense_trace_norm(system),
                    rtol=1e-10, atol=0)


def test_lanczos_scale_of_a_negative_form(cube2_neumann_system):
    """The norm is the largest |eigenvalue|, not the largest eigenvalue."""
    F = cube2_neumann_system.FormAtilde
    assert_lanczos_scale(-F)
    assert form_norm(-F) == form_norm(F)


def padded(A):
    """A as a COO matrix with each nonzero split in two halves and an
    explicit zero in every row and column."""
    n = len(A)
    rows, cols = np.nonzero(A)
    halves = A[rows, cols] / 2
    flipped = np.arange(n)[::-1]
    return scipy.sparse.coo_matrix(
        (np.concatenate([halves, halves, np.zeros(n)]),
         (np.concatenate([rows, rows, np.arange(n)]),
          np.concatenate([cols, cols, flipped]))), shape=(n, n))


def test_trace_norm_takes_dense_and_sparse_inputs_alike(cube2_neumann_system):
    """Explicit zeros and split duplicates do not move a bit."""
    system = cube2_neumann_system
    S = dense_trace_form(system)
    expected = compute_trace_norm(S, system.H1)
    for form in ("coo", "csr", "csc"):
        S_sparse = padded(S).asformat(form)
        H1_sparse = padded(system.H1).asformat(form)
        nnz = S_sparse.nnz, H1_sparse.nnz
        assert compute_trace_norm(S_sparse, H1_sparse) == expected, form
        assert (S_sparse.nnz, H1_sparse.nnz) == nnz   # inputs left alone


# -- kernel counts ----------------------------------------------------------

def count_eigvalsh(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def cube_system(beta=-0.05, value=2.5, divisions=7):
    """A cube system; 7 divisions give 512 unknowns, past
    LANCZOS_MIN_SIZE."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (divisions,) * 3)
    return assemble_system(cube, CoefficientField.isotropic(cube, value),
                           BoundaryOperatorSpec.multiplication(cube, beta))


def test_assembly_takes_no_cholesky(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense Cholesky factorization")

    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
    assert "cho_factor" not in vars(assembly)
    system = cube_system()
    assert_allclose(system.trace_norm_sq, dense_trace_norm(system),
                    rtol=1e-10, atol=0)


def test_symmetric_accretivity_check_takes_no_dense_spectrum(monkeypatch):
    system = cube_system()
    assert system.n >= assembly.LANCZOS_MIN_SIZE
    calls = count_eigvalsh(monkeypatch)
    report = check_accretivity(system)
    assert report.status == "passed"
    assert calls == []
    assert_accretivity_matches_dense(report, system)


def test_small_symmetric_form_takes_the_dense_spectrum(monkeypatch):
    system = cube_system(divisions=3)
    assert system.n < assembly.LANCZOS_MIN_SIZE
    expected = dense_form_norm(system.FormAtilde)

    def refuse(*args, **kwargs):
        raise AssertionError("Lanczos below LANCZOS_MIN_SIZE")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    calls = count_eigvalsh(monkeypatch)
    assert check_accretivity(system).scale == expected
    assert calls == [(system.n, system.n)] * 2


def test_unmet_symmetric_accretivity_check_takes_no_dense_spectrum(
        monkeypatch):
    system = cube_system(beta=-20.0, value=1.0)
    assert not system.admissibility.accretive
    calls = count_eigvalsh(monkeypatch)
    assert check_accretivity(system).status == "hypothesis unmet"
    assert calls == []


def test_lanczos_failure_falls_back_to_the_dense_spectrum(monkeypatch):
    system = cube_system()
    F = system.FormAtilde
    lanczos = form_norm(F)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.array([]), np.array([]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    calls = count_eigvalsh(monkeypatch)
    value = form_norm(F)
    assert calls == [F.shape]
    assert value == dense_form_norm(F)
    assert_allclose(value, lanczos, rtol=1e-10, atol=0)
    assert check_accretivity(system).scale == value


def shifted_down(system, margin):
    """The system with FormAtilde shifted so that lambda_min of
    sym(FormAtilde - H1) is -margin * tol * ||FormAtilde||, tol = 1e-10."""
    shift = dense_lambda_min(system) + margin * 1e-10 * form_norm(
        system.FormAtilde)
    system.FormAtilde = system.FormAtilde - shift * np.eye(system.n)
    return system


@pytest.mark.parametrize("margin, status, dense_calls", [
    (0.5, "passed", 0), (2.0, "failed", 1)])
def test_accretivity_near_the_tolerance(monkeypatch, margin, status,
                                        dense_calls):
    """Inside the tolerance the factorization certifies the pass; past it
    a negative pivot sends the check to the dense spectrum, which fails
    it."""
    system = shifted_down(cube_system(), margin)
    calls = count_eigvalsh(monkeypatch)
    report = check_accretivity(system)
    assert report.status == status
    assert calls == [(system.n, system.n)] * dense_calls
    assert_accretivity_matches_dense(report, system)


def fake_factor(lu, **changes):
    """The factor ``lu`` with some attributes replaced."""
    fields = {name: getattr(lu, name) for name in ("perm_r", "perm_c", "U",
                                                   "solve")}
    fields.update(changes)
    return types.SimpleNamespace(**fields)


def singular(original):
    def factor(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    return factor


def permuted(original):
    def factor(*args, **kwargs):
        lu = original(*args, **kwargs)
        return fake_factor(lu, perm_r=np.roll(lu.perm_r, 1))
    return factor


def nonpositive_pivot(original):
    def factor(*args, **kwargs):
        lu = original(*args, **kwargs)
        U = lu.U.tolil()
        U[0, 0] = 0.0
        return fake_factor(lu, U=U.tocsc())
    return factor


@pytest.mark.parametrize("patch", [singular, permuted, nonpositive_pivot],
                         ids=["singular", "permuted", "nonpositive-pivot"])
def test_uncertified_factor_takes_the_dense_spectrum(monkeypatch, patch):
    system = cube_system()
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        patch(scipy.sparse.linalg.splu))
    calls = count_eigvalsh(monkeypatch)
    report = check_accretivity(system)
    assert calls == [(system.n, system.n)]
    assert report.status == "passed"
    assert report.lambda_min == dense_lambda_min(system)


def test_shift_invert_failure_takes_the_dense_spectrum(monkeypatch):
    """``form_norm`` and the certified lambda_min both fall back."""
    system = cube_system()

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.array([]), np.array([]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    calls = count_eigvalsh(monkeypatch)
    report = check_accretivity(system)
    assert calls == [(system.n, system.n)] * 2
    assert report.status == "passed"
    assert report.lambda_min == dense_lambda_min(system)


def test_zero_form_has_zero_norm():
    """ARPACK rejects a zero form outright; the dense spectrum takes it."""
    with lanczos_everywhere():
        assert form_norm(np.zeros((4, 4))) == 0.0


def test_domination_form_scale_is_the_accretivity_scale():
    """The same form gets the same norm in both reports, to the bit."""
    system = cube_system(divisions=3)
    comparison = assemble_system(system.mesh, system.field,
                                 system.spec.dominating())
    grid = geometric_times(count=2)
    with lanczos_everywhere():
        report = check_domination(build_evaluator(system, grid=grid),
                                  build_evaluator(comparison, grid=grid),
                                  samples=2)
        assert report.form_scale == check_accretivity(system).scale
