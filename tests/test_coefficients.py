"""Coefficient fields and boundary operators.

Norm and ellipticity oracles are closed-form: for a multiplication
operator both norms equal max |beta|, for a small dense operator the
weighted norm is checked against an explicit singular value computation,
and ellipticity constants come from eigenvalues worked out by hand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    build_box_mesh,
    build_boundary_operator,
    check_admissibility,
    coefficient_field_from_config,
)


# -- ellipticity ---------------------------------------------------------

def test_isotropic_alpha(square11):
    field = CoefficientField.isotropic(square11, 2.5)
    assert_allclose(field.alpha, 2.5, rtol=0, atol=1e-14)
    assert field.is_isotropic
    assert_allclose(field.sup_norm, 2.5, rtol=0, atol=0)


def test_diagonal_alpha_is_smallest_entry(square11):
    field = CoefficientField.diagonal(square11, (2.0, 3.0))
    assert_allclose(field.alpha, 2.0, rtol=0, atol=1e-14)
    assert not field.is_isotropic


def test_antisymmetric_part_does_not_change_alpha(cube2):
    entries = np.array([[2.0, 0.5, 0.0],
                        [-0.5, 2.0, 0.3],
                        [0.0, -0.3, 2.0]])
    field = CoefficientField.matrix(cube2, entries)
    # symmetric part is exactly 2 I
    assert_allclose(field.alpha, 2.0, rtol=0, atol=1e-14)


def test_shear_lowers_alpha(square11):
    # sym([[2, 1], [0, 2]]) has eigenvalues 1.5 and 2.5
    field = CoefficientField.matrix(square11, np.array([[2.0, 1.0],
                                                        [0.0, 2.0]]))
    assert_allclose(field.alpha, 1.5, rtol=0, atol=1e-14)


def test_non_elliptic_field_rejected(square11):
    with pytest.raises(ValueError, match="not elliptic"):
        CoefficientField.matrix(square11, np.array([[1.0, 3.0],
                                                    [3.0, 1.0]]))


@settings(deadline=None, max_examples=40)
@given(scale=st.floats(0.1, 50.0))
def test_alpha_scales_linearly(scale, square11):
    base = np.array([[3.0, 1.0], [1.0, 2.0]])
    field = CoefficientField.matrix(square11, scale * base)
    ref = CoefficientField.matrix(square11, base)
    assert_allclose(field.alpha, scale * ref.alpha, rtol=1e-12, atol=0)


def test_field_from_config(square11):
    iso = coefficient_field_from_config(square11, {"kind": "isotropic",
                                                   "value": 4.0})
    assert_allclose(iso.alpha, 4.0, rtol=0, atol=0)
    diag = coefficient_field_from_config(square11, {"kind": "diagonal",
                                                    "values": (1.0, 5.0)})
    assert_allclose(diag.alpha, 1.0, rtol=0, atol=1e-14)
    full = coefficient_field_from_config(
        square11, {"kind": "matrix", "entries": (2.0, 0.0, 0.0, 2.0)})
    assert_allclose(full.alpha, 2.0, rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="unknown coefficient"):
        coefficient_field_from_config(square11, {"kind": "mystery"})


# -- boundary operators --------------------------------------------------

def test_zero_operator(interval4):
    spec = BoundaryOperatorSpec.zero(interval4)
    assert spec.norm2 == 0.0
    assert spec.norm_inf == 0.0
    assert not np.any(spec.matrix().toarray())


def test_multiplication_norms(interval4):
    spec = BoundaryOperatorSpec.multiplication(interval4, -0.1)
    assert_allclose(spec.norm2, 0.1, rtol=0, atol=1e-15)
    assert_allclose(spec.norm_inf, 0.1, rtol=0, atol=1e-15)
    assert_allclose(spec.norm2_bar, 0.1, rtol=0, atol=1e-15)
    assert_allclose(spec.norm_inf_bar, 0.1, rtol=0, atol=1e-15)
    assert_allclose(spec.matrix().toarray(), np.diag([-0.1, -0.1]), rtol=0,
                    atol=0)
    assert_allclose(np.abs(spec.matrix().toarray()), np.diag([0.1, 0.1]),
                    rtol=0, atol=0)


def test_multiplication_per_vertex_beta(interval4):
    spec = BoundaryOperatorSpec.multiplication(interval4, (0.3, -0.7))
    assert_allclose(spec.norm_inf, 0.7, rtol=0, atol=1e-15)
    assert_allclose(spec.norm2, 0.7, rtol=0, atol=1e-15)


def test_constant_kernel_oracle(interval4):
    # both endpoint weights equal one, so T = s * ones(2, 2) whose
    # weighted 2-norm and row-sum norm are both 2 s
    spec = build_boundary_operator(interval4,
                                   {"kind": "kernel", "profile": "constant",
                                    "scale": 0.25})
    assert_allclose(spec.matrix().toarray(), 0.25 * np.ones((2, 2)), rtol=0,
                    atol=0)
    assert_allclose(spec.norm2, 0.5, rtol=1e-14, atol=0)
    assert_allclose(spec.norm_inf, 0.5, rtol=0, atol=1e-15)


def test_dense_weighted_norm_oracle(interval4):
    matrix = np.array([[1.0, 2.0], [0.0, 1.0]])
    spec = BoundaryOperatorSpec.dense(interval4, matrix)
    # unit weights: the weighted norm is the plain largest singular value
    expected = np.linalg.svd(matrix, compute_uv=False)[0]
    assert_allclose(spec.norm2, expected, rtol=1e-14, atol=0)
    assert_allclose(spec.norm_inf, 3.0, rtol=0, atol=0)


def test_cosine_kernel_is_weighted_antisymmetric(cube2):
    spec = build_boundary_operator(
        cube2, {"kind": "kernel", "profile": "cosine", "scale": 0.005})
    # weighted antisymmetry W^-1 T^t W = -T is skewness of Bw = W T
    Bw = spec.weights[:, None] * spec.matrix().toarray()
    assert np.abs(Bw + Bw.T).max() <= 1e-15 * np.abs(Bw).max()
    # lumped boundary integrals of cos(pi y_k) vanish on the symmetric grid
    assert np.abs(spec.matrix().toarray().sum(axis=1)).max() <= 1e-16


def test_derived_operators(interval4):
    spec = BoundaryOperatorSpec.multiplication(interval4, -0.1)
    dom = spec.dominating()
    assert_allclose(dom.matrix().toarray(), np.diag([-0.1, -0.1]), rtol=0,
                    atol=0)
    assert_allclose(np.abs(dom.matrix().toarray()), np.diag([0.1, 0.1]),
                    rtol=0, atol=0)
    assert (dom.norm2_bar, dom.norm_inf_bar) == (spec.norm2_bar,
                                                 spec.norm_inf_bar)
    up = spec.shifted_bar(+1)
    down = spec.shifted_bar(-1)
    assert_allclose(up.matrix().toarray(), np.diag([0.2, 0.2]), rtol=0,
                    atol=1e-15)
    assert_allclose(down.matrix().toarray(), np.zeros((2, 2)), rtol=0,
                    atol=1e-15)
    with pytest.raises(ValueError):
        spec.shifted_bar(0)


def test_dominating_kernel_takes_one_svd(monkeypatch):
    """|-|T|| = |T|: the dominating operator of a kernel keeps the
    kernel's bar norms, bit for bit those a fresh construction computes
    with a second SVD, and takes one SVD, for the norms of -|T|."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (4, 4, 4))
    spec = build_boundary_operator(
        cube, {"kind": "kernel", "profile": "cosine", "scale": 0.005})
    fresh = BoundaryOperatorSpec(spec.weights, -abs(spec.matrix()))
    norm = np.linalg.norm
    svds = []

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            svds.append(x.shape)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    dom = spec.dominating()
    assert len(svds) == 1
    for name in ("norm2", "norm_inf", "norm2_bar", "norm_inf_bar"):
        assert getattr(dom, name) == getattr(fresh, name)
    assert (dom.norm2_bar, dom.norm_inf_bar) == (spec.norm2_bar,
                                                 spec.norm_inf_bar)
    assert (dom.matrix() != fresh.matrix()).nnz == 0
    assert np.array_equal(dom.weights, spec.weights)


def test_builder_rejects_unknowns(square11, interval4):
    with pytest.raises(ValueError, match="unknown boundary operator"):
        build_boundary_operator(square11, {"kind": "nonsense"})
    with pytest.raises(ValueError, match="unknown kernel profile"):
        build_boundary_operator(square11, {"kind": "kernel",
                                           "profile": "sinc"})
    with pytest.raises(ValueError, match="dim >= 2"):
        build_boundary_operator(interval4, {"kind": "kernel",
                                            "profile": "cosine"})


# -- admissibility -------------------------------------------------------

def test_admissibility_margins_exact(interval4):
    spec = BoundaryOperatorSpec.multiplication(interval4, -0.1)
    report = check_admissibility(spec, alpha=2.0, trace_norm_sq=2.0)
    # margin = alpha - 1 - (norm_inf_bar + norm2_bar) * tr^2 = 1 - 0.4
    assert_allclose(report.margin, 0.6, rtol=0, atol=1e-14)
    assert report.admissible
    assert_allclose(report.accretive_margin, 0.8, rtol=0, atol=1e-14)
    assert report.accretive
    tight = check_admissibility(spec, alpha=1.3, trace_norm_sq=2.0)
    assert not tight.admissible
    assert tight.accretive


def test_zero_operator_always_admissible(interval4):
    spec = BoundaryOperatorSpec.zero(interval4)
    report = check_admissibility(spec, alpha=1.0, trace_norm_sq=100.0)
    assert report.admissible
    assert_allclose(report.margin, 0.0, rtol=0, atol=0)


@settings(deadline=None, max_examples=40)
@given(alpha=st.floats(1.0, 10.0), beta=st.floats(-0.5, 0.5),
       tr=st.floats(0.1, 5.0))
def test_admissibility_matches_inequality(alpha, beta, tr, interval4):
    spec = BoundaryOperatorSpec.multiplication(interval4, beta)
    report = check_admissibility(spec, alpha, tr)
    expected = alpha - 1.0 - 2.0 * abs(beta) * tr >= 0.0
    assert report.admissible == expected
    assert report.margin <= report.accretive_margin + 1e-15
