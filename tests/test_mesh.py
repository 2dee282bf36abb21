"""Mesh construction against counted-by-hand references.

Every expected number here (vertex counts, volumes, areas, weights) was
derived by hand from the grid layout, not read off the implementation.
"""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from robinheat import Mesh, MeshError, build_box_mesh, build_lshape_mesh, dump_mesh


def test_interval_counts_and_measures(interval4):
    assert interval4.dim == 1
    assert interval4.n_vertices == 5
    assert interval4.n_cells == 4
    assert_allclose(interval4.volume, 1.0, rtol=0, atol=1e-15)
    # point facets carry measure one, so the two endpoints sum to 2
    assert_allclose(interval4.boundary_area, 2.0, rtol=0, atol=1e-15)
    assert list(interval4.boundary_vertices) == [0, 4]
    assert_allclose(interval4.boundary_vertex_weights(), [1.0, 1.0],
                    rtol=0, atol=1e-15)
    assert_allclose(interval4.cell_volumes, 0.25, rtol=0, atol=1e-15)
    assert_allclose(interval4.min_edge_length, 0.25, rtol=0, atol=1e-15)


def test_unit_square_single_division(square11):
    assert square11.n_vertices == 4
    assert square11.n_cells == 2
    assert_allclose(square11.volume, 1.0, rtol=0, atol=1e-15)
    assert_allclose(square11.boundary_area, 4.0, rtol=0, atol=1e-15)
    # every vertex lies on the boundary of the 1x1 grid
    assert len(square11.boundary_vertices) == 4
    assert_allclose(square11.mesh_size, math.sqrt(2.0), rtol=0, atol=1e-15)
    assert_allclose(square11.min_edge_length, 1.0, rtol=0, atol=1e-15)


def test_cube_two_divisions(cube2):
    # (2+1)^3 grid points, six tetrahedra per grid box, eight boxes
    assert cube2.n_vertices == 27
    assert cube2.n_cells == 48
    assert_allclose(cube2.volume, 1.0, rtol=0, atol=1e-12)
    assert_allclose(cube2.boundary_area, 6.0, rtol=0, atol=1e-12)
    # only the body center is interior
    assert len(cube2.boundary_vertices) == 26
    assert_allclose(cube2.min_edge_length, 0.5, rtol=0, atol=1e-15)


def test_cube_six_divisions_counts():
    mesh = build_box_mesh((1.0, 1.0, 1.0), (6, 6, 6))
    assert mesh.n_vertices == 343
    assert mesh.n_cells == 6 * 6 ** 3
    assert_allclose(mesh.volume, 1.0, rtol=0, atol=1e-12)
    assert_allclose(mesh.boundary_area, 6.0, rtol=0, atol=1e-12)


def test_all_cells_positively_oriented(cube2):
    for cell in cube2.cells:
        pts = cube2.vertices[cell]
        edges = pts[1:] - pts[0]
        assert np.linalg.det(edges) > 0.0


def test_boundary_weights_sum_to_area():
    for mesh in (build_box_mesh((1.0, 1.0), (3, 2)),
                 build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2)),
                 build_lshape_mesh(4, dim=2)):
        weights = mesh.boundary_vertex_weights()
        assert np.all(weights > 0.0)
        assert_allclose(weights.sum(), mesh.boundary_area, rtol=1e-13, atol=0)


def test_anisotropic_box():
    mesh = build_box_mesh((2.0, 0.5), (4, 1))
    assert_allclose(mesh.volume, 1.0, rtol=0, atol=1e-14)
    assert_allclose(mesh.boundary_area, 5.0, rtol=0, atol=1e-14)
    assert_allclose(mesh.min_edge_length, 0.5, rtol=0, atol=1e-15)


def test_lshape_two_dimensional():
    mesh = build_lshape_mesh(2, dim=2)
    # 3x3 grid minus the far corner point
    assert mesh.n_vertices == 8
    assert mesh.n_cells == 6
    assert_allclose(mesh.volume, 0.75, rtol=0, atol=1e-14)
    assert_allclose(mesh.boundary_area, 4.0, rtol=0, atol=1e-14)
    # the reentrant corner (1/2, 1/2) is a boundary vertex
    corner = np.array([0.5, 0.5])
    dists = np.linalg.norm(mesh.vertices[mesh.boundary_vertices] - corner,
                           axis=1)
    assert dists.min() < 1e-14


def test_lshape_three_dimensional():
    mesh = build_lshape_mesh(2, dim=3)
    assert_allclose(mesh.volume, 0.875, rtol=0, atol=1e-13)
    # removing the corner box trades three quarter-faces for three new ones
    assert_allclose(mesh.boundary_area, 6.0, rtol=0, atol=1e-13)


def test_lshape_rejects_odd_or_tiny_divisions():
    with pytest.raises(ValueError):
        build_lshape_mesh(3)
    with pytest.raises(ValueError):
        build_lshape_mesh(0)
    with pytest.raises(ValueError):
        build_lshape_mesh(4, dim=1)


def test_box_rejects_bad_input():
    with pytest.raises(ValueError):
        build_box_mesh((1.0, -1.0), (2, 2))
    with pytest.raises(ValueError):
        build_box_mesh((1.0,), (0,))
    with pytest.raises(ValueError):
        build_box_mesh((1.0, 1.0), (2,))


def test_huge_interval_has_finite_edge_lengths():
    """Each edge of an interval of length 1e300 in 8 cells squares past the
    float range; its length does not, and no warning is printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = build_box_mesh((1e300,), (8,))
    assert math.isfinite(mesh.min_edge_length)
    assert_allclose(mesh.min_edge_length, 1.25e299, rtol=1e-14, atol=0)
    assert_allclose(mesh.mesh_size, 1.25e299, rtol=1e-14, atol=0)


def test_mesh_validation_catches_degenerate_cell():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        Mesh(2, vertices, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("n_vertices, refused", [(2_097_151, False),
                                                 (2_097_152, True)])
def test_facet_keys_past_int64_are_refused(n_vertices, refused):
    """Facets are deduplicated by their raveled index in an n^3 grid, which
    int64 holds up to n = 2^21 - 1 in 3-D.  One cell on the first four of
    n vertices; np.zeros leaves the untouched rows unallocated."""
    vertices = np.zeros((n_vertices, 3))
    vertices[1:4] = np.eye(3)
    cells = np.array([[0, 1, 2, 3]])
    if refused:
        with pytest.raises(MeshError, match="2097152 vertices"):
            Mesh(3, vertices, cells)
    else:
        assert len(Mesh(3, vertices, cells).boundary_facets) == 4


def test_dump_mesh_round_trip(square11):
    buffer = io.StringIO()
    dump_mesh(square11, buffer)
    lines = buffer.getvalue().strip().splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    clines = [l for l in lines if l.startswith("c ")]
    assert len(vlines) == square11.n_vertices
    assert len(clines) == square11.n_cells
    verts = np.array([[float(x) for x in l.split()[1:]] for l in vlines])
    cells = np.array([[int(x) for x in l.split()[1:]] for l in clines])
    rebuilt = Mesh(2, verts, cells)
    assert_allclose(rebuilt.vertices, square11.vertices, rtol=0, atol=0)
    assert np.array_equal(rebuilt.cells, square11.cells)


@settings(deadline=None, max_examples=25)
@given(divisions=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       extents=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)))
def test_box_measures_match_product_formulas(divisions, extents):
    mesh = build_box_mesh(extents, divisions)
    assert mesh.n_vertices == (divisions[0] + 1) * (divisions[1] + 1)
    assert mesh.n_cells == 2 * divisions[0] * divisions[1]
    assert_allclose(mesh.volume, extents[0] * extents[1], rtol=1e-12, atol=0)
    assert_allclose(mesh.boundary_area, 2.0 * (extents[0] + extents[1]),
                    rtol=1e-12, atol=0)


@settings(deadline=None, max_examples=10)
@given(div=st.integers(1, 3))
def test_cube_cell_volumes_uniform(div):
    mesh = build_box_mesh((1.0, 1.0, 1.0), (div, div, div))
    expected = 1.0 / (6.0 * div ** 3)
    assert_allclose(mesh.cell_volumes, expected, rtol=1e-12, atol=0)
