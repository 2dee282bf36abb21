"""Array-at-a-time mesh, assembly and sampled checks against the loops
they replaced.

The loops below are the reference implementations the vectorized code
replaced: boxes split one at a time, facets counted in a dictionary,
cell matrices added with ``np.ix_`` and the boundary coupling lifted with
the 0/1 trace matrix.  The vectorized code promises the same bits, not
merely close values, because roundoff-level outputs (semigroup law
defect, eventual positivity delta, domination violation) and the reuse
of one evaluator for bitwise-equal forms depend on them.  So every
array is compared through ``tobytes()``.

The structural shortcuts (diagonal operator norm, spectral accretivity
scale, batched continuity samples) are checked against the SVD and the
sample loop at rtol 1e-12, and shown not to fire on inputs without the
structure.

The sampled checks (Nash, truncation criterion, domination, eventual
positivity, L1 -> L2 decay) run each time's samples as one matrix
product.  Each is held against its per-sample loop in ``oracles.py`` at
rtol 1e-12 with equal statuses and counts, at 200, 7 and 0 samples, on
a self-adjoint form and on the non-self-adjoint cosine-kernel form; the
decay check's S*(t), read off the primal by duality, is held against
the loop over the adjoint form's own chain.  Domination and the decay
check refuse 0 samples with ValueError instead of passing on no
evidence.  A comparison semigroup that absorbs at the boundary makes
domination's violation positive, so its value is compared too.  The straddling
samples of the truncation criterion keep the loop's draws and bits and
are compared through ``tobytes()``.  The spectral resolvent norm of a
self-adjoint form is held against ``inv`` and an SVD, also where
1 + lam lambda_min < 0, and the cosine-kernel form still takes its SVD.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from robinheat import (
    BoundaryOperatorSpec,
    CoefficientField,
    Mesh,
    MeshError,
    assemble_system,
    build_box_mesh,
    build_boundary_operator,
    build_lshape_mesh,
    check_accretivity,
    check_continuity,
    compute_trace_norm,
)
from robinheat import (build_evaluator, coefficients, geometric_times,
                       semigroup, verify)
from robinheat.semigroup import SYMMETRY_TOL
from oracles import (
    adjoint_evaluator,
    inverse_resolvent_norm,
    loop_contractivity_criterion,
    loop_domination,
    loop_eventual_positivity,
    loop_nash,
    loop_smoothing_decay,
    loop_straddling_samples,
    trace_matrix,
)

HEX_PERMUTATIONS = [
    ((0, 1, 2), +1), ((0, 2, 1), -1), ((1, 0, 2), -1),
    ((1, 2, 0), +1), ((2, 0, 1), +1), ((2, 1, 0), -1),
]


# -- loop oracles: mesh ----------------------------------------------------

def loop_simplices(dim, divisions, keep):
    shape = tuple(div + 1 for div in divisions)

    def vid(idx):
        return int(np.ravel_multi_index(idx, shape))

    cells = []
    for box in np.ndindex(*divisions):
        if not keep(box):
            continue
        if dim == 1:
            cells.append((vid(box), vid((box[0] + 1,))))
        elif dim == 2:
            i, j = box
            v00, v10 = vid((i, j)), vid((i + 1, j))
            v01, v11 = vid((i, j + 1)), vid((i + 1, j + 1))
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
        else:
            for perm, parity in HEX_PERMUTATIONS:
                steps = [np.array(box)]
                for axis in perm:
                    nxt = steps[-1].copy()
                    nxt[axis] += 1
                    steps.append(nxt)
                tet = [vid(tuple(s)) for s in steps]
                if parity < 0:
                    tet[2], tet[3] = tet[3], tet[2]
                cells.append(tuple(tet))
    return np.array(cells, dtype=int)


def loop_volumes(mesh):
    vols = np.empty(len(mesh.cells))
    for c, cell in enumerate(mesh.cells):
        pts = mesh.vertices[cell]
        vols[c] = np.linalg.det(pts[1:] - pts[0]) / math.factorial(mesh.dim)
    return vols


def loop_boundary(mesh):
    d = mesh.dim
    seen = {}
    for c, cell in enumerate(mesh.cells):
        for omit in range(d + 1):
            seen.setdefault(tuple(sorted(np.delete(cell, omit))), []).append(c)
    facets, owners = [], []
    for c, cell in enumerate(mesh.cells):
        for omit in range(d + 1):
            facet = tuple(sorted(np.delete(cell, omit)))
            hits = seen[facet]
            if len(hits) == 1:
                facets.append(facet)
                owners.append(c)
            elif len(hits) > 2:
                raise MeshError(f"facet {facet} shared by {len(hits)} cells")
    return (np.array(facets, dtype=int).reshape(len(facets), d),
            np.array(owners, dtype=int))


def loop_facet_areas(mesh, facets):
    areas = np.empty(len(facets))
    for f, facet in enumerate(facets):
        pts = mesh.vertices[facet]
        if mesh.dim == 1:
            areas[f] = 1.0
        elif mesh.dim == 2:
            areas[f] = float(np.linalg.norm(pts[1] - pts[0]))
        else:
            cross = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            areas[f] = 0.5 * float(np.linalg.norm(cross))
    return areas


def loop_boundary_weights(mesh, facets, areas):
    acc = np.zeros(mesh.n_vertices)
    for facet, area in zip(facets, areas):
        acc[facet] += area / mesh.dim
    return acc[np.unique(facets)]


def loop_edge_extremes(mesh):
    shortest, longest = math.inf, 0.0
    for cell in mesh.cells:
        pts = mesh.vertices[cell]
        for a in range(len(cell)):
            for b in range(a + 1, len(cell)):
                length = float(np.linalg.norm(pts[a] - pts[b]))
                shortest, longest = min(shortest, length), max(longest, length)
    return shortest, longest


# -- loop oracles: assembly ------------------------------------------------

def loop_stiffness(mesh, per_cell):
    K = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for cell, vol, A in zip(mesh.cells, mesh.cell_volumes, per_cell):
        pts = mesh.vertices[cell]
        inv = np.linalg.inv((pts[1:] - pts[0]).T)
        grads = np.empty((len(pts), mesh.dim))
        grads[1:] = inv
        grads[0] = -inv.sum(axis=0)
        K[np.ix_(cell, cell)] += vol * grads @ A @ grads.T
    return K


def loop_lumped_mass(mesh):
    m = np.zeros(mesh.n_vertices)
    for cell, vol in zip(mesh.cells, mesh.cell_volumes):
        m[cell] += vol / (mesh.dim + 1)
    return m


def loop_kernel_samples(mesh, profile, scale, width=None):
    coords = mesh.vertices[mesh.boundary_vertices]
    if profile == "constant":
        func = lambda x, y: scale
    elif profile == "gaussian":
        func = lambda x, y: scale * np.exp(
            -0.5 * (np.sum((x - y) ** 2) / width / width))
    else:
        func = lambda x, y: scale * (
            np.cos(np.pi * x[0]) * np.cos(np.pi * y[1])
            - np.cos(np.pi * x[1]) * np.cos(np.pi * y[0]))
    nb = len(coords)
    kmat = np.empty((nb, nb))
    for i in range(nb):
        for j in range(nb):
            kmat[i, j] = func(coords[i], coords[j])
    return kmat


def loop_system(mesh, field, spec, alpha):
    """The forms as the trace-matrix triple products build them."""
    Gamma = trace_matrix(mesh)
    w = mesh.boundary_vertex_weights()
    Mdiag = np.diag(loop_lumped_mass(mesh))
    K = loop_stiffness(mesh, field.per_cell)
    K_id = loop_stiffness(mesh, np.tile(np.eye(mesh.dim),
                                        (mesh.n_cells, 1, 1)))
    FormA = K + Gamma.T @ (w[:, None] * spec.matrix().toarray()) @ Gamma
    dominating = spec.dominating()
    return {
        "K": K,
        "K_id": K_id,
        "FormAtilde": FormA + alpha * Mdiag,
        "H1": K_id + Mdiag,
        "trace_form": Gamma.T @ (w[:, None] * Gamma),
        "dominating_form": (
            K + Gamma.T @ (w[:, None] * dominating.matrix().toarray())
            @ Gamma
            + alpha * Mdiag),
    }


def same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


# -- the bitwise property --------------------------------------------------

def loop_cells(dim, divisions, notch):
    """Cells of a box mesh, or of the L-shape with its corner box removed
    and the unused grid vertices dropped."""
    if not notch:
        return loop_simplices(dim, divisions, lambda box: True)
    half = divisions[0] // 2
    cells = loop_simplices(dim, divisions,
                           lambda box: not all(b >= half for b in box))
    used = np.unique(cells)
    remap = -np.ones(math.prod(n + 1 for n in divisions), dtype=int)
    remap[used] = np.arange(len(used))
    return remap[cells]


@st.composite
def meshes(draw):
    """A mesh and its cells as the box loop numbers them."""
    if draw(st.booleans()):
        dim = draw(st.integers(2, 3))
        div = draw(st.sampled_from((2, 4)))
        return (build_lshape_mesh(div, dim=dim),
                loop_cells(dim, (div,) * dim, notch=True))
    dim = draw(st.integers(1, 3))
    top = {1: 9, 2: 5, 3: 3}[dim]
    divisions = draw(st.lists(st.integers(1, top), min_size=dim,
                              max_size=dim))
    extents = draw(st.lists(st.sampled_from((0.3, 0.7, 1.0, 1.3, 2.1)),
                            min_size=dim, max_size=dim))
    return (build_box_mesh(extents, divisions),
            loop_cells(dim, divisions, notch=False))


def draw_field(draw, mesh):
    d = mesh.dim
    kind = draw(st.sampled_from(("isotropic", "diagonal", "sheared")))
    if kind == "isotropic":
        return CoefficientField.isotropic(mesh, draw(st.floats(0.5, 4.0)))
    values = draw(st.lists(st.floats(0.5, 4.0), min_size=d, max_size=d))
    if kind == "diagonal" or d == 1:
        return CoefficientField.diagonal(mesh, values)
    entries = np.diag(values)
    entries[0, 1] = draw(st.floats(-0.4, 0.4))
    entries[1, 0] = draw(st.floats(-0.4, 0.4))
    return CoefficientField.matrix(mesh, entries)


def draw_operator(draw, mesh):
    nb = len(mesh.boundary_vertices)
    kinds = ["zero", "scalar", "per-vertex", "constant", "gaussian"]
    if mesh.dim >= 2:
        kinds.append("cosine")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return BoundaryOperatorSpec.zero(mesh), None
    if kind == "scalar":
        return BoundaryOperatorSpec.multiplication(
            mesh, draw(st.floats(-0.5, 0.5))), None
    if kind == "per-vertex":
        beta = draw(st.lists(st.floats(-0.5, 0.5), min_size=nb, max_size=nb))
        return BoundaryOperatorSpec.multiplication(mesh, beta), None
    config = {"kind": "kernel", "profile": kind,
              "scale": draw(st.sampled_from((0.005, 0.05, -0.2)))}
    if kind == "gaussian":
        config["width"] = draw(st.sampled_from((0.1, 0.3, 1.0)))
    return build_boundary_operator(mesh, config), config


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_vectorized_mesh_and_assembly_match_cell_loops_bitwise(data):
    mesh, cells = data.draw(meshes())
    field = draw_field(data.draw, mesh)
    spec, kernel = draw_operator(data.draw, mesh)

    # mesh
    assert same_bits(mesh.cells, cells)
    facets, owners = loop_boundary(mesh)
    areas = loop_facet_areas(mesh, facets)
    assert same_bits(mesh.cell_volumes, loop_volumes(mesh))
    assert same_bits(mesh.boundary_facets, facets)
    assert same_bits(mesh.facet_cells, owners)
    assert same_bits(mesh.facet_areas, areas)
    assert same_bits(mesh.boundary_vertex_weights(),
                     loop_boundary_weights(mesh, facets, areas))
    shortest, longest = loop_edge_extremes(mesh)
    assert same_bits(mesh.min_edge_length, shortest)
    assert same_bits(mesh.mesh_size, longest)

    # operator samples
    if kernel is not None:
        w = mesh.boundary_vertex_weights()
        kmat = loop_kernel_samples(mesh, kernel["profile"], kernel["scale"],
                                   kernel.get("width"))
        # + 0.0 reads -0.0 as 0.0: a sparse matrix stores no zero
        assert same_bits(spec.matrix().toarray(), kmat * w[None, :] + 0.0)

    # assembly
    system = assemble_system(mesh, field, spec)
    expected = loop_system(mesh, field, spec, system.alpha)
    assert same_bits(system.mass, loop_lumped_mass(mesh))
    for name in ("K", "K_id", "FormAtilde", "H1"):
        assert same_bits(getattr(system, name).toarray(),
                         expected[name]), name
    assert same_bits(
        system.with_boundary(spec.dominating()).FormAtilde.toarray(),
        expected["dominating_form"])
    assert same_bits(system.trace_norm_sq,
                     compute_trace_norm(expected["trace_form"],
                                        expected["H1"]))


@pytest.mark.parametrize("dim, divisions, notch", [
    (1, (7,), False), (2, (3, 5), False), (3, (2, 3, 1), False),
    (2, (6, 6), True), (3, (4, 4, 4), True),
])
def test_cells_match_box_loop_bitwise(dim, divisions, notch):
    if notch:
        mesh = build_lshape_mesh(divisions[0], dim=dim)
    else:
        mesh = build_box_mesh((1.0,) * dim, divisions)
    assert same_bits(mesh.cells, loop_cells(dim, divisions, notch))


def test_facet_shared_by_three_cells_is_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                         [0.5, 2.0]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"facet \(0, 1\) shared by 3 cells"):
        Mesh(2, vertices, cells)


# -- structural shortcuts --------------------------------------------------

def count_svds(monkeypatch):
    """Record every np.linalg.norm(matrix, 2), which computes an SVD."""
    calls = []
    original = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append(np.shape(x))
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


def weighted_svd_norm(T, w):
    root = np.sqrt(w)
    return float(np.linalg.norm((T * root[:, None]) / root[None, :], 2))


@pytest.mark.parametrize("off_diagonal", [0.0, 1e-3])
def test_operator_norm_of_diagonal_skips_svd(off_diagonal, monkeypatch):
    mesh = build_box_mesh((1.0, 1.3), (3, 4))
    w = mesh.boundary_vertex_weights()
    T = np.diag(np.random.default_rng(5).uniform(-1.0, 1.0, len(w)))
    T[0, 1] = off_diagonal
    expected = weighted_svd_norm(T, w)
    calls = count_svds(monkeypatch)
    norm2, norm_inf = coefficients._operator_norms(T, w)
    if off_diagonal:
        assert calls == [T.shape]
        assert norm2 == expected
    else:
        assert calls == []
        assert_allclose(norm2, expected, rtol=1e-12, atol=0)
    assert norm_inf == float(np.abs(T).sum(axis=1).max())


def test_multiplication_operators_take_the_diagonal_norm(monkeypatch):
    mesh = build_box_mesh((1.0, 1.0, 1.0), (2, 3, 2))
    w = mesh.boundary_vertex_weights()
    beta = np.random.default_rng(7).uniform(-0.5, 0.5, len(w))
    calls = count_svds(monkeypatch)
    spec = BoundaryOperatorSpec.multiplication(mesh, beta)
    derived = (spec.dominating(), spec.shifted_bar(-1), spec.shifted_bar(+1))
    assert calls == []
    monkeypatch.undo()
    for op in (spec,) + derived:
        assert_allclose(op.norm2, weighted_svd_norm(op.matrix().toarray(), w),
                        rtol=1e-12, atol=0)
        assert_allclose(op.norm2_bar,
                        weighted_svd_norm(np.abs(op.matrix().toarray()), w),
                        rtol=1e-12, atol=0)


def shortcut_system(kind, scale=0.05):
    cube = build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    if kind == "sheared":
        field = CoefficientField.matrix(
            cube, [[2.0, 0.5, 0.0], [-0.5, 2.0, 0.0], [0.0, 0.0, 2.0]])
    else:
        field = CoefficientField.isotropic(cube, 2.5)
    if kind == "cosine":
        spec = build_boundary_operator(
            cube, {"kind": "kernel", "profile": "cosine", "scale": scale})
    elif kind == "gaussian":
        spec = build_boundary_operator(
            cube, {"kind": "kernel", "profile": "gaussian", "width": 0.3,
                   "scale": 0.05})
    else:
        spec = BoundaryOperatorSpec.multiplication(cube, -0.05)
    return assemble_system(cube, field, spec)


@pytest.mark.parametrize("kind", ["multiplication", "gaussian"])
def test_accretivity_scale_of_symmetric_form_skips_svd(kind, monkeypatch):
    system = shortcut_system(kind)
    expected = float(np.linalg.norm(system.FormAtilde.toarray(), 2))
    calls = count_svds(monkeypatch)
    report = check_accretivity(system)
    assert calls == []
    assert report.status == "passed"
    assert_allclose(report.scale, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["sheared", "cosine"])
def test_accretivity_scale_of_nonsymmetric_form_keeps_svd(kind, monkeypatch):
    system = shortcut_system(kind)
    F = system.FormAtilde.toarray()
    assert np.abs(F - F.T).max() > 1e-12 * np.abs(F).max()
    expected = float(np.linalg.norm(F, 2))
    calls = count_svds(monkeypatch)
    report = check_accretivity(system)
    assert calls == [F.shape]
    assert report.scale == expected


def test_accretivity_scale_of_nonsymmetric_form_uses_no_eigvalsh(monkeypatch):
    """Out of hypothesis, the scale is the only matrix function computed:
    with eigvalsh refused it must come from the SVD."""
    system = shortcut_system("cosine", scale=50.0)
    assert not system.admissibility.accretive
    expected = float(np.linalg.norm(system.FormAtilde.toarray(), 2))

    def refuse(*args, **kwargs):
        raise AssertionError("spectral scale taken for a nonsymmetric form")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    report = check_accretivity(system)
    assert report.status == "hypothesis unmet"
    assert report.scale == expected


def loop_continuity(system, samples, seed):
    """One (u, v) draw and three matrix-vector products per sample."""
    d = system.mesh.dim
    const = (d * d * system.field.sup_norm
             + system.spec.norm2 * system.trace_norm_sq)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        u = rng.standard_normal(system.n)
        v = rng.standard_normal(system.n)
        lhs = abs(float(v @ system.FormAtilde @ u))
        rhs = (const * system.h1_norm(u) * system.h1_norm(v)
               + system.alpha * system.l2_norm(u) * system.l2_norm(v))
        worst = max(worst, lhs / rhs)
    return worst, const


@pytest.mark.parametrize("kind", ["multiplication", "sheared", "cosine"])
@pytest.mark.parametrize("samples, seed", [(200, 2024), (7, 11), (0, 3)])
def test_batched_continuity_matches_sample_loop(kind, samples, seed):
    """No sample is refused."""
    system = shortcut_system(kind)
    if samples == 0:
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_continuity(system, samples=samples, seed=seed)
        return
    worst, const = loop_continuity(system, samples, seed)
    report = check_continuity(system, samples=samples, seed=seed)
    assert_allclose(report.max_ratio, worst, rtol=1e-12, atol=0)
    assert report.bound_constant == const
    assert report.passed == (worst <= 1.0 + 1e-10)


# -- the sampled checks as block products ----------------------------------

GRID = geometric_times(1.0, 2.0 ** -0.5, 8)
SAMPLES = [(200, 2024), (7, 11), (0, 3)]


def sampled_system(kind):
    """A self-adjoint form (isotropic field, no boundary coupling) or the
    non-self-adjoint cosine-kernel form, with its evaluator and the
    evaluator of its dominating comparison system on ``GRID``."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    config = ({"kind": "zero"} if kind == "selfadjoint" else
              {"kind": "kernel", "profile": "cosine", "scale": 0.05})
    system = assemble_system(cube, CoefficientField.isotropic(cube, 2.5),
                             build_boundary_operator(cube, config))
    evaluator = build_evaluator(system, grid=GRID)
    assert (evaluator.symmetry_residual <= SYMMETRY_TOL) == (
        kind == "selfadjoint")
    comparison = system.with_boundary(system.spec.dominating())
    return system, evaluator, build_evaluator(comparison, grid=GRID)


def assert_reports_match(report, expected):
    """Equal statuses, counts and arrays; floats at rtol 1e-12."""
    for key, value in expected.as_dict().items():
        actual = getattr(report, key)
        if isinstance(value, (str, bool, int)):
            assert actual == value, key
        else:
            assert_allclose(actual, value, rtol=1e-12, atol=0, err_msg=key)


@pytest.mark.parametrize("count, seed", SAMPLES + [(40, 5)])
@pytest.mark.parametrize("shape", [
    ((1.0,), (8,)), ((1.0, 1.3), (4, 5)), ((1.0, 1.0, 1.0), (4, 4, 4))])
def test_straddling_samples_match_the_loop_bitwise(shape, count, seed):
    mesh = build_box_mesh(*shape)
    block = verify._straddling_samples(mesh, count,
                                       np.random.default_rng(seed))
    loop = loop_straddling_samples(mesh, count, np.random.default_rng(seed))
    assert block.shape == (count, mesh.n_vertices)
    assert block.tobytes() == np.array(loop).reshape(block.shape).tobytes()


@pytest.mark.parametrize("kind", ["selfadjoint", "cosine"])
@pytest.mark.parametrize("samples, seed", SAMPLES)
def test_batched_nash_matches_sample_loop(kind, samples, seed):
    """No sample is refused."""
    system, _, _ = sampled_system(kind)
    if samples == 0:
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify.check_nash(system, samples, seed)
        return
    assert_reports_match(verify.check_nash(system, samples, seed),
                         loop_nash(system, samples, seed))


@pytest.mark.parametrize("kind", ["selfadjoint", "cosine"])
@pytest.mark.parametrize("samples, seed", SAMPLES)
def test_batched_contractivity_criterion_matches_sample_loop(kind, samples,
                                                             seed):
    """No sample is refused."""
    system, _, _ = sampled_system(kind)
    if samples == 0:
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify.check_ouhabaz_contractivity_criterion(system, samples,
                                                         seed)
        return
    assert_reports_match(
        verify.check_ouhabaz_contractivity_criterion(system, samples, seed),
        loop_contractivity_criterion(system, samples, seed))


@pytest.mark.parametrize("absorbing", [False, True],
                         ids=["dominating", "absorbing"])
@pytest.mark.parametrize("kind", ["selfadjoint", "cosine"])
@pytest.mark.parametrize("samples, seed", SAMPLES)
def test_batched_domination_matches_sample_loop(kind, samples, seed,
                                                absorbing):
    """An absorbing comparison semigroup (beta = 50, decay rate about 25)
    is no bound: the samples violate it, so the violation's value is
    compared too.  No sample is refused."""
    system, evaluator, bar = sampled_system(kind)
    if absorbing:
        bar = build_evaluator(system.with_boundary(
            BoundaryOperatorSpec.multiplication(system.mesh, 50.0)),
            grid=GRID)
    if samples == 0:
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify.check_domination(evaluator, bar, samples, seed)
        return
    expected = loop_domination(evaluator, bar, samples, seed)
    assert (expected.max_violation > 0) == absorbing
    assert_reports_match(
        verify.check_domination(evaluator, bar, samples, seed),
        expected)


@pytest.mark.parametrize("kind", ["selfadjoint", "cosine"])
@pytest.mark.parametrize("samples, seed", SAMPLES)
def test_batched_eventual_positivity_matches_sample_loop(kind, samples, seed):
    system, evaluator, _ = sampled_system(kind)
    times = np.union1d(GRID, (2.0, 5.0))
    report = verify.check_eventual_positivity(evaluator, times, samples,
                                              seed)
    assert report.hypothesis_ok
    assert_reports_match(report, loop_eventual_positivity(
        evaluator, times, samples, seed))


@pytest.mark.parametrize("kind", ["selfadjoint", "cosine"])
@pytest.mark.parametrize("samples, seed", SAMPLES)
def test_batched_smoothing_decay_matches_sample_loop(kind, samples, seed):
    """The check forms S*(t) from the evaluator's matrices; the loop runs
    on the adjoint form's own chain.  No sample is refused."""
    system, evaluator, _ = sampled_system(kind)
    if samples == 0:
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify.check_smoothing_decay(evaluator, 0.3, GRID, samples, seed)
        return
    assert_reports_match(
        verify.check_smoothing_decay(evaluator, 0.3, GRID, samples, seed),
        loop_smoothing_decay(adjoint_evaluator(system, grid=GRID), 0.3, GRID,
                             samples, seed))


@pytest.mark.parametrize("beta", [0.0, -5.0], ids=["accretive", "indefinite"])
def test_self_adjoint_resolvent_norm_takes_no_svd(beta, monkeypatch):
    """On a self-adjoint form the resolvent norm is max_k 1/|1 + lam l_k|
    over the spectrum of W: 1/(1 + lam l_min) when the form is accretive,
    and not that when 1 + lam l_min < 0 (beta = -5 gives l_min = -39)."""
    cube = build_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    system = assemble_system(cube, CoefficientField.isotropic(cube, 2.5),
                             BoundaryOperatorSpec.multiplication(cube, beta))
    evaluator = build_evaluator(system)
    lams = (0.1, 1.0, 10.0)
    expected = [inverse_resolvent_norm(evaluator, lam) for lam in lams]
    calls = count_svds(monkeypatch)
    norms = [evaluator.resolvent_contraction(lam) for lam in lams]
    assert calls == []
    assert_allclose(norms, expected, rtol=1e-12, atol=0)
    W = evaluator._weighted().toarray()
    lam_min = np.linalg.eigvalsh(0.5 * (W + W.T))[0]
    if beta == 0.0:
        assert lam_min > 0.0
        assert_allclose(norms, [1.0 / (1.0 + lam * lam_min) for lam in lams],
                        rtol=1e-12, atol=0)
    else:
        assert all(1.0 + lam * lam_min < 0.0 for lam in lams)


def test_cosine_kernel_resolvent_norm_keeps_one_svd(monkeypatch):
    """A non-self-adjoint resolvent takes one dense 2-norm, from
    ``semigroup._norm_2``, and no SVD."""
    _, evaluator, _ = sampled_system("cosine")
    expected = inverse_resolvent_norm(evaluator, 1.0)
    svds = count_svds(monkeypatch)
    calls = []
    norm_2 = semigroup._norm_2

    def counting(X):
        calls.append(X.shape)
        return norm_2(X)

    monkeypatch.setattr(semigroup, "_norm_2", counting)
    assert_allclose(evaluator.resolvent_contraction(1.0), expected,
                    rtol=1e-12, atol=0)
    assert calls == [evaluator.form.shape]
    assert svds == []
