"""Structured simplicial meshes of boxes and L-shaped domains.

Vertices are numbered lexicographically by grid index, cells are oriented
positively, and boundary facets are recovered from cell connectivity (a
facet is on the boundary iff it belongs to exactly one cell).  In one
dimension the two endpoint "facets" carry the counting measure, so facet
area is 1 there.

Everything is computed array-at-a-time, in the same cell order a loop
over cells would use: accumulations go through ``np.bincount``, and
vector lengths through stacked ``matmul`` (the BLAS dot product that
``np.linalg.norm`` of one vector uses), so every derived array has the
bits of the cell-by-cell computation.
"""

import itertools
import math

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "build_box_mesh",
    "build_lshape_mesh",
    "dump_mesh",
]


class MeshError(ValueError):
    """Raised for invalid mesh topology or geometry."""


class Mesh:
    """Simplicial mesh: vertex coordinates plus cell connectivity.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    vertices : (n, dim) float array
        Vertex coordinates.
    cells : (m, dim + 1) int array
        Vertex indices per cell, positively oriented.

    Derived data (boundary facets with owning cell, facet areas, cell
    volumes) is computed eagerly so invalid input fails fast.
    """

    def __init__(self, dim, vertices, cells):
        if dim not in (1, 2, 3):
            raise MeshError(f"unsupported dimension {dim}")
        self.dim = dim
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise MeshError("vertex array must have shape (n, dim)")
        if self.cells.ndim != 2 or self.cells.shape[1] != dim + 1:
            raise MeshError("cell array must have shape (m, dim + 1)")
        if self.cells.size and (self.cells.min() < 0
                                or self.cells.max() >= len(self.vertices)):
            raise MeshError("cell refers to a vertex that does not exist")

        points = self.vertices[self.cells]
        self.cell_volumes = self._compute_volumes(points)
        if np.any(self.cell_volumes <= 0.0):
            bad = int(np.argmax(self.cell_volumes <= 0.0))
            raise MeshError(f"cell {bad} is degenerate or negatively oriented")

        self.boundary_facets, self.facet_cells = self._extract_boundary()
        self.facet_areas = self._compute_facet_areas()
        self.boundary_vertices = np.unique(self.boundary_facets)

        a, b = np.triu_indices(dim + 1, k=1)
        edges = _edge_lengths(points[:, a] - points[:, b])
        self._min_edge = float(edges.min(initial=math.inf))
        self._max_edge = float(edges.max(initial=0.0))

    # ------------------------------------------------------------------
    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def volume(self):
        return float(self.cell_volumes.sum())

    @property
    def boundary_area(self):
        return float(self.facet_areas.sum())

    @property
    def mesh_size(self):
        """Largest cell diameter (max pairwise vertex distance per cell)."""
        return self._max_edge

    @property
    def min_edge_length(self):
        """Shortest cell edge."""
        return self._min_edge

    @property
    def resolved_time(self):
        """The squared shortest edge: the smallest time the mesh resolves."""
        edge = self.min_edge_length
        return edge * edge      # inf past the float range

    def boundary_vertex_weights(self):
        """Lumped boundary measure: each facet spreads its area equally
        over its ``dim`` vertices.  Returns weights aligned with
        ``boundary_vertices``.
        """
        share = np.repeat(self.facet_areas / self.dim, self.dim)
        acc = np.bincount(self.boundary_facets.ravel(), weights=share,
                          minlength=self.n_vertices)
        return acc[self.boundary_vertices]

    # ------------------------------------------------------------------
    def _compute_volumes(self, points):
        edges = points[:, 1:] - points[:, :1]
        return np.linalg.det(edges) / math.factorial(self.dim)

    def _extract_boundary(self):
        """Facets that belong to one cell, in cell-major, omitted-vertex-
        minor order, each with its vertex ids sorted, plus owning cells."""
        d = self.dim
        omit = np.array([[k for k in range(d + 1) if k != j]
                         for j in range(d + 1)])
        facets = np.sort(self.cells[:, omit], axis=2).reshape(-1, d)
        n = self.n_vertices
        try:    # the raveled index of a sorted facet orders like its rows
            keys = np.ravel_multi_index(tuple(facets.T), (n,) * d)
        except ValueError:
            raise MeshError(f"{n} vertices are too many to index the "
                            f"facets of a {d}-D mesh") from None
        _, inverse, counts = np.unique(keys, return_inverse=True,
                                       return_counts=True)
        hits = counts[inverse.reshape(-1)]
        if np.any(hits > 2):
            bad = int(np.argmax(hits > 2))
            raise MeshError(f"facet {tuple(int(v) for v in facets[bad])} "
                            f"shared by {hits[bad]} cells")
        single = np.nonzero(hits == 1)[0]
        return facets[single], single // (d + 1)

    def _compute_facet_areas(self):
        pts = self.vertices[self.boundary_facets]
        if self.dim == 1:
            return np.ones(len(pts))      # counting measure on the endpoints
        if self.dim == 2:
            return _lengths(pts[:, 1] - pts[:, 0])
        return 0.5 * _lengths(np.cross(pts[:, 1] - pts[:, 0],
                                       pts[:, 2] - pts[:, 0]))


def _lengths(vectors):
    """Euclidean lengths along the last axis, with the bits of
    ``np.linalg.norm`` applied to each vector on its own."""
    return np.sqrt((vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0])


def _edge_lengths(edges):
    """``_lengths`` of cell edges, except that an edge whose squared length
    overflows is divided by its largest entry first, so only a length
    past the float range is inf.  Facet areas keep ``_lengths``: a facet
    measure whose square overflows still makes the trace norm refuse the
    mesh."""
    with np.errstate(over="ignore"):
        lengths = _lengths(edges)
    huge = np.isinf(lengths) & np.isfinite(edges).all(axis=-1)
    if huge.any():
        scale = np.abs(edges[huge]).max(axis=-1)
        scaled = edges[huge] / scale[:, None]
        lengths[huge] = scale * np.sqrt((scaled * scaled).sum(axis=-1))
    return lengths


# ----------------------------------------------------------------------
def _grid_vertices(extents, divisions):
    axes = [np.linspace(0.0, ext, div + 1) for ext, div in zip(extents, divisions)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _box_template(dim):
    """Grid offsets of the simplices of one box, (dim!, dim + 1, dim).

    One path simplex corner -> corner + e_a -> ... -> opposite corner per
    axis order, in ``itertools.permutations`` order; odd orders swap their
    last two vertices so every simplex is positively oriented.
    """
    paths = []
    for perm in itertools.permutations(range(dim)):
        steps = np.eye(dim, dtype=int)[list(perm)].cumsum(axis=0)
        path = np.vstack([np.zeros(dim, int), steps])
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            path[[-2, -1]] = path[[-1, -2]]
        paths.append(path)
    return np.array(paths)


def _simplices_from_boxes(dim, divisions, mask):
    """Split the grid boxes selected by the boolean ``mask`` (shape
    ``divisions``) into simplices, box by box in C order.  Returns cell
    connectivity in terms of grid vertex ids (C-order ravel).
    """
    shape = tuple(div + 1 for div in divisions)
    boxes = np.argwhere(mask)                              # C order
    corners = boxes[:, None, None, :] + _box_template(dim)[None]
    ids = np.ravel_multi_index(tuple(np.moveaxis(corners, -1, 0)), shape)
    return ids.reshape(-1, dim + 1)


def build_box_mesh(extents, divisions):
    """Mesh the box [0, e_1] x ... x [0, e_d].

    Parameters
    ----------
    extents : sequence of float
        Positive side lengths; the length fixes the dimension.
    divisions : sequence of int
        Cells per axis, one positive entry per side.

    Returns
    -------
    Mesh
        Intervals (d = 1), two triangles per grid square (d = 2) or six
        tetrahedra per grid box (d = 3), all positively oriented.
    """
    extents = tuple(float(e) for e in np.atleast_1d(extents))
    divisions = tuple(int(n) for n in np.atleast_1d(divisions))
    if len(extents) != len(divisions):
        raise ValueError("extents and divisions must have equal length")
    dim = len(extents)
    if dim not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dim}")
    if any(e <= 0 for e in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    if any(n <= 0 for n in divisions):
        raise ValueError(f"divisions must be positive, got {divisions}")

    vertices = _grid_vertices(extents, divisions)
    cells = _simplices_from_boxes(dim, divisions, np.ones(divisions, bool))
    return Mesh(dim, vertices, cells)


def build_lshape_mesh(divisions, dim=2):
    """Mesh [0, 1]^d with the closed corner box [1/2, 1]^d removed.

    Parameters
    ----------
    divisions : int
        Cells per axis of the full unit box; must be even and >= 2 so the
        notch boundary lies on grid planes.
    dim : int
        2 or 3.
    """
    divisions = int(divisions)
    if dim not in (2, 3):
        raise ValueError(f"L-shaped domains need dim 2 or 3, got {dim}")
    if divisions < 2:
        raise ValueError(f"divisions must be >= 2, got {divisions}")
    if divisions % 2 != 0:
        raise ValueError(f"divisions must be even, got {divisions}")

    half = divisions // 2
    all_divs = (divisions,) * dim
    vertices = _grid_vertices((1.0,) * dim, all_divs)
    mask = np.ones(all_divs, bool)
    mask[(slice(half, None),) * dim] = False      # the removed corner box
    cells = _simplices_from_boxes(dim, all_divs, mask)

    used = np.unique(cells)            # ascending == lexicographic grid order
    remap = -np.ones(len(vertices), dtype=int)
    remap[used] = np.arange(len(used))
    return Mesh(dim, vertices[used], remap[cells])


# ----------------------------------------------------------------------
def dump_mesh(mesh, target):
    """Write a plain text dump: one ``v x ...`` line per vertex followed by
    one ``c i0 ...`` line per cell.  Coordinates use shortest round-trip
    decimals.
    """
    lines = []
    for vert in mesh.vertices:
        lines.append("v " + " ".join(repr(float(x)) for x in vert))
    for cell in mesh.cells:
        lines.append("c " + " ".join(str(int(i)) for i in cell))
    return write_lines(lines, target)


def write_lines(lines, target):
    """Join ``lines`` with newlines, end the text with one, write it to
    ``target`` (a path, or a stream with ``write``) and return it."""
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)
    return text
