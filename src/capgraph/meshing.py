"""Simplicial meshes of the leaf domain: generation, conormals, distances, I/O.

Meshes are immutable after construction.  Supported cell types are segments
(dim 1) and triangles (dim 2); boundary facets carry a component tag and an
inward unit conormal.  A mesh computes the data derived from it once, and
keeps the data derived from a metric for the last metric only.  The disk
and annulus meshers share one deterministic
concentric-ring construction so refinement studies are reproducible.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix

__all__ = [
    "Mesh",
    "ScalarField",
    "DomainSpec",
    "MeshError",
    "MeshBudgetError",
    "MeshFormatError",
    "UnreachableVertexError",
    "cell_geometry",
    "generate_disk_mesh",
    "generate_interval_mesh",
    "geodesic_distance_field",
    "boundary_distance_field",
    "read_mesh",
    "shared_text",
    "write_mesh",
    "write_vtk",
]

MAX_VERTICES = 200_000


class MeshError(ValueError):
    pass


class MeshBudgetError(MeshError):
    """Vertex budget exceeded (target edge length too small)."""


class MeshFormatError(MeshError):
    pass


class UnreachableVertexError(MeshError):
    pass


# Reference quadrature, exact for degree 2 (cells) and degree 3 (facets).
# Barycentric points with weights summing to one; physical weights are
# weight * euclidean cell measure.
_TRI_QP = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
_TRI_QW = np.array([1 / 3, 1 / 3, 1 / 3])
_G = 0.5 / math.sqrt(3.0)
_SEG_QP = np.array([[0.5 + _G, 0.5 - _G], [0.5 - _G, 0.5 + _G]])
_SEG_QW = np.array([0.5, 0.5])
_PT_QP = np.array([[1.0]])
_PT_QW = np.array([1.0])


# Sample points per block of the walks over a mesh's samples (the sampled
# structural checks, the Jacobian's cells): one block's temporaries stay in
# cache.  Each walk reduces with min, max or one bincount, so its results do
# not depend on the blocks.
_BLOCK = 1 << 14


def _walk_blocks(n, size, visit, combine=list):
    """``combine`` (`list` by default) of the list of the results of
    ``visit`` on the slices of ``size`` consecutive indices of range(n), in
    order.  A range that fits one block is visited whole, as
    ``visit(slice(None))``, and that result is returned as it is.  So is the
    whole range's where a block raises `ValueError` (an `EvaluationError`, or
    a metric that is not finite and positive), so that the error raised is
    the one the whole range raises first."""
    if n > size:
        try:
            parts = [visit(slice(i, i + size)) for i in range(0, n, size)]
        except ValueError:
            return visit(slice(None))
        return combine(parts)
    return visit(slice(None))


def cell_geometry(vertices, cells):
    """P1 geometry of ``cells`` over ``vertices``: (measure, grads_lambda).

    measure (nc,) is the signed euclidean cell measure, positive when a
    segment runs left to right or a triangle is counter-clockwise;
    grads_lambda (nc, d+1, d) holds the gradients of the barycentric
    coordinates.  A cell of zero measure gets non-finite gradients, so
    callers check the measure.
    """
    p = vertices[cells]                        # (nc, d+1, d)
    if cells.shape[1] == 2:
        length = (p[:, 1, 0] - p[:, 0, 0])
        with np.errstate(divide="ignore"):
            g = 1.0 / length
        return length, np.stack([-g, g], axis=1)[:, :, None]
    b = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # cols = edges
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    inv = np.empty_like(b)
    gl = np.empty((len(cells), 3, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv[:, 0, 0] = b[:, 1, 1] / det
        inv[:, 0, 1] = -b[:, 0, 1] / det
        inv[:, 1, 0] = -b[:, 1, 0] / det
        inv[:, 1, 1] = b[:, 0, 0] / det
        gl[:, 1] = inv[:, 0]                   # rows of B^{-1} are grad lambda_1,2
        gl[:, 2] = inv[:, 1]
        gl[:, 0] = -gl[:, 1] - gl[:, 2]
    return 0.5 * det, gl


class Mesh:
    """Conforming simplicial mesh with tagged boundary.

    Parameters
    ----------
    dim : 1 or 2
    vertices : (nv, dim) chart coordinates
    cells : (nc, dim+1) vertex indices; orientation is fixed on construction
    boundary_facets : (nb, dim) vertex indices (single vertex per facet in 1D)
    boundary_tags : sequence of nb component names
    shape : optional ("disk", r) / ("annulus", r_in, r_out) / ("interval", a, b)
    target_h : requested edge length, if generated

    Computed once: the P1 cell and facet geometry, ``boundary_cells``,
    ``edges``, the quadrature points ``cell_points`` (nq, nc, d) and
    ``facet_points`` (nb, nqf, d) and the sorted ``boundary_vertices``.
    Data derived from a metric share one slot, the last metric's (`metric_data`).
    """

    def __init__(self, dim, vertices, cells, boundary_facets, boundary_tags,
                 shape=None, target_h=None):
        if dim not in (1, 2):
            raise MeshError(f"dim must be 1 or 2, got {dim}")
        self.dim = dim
        self.vertices = np.ascontiguousarray(vertices, dtype=float).reshape(-1, dim)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64).reshape(-1, dim + 1)
        self.boundary_facets = np.ascontiguousarray(
            boundary_facets, dtype=np.int64).reshape(-1, dim)
        self.boundary_tags = list(boundary_tags)
        self.shape = shape
        self.target_h = target_h
        if len(self.boundary_tags) != len(self.boundary_facets):
            raise MeshFormatError("one tag per boundary facet is required")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshFormatError("non-finite vertex coordinates")
        nv = len(self.vertices)
        for kind, ids in (("cell", self.cells), ("boundary facet", self.boundary_facets)):
            bad = ids[(ids < 0) | (ids >= nv)]
            if len(bad):
                raise MeshFormatError(f"{kind} vertex id {bad[0]} outside [0, {nv})")
        self._fix_orientation()
        self.boundary_cells, self.edges = self._check_conformity()
        self._build_geometry()
        self._cache = {}

    # -- construction helpers -------------------------------------------------

    def _fix_orientation(self):
        """Swap the last two ids of each cell of negative signed measure (a
        right-to-left segment, a clockwise triangle); keep the P1 geometry."""
        measure, grads = cell_geometry(self.vertices, self.cells)
        flip = measure < 0
        if np.any(flip):
            self.cells[flip, -2:] = self.cells[flip, -2:][:, ::-1]
            measure, grads = cell_geometry(self.vertices, self.cells)
        self.cell_measure, self.grads_lambda = measure, grads

    def _check_conformity(self):
        """(owning cell of each boundary facet, unique edges); `MeshFormatError`
        unless every interior facet lies in exactly two cells, a boundary
        facet in one, and the declared boundary is the once-counted facets."""
        local = [[0, 1], [1, 2], [0, 2]] if self.dim == 2 else [[0], [1]]
        facets = np.sort(self.cells[:, local], axis=2).reshape(-1, self.dim)
        declared = np.sort(self.boundary_facets, axis=1)
        base = self.num_vertices

        def keys(f):
            # vertex ids lie in [0, base): the key orders sorted facets
            # lexicographically, so the unique keys decode to sorted facets
            out = f[:, 0]
            for col in f[:, 1:].T:
                out = out * base + col
            return out

        unique, first, counts = np.unique(keys(facets), return_index=True,
                                          return_counts=True)
        bad = first[counts > 2]
        if len(bad):
            raise MeshFormatError(
                f"facet shared by more than two cells: {tuple(facets[bad.min()])}")
        boundary = unique[counts == 1]
        declared_keys = keys(declared)
        if not np.array_equal(boundary, np.unique(declared_keys)):
            missing = np.setdiff1d(boundary, declared_keys).size
            extra = np.setdiff1d(declared_keys, boundary).size
            raise MeshFormatError(
                f"declared boundary does not match mesh topology "
                f"(missing {missing}, extraneous {extra})")
        # a boundary facet has one cell: the one whose facet list holds it
        owner = first[np.searchsorted(unique, declared_keys)] // len(local)
        # in 2D the facets are the edges; a 1D cell is its own edge
        edges = (np.column_stack([unique // base, unique % base]) if self.dim == 2
                 else self.cells.copy())
        return owner.astype(np.int64), edges

    def _build_geometry(self):
        verts, cells = self.vertices, self.cells
        if self.dim == 1 and np.any(self.cell_measure <= 0):
            raise MeshFormatError("degenerate segment cell")
        if self.dim == 2 and np.any(self.cell_measure < 0.5e-300):   # det < 1e-300
            raise MeshFormatError("degenerate or inverted triangle cell")

        # boundary facet geometry: euclidean measure and inward unit normal,
        # pointing from the facet towards the owner cell's off-facet vertex
        facets = self.boundary_facets
        opp = verts[cells[self.boundary_cells].sum(axis=1) - facets.sum(axis=1)]
        if self.dim == 1:
            self.facet_measure = np.ones(len(facets))
            self.inward_normals = np.sign(opp - verts[facets[:, 0]])
        else:
            a, b = verts[facets[:, 0]], verts[facets[:, 1]]
            e = b - a
            self.facet_measure = np.hypot(e[:, 0], e[:, 1])
            n = np.column_stack([e[:, 1], -e[:, 0]]) / self.facet_measure[:, None]
            outward = np.einsum("ki,ki->k", n, opp - 0.5 * (a + b)) < 0
            self.inward_normals = np.where(outward[:, None], -n, n)

        # quadrature rules (reference barycentric points, weights sum to one)
        # and their points, where the weak form is integrated and validated
        self.cell_quad = (_SEG_QP, _SEG_QW) if self.dim == 1 else (_TRI_QP, _TRI_QW)
        self.facet_quad = (_PT_QP, _PT_QW) if self.dim == 1 else (_SEG_QP, _SEG_QW)
        # accumulated over the barycentric index: bit for bit the einsums
        # "qa,cad->qcd" and "qa,fad->fqd", in half their time
        (qp, _), (fqp, _) = self.cell_quad, self.facet_quad
        cv, fv = verts[cells], verts[facets]
        self.cell_points = sum(qp[:, a, None, None] * cv[None, :, a] for a in range(qp.shape[1]))
        self.facet_points = sum(fqp[:, a, None] * fv[:, None, a] for a in range(fqp.shape[1]))

        # longest edge
        p, q = self.edges.T
        self.h_max = float(np.max(np.linalg.norm(verts[q] - verts[p], axis=1)))

        mask = np.zeros(len(verts), dtype=bool)
        mask[self.boundary_facets.ravel()] = True
        self.is_boundary_vertex = mask
        self.boundary_vertices = np.flatnonzero(mask)

    # -- public surface --------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def sigma_conormals(self, metric):
        """Inward unit conormals of the boundary facets in the sigma metric.

        The conormal annihilates the facet tangent (sigma-orthogonality) and
        has unit sigma length.
        """
        c2 = metric.conformal(self.facet_midpoints()) ** 2   # sigma = c^2 I
        v = (1.0 / c2)[:, None] * self.inward_normals     # sigma^{-1} n, n a covector
        # a sum from 0.0 in np.einsum's order: its bits, signed zeros included
        norm = np.sqrt(sum(((v[:, i] * c2) * v[:, i] for i in range(v.shape[1])), 0.0))
        return v / norm[:, None]

    def facet_midpoints(self):
        return self.vertices[self.boundary_facets].mean(axis=1)

    def edge_graph(self, weights):
        """Sparse symmetric graph with entry ``weights[k]`` at both ends of edge k."""
        p, q = self.edges.T
        return coo_matrix((np.tile(weights, 2), (np.r_[p, q], np.r_[q, p])),
                          shape=(self.num_vertices,) * 2).tocsr()

    def metric_data(self, metric, key, build):
        """``build(self, metric)``, kept under ``key`` until another metric is
        asked for: a caller that builds a fresh metric per solve on one mesh
        must not pile up data."""
        slot = self._cache.get("metric")
        if slot is None or slot[0] is not metric:
            slot = self._cache["metric"] = (metric, {})
        data = slot[1]
        if key not in data:
            data[key] = build(self, metric)
        return data[key]

    def sigma_edge_graph(self, metric):
        """Sparse symmetric graph of sigma edge lengths (in `metric_data`)."""
        return self.metric_data(metric, "sigma_graph", _sigma_edge_graph)


def _sigma_edge_graph(mesh, metric):
    p, q = mesh.edges[:, 0], mesh.edges[:, 1]
    t = mesh.vertices[q] - mesh.vertices[p]
    c2 = metric.conformal(0.5 * (mesh.vertices[p] + mesh.vertices[q])) ** 2
    # a sum from 0.0 in np.einsum's order: its bits, signed zeros included
    return mesh.edge_graph(np.sqrt(sum(((t[:, i] * c2) * t[:, i]
                                        for i in range(t.shape[1])), 0.0)))


@dataclass
class ScalarField:
    """Piecewise-linear nodal field over a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if len(self.values) != self.mesh.num_vertices:
            raise ValueError("one nodal value per vertex is required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("nodal values must be finite")

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.num_vertices))


# ---------------------------------------------------------------------------
# Generators


def _check_budget(h, num_vertices):
    """`MeshBudgetError` when edge length ``h`` needs more vertices than the
    budget, or an unbounded number."""
    if not num_vertices <= MAX_VERTICES:
        raise MeshBudgetError(f"edge length {h} needs ~{num_vertices} vertices "
                              f"(budget {MAX_VERTICES})")


def _ring_count(h, width):
    """Rings of spacing ~h across ``width``, at least one; each holds at least
    6 vertices, so the budget is checked before the int, ``width / h = inf``
    included."""
    rings = width / h
    _check_budget(h, 6 * rings)
    return max(1, int(round(rings)))


def generate_disk_mesh(radius, h, inner_radius=None):
    """Triangulated disk (or annulus) centred at the origin.

    Concentric rings at spacing ~h; ring k of the disk carries 6k vertices so
    triangles stay near-equilateral, a ring of the annulus about 2 pi r / h.
    Boundary facets are tagged "outer" (and "inner" for an annulus).
    Deterministic for fixed inputs.
    """
    if not (radius > 0 and 0 < h < radius):
        raise MeshError("need radius > 0 and 0 < h < radius")
    disk = inner_radius is None
    if disk:
        k_rings = _ring_count(h, radius)
        _check_budget(h, 1 + 3 * k_rings * (k_rings + 1))
        k = np.arange(1, k_rings + 1)
        radii, counts = radius * k / k_rings, 6 * k
    else:
        if not 0 < inner_radius < radius:
            raise MeshError("need 0 < inner_radius < radius")
        k_rings = _ring_count(h, radius - inner_radius)
        # ring k holds max(6, round(2 pi r_k / h)) vertices and the r_k average
        # (inner_radius + radius) / 2, so this lower bound on the vertex count
        # needs no array; the exact count is checked once the counts exist
        _check_budget(h, (k_rings + 1) * max(
            6, int(np.pi * (inner_radius + radius) / h - 0.5)))
        radii = inner_radius + (radius - inner_radius) * np.arange(k_rings + 1) / k_rings
        counts = np.maximum(6, np.rint(2 * np.pi * radii / h).astype(np.int64))
        _check_budget(h, int(counts.sum()))
    # ring k: counts[k] vertices at radius radii[k] by increasing angle from
    # angle zero, numbered on from the disk's centre vertex 0
    starts = int(disk) + np.cumsum(counts) - counts
    ring = np.repeat(np.arange(len(counts)), counts)
    index = int(disk) + np.arange(counts.sum()) - starts[ring]    # position in ring
    th = 2.0 * np.pi * index / counts[ring]
    vertices = np.column_stack([radii[ring] * np.cos(th), radii[ring] * np.sin(th)])
    # band b between rings b and b + 1 merges their angle keys (i+1)/n, ties to
    # ring b: each key's vertex, its ring successor and the other ring's
    # current vertex (rank in the band less the position) make one triangle
    inner, outer = ring < len(counts) - 1, ring > 0
    band = np.concatenate([ring[inner], ring[outer] - 1])
    own = np.concatenate([ring[inner], ring[outer]])
    pos = np.concatenate([index[inner], index[outer]])
    order = np.lexsort((own - band, (pos + 1) / counts[own], band))
    band, own, pos = band[order], own[order], pos[order]
    other, sizes = 2 * band + 1 - own, counts[:-1] + counts[1:]
    rank = np.arange(len(band)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cells = np.column_stack([starts[own] + pos, starts[own] + (pos + 1) % counts[own],
                             starts[other] + (rank - pos) % counts[other]])
    loops = [(len(counts) - 1, "outer")] + ([] if disk else [(0, "inner")])
    ids = [starts[k] + np.arange(counts[k]) for k, _ in loops]
    facets = np.vstack([np.column_stack([i, np.roll(i, -1)]) for i in ids])
    tags = [tag for k, tag in loops for _ in range(counts[k])]
    if disk:                                  # the centre and its 6-triangle fan
        j = np.arange(6)
        vertices = np.vstack([np.zeros((1, 2)), vertices])
        cells = np.vstack([np.column_stack([0 * j, 1 + j, 1 + (j + 1) % 6]), cells])
    shape = ("disk", radius) if disk else ("annulus", inner_radius, radius)
    return Mesh(2, vertices, cells, facets, tags, shape=shape, target_h=h)


def generate_interval_mesh(a, b, m):
    """Uniform segment mesh of (a, b) with m cells; conormals +1 at a, -1 at b."""
    if not (a < b):
        raise MeshError("need a < b")
    if m < 2:
        raise MeshError("need at least 2 cells")
    # later steps square widths (sigma edge lengths, height and oracle bounds)
    if not math.isfinite((b - a) * (b - a)):
        raise MeshError(f"interval width b - a = {b - a:.6g} overflows when squared")
    if m + 1 > MAX_VERTICES:
        raise MeshBudgetError("cell count exceeds the vertex budget")
    vertices = np.linspace(a, b, m + 1)[:, None]
    cells = np.column_stack([np.arange(m), np.arange(1, m + 1)])
    facets = np.array([[0], [m]])
    return Mesh(1, vertices, cells, facets, ["left", "right"],
                shape=("interval", float(a), float(b)), target_h=(b - a) / m)


# ---------------------------------------------------------------------------
# Distance fields (first-order: shortest paths on the sigma-weighted edge graph).
# scipy.sparse.csgraph is imported by `_graph_distance`, so it loads on the
# first distance field, not with the package.


def _graph_distance(mesh, metric, sources, min_only=False):
    """Graph distance in sigma edge lengths from the vertex or vertices
    ``sources``, with ``min_only`` from the nearest of them."""
    from scipy.sparse.csgraph import dijkstra

    g = mesh.sigma_edge_graph(metric)
    d = dijkstra(g, directed=False, indices=sources, min_only=min_only)
    if not np.all(np.isfinite(d)):
        raise UnreachableVertexError("mesh edge graph is disconnected")
    return ScalarField(mesh, d)


def geodesic_distance_field(mesh, metric, x0):
    """Graph distance from vertex ``x0`` in sigma edge lengths."""
    if not 0 <= x0 < mesh.num_vertices:
        raise MeshError(f"vertex {x0} out of range")
    return _graph_distance(mesh, metric, x0)


def boundary_distance_field(mesh, metric):
    """Graph distance to the nearest boundary vertex; exactly zero on the
    boundary.  Computed once per mesh and metric (`Mesh.metric_data`); each
    call returns a new field, so a caller may edit its values."""
    if len(mesh.boundary_vertices) == 0:
        raise MeshError("mesh has no boundary")
    d = mesh.metric_data(metric, "boundary_distance", _boundary_distance)
    return ScalarField(mesh, d.copy())


def _boundary_distance(mesh, metric):
    return _graph_distance(mesh, metric, mesh.boundary_vertices, min_only=True).values


# ---------------------------------------------------------------------------
# Domain descriptor (shared by the CLI and refinement studies)


@dataclass
class DomainSpec:
    """Buildable description of the computational domain.

    kind: "disk" | "annulus" | "interval" | "mesh-file".  ``build(level)``
    halves the target edge length (or doubles the cell count) per level.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def build(self, level=0):
        scale = 2 ** level
        if self.kind == "disk":
            return generate_disk_mesh(self.params["radius"], self.params["h"] / scale)
        if self.kind == "annulus":
            return generate_disk_mesh(self.params["radius"], self.params["h"] / scale,
                                      inner_radius=self.params["inner_radius"])
        if self.kind == "interval":
            return generate_interval_mesh(self.params["a"], self.params["b"],
                                          int(self.params["m"] * scale))
        if self.kind == "mesh-file":
            if level != 0:
                raise MeshError("a mesh file cannot be refined")
            return read_mesh(self.params["path"])
        raise MeshError(f"unknown domain kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Plain-text mesh format and legacy VTK export


# The writers compose their files from text sections: the rows of a block of
# numbers joined by newlines, each entry its ``repr`` (the shortest round-trip
# form of a float, the digits of an integer) and entries separated by spaces.
# A float's repr holds no space or comma, so the one section of vertex rows
# "x1 x2" also gives the CSV fields (spaces to commas) and the VTK points (zero
# coordinates appended).


def _format_section(block):
    """The rows of the 1D or 2D array ``block`` as one text section ("" for none)."""
    block = np.asarray(block)
    if len(block) == 0:
        return ""
    rows = block.reshape(len(block), -1)
    row = " ".join(["%r"] * rows.shape[1])
    return "\n".join([row] * len(rows)) % tuple(rows.ravel().tolist())


class _MeshText:
    """Text sections of one mesh and of nodal arrays on it, each built on first
    use.  An array's section is kept under the array's identity, together with
    the array, so the writers of one `shared_text` block format each value once."""

    def __init__(self, mesh):
        self.mesh = mesh
        self._sections = {}

    def _section(self, key, array, block):
        if key not in self._sections:
            self._sections[key] = (array, _format_section(block))
        return self._sections[key][1]

    def vertices(self):
        return self._section("vertices", None, self.mesh.vertices)

    def cells(self):
        return self._section("cells", None, self.mesh.cells)

    def field(self, values):
        return self._section(id(values), values,
                             np.asarray(values, dtype=float).ravel())


def _mesh_text(mesh):
    """The text sections of ``mesh``: those of the enclosing `shared_text`
    block, else a fresh set."""
    return mesh._cache.get("text") or _MeshText(mesh)


@contextlib.contextmanager
def shared_text(mesh):
    """Inside the block, the writers share one set of text sections of ``mesh``
    and of the nodal arrays they are given, so each value is formatted once;
    the sections are dropped on exit."""
    if "text" in mesh._cache:              # an enclosing block owns the sections
        yield
        return
    mesh._cache["text"] = _MeshText(mesh)
    try:
        yield
    finally:
        del mesh._cache["text"]


def _write_sections(path, sections):
    """Write each non-empty text section of ``sections`` to ``path``, followed by
    a newline; a lazy iterable lets each section go once it is written."""
    with open(path, "w") as f:
        for section in sections:
            if section:
                f.write(section)
                f.write("\n")


def write_mesh(mesh, path):
    """Write the VERTICES / CELLS / BOUNDARY plain-text format (0-based ids)."""
    text = _mesh_text(mesh)
    boundary = _format_section(mesh.boundary_facets).split("\n")
    _write_sections(path, [
        f"DIM {mesh.dim}\nVERTICES {mesh.num_vertices}", text.vertices(),
        f"CELLS {mesh.num_cells}", text.cells(),
        f"BOUNDARY {len(mesh.boundary_facets)}",
        "\n".join([f"{row} {tag}" for row, tag in zip(boundary, mesh.boundary_tags)])])


def read_mesh(path):
    """Read the plain-text mesh format written by `write_mesh`; a file that
    cannot be read or parsed raises `MeshFormatError`."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    it = iter(tokens)

    def expect(keyword):
        row = next(it, None)
        if row is None or row[0] != keyword:
            raise MeshFormatError(f"expected {keyword} section")
        return row

    def rows(kind, count, widths):
        """The next ``count`` rows, each of one of ``widths`` entries."""
        out = [next(it) for _ in range(count)]
        for k, row in enumerate(out):
            if len(row) not in widths:
                raise MeshFormatError(
                    f"malformed mesh file {path}: {kind} row {k + 1} has {len(row)} "
                    f"entries, DIM {dim} needs {' or '.join(map(str, widths))}")
        return out

    try:
        dim = int(expect("DIM")[1])
        nv = int(expect("VERTICES")[1])
        vertices = [[float(x) for x in row] for row in rows("vertex", nv, [dim])]
        nc = int(expect("CELLS")[1])
        cells = [[int(x) for x in row] for row in rows("cell", nc, [dim + 1])]
        nb = int(expect("BOUNDARY")[1])
        # a boundary row is the facet's vertex ids and an optional tag
        boundary = rows("boundary", nb, [dim, dim + 1])
        facets = [[int(x) for x in row[:dim]] for row in boundary]
        tags = [row[dim] if len(row) > dim else "boundary" for row in boundary]
    except MeshFormatError:
        raise
    except (ValueError, IndexError, StopIteration) as exc:
        raise MeshFormatError(f"malformed mesh file {path}: {exc!r}") from exc
    return Mesh(dim, vertices, cells, np.array(facets, dtype=np.int64), tags)


def write_vtk(mesh, path, point_data=None):
    """Legacy ASCII VTK unstructured grid with optional nodal scalar fields."""
    text = _mesh_text(mesh)
    nv, nc, npc = mesh.num_vertices, mesh.num_cells, mesh.dim + 1
    pad = " 0.0" * (3 - mesh.dim)

    def sections():
        yield ("# vtk DataFile Version 3.0\ncapgraph export\nASCII\n"
               f"DATASET UNSTRUCTURED_GRID\nPOINTS {nv} double")
        yield text.vertices().replace("\n", pad + "\n") + pad
        yield f"CELLS {nc} {nc * (npc + 1)}"
        yield f"{npc} " + text.cells().replace("\n", f"\n{npc} ")
        yield f"CELL_TYPES {nc}"
        yield "\n".join([str(3 if mesh.dim == 1 else 5)] * nc)
        if point_data:
            yield f"POINT_DATA {nv}"
            for name, values in point_data.items():
                yield f"SCALARS {name} double 1\nLOOKUP_TABLE default"
                yield text.field(values)

    _write_sections(path, sections())
