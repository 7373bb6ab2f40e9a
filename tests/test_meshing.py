import gc
import hashlib
import weakref

import numpy as np
import pytest
from scipy.sparse import issparse

import capgraph as cg
from capgraph.meshing import (
    DomainSpec,
    MeshBudgetError,
    MeshError,
    MeshFormatError,
    read_mesh,
    shared_text,
    write_mesh,
    write_vtk,
)


def test_disk_containment():
    mesh = cg.generate_disk_mesh(1.0, 0.5)
    assert np.max(np.linalg.norm(mesh.vertices, axis=1)) <= 1.0 + 1e-9


def test_disk_area_and_refinement():
    areas = {}
    for h in (0.2, 0.1):
        mesh = cg.generate_disk_mesh(1.0, h)
        areas[h] = float(np.sum(mesh.cell_measure))
    assert abs(areas[0.1] - np.pi) / np.pi < 0.02
    # inscribed-polygon deficit shrinks quadratically
    ratio = (np.pi - areas[0.2]) / (np.pi - areas[0.1])
    assert 3.0 < ratio < 5.0


def test_disk_boundary_facets_double_under_refinement():
    nb = {h: len(cg.generate_disk_mesh(1.0, h).boundary_facets) for h in (0.2, 0.1)}
    assert nb[0.1] >= 2 * nb[0.2]


def test_annulus_two_boundary_components():
    mesh = cg.generate_disk_mesh(1.0, 0.1, inner_radius=0.5)
    tags = set(mesh.boundary_tags)
    assert tags == {"outer", "inner"}
    rad = np.linalg.norm(mesh.facet_midpoints(), axis=1)
    for k, tag in enumerate(mesh.boundary_tags):
        assert (rad[k] > 0.75) == (tag == "outer")


# sha256 of the vertices, cells, boundary facets, inward normals and tags of
# generated meshes: refactoring the generators must not move a bit
MESH_DIGESTS = {
    (1.0, 0.3, None): "e322b4d7158ae1cf261b26224af38b1e1aab661526c5d200458478551d149aa5",
    (1.0, 0.1, None): "68afde878557a880cb4b8dd8d69b32222dac5537a1dc0a2b22f792f7db02d016",
    (1.0, 0.025, None): "ba1738ad9d9e161bcbf33848a7cf014cc3ab71d06b4eddc3a858dae34db3ac6e",
    (1.0, 0.1, 0.4): "71a101d1c6f8b66ba6815a73085955bb520e6f442a5a1b32a66ae5429fc30799",
    (1.0, 0.025, 0.4): "a6e45d9b8eae6d2619b7a1ceed74ec36b59dd6ff8cd60b3466f9d24c37abb478",
    (2.0, 0.07, 0.5): "a94a689749fc95a18d3184d79d2487ddda3abb3d53ea97714b05ac32853fad08",
}


@pytest.mark.parametrize("radius,h,inner_radius", MESH_DIGESTS, ids=str)
def test_generated_mesh_bits_are_pinned(radius, h, inner_radius):
    mesh = cg.generate_disk_mesh(radius, h, inner_radius=inner_radius)
    digest = hashlib.sha256()
    for array in (mesh.vertices, mesh.cells, mesh.boundary_facets, mesh.inward_normals):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(" ".join(mesh.boundary_tags).encode())
    assert digest.hexdigest() == MESH_DIGESTS[radius, h, inner_radius]


def _ring_walk(ids_a, ids_b):
    # the band triangulation as a walk over both rings, always advancing the
    # ring whose next vertex comes first in angle (ties to ids_a)
    na, nb = len(ids_a), len(ids_b)
    tris, i, j = [], 0, 0
    while i < na or j < nb:
        if ((i + 1) / na if i < na else np.inf) <= ((j + 1) / nb if j < nb else np.inf):
            tris.append((ids_a[i % na], ids_a[(i + 1) % na], ids_b[j % nb]))
            i += 1
        else:
            tris.append((ids_b[j % nb], ids_b[(j + 1) % nb], ids_a[i % na]))
            j += 1
    return tris


@pytest.mark.parametrize("h,inner_radius", [
    (0.9, None), (0.5, None), (0.3, None), (0.2, None), (0.07, None),
    (0.9, 0.01), (0.3, 0.4), (0.25, 0.4), (0.2, 0.5), (0.1, 0.4), (0.05, 0.1), (0.3, 0.7),
])
def test_generated_cells_match_the_ring_walk(h, inner_radius):
    mesh = cg.generate_disk_mesh(1.0, h, inner_radius=inner_radius)
    # rings are numbered outwards, the disk's centre first
    _, counts = np.unique(np.round(np.hypot(*mesh.vertices.T), 9), return_counts=True)
    rings = np.split(np.arange(mesh.num_vertices), np.cumsum(counts)[:-1])
    cells = []
    if inner_radius is None:
        r1, rings = rings[1], rings[1:]
        cells += [(0, r1[j], r1[(j + 1) % 6]) for j in range(6)]
    for a, b in zip(rings, rings[1:]):
        cells += _ring_walk(a, b)
    cells = np.array(cells)
    p = mesh.vertices[cells]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    clockwise = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    cells[clockwise] = cells[clockwise][:, [0, 2, 1]]
    np.testing.assert_array_equal(mesh.cells, cells)
    loops = [rings[-1]] + ([] if inner_radius is None else [rings[0]])
    facets = [(ids[j], ids[(j + 1) % len(ids)]) for ids in loops for j in range(len(ids))]
    np.testing.assert_array_equal(mesh.boundary_facets, facets)


def _facet_geometry_reference(mesh):
    # measure and inward normal facet by facet, towards the owner's third vertex
    measure, normals = np.ones(len(mesh.boundary_facets)), []
    for k, f in enumerate(mesh.boundary_facets):
        cell = mesh.cells[mesh.boundary_cells[k]]
        opp = mesh.vertices[[v for v in cell if v not in f][0]]
        if mesh.dim == 1:
            normals.append(np.sign(opp - mesh.vertices[f[0]]))
            continue
        a, b = mesh.vertices[f[0]], mesh.vertices[f[1]]
        e = b - a
        measure[k] = np.hypot(*e)
        n = np.array([e[1], -e[0]]) / measure[k]
        normals.append(-n if n @ (opp - 0.5 * (a + b)) < 0 else n)
    return measure, np.array(normals)


MESH_BUILDS = pytest.mark.parametrize("build", [
    lambda: cg.generate_disk_mesh(1.0, 0.1),
    lambda: cg.generate_disk_mesh(2.0, 0.07, inner_radius=0.5),
    lambda: cg.generate_interval_mesh(-0.3, 1.7, 9),
    lambda: cg.Mesh(1, [[1.0], [0.5], [0.0]], [[0, 1], [1, 2]], [[2], [0]], ["a", "b"]),
    # facets listed against the cells' orientation, and in reverse
    lambda: cg.Mesh(2, SQUARE, [[0, 1, 2], [0, 2, 3]], np.array(SQUARE_FACETS)[::-1, ::-1],
                    ["outer"] * 4),
    lambda: cg.Mesh(2, SQUARE, [[0, 2, 1], [0, 3, 2]], SQUARE_FACETS, ["outer"] * 4),
], ids=["disk", "annulus", "interval", "reversed-interval", "reversed-square",
        "clockwise-square"])


@MESH_BUILDS
def test_facet_geometry_matches_the_per_facet_loop(build):
    mesh = build()
    measure, normals = _facet_geometry_reference(mesh)
    np.testing.assert_array_equal(mesh.facet_measure, measure)
    np.testing.assert_array_equal(mesh.inward_normals, normals)
    np.testing.assert_array_equal(np.signbit(mesh.inward_normals), np.signbit(normals))


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@MESH_BUILDS
def test_quadrature_points_match_the_reference_einsums(build):
    # the points the assembly integrates at; in (cell, point) order they are
    # bit for bit the (cell, point) einsum of the same rule
    mesh = build()
    bary, fbary = mesh.cell_quad[0], mesh.facet_quad[0]
    cells, facets = mesh.vertices[mesh.cells], mesh.vertices[mesh.boundary_facets]
    _assert_same_bits(mesh.cell_points, np.einsum("qa,cad->qcd", bary, cells))
    _assert_same_bits(mesh.cell_points.transpose(1, 0, 2),
                      np.einsum("qa,cad->cqd", bary, cells))
    _assert_same_bits(mesh.facet_points, np.einsum("qa,fad->fqd", fbary, facets))


@MESH_BUILDS
def test_boundary_vertices_are_the_facet_vertices(build):
    mesh = build()
    np.testing.assert_array_equal(mesh.boundary_vertices, np.unique(mesh.boundary_facets))
    np.testing.assert_array_equal(mesh.is_boundary_vertex[mesh.boundary_vertices], True)
    assert np.count_nonzero(mesh.is_boundary_vertex) == len(mesh.boundary_vertices)


def test_clockwise_and_right_to_left_cells_are_reversed():
    # the last two ids of each cell of negative measure are swapped; the
    # other cells keep their order
    square = cg.Mesh(2, SQUARE, [[0, 2, 1], [0, 2, 3]], SQUARE_FACETS, ["outer"] * 4)
    np.testing.assert_array_equal(square.cells, [[0, 1, 2], [0, 2, 3]])
    interval = cg.Mesh(1, [[0.0], [0.5], [1.0]], [[1, 0], [1, 2]], [[0], [2]], ["a", "b"])
    np.testing.assert_array_equal(interval.cells, [[0, 1], [1, 2]])
    for mesh in (square, interval):
        assert np.all(mesh.cell_measure > 0)


def test_interval_mesh_basics():
    mesh = cg.generate_interval_mesh(0.0, 1.0, 4)
    np.testing.assert_allclose(mesh.vertices.ravel(), [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(mesh.inward_normals.ravel(), [1.0, -1.0])
    mesh = cg.generate_interval_mesh(-2.0, 3.0, 10)
    np.testing.assert_allclose(mesh.cell_measure, 0.5)


def test_generator_input_validation():
    with pytest.raises(MeshError):
        cg.generate_disk_mesh(1.0, 2.0)
    with pytest.raises(MeshError):
        cg.generate_disk_mesh(-1.0, 0.1)
    with pytest.raises(MeshBudgetError):
        cg.generate_disk_mesh(1.0, 1e-4)
    # the annulus checks its budget before it builds a ring
    with pytest.raises(MeshBudgetError, match="edge length 1e-09 needs"):
        cg.generate_disk_mesh(1.0, 1e-9, inner_radius=0.4)
    with pytest.raises(MeshError):
        cg.generate_interval_mesh(1.0, 0.0, 4)
    with pytest.raises(MeshError):
        cg.generate_interval_mesh(0.0, 1.0, 1)


def test_conormals_sigma_unit_and_inward(disk_01):
    metric = cg.MetricField.radial_warp(2, gamma="1 + r^2", sigma_conformal="1 + 0.5*r^2")
    nu = disk_01.sigma_conormals(metric)
    mids = disk_01.facet_midpoints()
    sig = np.eye(2) * (metric.conformal(mids) ** 2)[:, None, None]
    norms = np.einsum("ki,kij,kj->k", nu, sig, nu)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    # an epsilon step along nu moves strictly into the disk
    eps = 1e-6
    assert np.all(np.linalg.norm(mids + eps * nu, axis=1)
                  < np.linalg.norm(mids, axis=1))


def test_orientation_positive_measures(disk_01):
    assert np.all(disk_01.cell_measure > 0)


def test_geodesic_distance(disk_01, euclid2):
    d = cg.geodesic_distance_field(disk_01, euclid2, 0).values
    assert d[0] == 0.0
    # vertex 0 is the center; the nearest boundary vertex sits one radius away
    assert abs(np.min(d[disk_01.boundary_vertices]) - 1.0) < 0.03
    # 1-Lipschitz along edges with sigma lengths
    p, q = disk_01.edges[:, 0], disk_01.edges[:, 1]
    lengths = np.linalg.norm(disk_01.vertices[p] - disk_01.vertices[q], axis=1)
    assert np.all(np.abs(d[p] - d[q]) <= lengths + 1e-12)


def test_geodesic_triangle_inequality(disk_01, euclid2):
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rng.integers(0, disk_01.num_vertices, size=2)
        da = cg.geodesic_distance_field(disk_01, euclid2, int(a)).values
        db = cg.geodesic_distance_field(disk_01, euclid2, int(b)).values
        assert np.all(da <= da[b] + db + 1e-12)


def test_boundary_distance(disk_01, euclid2, euclid1):
    d = cg.boundary_distance_field(disk_01, euclid2).values
    assert np.max(np.abs(d[disk_01.boundary_vertices])) == 0.0
    assert abs(np.max(d) - 1.0) < 0.03
    interval = cg.generate_interval_mesh(0.0, 1.0, 4)
    d1 = cg.boundary_distance_field(interval, euclid1).values
    assert d1[2] == pytest.approx(0.5)


def test_one_boundary_distance_solve_per_mesh_and_metric(monkeypatch):
    # the distances are kept with the mesh's metric data: one dijkstra per
    # mesh and metric, the bits of a direct solve, and a new array per call,
    # so that a caller's edit does not reach the next one
    import scipy.sparse.csgraph as csgraph
    real, calls = csgraph.dijkstra, []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counted)
    mesh = cg.generate_disk_mesh(1.0, 0.2)
    metric = cg.MetricField.radial_warp(2, "1 + r^2", "1 + 0.2*x1^2")
    want = real(mesh.sigma_edge_graph(metric), directed=False,
                indices=mesh.boundary_vertices, min_only=True)
    cg.boundary_distance_field(mesh, metric).values[:] = -1.0
    fields = [cg.boundary_distance_field(mesh, metric) for _ in range(3)]
    assert len(calls) == 1
    assert all(f.values.tobytes() == want.tobytes() for f in fields)
    cg.boundary_distance_field(mesh, cg.MetricField.euclidean(2))
    assert len(calls) == 2


def test_one_sigma_graph_per_mesh():
    # a fresh metric per call replaces the data of the last one in the mesh's
    # one last-metric slot instead of adding to it; the sigma graph and the
    # assembly context share that slot
    from capgraph import assembly
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    refs = []
    for _ in range(4):
        metric = cg.MetricField.radial_warp(2, gamma="1 + r^2")
        cg.boundary_distance_field(mesh, metric)
        graph, ctx = mesh.sigma_edge_graph(metric), assembly._context(mesh, metric)
        assert issparse(graph)
        refs.append([weakref.ref(o) for o in (metric, graph, ctx)])
    del graph, ctx
    gc.collect()
    alive = [[r() is not None for r in row] for row in refs]
    assert alive == [[False] * 3] * 3 + [[True] * 3]
    assert mesh.sigma_edge_graph(metric) is refs[-1][1]()
    assert assembly._context(mesh, metric) is refs[-1][2]()


def test_scalar_field_validation(disk_01):
    with pytest.raises(ValueError):
        cg.ScalarField(disk_01, np.zeros(3))
    bad = np.zeros(disk_01.num_vertices)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        cg.ScalarField(disk_01, bad)


def test_mesh_text_round_trip(tmp_path):
    mesh = cg.generate_disk_mesh(1.0, 0.3, inner_radius=0.4)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.cells, mesh.cells)
    np.testing.assert_array_equal(back.boundary_facets, mesh.boundary_facets)
    assert back.boundary_tags == mesh.boundary_tags


def test_mesh_conformity_errors(tmp_path):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 4)
    path = tmp_path / "broken.txt"
    write_mesh(mesh, path)
    text = path.read_text().replace("BOUNDARY 2\n0 left\n", "BOUNDARY 2\n1 left\n")
    path.write_text(text)
    with pytest.raises(MeshFormatError):
        read_mesh(path)


def test_vtk_export(tmp_path, disk_01):
    path = tmp_path / "mesh.vtk"
    write_vtk(disk_01, path, point_data={"u": np.zeros(disk_01.num_vertices)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile")
    for keyword in ("POINTS", "CELLS", "CELL_TYPES", "POINT_DATA", "SCALARS u"):
        assert keyword in text


def test_domain_spec_levels():
    disk = DomainSpec("disk", {"radius": 1.0, "h": 0.2})
    assert disk.build(1).target_h == pytest.approx(0.1)
    interval = DomainSpec("interval", {"a": 0.0, "b": 1.0, "m": 16})
    assert interval.build(1).num_cells == 32


def test_generators_deterministic():
    a = cg.generate_disk_mesh(1.0, 0.17, inner_radius=0.4)
    b = cg.generate_disk_mesh(1.0, 0.17, inner_radius=0.4)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.cells, b.cells)
    np.testing.assert_array_equal(a.boundary_facets, b.boundary_facets)


def test_read_mesh_missing_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("DIM 1\nVERTICES 2\n0.0\n1.0\n")
    with pytest.raises(MeshFormatError, match="CELLS"):
        read_mesh(path)


def _boundary_cells_reference(mesh):
    # the per-cell dict loop that the vectorized conformity check replaced
    owner = {}
    for c, cell in enumerate(mesh.cells):
        subs = ([(cell[0], cell[1]), (cell[1], cell[2]), (cell[0], cell[2])]
                if mesh.dim == 2 else [(cell[0],), (cell[1],)])
        for f in subs:
            owner[tuple(sorted(f))] = c
    return np.array([owner[tuple(sorted(f))] for f in mesh.boundary_facets])


@pytest.mark.parametrize("build", [
    lambda: cg.generate_disk_mesh(1.0, 0.1),
    lambda: cg.generate_disk_mesh(1.0, 0.1, inner_radius=0.5),
    lambda: cg.generate_interval_mesh(0.0, 1.0, 16),
], ids=["disk", "annulus", "interval"])
def test_boundary_cells_match_dict_loop(build):
    mesh = build()
    np.testing.assert_array_equal(mesh.boundary_cells, _boundary_cells_reference(mesh))


def test_facet_in_three_cells_is_rejected():
    # edges {0, 1} and {2, 5} each lie in three cells; the message names the
    # one met first in cell order, {2, 5}
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0],
             [1.5, 1.0], [1.0, 2.0], [1.0, 0.5], [2.0, 2.0]]
    cells = [[2, 5, 6], [0, 1, 2], [0, 1, 3], [2, 5, 7], [1, 0, 4], [5, 2, 8]]
    facets = [[0, 2]]
    with pytest.raises(MeshFormatError, match="more than two cells") as err:
        cg.Mesh(2, verts, cells, facets, ["outer"])
    shared = tuple(np.array([2, 5], dtype=np.int64))
    assert str(err.value) == f"facet shared by more than two cells: {shared}"


def test_dropped_boundary_facet_is_reported():
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    with pytest.raises(MeshFormatError, match=r"\(missing 1, extraneous 0\)"):
        cg.Mesh(2, mesh.vertices, mesh.cells, mesh.boundary_facets[1:],
                mesh.boundary_tags[1:])


def _sorted_unique_edges(cells):
    # the edge list before edges were decoded from the conformity keys
    e = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [0, 2]]])
    return np.unique(np.sort(e, axis=1), axis=0)


@pytest.mark.parametrize("inner_radius", [None, 0.4], ids=["disk", "annulus"])
def test_edges_are_the_sorted_unique_cell_edges(inner_radius):
    mesh = cg.generate_disk_mesh(1.0, 0.1, inner_radius=inner_radius)
    np.testing.assert_array_equal(mesh.edges, _sorted_unique_edges(mesh.cells))
    assert mesh.edges.dtype == np.int64


def test_edges_of_a_permuted_mesh_file(tmp_path):
    mesh = cg.generate_disk_mesh(1.0, 0.2, inner_radius=0.3)
    rng = np.random.default_rng(5)
    new_id = rng.permutation(mesh.num_vertices)          # old vertex i -> new_id[i]
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    cells = new_id[mesh.cells][rng.permutation(mesh.num_cells)]
    cells = np.array([np.roll(c, k) for c, k in zip(cells, rng.integers(0, 3, len(cells)))])
    permuted = cg.Mesh(2, vertices, cells, new_id[mesh.boundary_facets][:, ::-1],
                       mesh.boundary_tags)
    write_mesh(permuted, tmp_path / "permuted.txt")
    back = read_mesh(tmp_path / "permuted.txt")
    np.testing.assert_array_equal(back.edges, _sorted_unique_edges(back.cells))
    assert len(back.edges) == len(mesh.edges)


def test_interval_edges_are_its_cells():
    mesh = cg.generate_interval_mesh(0.0, 1.0, 5)
    np.testing.assert_array_equal(mesh.edges, mesh.cells)
    assert mesh.edges is not mesh.cells


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_FACETS = [[0, 1], [1, 2], [2, 3], [3, 0]]


@pytest.mark.parametrize("cells,facets,message", [
    ([[0, 1, 2], [0, 2, 7]], SQUARE_FACETS, "cell vertex id 7 outside [0, 4)"),
    # -1 would index the last vertex, and its cells agree with the boundary
    ([[0, 1, 2], [0, 2, -1]], [[0, 1], [1, 2], [2, -1], [-1, 0]],
     "cell vertex id -1 outside [0, 4)"),
    ([[0, 1, 2], [0, 2, 3]], [[0, 1], [1, 2], [2, 3], [3, 4]],
     "boundary facet vertex id 4 outside [0, 4)"),
], ids=["cell-7", "cell-minus-1", "facet-4"])
def test_vertex_ids_out_of_range_are_rejected(cells, facets, message):
    with pytest.raises(MeshFormatError) as err:
        cg.Mesh(2, SQUARE, cells, facets, ["outer"] * len(facets))
    assert str(err.value) == message


def _square():
    return cg.Mesh(2, SQUARE, [[0, 1, 2], [0, 2, 3]], SQUARE_FACETS, ["outer"] * 4)


def test_writers_text_on_a_square(tmp_path):
    mesh = _square()
    write_mesh(mesh, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_text() == (
        "DIM 2\nVERTICES 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
        "CELLS 2\n0 1 2\n0 2 3\n"
        "BOUNDARY 4\n0 1 outer\n1 2 outer\n2 3 outer\n3 0 outer\n")
    write_vtk(mesh, tmp_path / "s.vtk", point_data={"u": [0.1, -0.0, 1e-300, 2.5e16]})
    assert (tmp_path / "s.vtk").read_text() == (
        "# vtk DataFile Version 3.0\ncapgraph export\nASCII\n"
        "DATASET UNSTRUCTURED_GRID\nPOINTS 4 double\n"
        "0.0 0.0 0.0\n1.0 0.0 0.0\n1.0 1.0 0.0\n0.0 1.0 0.0\n"
        "CELLS 2 8\n3 0 1 2\n3 0 2 3\nCELL_TYPES 2\n5\n5\n"
        "POINT_DATA 4\nSCALARS u double 1\nLOOKUP_TABLE default\n"
        "0.1\n-0.0\n1e-300\n2.5e+16\n")


def test_writers_text_on_an_interval(tmp_path):
    mesh = cg.generate_interval_mesh(-0.5, 0.5, 2)
    write_mesh(mesh, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_text() == (
        "DIM 1\nVERTICES 3\n-0.5\n0.0\n0.5\nCELLS 2\n0 1\n1 2\n"
        "BOUNDARY 2\n0 left\n2 right\n")
    write_vtk(mesh, tmp_path / "s.vtk")          # no point data: no POINT_DATA section
    assert (tmp_path / "s.vtk").read_text() == (
        "# vtk DataFile Version 3.0\ncapgraph export\nASCII\n"
        "DATASET UNSTRUCTURED_GRID\nPOINTS 3 double\n"
        "-0.5 0.0 0.0\n0.0 0.0 0.0\n0.5 0.0 0.0\n"
        "CELLS 2 6\n2 0 1\n2 1 2\nCELL_TYPES 2\n3\n3\n")


def test_shared_text_formats_each_array_once_and_drops_it(tmp_path, monkeypatch):
    import capgraph.meshing as meshing

    mesh, formatted = _square(), []
    format_section = meshing._format_section

    def counted(block):
        formatted.append(np.asarray(block).shape)
        return format_section(block)

    monkeypatch.setattr(meshing, "_format_section", counted)
    u, w = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0])
    alone = {}
    for name, data in (("a", {"u": u}), ("b", {"u": u, "W": w})):
        write_vtk(mesh, tmp_path / f"{name}.vtk", point_data=data)
        alone[name] = (tmp_path / f"{name}.vtk").read_text()
    formatted.clear()
    with shared_text(mesh):
        with shared_text(mesh):                  # a nested block shares the outer one
            write_vtk(mesh, tmp_path / "a.vtk", point_data={"u": u})
        write_mesh(mesh, tmp_path / "m.txt")
        write_vtk(mesh, tmp_path / "b.vtk", point_data={"u": u, "W": w})
    # vertices, cells and u once; w is another array with the same values;
    # the boundary facets are formatted per mesh file
    assert formatted == [(4, 2), (2, 3), (4,), (4, 2), (4,)]
    assert "text" not in mesh._cache
    for name in alone:
        assert (tmp_path / f"{name}.vtk").read_text() == alone[name]
