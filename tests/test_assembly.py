import gc
import weakref

import numpy as np
import pytest
from scipy.sparse import coo_matrix

import capgraph as cg
from capgraph.assembly import energy, jacobian, residual
from capgraph.verify import mms_manufacture, observed_order
from conftest import cap_values


def make(dim, psi, phi="0", **kw):
    return cg.CapillaryProblem.from_expressions(dim, psi, phi, **kw)


def test_residual_zero_at_homotopy_start(disk_01, euclid2, interval_64, euclid1):
    prob2 = make(2, "1 + s", "0.3")
    r = residual(np.zeros(disk_01.num_vertices), 0.0, prob2, euclid2, disk_01)
    assert np.max(np.abs(r)) <= 1e-14
    prob1 = make(1, "exp(s)", "0.5")
    r = residual(np.zeros(interval_64.num_vertices), 0.0, prob1, euclid1, interval_64)
    assert np.max(np.abs(r)) <= 1e-14


def test_tau_range_validated(disk_01, euclid2):
    prob = make(2, "s")
    u = np.zeros(disk_01.num_vertices)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            residual(u, bad, prob, euclid2, disk_01)
        with pytest.raises(ValueError):
            jacobian(u, bad, prob, euclid2, disk_01)


def test_constant_psi_gives_lumped_areas(euclid2):
    # R_a = c int phi_a dsigma; for P1 each cell contributes area/3 per vertex
    mesh = cg.generate_disk_mesh(1.0, 0.25)
    c = 3.0
    r = residual(np.zeros(mesh.num_vertices), 1.0, make(2, f"{c}"), euclid2, mesh)
    lumped = np.zeros(mesh.num_vertices)
    for a in range(3):
        np.add.at(lumped, mesh.cells[:, a], mesh.cell_measure / 3.0)
    np.testing.assert_allclose(r, c * lumped, rtol=1e-12, atol=1e-14)
    assert r.sum() == pytest.approx(c * np.sum(mesh.cell_measure), rel=1e-12)


def test_jacobian_stiffness_block_at_zero(euclid2):
    # at u = 0, tau = 0 only the gradient block remains: constants in kernel
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    j = jacobian(np.zeros(mesh.num_vertices), 0.0, make(2, "s"), euclid2, mesh)
    row_sums = np.asarray(j.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_jacobian_matches_finite_differences(dim):
    if dim == 1:
        mesh = cg.generate_interval_mesh(0.0, 1.0, 12)
        metric = cg.MetricField.from_expressions(1, gamma="exp(x1)")
        prob = make(1, "1 + s + 0.2*s^2", "0.3 - 0.1*tanh(s)")
    else:
        mesh = cg.generate_disk_mesh(1.0, 0.35)
        metric = cg.MetricField.radial_warp(2, gamma="1 + 0.5*r^2")
        prob = make(2, "1 + s", "0.2 - 0.1*tanh(s)")
    rng = np.random.default_rng(dim)
    u = 0.3 * rng.standard_normal(mesh.num_vertices)
    j = jacobian(u, 0.7, prob, metric, mesh).toarray()
    eps = 1e-6
    fd = np.zeros_like(j)
    for k in range(mesh.num_vertices):
        up, um = u.copy(), u.copy()
        up[k] += eps
        um[k] -= eps
        fd[:, k] = (residual(up, 0.7, prob, metric, mesh)
                    - residual(um, 0.7, prob, metric, mesh)) / (2 * eps)
    assert np.max(np.abs(j - fd)) / np.max(np.abs(j)) < 1e-5


def test_jacobian_symmetric(disk_01, euclid2):
    rng = np.random.default_rng(11)
    u = 0.4 * rng.standard_normal(disk_01.num_vertices)
    j = jacobian(u, 1.0, make(2, "1 + s", "0.3 - 0.05*tanh(s)"), euclid2, disk_01)
    asym = (j - j.T)
    assert np.max(np.abs(asym.data)) if asym.nnz else 0.0 <= 1e-12


def test_jacobian_positive_definite_under_positive_gravity(euclid1):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 49)      # 50 vertices
    rng = np.random.default_rng(2)
    u = 0.3 * rng.standard_normal(mesh.num_vertices)
    j = jacobian(u, 0.8, make(1, "1 + s"), euclid1, mesh).toarray()
    assert np.min(np.linalg.eigvalsh(j)) > 0


def test_jacobian_sparsity_in_adjacency(disk_01, euclid2):
    j = jacobian(np.zeros(disk_01.num_vertices), 1.0, make(2, "1 + s"), euclid2,
                 disk_01).tocoo()
    edges = {tuple(sorted(e)) for e in disk_01.edges.tolist()}
    for r, c in zip(j.row.tolist(), j.col.tolist()):
        assert r == c or (min(r, c), max(r, c)) in edges


def test_energy_of_zero_is_leaf_area(euclid2):
    mesh = cg.generate_disk_mesh(1.0, 0.25)
    e = energy(np.zeros(mesh.num_vertices), 1.0, make(2, "1 + s", "0.4"), euclid2, mesh)
    assert e == pytest.approx(np.sum(mesh.cell_measure), rel=1e-12)
    # warped leaf: the area element carries sqrt(det sigma)
    metric = cg.MetricField.from_expressions(2, sigma_conformal="1 + 0.3*r^2",
                                             gamma="1 + r^2")
    e = energy(np.zeros(mesh.num_vertices), 1.0, make(2, "1 + s"), metric, mesh)
    bary, w = mesh.cell_quad
    qp = np.einsum("qa,cad->cqd", bary, mesh.vertices[mesh.cells])
    det = metric.conformal(qp.reshape(-1, 2)).reshape(len(mesh.cells), len(w)) ** 2
    sigma_area = float(np.sum(w[None, :] * mesh.cell_measure[:, None] * det))
    assert e == pytest.approx(sigma_area, rel=1e-12)


def test_energy_gradient_matches_residual(disk_01, euclid2):
    rng = np.random.default_rng(4)
    prob = make(2, "1 + s + 0.1*s^2", "0.3 - 0.1*tanh(s)")
    for _ in range(3):
        u = 0.3 * rng.standard_normal(disk_01.num_vertices)
        v = rng.standard_normal(disk_01.num_vertices)
        r = residual(u, 0.9, prob, euclid2, disk_01)
        eps = 1e-5
        de = (energy(u + eps * v, 0.9, prob, euclid2, disk_01)
              - energy(u - eps * v, 0.9, prob, euclid2, disk_01)) / (2 * eps)
        assert de == pytest.approx(v @ r, rel=1e-6)


def test_translation_covariance_for_height_independent_data(disk_01, euclid2):
    # psi, phi independent of s: the operator sees only the gradient
    prob = make(2, "1 + 0.3*x1", "0.2")
    rng = np.random.default_rng(9)
    u = 0.2 * rng.standard_normal(disk_01.num_vertices)
    r1 = residual(u, 1.0, prob, euclid2, disk_01)
    r2 = residual(u + 5.0, 1.0, prob, euclid2, disk_01)
    np.testing.assert_allclose(r1, r2, atol=1e-12)


def test_deterministic_reduction(disk_01, euclid2):
    prob = make(2, "1 + s", "0.3")
    rng = np.random.default_rng(1)
    u = 0.3 * rng.standard_normal(disk_01.num_vertices)
    r1 = residual(u, 1.0, prob, euclid2, disk_01)
    r2 = residual(u, 1.0, prob, euclid2, disk_01)
    np.testing.assert_array_equal(r1, r2)
    j1 = jacobian(u, 1.0, prob, euclid2, disk_01)
    j2 = jacobian(u, 1.0, prob, euclid2, disk_01)
    np.testing.assert_array_equal(j1.data, j2.data)


def test_residual_of_exact_interpolant_decays(euclid2):
    errs, hs = [], []
    for h in (0.2, 0.1, 0.05):
        mesh = cg.generate_disk_mesh(1.0, h)
        prob = mms_manufacture(euclid2, mesh, "sqrt(4 - r^2)")
        r = residual(cap_values(mesh.vertices), 1.0, prob, euclid2, mesh)
        errs.append(np.max(np.abs(r)))
        hs.append(h)
    assert observed_order(hs, errs) >= 0.8


def test_maximum_principle_smoke(euclid2):
    # with height-increasing psi and zero angle data the solution cannot
    # poke above the a-priori bound in the interior
    from capgraph.solver import continuation_solve
    mesh = cg.generate_disk_mesh(1.0, 0.2)
    prob = make(2, "1 + 0.3*x1 + s")
    state = continuation_solve(prob, euclid2, mesh)
    bound = cg.height_bound(prob, euclid2, mesh)
    interior = ~mesh.is_boundary_vertex
    assert np.max(state.u.values[interior]) <= bound + 10 * 0.2**2


def test_gradient_block_matches_cotangent_formula(euclid2):
    # independent oracle: at u = 0 the gradient block is the P1 stiffness
    # matrix, whose entries follow the classical cotangent formula
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    j = jacobian(np.zeros(mesh.num_vertices), 0.0, make(2, "s"), euclid2,
                 mesh).toarray()
    k = np.zeros_like(j)
    for cell in mesh.cells:
        for i in range(3):
            a, b, c = cell[i], cell[(i + 1) % 3], cell[(i + 2) % 3]
            e1 = mesh.vertices[b] - mesh.vertices[a]
            e2 = mesh.vertices[c] - mesh.vertices[a]
            cot = (e1 @ e2) / abs(e1[0] * e2[1] - e1[1] * e2[0])
            k[b, c] -= cot / 2
            k[c, b] -= cot / 2
            k[b, b] += cot / 2
            k[c, c] += cot / 2
    np.testing.assert_allclose(j, k, atol=1e-13)


def _reference_assembly(u, tau, problem, metric, mesh):
    # the per-quadrature-point kernels and the np.add.at / COO-to-CSR scatter
    # that the per-cell assembly into a fixed CSR pattern replaced
    d, n = mesh.dim, mesh.num_vertices
    bary, wref = mesh.cell_quad
    nc, nq = mesh.num_cells, len(wref)
    xq = np.einsum("qa,cad->cqd", bary, mesh.vertices[mesh.cells]).reshape(-1, d)
    # dense sigma^{-1}, sqrt(det sigma) and sigma of the conformal leaf c^2 I
    c = metric.conformal(xq).reshape(nc, nq)
    inv_sigma = np.eye(d) / (c ** 2)[:, :, None, None]
    gamma = metric.gamma(xq).reshape(nc, nq)
    wq = (wref[None, :] * mesh.cell_measure[:, None] * c ** d) / np.sqrt(gamma)
    fb, fw = mesh.facet_quad
    fverts = mesh.vertices[mesh.boundary_facets]
    xf = np.einsum("qa,fad->fqd", fb, fverts)
    nb, nqf = xf.shape[:2]
    xf = xf.reshape(-1, d)
    if d == 1:
        wf = np.ones((nb, nqf))
    else:
        t = fverts[:, 1] - fverts[:, 0]
        that = t / np.linalg.norm(t, axis=1, keepdims=True)
        sig = np.eye(d) * (metric.conformal(xf) ** 2).reshape(nb, nqf, 1, 1)
        wf = (fw[None, :] * mesh.facet_measure[:, None]
              * np.sqrt(np.einsum("fi,fqij,fj->fq", that, sig, that)))
    wf = wf / np.sqrt(metric.gamma(xf).reshape(nb, nqf))

    gl = mesh.grads_lambda
    grad = np.einsum("ca,cad->cd", u[mesh.cells], gl)
    g = np.einsum("cqij,cj->cqi", inv_sigma, grad)
    w = np.sqrt(gamma + np.einsum("ci,cqi->cq", grad, g))
    uq = np.einsum("qa,ca->cq", bary, u[mesh.cells]).ravel()
    uf = np.einsum("qa,fa->fq", fb, u[mesh.boundary_facets]).ravel()

    psi_q = problem.psi(xq, uq).reshape(nc, nq)
    ga = np.einsum("cad,cqd->cqa", gl, g)
    contrib = wq[:, :, None] * (ga / w[:, :, None]
                                + tau * psi_q[:, :, None] * bary[None, :, :])
    r = np.zeros(n)
    np.add.at(r, mesh.cells, contrib.sum(axis=1))
    phi_q = problem.phi(xf, uf).reshape(nb, nqf)
    np.add.at(r, mesh.boundary_facets,
              (-(wf * tau * phi_q)[:, :, None] * fb[None]).sum(axis=1))

    d_mat = (inv_sigma - np.einsum("cqi,cqj->cqij", g, g) / (w**2)[:, :, None, None]
             ) / w[:, :, None, None]
    k_grad = np.einsum("cqad,cbd->cqab", np.einsum("cqde,cae->cqad", d_mat, gl), gl)
    dpsi_q = problem.dpsi_ds(xq, uq).reshape(nc, nq)
    k_mass = (tau * dpsi_q)[:, :, None, None] * np.einsum("qa,qb->qab", bary, bary)[None]
    k_local = (wq[:, :, None, None] * (k_grad + k_mass)).sum(axis=1)
    dphi_q = problem.dphi_ds(xf, uf).reshape(nb, nqf)
    kb = (-(wf * tau * dphi_q)[:, :, None, None]
          * np.einsum("qa,qb->qab", fb, fb)[None]).sum(axis=1)
    rows, cols, data = [], [], []
    for elems, block in ((mesh.cells, k_local), (mesh.boundary_facets, kb)):
        k = elems.shape[1]
        rows.append(np.repeat(elems, k, axis=1).ravel())
        cols.append(np.tile(elems, (1, k)).ravel())
        data.append(block.ravel())
    j = coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n, n)).tocsr()
    return r, j


@pytest.mark.parametrize("case", ["flat-disk", "radial-warp-disk", "annulus",
                                  "warped-interval"])
@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_assembly_matches_quadrature_point_coo_reference(case, tau):
    if case == "warped-interval":
        mesh = cg.generate_interval_mesh(0.0, 1.0, 20)
        metric = cg.MetricField.from_expressions(1, gamma="exp(x1)")
        prob = make(1, "1 + s + 0.2*s^2 + 0.1*x1", "0.3 - 0.1*tanh(s)")
    else:
        mesh = (cg.generate_disk_mesh(1.0, 0.15, inner_radius=0.4) if case == "annulus"
                else cg.generate_disk_mesh(1.0, 0.15))
        metric = {"flat-disk": cg.MetricField.euclidean(2),
                  "radial-warp-disk": cg.MetricField.radial_warp(2, gamma="1 + 3*r^2"),
                  "annulus": cg.MetricField.from_expressions(
                      2, gamma="1 + r^2", sigma_conformal="1 + 0.3*r^2")}[case]
        prob = make(2, "1 + s + 0.2*s^2 + 0.1*x1", "0.3 - 0.1*tanh(s)")
    u = 0.3 * np.random.default_rng(5).standard_normal(mesh.num_vertices)
    r_ref, j_ref = _reference_assembly(u, tau, prob, metric, mesh)
    r = residual(u, tau, prob, metric, mesh)
    j = jacobian(u, tau, prob, metric, mesh)
    assert np.max(np.abs(r - r_ref)) <= 1e-13 * np.max(np.abs(r_ref))
    assert j.nnz == j_ref.nnz
    np.testing.assert_array_equal(j.indptr, j_ref.indptr)
    np.testing.assert_array_equal(j.indices, j_ref.indices)
    assert j.indices.dtype == j_ref.indices.dtype == np.int32
    assert np.max(np.abs(j.data - j_ref.data)) <= 1e-13 * np.max(np.abs(j_ref.data))


def test_context_evaluates_the_conformal_factor_once_per_point_set(monkeypatch):
    # one call at the cell quadrature points and one at the facet ones
    from capgraph import assembly, expressions
    calls = []
    at_points = expressions.Expression.at_points

    def counted(self, pts, s=None):
        if self.source == "1 + 0.3*r^2":
            calls.append(len(pts))
        return at_points(self, pts, s)

    monkeypatch.setattr(expressions.Expression, "at_points", counted)
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    metric = cg.MetricField.from_expressions(2, gamma="1 + r^2",
                                             sigma_conformal="1 + 0.3*r^2")
    ctx = assembly._context(mesh, metric)
    assert calls == [ctx.xq.shape[0] * ctx.xq.shape[1], ctx.xf.shape[0] * ctx.xf.shape[1]]


def test_context_integrates_at_the_mesh_points():
    from capgraph import assembly
    for mesh in (cg.generate_disk_mesh(1.0, 0.3), cg.generate_interval_mesh(0.0, 1.0, 8)):
        ctx = assembly._context(mesh, cg.MetricField.radial_warp(mesh.dim, gamma="1 + r^2"))
        assert ctx.xq is mesh.cell_points
        assert ctx.xf is mesh.facet_points


def test_one_assembly_context_per_mesh():
    # a fresh metric per solve replaces the cached context instead of adding one
    from capgraph import assembly
    from capgraph.solver import continuation_solve
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    for _ in range(4):
        metric = cg.MetricField.radial_warp(2, gamma="1 + r^2")
        assert continuation_solve(make(2, "1 + s", "0.3"), metric, mesh).status == "converged"
    gc.collect()
    contexts = [o for o in gc.get_objects() if isinstance(o, assembly._Context)
                and o.boundary_facets is mesh.boundary_facets]
    assert len(contexts) == 1
    assert assembly._context(mesh, metric) is contexts[0]


def test_a_solved_mesh_is_freed_without_the_cycle_collector():
    # the mesh caches its assembly context: a context that referred back to
    # the mesh would keep both alive until the next cyclic collection
    from capgraph.solver import continuation_solve
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    metric = cg.MetricField.radial_warp(2, gamma="1 + r^2")
    assert continuation_solve(make(2, "1 + s", "0.3"), metric, mesh).status == "converged"
    ref = weakref.ref(mesh)
    gc.disable()
    try:
        del mesh
        assert ref() is None
    finally:
        gc.enable()
