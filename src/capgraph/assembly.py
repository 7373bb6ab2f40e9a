"""P1 discretization of the capillary variational structure.

residual entries are
    R_a = int_Omega (1/sqrt(gamma)) [ <grad u, grad phi_a>_sigma / W
                                      + tau psi(x, u) phi_a ] dsigma
        - int_Gamma (1/sqrt(gamma)) tau phi(x, u) phi_a dl
so R = 0 is the discrete Euler-Lagrange system of the prescribed-curvature
equation with the angle condition <N, nu> = tau phi appearing naturally.
The Jacobian uses D = (sigma^{-1} - g g^T / W^2)/W (positive definite for
finite gradients) plus the definite zeroth-order block tau d(psi)/ds.

P1 gradients are constant on each cell, so every integrand is summed over
the quadrature points first and meets the gradients once per cell.  The
metric at the mesh's quadrature points is kept for the mesh's last metric,
the Jacobian's CSR pattern and its scatter map once per mesh; each
call fills the values with one np.bincount, and the residual is scattered
with one np.bincount too, so reductions are deterministic for a fixed mesh.
The Jacobian walks the cells in blocks of about `meshing._BLOCK` quadrature
points, each block writing its local entries into one array, so that its
temporaries stay in cache; the entries do not depend on the blocks.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from .meshing import _BLOCK, ScalarField, _walk_blocks

__all__ = ["residual", "jacobian", "energy"]


class _Context:
    """Per-(mesh, metric) quadrature data at the mesh's points, reused across
    assemblies and kept in the mesh's last-metric slot (`Mesh.metric_data`).

    Per-cell arrays keep the cell index on the last axis, so the small
    contractions over vertices, quadrature points and coordinates run over
    long contiguous rows.
    """

    def __init__(self, mesh, metric):
        # the mesh caches this context, so the context keeps no reference
        # to the mesh: a cycle would outlive the mesh until the next collection
        self.boundary_facets = mesh.boundary_facets
        d = mesh.dim
        bary, wref = mesh.cell_quad
        self.cell_bary = bary
        self.topo = _topology(mesh)
        self.xq = mesh.cell_points                              # (nq, nc, d)
        flat = self.xq.reshape(-1, d)
        nq, nc = self.xq.shape[:2]
        c = metric.conformal(flat).reshape(nq, nc)
        self.inv_c2_q = 1.0 / c ** 2                            # sigma^{-1} = I / c^2
        self.gamma_q = metric.gamma(flat).reshape(nq, nc)
        # cell and facet integration weights carry the 1/sqrt(gamma) factor
        self.cw = (wref[:, None] * mesh.cell_measure[None, :] * c ** d
                   / np.sqrt(self.gamma_q))                     # (nq, nc)

        fb, fw = mesh.facet_quad
        self.facet_bary = fb
        self.xf = mesh.facet_points                             # (nb, nqf, d)
        nb, nqf = self.xf.shape[:2]
        fflat = self.xf.reshape(-1, d)
        if d == 1:
            wf = np.ones((nb, nqf))                             # counting measure
        else:
            fverts = mesh.vertices[mesh.boundary_facets]        # (nb, d, dcoord)
            t = fverts[:, 1] - fverts[:, 0]
            that = t / np.linalg.norm(t, axis=1, keepdims=True)
            c2 = metric.conformal(fflat).reshape(nb, nqf) ** 2
            # a sum from 0.0 in np.einsum's order: its bits, signed zeros included
            stretch = np.sqrt(sum(((that[:, i, None] * c2) * that[:, i, None]
                                   for i in range(that.shape[1])), 0.0))
            wf = fw[None, :] * mesh.facet_measure[:, None] * stretch
        self.fcw = wf / np.sqrt(metric.gamma(fflat).reshape(nb, nqf))

        # products of the barycentric coordinates at each quadrature point
        self.cell_mass = np.einsum("qa,qb->abq", bary, bary).reshape(-1, nq)
        self.facet_mass = np.einsum("qa,qb->qab", fb, fb).reshape(nqf, -1)


class _Topology:
    """Per-mesh index data: cells and P1 gradients with the cell index last,
    the vertex of each residual entry, and the Jacobian's CSR pattern with
    the map that scatters its local entries (the cell blocks as
    (a, b, cell), then the boundary-facet blocks as (facet, a, b)) into it."""

    def __init__(self, mesh):
        n = mesh.num_vertices
        self.cells = np.ascontiguousarray(mesh.cells.T)         # (d+1, nc)
        self.grads = np.ascontiguousarray(
            mesh.grads_lambda.transpose(1, 2, 0))               # (d+1, d, nc)
        bf = mesh.boundary_facets
        self.vertex_index = np.concatenate([self.cells.ravel(), bf.ravel()])
        k = bf.shape[1]
        keys = np.concatenate([
            (self.cells[:, None, :] * n + self.cells[None, :, :]).ravel(),
            (np.repeat(bf, k, axis=1) * n + np.tile(bf, (1, k))).ravel()])
        unique, self.scatter = np.unique(keys, return_inverse=True)
        idx = np.int32 if max(len(unique), n) < 2**31 else np.int64
        self.indices = (unique % n).astype(idx)
        self.indptr = np.searchsorted(unique, np.arange(n + 1) * n).astype(idx)


def _topology(mesh):
    if "assembly_topology" not in mesh._cache:
        mesh._cache["assembly_topology"] = _Topology(mesh)
    return mesh._cache["assembly_topology"]


def _context(mesh, metric):
    return mesh.metric_data(metric, "assembly", _Context)


def _values(u):
    return u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)


def _check_tau(tau):
    if not (np.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")


def _cell_state(ctx, vals, cells=slice(None)):
    """Per-cell gradient (d, nc) and per-quadrature-point g (d, nq, nc),
    W (nq, nc) and u (nq, nc) of the cells ``cells`` (a slice, all by default)."""
    vc = vals[ctx.topo.cells[:, cells]]                         # (d+1, nc)
    grad = np.einsum("ac,adc->dc", vc, ctx.topo.grads[:, :, cells])
    g = ctx.inv_c2_q[:, cells] * grad[:, None, :]
    w = np.sqrt(ctx.gamma_q[:, cells] + np.einsum("ic,iqc->qc", grad, g))
    uq = ctx.cell_bary @ vc
    return grad, g, w, uq


def _boundary_values(ctx, vals, fn):
    """Traces of u and fn(x, u) at the boundary quadrature points, (nb, nqf)."""
    uf = np.einsum("qa,fa->fq", ctx.facet_bary, vals[ctx.boundary_facets])
    return fn(ctx.xf.reshape(-1, ctx.xf.shape[-1]), uf.ravel()).reshape(uf.shape)


def residual(u, tau, problem, metric, mesh):
    """Weak-form residual vector indexed by vertices."""
    _check_tau(tau)
    ctx = _context(mesh, metric)
    vals = _values(u)
    grad, g, w, uq = _cell_state(ctx, vals)
    psi_q = problem.psi(ctx.xq.reshape(-1, mesh.dim), uq.ravel()).reshape(uq.shape)
    gbar = np.einsum("qc,iqc->ic", ctx.cw / w, g)
    contrib = (np.einsum("adc,dc->ac", ctx.topo.grads, gbar)
               + ctx.cell_bary.T @ (tau * ctx.cw * psi_q))      # (d+1, nc)
    phi_q = _boundary_values(ctx, vals, problem.phi)
    bcontrib = -(tau * ctx.fcw * phi_q) @ ctx.facet_bary         # (nb, d)
    return np.bincount(ctx.topo.vertex_index,
                       np.concatenate([contrib.ravel(), bcontrib.ravel()]),
                       minlength=mesh.num_vertices)


def jacobian(u, tau, problem, metric, mesh):
    """Analytic Jacobian of the residual, sparse CSR, symmetric by construction.

    The pattern holds every cell and boundary-facet block, so it depends on
    the mesh only, not on u, tau or the data.
    """
    _check_tau(tau)
    ctx = _context(mesh, metric)
    vals = _values(u)
    topo = ctx.topo
    nq, nc = ctx.cw.shape
    # the local entries, in the scatter map's order, filled in blocks of cells
    local = np.empty(len(topo.scatter))
    cell_part = local[:topo.cells.shape[0] ** 2 * nc].reshape(-1, nc)

    def fill(cells):
        cell_part[:, cells] = _cell_entries(ctx, vals, tau, problem, cells)

    _walk_blocks(nc, max(1, _BLOCK // nq), fill)
    dphi_q = _boundary_values(ctx, vals, problem.dphi_ds)
    local[cell_part.size:] = (-(tau * ctx.fcw * dphi_q) @ ctx.facet_mass).ravel()
    data = np.bincount(topo.scatter, local, minlength=len(topo.indices))
    n = mesh.num_vertices
    # the index arrays are copied: scipy edits them in place (eliminate_zeros)
    return csr_matrix((data, topo.indices.copy(), topo.indptr.copy()), shape=(n, n))


def _cell_entries(ctx, vals, tau, problem, cells):
    """The Jacobian's cell blocks ((d+1)^2, nc) of the cells ``cells``, a slice."""
    grad, g, w, uq = _cell_state(ctx, vals, cells)
    cw_q = ctx.cw[:, cells]
    # integral of D = (I / c^2 - g g^T / W^2) / W over each cell
    cw = cw_q / w
    # 0.0 - x, not -x: a zero off the diagonal keeps the sign the dense form gave it
    d_bar = 0.0 - np.einsum("iqc,jqc->ijc", cw / w**2 * g, g)
    diag = np.arange(len(grad))
    d_bar[diag, diag] += np.einsum("qc,qc->c", cw, ctx.inv_c2_q[:, cells])
    grads = ctx.topo.grads[:, :, cells]
    t = np.einsum("aec,dec->adc", grads, d_bar)
    k_grad = np.einsum("adc,bdc->abc", t, grads)
    xq = ctx.xq[:, cells]
    dpsi_q = problem.dpsi_ds(xq.reshape(-1, xq.shape[-1]), uq.ravel()).reshape(uq.shape)
    k_mass = ctx.cell_mass @ (tau * cw_q * dpsi_q)              # ((d+1)^2, nc)
    return k_grad.reshape(k_mass.shape) + k_mass


def _simpson_01(f, tol=1e-10, max_doublings=16):
    """Composite Simpson on [0, 1] of a vectorized integrand, refined globally
    until the Richardson error estimate of every component meets tol."""
    def composite(n):
        nodes = np.linspace(0.0, 1.0, 2 * n + 1)
        vals = np.stack([f(c) for c in nodes])
        coef = np.ones(2 * n + 1)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        return np.tensordot(coef, vals, axes=1) / (6.0 * n)

    n = 2
    prev = composite(n)
    for _ in range(max_doublings):
        n *= 2
        cur = composite(n)
        err = np.max(np.abs(cur - prev)) / 15.0
        if err <= tol * max(1.0, float(np.max(np.abs(cur)))):
            return cur
        prev = cur
    return cur


def energy(u, tau, problem, metric, mesh):
    """Discrete capillary energy whose gradient is `residual`.

    Graph area plus the gravity potential integrated over the leaf, minus
    the wetting term on the boundary; the inner height integrals use
    adaptive Simpson to 1e-10.
    """
    _check_tau(tau)
    ctx = _context(mesh, metric)
    vals = _values(u)
    grad, g, w, uq = _cell_state(ctx, vals)
    e = float(np.sum(ctx.cw * w))
    xq_flat = ctx.xq.reshape(-1, mesh.dim)
    uq_flat = uq.ravel()
    if tau > 0.0:
        pot = _simpson_01(lambda c: problem.psi(xq_flat, c * uq_flat) * uq_flat)
        e += tau * float(np.sum(ctx.cw * pot.reshape(uq.shape)))
        uf = np.einsum("qa,fa->fq", ctx.facet_bary, vals[mesh.boundary_facets])
        xf_flat = ctx.xf.reshape(-1, mesh.dim)
        uf_flat = uf.ravel()
        wet = _simpson_01(lambda c: problem.phi(xf_flat, c * uf_flat) * uf_flat)
        e -= tau * float(np.sum(ctx.fcw * wet.reshape(uf.shape)))
    return e
