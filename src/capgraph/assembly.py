"""P1 discretization of the capillary variational structure.

residual entries are
    R_a = int_Omega (1/sqrt(gamma)) [ <grad u, grad phi_a>_sigma / W
                                      + tau psi(x, u) phi_a ] dsigma
        - int_Gamma (1/sqrt(gamma)) tau phi(x, u) phi_a dl
so R = 0 is the discrete Euler-Lagrange system of the prescribed-curvature
equation with the angle condition <N, nu> = tau phi appearing naturally.
The Jacobian uses D = (sigma^{-1} - g g^T / W^2)/W (positive definite for
finite gradients) plus the definite zeroth-order block tau d(psi)/ds.

Assembly is vectorized over cells; scatter uses np.add.at and a single
COO-to-CSR pass, so reductions are deterministic for a fixed mesh.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix

from .meshing import ScalarField

__all__ = ["residual", "jacobian", "energy"]


class _Context:
    """Per-(mesh, metric) quadrature data reused across assemblies."""

    def __init__(self, mesh, metric):
        self.mesh = mesh
        self.metric = metric
        d = mesh.dim
        bary, wref = mesh.cell_quad
        coords = mesh.vertices[mesh.cells]                      # (nc, d+1, d)
        self.cell_bary = bary
        self.xq = np.einsum("qa,cad->cqd", bary, coords)        # (nc, nq, d)
        flat = self.xq.reshape(-1, d)
        nq = len(wref)
        nc = mesh.num_cells
        self.inv_sigma_q = metric.sigma_inv(flat).reshape(nc, nq, d, d)
        self.gamma_q = metric.gamma(flat).reshape(nc, nq)
        self.isg_q = 1.0 / np.sqrt(self.gamma_q)
        sqrt_det = metric.sqrt_det_sigma(flat).reshape(nc, nq)
        self.wq = wref[None, :] * mesh.cell_measure[:, None] * sqrt_det

        fb, fw = mesh.facet_quad
        self.facet_bary = fb
        fverts = mesh.vertices[mesh.boundary_facets]            # (nb, d, dcoord)
        self.xf = np.einsum("qa,fad->fqd", fb, fverts)          # (nb, nqf, d)
        nb, nqf = self.xf.shape[:2]
        fflat = self.xf.reshape(-1, d)
        self.gamma_f = metric.gamma(fflat).reshape(nb, nqf)
        self.isg_f = 1.0 / np.sqrt(self.gamma_f)
        if d == 1:
            self.wf = np.ones((nb, nqf))                        # counting measure
        else:
            t = fverts[:, 1] - fverts[:, 0]
            that = t / np.linalg.norm(t, axis=1, keepdims=True)
            sig = metric.sigma(fflat).reshape(nb, nqf, d, d)
            stretch = np.sqrt(np.einsum("fi,fqij,fj->fq", that, sig, that))
            self.wf = fw[None, :] * mesh.facet_measure[:, None] * stretch


def _context(mesh, metric):
    cache = mesh._cache.setdefault("assembly", {})
    key = id(metric)
    if key not in cache:
        cache[key] = _Context(mesh, metric)
    return cache[key]


def _values(u):
    return u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)


def _check_tau(tau):
    if not (np.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")


def _cell_state(ctx, vals):
    """Per-cell gradient and per-quadrature-point (g, W, u)."""
    mesh = ctx.mesh
    grad = np.einsum("ca,cad->cd", vals[mesh.cells], mesh.grads_lambda)  # (nc, d)
    g = np.einsum("cqij,cj->cqi", ctx.inv_sigma_q, grad)                 # (nc, nq, d)
    w = np.sqrt(ctx.gamma_q + np.einsum("ci,cqi->cq", grad, g))
    uq = np.einsum("qa,ca->cq", ctx.cell_bary, vals[mesh.cells])
    return grad, g, w, uq


def residual(u, tau, problem, metric, mesh):
    """Weak-form residual vector indexed by vertices."""
    _check_tau(tau)
    ctx = _context(mesh, metric)
    vals = _values(u)
    grad, g, w, uq = _cell_state(ctx, vals)
    psi_q = problem.psi(ctx.xq.reshape(-1, mesh.dim), uq.ravel()).reshape(uq.shape)
    ga = np.einsum("cad,cqd->cqa", mesh.grads_lambda, g)
    contrib = ctx.wq[:, :, None] * ctx.isg_q[:, :, None] * (
        ga / w[:, :, None]
        + tau * psi_q[:, :, None] * ctx.cell_bary[None, :, :])
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.cells, contrib.sum(axis=1))

    uf = np.einsum("qa,fa->fq", ctx.facet_bary, vals[mesh.boundary_facets])
    phi_q = problem.phi(ctx.xf.reshape(-1, mesh.dim), uf.ravel()).reshape(uf.shape)
    bcontrib = -(ctx.wf * ctx.isg_f * tau * phi_q)[:, :, None] * ctx.facet_bary[None]
    np.add.at(out, mesh.boundary_facets, bcontrib.sum(axis=1))
    return out


def jacobian(u, tau, problem, metric, mesh):
    """Analytic Jacobian of the residual, sparse CSR, symmetric by construction."""
    _check_tau(tau)
    ctx = _context(mesh, metric)
    vals = _values(u)
    grad, g, w, uq = _cell_state(ctx, vals)
    d_mat = (ctx.inv_sigma_q
             - np.einsum("cqi,cqj->cqij", g, g) / (w**2)[:, :, None, None]
             ) / w[:, :, None, None]
    t = np.einsum("cqde,cae->cqad", d_mat, mesh.grads_lambda)
    k_grad = np.einsum("cqad,cbd->cqab", t, mesh.grads_lambda)
    dpsi_q = problem.dpsi_ds(ctx.xq.reshape(-1, mesh.dim), uq.ravel()).reshape(uq.shape)
    k_mass = (tau * dpsi_q)[:, :, None, None] * np.einsum(
        "qa,qb->qab", ctx.cell_bary, ctx.cell_bary)[None]
    k_local = ((ctx.wq * ctx.isg_q)[:, :, None, None] * (k_grad + k_mass)).sum(axis=1)

    cells = mesh.cells
    npc = mesh.dim + 1
    rows = [np.repeat(cells, npc, axis=1).ravel()]
    cols = [np.tile(cells, (1, npc)).ravel()]
    data = [k_local.ravel()]

    uf = np.einsum("qa,fa->fq", ctx.facet_bary, vals[mesh.boundary_facets])
    dphi_q = problem.dphi_ds(ctx.xf.reshape(-1, mesh.dim), uf.ravel()).reshape(uf.shape)
    if np.any(dphi_q != 0.0):
        kb = -(ctx.wf * ctx.isg_f * tau * dphi_q)[:, :, None, None] * np.einsum(
            "qa,qb->qab", ctx.facet_bary, ctx.facet_bary)[None]
        bf = mesh.boundary_facets
        rows.append(np.repeat(bf, mesh.dim, axis=1).ravel())
        cols.append(np.tile(bf, (1, mesh.dim)).ravel())
        data.append(kb.sum(axis=1).ravel())

    n = mesh.num_vertices
    return coo_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()


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
    e = float(np.sum(ctx.wq * ctx.isg_q * w))
    xq_flat = ctx.xq.reshape(-1, mesh.dim)
    uq_flat = uq.ravel()
    if tau > 0.0:
        pot = _simpson_01(lambda c: problem.psi(xq_flat, c * uq_flat) * uq_flat)
        e += tau * float(np.sum(ctx.wq * ctx.isg_q * pot.reshape(uq.shape)))
        uf = np.einsum("qa,fa->fq", ctx.facet_bary, vals[mesh.boundary_facets])
        xf_flat = ctx.xf.reshape(-1, mesh.dim)
        uf_flat = uf.ravel()
        wet = _simpson_01(lambda c: problem.phi(xf_flat, c * uf_flat) * uf_flat)
        e -= tau * float(np.sum(ctx.wf * ctx.isg_f * wet.reshape(uf.shape)))
    return e
