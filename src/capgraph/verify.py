"""Certificates and oracles for computed capillary graphs.

Height and gradient behaviour of converged solutions is certified against
the a-priori estimates: the height bound is exact (no unknown constants);
the gradient bounds have nonconstructive constants, so their certificates
extract the bounded quotient and assert refinement stability instead.
Manufactured problems and a dense 1D finite-difference oracle provide
ground truth independent of the finite-element path.

The refinement studies (`mms_convergence_study`, `run_refinement_suite`)
share one level loop; `interior_ball` places every interior certificate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .assembly import _boundary_values, _cell_state, _context
from .expressions import Expression, _Tape, parse_expression
from .geometry import (
    _average_cell_gradients,
    mean_curvature_from_derivatives,
    mean_curvature_strong,  # noqa: F401 (capbench counts calls through this name)
    recover_vertex_gradients,
    slope_factor,
    vertex_slope_factors,
)
from .meshing import (ScalarField, boundary_distance_field, cell_geometry,
                      geodesic_distance_field)
from .problem import CapillaryProblem, effective_constants

__all__ = [
    "Certificate",
    "FoldDetected",
    "OracleFailed",
    "ManufactureError",
    "check_height",
    "interior_gradient_certificate",
    "boundary_gradient_certificate",
    "contact_angle_residual",
    "strong_form_residual",
    "separation_rate_check",
    "make_interior_bump",
    "mms_manufacture",
    "oracle_1d_solve",
    "observed_order",
    "interior_ball",
    "mms_convergence_study",
    "run_refinement_suite",
]

log = logging.getLogger("capgraph.verify")

STABILITY_TOL = 0.25          # allowed relative spread of extracted quotients


class FoldDetected(RuntimeError):
    """A cell of the displaced graph folds over (tau too large)."""


class OracleFailed(RuntimeError):
    """The dense oracle did not converge; comparisons are inconclusive."""


class ManufactureError(ValueError):
    """Manufactured data violates the admissibility constraints."""


@dataclass
class Certificate:
    """One certified quantity with its refinement trace.

    pass is equivalent to margin >= -tolerance whenever a bound is claimed;
    certificates traced at fewer than three resolutions are provisional.
    """

    name: str
    observed: float
    bound: float | None = None
    tolerance: float = 0.0
    passed: bool = True
    applicable: bool = True
    trace: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def margin(self):
        return None if self.bound is None else self.bound - self.observed

    @property
    def provisional(self):
        return len(self.trace) < 3

    def to_dict(self):
        def clean(v):
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, np.ndarray):
                return [float(x) for x in v]
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            return v

        return {
            "name": self.name,
            "bound": clean(self.bound),
            "observed": clean(self.observed),
            "margin": clean(self.margin),
            "tolerance": clean(self.tolerance),
            "passed": bool(self.passed),
            "applicable": bool(self.applicable),
            "provisional": bool(self.provisional),
            "trace": clean(self.trace),
            "details": clean(self.details),
        }


def observed_order(hs, errs):
    """Least-squares slope of log(err) against log(h); errors floored at 1e-300."""
    hs = np.asarray(hs, dtype=float)
    errs = np.maximum(np.asarray(errs, dtype=float), 1e-300)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def _resolution(mesh):
    return mesh.target_h if mesh.target_h is not None else mesh.h_max


def interior_ball(mesh):
    """(center vertex, radius) for the interior gradient certificate, or None.

    A disk of radius r gets radius 0.45 r about the vertex nearest the
    origin, an interval (a, b) radius 0.35 (b - a) about the vertex nearest
    its midpoint; other domains get none.
    """
    shape = mesh.shape or (None,)
    if shape[0] == "disk":
        center, radius = np.zeros(2), 0.45 * shape[1]
    elif shape[0] == "interval":
        a, b = shape[1], shape[2]
        center, radius = np.array([0.5 * (a + b)]), 0.35 * (b - a)
    else:
        return None
    return int(np.argmin(np.linalg.norm(mesh.vertices - center, axis=1))), radius


# ---------------------------------------------------------------------------
# Height certificate (exact bound)


def check_height(u, problem, metric, mesh):
    """max |u| against the a-priori bound, with a 10 h^2 discretization allowance.

    Not applicable when mu < 0 (the literal bound is one-sided there) or when
    positive gravity fails.
    """
    h = _resolution(mesh)
    tol = 10.0 * h**2
    observed = float(np.max(np.abs(u.values)))
    try:
        beta, mu, ratio = effective_constants(problem, metric, mesh)
    except ValueError:
        beta, mu, ratio = -1.0, np.nan, np.nan
    applicable = beta > 0 and mu >= 0
    bound = max(0.0, ratio * mu / beta) if applicable else None
    passed = True if not applicable else (bound - observed) >= -tol
    return Certificate("height-bound", observed, bound=bound, tolerance=tol,
                       passed=passed, applicable=applicable,
                       trace=[(h, observed)],
                       details={"beta": beta, "mu": mu, "warp_ratio": ratio})


# ---------------------------------------------------------------------------
# Gradient certificates (refinement-stability of extracted quotients)


def interior_gradient_certificate(u, metric, mesh, x0, R):
    """Quotient Q = max W(z) (R^2 - d^2(z)) / R^2 over the geodesic ball.

    The interior gradient estimate bounds W by C R^2/(R^2 - d^2) with a
    nonconstructive C; Q is the extracted candidate for C and must be stable
    under refinement.  Requires the ball to stay inside the domain.
    """
    d = geodesic_distance_field(mesh, metric, x0).values
    if np.min(d[mesh.boundary_vertices]) <= R:
        raise ValueError(f"ball of radius {R} around vertex {x0} exits the domain")
    w = vertex_slope_factors(metric, u)
    mask = d < R
    q = float(np.max(w[mask] * (R**2 - d[mask] ** 2) / R**2))
    h = _resolution(mesh)
    return Certificate("interior-gradient", q, tolerance=STABILITY_TOL,
                       trace=[(h, q)], details={"x0": int(x0), "R": float(R)})


def boundary_gradient_certificate(u, metric, mesh):
    """sup W over the closed domain, plus the d_Gamma * W wall profile maximum.

    The boundary gradient estimate asserts a uniform (nonconstructive) bound
    on W up to the boundary; the certificate tracks sup W across refinements
    and reports the interior-sphere profile max d_Gamma * W as a cross-check.
    """
    w = vertex_slope_factors(metric, u)
    sup_w = float(np.max(w))
    d_gamma = boundary_distance_field(mesh, metric).values
    profile = float(np.max(d_gamma * w))
    h = _resolution(mesh)
    return Certificate("boundary-gradient", sup_w, tolerance=STABILITY_TOL,
                       trace=[(h, sup_w)], details={"wall_profile_max": profile})


def _stabilize(cert_list, name):
    """Merge per-level gradient certificates into one stability certificate."""
    trace = [entry for c in cert_list for entry in c.trace]
    values = np.array([v for _, v in trace])
    spread = float(np.max(values) / max(np.min(values), 1e-300) - 1.0)
    return Certificate(name, float(values[-1]), tolerance=STABILITY_TOL,
                       passed=spread <= STABILITY_TOL, trace=trace,
                       details={**cert_list[-1].details, "relative_spread": spread})


# ---------------------------------------------------------------------------
# Pointwise residual certificates


def contact_angle_residual(u, tau, problem, metric, mesh):
    """max over boundary quadrature points of |<N, nu> - tau phi|.

    The angle condition is natural in the weak form, so this residual decays
    like the trace error of the P1 gradient, first order in h.
    """
    vals = u.values
    bf = mesh.boundary_facets
    cells = mesh.cells[mesh.boundary_cells]
    grads = np.einsum("fa,fad->fd", vals[cells], mesh.grads_lambda[mesh.boundary_cells])
    nu = mesh.sigma_conormals(metric)
    bary, _ = mesh.facet_quad
    uq = np.einsum("qa,fa->fq", bary, vals[bf])
    nb, nq = uq.shape
    flat = mesh.facet_points.reshape(-1, mesh.dim)
    w = slope_factor(metric, flat, np.repeat(grads, nq, axis=0)).reshape(nb, nq)
    angle = -np.einsum("fi,fi->f", grads, nu)[:, None] / w
    target = tau * problem.phi(flat, uq.ravel()).reshape(nb, nq)
    obs = float(np.max(np.abs(angle - target))) if nb else 0.0
    h = _resolution(mesh)
    return Certificate("contact-angle-residual", obs, trace=[(h, obs)],
                       details={"tau": float(tau)})


class _FacetSides(NamedTuple):
    """Per-mesh geometry of the residual estimator.  For the interior facets
    (`Mesh.interior_facets`, their cells `Mesh.interior_facet_cells`) and the
    boundary facets (their owners `Mesh.boundary_cells`): the flat index
    local * nc + cell of each facet vertex in the cell on each side, and a
    normal.  An interior facet's normal has the length sqrt(h_E |E|), so that
    the squared jump it gives carries the facet's weight: in 2D h_E = |E|, and
    the normal is the edge rotated; in 1D a facet is a vertex of measure 1 and
    size h_E the mean length of its cells.  A boundary facet's normal is the
    outward unit one, and its size h_E is |E| in 2D and its cell's length in
    1D.  Last, the longest edge h_T of each cell."""

    inner_at: np.ndarray        # (2, d, nif): side, facet vertex
    inner_normal: np.ndarray    # (d, nif)
    boundary_at: np.ndarray     # (d, nb)
    boundary_normal: np.ndarray  # (d, nb)
    boundary_h: np.ndarray      # (nb,)
    h_cell: np.ndarray          # (nc,)


def _local_index(columns, owner, vertex):
    """local * nc + owner of ``vertex`` in its ``owner`` cell (both (n,)),
    where ``columns`` (d+1, nc) are the cells' vertex ids by local index."""
    local = sum((row.take(owner) == vertex) * a for a, row in enumerate(columns) if a)
    return local * columns.shape[1] + owner


def _facet_sides(mesh):
    verts, d = mesh.vertices, mesh.dim
    columns = np.ascontiguousarray(mesh.cells.T)
    pts = np.take(verts.T, columns, axis=1)                     # (d, d+1, nc)
    # squared edge lengths: a 1D cell is one edge, a triangle has three
    sq = [sum((pts[i, a] - pts[i, a - 1]) ** 2 for i in range(d)) for a in range(2 - d, d + 1)]
    h_cell = np.sqrt(np.max(sq, axis=0))
    pairs, owner = mesh.interior_facet_cells.T, mesh.boundary_cells
    facets, bfacets = mesh.interior_facets.T, mesh.boundary_facets.T
    inner_at = np.array([[_local_index(columns, side, v) for v in facets] for side in pairs])
    if d == 1:
        inner_normal = np.sqrt(0.5 * (h_cell[pairs[0]] + h_cell[pairs[1]]))[None]
        boundary_h = h_cell[owner]
    else:
        t = verts.take(facets[1], axis=0) - verts.take(facets[0], axis=0)
        inner_normal = np.array([t[:, 1], -t[:, 0]])
        boundary_h = mesh.facet_measure
    return _FacetSides(
        inner_at, inner_normal, np.array([_local_index(columns, owner, v) for v in bfacets]),
        -mesh.inward_normals.T, boundary_h, h_cell)


def strong_form_residual(u, tau, problem, metric, mesh):
    """Residual estimator eta of the weak form that `assembly.residual` solves.

    With the flux q_h = c^(d-2) grad u_h / (sqrt(gamma) W) and the facet
    weight c / sqrt(gamma) (1 / sqrt(gamma) in 1D) of the boundary integral,

        eta^2 = sum_T h_T^2 |c^d tau psi / sqrt(gamma) - div q_h|_T^2
              + sum_E h_E |[q_h . n]|_E^2
              + sum_{E on the boundary} h_E |q_h . n - (facet weight) tau phi|_E^2,

    in chart coordinates (Verfuerth, A Posteriori Error Estimation Techniques
    for Finite Element Methods, 2013, ch. 1).  Inside each cell q_h is the
    linear function through its values at the cell's quadrature points, so
    div q_h needs no metric gradient; the norms use the mesh's quadrature
    rules, h_T is a cell's longest edge and h_E a facet's length.  Everything
    comes from the assembly's cached per-cell state (`assembly._context`,
    `assembly._cell_state`), with one psi evaluation at the cell quadrature
    points and one phi evaluation at the boundary facet quadrature points.

    eta decays at first order in h for a smooth solution.  No bound is
    claimed on a single solve; ``details`` holds the three parts of eta and
    the cell or facet with the largest local term (its square root and the
    mean of its vertices).
    """
    d = mesh.dim
    ctx = _context(mesh, metric)
    sides = _facet_sides(mesh)
    _, g, w, uq = _cell_state(ctx, u.values)
    bary, wref = mesh.cell_quad
    # c^d / sqrt(gamma) at the quadrature points, from the cell weights
    density = ctx.cw / (wref[:, None] * mesh.cell_measure)
    flux = density / w * g                                      # (d, nq, nc)
    # the linear q_h through the quadrature values, by its values at the
    # vertices: (d, d+1, nc), flattened to (d, (d+1) nc) for `_FacetSides`
    corner = np.linalg.inv(bary) @ flux
    grads = ctx.topo.grads                                      # (d+1, d, nc)
    div = sum(corner[i, a] * grads[a, i] for a in range(d + 1) for i in range(d))
    psi_q = problem.psi(ctx.xq.reshape(-1, d), uq.ravel()).reshape(uq.shape)
    cell = (sides.h_cell ** 2 * mesh.cell_measure
            * (wref @ (tau * density * psi_q - div) ** 2))

    corner = corner.reshape(d, -1)
    fbary, fw = mesh.facet_quad

    def normal_flux(at, normal):
        """q_h . normal at the facet vertices ``at`` (d, n), as (n, d)."""
        return sum(corner[i][at] * normal[i] for i in range(d)).T

    # the normal's length sqrt(h_E |E|) weighs the jump
    jump = (normal_flux(sides.inner_at[0], sides.inner_normal)
            - normal_flux(sides.inner_at[1], sides.inner_normal)) @ fbary.T
    inner = jump ** 2 @ fw
    phi_q = _boundary_values(ctx, u.values, problem.phi)
    weight = ctx.fcw / (fw * mesh.facet_measure[:, None])
    defect = (normal_flux(sides.boundary_at, sides.boundary_normal) @ fbary.T
              - tau * weight * phi_q)
    outer = sides.boundary_h * mesh.facet_measure * (defect ** 2 @ fw)

    terms = np.concatenate([cell, inner, outer])
    eta = float(np.sqrt(np.sum(terms)))
    # the largest local term: the first of the cells, then of the two facet kinds
    k = top = int(np.argmax(terms))
    for kind, ids in (("cell", mesh.cells), ("interior-facet", mesh.interior_facets),
                      ("boundary-facet", mesh.boundary_facets)):
        if k < len(ids):
            break
        k -= len(ids)
    h = _resolution(mesh)
    return Certificate("strong-form-residual", eta, trace=[(h, eta)], details={
        "tau": float(tau), "eta_cell": float(np.sqrt(np.sum(cell))),
        "eta_jump": float(np.sqrt(np.sum(inner))),
        "eta_boundary": float(np.sqrt(np.sum(outer))),
        "largest_kind": kind, "largest_index": k,
        "largest_term": float(np.sqrt(terms[top])),
        "largest_at": mesh.vertices[ids[k]].mean(axis=0)})


# ---------------------------------------------------------------------------
# Normal-displacement identity (vertical separation rate equals zeta W)


def make_interior_bump(mesh, metric):
    """Smooth nonnegative bump supported away from the boundary.

    Zero within twice the longest edge of the boundary (both measured in
    sigma), so every supporting vertex has a fully interior patch.
    """
    d = boundary_distance_field(mesh, metric).values
    margin = 2.0 * mesh.sigma_edge_graph(metric).data.max()
    top = float(np.max(d))
    if top <= margin:
        raise ValueError("mesh too coarse to support an interior bump")
    z = np.maximum(0.0, (d - margin) / (top - margin)) ** 2
    return ScalarField(mesh, z)


def _displaced_gradients(mesh, xs, values):
    """`recover_vertex_gradients` of ``values`` on the mesh's cells over the
    displaced vertices ``xs``; `FoldDetected` when a displaced cell folds."""
    measure, grads_lambda = cell_geometry(xs, mesh.cells)
    if np.any(measure <= 0):
        raise FoldDetected("displaced cells fold over; tau too large")
    return _average_cell_gradients(mesh.cells, measure, grads_lambda, values)


def separation_rate_check(u, metric, mesh, zeta, taus):
    """Finite-displacement check of the first-variation identity ds/dtau = zeta W.

    Vertices of the graph are displaced by tau zeta N in the ambient chart
    (s += tau zeta gamma / W, x -= tau zeta sigma^{-1} g / W, where g is the
    recovered vertex gradient of u and W its slope factor).  The displaced
    graph keeps the mesh's cells, which stay a triangulation unless one folds
    (`FoldDetected`), and zeta vanishes near the boundary, so the boundary
    does not move.  The displaced graph is read at each original vertex by
    one first-order step, s(x_i) = s_i + G_i . (x_i - x_i(tau)), where G is
    the same gradient recovery run on the displaced cells, and the vertical
    separation rate (s(x_i) - u_i)/tau is compared with zeta W.

    Error model: the defect is exactly (g - G) . dx/dtau, and G - g is
    O(tau), so the error is O(tau) with no floor in h; the certificate
    passes when the order in tau is within [0.8, 1.2].  A displacement that
    moves no vertex sideways (zeta = 0, or a graph of constant height) gives
    zero error and is reported as exact.  What it catches: an error in the
    normal's direction or in W (a sign or factor in the x-part, gamma in the
    s-part, zeta W in the target) leaves a defect that does not shrink with
    tau.  What it cannot catch: a defect of the gradient recovery itself,
    which the normal and the read-back share; gamma dropped where gamma = 1;
    and anything about the PDE, since the identity holds for every graph,
    not only for solutions.
    """
    taus = sorted(float(t) for t in taus)
    if not taus or taus[0] <= 0:
        raise ValueError("taus must be positive")
    z = zeta.values
    on, bnd = z != 0.0, mesh.is_boundary_vertex
    p, q = mesh.edges[:, 0], mesh.edges[:, 1]
    if np.any(on & bnd) or np.any(on[p] & bnd[q] | on[q] & bnd[p]):
        raise ValueError("zeta must vanish on a neighborhood of the boundary")

    grads = recover_vertex_gradients(mesh, u.values)
    pts = mesh.vertices
    gamma = metric.gamma(pts)
    g = (1.0 / metric.conformal(pts) ** 2)[:, None] * grads
    w = np.sqrt(gamma + np.einsum("mi,mi->m", grads, g))
    ds_dir = z * gamma / w
    dx_dir = -z[:, None] * g / w[:, None]
    target = z * w

    scale = 1.0 + float(np.max(np.abs(u.values)))
    errors = []
    for t in taus:
        xs = pts + t * dx_dir
        ss = u.values + t * ds_dir
        slope = _displaced_gradients(mesh, xs, ss)
        sep = ss + np.einsum("mi,mi->m", slope, pts - xs) - u.values
        errors.append(float(np.max(np.abs(sep / t - target))))
    exact = max(errors) <= 1e-12 * scale
    order = None if exact else observed_order(taus, errors)
    passed = exact or (0.8 <= order <= 1.2)
    return Certificate("separation-rate-identity", errors[0],
                       passed=passed, trace=list(zip(taus, errors)),
                       details={"order_in_tau": order, "exact": exact})


# ---------------------------------------------------------------------------
# Manufactured problems


def _shape_conormal(mesh, metric):
    """sigma-unit inward conormal of the nearest boundary facet.

    Manufacturing the angle data against the facet conormals (rather than
    the smooth-shape normal) keeps the exact solution consistent with the
    discrete boundary geometry, so no first-order boundary crime pollutes
    convergence studies; the two differ by O(h) pointwise, O(h^2) at the
    facet quadrature points of a circle.
    """
    # Imported here: scipy.spatial (and scipy.special with it) loads only
    # for manufactured problems, not with the package.
    from scipy.spatial import cKDTree

    tree = cKDTree(mesh.facet_midpoints())
    nus = mesh.sigma_conormals(metric)

    def direction(x):
        x = np.asarray(x, dtype=float).reshape(-1, mesh.dim)
        _, idx = tree.query(x)
        return nus[idx]

    return direction


# Distinct point sets whose s-independent data one manufactured problem keeps.
# One level calls psi on at most 2 + 2 dim of them (validation's samples and
# their 2 dim difference shifts, the assembly quadrature points, which the
# strong-form certificate shares) and phi on at most 3 (validation's boundary
# samples, the facet quadrature points of assembly and of the angle
# certificate), so 8 keeps them all and validation's sweep over the shifts
# evicts nothing.
_POINT_SETS = 8


def _per_point_set(fn):
    """``fn(x)`` on float point arrays, kept for the last `_POINT_SETS`
    distinct point sets.

    A point set matches a kept one when shape and bit pattern agree
    (`np.array_equal` of the int64 views, so 0.0 and -0.0 differ), never by
    identity; a copy of each key is kept, so a caller that edits its array
    in place afterwards misses.  The kept values are returned as they are:
    callers must not modify them or hand them on.
    """
    memo = []      # (key bits, value), oldest first

    def lookup(x):
        bits = x.view(np.int64)
        for key, value in memo:
            if key.shape == bits.shape and np.array_equal(key, bits):
                return value
        value = fn(x)
        memo.append((bits.copy(), value))
        if len(memo) > _POINT_SETS:
            memo.pop(0)
        return value
    return lookup


class _Jet(NamedTuple):
    """A manufactured solution u*, parsed and differentiated once: u* alone,
    its source text, a tape of its chart gradient, Hessian (row-major) and
    u* itself, in that order, and a tape of the gradient alone."""

    dim: int
    value: Expression
    source: str
    full: _Tape
    gradient: _Tape


def _manufactured_jet(u_exact, dim):
    """The `_Jet` of ``u_exact`` (text or `Expression`) in a ``dim``-chart."""
    expr = parse_expression(u_exact)
    dus = expr.gradient(dim)
    d2us = [d for du in dus for d in du.gradient(dim)]
    return _Jet(dim, expr, expr.source or str(expr),
                _Tape([*dus, *d2us, expr]), _Tape(dus))


def mms_manufacture(metric, mesh, u_exact, kappa0=1.0):
    """Data (psi, phi) whose exact solution is ``u_exact`` at full strength.

    ``u_exact`` is text, an `Expression`, or its `_manufactured_jet`.
    psi(x, s) = nH[u_exact](x) + kappa0 (s - u_exact(x)) adds positive
    gravity without moving the solution; phi is the exact contact angle of
    u_exact against the inward conormal.  Both are affine in s, and the
    problem says so.  The parts that do not depend on s (nH[u_exact] and
    u_exact for psi, all of phi) are computed once per point set, psi's
    from one evaluation of the jet, and kept for the life of the problem
    (`_per_point_set`); each call still returns a fresh array.  Raises
    `ManufactureError` when the manufactured angle leaves (-1, 1).
    """
    if kappa0 <= 0:
        raise ManufactureError("kappa0 must be positive to keep positive gravity")
    dim = mesh.dim
    jet = u_exact if isinstance(u_exact, _Jet) else _manufactured_jet(u_exact, dim)
    if jet.dim != dim:
        raise ValueError(f"the manufactured jet is {jet.dim}D, the mesh {dim}D")

    def u_ex(x):
        return jet.value.at_points(np.asarray(x, dtype=float).reshape(-1, dim))
    conormal = _shape_conormal(mesh, metric)

    @_per_point_set
    def psi_x(x):
        values = jet.full.at_points(x)
        du = np.ascontiguousarray(values[:dim].T)
        hess = values[dim:-1].T.reshape(-1, dim, dim)
        hess = 0.5 * (hess + hess.transpose(0, 2, 1))
        return mean_curvature_from_derivatives(metric, x, du, hess), values[-1].copy()

    def psi(x, s):
        x = np.asarray(x, dtype=float).reshape(-1, dim)
        s = np.broadcast_to(np.asarray(s, dtype=float), (len(x),))
        nh, u_x = psi_x(x)
        return nh + kappa0 * (s - u_x)

    def dpsi_ds(x, s):
        x = np.asarray(x, dtype=float).reshape(-1, dim)
        return np.full(len(x), kappa0)

    @_per_point_set
    def phi_x(x):
        du = np.ascontiguousarray(jet.gradient.at_points(x).T)
        return -np.einsum("ki,ki->k", du, conormal(x)) / slope_factor(metric, x, du)

    def phi(x, s):
        return phi_x(np.asarray(x, dtype=float).reshape(-1, dim)).copy()

    def dphi_ds(x, s):
        x = np.asarray(x, dtype=float).reshape(-1, dim)
        return np.zeros(len(x))

    # admissibility of the manufactured angle, sampled along the boundary
    from .problem import _boundary_sample_points
    xb = _boundary_sample_points(mesh)
    phib = phi(xb, np.zeros(len(xb)))
    if np.any(np.abs(phib) >= 1.0 - 1e-9):
        raise ManufactureError(
            f"manufactured contact angle reaches |phi| = {np.max(np.abs(phib)):.6f}")

    return CapillaryProblem(
        dim=dim, psi=psi, dpsi_ds=dpsi_ds, phi=phi, dphi_ds=dphi_ds,
        beta=kappa0, beta_prime=float(np.min(1.0 - phib**2)),
        psi_source=f"manufactured from u_exact = {jet.source}",
        phi_source="manufactured contact angle", u_exact=u_ex, affine_in_s=True)


# ---------------------------------------------------------------------------
# Dense 1D oracle (independent finite-volume discretization, own Newton)


def _solve_tridiagonal(ab, rhs):
    """``solve_banded((1, 1), ab, rhs)`` by one direct LAPACK ``dgtsv`` call,
    with its bits and its errors: `ValueError` for an entry that is not
    finite, `numpy.linalg.LinAlgError` for a singular system.  ``ab`` and
    ``rhs`` are float arrays that the call overwrites."""
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, True, True, True, True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv/gtsv")
    return x


def oracle_1d_solve(problem, metric, a, b, m_dense, max_iter=60):
    """Two-point boundary solve of the capillary equation on a dense grid.

    Conservative second-order central differencing of
    (gamma^{-1/2} sqrt(sigma) sigma^{-1} u' / W)' = psi gamma^{-1/2} sqrt(sigma)
    with flux boundary conditions matching <N, nu> = phi (the data at full
    strength), solved by a self-contained damped Newton iteration to a
    residual of 1e-11 or the roundoff floor.  Raises `OracleFailed` when the
    iteration does not converge; ground truth for n=1 acceptance tests.
    """
    if metric.dim != 1:
        raise ValueError("the dense oracle is one-dimensional")
    x = np.linspace(a, b, m_dense + 1)
    hd = (b - a) / m_dense
    mid = 0.5 * (x[:-1] + x[1:])
    xc = x[:, None]
    midc = mid[:, None]
    # in 1D, sigma = c^2 and sqrt(sigma) = c
    c_m, gam_m = metric.conformal(midc), metric.gamma(midc)
    sig_m = c_m ** 2
    coef = c_m / (np.sqrt(gam_m) * sig_m)
    c_x, gam_x = metric.conformal(xc), metric.gamma(xc)
    rho_w = c_x / np.sqrt(gam_x)
    ends = [0, -1]
    end_w = c_x[ends] / np.sqrt(gam_x[ends] * c_x[ends] ** 2)
    x_ends = xc[ends]

    def at_ends(fn, u):
        """``fn`` at both ends in one call; where that raises, at each end in
        turn, so that the error raised is the left end's."""
        try:
            return fn(x_ends, u[ends])
        except ValueError:
            return [fn(xc[:1], u[:1])[0], fn(xc[-1:], u[-1:])[0]]

    def slopes(u):
        """(u', W) at the cell midpoints."""
        du = np.diff(u) / hd
        return du, np.sqrt(gam_m + du**2 / sig_m)

    def fluxes(u):
        du, w = slopes(u)
        return coef * du / w

    def res(u):
        f = fluxes(u)
        phi_a, phi_b = at_ends(problem.phi, u)
        f_a = -end_w[0] * float(phi_a)
        f_b = end_w[1] * float(phi_b)
        rho = problem.psi(xc, u) * rho_w
        out = np.empty_like(u)
        out[1:-1] = (f[1:] - f[:-1]) / hd - rho[1:-1]
        out[0] = (f[0] - f_a) / (0.5 * hd) - rho[0]
        out[-1] = (f_b - f[-1]) / (0.5 * hd) - rho[-1]
        return out

    def jac_banded(u):
        _, w = slopes(u)
        dfd = coef * gam_m / w**3 / hd          # d flux / d u_right
        drho = problem.dpsi_ds(xc, u) * rho_w
        dphi_a, dphi_b = at_ends(problem.dphi_ds, u)
        dfa = -end_w[0] * float(dphi_a)
        dfb = end_w[1] * float(dphi_b)
        n = len(u)
        ab = np.zeros((3, n))
        ab[0, 2:] = dfd[1:] / hd                               # super
        ab[0, 1] = dfd[0] / (0.5 * hd)
        ab[2, :-2] = dfd[:-1] / hd                             # sub
        ab[2, -2] = dfd[-1] / (0.5 * hd)
        ab[1, 1:-1] = -(dfd[1:] + dfd[:-1]) / hd - drho[1:-1]  # main
        ab[1, 0] = (-dfd[0] - dfa) / (0.5 * hd) - drho[0]
        ab[1, -1] = (dfb - dfd[-1]) / (0.5 * hd) - drho[-1]
        return ab

    # the divided differences put a floor of ~eps (1 + |u|)/h^2 on the residual
    eps = np.finfo(float).eps

    def atol(u):
        return max(1e-11, 4.0 * eps * (1.0 + np.max(np.abs(u))) / hd**2)

    u = np.zeros(m_dense + 1)
    r = res(u)
    rnorm = np.max(np.abs(r))
    for _ in range(max_iter):
        if rnorm <= atol(u):
            return x, u
        try:
            delta = _solve_tridiagonal(jac_banded(u), -r)
        except np.linalg.LinAlgError as exc:
            raise OracleFailed(f"oracle linear solve failed: {exc}") from exc
        alpha = 1.0
        for _ in range(40):
            u_try = u + alpha * delta
            r_try = res(u_try)
            rt = np.max(np.abs(r_try))
            if np.isfinite(rt) and rt < rnorm:
                break
            alpha *= 0.5
        else:
            if rnorm <= 100.0 * atol(u):   # stalled on the roundoff floor
                return x, u
            raise OracleFailed("oracle line search failed")
        u, r, rnorm = u_try, r_try, rt
    if rnorm <= atol(u):
        return x, u
    raise OracleFailed(f"oracle residual {rnorm:.3e} above {atol(u):.3e}")


# ---------------------------------------------------------------------------
# Study drivers (shared by the CLI and the acceptance suite)


def _level_solves(levels, build_problem, metric, domain, cfg, unsafe, what):
    """(level, mesh, problem, state) per refinement level, solved at full strength.

    Each level's mesh is ``domain.build(level)`` and its problem
    ``build_problem(mesh)``.  Raises `ValueError` for repeated levels (an
    order fitted through equal h measures no refinement) and `OracleFailed`
    naming ``what``, the level and the stall cause when a solve stalls.
    """
    if len(set(levels)) != len(levels):
        raise ValueError(f"refinement levels must be distinct, got {tuple(levels)}")
    from .solver import continuation_solve
    for level in levels:
        mesh = domain.build(level)
        problem = build_problem(mesh)
        state = continuation_solve(problem, metric, mesh, cfg, unsafe=unsafe)
        if state.status != "converged":
            raise OracleFailed(f"{what} at level {level}: {state.stall_reason()}")
        yield level, mesh, problem, state


def mms_convergence_study(metric, domain, u_exact, levels=(0, 1, 2), kappa0=1.0,
                          cfg=None, unsafe=False):
    """Solve a manufactured problem at several distinct refinement levels.

    Returns a list of rows {h, error, angle_residual, strong_residual} plus
    observed orders; error is the vertex max-norm against the exact field,
    and strong_residual the residual estimator eta (`strong_form_residual`).
    """
    rows = []
    jet = _manufactured_jet(u_exact, metric.dim)
    for level, mesh, problem, state in _level_solves(
            levels, lambda mesh: mms_manufacture(metric, mesh, jet, kappa0=kappa0),
            metric, domain, cfg, unsafe, "manufactured solve"):
        err = float(np.max(np.abs(state.u.values - problem.u_exact(mesh.vertices))))
        angle = contact_angle_residual(state.u, 1.0, problem, metric, mesh).observed
        strong = strong_form_residual(state.u, 1.0, problem, metric, mesh).observed
        rows.append({"h": _resolution(mesh), "error": err,
                     "angle_residual": angle, "strong_residual": strong})
        log.info("mms level=%d h=%.4g error=%.3e angle=%.3e", level,
                 rows[-1]["h"], err, angle)
    hs = [r["h"] for r in rows]
    return rows, {key: observed_order(hs, [r[key] for r in rows])
                  for key in ("error", "angle_residual", "strong_residual")}


def run_refinement_suite(problem, metric, domain, levels=(0, 1, 2), cfg=None,
                         unsafe=False):
    """Solve across distinct refinement levels and merge all certificates with traces.

    The interior gradient certificate is traced over the `interior_ball` of
    each level's mesh, when the domain has one.  Returns (certificates,
    finest state).
    """
    per_level = {"interior": [], "boundary": [], "angle": [], "strong": [],
                 "height": []}
    for _, mesh, _, state in _level_solves(levels, lambda mesh: problem, metric, domain,
                                           cfg, unsafe, "suite solve"):
        u = state.u
        per_level["height"].append(check_height(u, problem, metric, mesh))
        per_level["boundary"].append(boundary_gradient_certificate(u, metric, mesh))
        per_level["angle"].append(contact_angle_residual(u, 1.0, problem, metric, mesh))
        per_level["strong"].append(strong_form_residual(u, 1.0, problem, metric, mesh))
        ball = interior_ball(mesh)
        if ball is not None:
            per_level["interior"].append(
                interior_gradient_certificate(u, metric, mesh, *ball))

    certs = []
    heights = per_level["height"]
    merged_height = Certificate(
        "height-bound", heights[-1].observed, bound=heights[-1].bound,
        tolerance=heights[-1].tolerance,
        passed=all(c.passed for c in heights),
        applicable=heights[-1].applicable,
        trace=[e for c in heights for e in c.trace], details=heights[-1].details)
    certs.append(merged_height)
    certs.append(_stabilize(per_level["boundary"], "boundary-gradient"))
    if per_level["interior"]:
        certs.append(_stabilize(per_level["interior"], "interior-gradient"))
    # decay is judged on what each observes: the angle residual's max, and
    # the residual estimator eta, which decays at first order
    for key, name, measure in (("angle", "contact-angle-residual", "max"),
                               ("strong", "strong-form-residual", "eta")):
        cs = per_level[key]
        trace = [e for c in cs for e in c.trace]
        hs, vs = zip(*trace)
        tiny = max(vs) <= 1e-10
        order = None if tiny else observed_order(hs, vs)
        certs.append(Certificate(
            name, cs[-1].observed, passed=tiny or order >= 0.5, trace=trace,
            details={**cs[-1].details, "observed_order": order,
                     "decay_measured_on": measure}))
    return certs, state
