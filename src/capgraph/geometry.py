"""Warped-product geometry of Killing graphs over a leaf domain.

The ambient metric is sigma + (1/gamma) ds^2 with Killing field Y = d/ds,
|Y|^2 = 1/gamma, and the leaf metric is conformal, sigma = c(x)^2 I, so it
enters every formula through the scalars c^2, 1/c^2 and c^dim; the flat
leaf is the case c = 1, gamma = 1 of the same formulas.  The module holds
the metric, the slope factor W, nodal gradient recovery and the strong-form
curvature operator.  All evaluators are pure functions of their inputs and
vectorize over batches of points; nothing here mutates shared state.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix, diags

from .expressions import EvaluationError, _Tape, parse_expression

__all__ = [
    "MetricField",
    "slope_factor",
    "mean_curvature_strong",
    "mean_curvature_from_derivatives",
    "recover_vertex_gradients",
    "vertex_slope_factors",
]


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = x.reshape(1, dim) if squeeze else x.reshape(-1, dim)
    return pts, squeeze


class MetricField:
    """Conformal leaf metric sigma = c(x)^2 I and warping gamma = 1/|Y|^2.

    Holds the parsed expressions of gamma and of the conformal factor c, and
    their symbolic chart gradients.  The evaluators are vectorized: for
    points of shape (m, dim), `conformal` returns c (m,), `gamma` gamma (m,),
    and `grad_conformal` and `grad_gamma` (m, dim).  `conformal` and `gamma`
    check once that their values are finite and positive (c > 0 is sigma
    SPD).  Callers use the scalars c^2 (sigma), 1/c^2 (sigma^{-1}) and c^dim
    (sqrt(det sigma)).  The curvature operator takes all four from one run
    of a tape over [c, gamma, grad gamma, grad c] (`_jet`), built from these
    expressions on first use; its values are bit for bit those of the four
    evaluators.
    `euclidean` (gamma = 1, c = 1) and `radial_warp` are `from_expressions`
    with fixed or named data.
    """

    def __init__(self, dim, gamma, conformal):
        self.dim = dim
        self.gamma_expr = gamma
        self.conformal_expr = conformal
        self.grad_gamma_exprs = gamma.gradient(dim)
        self.grad_conformal_exprs = conformal.gradient(dim)
        self._jet_tape = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def euclidean(cls, dim):
        """The flat metric: sigma = I, gamma = 1."""
        return cls.from_expressions(dim)

    @classmethod
    def from_expressions(cls, dim, gamma="1", sigma_conformal="1"):
        """Conformal leaf metric sigma = c(x)^2 I with warping gamma(x).

        Both data are expressions in x1[, x2, r], as strings or parsed; their
        gradients are produced symbolically, so both obey the same derivative
        rules.
        """
        return cls(dim, parse_expression(gamma), parse_expression(sigma_conformal))

    @classmethod
    def radial_warp(cls, dim, gamma, sigma_conformal="1"):
        return cls.from_expressions(dim, gamma=gamma, sigma_conformal=sigma_conformal)

    # -- evaluators -----------------------------------------------------------

    def conformal(self, x):
        """The conformal factor c of sigma = c^2 I at the points ``x``."""
        return _finite_positive(self.conformal_expr, x, self.dim,
                                "sigma conformal factor")

    def gamma(self, x):
        """The warping gamma = 1/|Y|^2 at the points ``x``."""
        return _finite_positive(self.gamma_expr, x, self.dim, "gamma")

    def grad_conformal(self, x):
        return _gradient(self.grad_conformal_exprs, x, self.dim, "sigma_conformal")

    def grad_gamma(self, x):
        return _gradient(self.grad_gamma_exprs, x, self.dim, "gamma")

    def _jet(self, pts):
        """(c, gamma, grad gamma, grad c) at the rows of ``pts`` (m, dim), from
        one tape run.  Where that run fails or c or gamma is not finite and
        positive, the four evaluators run in this order instead, so a failure
        raises exactly their error."""
        tape = self._jet_tape
        if tape is None:
            exprs = [self.conformal_expr, self.gamma_expr,
                     *self.grad_gamma_exprs, *self.grad_conformal_exprs]
            tape = self._jet_tape = _Tape(exprs)
        try:
            rows = tape.at_points(pts)
        except EvaluationError:
            rows = None
        if rows is None or not _all_finite_positive(rows[:2]):
            return (self.conformal(pts), self.gamma(pts),
                    self.grad_gamma(pts), self.grad_conformal(pts))
        d = self.dim
        return rows[0], rows[1], rows[2:2 + d].T, rows[2 + d:].T

    # -- validation -----------------------------------------------------------

    def validate(self, points):
        """Check c > 0 (sigma SPD), gamma > 0 and grad_gamma/FD consistency to 1e-6."""
        pts, _ = _as_points(points, self.dim)
        self.conformal(pts)
        self.gamma(pts)
        gg = self.grad_gamma(pts)
        fd = np.stack([(self.gamma(xp) - self.gamma(xm)) / two_step
                       for xp, xm, two_step in _difference_points(pts)], axis=1)
        scale = 1.0 + np.abs(fd)
        if np.max(np.abs(gg - fd) / scale) > 1e-6:
            raise ValueError("grad_gamma is inconsistent with finite differences of gamma")
        return True


def _gradient(exprs, x, dim, name):
    """The symbolic gradient ``exprs`` of datum ``name`` at the points ``x``;
    an `EvaluationError` names the datum, the derivative and its first
    failing point."""
    pts, _ = _as_points(x, dim)
    columns = []
    for var, d in zip(("x1", "x2"), exprs):
        try:
            columns.append(d.at_points(pts))
        except EvaluationError as exc:
            point = next(p for p in pts if not _evaluates(d, p[None]))
            raise EvaluationError(f"{name}: d/d{var} = {d}: {exc} at x = "
                                  f"({', '.join(map(repr, point.tolist()))})") from None
    return np.column_stack(columns)


def _evaluates(expr, pts):
    try:
        expr.at_points(pts)
    except EvaluationError:
        return False
    return True


def _finite_positive(expr, x, dim, name):
    """``expr`` at the points ``x``; `ValueError` unless every value is finite
    and positive."""
    pts, _ = _as_points(x, dim)
    values = expr.at_points(pts)
    if not _all_finite_positive(values):
        raise ValueError(f"{name} must be finite and positive")
    return values


def _all_finite_positive(values):
    return np.all((values > 0) & (values < np.inf))


# ---------------------------------------------------------------------------
# Slope factor


def slope_factor(metric, x, grad_u):
    """W = sqrt(gamma + |grad u|^2_sigma); equals 1/<N, Y>, bounded below by sqrt(gamma).

    Vectorized over points; one point of shape (dim,) gives a float.  Raises
    `ValueError` on non-finite input.
    """
    pts, squeeze = _as_points(x, metric.dim)
    du = np.asarray(grad_u, dtype=float).reshape(len(pts), metric.dim)
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(du))):
        raise ValueError("non-finite input")
    inv_c2 = 1.0 / metric.conformal(pts) ** 2
    # a sum from 0.0 over the components in order, as np.einsum runs it, so
    # it gives its bits, signed zeros included
    w = np.sqrt(metric.gamma(pts)
                + sum(((du[:, i] * inv_c2) * du[:, i] for i in range(metric.dim)), 0.0))
    return float(w[0]) if squeeze else w


# ---------------------------------------------------------------------------
# Nodal recovery


def _average_cell_gradients(cells, measure, grads_lambda, values):
    """Measure-weighted average of the adjacent cells' P1 gradients of
    ``values`` (one per vertex), for any cell geometry over one topology."""
    cell_grad = np.einsum("ca,cad->cd", values[cells], grads_lambda)
    # one pass over the cells per local vertex, in cell order: a vertex's sums
    # run in the order of a loop of np.add.at over the local vertices
    ids, k, n = cells.T.ravel(), cells.shape[1], len(values)
    weighted = measure[:, None] * cell_grad
    num = np.column_stack([np.bincount(ids, np.tile(col, k), minlength=n)
                           for col in weighted.T])
    den = np.bincount(ids, np.tile(measure, k), minlength=n)
    return num / den[:, None]


def recover_vertex_gradients(mesh, values):
    """Measure-weighted average of adjacent cell P1 gradients, per vertex."""
    return _average_cell_gradients(mesh.cells, mesh.cell_measure, mesh.grads_lambda,
                                   np.asarray(values, dtype=float))


def vertex_slope_factors(metric, u):
    """W at mesh vertices from recovered gradients."""
    grads = recover_vertex_gradients(u.mesh, u.values)
    return slope_factor(metric, u.mesh.vertices, grads)


def _patch_derivatives(mesh, values, vertices):
    """Batched quadratic patch recovery: (gradients, hessians, fitted) at ``vertices``.

    A vertex's patch is its one-ring, widened to the two-ring when that has
    too few points for a quadratic; ``fitted`` is False where the two-ring is
    still too small.  Patches of equal size are fitted together by one
    batched QR least-squares solve (`_least_squares`); a patch whose
    condition bound is not below 1/rcond, with the cutoff
    rcond = eps max(k, ncoef) that ``lstsq(rcond=None)`` uses, is fitted by
    the truncated pseudo-inverse.
    """
    values = np.asarray(values, dtype=float)
    vertices = np.asarray(vertices, dtype=int).reshape(-1)
    dim, m = mesh.dim, len(vertices)
    needed = 3 if dim == 1 else 6
    # the entries are positive, so row r's sparsity pattern is vertices[r]'s patch
    graph = mesh.edge_graph(np.ones(len(mesh.edges)))
    ring = (graph[vertices] + coo_matrix((np.ones(m), (np.arange(m), vertices)),
                                         shape=(m, graph.shape[1]))).tocsr()
    small = np.diff(ring.indptr) < needed
    patch = (ring + diags(small.astype(float)) @ ring @ graph).tocsr()
    patch.eliminate_zeros()
    patch.sort_indices()
    size = np.diff(patch.indptr)
    fitted = size >= needed
    grad = np.zeros((m, dim))
    hess = np.zeros((m, dim, dim))
    for k in np.unique(size[fitted]):
        rows = np.where(size == k)[0]
        ids = patch.indices[patch.indptr[rows][:, None] + np.arange(k)]
        dx = mesh.vertices[ids] - mesh.vertices[vertices[rows]][:, None]
        scale = np.max(np.linalg.norm(dx, axis=2), axis=1)
        x = dx / scale[:, None, None]
        # the augmented system [a b]: the quadratic basis, then the values
        ab = np.empty((len(rows), k, needed + 1))
        ab[..., 0] = 1.0
        ab[..., 1:dim + 1] = x
        if dim == 1:
            ab[..., 2] = 0.5 * x[..., 0] ** 2
        else:
            ab[..., 3] = 0.5 * x[..., 0] ** 2
            ab[..., 4] = x[..., 0] * x[..., 1]
            ab[..., 5] = 0.5 * x[..., 1] ** 2
        ab[..., needed] = values[ids]
        coef = _least_squares(ab)
        grad[rows] = coef[:, 1:dim + 1] / scale[:, None]
        second = coef[:, dim + 1:] / scale[:, None] ** 2
        hess[rows] = second[:, [[0]] if dim == 1 else [[0, 1], [1, 2]]]
    return grad, hess, fitted


def _least_squares(ab):
    """Least-squares solutions (m, n) of the stacked systems a x = b given as
    the augmented ab = [a b] (m, k, n + 1), k >= n.

    One QR factorization of the stacked [a b]: its R holds R of a and, in its
    last column, c = Q^T b, so coef = R^{-1} c, with R^{-1} by back
    substitution over the stack.  `lstsq(rcond=None)`'s cutoff
    rcond = eps max(k, n) is kept through the bound
    cond_2(R) <= |R|_F |R^{-1}|_F: below 1/rcond the pseudo-inverse keeps
    every singular value and both give the full-rank solution, so a system
    whose bound is not below it, or is not finite (a zero diagonal entry of
    R), is solved by the truncated pseudo-inverse instead.
    """
    k, n = ab.shape[1], ab.shape[2] - 1
    rcond = np.finfo(float).eps * max(k, n)
    # (n, n + 1, m): each step below is one operation on length-m rows
    rb = np.linalg.qr(ab, mode="r")
    rb = np.ascontiguousarray(rb[:, :n].transpose(1, 2, 0))
    r, c = rb[:, :n], rb[:, n]
    rinv = np.zeros_like(r)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            row = -np.einsum("jm,jkm->km", r[i, i + 1:], rinv[i + 1:])
            row[i] += 1.0
            rinv[i] = row / r[i, i]
        coef = np.einsum("ijm,jm->mi", rinv, c)
        bound = np.sqrt(np.einsum("ijm,ijm->m", r, r) * np.einsum("ijm,ijm->m", rinv, rinv))
    truncated = ~(bound < 1.0 / rcond)
    if np.any(truncated):
        bad = ab[truncated]
        fit = np.linalg.pinv(bad[..., :n], rcond=rcond)
        # a contiguous b keeps einsum's summation order, and so its bits
        coef[truncated] = np.einsum("mck,mk->mc", fit, np.ascontiguousarray(bad[..., n]))
    return coef


def _difference_points(x):
    """Central-difference stencil at the rows of ``x``: (x + h e_i, x - h e_i, 2 h)
    per coordinate i, with h = 1e-6 (1 + |x_i|)."""
    out = []
    for i in range(x.shape[1]):
        step = 1e-6 * (1.0 + np.abs(x[:, i]))
        xp, xm = x.copy(), x.copy()
        xp[:, i] += step
        xm[:, i] -= step
        out.append((xp, xm, 2 * step))
    return out


def mean_curvature_from_derivatives(metric, x, grad, hess):
    """div(grad u / W) - <grad gamma / 2 gamma, grad u / W> from pointwise derivatives.

    Vectorized over points: grad (m, d) and hess (m, d, d) are a first and
    second derivative estimate of u; the divergence is the sigma-divergence.
    With sigma = c^2 I it takes its metric terms from the symbolic grad c:
    d_i(1/c^2) = -2 d_i c / c^3 and d_i log sqrt(det sigma) = d d_i c / c.
    c, gamma and their gradients come from one run of the metric's jet tape
    (built on first use), bit for bit the values of its four evaluators,
    which still raise every metric error, in their order.  The contractions
    are sums over the d components that start from 0.0, in np.einsum's
    order, so they give its bits, signed zeros included.
    """
    d = metric.dim
    pts, squeeze = _as_points(x, d)
    du = np.asarray(grad, dtype=float).reshape(len(pts), d)
    hess = np.asarray(hess, dtype=float).reshape(len(pts), d, d)
    c, gamma, ggam, grad_c = metric._jet(pts)
    inv_c2 = 1.0 / c ** 2
    gc3 = grad_c / (c ** 3)[:, None]

    def dot(p, q):
        return sum((p[:, i] * q[:, i] for i in range(d)), 0.0)

    g = inv_c2[:, None] * du
    w = np.sqrt(gamma + dot(du, g))
    # dW_i = (d_i gamma - 2 |du|^2 d_i c / c^3 + 2 (hess g)_i) / 2W
    grad_c_du2 = sum(((gc3 * du[:, k, None]) * du[:, k, None] for k in range(d)), 0.0)
    hess_g = sum((hess[:, :, k] * g[:, k, None] for k in range(d)), 0.0)
    dw = (ggam - 2.0 * grad_c_du2 + 2.0 * hess_g) / (2.0 * w[:, None])
    trace = sum((inv_c2 * hess[:, i, i] for i in range(d)), 0.0)
    # d_i(1/c^2) du_i + (1/c^2) du_i d_i log c^d = (d - 2) <grad c, du> / c^3
    div_sigma = ((d - 2) * dot(gc3, du) / w + trace / w - dot(g, dw) / w**2)
    out = div_sigma - dot(ggam, g) / (2.0 * gamma * w)
    return float(out[0]) if squeeze else out


def mean_curvature_strong(metric, u, vertex):
    """Strong-form curvature operator at an interior vertex of a nodal field.

    Second derivatives come from the batched quadratic least-squares patch
    fit, called for one vertex; equals n H of the graph with respect to the
    upward normal, hence the pointwise residual of the prescribed-curvature
    equation is nH - tau psi.  Raises `ValueError` when the vertex's patch
    is too small for a quadratic.
    """
    grad, hess, fitted = _patch_derivatives(u.mesh, u.values, [vertex])
    if not fitted[0]:
        raise ValueError(f"patch of vertex {vertex} is too small for a quadratic")
    return mean_curvature_from_derivatives(metric, u.mesh.vertices[vertex], grad[0], hess[0])
