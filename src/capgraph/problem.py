"""Capillary data (gravity potential psi, angle data phi) and its admissibility.

Admissibility means, sampled over the domain and a height interval:
positive gravity d psi / d s >= beta > 0, bounded data |psi| + |ambient grad
psi| <= C_psi, non-increasing angle data d phi / d s <= 0, uniform
non-degeneracy 1 - phi^2 >= beta_prime > 0 and |phi| <= C_phi.  Declared
constants are cross-checked against sampled ones and the safer value wins
(smaller beta, larger mu).

Heights are sampled at 21 evenly spaced values, or only at the two ends of
the interval when psi and phi are both affine in s (``affine_in_s``).  The
endpoints are exact then: d psi / d s and d phi / d s do not depend on s,
|psi| + |grad psi| and |phi| are convex in s and 1 - phi^2 is concave, so
every extreme over the interval sits at an end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import DerivativeError, parse_expression, symbolic_s_derivative
from .geometry import MetricField, _difference_points
from .meshing import _BLOCK, _walk_blocks

__all__ = [
    "CapillaryProblem",
    "ConditionResult",
    "ValidationReport",
    "validate_conditions",
    "height_bound",
    "PositiveGravityError",
    "effective_constants",
    "random_positive_gravity_problem",
]


def _expr_callable(expr, dim):
    def fn(x, s):
        return expr.at_points(np.asarray(x, dtype=float).reshape(-1, dim), s)
    return fn


# heights sampled per s-interval for data that are not affine in s
_NUM_S = 21


@dataclass
class CapillaryProblem:
    """Prescribed curvature psi(x, s), angle cosine phi(x, s) and constants.

    psi / dpsi_ds / phi / dphi_ds are vectorized callables of (points, s).
    Declared constants are optional; `validate_conditions` reconciles them
    with sampled values.  ``u_exact`` is set by manufactured problems.
    ``affine_in_s`` declares psi and phi affine in s, so that validation
    samples the ends of the s-interval only.
    """

    dim: int
    psi: callable
    dpsi_ds: callable
    phi: callable
    dphi_ds: callable
    beta: float | None = None
    mu: float | None = None
    beta_prime: float | None = None
    c_psi: float | None = None
    c_phi: float | None = None
    psi_source: str | None = None
    phi_source: str | None = None
    u_exact: object = None
    affine_in_s: bool = False

    @classmethod
    def from_expressions(cls, dim, psi, phi="0", dpsi_ds=None, dphi_ds=None,
                         **constants):
        """Build from expression strings or parsed `Expression`s; s-derivatives
        are symbolic unless given.

        The data count as affine in s when no s-derivative they use (the
        symbolic ones of psi and phi and any declared ones) contains s.
        """
        psi_expr = parse_expression(psi)
        phi_expr = parse_expression(phi)
        slopes = []
        for expr, declared in ((psi_expr, dpsi_ds), (phi_expr, dphi_ds)):
            try:
                symbolic = symbolic_s_derivative(expr)
            except DerivativeError:  # abs/min/max of s, let through by a declared derivative
                if declared is None:
                    raise
                symbolic = None
            slopes.append((symbolic, symbolic if declared is None
                           else parse_expression(declared)))
        (_, dpsi_expr), (_, dphi_expr) = slopes
        affine = all(d is not None and not d.depends_on("s") for pair in slopes for d in pair)
        return cls(dim=dim,
                   psi=_expr_callable(psi_expr, dim),
                   dpsi_ds=_expr_callable(dpsi_expr, dim),
                   phi=_expr_callable(phi_expr, dim),
                   dphi_ds=_expr_callable(dphi_expr, dim),
                   psi_source=psi_expr.source, phi_source=phi_expr.source,
                   affine_in_s=affine, **constants)


@dataclass
class ConditionResult:
    name: str
    passed: bool
    margin: float
    worst: float
    note: str = ""


@dataclass
class ValidationReport:
    conditions: dict = field(default_factory=dict)
    beta: float = np.nan           # safer (smaller) of declared / sampled
    mu: float = np.nan             # safer (larger) of declared / sampled
    beta_prime: float = np.nan
    c_psi: float = np.nan
    c_phi: float = np.nan
    s_range: tuple = (0.0, 0.0)
    passed: bool = False

    def summary(self):
        lines = [f"conditions on s in [{self.s_range[0]:g}, {self.s_range[1]:g}]:"]
        for c in self.conditions.values():
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: margin {c.margin:.3g} ({c.note})")
        lines.append(f"  beta={self.beta:.6g} mu={self.mu:.6g} "
                     f"beta_prime={self.beta_prime:.6g} c_psi={self.c_psi:.6g} "
                     f"c_phi={self.c_phi:.6g}")
        return "\n".join(lines)


def _interior_sample_points(mesh):
    """The assembly's cell quadrature points, then every vertex."""
    return np.vstack([mesh.cell_points.reshape(-1, mesh.dim), mesh.vertices])


def _boundary_sample_points(mesh):
    """The assembly's facet quadrature points, then every boundary vertex."""
    return np.vstack([mesh.facet_points.reshape(-1, mesh.dim),
                      mesh.vertices[mesh.boundary_vertices]])


def _extremes(points, extremes, reduce):
    """``extremes`` over the blocks of ``points`` (`meshing._walk_blocks`).

    ``extremes(block)`` returns a tuple of floats, and slot k of the blocks'
    tuples is combined by ``reduce[k]`` (`np.minimum` or `np.maximum`, which
    propagate NaN); points that fit one block give their tuple as it is.
    """
    return _walk_blocks(len(points), _BLOCK, lambda block: extremes(points[block]),
                        lambda parts: tuple(float(r.reduce(col))
                                            for r, col in zip(reduce, zip(*parts))))


def _safer(declared, sampled, pick):
    """``pick`` (`np.minimum` or `np.maximum`) of a declared and a sampled
    constant, or the sampled one when none is declared; NaN wins."""
    return sampled if declared is None else float(pick(declared, sampled))


def _ambient_gradient_norm(problem, s, dpsi, inv_c2, gamma, shifted):
    """|ambient grad psi| = sqrt(|grad_x psi|^2 / c^2 + gamma (d_s psi)^2).

    ``dpsi`` is d_s psi at the sample points, ``inv_c2`` (1/c^2, the scalar
    sigma^{-1}) and ``gamma`` the metric there and ``shifted`` their
    central-difference points from `geometry._difference_points`; only
    ``dpsi`` depends on s.
    """
    dxs = np.stack([(problem.psi(xp, s) - problem.psi(xm, s)) / two_step
                    for xp, xm, two_step in shifted], axis=1)
    grad_sq = np.einsum("ki,ki->k", dxs, inv_c2[:, None] * dxs)
    return np.sqrt(grad_sq + gamma * dpsi ** 2)


def _s_grid(problem, lo, hi, num):
    """``num`` evenly spaced heights in [lo, hi], or just lo and hi when the
    data are affine in s: every sampled extreme then sits at an end."""
    return np.linspace(lo, hi, 2 if problem.affine_in_s else num)


def validate_conditions(problem, mesh, metric, s_range):
    """Sampled admissibility report; never raises on a violated condition.

    Heights are sampled at `_NUM_S` points of ``s_range``, or at its two ends
    when ``problem.affine_in_s``: the s-derivatives are then constant in s,
    |psi| + |grad psi| and |phi| convex and 1 - phi^2 concave, so the report
    is the same.  The samples are walked in blocks of `_BLOCK` points and
    reduced by min and max, so the report does not depend on the blocks.
    A NaN at any sample fails each condition that reads it: the reductions
    and the declared/sampled reconciliation propagate NaN, and every test
    is written so that NaN fails it.
    """
    report = ValidationReport(s_range=tuple(map(float, s_range)))
    s_grid = _s_grid(problem, s_range[0], s_range[1], _NUM_S)

    def interior(x):
        # positive gravity (ii) and magnitude bound (i) over interior x times s
        inv_c2, gamma = 1.0 / metric.conformal(x) ** 2, metric.gamma(x)
        shifted = _difference_points(x)
        per_s = np.empty((3, len(s_grid)))
        for k, s0 in enumerate(s_grid):
            s = np.full(len(x), s0)
            dpsi = problem.dpsi_ds(x, s)
            mag = np.abs(problem.psi(x, s)) + _ambient_gradient_norm(
                problem, s, dpsi, inv_c2, gamma, shifted)
            ds = 1e-6 * (1.0 + abs(s0))
            fd = (problem.psi(x, s + ds) - problem.psi(x, s - ds)) / (2 * ds)
            per_s[:, k] = dpsi.min(), mag.max(), (np.abs(fd - dpsi) / (1.0 + np.abs(fd))).max()
        return (float(per_s[0].min()), float(per_s[1].max()), float(per_s[2].max()),
                float(problem.psi(x, np.zeros(len(x))).max()))

    def boundary(x):
        # angle conditions (iii)-(v) over boundary x times s
        per_s = np.empty((3, len(s_grid)))
        for k, s0 in enumerate(s_grid):
            s = np.full(len(x), s0)
            phi = problem.phi(x, s)
            per_s[:, k] = problem.dphi_ds(x, s).max(), (1.0 - phi**2).min(), np.abs(phi).max()
        return float(per_s[0].max()), float(per_s[1].min()), float(per_s[2].max())

    dpsi_min, cpsi_max, fd_err, mu_hat = _extremes(
        _interior_sample_points(mesh), interior,
        (np.minimum, np.maximum, np.maximum, np.maximum))
    dphi_max, one_minus_sq_min, cphi_max = _extremes(
        _boundary_sample_points(mesh), boundary, (np.maximum, np.minimum, np.maximum))

    report.beta = _safer(problem.beta, dpsi_min, np.minimum)
    report.mu = _safer(problem.mu, mu_hat, np.maximum)
    report.beta_prime = _safer(problem.beta_prime, one_minus_sq_min, np.minimum)
    report.c_psi = _safer(problem.c_psi, cpsi_max, np.maximum)
    report.c_phi = _safer(problem.c_phi, cphi_max, np.maximum)

    conds = report.conditions
    conds["magnitude-bound"] = ConditionResult(
        "magnitude-bound", bool(np.isfinite(cpsi_max))
        and (problem.c_psi is None or cpsi_max <= problem.c_psi * (1 + 1e-9)),
        margin=(problem.c_psi - cpsi_max) if problem.c_psi is not None else np.inf,
        worst=cpsi_max, note=f"sampled |psi|+|grad psi| <= {cpsi_max:.4g}")
    conds["positive-gravity"] = ConditionResult(
        "positive-gravity", dpsi_min > 0.0, margin=dpsi_min, worst=dpsi_min,
        note=f"sampled min d(psi)/ds = {dpsi_min:.4g}")
    conds["dpsi-consistency"] = ConditionResult(
        "dpsi-consistency", fd_err <= 1e-6, margin=1e-6 - fd_err, worst=fd_err,
        note="d(psi)/ds vs central differences")
    conds["angle-monotone"] = ConditionResult(
        "angle-monotone", dphi_max <= 1e-12, margin=-dphi_max, worst=dphi_max,
        note=f"sampled max d(phi)/ds = {dphi_max:.4g}")
    conds["angle-nondegenerate"] = ConditionResult(
        "angle-nondegenerate", one_minus_sq_min > 0.0, margin=one_minus_sq_min,
        worst=one_minus_sq_min, note=f"sampled min 1-phi^2 = {one_minus_sq_min:.4g}")
    conds["angle-bound"] = ConditionResult(
        "angle-bound", bool(np.isfinite(cphi_max))
        and (problem.c_phi is None or cphi_max <= problem.c_phi * (1 + 1e-9)),
        margin=(problem.c_phi - cphi_max) if problem.c_phi is not None else np.inf,
        worst=cphi_max, note=f"sampled max |phi| = {cphi_max:.4g}")
    report.passed = all(c.passed for c in conds.values())
    return report


def effective_constants(problem, metric, mesh):
    """(beta, mu, warp ratio sup|Y|/inf|Y|) with declared/sampled reconciliation.

    beta is sampled over a window bootstrapped from the implied bound itself
    (twice, which stabilizes for data whose s-slope is monotone in s).  Each
    window is sampled at 15 heights, or at its two ends for data affine in
    s, whose s-slope does not depend on s.  The samples are walked in blocks
    as in `validate_conditions`, and a NaN sample makes beta or mu NaN.
    """
    xs = _interior_sample_points(mesh)

    def sampled_beta(x, lo, hi):
        return float(np.array([problem.dpsi_ds(x, np.full(len(x), s0)).min()
                               for s0 in _s_grid(problem, lo, hi, 15)]).min())

    def first_window(x):
        gam = metric.gamma(x)
        return (float(gam.min()), float(gam.max()),
                float(problem.psi(x, np.zeros(len(x))).max()), sampled_beta(x, -1.0, 1.0))

    gam_min, gam_max, mu_hat, beta_hat = _extremes(
        xs, first_window, (np.minimum, np.maximum, np.maximum, np.minimum))
    ratio = float(np.sqrt(gam_max / gam_min))  # sup |Y| / inf |Y|
    mu = _safer(problem.mu, mu_hat, np.maximum)
    if beta_hat > 0:
        bound = 2.0 * max(1.0, ratio * max(mu, 0.0) / beta_hat)
        beta_hat, = _extremes(xs, lambda x: (sampled_beta(x, -bound, bound),),
                              (np.minimum,))
    beta = _safer(problem.beta, beta_hat, np.minimum)
    return beta, mu, ratio


class PositiveGravityError(ValueError):
    """No height bound: positive gravity fails (beta <= 0 or NaN), or mu is NaN."""


def height_bound(problem, metric, mesh):
    """The a-priori bound (sup|Y|/inf|Y|) mu/beta on |u|; requires beta > 0
    and a mu that is a number, else raises `PositiveGravityError`.

    For mu <= 0 the displayed bound is not two-sided; max(0, B) is returned
    and the certificate layer marks it not-applicable.
    """
    beta, mu, ratio = effective_constants(problem, metric, mesh)
    if not beta > 0:
        raise PositiveGravityError(
            f"positive gravity fails: beta = {beta:.4g} is not positive")
    if np.isnan(mu):
        raise PositiveGravityError("no height bound: the sampled mu is NaN")
    return max(0.0, ratio * mu / beta)


# ---------------------------------------------------------------------------
# Random admissible family (suite plumbing)


def random_positive_gravity_problem(rng, dim, warp=False):
    """Random polynomial data satisfying the structural conditions with mu >= 0,
    inside the regime where the two-sided height bound genuinely holds.

    The solution of such data rides near depth -mu/beta, where the bound is
    tight, and a downward wall dip of angle data can push past it: the
    two-sided inequality needs the wetting term's sign (phi >= 0 closes the
    active lower side) or warp slack (the |Y|-ratio inflates the bound while
    the solution stays put).  Flat problems therefore draw phi >= 0; warped
    problems draw phi <= 0 against a warp ratio of at least four, which
    dominates any meniscus dip.  The base level of psi sits a random surplus
    above the wall-rise scale of the angle data.  Returns (problem, metric).
    """
    beta = float(rng.uniform(0.5, 2.0))
    x_dep = bool(rng.uniform() < 0.3)
    if warp:
        phi0 = float(-rng.uniform(0.0, 0.6))
    else:
        phi0 = float(rng.uniform(0.0, 0.6))
    phi_amp = abs(phi0) + (0.05 if x_dep else 0.0)
    meniscus = float(np.sqrt(2.0 / beta * (1.0 - np.sqrt(1.0 - phi_amp**2))))
    floor = 2.5 * phi_amp + beta * (1.5 * meniscus + 0.1)
    mu0 = float(floor + beta * rng.uniform(0.1, 1.5))

    c = float(rng.uniform(0.0, 0.5))
    if dim == 1:
        w = float(rng.uniform(0.2, 0.8))
        bump = f"{c!r}*(x1 - {w!r})^2"
    else:
        w1, w2 = (float(t) for t in rng.uniform(-0.3, 0.3, size=2))
        bump = f"{c!r}*((x1 - {w1!r})^2 + (x2 - {w2!r})^2)"
    psi = f"{mu0!r} + {beta!r}*s - {bump}"
    # the x-dependent tilt keeps the sign of phi
    sign = -1.0 if warp else 1.0
    phi = f"{phi0!r} + {sign * 0.025!r}*(1 + x1)" if x_dep else f"{phi0!r}"

    if warp:
        g = float(rng.uniform(15.0, 30.0))
        metric_field = _radial_metric(dim, g)
    else:
        metric_field = MetricField.euclidean(dim)
    problem = CapillaryProblem.from_expressions(
        dim, psi, phi, beta=beta, mu=mu0, beta_prime=1.0 - phi_amp**2)
    return problem, metric_field


def _radial_metric(dim, g):
    return MetricField.radial_warp(dim, gamma=f"1 + {g!r}*r^2")
