"""The sampled checks and the Jacobian walk the mesh in blocks of
`meshing._BLOCK` sample points: their results equal the whole-array forms
kept here bit for bit, and an error is the one the whole set raises first."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capgraph as cg
from capgraph import assembly
from capgraph import problem as pb
from capgraph.expressions import EvaluationError
from capgraph.geometry import _difference_points
from capgraph.meshing import _BLOCK


@functools.cache
def _mesh(dim):
    # at least three blocks of sample points and three blocks of cells
    mesh = (cg.generate_interval_mesh(0.0, 1.0, 20000) if dim == 1
            else cg.generate_disk_mesh(1.0, 0.02))
    nq, nc = mesh.cell_points.shape[:2]
    assert nc > 2 * (_BLOCK // nq)
    assert len(pb._interior_sample_points(mesh)) > 2 * _BLOCK
    return mesh


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def _reference_extremes(problem, mesh, metric, s_range):
    """The sampled figures of a report over the whole sample arrays:
    (min dpsi, max |psi| + |grad psi|, max FD error, max psi(., 0),
    max dphi, min 1 - phi^2, max |phi|)."""
    xs = pb._interior_sample_points(mesh)
    xb = pb._boundary_sample_points(mesh)
    s_grid = pb._s_grid(problem, s_range[0], s_range[1], pb._NUM_S)
    inv_c2, gamma = 1.0 / metric.conformal(xs) ** 2, metric.gamma(xs)
    shifted = _difference_points(xs)
    dpsi_min, mag_max, fd_max = [], [], []
    for s0 in s_grid:
        s = np.full(len(xs), s0)
        dpsi = problem.dpsi_ds(xs, s)
        dpsi_min.append(np.min(dpsi))
        mag = np.abs(problem.psi(xs, s)) + pb._ambient_gradient_norm(
            problem, s, dpsi, inv_c2, gamma, shifted)
        mag_max.append(np.max(mag))
        ds = 1e-6 * (1.0 + abs(s0))
        fd = (problem.psi(xs, s + ds) - problem.psi(xs, s - ds)) / (2 * ds)
        fd_max.append(np.max(np.abs(fd - dpsi) / (1.0 + np.abs(fd))))
    mu_hat = np.max(problem.psi(xs, np.zeros(len(xs))))
    dphi_max, one_minus_sq_min, phi_max = [], [], []
    for s0 in s_grid:
        s = np.full(len(xb), s0)
        phi = problem.phi(xb, s)
        dphi_max.append(np.max(problem.dphi_ds(xb, s)))
        one_minus_sq_min.append(np.min(1.0 - phi**2))
        phi_max.append(np.max(np.abs(phi)))
    return (np.min(dpsi_min), np.max(mag_max), np.max(fd_max), mu_hat,
            np.max(dphi_max), np.min(one_minus_sq_min), np.max(phi_max))


def _reference_constants(problem, metric, mesh):
    """`effective_constants` over the whole sample array (no declared constants)."""
    xs = pb._interior_sample_points(mesh)
    gam = metric.gamma(xs)
    ratio = float(np.sqrt(np.max(gam) / np.min(gam)))
    mu = float(np.max(problem.psi(xs, np.zeros(len(xs)))))

    def sampled_beta(lo, hi):
        return float(np.min([np.min(problem.dpsi_ds(xs, np.full(len(xs), s0)))
                             for s0 in pb._s_grid(problem, lo, hi, 15)]))

    beta = sampled_beta(-1.0, 1.0)
    if beta > 0:
        bound = 2.0 * max(1.0, ratio * max(mu, 0.0) / beta)
        beta = sampled_beta(-bound, bound)
    return beta, mu, ratio


def _reference_jacobian_data(u, tau, problem, metric, mesh):
    """The Jacobian's values, every cell at once, in the CSR pattern's order."""
    ctx = assembly._context(mesh, metric)
    topo = ctx.topo
    grad, g, w, uq = assembly._cell_state(ctx, u)
    cw = ctx.cw / w
    d_bar = 0.0 - np.einsum("iqc,jqc->ijc", cw / w**2 * g, g)
    diag = np.arange(mesh.dim)
    d_bar[diag, diag] += np.einsum("qc,qc->c", cw, ctx.inv_c2_q)
    t = np.einsum("aec,dec->adc", topo.grads, d_bar)
    k_grad = np.einsum("adc,bdc->abc", t, topo.grads)
    dpsi_q = problem.dpsi_ds(ctx.xq.reshape(-1, mesh.dim), uq.ravel()).reshape(uq.shape)
    k_mass = ctx.cell_mass @ (tau * ctx.cw * dpsi_q)
    dphi_q = assembly._boundary_values(ctx, u, problem.dphi_ds)
    kb = -(tau * ctx.fcw * dphi_q) @ ctx.facet_mass
    return np.bincount(topo.scatter, np.concatenate(
        [(k_grad.reshape(k_mass.shape) + k_mass).ravel(), kb.ravel()]),
        minlength=len(topo.indices))


_coef = st.floats(0.05, 1.5)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), warp=st.booleans(), curved=st.booleans(),
       a=_coef, b=_coef, c=_coef, k=_coef, seed=st.integers(0, 2**32 - 1))
def test_blocks_equal_the_whole_arrays(dim, warp, curved, a, b, c, k, seed):
    mesh = _mesh(dim)
    x2 = "x2" if dim == 2 else "x1"
    psi = (f"{a!r} + {b!r}*s + {c!r}*exp({k!r}*x1) - 0.1*log(1 + {x2}^2)"
           f" + 0.2*sqrt({k!r} + r^2)" + (f" + 0.05*exp({k!r}*s)" if curved else ""))
    phi = f"0.3*tanh(-{k!r}*s) + 0.1*sqrt(1 + x1^2) - {c!r}*0.1"
    problem = pb.CapillaryProblem.from_expressions(dim, psi, phi)
    metric = (cg.MetricField.radial_warp(dim, f"1 + {b!r}*r^2", f"1 + 0.2*{x2}^2")
              if warp else cg.MetricField.euclidean(dim))
    s_range = (-1.5 * a, 2.0 * c)

    report = pb.validate_conditions(problem, mesh, metric, s_range)
    conds = report.conditions
    assert _bits(*(conds[name].worst for name in (
        "positive-gravity", "magnitude-bound", "dpsi-consistency")), report.mu,
        *(conds[name].worst for name in (
            "angle-monotone", "angle-nondegenerate", "angle-bound"))) == _bits(
        *_reference_extremes(problem, mesh, metric, s_range))
    assert (_bits(*pb.effective_constants(problem, metric, mesh))
            == _bits(*_reference_constants(problem, metric, mesh)))

    u = np.random.default_rng(seed).uniform(-a, c, mesh.num_vertices)
    data = assembly.jacobian(u, 0.7, problem, metric, mesh).data
    assert data.tobytes() == _reference_jacobian_data(u, 0.7, problem, metric,
                                                      mesh).tobytes()


def test_an_error_is_the_one_the_whole_set_raises_first():
    # on the interval the samples and the cells run left to right within each
    # block: the first block reaches only x1 < 0.82, where the sqrt fails
    # (x1 < 0.05) but not the log, which comes first in evaluation order and
    # fails (x1 >= 0.95) in later blocks only
    mesh = _mesh(1)
    metric = cg.MetricField.euclidean(1)
    problem = pb.CapillaryProblem.from_expressions(
        1, "s*(log(0.95 - x1) + sqrt(x1 - 0.05))", "0")
    xs = pb._interior_sample_points(mesh)
    u = np.zeros(mesh.num_vertices)
    with pytest.raises(EvaluationError, match="sqrt"):
        problem.dpsi_ds(xs[:_BLOCK], 0.0)
    with pytest.raises(EvaluationError, match="log"):
        problem.dpsi_ds(xs, 0.0)

    for blocked, whole in (
            (lambda: pb.validate_conditions(problem, mesh, metric, (-1, 1)),
             lambda: _reference_extremes(problem, mesh, metric, (-1, 1))),
            (lambda: pb.effective_constants(problem, metric, mesh),
             lambda: _reference_constants(problem, metric, mesh)),
            (lambda: assembly.jacobian(u, 0.5, problem, metric, mesh),
             lambda: _reference_jacobian_data(u, 0.5, problem, metric, mesh))):
        with pytest.raises(EvaluationError) as expected:
            whole()
        with pytest.raises(EvaluationError) as raised:
            blocked()
        assert "log" in str(expected.value)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


def test_a_nan_in_a_later_block_reaches_the_report():
    # 0*exp(800*x1) is NaN for x1 >= 0.89, which the first block does not reach
    mesh = _mesh(1)
    metric = cg.MetricField.euclidean(1)
    problem = pb.CapillaryProblem.from_expressions(
        1, "1 + s", "0", dpsi_ds="1 + 0*exp(800*x1)")
    first_block = pb._interior_sample_points(mesh)[:_BLOCK]
    assert np.isfinite(problem.dpsi_ds(first_block, 0.0)).all()
    report = pb.validate_conditions(problem, mesh, metric, (-1, 1))
    assert not report.conditions["positive-gravity"].passed
    assert np.isnan(report.beta)
    assert np.isnan(pb.effective_constants(problem, metric, mesh)[0])
