import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import capgraph as cg
from capgraph.config import load_config
from capgraph.expressions import EvaluationError
from capgraph import geometry
from capgraph.geometry import _patch_derivatives, mean_curvature_from_derivatives
from capgraph import verify as vf
from capgraph.meshing import DomainSpec
from capgraph.solver import continuation_solve
from capgraph.verify import (
    Certificate,
    FoldDetected,
    ManufactureError,
    OracleFailed,
    boundary_gradient_certificate,
    check_height,
    contact_angle_residual,
    interior_ball,
    interior_gradient_certificate,
    separation_rate_check,
    make_interior_bump,
    mms_convergence_study,
    mms_manufacture,
    observed_order,
    oracle_1d_solve,
    run_refinement_suite,
    strong_form_residual,
)
from conftest import cap_values, zero_data

SHIPPED = Path(__file__).parents[1] / "scripts" / "configs"


def make(dim, psi, phi="0", **kw):
    return cg.CapillaryProblem.from_expressions(dim, psi, phi, **kw)


def test_certificate_semantics():
    cert = Certificate("demo", observed=0.5, bound=1.0, tolerance=0.1,
                       trace=[(0.1, 0.5)])
    assert cert.margin == pytest.approx(0.5)
    assert cert.provisional
    cert.trace += [(0.05, 0.4), (0.025, 0.35)]
    assert not cert.provisional
    json.dumps(cert.to_dict())      # serializable


def test_observed_order():
    hs = [0.2, 0.1, 0.05]
    errs = [4e-2, 1e-2, 2.5e-3]
    assert observed_order(hs, errs) == pytest.approx(2.0, abs=1e-12)


def test_check_height_trivial(disk_01, euclid2):
    prob = make(2, "s")
    state = continuation_solve(prob, euclid2, disk_01)
    cert = check_height(state.u, prob, euclid2, disk_01)
    assert cert.applicable and cert.passed
    assert cert.observed == pytest.approx(0.0, abs=1e-12)
    assert cert.margin == pytest.approx(0.0, abs=1e-12)


def test_check_height_not_applicable_for_negative_mu(disk_01, euclid2):
    prob = mms_manufacture(euclid2, disk_01, "sqrt(4 - r^2)")
    u = cg.ScalarField(disk_01, cap_values(disk_01.vertices))
    cert = check_height(u, prob, euclid2, disk_01)
    assert not cert.applicable
    assert cert.passed          # not-applicable certificates do not fail


def test_check_height_detects_violations(euclid1, interval_64):
    # depressing angle data on flat warp pushes the dip past the bound: the
    # certificate must report the violation rather than hide it
    prob = make(1, "1 + s", "-0.55")
    state = continuation_solve(prob, euclid1, interval_64)
    cert = check_height(state.u, prob, euclid1, interval_64)
    assert cert.applicable
    assert not cert.passed


def test_interior_gradient_certificate_flat(disk_01, euclid2):
    u = cg.ScalarField.zeros(disk_01)
    cert = interior_gradient_certificate(u, euclid2, disk_01, 0, 0.5)
    assert cert.observed == pytest.approx(1.0, abs=1e-12)   # W = 1, peak at center
    with pytest.raises(ValueError, match="exits"):
        interior_gradient_certificate(u, euclid2, disk_01, 0, 1.5)


def test_interior_gradient_certificate_linear_1d(euclid1, interval_64):
    c = 0.8
    u = cg.ScalarField(interval_64, c * interval_64.vertices[:, 0])
    center = interval_64.num_vertices // 2
    cert = interior_gradient_certificate(u, euclid1, interval_64, center, 0.3)
    assert cert.observed == pytest.approx(np.sqrt(1 + c**2), rel=1e-12)


def test_boundary_gradient_certificate_flat_warp(disk_01):
    metric = cg.MetricField.radial_warp(2, gamma="1 + 3*r^2")
    u = cg.ScalarField.zeros(disk_01)
    cert = boundary_gradient_certificate(u, metric, disk_01)
    expected = np.max(np.sqrt(metric.gamma(disk_01.vertices)))
    assert cert.observed == pytest.approx(expected, rel=1e-12)
    assert cert.details["wall_profile_max"] >= 0


def test_boundary_gradient_certificate_cap(euclid2, disk_01):
    # sup W of the cap over the unit disk: R / sqrt(R^2 - 1) at the rim
    u = cg.ScalarField(disk_01, cap_values(disk_01.vertices))
    cert = boundary_gradient_certificate(u, euclid2, disk_01)
    assert cert.observed == pytest.approx(2.0 / np.sqrt(3.0), rel=0.05)


def test_contact_angle_residual_trivial(disk_01, euclid2):
    prob = make(2, "1 + s", "0")
    u = cg.ScalarField.zeros(disk_01)
    assert contact_angle_residual(u, 0.0, prob, euclid2, disk_01).observed == 0.0
    assert contact_angle_residual(u, 1.0, prob, euclid2, disk_01).observed == 0.0


@pytest.mark.parametrize("gamma", ["1", "exp(2*x1)"])
def test_contact_angle_residual_exact_for_linear_graph(gamma):
    # u = c x1 on (0, 1): <N, nu> = -c nu / sqrt(gamma + c^2) with nu = +1 at
    # x1 = 0 and -1 at x1 = 1; phi interpolates both ends
    c = 0.7
    mesh = cg.generate_interval_mesh(0.0, 1.0, 8)
    metric = cg.MetricField.from_expressions(1, gamma=gamma)
    prob = make(1, "1 + s", f"{c!r}*(2*x1 - 1)/sqrt({gamma} + {c!r}^2)")
    u = cg.ScalarField(mesh, c * mesh.vertices[:, 0])
    cert = contact_angle_residual(u, 1.0, prob, metric, mesh)
    assert cert.observed <= 1e-14
    # at tau = 0.5 the residual is half the angle, largest at x1 = 0
    off = contact_angle_residual(u, 0.5, prob, metric, mesh).observed
    assert off == pytest.approx(0.5 * c / np.sqrt(1 + c**2), rel=1e-12)


def test_strong_form_residual_trivial(disk_01, euclid2):
    # a flat graph at tau = 0, and at tau = 1 where psi(x, 0) = 0 = phi
    for tau, prob in ((0.0, make(2, "1 + s")), (1.0, make(2, "s"))):
        cert = strong_form_residual(cg.ScalarField.zeros(disk_01), tau, prob, euclid2,
                                    disk_01)
        assert cert.observed == 0.0 and cert.passed and cert.bound is None
        assert [cert.details[k] for k in ("eta_cell", "eta_jump", "eta_boundary")] == [0.0] * 3


def test_strong_form_residual_decays_1d():
    metric = cg.MetricField.from_expressions(1, gamma="exp(2*x1)")
    obs, hs = [], []
    for m in (16, 32, 64):
        mesh = cg.generate_interval_mesh(0.0, 1.0, m)
        prob = mms_manufacture(metric, mesh, "0.3*x1 + 0.1*x1^2")
        state = continuation_solve(prob, metric, mesh)
        obs.append(strong_form_residual(state.u, 1.0, prob, metric, mesh).observed)
        hs.append(1.0 / m)
    # the residual estimator of P1 decays at first order
    assert 0.8 <= observed_order(hs, obs) <= 1.2


def test_separation_rate_exact_for_vertical_displacements(disk_01, euclid2):
    zeta = make_interior_bump(disk_01, euclid2)
    u = cg.ScalarField(disk_01, np.full(disk_01.num_vertices, -0.4))
    cert = separation_rate_check(u, euclid2, disk_01, zeta, [1e-2, 5e-3])
    assert cert.details["exact"] and cert.passed
    zero = cg.ScalarField(disk_01, np.zeros(disk_01.num_vertices))
    cert = separation_rate_check(u, euclid2, disk_01, zero, [1e-2])
    assert cert.details["exact"]


def test_separation_rate_linear_graph_first_order(euclid1):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 20)
    zeta = make_interior_bump(mesh, euclid1)
    u = cg.ScalarField(mesh, 0.5 * mesh.vertices[:, 0])
    cert = separation_rate_check(u, euclid1, mesh, zeta, [1e-2, 5e-3, 2.5e-3])
    assert cert.passed
    assert 0.8 <= cert.details["order_in_tau"] <= 1.2


def test_separation_rate_rejects_boundary_supported_zeta(euclid1):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 20)
    zeta = cg.ScalarField(mesh, np.ones(mesh.num_vertices))
    u = cg.ScalarField.zeros(mesh)
    with pytest.raises(ValueError, match="boundary"):
        separation_rate_check(u, euclid1, mesh, zeta, [1e-2])


def test_separation_rate_fold_detection(euclid1):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 20)
    zeta = make_interior_bump(mesh, euclid1)
    u = cg.ScalarField(mesh, 3.0 * mesh.vertices[:, 0])
    with pytest.raises(FoldDetected):
        separation_rate_check(u, euclid1, mesh, zeta, [0.8])


def test_separation_rate_fold_detection_2d(euclid2, disk_01):
    zeta = make_interior_bump(disk_01, euclid2)
    u = cg.ScalarField(disk_01, 3.0 * disk_01.vertices[:, 0])
    with pytest.raises(FoldDetected):
        separation_rate_check(u, euclid2, disk_01, zeta, [0.8])


@pytest.mark.parametrize("mesh", [cg.generate_interval_mesh(0.0, 1.0, 9),
                                  cg.generate_disk_mesh(1.0, 0.2)],
                         ids=["interval", "disk"])
def test_separation_rate_recovery_at_zero_displacement_is_the_mesh_recovery(mesh):
    # one cell-geometry formula serves the mesh and the displaced graph
    measure, grads_lambda = cg.meshing.cell_geometry(mesh.vertices, mesh.cells)
    assert np.array_equal(measure, mesh.cell_measure)
    assert np.array_equal(grads_lambda, mesh.grads_lambda)
    values = np.sin(3.0 * mesh.vertices).sum(axis=1)
    assert np.array_equal(vf._displaced_gradients(mesh, mesh.vertices.copy(), values),
                          cg.geometry.recover_vertex_gradients(mesh, values))


def test_separation_rate_steep_warp_passes():
    # the shipped steep-warp disk; a re-interpolated read-back reported order 0.730
    metric = cg.MetricField.radial_warp(2, gamma="1 + 20*r^2")
    mesh = cg.generate_disk_mesh(1.0, 0.025)
    state = continuation_solve(make(2, "2 + 1.2*s", "0.3"), metric, mesh)
    cert = separation_rate_check(state.u, metric, mesh, make_interior_bump(mesh, metric),
                                 [1e-2, 5e-3, 2.5e-3])
    assert cert.passed and not cert.details["exact"]
    assert cert.details["order_in_tau"] == pytest.approx(1.0, abs=0.02)


def test_separation_rate_passes_on_warped_random_draws():
    # draws 1 and 21 of this sequence failed a re-interpolated read-back at h = 0.05
    rng = np.random.default_rng(123)
    draws = [cg.problem.random_positive_gravity_problem(rng, 2, warp=i % 2 == 1)
             for i in range(22)]
    mesh = cg.generate_disk_mesh(1.0, 0.05)
    for i in (1, 3, 21):
        prob, metric = draws[i]
        state = continuation_solve(prob, metric, mesh)
        cert = separation_rate_check(state.u, metric, mesh,
                                     make_interior_bump(mesh, metric), [1e-2, 5e-3, 2.5e-3])
        assert cert.passed, (i, cert.trace)
        assert cert.details["order_in_tau"] == pytest.approx(1.0, abs=0.02)


def test_mms_cap_data(euclid2, disk_01):
    prob = mms_manufacture(euclid2, disk_01, "sqrt(4 - r^2)")
    pts = np.array([[0.3, 0.1], [0.0, 0.0], [0.5, -0.5]])
    u_ex = cap_values(pts)
    np.testing.assert_allclose(prob.psi(pts, u_ex), -1.0, atol=1e-9)
    np.testing.assert_allclose(prob.psi(pts, np.zeros(3)), -1.0 - u_ex, atol=1e-9)
    np.testing.assert_allclose(prob.dpsi_ds(pts, u_ex), 1.0)
    # at facet midpoints the facet conormal is radial: phi = -|x|/2 there
    mids = disk_01.facet_midpoints()
    np.testing.assert_allclose(prob.phi(mids, np.zeros(len(mids))),
                               -np.linalg.norm(mids, axis=1) / 2.0, atol=1e-12)


def test_mms_zero_solution(euclid2, disk_01):
    prob = mms_manufacture(euclid2, disk_01, "0", kappa0=2.0)
    pts = disk_01.vertices[:5]
    s = np.array([0.3, -1.0, 0.0, 2.0, 0.7])
    np.testing.assert_allclose(prob.psi(pts, s), 2.0 * s, atol=1e-9)
    np.testing.assert_allclose(prob.phi(pts, s), 0.0, atol=1e-12)


def test_mms_1d_warped_matches_dense_differences(euclid1):
    # brute-force evaluation of (u'/W)' - (gamma'/2 gamma)(u'/W) for the
    # manufactured data of a low-degree polynomial
    metric = cg.MetricField.from_expressions(1, gamma="exp(2*x1)")
    mesh = cg.generate_interval_mesh(0.0, 1.0, 16)
    prob = mms_manufacture(metric, mesh, "0.3*x1 + 0.1*x1^2")
    xd = np.linspace(0.0, 1.0, 40001)
    du = 0.3 + 0.2 * xd
    w = np.sqrt(np.exp(2 * xd) + du**2)
    flux = du / w
    dense = np.gradient(flux, xd) - flux                  # gamma'/2 gamma = 1
    for x in (0.25, 0.5, 0.75):
        u_at = 0.3 * x + 0.1 * x**2
        got = float(prob.psi(np.array([[x]]), np.array([u_at]))[0])
        assert got == pytest.approx(np.interp(x, xd, dense), rel=1e-5, abs=1e-7)


def test_mms_rejects_degenerate_angle(euclid1):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 8)
    with pytest.raises(ManufactureError):
        mms_manufacture(euclid1, mesh, "100000*x1")
    with pytest.raises(ManufactureError):
        mms_manufacture(euclid1, mesh, "x1", kappa0=0.0)


def _memo_free_data(metric, mesh, u_exact, kappa0):
    """mms_manufacture's psi and phi, written out with no memo."""
    expr = cg.parse_expression(u_exact)
    names = ("x1", "x2")[:mesh.dim]
    dus = [expr.derivative(v, dim=mesh.dim) for v in names]
    d2us = [[du.derivative(v, dim=mesh.dim) for v in names] for du in dus]
    tree = cKDTree(mesh.facet_midpoints())
    nus = mesh.sigma_conormals(metric)

    def grad(x):
        return np.column_stack([du.at_points(x) for du in dus])

    def psi(x, s):
        hess = np.stack([np.column_stack([d.at_points(x) for d in row]) for row in d2us],
                        axis=1)
        nh = mean_curvature_from_derivatives(metric, x, grad(x),
                                             0.5 * (hess + hess.transpose(0, 2, 1)))
        return nh + kappa0 * (s - expr.at_points(x))

    def phi(x):
        du, nu = grad(x), nus[tree.query(x)[1]]
        inv_sigma = np.eye(mesh.dim) / (metric.conformal(x) ** 2)[:, None, None]
        w = np.sqrt(metric.gamma(x) + np.einsum("ki,kij,kj->k", du, inv_sigma, du))
        return -np.einsum("ki,ki->k", du, nu) / w

    return psi, phi


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


MEMO_CASES = {
    "1d": (lambda: cg.MetricField.euclidean(1),
           lambda: cg.generate_interval_mesh(0.0, 1.0, 16), "0.3*x1 + 0.1*x1^2"),
    "2d": (lambda: cg.MetricField.euclidean(2),
           lambda: cg.generate_disk_mesh(1.0, 0.3), "sqrt(4 - r^2)"),
    "2d-warped": (lambda: cg.MetricField.from_expressions(
                      2, sigma_conformal="1 + 0.3*r^2", gamma="1 + 0.5*r^2"),
                  lambda: cg.generate_disk_mesh(1.0, 0.3), "0.3*x1 + 0.5 - 0.2*r^2"),
}


@pytest.mark.parametrize("case", MEMO_CASES)
def test_manufactured_memo_is_exact(case):
    # more point sets than the memo keeps, visited in a shuffled interleaving
    make_metric, make_mesh, u_exact = MEMO_CASES[case]
    metric, mesh = make_metric(), make_mesh()
    prob = mms_manufacture(metric, mesh, u_exact, kappa0=1.5)
    psi_ref, phi_ref = _memo_free_data(metric, mesh, u_exact, 1.5)
    rng = np.random.default_rng(7)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    sets = [0.7 * rng.uniform(lo, hi, size=(5 + i % 3, mesh.dim))
            for i in range(vf._POINT_SETS + 4)]

    def check(x):
        s = rng.normal(size=len(x))
        assert _same_bits(prob.psi(x, s), psi_ref(x, s))
        assert _same_bits(prob.phi(x, s), phi_ref(x))

    for i in rng.permutation(np.repeat(np.arange(len(sets)), 3)):
        check(sets[i])
    # an input edited in place after a call is a new point set
    x = sets[0]
    check(x)
    x[0] += 0.01
    check(x)
    # a caller that edits what it got back edits its own copy
    got = prob.phi(x, 0.0)
    got[:] = 7.0
    check(x)
    got = prob.psi(x, np.zeros(len(x)))
    got[:] = 7.0
    check(x)
    # point sets match by bit pattern, so 0.0 and -0.0 are kept apart
    signs = vf._per_point_set(np.signbit)
    assert not signs(np.zeros((1, 1)))[0, 0] and signs(-np.zeros((1, 1)))[0, 0]


def test_manufactured_psi_computes_curvature_once_per_point_set(monkeypatch):
    # one mms level: validation, continuation and both certificates on one mesh
    metric = cg.MetricField.radial_warp(2, gamma="1 + r^2")
    mesh = cg.generate_disk_mesh(1.0, 0.2)
    prob = mms_manufacture(metric, mesh, "0.5 - 0.2*r^2")
    calls, psi_sets, phi_sets, in_psi = [], [], [], []
    curvature = vf.mean_curvature_from_derivatives

    def counted(*args):
        calls.extend(in_psi[-1:])
        return curvature(*args)

    def recorded(fn, sets, flag):
        def wrapper(x, s):
            x = np.asarray(x, dtype=float)
            if not any(x.shape == y.shape and np.array_equal(x, y) for y in sets):
                sets.append(x.copy())
            in_psi.append(flag)
            try:
                return fn(x, s)
            finally:
                in_psi.pop()
        return wrapper

    monkeypatch.setattr(vf, "mean_curvature_from_derivatives", counted)
    prob.psi = recorded(prob.psi, psi_sets, True)
    prob.phi = recorded(prob.phi, phi_sets, False)
    state = continuation_solve(prob, metric, mesh)
    assert state.status == "converged"
    contact_angle_residual(state.u, 1.0, prob, metric, mesh)
    strong_form_residual(state.u, 1.0, prob, metric, mesh)
    assert 0 < sum(calls) <= len(psi_sets)
    assert len(psi_sets) <= vf._POINT_SETS and len(phi_sets) <= vf._POINT_SETS


JET_CASES = {
    "cap": (lambda: cg.MetricField.euclidean(2), "sqrt(4 - r^2)"),
    "warped-cap": (lambda: cg.MetricField.radial_warp(2, gamma="1 + r^2"),
                   "0.5 - 0.2*r^2"),
    "warped-nonradial": (lambda: cg.MetricField.radial_warp(2, gamma="1 + r^2"),
                         "0.3 + 0.2*sin(x1)*cos(x2) + 0.1*exp(0.5*x1 - x2)"),
}


@pytest.mark.parametrize("case", JET_CASES)
def test_manufactured_jet_matches_each_expression(case):
    # psi, phi and u_exact from the joint tape, bit for bit as from one
    # expression per derivative
    make_metric, u_exact = JET_CASES[case]
    metric, mesh = make_metric(), cg.generate_disk_mesh(1.0, 0.2)
    prob = mms_manufacture(metric, mesh, vf._manufactured_jet(u_exact, 2), kappa0=1.5)
    psi_ref, phi_ref = _memo_free_data(metric, mesh, u_exact, 1.5)
    s = np.random.default_rng(3).normal(size=mesh.num_vertices)
    for x in (mesh.vertices, mesh.cell_points.reshape(-1, 2)[:mesh.num_vertices]):
        assert _same_bits(prob.psi(x, s), psi_ref(x, s))
        assert _same_bits(prob.phi(x, s), phi_ref(x))
        assert _same_bits(prob.u_exact(x), cg.parse_expression(u_exact).at_points(x))


def test_cap_jet_is_one_short_tape():
    # u*, grad u* and its Hessian of sqrt(4 - r^2): 260 tree nodes, mostly
    # copies of one square root, on one tape of at most 40 instructions
    jet = vf._manufactured_jet("sqrt(4 - r^2)", 2)
    values = jet.full.at_points(np.array([[0.3, -0.2]]))
    assert values.shape == (7, 1)
    assert len(jet.full.code) <= 40


def test_manufactured_psi_evaluates_once_per_point_set(monkeypatch):
    # u* and its derivatives: one run of the jet's tape per new point set,
    # and none of the gradient's tape or of u* alone (the metric's own
    # expressions are not counted)
    metric = cg.MetricField.radial_warp(2, gamma="1 + r^2")
    mesh = cg.generate_disk_mesh(1.0, 0.2)
    jet = vf._manufactured_jet("sqrt(4 - r^2)", 2)
    prob = mms_manufacture(metric, mesh, jet)
    runs = []
    run = vf._Tape.run

    def spy(self, env):
        runs.append(self)
        return run(self, env)

    monkeypatch.setattr(vf._Tape, "run", spy)
    sets = [mesh.vertices, mesh.cell_points.reshape(-1, 2), mesh.vertices + 1e-3]
    for k, x in enumerate(sets * 2):
        runs.clear()
        prob.psi(x, 0.5)
        assert runs.count(jet.full) == (1 if k < len(sets) else 0)
        assert [t for t in runs if t is jet.gradient or t is jet.value._tape] == []


@pytest.mark.parametrize("case", ["cap", "warped-cap"])
def test_manufactured_psi_checks_the_derivatives_before_u_exact(case):
    # x1/r and its derivatives all divide by zero at the centre vertex: the
    # derivative's check fires first, as when each was evaluated alone, and
    # a derived node has no source offset
    metric, mesh = JET_CASES[case][0](), cg.generate_disk_mesh(1.0, 0.25)
    prob = mms_manufacture(metric, mesh, "x1/r")
    with pytest.raises(EvaluationError) as err:
        prob.psi(mesh.vertices, 0.0)
    assert str(err.value) == "division by zero" and err.value.pos is None


def test_mms_study_prepares_the_jet_once(monkeypatch, euclid1):
    made = []
    prepare = vf._manufactured_jet

    def counted(*args):
        made.append(prepare(*args))
        return made[-1]

    monkeypatch.setattr(vf, "_manufactured_jet", counted)
    domain = DomainSpec("interval", {"a": 0.0, "b": 1.0, "m": 8})
    rows, _ = mms_convergence_study(euclid1, domain, "0.3*x1 + 0.1*x1^2",
                                    levels=(0, 1, 2))
    assert len(rows) == 3 and len(made) == 1


def test_oracle_trivial(euclid1):
    prob = make(1, "s")
    x, u = oracle_1d_solve(prob, euclid1, 0.0, 1.0, 256)
    assert np.max(np.abs(u)) < 1e-10


def test_oracle_recovers_manufactured_solution(euclid1):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 8)
    prob = mms_manufacture(euclid1, mesh, "0.4*x1 + 0.2*x1^2")
    errs = []
    for m in (256, 512):
        x, u = oracle_1d_solve(prob, euclid1, 0.0, 1.0, m)
        errs.append(np.max(np.abs(u - prob.u_exact(x[:, None]))))
    assert errs[0] / errs[1] > 3.0          # second-order convergence
    assert errs[1] < 1e-5


def test_oracle_evaluates_both_ends_in_one_call():
    # one phi call per residual (one psi call) and one dphi/ds call per
    # Jacobian (one dpsi/ds call), each at the two end points, with the bits
    # of evaluating each end on its own
    metric = cg.MetricField.radial_warp(1, gamma="exp(2*x1)")
    prob = make(1, "1 + s + 0.2*sin(3*x1)", "0.25 - 0.1*tanh(s) + 0.05*x1")
    calls = {name: [] for name in ("psi", "dpsi_ds", "phi", "dphi_ds")}

    def spied(name):
        fn = getattr(prob, name)
        return lambda x, s: calls[name].append(len(x)) or fn(x, s)

    def one_at_a_time(fn):
        return lambda x, s: np.concatenate([fn(x[i:i + 1], s[i:i + 1])
                                            for i in range(len(x))])

    spy = dataclasses.replace(prob, **{name: spied(name) for name in calls})
    x, u = oracle_1d_solve(spy, metric, 0.0, 1.0, 256)
    assert len(calls["phi"]) == len(calls["psi"]) > 1
    assert len(calls["dphi_ds"]) == len(calls["dpsi_ds"]) > 1
    assert set(calls["phi"]) == set(calls["dphi_ds"]) == {2}
    apart = dataclasses.replace(prob, phi=one_at_a_time(prob.phi),
                                dphi_ds=one_at_a_time(prob.dphi_ds))
    x_apart, u_apart = oracle_1d_solve(apart, metric, 0.0, 1.0, 256)
    assert (x.tobytes(), u.tobytes()) == (x_apart.tobytes(), u_apart.tobytes())


def test_oracle_end_errors_are_the_left_ends_first(euclid1):
    # at x1 = 0 only the log fails, at x1 = 1 only the sqrt, which comes first
    # in evaluation order: the left end is evaluated first, so the log raises
    prob = make(1, "1 + s", "0.1 + 0*sqrt(0.5 - x1) + 0*log(x1) + 0*s")
    with pytest.raises(EvaluationError, match="sqrt"):
        prob.phi(np.array([[0.0], [1.0]]), np.zeros(2))
    with pytest.raises(EvaluationError, match="log"):
        oracle_1d_solve(prob, euclid1, 0.0, 1.0, 64)


def test_oracle_reports_failure(euclid1):
    # incompatible data (no solution at full strength): inconclusive, not a pass
    with pytest.raises(OracleFailed):
        oracle_1d_solve(make(1, "1"), euclid1, 0.0, 1.0, 128, max_iter=20)


def test_refinement_suite_merges_traces(euclid2):
    domain = DomainSpec("disk", {"radius": 1.0, "h": 0.3})
    certs, state = run_refinement_suite(make(2, "1 + s", "0.3"), euclid2, domain,
                                        levels=(0, 1, 2))
    assert state.status == "converged"
    by_name = {c.name: c for c in certs}
    for name in ("height-bound", "boundary-gradient", "interior-gradient",
                 "contact-angle-residual", "strong-form-residual"):
        assert name in by_name
        assert not by_name[name].provisional
        assert by_name[name].passed


def test_refinement_studies_reject_repeated_levels(euclid2):
    # an order fitted through equal h would measure no refinement
    domain = DomainSpec("disk", {"radius": 1.0, "h": 0.3})
    with pytest.raises(ValueError, match="levels must be distinct"):
        mms_convergence_study(euclid2, domain, "0.5 - 0.2*r^2", levels=(0, 0))
    with pytest.raises(ValueError, match="levels must be distinct"):
        run_refinement_suite(make(2, "1 + s", "0.3"), euclid2, domain, levels=(0, 1, 0))


def test_interior_ball_per_shape(disk_01):
    vertex, radius = interior_ball(disk_01)
    assert radius == pytest.approx(0.45)
    assert np.linalg.norm(disk_01.vertices[vertex]) == pytest.approx(0.0, abs=1e-12)
    vertex, radius = interior_ball(cg.generate_interval_mesh(1.0, 3.0, 8))
    assert (vertex, radius) == (4, pytest.approx(0.7))
    assert interior_ball(cg.generate_disk_mesh(1.0, 0.3, inner_radius=0.5)) is None


def test_separation_rate_on_disk_capillary_solution(euclid2, disk_01):
    state = continuation_solve(make(2, "1 + s", "0.3"), euclid2, disk_01)
    zeta = make_interior_bump(disk_01, euclid2)
    cert = separation_rate_check(state.u, euclid2, disk_01, zeta,
                                 [2e-2, 1e-2, 5e-3])
    assert cert.passed
    assert 0.8 <= cert.details["order_in_tau"] <= 1.2


def test_mms_convergence_with_nontrivial_warping():
    # nonconstant gamma exercises the drift term and the 1/sqrt(gamma) weights
    domain = DomainSpec("disk", {"radius": 1.0, "h": 0.2})
    metric = cg.MetricField.radial_warp(2, gamma="1 + r^2")
    rows, orders = mms_convergence_study(metric, domain, "0.5 - 0.2*r^2",
                                         levels=(0, 1, 2))
    assert orders["error"] >= 1.8
    assert orders["angle_residual"] >= 0.8


def test_mms_convergence_with_conformal_leaf_metric():
    # nonconstant sigma exercises the sqrt(det sigma) cell weights and the
    # sigma facet length elements
    domain = DomainSpec("disk", {"radius": 1.0, "h": 0.2})
    metric = cg.MetricField.from_expressions(2, sigma_conformal="1 + 0.3*r^2",
                                             gamma="1 + 0.5*r^2")
    rows, orders = mms_convergence_study(metric, domain, "0.3*x1 + 0.5 - 0.2*r^2",
                                         levels=(0, 1, 2))
    assert orders["error"] >= 1.8
    assert orders["angle_residual"] >= 0.8


def test_mms_convergence_on_annulus():
    # two boundary components; the ring family is not nested under
    # refinement, so the order gate is intentionally modest
    domain = DomainSpec("annulus", {"radius": 1.0, "inner_radius": 0.5, "h": 0.1})
    metric = cg.MetricField.euclidean(2)
    rows, orders = mms_convergence_study(metric, domain, "0.5 - 0.2*r^2 + 0.1*x1",
                                         levels=(0, 1, 2))
    assert orders["error"] >= 1.4
    assert orders["angle_residual"] >= 0.8


def test_interior_bump_requires_resolution(euclid1):
    mesh = cg.generate_interval_mesh(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="coarse"):
        make_interior_bump(mesh, euclid1)


# ---------------------------------------------------------------------------
# Batched patch recovery against the per-vertex least-squares loop


class _TooFewPoints(Exception):
    """A vertex patch with too few points for a quadratic."""


def _lstsq_patch_fit(mesh, values, vertex):
    """Reference: one least-squares quadratic over the vertex patch."""
    needed = 3 if mesh.dim == 1 else 6
    e = mesh.edges

    def ring(v):
        return {*e[e[:, 0] == v, 1], *e[e[:, 1] == v, 0]}

    patch = {vertex, *ring(vertex)}
    if len(patch) < needed:
        for v in list(patch):
            patch.update(ring(v))
    if len(patch) < needed:
        raise _TooFewPoints(f"patch of vertex {vertex} has {len(patch)} points")
    ids = np.array(sorted(patch))
    dx = mesh.vertices[ids] - mesh.vertices[vertex]
    scale = np.max(np.linalg.norm(dx, axis=1))
    x = dx / scale
    if mesh.dim == 1:
        cols = [np.ones(len(ids)), x[:, 0], 0.5 * x[:, 0] ** 2]
    else:
        cols = [np.ones(len(ids)), x[:, 0], x[:, 1],
                0.5 * x[:, 0] ** 2, x[:, 0] * x[:, 1], 0.5 * x[:, 1] ** 2]
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), values[ids], rcond=None)
    if mesh.dim == 1:
        return np.array([coef[1]]) / scale, np.array([[coef[2]]]) / scale**2
    return (coef[1:3] / scale,
            np.array([[coef[3], coef[4]], [coef[4], coef[5]]]) / scale**2)


def _lstsq_curvatures(metric, mesh, values, vertices):
    """Reference nH per vertex (NaN where the stencil is degenerate)."""
    nh = np.full(len(vertices), np.nan)
    for i, v in enumerate(vertices):
        try:
            du, hess = _lstsq_patch_fit(mesh, values, v)
        except _TooFewPoints:
            continue
        nh[i] = mean_curvature_from_derivatives(metric, mesh.vertices[v], du, hess)
    return nh


def _fan_mesh():
    # one interior vertex whose two-ring has 4 points: a degenerate stencil
    return cg.Mesh(2, [[0.0, 0.0], [1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]],
                   [[0, 1, 2], [0, 2, 3], [0, 3, 1]], [[1, 2], [2, 3], [3, 1]],
                   ["b", "b", "b"])


def _criss_cross_mesh(n=6):
    # n x n squares on [-1, 1]^2, each cut by both diagonals: grid vertices have
    # 8 neighbours (one-rings of 9 points), square centres 4 (widened to the
    # two-ring), so the interior patches come in more than one size
    t = np.linspace(-1.0, 1.0, n + 1)
    grid = np.array([[x, y] for y in t for x in t])
    mid = 0.5 * (t[:-1] + t[1:])
    centres = np.array([[x, y] for y in mid for x in mid])

    def corner(i, j):
        return j * (n + 1) + i

    cells, facets = [], []
    for j in range(n):
        for i in range(n):
            c = len(grid) + j * n + i
            ring = [corner(i, j), corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1)]
            cells += [[c, ring[k], ring[(k + 1) % 4]] for k in range(4)]
    for k in range(n):
        facets += [[corner(k, 0), corner(k + 1, 0)], [corner(n, k), corner(n, k + 1)],
                   [corner(k, n), corner(k + 1, n)], [corner(0, k), corner(0, k + 1)]]
    return cg.Mesh(2, np.vstack([grid, centres]), cells, facets, ["b"] * len(facets))


def test_criss_cross_patches_are_fitted_in_several_size_groups(monkeypatch):
    mesh = _criss_cross_mesh()
    degree = np.diff(mesh.edge_graph(np.ones(len(mesh.edges))).indptr)
    assert set(degree[~mesh.is_boundary_vertex]) == {4, 8}
    sizes, fit = [], geometry._least_squares
    monkeypatch.setattr(geometry, "_least_squares",
                        lambda ab: sizes.append(ab.shape[1]) or fit(ab))
    interior = np.where(~mesh.is_boundary_vertex)[0]
    _patch_derivatives(mesh, _smooth_field(mesh), interior)
    assert 9 in sizes and len(sizes) > 1


def _patch_case(name):
    if name == "hyperbolic_warp":
        cfg = load_config(SHIPPED / "hyperbolic_warp.cfg")
        return cfg.build_domain().build(), cfg.build_metric(2)
    if name == "warped-interval":
        mesh = cg.generate_interval_mesh(0.0, 1.0, 40)
        return mesh, cg.MetricField.from_expressions(1, gamma="exp(2*x1)")
    if name == "fan":
        return _fan_mesh(), cg.MetricField.euclidean(2)
    if name == "criss-cross":
        return _criss_cross_mesh(), cg.MetricField.radial_warp(2, gamma="1 + r^2")
    metric = (cg.MetricField.euclidean(2) if name == "flat-disk"
              else cg.MetricField.radial_warp(2, gamma="1 + r^2"))
    return cg.generate_disk_mesh(1.0, 0.1), metric


def _smooth_field(mesh):
    x = mesh.vertices
    r2 = (x**2).sum(axis=1)
    return 0.3 + 0.2 * x[:, 0] - 0.4 * r2 + 0.1 * np.sin(3.0 * x[:, -1])


@pytest.mark.parametrize("name", ["flat-disk", "radial-warp-disk", "hyperbolic_warp",
                                  "warped-interval", "fan", "criss-cross"])
def test_batched_patch_recovery_matches_lstsq_loop(name):
    mesh, metric = _patch_case(name)
    values = _smooth_field(mesh)
    every = np.arange(mesh.num_vertices)
    reference = _lstsq_curvatures(metric, mesh, values, every)
    grad, hess, fitted = _patch_derivatives(mesh, values, every)
    np.testing.assert_array_equal(fitted, np.isfinite(reference))
    if fitted.any():
        nh = mean_curvature_from_derivatives(metric, mesh.vertices[fitted],
                                             grad[fitted], hess[fitted])
        np.testing.assert_allclose(nh, reference[fitted], rtol=0, atol=1e-10)


def test_strong_form_residual_evaluates_psi_once(disk_01, euclid2):
    calls = []

    def psi(x, s):
        calls.append(np.shape(x))
        return 1.0 + np.asarray(s, dtype=float)

    prob = cg.CapillaryProblem(
        2, psi=psi, dpsi_ds=lambda x, s: np.ones(len(np.reshape(x, (-1, 2)))),
        phi=zero_data, dphi_ds=zero_data)
    u = cg.ScalarField(disk_01, _smooth_field(disk_01))
    strong_form_residual(u, 1.0, prob, euclid2, disk_01)
    # at the cell quadrature points, where the assembly evaluates it too
    assert calls == [(3 * disk_01.num_cells, 2)]


def _reference_eta(u, tau, problem, metric, mesh):
    """(eta, its cell, jump and boundary parts) cell by cell and facet by facet,
    with c and gamma from the metric and q_h fitted as an affine map per cell."""
    d, x, vals = mesh.dim, mesh.vertices, u.values
    bary, wref = mesh.cell_quad
    fbary, fw = mesh.facet_quad
    fits, h_cell, cells_of = [], [], {}
    cell_part = 0.0
    for k, cell in enumerate(mesh.cells):
        xq = bary @ x[cell]
        grad = mesh.grads_lambda[k].T @ vals[cell]
        c, gamma = metric.conformal(xq), metric.gamma(xq)
        w = np.sqrt(gamma + grad @ grad / c**2)
        q = (c ** (d - 2) / (np.sqrt(gamma) * w))[:, None] * grad
        coef = np.linalg.solve(np.hstack([xq, np.ones((d + 1, 1))]), q)
        fits.append(coef)
        size = max(np.linalg.norm(x[a] - x[b]) for a in cell for b in cell)
        h_cell.append(size)
        source = c**d * tau * problem.psi(xq, bary @ vals[cell]) / np.sqrt(gamma)
        cell_part += size**2 * mesh.cell_measure[k] * np.sum(
            wref * (source - np.trace(coef[:d])) ** 2)
        for f in ([(cell[0], cell[1]), (cell[1], cell[2]), (cell[0], cell[2])]
                  if d == 2 else [(cell[0],), (cell[1],)]):
            cells_of.setdefault(tuple(sorted(f)), []).append(k)

    def q_at(k, pts):
        return np.hstack([pts, np.ones((len(pts), 1))]) @ fits[k]

    jump_part = 0.0
    for f, cs in cells_of.items():
        if len(cs) != 2:
            continue
        pts = fbary @ x[list(f)]
        if d == 1:
            normal, size, h_e = np.ones(1), 1.0, 0.5 * (h_cell[cs[0]] + h_cell[cs[1]])
        else:
            t = x[f[1]] - x[f[0]]
            size = h_e = np.linalg.norm(t)
            normal = np.array([t[1], -t[0]]) / size
        jump = (q_at(cs[0], pts) - q_at(cs[1], pts)) @ normal
        jump_part += h_e * size * np.sum(fw * jump**2)
    boundary_part = 0.0
    for k, f in enumerate(mesh.boundary_facets):
        owner = cells_of[tuple(sorted(f))][0]
        pts = fbary @ x[f]
        weight = (metric.conformal(pts) if d == 2 else 1.0) / np.sqrt(metric.gamma(pts))
        target = tau * weight * problem.phi(pts, fbary @ vals[f])
        defect = q_at(owner, pts) @ -mesh.inward_normals[k] - target
        size = np.linalg.norm(x[f[1]] - x[f[0]]) if d == 2 else 1.0
        h_e = size if d == 2 else h_cell[owner]
        boundary_part += h_e * size * np.sum(fw * defect**2)
    parts = np.sqrt([cell_part, jump_part, boundary_part])
    return np.sqrt(np.sum(parts**2)), parts


def _single_cell_case(dim):
    if dim == 1:
        mesh = cg.Mesh(1, [[0.1], [0.7]], [[0, 1]], [[0], [1]], ["a", "b"])
        return mesh, cg.MetricField.from_expressions(1, gamma="exp(2*x1)",
                                                     sigma_conformal="1 + 0.5*x1")
    mesh = cg.Mesh(2, [[0.0, 0.0], [0.6, 0.1], [0.2, 0.5]], [[0, 1, 2]],
                   [[0, 1], [1, 2], [2, 0]], ["b"] * 3)
    return mesh, cg.MetricField.from_expressions(2, gamma="1 + r^2",
                                                 sigma_conformal="1 + 0.3*r^2")


def _estimator_case(name, tmp_path):
    conformal = {"gamma": "1 + r^2", "sigma_conformal": "1 + 0.3*r^2"}
    if name == "warped-interval":
        metric = cg.MetricField.from_expressions(1, gamma="exp(2*x1)",
                                                 sigma_conformal="1 + 0.5*x1")
        return cg.generate_interval_mesh(0.0, 1.0, 12), metric
    if name in ("one-segment", "one-triangle"):
        return _single_cell_case(1 if name == "one-segment" else 2)
    if name == "mesh-file":
        cg.write_mesh(cg.generate_disk_mesh(1.0, 0.3, inner_radius=0.4), tmp_path / "m.txt")
        metric = cg.MetricField.from_expressions(2, **conformal)
        return cg.read_mesh(tmp_path / "m.txt"), metric
    if name == "criss-cross":
        return _criss_cross_mesh(4), cg.MetricField.from_expressions(2, **conformal)
    if name == "hyperbolic_warp":
        cfg = load_config(SHIPPED / "hyperbolic_warp.cfg")
        return cfg.build_domain().build(), cfg.build_metric(2)
    mesh = cg.generate_disk_mesh(1.0, 0.25, inner_radius=0.4)
    return mesh, cg.MetricField.from_expressions(2, **conformal)


@pytest.mark.parametrize("name", ["warped-interval", "annulus", "mesh-file", "criss-cross",
                                  "hyperbolic_warp", "one-segment", "one-triangle"])
def test_residual_estimator_matches_a_cell_by_cell_loop(name, tmp_path):
    mesh, metric = _estimator_case(name, tmp_path)
    d = mesh.dim
    problem = make(d, "1 + 0.5*s + 0.2*x1", "0.2 + 0.1*x1 - 0.05*s")
    u = cg.ScalarField(mesh, _smooth_field(mesh))
    cert = strong_form_residual(u, 0.7, problem, metric, mesh)
    eta, parts = _reference_eta(u, 0.7, problem, metric, mesh)
    assert cert.observed == pytest.approx(eta, rel=1e-12)
    got = [cert.details[k] for k in ("eta_cell", "eta_jump", "eta_boundary")]
    np.testing.assert_allclose(got, parts, rtol=1e-12, atol=1e-300)
    assert cert.passed and cert.bound is None
    assert cert.trace == [(vf._resolution(mesh), cert.observed)]
    # a single cell has no interior facet, and no jump term
    assert (got[1] == 0.0) == name.startswith("one-")
    # the largest local term sits where its kind and index say
    kind, k = cert.details["largest_kind"], cert.details["largest_index"]
    ids = {"cell": mesh.cells, "interior-facet": mesh.interior_facets,
           "boundary-facet": mesh.boundary_facets}[kind][k]
    np.testing.assert_array_equal(cert.details["largest_at"], mesh.vertices[ids].mean(axis=0))
    assert cert.details["largest_term"] <= eta
    json.dumps(cert.to_dict())


@pytest.mark.parametrize("name", ["cap_mms", "cap_mms_conformal", "cap_mms_constants",
                                  "cap_mms_nonradial", "cap_mms_warped"])
def test_residual_estimator_tracks_the_energy_error(name):
    # eta / |grad(u_h - u*)|_L2 changes by less than 2x across levels 0-2, and
    # eta decays at first order
    cfg = load_config(SHIPPED / f"{name}.cfg")
    metric, domain = cfg.build_metric(2), cfg.build_domain()
    jet = vf._manufactured_jet(cfg.mms["u_exact"], 2)
    hs, etas, ratios = [], [], []
    for level, mesh, problem, state in vf._level_solves(
            (0, 1, 2), lambda mesh: mms_manufacture(metric, mesh, jet), metric, domain,
            None, False, "manufactured solve"):
        eta = strong_form_residual(state.u, 1.0, problem, metric, mesh).observed
        bary, wref = mesh.cell_quad
        grad_h = np.einsum("ca,cad->cd", state.u.values[mesh.cells], mesh.grads_lambda)
        grad_x = jet.gradient.at_points(mesh.cell_points.reshape(-1, 2)).reshape(2, 3, -1)
        err = np.sqrt(np.sum(wref[:, None] * mesh.cell_measure
                             * np.sum((grad_h.T[:, None, :] - grad_x) ** 2, axis=0)))
        hs.append(mesh.target_h)
        etas.append(eta)
        ratios.append(eta / err)
    assert max(ratios) < 2.0 * min(ratios)
    assert 0.8 <= observed_order(hs, etas) <= 1.2


@pytest.mark.parametrize("name", ["disk_capillary", "forced_zero", "hyperbolic_warp",
                                  "annulus_capillary", "steep_warp"])
def test_residual_estimator_decays_at_first_order_on_shipped_configs(name):
    # every shipped disk and annulus config, from an edge length of at least a
    # tenth of the radius; forced_zero's solution is exact, and eta reads 0
    cfg = load_config(SHIPPED / f"{name}.cfg")
    domain = cfg.build_domain()
    domain.params["h"] = max(domain.params["h"], 0.1 * domain.params["radius"])
    certs, _ = run_refinement_suite(cfg.build_problem(2), cfg.build_metric(2), domain,
                                    cfg=cfg.build_solver_cfg())
    strong = {c.name: c for c in certs}["strong-form-residual"]
    assert strong.details["decay_measured_on"] == "eta" and strong.passed
    order = strong.details["observed_order"]
    if name == "forced_zero":
        assert order is None and strong.observed == 0.0
    else:
        assert 0.8 <= order <= 1.2


def _tridiagonal_outcome(solve, ab, rhs):
    try:
        return solve(ab, rhs).view(np.int64).tolist()
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def test_the_tridiagonal_solve_is_solve_banded():
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(3)
    cases = [(rng.standard_normal((3, n)), rng.standard_normal(n)) for n in (2, 3, 64, 4097)]
    singular = cases[2][0].copy()
    singular[:, 10] = 0.0                                # column 10 of the matrix
    cases.append((singular, cases[2][1]))
    for where in ((0, 5), (1, 0), (2, 62)):
        bad = cases[2][0].copy()
        bad[where] = np.nan
        cases.append((bad, cases[2][1]))
    cases.append((cases[2][0], np.where(np.arange(64) == 7, np.inf, cases[2][1])))
    for ab, rhs in cases:
        expected = _tridiagonal_outcome(lambda a, b: solve_banded((1, 1), a, b), ab, rhs)
        got = _tridiagonal_outcome(vf._solve_tridiagonal, ab.copy(), rhs.copy())
        assert got == expected
    assert [_tridiagonal_outcome(vf._solve_tridiagonal, ab.copy(), rhs.copy())[0]
            for ab, rhs in cases[4:]] == [np.linalg.LinAlgError] + [ValueError] * 4


def test_oracle_linear_solve_errors(euclid1):
    # no gravity and no wetting: the Neumann system is singular
    with pytest.raises(OracleFailed, match="oracle linear solve failed: singular matrix"):
        oracle_1d_solve(make(1, "1"), euclid1, 0.0, 1.0, 16)
    nan_psi = cg.CapillaryProblem(
        1, psi=lambda x, s: np.full(len(np.reshape(x, (-1, 1))), np.nan),
        dpsi_ds=lambda x, s: np.ones(len(np.reshape(x, (-1, 1)))),
        phi=zero_data, dphi_ds=zero_data)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        oracle_1d_solve(nan_psi, euclid1, 0.0, 1.0, 16)
