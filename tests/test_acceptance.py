"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not tuned per machine.
"""

import time

import numpy as np

import capgraph as cg
from capgraph.assembly import energy, jacobian, residual
from capgraph.cli import run_command
from capgraph.meshing import DomainSpec
from capgraph.problem import random_positive_gravity_problem
from capgraph.solver import continuation_solve, newton_solve, uniqueness_probe
from capgraph.verify import (
    check_height,
    separation_rate_check,
    make_interior_bump,
    mms_convergence_study,
    oracle_1d_solve,
    run_refinement_suite,
)


def _report(num, passed, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, detail


def make(dim, psi, phi="0", **kw):
    return cg.CapillaryProblem.from_expressions(dim, psi, phi, **kw)


def test_criterion_01_trivial_homotopy_start():
    start = time.monotonic()
    configs = [
        (cg.generate_disk_mesh(1.0, 0.15), cg.MetricField.euclidean(2),
         make(2, "1 + s", "0.3")),
        (cg.generate_interval_mesh(0.0, 1.0, 32),
         cg.MetricField.from_expressions(1, gamma="exp(x1)"),
         make(1, "2 + s", "-0.4")),
        (cg.generate_disk_mesh(1.0, 0.2, inner_radius=0.5),
         cg.MetricField.radial_warp(2, gamma="1 + r^2"),
         make(2, "0.5 + 2*s", "0.1")),
    ]
    worst = 0.0
    iters = []
    for mesh, metric, prob in configs:
        r = residual(np.zeros(mesh.num_vertices), 0.0, prob, metric, mesh)
        worst = max(worst, float(np.max(np.abs(r))))
        u, rep = newton_solve(cg.ScalarField.zeros(mesh), 0.0, prob, metric, mesh)
        iters.append(rep.iterations)
        assert np.all(u.values == 0.0)
    elapsed = time.monotonic() - start
    _report(1, worst <= 1e-14 and all(i == 0 for i in iters) and elapsed < 1.0,
            f"|residual(0, tau=0)| = {worst:.2e} <= 1e-14, newton iterations "
            f"{iters} all zero ({elapsed:.2f}s < 1s)")


def test_criterion_02_forced_zero_solution():
    start = time.monotonic()
    prob2 = make(2, "s")
    disk = cg.generate_disk_mesh(1.0, 0.1)
    s2 = continuation_solve(prob2, cg.MetricField.euclidean(2), disk)
    prob1 = make(1, "s")
    interval = cg.generate_interval_mesh(0.0, 1.0, 64)
    s1 = continuation_solve(prob1, cg.MetricField.euclidean(1), interval)
    m2 = float(np.max(np.abs(s2.u.values)))
    m1 = float(np.max(np.abs(s1.u.values)))
    elapsed = time.monotonic() - start
    _report(2, s1.status == s2.status == "converged" and max(m1, m2) < 1e-9
            and elapsed < 5.0,
            f"max|u| = {max(m1, m2):.2e} < 1e-9 at tau=1 on disk h=0.1 and "
            f"interval m=64 ({elapsed:.2f}s < 5s)")


def test_criterion_03_manufactured_cap_convergence():
    start = time.monotonic()
    metric = cg.MetricField.euclidean(2)
    domain = DomainSpec("disk", {"radius": 1.0, "h": 0.2})
    rows, orders = mms_convergence_study(metric, domain, "sqrt(4 - r^2)",
                                         levels=(0, 1, 2))
    elapsed = time.monotonic() - start
    hs = [r["h"] for r in rows]
    errs = [r["error"] for r in rows]
    angles = [r["angle_residual"] for r in rows]
    _report(3, hs == [0.2, 0.1, 0.05] and orders["error"] >= 1.8
            and orders["angle_residual"] >= 0.8 and elapsed < 120.0,
            f"Linf errors {['%.2e' % e for e in errs]} order {orders['error']:.2f} "
            f">= 1.8; angle residuals {['%.2e' % a for a in angles]} order "
            f"{orders['angle_residual']:.2f} >= 0.8 ({elapsed:.1f}s < 120s)")


def test_criterion_04_oracle_equivalence_1d():
    start = time.monotonic()
    m, m_dense = 64, 4096
    tol = 5.0 * ((1.0 / m) ** 2 + (1.0 / m_dense) ** 2)
    mesh = cg.generate_interval_mesh(0.0, 1.0, m)
    suite = [
        ("1 + s", "0.2", "1"),
        ("s", "0", "1"),
        ("0.5 + 2*s", "-0.4", "1"),
        ("1 + s + 0.3*x1*(1 - x1)", "0.3", "1"),
        ("1 + s", "0.25", "exp(2*x1)"),
    ]
    diffs = []
    for psi, phi, gamma in suite:
        metric = (cg.MetricField.euclidean(1) if gamma == "1"
                  else cg.MetricField.from_expressions(1, gamma=gamma))
        prob = make(1, psi, phi)
        state = continuation_solve(prob, metric, mesh)
        assert state.status == "converged"
        x, u_oracle = oracle_1d_solve(prob, metric, 0.0, 1.0, m_dense)
        at_vertices = np.interp(mesh.vertices[:, 0], x, u_oracle)
        diffs.append(float(np.max(np.abs(state.u.values - at_vertices))))
    elapsed = time.monotonic() - start
    _report(4, max(diffs) <= tol and elapsed < 30.0,
            f"5 problems, sup|u_fem - u_oracle| = {max(diffs):.2e} <= "
            f"{tol:.2e} = 5(h^2 + 1/m_dense^2) ({elapsed:.1f}s < 30s)")


def test_criterion_05_height_certificate_suite():
    start = time.monotonic()
    rng = np.random.default_rng(20260810)
    violations, margins = 0, []
    for k in range(20):
        if k < 8:
            dim, warp = 1, False
            mesh = cg.generate_interval_mesh(0.0, 1.0, 48)
        elif k < 14:
            dim, warp = 2, False
            mesh = cg.generate_disk_mesh(1.0, 0.15)
        else:
            dim, warp = 2, True
            mesh = cg.generate_disk_mesh(1.0, 0.15)
        prob, metric = random_positive_gravity_problem(rng, dim, warp=warp)
        state = continuation_solve(prob, metric, mesh)
        cert = check_height(state.u, prob, metric, mesh)
        margins.append(cert.margin)
        if state.status != "converged" or not (cert.applicable and cert.passed):
            violations += 1
    elapsed = time.monotonic() - start
    _report(5, violations == 0 and elapsed < 300.0,
            f"20 random admissible problems, {violations} violations of "
            f"max|u| <= bound + 10h^2, min margin {min(margins):+.3f} "
            f"({elapsed:.1f}s < 300s)")


def test_criterion_06_jacobian_correctness():
    start = time.monotonic()
    cases = [
        (cg.generate_interval_mesh(0.0, 1.0, 12),
         cg.MetricField.from_expressions(1, gamma="exp(x1)"),
         make(1, "1 + s + 0.2*s^2", "0.3 - 0.1*tanh(s)")),
        (cg.generate_disk_mesh(1.0, 0.35),
         cg.MetricField.radial_warp(2, gamma="1 + 0.5*r^2"),
         make(2, "1 + s", "0.2 - 0.1*tanh(s)")),
    ]
    rng = np.random.default_rng(6)
    worst = 0.0
    for mesh, metric, prob in cases:
        for _ in range(5):                      # 10 random states in total
            u = 0.3 * rng.standard_normal(mesh.num_vertices)
            tau = float(rng.uniform(0.2, 1.0))
            j = jacobian(u, tau, prob, metric, mesh).toarray()
            eps = 1e-6
            fd = np.zeros_like(j)
            for k in range(mesh.num_vertices):
                up, um = u.copy(), u.copy()
                up[k] += eps
                um[k] -= eps
                fd[:, k] = (residual(up, tau, prob, metric, mesh)
                            - residual(um, tau, prob, metric, mesh)) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(j - fd)) / np.max(np.abs(j))))
    elapsed = time.monotonic() - start
    _report(6, worst < 1e-5 and elapsed < 30.0,
            f"analytic vs finite-difference jacobian relative error {worst:.2e} "
            f"< 1e-5 on 10 random states, n=1 and n=2 ({elapsed:.1f}s < 30s)")


def test_criterion_07_energy_residual_consistency():
    start = time.monotonic()
    mesh = cg.generate_disk_mesh(1.0, 0.25)
    metric = cg.MetricField.radial_warp(2, gamma="1 + 0.5*r^2")
    prob = make(2, "1 + s + 0.1*s^2", "0.3 - 0.1*tanh(s)")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        u = 0.3 * rng.standard_normal(mesh.num_vertices)
        v = rng.standard_normal(mesh.num_vertices)
        r = residual(u, 0.9, prob, metric, mesh)
        eps = 1e-5
        de = (energy(u + eps * v, 0.9, prob, metric, mesh)
              - energy(u - eps * v, 0.9, prob, metric, mesh)) / (2 * eps)
        worst = max(worst, abs(de - v @ r) / abs(v @ r))
    elapsed = time.monotonic() - start
    _report(7, worst < 1e-6 and elapsed < 10.0,
            f"directional derivative of the energy vs v.R relative error "
            f"{worst:.2e} < 1e-6 on 10 random pairs ({elapsed:.1f}s < 10s)")


def test_criterion_08_separation_rate_identity():
    start = time.monotonic()
    taus = [1e-2, 5e-3, 2.5e-3]
    mesh = cg.generate_interval_mesh(0.0, 1.0, 20)      # h = 0.05
    metric = cg.MetricField.euclidean(1)
    zeta = make_interior_bump(mesh, metric)
    prob = make(1, "1 + s", "0.3")
    state = continuation_solve(prob, metric, mesh)
    bases = {
        "constant": cg.ScalarField(mesh, np.full(mesh.num_vertices, 0.7)),
        "linear": cg.ScalarField(mesh, 0.5 * mesh.vertices[:, 0]),
        "capillary": state.u,
    }
    results = {}
    ok = True
    for name, u in bases.items():
        cert = separation_rate_check(u, metric, mesh, zeta, taus)
        order = cert.details["order_in_tau"]
        if cert.details["exact"]:
            results[name] = "exact"          # vertical displacement: zero error
        else:
            results[name] = f"order {order:.2f}"
            ok = ok and 0.8 <= order <= 1.2
        ok = ok and cert.passed
    elapsed = time.monotonic() - start
    _report(8, ok and elapsed < 30.0,
            f"separation-rate decay at h=0.05, tau in {taus}: {results} "
            f"(orders within [0.8, 1.2]; {elapsed:.1f}s < 30s)")


def test_criterion_09_uniqueness_probe():
    start = time.monotonic()
    mesh = cg.generate_disk_mesh(1.0, 0.1)
    metric = cg.MetricField.euclidean(2)
    prob = make(2, "1 + s", "0.3")
    state = continuation_solve(prob, metric, mesh)
    spread = uniqueness_probe(prob, metric, mesh, state=state, trials=5, seed=9)
    elapsed = time.monotonic() - start
    _report(9, spread < 1e-7 and elapsed < 60.0,
            f"five perturbed restarts agree within {spread:.2e} < 1e-7 "
            f"({elapsed:.1f}s < 60s)")


def test_criterion_10_gradient_bound_surrogates():
    start = time.monotonic()
    suite = [
        (DomainSpec("disk", {"radius": 1.0, "h": 0.2}),
         cg.MetricField.euclidean(2), make(2, "1 + s", "0.3")),
        (DomainSpec("interval", {"a": 0.0, "b": 1.0, "m": 16}),
         cg.MetricField.from_expressions(1, gamma="exp(x1)"),
         make(1, "1 + s", "0.2")),
    ]
    spreads = []
    ok = True
    for domain, metric, prob in suite:
        certs, _ = run_refinement_suite(prob, metric, domain, levels=(0, 1, 2))
        for cert in certs:
            if cert.name in ("interior-gradient", "boundary-gradient"):
                spreads.append(cert.details["relative_spread"])
                ok = ok and cert.passed and not cert.provisional
    elapsed = time.monotonic() - start
    _report(10, ok and max(spreads) < 0.25 and elapsed < 300.0,
            f"interior/boundary gradient quotients vary by "
            f"{100 * max(spreads):.1f}% < 25% across 3 refinements "
            f"({elapsed:.1f}s < 300s)")


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[domain]
shape = disk
radius = 1.0
h = 0.15

[problem]
psi = 1 + s
phi = 0.3

[output]
formats = csv,report
""")
    assert run_command(["solve", "--config", str(cfg), "--output-dir",
                        str(tmp_path / "a")]) == 0
    assert run_command(["solve", "--config", str(cfg), "--output-dir",
                        str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in ("solution.csv", "report.jsonl"))
    elapsed = time.monotonic() - start
    _report(11, same and elapsed < 60.0,
            f"two runs with identical config produced byte-identical "
            f"solution and report files ({elapsed:.1f}s < 60s)")
