import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capgraph as cg
from capgraph.assembly import jacobian, residual
from capgraph.problem import random_positive_gravity_problem
from capgraph.solver import (
    _STALL_DTAU,
    ContinuationConfig,
    SingularJacobian,
    SolverError,
    _LinearSolver,
    continuation_solve,
    default_s_range,
    newton_solve,
    uniqueness_probe,
)
from capgraph.verify import check_height
from conftest import zero_data


def make(dim, psi, phi="0", **kw):
    return cg.CapillaryProblem.from_expressions(dim, psi, phi, **kw)


def test_newton_zero_iterations_at_start(disk_01, euclid2):
    u, rep = newton_solve(cg.ScalarField.zeros(disk_01), 0.0, make(2, "1 + s", "0.3"),
                          euclid2, disk_01)
    assert rep.iterations == 0
    assert rep.converged
    assert np.all(u.values == 0.0)


def test_newton_recovers_trivial_solution(euclid1, interval_64):
    rng = np.random.default_rng(0)
    u0 = cg.ScalarField(interval_64, 0.3 * rng.standard_normal(interval_64.num_vertices))
    u, rep = newton_solve(u0, 1.0, make(1, "s"), euclid1, interval_64)
    assert np.max(np.abs(u.values)) < 1e-10
    # accepted residual norms decrease monotonically
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_rough_iterate_factor_keeps_its_pivots_on_the_diagonal(disk_01, euclid2):
    # at a 0.3-amplitude noise iterate the diagonal is not always the largest
    # entry of its column; the symmetric factor still pivots on it, so the
    # row permutation is the column ordering
    u = cg.ScalarField(disk_01, 0.3 * np.random.default_rng(0).standard_normal(
        disk_01.num_vertices))
    problem = make(2, "s")
    j = jacobian(u, 1.0, problem, euclid2, disk_01)
    r = residual(u, 1.0, problem, euclid2, disk_01)
    linear = _LinearSolver()
    _, backward, how, _ = linear.solve(j, -r, u)
    assert how == "factor" and backward <= 1e-12
    np.testing.assert_array_equal(linear._lu.perm_r, linear._lu.perm_c)


def test_newton_input_validation(disk_01, euclid2):
    with pytest.raises(ValueError):
        newton_solve(cg.ScalarField.zeros(disk_01), 0.5, make(2, "s"), euclid2,
                     disk_01, tol=0.0)


def test_newton_singular_jacobian_carries_iterate(euclid2):
    # constant psi with no height coupling: pure Neumann stiffness, singular
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    with pytest.raises(SolverError) as err:
        newton_solve(cg.ScalarField.zeros(mesh), 1.0, make(2, "1"), euclid2, mesh)
    assert err.value.iterate is not None
    assert isinstance(err.value, SingularJacobian)
    rep = err.value.report
    assert (rep.iterations, rep.converged, rep.backward_errors) == (0, False, [])
    assert len(rep.residual_history) == 1


def test_newton_report_has_one_entry_per_step(disk_01, euclid2):
    _, rep = newton_solve(cg.ScalarField.zeros(disk_01), 1.0, make(2, "1 + s", "0.3"),
                          euclid2, disk_01)
    assert rep.converged and rep.iterations > 0
    assert len(rep.damping_factors) == len(rep.backward_errors) == rep.iterations
    assert len(rep.linear_solves) == len(rep.pcg_iterations) == rep.iterations
    assert len(rep.residual_history) == rep.iterations + 1
    assert rep.residual_history[-1] == rep.residual_norm
    assert all(0.0 <= e <= 1e-12 for e in rep.backward_errors)


def test_max_iterations_carries_the_report(monkeypatch, disk_01, euclid2):
    import capgraph.solver as solver
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    with pytest.raises(SolverError, match="after 1 iterations") as err:
        newton_solve(cg.ScalarField.zeros(disk_01), 1.0, make(2, "1 + s", "0.3"),
                     euclid2, disk_01, tol=1e-16)
    rep = err.value.report
    assert rep.iterations == len(rep.damping_factors) == len(rep.backward_errors) == 1
    assert not rep.converged


def test_newton_rejects_a_non_finite_start_residual(disk_01, euclid2):
    # exp(s) - exp(2s) overflows to inf - inf = nan at the start iterate
    problem = cg.CapillaryProblem(
        2, psi=lambda x, s: np.exp(s) - np.exp(2 * s),
        dpsi_ds=lambda x, s: np.exp(s) - 2 * np.exp(2 * s),
        phi=zero_data, dphi_ds=zero_data)
    start = cg.ScalarField(disk_01, np.full(disk_01.num_vertices, 1e3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="not finite") as err:
            newton_solve(start, 1.0, problem, euclid2, disk_01)
    rep = err.value.report
    assert err.value.iterate is not None
    assert (rep.iterations, rep.converged) == (0, False)
    assert np.isnan(rep.residual_norm)


def test_continuation_trivial_path(disk_01, euclid2):
    state = continuation_solve(make(2, "s"), euclid2, disk_01)
    assert state.status == "converged"
    assert state.tau == 1.0
    assert np.max(np.abs(state.u.values)) < 1e-12
    taus = [step.tau for step in state.history]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert all(step.report.residual_norm <= 1e-10 for step in state.history)


def test_continuation_respects_height_bound(disk_01, euclid2):
    prob = make(2, "1 + s", "0.3")
    state = continuation_solve(prob, euclid2, disk_01)
    assert state.status == "converged"
    bound = cg.height_bound(prob, euclid2, disk_01)
    assert np.max(np.abs(state.u.values)) <= bound + 10 * 0.1**2


def test_continuation_validation_gate(disk_01, euclid2):
    prob = make(2, "sin(s)")
    with pytest.raises(ValueError, match="structural conditions"):
        continuation_solve(prob, euclid2, disk_01)


def test_continuation_stalls_on_incompatible_data(euclid2):
    # constant curvature with zero angle data has no solution at tau > 0:
    # stalling is the documented, reported outcome
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    state = continuation_solve(make(2, "1"), euclid2, mesh, unsafe=True)
    assert state.status == "stalled"
    assert state.tau < 1.0
    assert state.dtau < 1e-4
    # the rejected full step is recorded with its cause (a singular
    # Jacobian), and so is every halved step after it
    assert [h.tau for h in state.history] == [0.0]
    first = state.attempts[1]
    assert (first.tau, first.dtau, first.accepted) == (1.0, 1.0, False)
    assert first.cause.startswith("SingularJacobian: linear solve")
    assert first.report.iterations == 0
    rejected = state.attempts[1:]
    assert [a.dtau for a in rejected] == [0.5**k for k in range(len(rejected))]
    assert not any(a.accepted for a in rejected)
    assert rejected[-1].dtau / 2 < _STALL_DTAU <= rejected[-1].dtau
    reason = state.stall_reason()
    assert "\n" not in reason
    assert reason.startswith("continuation stalled at tau=0.000000: step dtau=0.0001221")
    assert "(SingularJacobian: " in reason
    assert first.to_dict()["cause"] == first.cause


def test_a_tiny_domain_is_not_solved_by_its_start_iterate(euclid2):
    # each residual entry integrates over the cells at its vertex: on a disk
    # of radius 1e-6 every entry at u = 0 is below tol = 1e-10, so a stop
    # test that does not scale with the domain accepted u = 0 at tau = 1
    mesh = cg.generate_disk_mesh(1e-6, 2e-7)
    state = continuation_solve(make(2, "1 + s"), euclid2, mesh)
    assert (state.status, state.tau) == ("stalled", 0.0)
    first = state.attempts[1]
    assert (first.tau, first.accepted) == (1.0, False)
    assert first.cause.startswith("SingularJacobian: ")


def test_continuation_determinism(euclid1, interval_64):
    prob = make(1, "1 + s", "0.25")
    s1 = continuation_solve(prob, euclid1, interval_64)
    s2 = continuation_solve(prob, euclid1, interval_64)
    assert [(h.tau, h.report.iterations, h.report.residual_norm) for h in s1.history] == \
           [(h.tau, h.report.iterations, h.report.residual_norm) for h in s2.history]
    np.testing.assert_array_equal(s1.u.values, s2.u.values)


def test_default_schedule_is_the_full_step(disk_01, euclid2):
    # the tolerance is the one setting: the schedule is not configurable
    assert [f.name for f in dataclasses.fields(ContinuationConfig)] == ["tol"]
    full = continuation_solve(make(2, "1 + s", "0.3"), euclid2, disk_01)
    assert [(a.tau, a.dtau) for a in full.attempts] == [(0.0, 0.0), (1.0, 1.0)]
    assert full.attempts == full.history


def test_the_fallback_halves_then_doubles(monkeypatch, disk_01, euclid2):
    # with a budget of two Newton iterations the full step and two halvings
    # are rejected; after three easy steps the step doubles, up to 1, and
    # every later step, started from the secant predictor, converges within
    # the budget
    import capgraph.solver as solver
    prob = make(2, "1 + s", "0.3")
    full = continuation_solve(prob, euclid2, disk_01)
    monkeypatch.setattr(solver, "_MAX_NEWTON", 2)
    state = continuation_solve(prob, euclid2, disk_01)
    assert state.status == "converged"
    rejected = [a for a in state.attempts if not a.accepted]
    assert [(a.tau, a.dtau) for a in rejected] == [(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)]
    assert all(a.cause.startswith("MaxIterationsExceeded: ") for a in rejected)
    assert [(a.tau, a.dtau) for a in state.history] == [
        (0.0, 0.0), (0.125, 0.125), (0.25, 0.125), (0.375, 0.125), (0.625, 0.25),
        (1.0, 0.5)]
    assert state.attempts[1:4] == rejected
    np.testing.assert_allclose(state.u.values, full.u.values, rtol=0, atol=1e-9)


@functools.cache
def _sweep_mesh(dim, level):
    return (cg.generate_interval_mesh(0.0, 1.0, 24 * 2**level) if dim == 1
            else cg.generate_disk_mesh(1.0, 0.3 / 2**level))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       warp=st.booleans(), level=st.sampled_from([0, 1]))
def test_full_step_converges_on_random_admissible_data(seed, dim, warp, level):
    # strict convexity of the discrete energy: the full step is never
    # rejected, so the homotopy is never needed
    prob, metric = random_positive_gravity_problem(np.random.default_rng(seed), dim,
                                                   warp=warp)
    mesh = _sweep_mesh(dim, level)
    full = continuation_solve(prob, metric, mesh)
    assert full.status == "converged"
    assert len(full.attempts) == 2
    cert = check_height(full.u, prob, metric, mesh)
    assert cert.applicable and cert.passed


def test_discrete_comparison_in_angle_data(euclid1, interval_64):
    # angle data ordered pointwise orders the solutions
    lo = continuation_solve(make(1, "1 + s", "-0.3"), euclid1, interval_64)
    mid = continuation_solve(make(1, "1 + s", "0"), euclid1, interval_64)
    hi = continuation_solve(make(1, "1 + s", "0.3"), euclid1, interval_64)
    assert np.all(lo.u.values <= mid.u.values + 1e-8)
    assert np.all(mid.u.values <= hi.u.values + 1e-8)
    # the middle solution is the constant equilibrium
    np.testing.assert_allclose(mid.u.values, -1.0, atol=1e-9)


def test_uniqueness_probe_trivial(disk_01, euclid2):
    prob = make(2, "s")
    state = continuation_solve(prob, euclid2, disk_01)
    spread = uniqueness_probe(prob, euclid2, disk_01, state=state, trials=5, seed=1)
    assert spread < 1e-8


def test_uniqueness_probe_single_trial_is_zero(disk_01, euclid2):
    prob = make(2, "1 + s", "0.3")
    state = continuation_solve(prob, euclid2, disk_01)
    assert uniqueness_probe(prob, euclid2, disk_01, state=state, trials=1) == 0.0


def test_continuation_on_annulus(euclid2):
    mesh = cg.generate_disk_mesh(1.0, 0.1, inner_radius=0.5)
    state = continuation_solve(make(2, "1 + s", "0.3"), euclid2, mesh)
    assert state.status == "converged"
    assert np.max(np.abs(state.u.values)) <= 1.0 + 10 * 0.1**2


def test_uniqueness_probe_runs_own_continuation(euclid2):
    mesh = cg.generate_disk_mesh(1.0, 0.25)
    spread = uniqueness_probe(make(2, "1 + s", "0.3"), euclid2, mesh, trials=3, seed=2)
    assert spread < 1e-7


def test_default_s_range_falls_back_only_when_positive_gravity_fails():
    mesh = cg.generate_interval_mesh(0.0, 1.0, 8)
    flat = cg.MetricField.euclidean(1)
    assert default_s_range(make(1, "1"), flat, mesh) == (-2.0, 2.0)
    # gamma overflows to inf: an evaluation error, not a failed condition
    steep = cg.MetricField.radial_warp(1, gamma="exp(800*x1)")
    with pytest.raises(ValueError, match="gamma"):
        default_s_range(make(1, "1 + s", "0.2"), steep, mesh)


def test_uniqueness_probe_requires_converged_state(euclid2):
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    stalled = continuation_solve(make(2, "1"), euclid2, mesh, unsafe=True)
    with pytest.raises(ValueError, match="converged"):
        uniqueness_probe(make(2, "1"), euclid2, mesh, state=stalled)


def _count_calls(monkeypatch, counts, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_one_factorization_per_newton_solve(monkeypatch, disk_01, euclid2):
    import capgraph.solver as solver
    counts = {}
    _count_calls(monkeypatch, counts, solver, "splu")
    _count_calls(monkeypatch, counts, solver, "jacobian")
    state = continuation_solve(make(2, "1 + s", "0.3 - 0.1*tanh(s)"), euclid2, disk_01)
    assert state.status == "converged"
    reports = [a.report for a in state.attempts]
    stepped = [rep for rep in reports if rep.iterations > 0]
    assert counts["jacobian"] == sum(rep.iterations for rep in reports) > len(stepped) > 0
    assert counts["splu"] == len(stepped)
    # the first step factors, the later ones are solved by PCG with that factor
    for rep in stepped:
        assert rep.linear_solves == ["factor"] + ["pcg"] * (rep.iterations - 1)
        assert rep.pcg_iterations[0] == 0
        assert all(0 < k <= solver._PCG_MAX_ITER for k in rep.pcg_iterations[1:])


def test_a_pcg_miss_falls_back_to_a_factor_of_the_current_jacobian(monkeypatch, disk_01,
                                                                    euclid2):
    # psi = sin(s) next to its root s = pi has d psi/ds = -1: outside the
    # structural conditions, the Jacobian is indefinite there, and PCG
    # preconditioned by the factor of another iterate's Jacobian breaks down
    # or misses the gate
    import capgraph.solver as solver
    prob = make(2, "sin(s)")
    rng = np.random.default_rng(3)
    start = cg.ScalarField(disk_01, np.pi + 0.2 * rng.standard_normal(disk_01.num_vertices))
    u, rep = newton_solve(start, 1.0, prob, euclid2, disk_01)
    assert "fallback" in rep.linear_solves
    assert all(0.0 <= e <= 1e-12 for e in rep.backward_errors)
    # a fallback step counts the iterations of the PCG solve that missed
    assert all(k >= 1 for how, k in zip(rep.linear_solves, rep.pcg_iterations)
               if how == "fallback")

    class FactorEveryStep(solver._LinearSolver):
        def solve(self, *args):
            self.release()
            return super().solve(*args)

    monkeypatch.setattr(solver, "_LinearSolver", FactorEveryStep)
    u_full, full = newton_solve(start, 1.0, prob, euclid2, disk_01)
    assert set(full.linear_solves) == {"factor"}
    assert rep.iterations == full.iterations
    np.testing.assert_allclose(u.values, u_full.values, rtol=0, atol=1e-12)
    assert np.max(np.abs(u.values - np.pi)) < 1e-10


def test_a_fresh_factor_that_misses_the_gate_names_its_backward_error(monkeypatch, disk_01,
                                                                     euclid2):
    # an unreachable backward-error gate makes PCG on the fresh factor miss;
    # the matrix is factored once all the same, and the error says by how much
    import capgraph.solver as solver
    counts = {}
    _count_calls(monkeypatch, counts, solver, "splu")
    monkeypatch.setattr(solver, "_LINEAR_RTOL", 0.0)
    prob = make(2, "1 + s", "0.3")
    u = np.zeros(disk_01.num_vertices)
    j = solver.jacobian(u, 0.5, prob, euclid2, disk_01)
    r = solver.residual(u, 0.5, prob, euclid2, disk_01)
    with pytest.raises(SingularJacobian, match="backward error"):
        solver._LinearSolver().solve(j, -r, None)
    assert counts["splu"] == 1


def test_pcg_stops_at_the_backward_error_gate(monkeypatch, disk_01, euclid2):
    # PCG stops as soon as the gate the step must pass holds, so a looser
    # gate takes fewer iterations, and every step still passes it
    import capgraph.solver as solver
    prob = make(2, "1 + s", "0.3 - 0.1*tanh(s)")
    _, tight = newton_solve(cg.ScalarField.zeros(disk_01), 1.0, prob, euclid2, disk_01)
    monkeypatch.setattr(solver, "_LINEAR_RTOL", 1e-8)
    _, loose = newton_solve(cg.ScalarField.zeros(disk_01), 1.0, prob, euclid2, disk_01)
    assert loose.linear_solves == tight.linear_solves
    assert sum(loose.pcg_iterations) < sum(tight.pcg_iterations)
    assert all(e <= 1e-8 for e in loose.backward_errors)


