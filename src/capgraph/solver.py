"""Damped Newton corrector and adaptive homotopy continuation in tau.

The family scales the data (psi, phi) by tau in [0, 1]; u = 0 solves the
tau = 0 problem.  Positive gravity (dpsi/ds >= beta > 0) and monotone angle
data (dphi/ds <= 0) make the discrete energy strictly convex, so damped
Newton with residual-norm backtracking converges from any start, and the
continuation first tries the full step to tau = 1.  The homotopy is
the fallback: a rejected step is halved (below ``_STALL_DTAU`` the
continuation stalls), and after three consecutive easy steps the step
doubles again, up to 1.  Every attempt, accepted or rejected, is recorded
with its Newton figures and, when rejected, its cause.

The same convexity makes each Jacobian symmetric positive definite, and the
Jacobians of one Newton solve differ only through the slope factor W, so one
sparse LU, of the first Jacobian, serves the whole Newton solve.  Every step
is one loop of conjugate gradients preconditioned by it, started from its
solve and stopped as soon as the step passes the one acceptance gate: a
normwise backward error (Rigal-Gaches; Higham, Accuracy and Stability of
Numerical Algorithms, sec. 7.1) of at most 1e-12 and a relative residual of
at most 1e-6.  A step the factor solves outright takes no iteration.  A PCG
solve that breaks down or misses the gate (on data outside the structural
conditions, say) factors the Jacobian of its step and runs once more, and
that factor serves the steps after it.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import jacobian, residual
from .meshing import ScalarField
from .problem import PositiveGravityError, height_bound, validate_conditions

__all__ = [
    "SolverError",
    "SingularJacobian",
    "LineSearchFailed",
    "MaxIterationsExceeded",
    "NewtonReport",
    "ContinuationConfig",
    "ContinuationStep",
    "ContinuationState",
    "newton_solve",
    "default_s_range",
    "continuation_solve",
    "uniqueness_probe",
]

log = logging.getLogger("capgraph.solver")

_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_LINEAR_RTOL = 1e-12
_PCG_MAX_ITER = 30
_EASY_STREAK = 3          # consecutive accepted steps before dtau doubles
_STALL_DTAU = 1e-4        # a step halved below this stalls the continuation
_MAX_NEWTON = 50          # Newton iterations per solve


class SolverError(RuntimeError):
    """Base solver failure; carries the last iterate for diagnosis and, when
    raised by `newton_solve`, the `NewtonReport` of the iterations made."""

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate
        self.report = None


class SingularJacobian(SolverError):
    pass


class LineSearchFailed(SolverError):
    pass


class MaxIterationsExceeded(SolverError):
    pass


@dataclass
class NewtonReport:
    """Residual max-norms (the start and each accepted iterate), the damping
    factor of each step and, of its linear solve, the normwise backward
    error, which solve gave the step ("factor", "pcg", or "fallback": PCG
    missed and the Jacobian was factored) and the PCG iterations made."""

    iterations: int
    residual_norm: float
    damping_factors: list
    converged: bool
    residual_history: list
    backward_errors: list = field(default_factory=list)
    linear_solves: list = field(default_factory=list)
    pcg_iterations: list = field(default_factory=list)


@dataclass
class ContinuationConfig:
    """The Newton tolerance of every solve of a continuation."""

    tol: float = 1e-10


@dataclass
class ContinuationStep:
    """One corrector attempt from the current point with step ``dtau`` to
    ``tau``, with the `NewtonReport` of its iterations.  ``cause`` is None for
    an accepted attempt; for a rejected one it names the exception class and
    message."""

    tau: float
    dtau: float
    report: NewtonReport
    cause: str | None = None

    @property
    def accepted(self):
        return self.cause is None

    def to_dict(self):
        """Flat record: the attempt's fields and the report's figures, with
        ``iterations`` under ``newton_iterations``."""
        figures = asdict(self.report)
        del figures["converged"]            # the same as accepted
        figures["newton_iterations"] = figures.pop("iterations")
        return {"tau": self.tau, "dtau": self.dtau, "cause": self.cause,
                "accepted": self.accepted, **figures}


@dataclass
class ContinuationState:
    """``attempts`` holds every attempt in the order made, ``history`` the
    accepted ones."""

    tau: float
    u: ScalarField
    dtau: float
    attempts: list = field(default_factory=list)
    status: str = "advancing"

    @property
    def history(self):
        return [a for a in self.attempts if a.accepted]

    def stall_reason(self):
        """One line naming tau, the last step tried and why it was rejected."""
        last = self.attempts[-1]
        return (f"continuation stalled at tau={self.tau:.6f}: step dtau={last.dtau:.4g} "
                f"to tau={last.tau:.6f} rejected ({last.cause})")


class _LinearSolver:
    """The linear solves of one `newton_solve`, around one held sparse factor.

    The first step factors its Jacobian.  The Jacobians of one Newton solve
    differ only through the slope factor W, and on admissible data they are
    symmetric positive definite, so that factor serves them all: each step
    runs preconditioned conjugate gradients (`_pcg`) with the held factor,
    from that factor's solve, and stops as soon as the step passes the gate
    (a factor that meets it at once takes no iteration).  A step that breaks
    down or misses the gate with a held factor drops it, factors its own
    Jacobian and runs once more, and that factor is held from then on; a
    fresh factor that misses raises `SingularJacobian`.  Call `release` when
    the Newton solve ends.
    """

    def __init__(self):
        self._lu = None

    def release(self):
        self._lu = None

    def solve(self, mat, rhs, iterate):
        """The Newton step, its normwise backward error, the solve that gave
        it ("factor": the Jacobian was factored first, "pcg": the held factor
        served, or "fallback": it missed and the Jacobian was factored) and
        the PCG iterations made, those of a missed attempt included."""
        # normwise backward error (Rigal-Gaches, the achievable relative
        # measure for a direct solve) plus a loose forward gate: a singular
        # factorization can return a huge null-space-polluted delta whose
        # backward error still looks tiny
        rhs_norm = np.linalg.norm(rhs, np.inf)
        mat_norm = abs(mat).sum(axis=1).max()

        def gate(res, d):
            res_norm = np.linalg.norm(res, np.inf)
            with np.errstate(invalid="ignore"):     # inf / inf for a non-finite d
                backward = res_norm / (mat_norm * np.linalg.norm(d, np.inf) + rhs_norm)
            forward = res_norm / rhs_norm if rhs_norm > 0 else 0.0
            return backward <= _LINEAR_RTOL and forward <= 1e-6, backward, forward

        how = "factor" if self._lu is None else "pcg"
        iterations = 0
        while True:
            if self._lu is None:
                # the Jacobian is symmetric, and positive definite on
                # admissible data, so the columns follow a minimum-degree
                # ordering of A^T + A and symmetric mode applies it to the
                # rows too; a diagonal pivot is kept unless it is below a
                # tenth of its column's largest entry, so a rough iterate,
                # whose diagonal is not always the largest, keeps the
                # ordering and its fill
                try:
                    self._lu = splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                    diag_pivot_thresh=0.1,
                                    options={"SymmetricMode": True})
                except RuntimeError as exc:
                    raise SingularJacobian(f"linear solve broke down: {exc}",
                                           iterate=iterate) from exc
            delta, k = _pcg(mat, rhs, self._lu, gate)
            iterations += k
            passed, backward, forward = gate(rhs - mat @ delta, delta)
            if passed:
                return delta, backward, how, iterations
            if how != "pcg":
                raise SingularJacobian(
                    f"linear solve breakdown (backward error {backward:.2e}, "
                    f"relative residual {forward:.2e})", iterate=iterate)
            how = "fallback"
            self._lu = None          # never two factors alive at once


def _pcg(mat, rhs, lu, gate):
    """Conjugate gradients on mat x = rhs, preconditioned by the factor ``lu``.

    Starts at x = lu.solve(rhs) and stops as soon as ``gate(r, x)[0]`` holds
    on the recursive residual r, at a breakdown (p^T mat p <= 0 or r^T z <= 0:
    the factor is not positive definite, or a value is not finite) or after
    _PCG_MAX_ITER iterations.  Returns (x, iterations made).
    """
    x = lu.solve(rhs)
    r = rhs - mat @ x
    for k in range(_PCG_MAX_ITER):
        if gate(r, x)[0]:
            return x, k
        z = lu.solve(r)
        rz = r @ z
        p = z if k == 0 else z + (rz / rz_old) * p
        q = mat @ p
        curvature = p @ q
        if not (0 < curvature < np.inf and 0 < rz < np.inf):
            return x, k
        alpha = rz / curvature
        x = x + alpha * p
        r = r - alpha * q
        rz_old = rz
    return x, _PCG_MAX_ITER


def newton_solve(u0, tau, problem, metric, mesh, tol=1e-10):
    """Damped Newton on the weak residual; returns (solution, NewtonReport).

    Stops once the residual max-norm is at most tol * min(1, |Omega|), with
    |Omega| the chart measure of the mesh: each entry integrates over the
    cells at its vertex, so on a small domain an unscaled tol would accept
    the start iterate whatever the data.  Accepted steps strictly decrease
    the residual max-norm (Armijo with halving, at most 30 halvings per
    step, at most ``_MAX_NEWTON`` steps).  Failures raise `SingularJacobian`,
    `LineSearchFailed`, `MaxIterationsExceeded` or, for a start iterate whose
    residual is not finite, `SolverError`; each carries the iterate and the
    report of the iterations made.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    tol = tol * min(1.0, float(mesh.cell_measure.sum()))
    u = _as_field(u0, mesh).values.copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("initial iterate must be finite")
    r = residual(u, tau, problem, metric, mesh)
    rnorm = float(np.max(np.abs(r)))
    rep = NewtonReport(0, rnorm, [], False, [rnorm])
    linear = _LinearSolver()
    try:
        # a NaN norm fails every comparison, so the loop test alone would
        # accept it as converged
        if not np.isfinite(rnorm):
            raise SolverError(f"residual is not finite at the start iterate (tau={tau:g})",
                              iterate=ScalarField(mesh, u))
        while rnorm > tol:
            if rep.iterations == _MAX_NEWTON:
                raise MaxIterationsExceeded(
                    f"residual {rnorm:.3e} > tol {tol:g} after {_MAX_NEWTON} iterations",
                    iterate=ScalarField(mesh, u))
            j = jacobian(u, tau, problem, metric, mesh)
            delta, backward, how, pcg_iterations = linear.solve(j, -r, ScalarField(mesh, u))
            rep.backward_errors.append(backward)
            rep.linear_solves.append(how)
            rep.pcg_iterations.append(pcg_iterations)
            alpha = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                u_try = u + alpha * delta
                r_try = residual(u_try, tau, problem, metric, mesh)
                rnorm_try = float(np.max(np.abs(r_try)))
                if np.isfinite(rnorm_try) and rnorm_try <= (1.0 - _ARMIJO * alpha) * rnorm:
                    break
                alpha *= 0.5
            else:
                raise LineSearchFailed(
                    f"no residual decrease after {_MAX_HALVINGS} halvings at tau={tau:g}",
                    iterate=ScalarField(mesh, u))
            u, r, rnorm = u_try, r_try, rnorm_try
            rep.iterations += 1
            rep.residual_norm = rnorm
            rep.damping_factors.append(alpha)
            rep.residual_history.append(rnorm)
    except SolverError as exc:
        exc.report = rep
        raise
    finally:
        linear.release()
    rep.converged = True
    return ScalarField(mesh, u), rep


def _as_field(u, mesh):
    if isinstance(u, ScalarField):
        return u
    return ScalarField(mesh, u)


def default_s_range(problem, metric, mesh):
    """Heights at which the structural conditions are checked: twice the
    a-priori height bound (at least 1) either side of zero, or (-2, 2) when
    positive gravity fails; data that cannot be evaluated raise."""
    try:
        b = height_bound(problem, metric, mesh)
    except PositiveGravityError:
        b = 1.0
    return (-2.0 * max(1.0, b), 2.0 * max(1.0, b))


def continuation_solve(problem, metric, mesh, cfg=None, unsafe=False):
    """Advance tau from 0 to 1 starting at the trivial solution.

    The first attempt is the full step to tau = 1, which converges on data
    meeting the structural conditions.  A rejected attempt halves dtau
    (below ``_STALL_DTAU`` the status is "stalled"; see
    `ContinuationState.stall_reason`); after three consecutive accepted
    steps dtau doubles, up to 1.  Predictor: the previous solution, or
    secant extrapolation once two accepted points exist.
    Validation of the structural conditions runs first unless ``unsafe``.
    """
    cfg = cfg or ContinuationConfig()
    if not unsafe:
        report = validate_conditions(problem, mesh, metric,
                                     default_s_range(problem, metric, mesh))
        if not report.passed:
            raise ValueError(
                "structural conditions fail (pass unsafe=True to proceed):\n"
                + report.summary())

    u, rep = newton_solve(ScalarField.zeros(mesh), 0.0, problem, metric, mesh, cfg.tol)
    state = ContinuationState(tau=0.0, u=u, dtau=1.0)
    state.attempts.append(ContinuationStep(0.0, 0.0, rep))
    log.info("continuation tau=%.6f dtau=%.4g newton_iters=%d residual=%.3e",
             0.0, 0.0, rep.iterations, rep.residual_norm)

    prev = None                      # (tau, values) behind the current point
    streak = 0
    while state.tau < 1.0 - 1e-14:
        tau_next = min(1.0, state.tau + state.dtau)
        if prev is not None:
            slope = (state.u.values - prev[1]) / (state.tau - prev[0])
            guess = state.u.values + slope * (tau_next - state.tau)
        else:
            guess = state.u.values
        try:
            u_next, rep = newton_solve(ScalarField(mesh, guess), tau_next, problem,
                                       metric, mesh, cfg.tol)
        except SolverError as exc:
            cause = f"{type(exc).__name__}: {exc}"
            state.attempts.append(ContinuationStep(
                tau_next, state.dtau, exc.report, cause))
            log.info("continuation tau=%.6f rejected (%s); halving dtau=%.4g",
                     tau_next, cause, state.dtau / 2)
            state.dtau *= 0.5
            streak = 0
            if state.dtau < _STALL_DTAU:
                state.status = "stalled"
                return state
            continue
        prev = (state.tau, state.u.values)
        state.tau, state.u = tau_next, u_next
        state.attempts.append(ContinuationStep(tau_next, state.dtau, rep))
        log.info("continuation tau=%.6f dtau=%.4g newton_iters=%d residual=%.3e",
                 tau_next, state.dtau, rep.iterations, rep.residual_norm)
        streak += 1
        if streak >= _EASY_STREAK:
            state.dtau = min(2.0 * state.dtau, 1.0)
    state.status = "converged"
    return state


def uniqueness_probe(problem, metric, mesh, trials=5, state=None, seed=0):
    """Max pairwise sup-norm spread of Newton re-solves from perturbed starts.

    Perturbations are uniform noise of amplitude equal to the a-priori height
    bound, or a fraction of the solution scale when that bound is zero or
    positive gravity fails.  Trials that fail to converge are logged, not
    fatal.  `trials=1` returns 0 by definition.  Solves use the defaults.
    """
    if state is None:
        state = continuation_solve(problem, metric, mesh)
    if state.status != "converged":
        raise ValueError("uniqueness probe requires a converged continuation")
    base = state.u.values
    try:
        amp = height_bound(problem, metric, mesh)
    except PositiveGravityError:
        amp = 0.0
    if amp == 0.0:
        amp = 0.25 * (1.0 + float(np.max(np.abs(base))))
    rng = np.random.default_rng(seed)
    solutions = []
    for t in range(trials):
        start = base + rng.uniform(-amp, amp, size=len(base))
        try:
            u, _ = newton_solve(ScalarField(mesh, start), 1.0, problem, metric, mesh)
        except SolverError as exc:
            log.warning("uniqueness trial %d failed: %s", t, exc)
            continue
        solutions.append(u.values)
    spread = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            spread = max(spread, float(np.max(np.abs(solutions[i] - solutions[j]))))
    return spread
