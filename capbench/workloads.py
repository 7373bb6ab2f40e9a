"""The four benchmark workloads: set-up, one operation, and its correctness check.

Every operation goes through a public entry point: `capgraph.cli.run_command`
or the library calls a script would make.  Functions are looked up on their
module at call time, so the tracer's patches apply.  A workload's problems
form a cycle of ``cycle`` stratified draws; operation i solves problem
i mod cycle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

import capgraph
import capgraph.assembly
import capgraph.cli
import capgraph.config
import capgraph.geometry
import capgraph.meshing
import capgraph.problem
import capgraph.solver
import capgraph.verify

import inputs

TOL = 1e-10                         # continuation tolerance of every workload


def _cli(argv):
    """run_command with its stdout captured; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = capgraph.cli.run_command(argv)
    return code, buf.getvalue()


def _disk(h):
    return capgraph.meshing.DomainSpec("disk", {"radius": 1.0, "h": h})


def _order(hs, values):
    """Least-squares slope of log(value) against log(h)."""
    return float(np.polyfit(np.log(hs), np.log(values), 1)[0])


def _solution_checks(u, problem, metric, mesh):
    """Weak residual of the returned solution at tau = 1, and the height certificate.

    Positive gravity makes the discrete solution unique, so a residual within
    the solver tolerance pins it without stored reference data.
    """
    causes = []
    res = float(np.max(np.abs(capgraph.assembly.residual(u, 1.0, problem, metric, mesh))))
    if not res <= TOL:
        causes.append(f"weak residual {res:.3e} > tol {TOL:g}")
    height = capgraph.verify.check_height(capgraph.meshing.ScalarField(mesh, u),
                                          problem, metric, mesh)
    if not height.applicable:
        causes.append("height certificate not applicable, so it checked nothing")
    elif not height.passed:
        causes.append(f"height certificate failed: observed {height.observed:.6e} "
                      f"bound {height.bound}")
    return causes


class Workload:
    """Base: ``op(i)`` is timed, ``check(i, out)`` returns failure causes.

    ``nv`` is the number of mesh vertices one operation solves for.
    """

    name = ""
    cycle = 1
    nv = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.extras = {}            # accuracy figures gathered by the checks

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError


class NewtonFine(Workload):
    """Library continuation on one 19,441-vertex warped disk (assembly + linear algebra).

    A run has time for about three solves, so it repeats one problem and
    op_s is the fastest of them.  Gravity and angle data come from narrowed
    ranges, on which every solve takes the same number of Newton iterations,
    so the seeds' problems cost alike.
    """

    name = "newton_fine"
    cycle = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.problems = inputs.cap_problems(seed, self.cycle, 2, [True] * self.cycle,
                                            beta_range=(1.0, 1.5), phi_range=(0.25, 0.35))
        self.mesh = _disk(0.0125).build()
        self.nv = self.mesh.num_vertices

    def op(self, i):
        data = self.problems[i % self.cycle]
        metric = capgraph.geometry.MetricField.radial_warp(2, gamma=data.gamma)
        problem = capgraph.problem.CapillaryProblem.from_expressions(
            2, data.psi, data.phi, beta=data.beta, mu=data.mu,
            beta_prime=data.beta_prime)
        state = capgraph.solver.continuation_solve(
            problem, metric, self.mesh, capgraph.solver.ContinuationConfig(tol=TOL))
        return state, problem, metric

    def check(self, i, out):
        state, problem, metric = out
        if state.status != "converged":
            return [f"continuation {state.status} at tau={state.tau:.6f}"]
        return _solution_checks(state.u.values, problem, metric, self.mesh)


class CliCertify(Workload):
    """`capgraph solve` with every certificate and output format on a 4,921-vertex disk."""

    name = "cli_certify"
    cycle = 2
    H = 0.025
    # what `capgraph solve` certifies on a disk; one it skips is a failure
    CERTIFICATES = {"height-bound", "boundary-gradient", "contact-angle-residual",
                    "strong-form-residual", "interior-gradient", "separation-rate-identity"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        warped = [i % 2 == 1 for i in range(self.cycle)]
        self.outdir = self.workdir / "solve"
        self.configs = []
        for i, data in enumerate(inputs.cap_problems(seed, self.cycle, 2, warped)):
            path = self.workdir / f"solve_{i}.cfg"
            path.write_text(inputs.config_text(
                data, {"shape": "disk", "radius": 1.0, "h": self.H},
                solver={"tol": TOL},
                output={"dir": self.outdir, "formats": "csv,report,vtk,mesh"}))
            self.configs.append(path)
        self.mesh = _disk(self.H).build()        # for the checks only
        self.nv = self.mesh.num_vertices
        self.digests = []

    def op(self, i):
        return _cli(["solve", "--config", str(self.configs[i % self.cycle]),
                     "--output-dir", str(self.outdir)])

    def check(self, i, out):
        code, _ = out
        if code != 0:
            return [f"capgraph solve exited {code}"]
        report = (self.outdir / "report.jsonl").read_bytes()
        solution = (self.outdir / "solution.csv").read_bytes()
        self.digests.append({"solution.csv": hashlib.sha256(solution).hexdigest(),
                             "report.jsonl": hashlib.sha256(report).hexdigest()})
        certs = [json.loads(line) for line in report.decode().splitlines()]
        causes = [f"certificate {c['name']} failed (observed {c['observed']})"
                  for c in certs if not c["passed"]]
        causes += [f"certificate {name} missing from report.jsonl"
                   for name in sorted(self.CERTIFICATES - {c["name"] for c in certs})]
        lines = solution.decode().splitlines()
        column = lines[0].split(",").index("u")
        u = np.array([float(line.split(",")[column]) for line in lines[1:]])
        if len(u) != self.mesh.num_vertices:
            return causes + [f"solution.csv has {len(u)} rows, "
                             f"mesh has {self.mesh.num_vertices} vertices"]
        cfg = capgraph.config.load_config(self.configs[i % self.cycle])
        return causes + _solution_checks(u, cfg.build_problem(2), cfg.build_metric(2),
                                         self.mesh)


class MmsStudy(Workload):
    """`capgraph mms` on a seeded manufactured cap, levels 0-2 from h = 0.2."""

    name = "mms_study"
    cycle = 2
    ERROR_ORDER, ANGLE_ORDER = 1.8, 0.8          # acceptance criterion 03

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.outdir = self.workdir / "mms"
        self.configs = []
        for i, cap in enumerate(inputs.mms_caps(seed, self.cycle)):
            path = self.workdir / f"mms_{i}.cfg"
            path.write_text(inputs.config_text(
                cap, {"shape": "disk", "radius": 1.0, "h": 0.2},
                solver={"tol": TOL}, output={"dir": self.outdir}))
            self.configs.append(path)
        self.nv = sum(_disk(0.2).build(level).num_vertices for level in (0, 1, 2))
        self.extras["mms_error_linf"] = 0.0

    def op(self, i):
        return _cli(["mms", "--config", str(self.configs[i % self.cycle]),
                     "--output-dir", str(self.outdir)])

    def check(self, i, out):
        code, _ = out
        if code != 0:
            return [f"capgraph mms exited {code}"]
        lines = (self.outdir / "mms_table.csv").read_text().splitlines()
        rows = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
        hs, err, angle = rows[:, 0], rows[:, 1], rows[:, 2]
        self.extras["mms_error_linf"] = max(self.extras["mms_error_linf"], float(err[-1]))
        causes = []
        if not _order(hs, err) >= self.ERROR_ORDER:
            causes.append(f"error order {_order(hs, err):.3f} < {self.ERROR_ORDER}")
        if not _order(hs, angle) >= self.ANGLE_ORDER:
            causes.append(f"angle order {_order(hs, angle):.3f} < {self.ANGLE_ORDER}")
        return causes


class Oracle1D(Workload):
    """Many short `capgraph oracle1d` runs on seeded warped intervals."""

    name = "oracle_1d"
    cycle = 8
    M, M_DENSE = 64, 4096
    _GAP = re.compile(r"sup\|u_fem - u_oracle\| = (\S+)")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = []
        for i, data in enumerate(inputs.cap_problems(seed, self.cycle, 1,
                                                     [True] * self.cycle)):
            path = self.workdir / f"oracle_{i}.cfg"
            path.write_text(inputs.config_text(
                data, {"shape": "interval", "a": 0, "b": 1, "m": self.M},
                solver={"tol": TOL}, extra={"oracle": {"m_dense": self.M_DENSE}}))
            self.configs.append(path)
        h = 1.0 / self.M
        self.tol = 5.0 * (h**2 + 1.0 / self.M_DENSE**2)
        self.nv = self.M + 1
        self.extras["oracle_gap"] = 0.0

    def op(self, i):
        return _cli(["oracle1d", "--config", str(self.configs[i % self.cycle])])

    def check(self, i, out):
        code, text = out
        match = self._GAP.search(text)
        if match is None:
            return [f"capgraph oracle1d exited {code} without a comparison"]
        gap = float(match.group(1)) / self.tol
        self.extras["oracle_gap"] = max(self.extras["oracle_gap"], gap)
        causes = [] if code == 0 else [f"capgraph oracle1d exited {code}"]
        if not gap <= 1.0:
            causes.append(f"oracle gap {gap:.3f} > 1")
        return causes


WORKLOADS = {w.name: w for w in (NewtonFine, CliCertify, MmsStudy, Oracle1D)}
