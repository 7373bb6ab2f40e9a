"""Command dispatch and result export.

Subcommands: solve, verify, mms, convergence, oracle1d, export.  Exit codes:
0 success, 1 solver failure, 2 configuration error (including a domain that
cannot be built, a mesh file that cannot be read, and a stored solution
that cannot be read or was written on another mesh).  All runs are
reproducible from the config; output files carry no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .geometry import vertex_slope_factors
from .meshing import (MeshError, ScalarField, _mesh_text, _write_sections,
                      boundary_distance_field, shared_text, write_mesh, write_vtk)
from .problem import validate_conditions
from .solver import SolverError, continuation_solve, default_s_range
from . import verify as vf

__all__ = ["run_command", "main", "write_solution_csv", "read_solution_csv",
           "write_report", "read_report"]

log = logging.getLogger("capgraph.cli")


# ---------------------------------------------------------------------------
# Solution / report files


def write_solution_csv(path, mesh, u, w, d_gamma):
    """CSV schema: vertex_id,x1[,x2],u,W,d_gamma_boundary (shortest round-trip reprs)."""
    cols = ["vertex_id", "x1"] + (["x2"] if mesh.dim == 2 else [])
    cols += ["u", "W", "d_gamma_boundary"]
    text = _mesh_text(mesh)
    coords = text.vertices().replace(" ", ",").split("\n")
    values = [text.field(v).split("\n") for v in (u, w, d_gamma)]
    rows = zip(map(str, range(mesh.num_vertices)), coords, *values)
    _write_sections(path, [",".join(cols), "\n".join(map(",".join, rows))])


def read_solution_csv(path):
    """Read a solution CSV back into a dict of arrays (bit-identical values).

    Raises `ValueError` unless the file is a header and rows of numbers, each
    row with one field per header column.
    """
    rows = [line.split(",") for line in Path(path).read_text().strip().splitlines()]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("not a table with one field per header column")
    return {name: np.array([float(row[i]) for row in rows[1:]])
            for i, name in enumerate(rows[0])}


def write_report(path, records):
    """One JSON object per record (certificate or continuation attempt), sorted
    keys, one per line, in the order given."""
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def read_report(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


# ---------------------------------------------------------------------------
# Shared run plumbing


def _stored_solution(args, cfg, mesh):
    """The stored solution (``--solution`` or the output dir's CSV) on ``mesh``;
    `ConfigError` unless it reads and its x1[, x2] are exactly ``mesh.vertices``
    (safe to compare exactly: the writer's reprs round-trip)."""
    path = args.solution or (cfg.output_dir / "solution.csv")
    try:
        data = read_solution_csv(path)
        coords = np.column_stack([data[c] for c in ("x1", "x2")[:mesh.dim]])
        u = data["u"]
    except KeyError as exc:
        raise ConfigError(f"stored solution {path} has no column {exc}") from exc
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise ConfigError(f"cannot read stored solution {path}: {exc}") from exc
    if not np.array_equal(coords, mesh.vertices):
        raise ConfigError(f"stored solution {path} was not written on the configured mesh")
    if not np.all(np.isfinite(u)):
        raise ConfigError(f"stored solution {path} has non-finite u values")
    return ScalarField(mesh, u)


def _solution_certificates(u, problem, metric, mesh, tau):
    """All single-solution certificates (provisional traces), in report order.

    A certificate that does not apply to this solution is skipped with a warning.
    """
    jobs = {
        "height": lambda: vf.check_height(u, problem, metric, mesh),
        "boundary": lambda: vf.boundary_gradient_certificate(u, metric, mesh),
        "angle": lambda: vf.contact_angle_residual(u, tau, problem, metric, mesh),
        "strong": lambda: vf.strong_form_residual(u, tau, problem, metric, mesh),
    }
    ball = vf.interior_ball(mesh)
    if ball is not None:
        jobs["interior"] = lambda: vf.interior_gradient_certificate(u, metric, mesh, *ball)
    jobs["separation-rate"] = lambda: vf.separation_rate_check(
        u, metric, mesh, vf.make_interior_bump(mesh, metric), [1e-2, 5e-3, 2.5e-3])
    certs = []
    for name, fn in jobs.items():
        try:
            certs.append(fn())
        except (ValueError, vf.FoldDetected) as exc:
            log.warning("certificate %s skipped: %s", name, exc)
    return certs


def _print_certificates(certs):
    for c in certs:
        print(f"certificate {c.name}: observed={c.observed:.6e} "
              f"passed={c.passed} provisional={c.provisional}")


def _write_outputs(cfg, mesh, metric, u, certs, formats, attempts=None):
    """Write ``u`` (with W and d_gamma in the csv and vtk formats) in each of
    ``formats`` to the output dir; the report format also writes the
    continuation ``attempts`` when given."""
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    if "csv" in formats or "vtk" in formats:
        w = vertex_slope_factors(metric, u)
        d_gamma = boundary_distance_field(mesh, metric).values
    with shared_text(mesh):                # each value is formatted once
        if "csv" in formats:
            write_solution_csv(outdir / "solution.csv", mesh, u.values, w, d_gamma)
        if "report" in formats:
            write_report(outdir / "report.jsonl", certs)
            if attempts is not None:
                write_report(outdir / "continuation.jsonl", attempts)
        if "mesh" in formats:
            write_mesh(mesh, outdir / "mesh.txt")
        if "vtk" in formats:
            write_vtk(mesh, outdir / "solution.vtk",
                      point_data={"u": u.values, "W": w, "d_gamma_boundary": d_gamma})


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args, cfg):
    mesh = cfg.build_domain().build()
    metric = cfg.build_metric(mesh.dim)
    problem = cfg.build_problem(mesh.dim)
    metric.validate(mesh.vertices)
    state = continuation_solve(problem, metric, mesh, cfg.build_solver_cfg(),
                               unsafe=cfg.unsafe)
    # a stalled run's iterate does not solve the requested problem: no certificates
    certs = (_solution_certificates(state.u, problem, metric, mesh, state.tau)
             if state.status == "converged" else [])
    _write_outputs(cfg, mesh, metric, state.u, certs, cfg.formats, state.attempts)
    print(f"status={state.status} tau={state.tau:.6f} "
          f"steps={len(state.history)} max|u|={np.max(np.abs(state.u.values)):.6e}")
    _print_certificates(certs)
    if state.status != "converged":
        print(state.stall_reason(), file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args, cfg):
    mesh = cfg.build_domain().build()
    metric = cfg.build_metric(mesh.dim)
    problem = cfg.build_problem(mesh.dim)
    u = _stored_solution(args, cfg, mesh)
    report = validate_conditions(problem, mesh, metric,
                                 s_range=default_s_range(problem, metric, mesh))
    print(report.summary())
    certs = _solution_certificates(u, problem, metric, mesh, 1.0)
    _write_outputs(cfg, mesh, metric, u, certs, ["report"])
    _print_certificates(certs)
    return 0


def _refined_domain(cfg, command):
    """(domain, levels, dim) of a refinement study: `ConfigError` for a mesh
    file, which cannot be refined; an interval is 1D, every other shape 2D."""
    shape = cfg.domain["shape"]
    if shape == "mesh-file":
        raise ConfigError(f"{command} refines its domain, and a mesh-file domain "
                          f"cannot be refined")
    return (cfg.build_domain(), cfg.mms.get("levels", (0, 1, 2)),
            1 if shape == "interval" else 2)


def _cmd_mms(args, cfg):
    if "u_exact" not in cfg.mms:
        raise ConfigError("[mms] u_exact is required for the mms command")
    domain, levels, dim = _refined_domain(cfg, "mms")
    rows, orders = vf.mms_convergence_study(
        cfg.build_metric(dim), domain, cfg.expression("mms", "u_exact"), levels=levels,
        kappa0=cfg.mms.get("kappa0", 1.0), cfg=cfg.build_solver_cfg(),
        unsafe=cfg.unsafe)
    print(f"{'h':>10} {'Linf_error':>14} {'angle_residual':>16} {'strong_residual':>16}")
    for r in rows:
        print(f"{r['h']:>10.4g} {r['error']:>14.6e} {r['angle_residual']:>16.6e} "
              f"{r['strong_residual']:>16.6e}")
    print(f"observed orders: error={orders['error']:.3f} "
          f"angle={orders['angle_residual']:.3f} strong={orders['strong_residual']:.3f}")
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    table = [",".join(["h", "error", "angle_residual", "strong_residual"])]
    table += [f"{r['h']!r},{r['error']!r},{r['angle_residual']!r},{r['strong_residual']!r}"
              for r in rows]
    (outdir / "mms_table.csv").write_text("\n".join(table) + "\n")
    return 0


def _cmd_convergence(args, cfg):
    if "u_exact" in cfg.mms:
        return _cmd_mms(args, cfg)
    domain, levels, dim = _refined_domain(cfg, "convergence")
    certs, _ = vf.run_refinement_suite(cfg.build_problem(dim), cfg.build_metric(dim),
                                       domain, levels=levels,
                                       cfg=cfg.build_solver_cfg(), unsafe=cfg.unsafe)
    for c in certs:
        order = c.details.get("observed_order")
        extra = f" order={order:.3f}" if isinstance(order, float) else ""
        print(f"certificate {c.name}: observed={c.observed:.6e} "
              f"passed={c.passed}{extra}")
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    write_report(outdir / "report.jsonl", certs)
    return 0


def _cmd_oracle1d(args, cfg):
    if cfg.domain["shape"] != "interval":
        raise ConfigError("oracle1d requires an interval domain")
    mesh = cfg.build_domain().build()
    metric = cfg.build_metric(1)
    problem = cfg.build_problem(1)
    state = continuation_solve(problem, metric, mesh, cfg.build_solver_cfg(),
                               unsafe=cfg.unsafe)
    if state.status != "converged":
        print(state.stall_reason(), file=sys.stderr)
        return 1
    m_dense = cfg.oracle.get("m_dense", 4096)
    a, b = cfg.domain["a"], cfg.domain["b"]
    x_d, u_d = vf.oracle_1d_solve(problem, metric, a, b, m_dense)
    u_at_vertices = np.interp(mesh.vertices[:, 0], x_d, u_d)
    diff = float(np.max(np.abs(state.u.values - u_at_vertices)))
    h = (b - a) / cfg.domain["m"]
    tol = 5.0 * (h**2 + 1.0 / m_dense**2)
    print(f"sup|u_fem - u_oracle| = {diff:.6e} (tolerance {tol:.6e})")
    return 0 if diff <= tol else 1


def _cmd_export(args, cfg):
    mesh = cfg.build_domain().build()
    metric = cfg.build_metric(mesh.dim)
    u = _stored_solution(args, cfg, mesh)
    _write_outputs(cfg, mesh, metric, u, None, [args.format])
    return 0


# ---------------------------------------------------------------------------
# Entry points


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="capgraph",
        description="capillary Killing-graph solver and certificate suite")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", _cmd_solve), ("verify", _cmd_verify),
                     ("mms", _cmd_mms), ("convergence", _cmd_convergence),
                     ("oracle1d", _cmd_oracle1d), ("export", _cmd_export)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output-dir", default=None)
        if name in ("verify", "export"):
            p.add_argument("--solution", default=None)
        if name == "export":
            p.add_argument("--format", choices=("vtk", "csv", "mesh"), default="vtk")
        p.set_defaults(fn=fn)
    return parser


def run_command(argv):
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        if args.output_dir:
            cfg.output["dir"] = args.output_dir
        return args.fn(args, cfg)
    except (ConfigError, MeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, vf.OracleFailed, vf.ManufactureError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(name)s %(message)s")
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
