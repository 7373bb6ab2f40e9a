import argparse
import contextlib
import json
import logging
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from capgraph import cli, solver
from capgraph.cli import read_report, read_solution_csv, run_command
from capgraph.config import load_config
from capgraph.meshing import (DomainSpec, generate_disk_mesh, generate_interval_mesh,
                              write_mesh)

SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.cfg"))

DISK_CFG = """
[metric]
preset = euclidean

[domain]
shape = disk
radius = 1.0
h = 0.2

[problem]
psi = {psi}
phi = {phi}

[solver]
tol = 1e-10

[output]
dir = {out}
formats = csv,report,vtk,mesh
"""

INTERVAL_CFG = """
[domain]
shape = interval
a = 0
b = 1
m = 32

[problem]
psi = 1 + s
phi = 0.2

[output]
dir = {out}

[oracle]
m_dense = 1024
"""


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_forced_zero(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="s", phi="0", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    data = read_solution_csv(tmp_path / "out" / "solution.csv")
    assert np.max(np.abs(data["u"])) < 1e-10
    assert set(data) == {"vertex_id", "x1", "x2", "u", "W", "d_gamma_boundary"}
    report = read_report(tmp_path / "out" / "report.jsonl")
    assert {r["name"] for r in report} >= {"height-bound", "contact-angle-residual"}


def test_solution_round_trip_is_bit_identical(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    path = tmp_path / "out" / "solution.csv"
    first = read_solution_csv(path)
    # re-export through the CLI and compare nodal values exactly
    assert run_command(["export", "--config", cfg, "--solution", str(path),
                        "--format", "csv"]) == 0
    second = read_solution_csv(path)
    np.testing.assert_array_equal(first["u"], second["u"])
    np.testing.assert_array_equal(first["W"], second["W"])


def test_determinism_across_runs(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "o"))
    assert run_command(["solve", "--config", cfg, "--output-dir",
                        str(tmp_path / "o1")]) == 0
    assert run_command(["solve", "--config", cfg, "--output-dir",
                        str(tmp_path / "o2")]) == 0
    for name in ("solution.csv", "report.jsonl", "continuation.jsonl"):
        a = (tmp_path / "o1" / name).read_bytes()
        b = (tmp_path / "o2" / name).read_bytes()
        assert a == b


def test_verify_runs_on_stored_solution(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    assert run_command(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "height-bound" in out
    report = read_report(tmp_path / "out" / "report.jsonl")
    assert all(isinstance(r["passed"], bool) for r in report)


def test_solve_finds_the_boundary_distances_once(tmp_path, monkeypatch):
    # the boundary-gradient certificate, the interior bump and the d_gamma
    # output share one solve; the interior-gradient certificate makes the other
    import scipy.sparse.csgraph as csgraph
    real, calls = csgraph.dijkstra, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("min_only", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counted)
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    assert sorted(calls) == [False, True]


@pytest.mark.parametrize("problem,condition", [
    ("psi = 1 + s + 0*exp(800 - s)\ndpsi_ds = 1\nphi = 0.3", "magnitude-bound"),
    ("psi = 1 + s + 0*exp(800*s)\ndpsi_ds = 1\nphi = 0.3", "magnitude-bound"),
    ("psi = 1 + s\ndpsi_ds = 1 + 0*exp(800*s)\nphi = 0.3", "positive-gravity"),
    ("psi = 1 + s\nphi = 0.3 + 0*exp(800*s)\ndphi_ds = 0", "angle-nondegenerate"),
], ids=["mu", "psi", "dpsi_ds", "phi"])
def test_solve_exits_1_on_a_nan_sample(tmp_path, capsys, problem, condition):
    # 0*exp(800*s) is NaN for s >= 0.89, inside the heights that are checked;
    # 0*exp(800 - s) is NaN at s = 0 too, so that mu is NaN and there is no
    # height bound
    text = DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out").replace(
        "psi = 1 + s\nphi = 0.3", problem)
    assert run_command(["solve", "--config", write_cfg(tmp_path, "nan.cfg", text)]) == 1
    assert f"[FAIL] {condition}" in capsys.readouterr().err


@pytest.mark.parametrize("mutation,message", [
    ("dtau = 2", "dtau"),
    ("granularity = 1", "unknown key"),
    ("formats = csv,xls", "formats"),
    ("[run]\nseed = 3", "unknown section"),
])
def test_config_errors_exit_2(tmp_path, capsys, mutation, message):
    base = DISK_CFG.format(psi="s", phi="0", out=tmp_path / "out")
    if "=" in mutation and mutation.split("=")[0].strip() in ("dtau",):
        text = base.replace("tol = 1e-10", f"tol = 1e-10\n{mutation}")
    elif mutation.startswith("formats"):
        text = base.replace("formats = csv,report,vtk,mesh", mutation)
    else:
        text = base + mutation + "\n"
    cfg = write_cfg(tmp_path, "bad.cfg", text)
    assert run_command(["solve", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


# One row per config rule: (command, sections replaced in RULE_BASE, message).
# A section given as None is dropped.  "{tmp}" in a value is the test's tmp_path.
RULE_BASE = {
    "metric": {"preset": "euclidean"},
    "domain": {"shape": "disk", "radius": "1.0", "h": "0.2"},
    "problem": {"psi": "1 + s", "phi": "0.3"},
    "solver": {"tol": "1e-10"},
    "mms": {"u_exact": "sqrt(4 - r^2)", "levels": "0,1"},
    "oracle": {"m_dense": "64"},
}
ANNULUS = {"shape": "annulus", "radius": "1.0", "inner_radius": "0.5", "h": "0.2"}
INTERVAL = {"shape": "interval", "a": "0", "b": "1", "m": "8"}
MESH_1D = {"shape": "mesh-file", "path": "{tmp}/interval.txt"}   # INTERVAL's mesh
MESH_2D = {"shape": "mesh-file", "path": "{tmp}/disk.txt"}       # RULE_BASE's mesh
# a unit square in two triangles, with one bad vertex id
SQUARE_FILE = ("DIM 2\nVERTICES 4\n0 0\n1 0\n1 1\n0 1\nCELLS 2\n0 1 2\n0 2 {c}\n"
               "BOUNDARY 4\n0 1\n1 2\n2 {c}\n{c} 0\n")


def _without(section, key):
    return {k: v for k, v in section.items() if k != key}


def _rule(rule_id, sections, message, command="solve"):
    return pytest.param(command, sections, message, id=rule_id)


CONFIG_RULES = [
    # ranges: each bound
    _rule("solver.tol-min", {"solver": {"tol": "0"}},
          "[solver] tol = 0.0 below allowed minimum 1e-16"),
    _rule("solver.tol-max", {"solver": {"tol": "2"}},
          "[solver] tol = 2.0 above allowed maximum 1.0"),
    _rule("domain.radius-min", {"domain": {**RULE_BASE["domain"], "radius": "0"}},
          "[domain] radius = 0.0 below allowed minimum 1e-12"),
    _rule("domain.h-min", {"domain": {**RULE_BASE["domain"], "h": "0"}},
          "[domain] h = 0.0 below allowed minimum 1e-12"),
    _rule("domain.inner_radius-min", {"domain": {**ANNULUS, "inner_radius": "0"}},
          "[domain] inner_radius = 0.0 below allowed minimum 1e-12"),
    _rule("domain.m-min", {"domain": {**INTERVAL, "m": "1"}},
          "[domain] m = 1 below allowed minimum 2"),
    _rule("mms.kappa0-min", {"mms": {"u_exact": "1", "kappa0": "0"}},
          "[mms] kappa0 = 0.0 below allowed minimum 1e-12"),
    _rule("oracle.m_dense-min", {"oracle": {"m_dense": "8"}},
          "[oracle] m_dense = 8 below allowed minimum 16"),
    _rule("oracle.m_dense-max", {"oracle": {"m_dense": "200001"}},
          "[oracle] m_dense = 200001 above allowed maximum 200000"),
    # numbers must be finite: the range checks cannot order nan, most have no top
    _rule("solver.tol-nan", {"solver": {"tol": "nan"}},
          "[solver] tol = 'nan' is not a finite number"),
    _rule("domain.radius-inf", {"domain": {**RULE_BASE["domain"], "radius": "inf"}},
          "[domain] radius = 'inf' is not a finite number"),
    _rule("mms.kappa0-inf", {"mms": {**RULE_BASE["mms"], "kappa0": "inf"}},
          "[mms] kappa0 = 'inf' is not a finite number", command="mms"),
    _rule("problem.beta-nan", {"problem": {**RULE_BASE["problem"], "beta": "nan"}},
          "[problem] beta = 'nan' is not a finite number"),
    _rule("problem.mu-minus-inf", {"problem": {**RULE_BASE["problem"], "mu": "-inf"}},
          "[problem] mu = '-inf' is not a finite number"),
    # numbers, integers, booleans and expressions that do not parse
    _rule("solver.tol-number", {"solver": {"tol": "small"}},
          "[solver] tol = 'small' is not a number"),
    *[_rule(f"problem.{key}-number", {"problem": {"psi": "1 + s", key: "abc"}},
            f"[problem] {key} = 'abc' is not a number")
      for key in ("beta", "mu", "beta_prime", "c_psi", "c_phi")],
    _rule("domain.a-number", {"domain": {**INTERVAL, "a": "left"}},
          "[domain] a = 'left' is not a number"),
    _rule("domain.m-integer", {"domain": {**INTERVAL, "m": "eight"}},
          "[domain] m = 'eight' is not a number"),
    _rule("oracle.m_dense-integer", {"oracle": {"m_dense": "1e3"}},
          "[oracle] m_dense = '1e3' is not a number"),
    _rule("solver.unsafe-boolean", {"solver": {"unsafe": "maybe"}},
          "[solver] unsafe = 'maybe' is not a boolean"),
    *[_rule(f"{section}.{key}-expression", {section: {**RULE_BASE[section], key: "1 +"}},
            f"[{section}] {key}: ")
      for section, key in (("problem", "psi"), ("problem", "phi"),
                           ("problem", "dpsi_ds"), ("problem", "dphi_ds"),
                           ("mms", "u_exact"))],
    *[_rule(f"metric.{key}-expression",
            {"metric": {"preset": "custom-expression", key: "1 +"}}, f"[metric] {key}: ")
      for key in ("gamma", "sigma_conformal")],
    # metric data without a symbolic chart gradient
    *[_rule(f"metric.{key}-{fn}-not-differentiable",
            {"metric": {"preset": "custom-expression", key: f"1 + {value}"}},
            f"[metric] expression error: {fn} is not differentiable in x1")
      for key, fn, value in (("gamma", "abs", "abs(x1)"),
                             ("sigma_conformal", "abs", "0.1*abs(x1)"),
                             ("sigma_conformal", "max", "0.1*max(x1, 0)"))],
    # an interval domain has x1 and r = |x1|, but no x2
    *[_rule(f"{section}.{key}-x2-on-interval",
            {"domain": INTERVAL, section: {**RULE_BASE[section], key: "1 + x2^2"}},
            f"[{section}] {key} uses x2, but an interval domain has only x1")
      for section, key in (("problem", "psi"), ("problem", "phi"),
                           ("problem", "dpsi_ds"), ("problem", "dphi_ds"),
                           ("mms", "u_exact"))],
    *[_rule(f"metric.{key}-x2-on-interval",
            {"domain": INTERVAL, "metric": {"preset": "custom-expression", key: "1 + x2^2"}},
            f"[metric] {key} uses x2, but an interval domain has only x1")
      for key in ("gamma", "sigma_conformal")],
    # a mesh file's dimension is known once it is read: the same rule for a 1D mesh
    *[_rule(f"problem.{key}-x2-on-1d-mesh-file",
            {"domain": MESH_1D, "problem": {**RULE_BASE["problem"], key: "1 + x2^2"}},
            f"[problem] {key} uses x2, but a 1D domain has only x1")
      for key in ("psi", "phi", "dpsi_ds", "dphi_ds")],
    *[_rule(f"metric.{key}-x2-on-1d-mesh-file",
            {"domain": MESH_1D, "metric": {"preset": "custom-expression", key: "1 + x2^2"}},
            f"[metric] {key} uses x2, but a 1D domain has only x1")
      for key in ("gamma", "sigma_conformal")],
    # [mms] levels and [output] formats
    _rule("mms.levels-integers", {"mms": {"u_exact": "1", "levels": "0,one"}},
          "[mms] levels must be comma-separated integers"),
    _rule("mms.levels-two", {"mms": {"u_exact": "1", "levels": "0"}},
          "[mms] levels needs at least two nonnegative entries"),
    _rule("mms.levels-nonnegative", {"mms": {"u_exact": "1", "levels": "0,-1"}},
          "[mms] levels needs at least two nonnegative entries"),
    _rule("mms.levels-distinct", {"mms": {"u_exact": "1", "levels": "0,1,0"}},
          "[mms] levels must be distinct"),
    _rule("output.formats", {"output": {"formats": "csv,xls"}},
          "[output] unknown formats ['xls']"),
    # [metric] presets
    _rule("metric.preset", {"metric": {"preset": "spherical"}},
          "[metric] preset must be one of"),
    _rule("metric.euclidean-gamma", {"metric": {"preset": "euclidean", "gamma": "1 + r^2"}},
          "[metric] euclidean preset admits no gamma/sigma data"),
    _rule("metric.euclidean-sigma",
          {"metric": {"preset": "euclidean", "sigma_conformal": "2"}},
          "[metric] euclidean preset admits no gamma/sigma data"),
    _rule("metric.default-euclidean-gamma", {"metric": {"gamma": "1 + r^2"}},
          "[metric] euclidean preset admits no gamma/sigma data"),
    _rule("metric.product-gamma", {"metric": {"preset": "product", "gamma": "1 + r^2"}},
          "[metric] the product preset fixes gamma = 1"),
    # [domain]: the section, the shape, each shape's required keys, a < b
    _rule("domain.section", {"domain": None}, "a [domain] section is required"),
    _rule("domain.shape", {"domain": {"shape": "square"}}, "[domain] shape must be"),
    _rule("domain.shape-missing", {"domain": _without(RULE_BASE["domain"], "shape")},
          "[domain] shape must be"),
    *[_rule(f"domain.{domain['shape']}-requires-{key}", {"domain": _without(domain, key)},
            f"[domain] {key} = '' is not a number")
      for domain in (RULE_BASE["domain"], ANNULUS, INTERVAL) for key in domain
      if key != "shape"],
    _rule("domain.mesh-file-requires-path", {"domain": {"shape": "mesh-file"}},
          "[domain] mesh-file requires path"),
    _rule("domain.a-below-b", {"domain": {**INTERVAL, "a": "1"}},
          "[domain] requires a < b"),
    # an interval whose squared width overflows, before any array is built
    *[_rule(f"domain.interval-width-{w}-{command}",
            {"domain": {**INTERVAL, "a": f"-{w}", "b": w, "m": "4"}, "mms": None},
            f"config error: interval width b - a = 2e+{w[-3:]} overflows when squared",
            command=command)
      for command, w in (("solve", "1e300"), ("oracle1d", "1e300"),
                         ("convergence", "1e300"), ("solve", "1e200"))],
    # unknown names and unreadable files
    _rule("unknown-key", {"solver": {"granularity": "1"}},
          "unknown key 'granularity' in section [solver]"),
    # the continuation's schedule and Newton budget are not settings
    *[_rule(f"unknown-key-solver.{key}", {"solver": {key: "1"}},
            f"unknown key '{key}' in section [solver]")
      for key in ("dtau", "dtau_min", "dtau_max", "max_newton")],
    _rule("unknown-section", {"run": {"seed": "3"}}, "unknown section [run]"),
    # what a command needs from the config
    _rule("command.psi", {"problem": None}, "[problem] psi is required for this command"),
    _rule("command.mms-u_exact", {"mms": None},
          "[mms] u_exact is required for the mms command", command="mms"),
    _rule("command.oracle1d-interval", {}, "oracle1d requires an interval domain",
          command="oracle1d"),
    # a refinement study cannot refine a mesh file, whatever its dimension
    *[_rule(f"command.{command}-mesh-file-{name}",
            {"domain": domain, "mms": mms},
            f"config error: {command} refines its domain, and a mesh-file domain "
            f"cannot be refined", command=command)
      for name, domain in (("1d", MESH_1D), ("2d", MESH_2D))
      for command, mms in (("mms", RULE_BASE["mms"]), ("convergence", {"levels": "0,1"}))],
    # every [domain] key present is parsed, and none the shape does not use
    _rule("domain.disk-parses-inner_radius", {"domain": {**RULE_BASE["domain"],
                                                         "inner_radius": "abc"}},
          "[domain] inner_radius = 'abc' is not a number"),
    _rule("domain.disk-rejects-inner_radius", {"domain": {**RULE_BASE["domain"],
                                                          "inner_radius": "0.5"}},
          "[domain] inner_radius does not apply to shape disk"),
    _rule("domain.disk-rejects-m", {"domain": {**RULE_BASE["domain"], "m": "3"}},
          "[domain] m does not apply to shape disk"),
    _rule("domain.interval-rejects-h", {"domain": {**INTERVAL, "h": "0.1"}},
          "[domain] h does not apply to shape interval"),
    # errors building the configured domain
    _rule("domain.h-at-least-radius", {"domain": {**RULE_BASE["domain"], "h": "1.5"}},
          "config error: need radius > 0 and 0 < h < radius"),
    _rule("domain.inner_radius-at-least-radius",
          {"domain": {**ANNULUS, "inner_radius": "1.5"}},
          "config error: need 0 < inner_radius < radius"),
    _rule("domain.vertex-budget", {"domain": {**RULE_BASE["domain"], "h": "0.001"}},
          "config error: edge length 0.001 needs"),
    _rule("domain.annulus-vertex-budget", {"domain": {**ANNULUS, "h": "1e-9"}},
          "config error: edge length 1e-09 needs"),
    # a ring count too large for an int: the budget check comes first
    _rule("domain.disk-radius-overflow",
          {"domain": {**RULE_BASE["domain"], "radius": "1e300", "h": "1e-12"}},
          "config error: edge length 1e-12 needs"),
    _rule("domain.annulus-radius-overflow",
          {"domain": {**ANNULUS, "radius": "1e300", "h": "1e-12"}},
          "config error: edge length 1e-12 needs"),
    _rule("domain.mesh-file-missing",
          {"domain": {"shape": "mesh-file", "path": "{tmp}/absent.txt"}},
          "config error: cannot read mesh file"),
    _rule("domain.mesh-file-malformed",
          {"domain": {"shape": "mesh-file", "path": "{tmp}/garbage.txt"}},
          "config error: expected DIM section"),
    _rule("domain.mesh-file-truncated",
          {"domain": {"shape": "mesh-file", "path": "{tmp}/truncated.txt"}},
          "config error: malformed mesh file"),
    # a vertex id past the last vertex, and one that would index from the end
    _rule("domain.mesh-file-vertex-id-7",
          {"domain": {"shape": "mesh-file", "path": "{tmp}/square7.txt"}},
          "config error: cell vertex id 7 outside [0, 4)"),
    _rule("domain.mesh-file-vertex-id-negative",
          {"domain": {"shape": "mesh-file", "path": "{tmp}/square-1.txt"}},
          "config error: cell vertex id -1 outside [0, 4)"),
    # rows of the wrong width: x y z vertex rows on an odd (53) and an even (44)
    # vertex count, a cell row of four ids, a boundary row of one id
    *[_rule(f"domain.mesh-file-xyz-{nv}",
            {"domain": {"shape": "mesh-file", "path": f"{{tmp}}/xyz{nv}.txt"}},
            "vertex row 1 has 3 entries, DIM 2 needs 2")
      for nv in (53, 44)],
    _rule("domain.mesh-file-cell-row",
          {"domain": {"shape": "mesh-file", "path": "{tmp}/square-cell.txt"}},
          "cell row 2 has 4 entries, DIM 2 needs 3"),
    _rule("domain.mesh-file-boundary-row",
          {"domain": {"shape": "mesh-file", "path": "{tmp}/square-boundary.txt"}},
          "boundary row 3 has 1 entries, DIM 2 needs 2 or 3"),
]


@pytest.mark.parametrize("command,mms", [
    ("mms", "u_exact = sqrt(4 - r^2)"),
    ("convergence", ""),          # no u_exact: the certificate suite
])
def test_refinement_study_builds_each_level_once(tmp_path, monkeypatch, command, mms):
    levels = []
    build = DomainSpec.build

    def counted(self, level=0):
        levels.append(level)
        return build(self, level)

    monkeypatch.setattr(DomainSpec, "build", counted)
    text = (DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out")
            + f"\n[mms]\n{mms}\nlevels = 0,1,2\n")
    assert run_command([command, "--config", write_cfg(tmp_path, "study.cfg", text)]) == 0
    assert levels == [0, 1, 2]


@pytest.mark.parametrize("command,sections,message", CONFIG_RULES)
def test_config_rule_exits_2(tmp_path, capsys, command, sections, message):
    (tmp_path / "garbage.txt").write_text("hello mesh\n")
    (tmp_path / "truncated.txt").write_text("DIM 2\nVERTICES 3\n0 0\n1 0\n")
    for bad in ("7", "-1"):
        (tmp_path / f"square{bad}.txt").write_text(SQUARE_FILE.format(c=bad))
    write_mesh(generate_interval_mesh(0.0, 1.0, 8), tmp_path / "interval.txt")
    write_mesh(generate_disk_mesh(1.0, 0.2), tmp_path / "disk.txt")
    square = SQUARE_FILE.format(c=3)
    (tmp_path / "square-cell.txt").write_text(square.replace("0 2 3\n", "0 2 3 1\n", 1))
    (tmp_path / "square-boundary.txt").write_text(square.replace("2 3\n3 0", "2\n3 0"))
    for h, nv in ((0.25, 53), (0.3, 44)):
        write_mesh(generate_disk_mesh(1.0, h, inner_radius=0.4), tmp_path / "xyz.txt")
        lines = (tmp_path / "xyz.txt").read_text().split("\n")
        lines[2:2 + nv] = [f"{line} 0.0" for line in lines[2:2 + nv]]
        (tmp_path / f"xyz{nv}.txt").write_text("\n".join(lines))
    config = {**RULE_BASE, **sections, "output": {"dir": str(tmp_path / "out"),
                                                  **sections.get("output", {})}}
    lines = []
    for name, body in config.items():
        if body is not None:
            lines.append(f"[{name}]")
            lines += [f"{key} = {value.format(tmp=tmp_path)}" for key, value in body.items()]
    path = write_cfg(tmp_path, "rule.cfg", "\n".join(lines) + "\n")
    assert run_command([command, "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    load_config(path)


@pytest.mark.parametrize("name", ["disk_capillary", "forced_zero", "hyperbolic_warp",
                                  "annulus_capillary", "interval_conformal"])
def test_shipped_solve_config_certifies_everything(name, tmp_path, caplog):
    path = SHIPPED_CONFIGS[0].parent / f"{name}.cfg"
    with caplog.at_level(logging.WARNING, logger="capgraph"):
        assert run_command(["solve", "--config", str(path),
                            "--output-dir", str(tmp_path)]) == 0
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert skipped == []


def test_cone_point_conformal_factor(tmp_path, caplog, capsys):
    # c = 1 + 0.2 r has no gradient at the disk's centre vertex: the
    # residual estimator needs none, so a solve certifies everything, but
    # manufactured data cannot be made
    text = DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out").replace(
        "preset = euclidean", "preset = custom-expression\nsigma_conformal = 1 + 0.2*r")
    cfg = write_cfg(tmp_path, "cone.cfg", text + "\n[mms]\nu_exact = sqrt(4 - r^2)\n")
    with caplog.at_level(logging.WARNING, logger="capgraph"):
        assert run_command(["solve", "--config", cfg]) == 0
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert skipped == []
    assert "certificate strong-form-residual: observed=" in capsys.readouterr().out
    assert run_command(["mms", "--config", cfg]) == 1
    assert "division by zero" in capsys.readouterr().err


def test_cone_point_warping_names_its_gradient(tmp_path, capsys):
    # gamma = 1 + 0.2 r has no gradient at the centre vertex: validation fails
    # naming the datum, the derivative and the point
    text = DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out").replace(
        "preset = euclidean", "preset = custom-expression\ngamma = 1 + 0.2*r")
    assert run_command(["solve", "--config", write_cfg(tmp_path, "cone.cfg", text)]) == 1
    err = capsys.readouterr().err
    assert "gamma: d/dx1 = 0.2*x1/r: division by zero at x = (0.0, 0.0)" in err


def test_missing_config_exits_2(tmp_path):
    assert run_command(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_invalid_conditions_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="sin(s)", phi="0", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 1
    assert "structural conditions" in capsys.readouterr().err


def test_mms_command(tmp_path, capsys):
    text = DISK_CFG.format(psi="s", phi="0", out=tmp_path / "out") + (
        "\n[mms]\nu_exact = sqrt(4 - r^2)\nlevels = 0,1\n")
    cfg = write_cfg(tmp_path, "run.cfg", text)
    assert run_command(["mms", "--config", cfg]) == 0
    out = capsys.readouterr().out
    order = float(out.split("error=")[1].split()[0])
    assert order > 1.5
    table = (tmp_path / "out" / "mms_table.csv").read_text().splitlines()
    assert table[0] == "h,error,angle_residual,strong_residual"
    assert len(table) == 3


def test_oracle1d_command(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg", INTERVAL_CFG.format(out=tmp_path / "out"))
    assert run_command(["oracle1d", "--config", cfg]) == 0


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    built = []

    def counting_parser(*args, **kwargs):
        built.append(kwargs.get("prog"))
        return argparse.ArgumentParser(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=counting_parser))
    argv = ["oracle1d", "--config",
            write_cfg(tmp_path, "run.cfg", INTERVAL_CFG.format(out=tmp_path / "out"))]
    assert run_command(argv) == 0
    first = capsys.readouterr().out
    # a usage error between two valid runs leaves nothing behind in the parser
    assert run_command(["oracle1d"]) == 2
    assert "--config" in capsys.readouterr().err
    assert run_command(["solve", "--config", argv[2], "--format", "csv"]) == 2
    assert run_command(argv) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("sup|u_fem - u_oracle| = ")
    # none at all when an earlier call in this process built it
    assert len(built) <= 1


def test_import_loads_only_the_scipy_it_uses():
    # a fresh interpreter: this test process may hold scipy.spatial already
    code = textwrap.dedent("""
        import json, sys
        import capgraph, capgraph.cli
        deferred = ("scipy.spatial", "scipy.special", "scipy.sparse.csgraph")
        print(json.dumps([m for m in deferred if m in sys.modules]))
        from capgraph import (MetricField, boundary_distance_field,
                              generate_disk_mesh, mms_manufacture)
        metric, mesh = MetricField.euclidean(2), generate_disk_mesh(1.0, 0.25)
        mms_manufacture(metric, mesh, "sqrt(4 - r^2)")
        boundary_distance_field(mesh, metric)
        print(json.dumps([m for m in deferred if m in sys.modules]))
    """)
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, after_use = (json.loads(line) for line in proc.stdout.splitlines())
    assert at_import == []
    assert {"scipy.spatial", "scipy.sparse.csgraph"} <= set(after_use)


def test_convergence_command(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg", INTERVAL_CFG.format(out=tmp_path / "out"))
    assert run_command(["convergence", "--config", cfg]) == 0
    report = read_report(tmp_path / "out" / "report.jsonl")
    names = {r["name"] for r in report}
    assert "contact-angle-residual" in names
    assert all(not r["provisional"] for r in report)


def test_convergence_honours_unsafe(tmp_path, capsys):
    # phi grows with s, so the structural conditions fail; unsafe runs anyway
    text = DISK_CFG.format(psi="1 + s", phi="0.3 + 0.01*s", out=tmp_path / "out").replace(
        "tol = 1e-10", "tol = 1e-10\nunsafe = true") + "\n[mms]\nlevels = 0,1\n"
    cfg = write_cfg(tmp_path, "run.cfg", text)
    assert run_command(["convergence", "--config", cfg]) == 0
    assert "structural conditions" not in capsys.readouterr().err
    names = {r["name"] for r in read_report(tmp_path / "out" / "report.jsonl")}
    assert "interior-gradient" in names


def test_interval_expressions_may_use_r(tmp_path):
    text = INTERVAL_CFG.format(out=tmp_path / "out").replace("psi = 1 + s",
                                                             "psi = 1 + s + 0.1*r")
    assert load_config(write_cfg(tmp_path, "run.cfg", text)).problem["psi"].endswith("r")


@pytest.mark.parametrize("cause,message", [
    ("missing", "cannot read stored solution"),
    ("not-numbers", "cannot read stored solution"),
    ("no-u-column", "has no column 'u'"),
    ("non-finite-u", "has non-finite u values"),
    ("other-mesh", "was not written on the configured mesh"),
])
def test_stored_solution_errors_exit_2(tmp_path, capsys, cause, message):
    text = INTERVAL_CFG.format(out=tmp_path / "out")
    cfg = write_cfg(tmp_path, "run.cfg", text)
    assert run_command(["solve", "--config", cfg]) == 0
    path = tmp_path / "out" / "solution.csv"
    if cause == "missing":
        path.unlink()
    elif cause == "not-numbers":
        path.write_text("vertex_id,x1,u\n0,left,1\n")
    elif cause == "no-u-column":
        path.write_text(path.read_text().replace(",u,", ",v,", 1))
    elif cause == "non-finite-u":
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[2] = "nan"                              # vertex_id,x1,u,...
        path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    else:
        # the same vertex count on (0, 2) instead of (0, 1)
        cfg = write_cfg(tmp_path, "other.cfg", text.replace("b = 1", "b = 2"))
    capsys.readouterr()
    for command in ("verify", "export"):
        assert run_command([command, "--config", cfg, "--solution", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_export_vtk(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="s", phi="0", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    assert run_command(["export", "--config", cfg, "--format", "vtk"]) == 0
    assert (tmp_path / "out" / "solution.vtk").read_text().startswith("# vtk")


def test_mesh_file_domain_round_trip(tmp_path):
    import capgraph as cg
    from capgraph.meshing import write_mesh

    mesh = cg.generate_disk_mesh(1.0, 0.2, inner_radius=0.5)
    write_mesh(mesh, tmp_path / "ann.txt")
    cfg = write_cfg(tmp_path, "run.cfg", f"""
[domain]
shape = mesh-file
path = {tmp_path / 'ann.txt'}

[problem]
psi = 1 + s
phi = 0.2

[output]
dir = {tmp_path / 'out'}
""")
    assert run_command(["solve", "--config", cfg]) == 0
    assert run_command(["verify", "--config", cfg]) == 0


def test_interval_solve_csv_schema(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg", INTERVAL_CFG.format(out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    data = read_solution_csv(tmp_path / "out" / "solution.csv")
    assert set(data) == {"vertex_id", "x1", "u", "W", "d_gamma_boundary"}


def test_annulus_config_requires_inner_radius(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.cfg", """
[domain]
shape = annulus
radius = 1.0
h = 0.2

[problem]
psi = 1 + s
""")
    assert run_command(["solve", "--config", cfg]) == 2
    assert "inner_radius" in capsys.readouterr().err


def test_missing_psi_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.cfg", """
[domain]
shape = disk
radius = 1.0
h = 0.2
""")
    assert run_command(["solve", "--config", cfg]) == 2
    assert "psi" in capsys.readouterr().err


def test_export_mesh_format(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="s", phi="0", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    assert run_command(["export", "--config", cfg, "--format", "mesh"]) == 0
    assert (tmp_path / "out" / "mesh.txt").read_text().startswith("DIM 2")


def test_export_mesh_computes_no_nodal_fields(tmp_path, monkeypatch):
    import capgraph.cli as cli

    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="s", phi="0", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    before = (tmp_path / "out" / "mesh.txt").read_bytes()
    (tmp_path / "out" / "mesh.txt").unlink()
    calls = []
    for name in ("vertex_slope_factors", "boundary_distance_field"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    assert run_command(["export", "--config", cfg, "--format", "mesh"]) == 0
    assert calls == []
    assert (tmp_path / "out" / "mesh.txt").read_bytes() == before


def _attempts(outdir):
    return [json.loads(line)
            for line in (outdir / "continuation.jsonl").read_text().splitlines()]


def test_continuation_file_records_each_attempt(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg",
                    DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out"))
    assert run_command(["solve", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "continuation.jsonl").read_text().splitlines()
    assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)
    first, full = (json.loads(line) for line in lines)
    assert set(full) == {"tau", "dtau", "accepted", "cause", "newton_iterations",
                         "residual_norm", "damping_factors", "residual_history",
                         "backward_errors", "linear_solves", "pcg_iterations"}
    assert (first["tau"], first["newton_iterations"]) == (0.0, 0)
    assert (full["tau"], full["dtau"], full["accepted"], full["cause"]) == (1.0, 1.0, True, None)
    n = full["newton_iterations"]
    assert len(full["damping_factors"]) == len(full["backward_errors"]) == n > 0
    assert full["linear_solves"] == ["factor"] + ["pcg"] * (n - 1)
    assert len(full["pcg_iterations"]) == n
    assert len(full["residual_history"]) == n + 1
    assert full["residual_history"][-1] == full["residual_norm"] <= 1e-10


def test_solve_stall_names_its_cause(tmp_path, capsys):
    text = DISK_CFG.format(psi="1", phi="0", out=tmp_path / "out").replace(
        "tol = 1e-10", "tol = 1e-10\nunsafe = true")
    assert run_command(["solve", "--config", write_cfg(tmp_path, "run.cfg", text)]) == 1
    captured = capsys.readouterr()
    assert "status=stalled tau=0.000000 steps=1 " in captured.out
    stall = [line for line in captured.err.splitlines() if "stalled" in line]
    assert stall == [line for line in stall
                     if line.startswith("continuation stalled at tau=0.000000: step "
                                        "dtau=0.0001221 to tau=0.000122 rejected "
                                        "(SingularJacobian: ")]
    assert len(stall) == 1
    attempts = _attempts(tmp_path / "out")
    assert attempts[1]["tau"] == 1.0 and not attempts[1]["accepted"]
    assert all(a["cause"].startswith("SingularJacobian: ") for a in attempts[1:])
    # u = 0 at tau = 0 solves nothing that was asked for: it gets no certificate
    assert not [line for line in captured.out.splitlines()
                if line.startswith("certificate ")]
    assert read_report(tmp_path / "out" / "report.jsonl") == []


def test_oracle1d_stall_names_its_cause(tmp_path, capsys):
    text = INTERVAL_CFG.format(out=tmp_path / "out").replace(
        "psi = 1 + s", "psi = 1") + "\n[solver]\nunsafe = true\n"
    assert run_command(["oracle1d", "--config", write_cfg(tmp_path, "run.cfg", text)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("continuation stalled at tau=0.000000: step dtau=")
    assert "(SingularJacobian: " in err[0]


@pytest.mark.parametrize("command", ["solve", "oracle1d"])
@pytest.mark.parametrize("key,name", [("gamma", "gamma"),
                                      ("sigma_conformal", "sigma conformal factor")],
                         ids=["gamma", "sigma_conformal"])
def test_non_finite_metric_names_its_cause(tmp_path, capsys, command, key, name):
    # exp(800 x1) overflows to inf past x1 = 0.89: an error about the metric,
    # not a singular Jacobian or a non-finite residual, and no overflow warning
    text = (INTERVAL_CFG.format(out=tmp_path / "out")
            + f"\n[metric]\npreset = custom-expression\n{key} = exp(800*x1)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command([command, "--config", write_cfg(tmp_path, "run.cfg", text)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name} must be finite and positive"]


def test_mms_stall_names_its_cause(tmp_path, capsys, monkeypatch):
    # one Newton iteration never meets a tolerance of 1e-16
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    text = DISK_CFG.format(psi="s", phi="0", out=tmp_path / "out").replace(
        "tol = 1e-10", "tol = 1e-16") + (
        "\n[mms]\nu_exact = sqrt(4 - r^2)\nlevels = 0,1\n")
    assert run_command(["mms", "--config", write_cfg(tmp_path, "run.cfg", text)]) == 1
    err = capsys.readouterr().err
    assert ("solver failure: manufactured solve at level 0: continuation stalled at "
            "tau=0.000000: step dtau=") in err
    assert "(MaxIterationsExceeded: residual " in err


def _old_solution_csv(mesh, u, w, d_gamma):
    cols = ["vertex_id", "x1"] + (["x2"] if mesh.dim == 2 else [])
    cols += ["u", "W", "d_gamma_boundary"]
    lines = [",".join(cols)]
    for i in range(mesh.num_vertices):
        row = [str(i)] + [repr(float(c)) for c in mesh.vertices[i]]
        row += [repr(float(u[i])), repr(float(w[i])), repr(float(d_gamma[i]))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _old_mesh(mesh):
    lines = [f"DIM {mesh.dim}", f"VERTICES {mesh.num_vertices}"]
    lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
    lines.append(f"CELLS {mesh.num_cells}")
    lines += [" ".join(str(i) for i in c) for c in mesh.cells]
    lines.append(f"BOUNDARY {len(mesh.boundary_facets)}")
    lines += [" ".join(str(i) for i in f) + f" {t}"
              for f, t in zip(mesh.boundary_facets, mesh.boundary_tags)]
    return "\n".join(lines) + "\n"


def _old_vtk(mesh, point_data):
    pts = np.zeros((mesh.num_vertices, 3))
    pts[:, :mesh.dim] = mesh.vertices
    nc, npc = mesh.num_cells, mesh.dim + 1
    out = ["# vtk DataFile Version 3.0", "capgraph export", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.num_vertices} double"]
    out += [" ".join(repr(float(x)) for x in p) for p in pts]
    out.append(f"CELLS {nc} {nc * (npc + 1)}")
    out += [f"{npc} " + " ".join(str(i) for i in c) for c in mesh.cells]
    out.append(f"CELL_TYPES {nc}")
    out += [str(3 if mesh.dim == 1 else 5)] * nc
    out.append(f"POINT_DATA {mesh.num_vertices}")
    for name, values in point_data.items():
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out += [repr(float(v)) for v in np.asarray(values).ravel()]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("dim", [1, 2])
def test_writers_match_the_per_value_loops(tmp_path, dim):
    import capgraph as cg
    from capgraph.cli import write_solution_csv
    from capgraph.meshing import shared_text, write_mesh, write_vtk

    meshes = ([cg.generate_interval_mesh(-0.3, 1.7, 40)] if dim == 1
              else [cg.generate_disk_mesh(1.0, 0.3),
                    cg.generate_disk_mesh(1.0, 0.2, inner_radius=0.4)])
    for k, mesh in enumerate(meshes):
        rng = np.random.default_rng(10 * dim + k)
        nv = mesh.num_vertices
        u = rng.standard_normal(nv) * 10.0 ** rng.integers(-20, 20, nv)
        u[:3] = [0.0, -0.0, 1e-300]
        w = 1.0 + rng.uniform(size=nv)
        d_gamma = rng.uniform(size=nv)
        point_data = {"u": u, "W": w, "d_gamma_boundary": d_gamma}
        expected = {"s.csv": _old_solution_csv(mesh, u, w, d_gamma),
                    "m.txt": _old_mesh(mesh), "s.vtk": _old_vtk(mesh, point_data)}
        # each writer alone, then all three sharing one set of text sections
        for scope in (contextlib.nullcontext(), shared_text(mesh)):
            with scope:
                write_solution_csv(tmp_path / "s.csv", mesh, u, w, d_gamma)
                write_mesh(mesh, tmp_path / "m.txt")
                write_vtk(mesh, tmp_path / "s.vtk", point_data=point_data)
            for name, text in expected.items():
                assert (tmp_path / name).read_text() == text, (k, name)


def test_solve_and_export_write_the_per_value_text(tmp_path):
    # the text of every written value is its own repr, in each file, on two
    # boundary components
    cfg = write_cfg(tmp_path, "run.cfg", (
        DISK_CFG.format(psi="1 + s", phi="0.3", out=tmp_path / "out")
        .replace("shape = disk", "shape = annulus\ninner_radius = 0.4")))
    assert run_command(["solve", "--config", cfg]) == 0
    out = tmp_path / "out"
    mesh = load_config(cfg).build_domain().build()
    data = read_solution_csv(out / "solution.csv")
    fields = (data["u"], data["W"], data["d_gamma_boundary"])
    assert (out / "solution.csv").read_text() == _old_solution_csv(mesh, *fields)
    assert (out / "mesh.txt").read_text() == _old_mesh(mesh)
    vtk = _old_vtk(mesh, dict(zip(("u", "W", "d_gamma_boundary"), fields)))
    assert (out / "solution.vtk").read_text() == vtk
    stored = tmp_path / "stored.csv"
    stored.write_text((out / "solution.csv").read_text())
    for fmt, name in (("vtk", "solution.vtk"), ("mesh", "mesh.txt"), ("csv", "solution.csv")):
        before = (out / name).read_text()
        (out / name).unlink()
        assert run_command(["export", "--config", cfg, "--format", fmt,
                            "--solution", str(stored)]) == 0
        assert (out / name).read_text() == before


def test_the_strong_certificate_fits_no_patch_and_reads_the_cached_metric(
        tmp_path, monkeypatch):
    # `capgraph solve` and `capgraph verify` on a conformal, warped leaf: no
    # patch fit or QR anywhere, and the residual estimator evaluates the
    # metric only through the assembly context, once per mesh and metric
    from capgraph import assembly, geometry
    from capgraph import verify as vf
    from capgraph.geometry import MetricField

    fits = []
    qr = np.linalg.qr
    monkeypatch.setattr(geometry, "_patch_derivatives", lambda *a: fits.append("patch"))
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: fits.append("qr") or qr(*a, **k))
    evaluations = []
    for name in ("conformal", "gamma", "grad_conformal", "grad_gamma", "_jet"):
        def spy(self, x, _original=getattr(MetricField, name), _name=name):
            evaluations.append(_name)
            return _original(self, x)
        monkeypatch.setattr(MetricField, name, spy)
    inside = []
    strong = vf.strong_form_residual

    def counted(*args):
        before = len(evaluations)
        cert = strong(*args)
        inside.append(evaluations[before:])
        return cert
    monkeypatch.setattr(vf, "strong_form_residual", counted)

    cfg = str(SHIPPED_CONFIGS[0].parent / "hyperbolic_warp.cfg")
    assert run_command(["solve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    assert run_command(["verify", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    # a context built afresh evaluates what `verify`'s certificate evaluates
    evaluations.clear()
    cfg = load_config(cfg)
    mesh = cfg.build_domain().build()
    assembly._Context(mesh, cfg.build_metric(2))
    assert fits == []
    assert inside == [[], evaluations] and evaluations


@pytest.mark.parametrize("command,metric,parses", [
    ("oracle1d", "preset = radial-warp\ngamma = exp(2*x1)",
     ["1 + s", "0.2", "exp(2*x1)", "1"]),
    ("solve", "preset = custom-expression\ngamma = exp(2*x1)\nsigma_conformal = 1 + 0.5*x1",
     ["1 + s", "0.2", "exp(2*x1)", "1 + 0.5*x1"]),
], ids=["oracle1d", "solve"])
def test_each_config_expression_is_parsed_once(tmp_path, monkeypatch, command, metric,
                                               parses):
    # the conformal factor 1 that the oracle1d config leaves out is parsed once too
    from capgraph import expressions
    parsed, init = [], expressions._Parser.__init__

    def spy(self, text):
        parsed.append(text)
        init(self, text)
    monkeypatch.setattr(expressions._Parser, "__init__", spy)
    text = INTERVAL_CFG.format(out=tmp_path / "out") + f"\n[metric]\n{metric}\n"
    assert run_command([command, "--config", write_cfg(tmp_path, "run.cfg", text)]) == 0
    assert sorted(parsed) == sorted(parses)
