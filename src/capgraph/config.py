"""Strict INI-style run configuration.

Sections: [metric] [domain] [problem] [solver] [output] [mms] [oracle].
Unknown sections or keys fail fast; numeric parameters are range-checked at
load time.  Expressions (gamma, sigma_conformal, psi, phi, u_exact) use the
grammar documented in `capgraph.expressions`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .expressions import ExpressionError, parse_expression
from .geometry import MetricField
from .meshing import DomainSpec
from .problem import CapillaryProblem
from .solver import ContinuationConfig

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "metric": {"preset", "gamma", "sigma_conformal"},
    "domain": {"shape", "radius", "inner_radius", "h", "a", "b", "m", "path"},
    "problem": {"psi", "phi", "dpsi_ds", "dphi_ds",
                "beta", "mu", "beta_prime", "c_psi", "c_phi"},
    "solver": {"tol", "max_newton", "dtau", "dtau_min", "dtau_max", "unsafe"},
    "output": {"dir", "formats"},
    "mms": {"u_exact", "kappa0", "levels"},
    "oracle": {"m_dense"},
}
_FORMATS = {"csv", "vtk", "report", "mesh"}
_PRESETS = {"euclidean", "product", "radial-warp", "custom-expression"}


@dataclass
class RunConfig:
    """Validated run configuration; build_* methods construct live objects."""

    metric: dict = field(default_factory=dict)
    domain: dict = field(default_factory=dict)
    problem: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    mms: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    @property
    def dim(self):
        return 1 if self.domain["shape"] == "interval" else 2

    def build_domain(self):
        shape = self.domain["shape"]
        if shape == "interval":
            return DomainSpec("interval", {k: self.domain[k] for k in ("a", "b", "m")})
        if shape == "disk":
            return DomainSpec("disk", {k: self.domain[k] for k in ("radius", "h")})
        if shape == "annulus":
            return DomainSpec("annulus",
                              {k: self.domain[k] for k in ("radius", "inner_radius", "h")})
        return DomainSpec("mesh-file", {"path": self.domain["path"]})

    def build_metric(self, dim=None):
        dim = self.dim if dim is None else dim
        preset = self.metric.get("preset", "euclidean")
        if preset == "euclidean":
            return MetricField.euclidean(dim)
        return MetricField.from_expressions(
            dim, gamma=self.metric.get("gamma", "1"),
            sigma_conformal=self.metric.get("sigma_conformal", "1"),
            preset=preset)

    def build_problem(self, dim=None):
        if "psi" not in self.problem:
            raise ConfigError("[problem] psi is required for this command")
        dim = self.dim if dim is None else dim
        kwargs = {k: self.problem[k]
                  for k in ("beta", "mu", "beta_prime", "c_psi", "c_phi")
                  if k in self.problem}
        try:
            return CapillaryProblem.from_expressions(
                dim, self.problem["psi"], self.problem.get("phi", "0"),
                dpsi_ds=self.problem.get("dpsi_ds"),
                dphi_ds=self.problem.get("dphi_ds"), **kwargs)
        except ExpressionError as exc:
            raise ConfigError(f"[problem] expression error: {exc}") from exc

    def build_solver_cfg(self):
        keys = ("tol", "max_newton", "dtau", "dtau_min", "dtau_max")
        return ContinuationConfig(**{k: self.solver[k] for k in keys if k in self.solver})

    @property
    def unsafe(self):
        return bool(self.solver.get("unsafe", False))

    @property
    def output_dir(self):
        return Path(self.output.get("dir", "out"))

    @property
    def formats(self):
        raw = self.output.get("formats", "csv,report")
        return [f.strip() for f in raw.split(",") if f.strip()]


def _number(section, key, raw, lo=None, hi=None, integer=False):
    try:
        value = int(raw) if integer else float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if lo is not None and value < lo:
        raise ConfigError(f"[{section}] {key} = {value} below allowed minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"[{section}] {key} = {value} above allowed maximum {hi}")
    return value


def _boolean(section, key, raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


def _expression(section, key, raw):
    try:
        parse_expression(raw)
    except ExpressionError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return raw


def load_config(path):
    """Parse and validate a config file; raises `ConfigError` on any defect."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if parser.has_section("metric"):
        m = parser["metric"]
        preset = m.get("preset", "euclidean")
        if preset not in _PRESETS:
            raise ConfigError(f"[metric] preset must be one of {sorted(_PRESETS)}")
        cfg.metric["preset"] = preset
        for key in ("gamma", "sigma_conformal"):
            if key in m:
                cfg.metric[key] = _expression("metric", key, m[key])
        if preset == "euclidean" and (cfg.metric.get("gamma", "1") != "1"
                                      or cfg.metric.get("sigma_conformal", "1") != "1"):
            raise ConfigError("[metric] euclidean preset admits no gamma/sigma data")
        if preset == "product" and cfg.metric.get("gamma", "1") != "1":
            raise ConfigError("[metric] the product preset fixes gamma = 1; "
                              "use radial-warp or custom-expression")

    if not parser.has_section("domain"):
        raise ConfigError("a [domain] section is required")
    d = parser["domain"]
    shape = d.get("shape")
    if shape not in ("disk", "annulus", "interval", "mesh-file"):
        raise ConfigError("[domain] shape must be disk, annulus, interval or mesh-file")
    cfg.domain["shape"] = shape
    if shape in ("disk", "annulus"):
        cfg.domain["radius"] = _number("domain", "radius", d.get("radius", ""), lo=1e-12)
        cfg.domain["h"] = _number("domain", "h", d.get("h", ""), lo=1e-12)
        if shape == "annulus":
            cfg.domain["inner_radius"] = _number(
                "domain", "inner_radius", d.get("inner_radius", ""), lo=1e-12)
    elif shape == "interval":
        cfg.domain["a"] = _number("domain", "a", d.get("a", ""))
        cfg.domain["b"] = _number("domain", "b", d.get("b", ""))
        if cfg.domain["a"] >= cfg.domain["b"]:
            raise ConfigError("[domain] requires a < b")
        cfg.domain["m"] = int(_number("domain", "m", d.get("m", ""), lo=2, integer=True))
    else:
        if "path" not in d:
            raise ConfigError("[domain] mesh-file requires path")
        cfg.domain["path"] = d["path"]

    if parser.has_section("problem"):
        p = parser["problem"]
        for key in ("psi", "phi", "dpsi_ds", "dphi_ds"):
            if key in p:
                cfg.problem[key] = _expression("problem", key, p[key])
        for key in ("beta", "mu", "beta_prime", "c_psi", "c_phi"):
            if key in p:
                cfg.problem[key] = _number("problem", key, p[key])

    if parser.has_section("solver"):
        s = parser["solver"]
        if "tol" in s:
            cfg.solver["tol"] = _number("solver", "tol", s["tol"], lo=1e-16, hi=1.0)
        if "max_newton" in s:
            cfg.solver["max_newton"] = int(_number("solver", "max_newton",
                                                   s["max_newton"], lo=1, integer=True))
        if "dtau" in s:
            cfg.solver["dtau"] = _number("solver", "dtau", s["dtau"], lo=1e-6, hi=1.0)
        if "dtau_min" in s:
            cfg.solver["dtau_min"] = _number("solver", "dtau_min", s["dtau_min"],
                                             lo=1e-12, hi=1.0)
        if "dtau_max" in s:
            cfg.solver["dtau_max"] = _number("solver", "dtau_max", s["dtau_max"],
                                             lo=1e-6, hi=1.0)
        if "unsafe" in s:
            cfg.solver["unsafe"] = _boolean("solver", "unsafe", s["unsafe"])
        dmax = cfg.solver.get("dtau_max", ContinuationConfig.dtau_max)
        if cfg.solver.get("dtau", dmax) > dmax:
            raise ConfigError("[solver] dtau must not exceed dtau_max")

    if parser.has_section("output"):
        o = parser["output"]
        if "dir" in o:
            cfg.output["dir"] = o["dir"]
        if "formats" in o:
            formats = [f.strip() for f in o["formats"].split(",") if f.strip()]
            bad = set(formats) - _FORMATS
            if bad:
                raise ConfigError(f"[output] unknown formats {sorted(bad)}")
            cfg.output["formats"] = ",".join(formats)

    if parser.has_section("mms"):
        mm = parser["mms"]
        if "u_exact" in mm:
            cfg.mms["u_exact"] = _expression("mms", "u_exact", mm["u_exact"])
        if "kappa0" in mm:
            cfg.mms["kappa0"] = _number("mms", "kappa0", mm["kappa0"], lo=1e-12)
        if "levels" in mm:
            try:
                levels = tuple(int(t) for t in mm["levels"].split(","))
            except ValueError as exc:
                raise ConfigError("[mms] levels must be comma-separated integers") from exc
            if len(levels) < 2 or any(l < 0 for l in levels):
                raise ConfigError("[mms] levels needs at least two nonnegative entries")
            cfg.mms["levels"] = levels

    if parser.has_section("oracle"):
        cfg.oracle["m_dense"] = int(_number("oracle", "m_dense",
                                            parser["oracle"].get("m_dense", "4096"),
                                            lo=16, integer=True))
    return cfg
