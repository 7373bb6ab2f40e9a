"""Strict INI-style run configuration.

Sections: [metric] [domain] [problem] [solver] [output] [mms] [oracle].
`_SCHEMA` is the one table of settings: it maps each key of each section to
the parser that checks its value at load time (a number within its range,
an integer, a boolean, an expression, a choice, the output formats or the
mms levels), and `_SHAPES` maps each [domain] shape to the keys it requires.
Every key present is parsed; unknown sections and keys, [domain] keys that
the shape does not use, and expressions that use x2 on an interval fail
fast.  A mesh file's dimension is known only once it is read, so
`build_metric` and `build_problem` take the dimension of the built mesh and
apply the x2 rule to a 1D mesh.  Numbers must be finite.  An expression's
value is its text, which keeps the tree that validated it, so the `build_*`
methods parse nothing again.

Every [metric] preset builds the metric from the expressions gamma and
sigma_conformal (both 1 by default); a preset only checks them:
"euclidean" (the default, the flat metric) admits no value but 1, and
"product" requires gamma = 1.  Expressions (gamma, sigma_conformal, psi,
phi, dpsi_ds, dphi_ds, u_exact) use the grammar documented in
`capgraph.expressions`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .expressions import ExpressionError, _tokenize, parse_expression
from .geometry import MetricField
from .meshing import MAX_VERTICES, DomainSpec
from .problem import CapillaryProblem
from .solver import ContinuationConfig

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    pass


def _number(lo=None, hi=None, integer=False):
    def parse(section, key, raw):
        try:
            value = int(raw) if integer else float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a finite number")
        if lo is not None and value < lo:
            raise ConfigError(f"[{section}] {key} = {value} below allowed minimum {lo}")
        if hi is not None and value > hi:
            raise ConfigError(f"[{section}] {key} = {value} above allowed maximum {hi}")
        return value
    return parse


def _choice(options):
    def parse(section, key, raw):
        if raw not in options:
            raise ConfigError(f"[{section}] {key} must be one of {sorted(options)}")
        return raw
    return parse


def _boolean(section, key, raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


class _Source(str):
    """An expression's text that keeps its parse, ``expression``, so that a
    config parses each of its expressions once."""


def _expression(section, key, raw):
    try:
        expression = parse_expression(raw)
    except ExpressionError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc
    text = _Source(raw)
    text.expression = expression
    return text


def _text(section, key, raw):
    return raw


def _formats(section, key, raw):
    formats = [f.strip() for f in raw.split(",") if f.strip()]
    bad = set(formats) - {"csv", "vtk", "report", "mesh"}
    if bad:
        raise ConfigError(f"[{section}] unknown formats {sorted(bad)}")
    return formats


def _levels(section, key, raw):
    try:
        levels = tuple(int(t) for t in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"[{section}] levels must be comma-separated integers") from exc
    if len(levels) < 2 or any(l < 0 for l in levels):
        raise ConfigError(f"[{section}] levels needs at least two nonnegative entries")
    if len(set(levels)) != len(levels):
        raise ConfigError(f"[{section}] levels must be distinct")
    return levels


_SHAPES = {
    "disk": ("radius", "h"),
    "annulus": ("radius", "inner_radius", "h"),
    "interval": ("a", "b", "m"),
    "mesh-file": ("path",),
}

_SCHEMA = {
    "metric": {
        "preset": _choice({"euclidean", "product", "radial-warp", "custom-expression"}),
        "gamma": _expression,
        "sigma_conformal": _expression,
    },
    "domain": {
        "shape": _choice(_SHAPES),
        "radius": _number(lo=1e-12),
        "inner_radius": _number(lo=1e-12),
        "h": _number(lo=1e-12),
        "a": _number(),
        "b": _number(),
        "m": _number(lo=2, integer=True),
        "path": _text,
    },
    "problem": {
        "psi": _expression,
        "phi": _expression,
        "dpsi_ds": _expression,
        "dphi_ds": _expression,
        "beta": _number(),
        "mu": _number(),
        "beta_prime": _number(),
        "c_psi": _number(),
        "c_phi": _number(),
    },
    "solver": {
        "tol": _number(lo=1e-16, hi=1.0),
        "unsafe": _boolean,
    },
    "output": {"dir": _text, "formats": _formats},
    "mms": {"u_exact": _expression, "kappa0": _number(lo=1e-12), "levels": _levels},
    # m_dense is bounded by the mesh generators' vertex budget
    "oracle": {"m_dense": _number(lo=16, hi=MAX_VERTICES, integer=True)},
}


def _reject_x2(cfg, sections, domain):
    """`ConfigError` if an expression of ``sections`` names x2: ``domain`` is
    1D and has only x1 (and r = |x1|)."""
    for section in sections:
        for key, raw in getattr(cfg, section).items():
            if (_SCHEMA[section][key] is _expression
                    and ("name", "x2") in (t[:2] for t in _tokenize(raw))):
                raise ConfigError(f"[{section}] {key} uses x2, "
                                  f"but {domain} has only x1")


@dataclass
class RunConfig:
    """Validated run configuration: one dict of parsed values per section,
    holding the keys the file sets; build_* methods construct live objects."""

    metric: dict = field(default_factory=dict)
    domain: dict = field(default_factory=dict)
    problem: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    mms: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    def build_domain(self):
        params = {k: v for k, v in self.domain.items() if k != "shape"}
        return DomainSpec(self.domain["shape"], params)

    def _parsed(self, section):
        """``section``'s values with each expression as its parse: the one
        `load_config` made, or a new one for text set since."""
        return {k: (getattr(v, "expression", None) or parse_expression(v))
                if _SCHEMA[section][k] is _expression else v
                for k, v in getattr(self, section).items()}

    def expression(self, section, key):
        """The parsed expression of ``key`` in ``section``."""
        return self._parsed(section)[key]

    def build_metric(self, dim):
        if dim == 1:
            _reject_x2(self, ("metric",), "a 1D domain")
        try:
            data = {k: v for k, v in self._parsed("metric").items() if k != "preset"}
            return MetricField.from_expressions(dim, **data)
        except ExpressionError as exc:
            raise ConfigError(f"[metric] expression error: {exc}") from exc

    def build_problem(self, dim):
        if "psi" not in self.problem:
            raise ConfigError("[problem] psi is required for this command")
        if dim == 1:
            _reject_x2(self, ("problem",), "a 1D domain")
        try:
            return CapillaryProblem.from_expressions(dim, **self._parsed("problem"))
        except ExpressionError as exc:
            raise ConfigError(f"[problem] expression error: {exc}") from exc

    def build_solver_cfg(self):
        return ContinuationConfig(**{k: v for k, v in self.solver.items() if k != "unsafe"})

    @property
    def unsafe(self):
        return self.solver.get("unsafe", False)

    @property
    def output_dir(self):
        return Path(self.output.get("dir", "out"))

    @property
    def formats(self):
        return self.output.get("formats", ["csv", "report"])


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
        values = getattr(cfg, section)
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = _SCHEMA[section][key](section, key, raw)

    preset = cfg.metric.get("preset", "euclidean")
    if preset == "euclidean" and (cfg.metric.get("gamma", "1") != "1"
                                  or cfg.metric.get("sigma_conformal", "1") != "1"):
        raise ConfigError("[metric] euclidean preset admits no gamma/sigma data")
    if preset == "product" and cfg.metric.get("gamma", "1") != "1":
        raise ConfigError("[metric] the product preset fixes gamma = 1; "
                          "use radial-warp or custom-expression")

    if not parser.has_section("domain"):
        raise ConfigError("a [domain] section is required")
    shape = _SCHEMA["domain"]["shape"]("domain", "shape", cfg.domain.get("shape"))
    for key in cfg.domain:
        if key != "shape" and key not in _SHAPES[shape]:
            raise ConfigError(f"[domain] {key} does not apply to shape {shape}")
    for key in _SHAPES[shape]:
        if key not in cfg.domain:
            # a missing number reads as an empty one: "... = '' is not a number"
            _SCHEMA["domain"][key]("domain", key, "")
            raise ConfigError(f"[domain] {shape} requires {key}")
    if shape == "interval" and cfg.domain["a"] >= cfg.domain["b"]:
        raise ConfigError("[domain] requires a < b")
    if shape == "interval":
        _reject_x2(cfg, _SCHEMA, "an interval domain")
    return cfg
