"""Seeded problem data for the benchmark workloads.

The draws follow the admissible ranges of
`capgraph.problem.random_positive_gravity_problem` (psi = mu0 + beta s - bump,
angle data phi, radial warp), but are made here so that a change to the
program cannot change the benchmark's inputs.  Every range is drawn
stratified: a cycle of k problems puts one draw in each of k equal slices of
each range, in a seeded order.  That keeps the mix of easy and hard problems
the same from seed to seed, so run-to-run spread measures the program rather
than the luck of the draw.

Only numpy is imported; capgraph sees nothing but the strings made here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CapData:
    """One capillary problem as the strings a config file or library call takes."""

    dim: int
    psi: str
    phi: str
    gamma: str | None          # warp 1/|Y|^2; None means euclidean
    beta: float
    mu: float
    beta_prime: float


@dataclass(frozen=True)
class CapMMS:
    """A manufactured spherical cap of radius R over the unit disk."""

    radius: float

    @property
    def u_exact(self):
        return f"sqrt({self.radius!r}^2 - r^2)"


def _strata(rng, k, lo, hi):
    """k draws from U(lo, hi), one in each of k equal slices, in seeded order."""
    u = (rng.permutation(k) + rng.uniform(size=k)) / k
    return lo + (hi - lo) * u


def _term(v):
    """A float as an expression operand; negative values are parenthesised."""
    return repr(float(v)) if v >= 0 else f"({float(v)!r})"


def cap_problems(seed, k, dim, warped, beta_range=(0.5, 2.0), phi_range=(0.0, 0.6)):
    """k positive-gravity problems; ``warped[i]`` selects the warp for problem i.

    Flat problems draw phi >= 0 and warped ones phi <= 0 against a warp
    ratio of at least four: the regime in which the two-sided height bound
    holds, so the height certificate is a valid correctness check.  Narrower
    ``beta_range`` / ``phi_range`` (|phi|) stay admissible; they fix how many
    Newton iterations a problem takes, which sets the cost of a solve.
    """
    rng = np.random.default_rng([seed, dim, 7001])
    beta = _strata(rng, k, *beta_range)
    x_dep = _strata(rng, k, 0.0, 1.0) < 0.3
    phi_abs = _strata(rng, k, *phi_range)
    surplus = _strata(rng, k, 0.1, 1.5)
    c = _strata(rng, k, 0.0, 0.5)
    centre = ([_strata(rng, k, 0.2, 0.8)] if dim == 1
              else [_strata(rng, k, -0.3, 0.3) for _ in range(2)])
    g = _strata(rng, k, 15.0, 30.0) if dim == 2 else _strata(rng, k, 0.5, 3.0)

    out = []
    for i in range(k):
        sign = -1.0 if warped[i] else 1.0
        phi0 = sign * float(phi_abs[i])
        amp = abs(phi0) + (0.05 if x_dep[i] else 0.0)
        meniscus = float(np.sqrt(2.0 / beta[i] * (1.0 - np.sqrt(1.0 - amp**2))))
        mu0 = 2.5 * amp + beta[i] * (1.5 * meniscus + 0.1) + beta[i] * surplus[i]
        sq = " + ".join(f"(x{j + 1} - {_term(centre[j][i])})^2" for j in range(dim))
        psi = f"{float(mu0)!r} + {float(beta[i])!r}*s - {float(c[i])!r}*({sq})"
        phi = (f"{_term(phi0)} + {_term(sign * 0.025)}*(1 + x1)" if x_dep[i]
               else _term(phi0))
        if not warped[i]:
            gamma = None
        elif dim == 2:
            gamma = f"1 + {float(g[i])!r}*r^2"
        else:
            gamma = f"exp({float(g[i])!r}*x1)"
        out.append(CapData(dim, psi, phi, gamma, float(beta[i]), float(mu0),
                           1.0 - amp**2))
    return out


def mms_caps(seed, k):
    """k manufactured cap radii in [1.6, 3]; R > 1 keeps the contact angle inside (-1, 1)."""
    rng = np.random.default_rng([seed, 7002])
    return [CapMMS(float(r)) for r in _strata(rng, k, 1.6, 3.0)]


def config_text(data, domain, solver=None, output=None, extra=None):
    """An INI config for the capgraph CLI.  ``domain`` etc. are key/value dicts."""
    sections = {}
    if isinstance(data, CapData):
        if data.gamma is not None:
            sections["metric"] = {"preset": "radial-warp", "gamma": data.gamma}
        sections["domain"] = domain
        sections["problem"] = {"psi": data.psi, "phi": data.phi,
                               "beta": repr(data.beta), "mu": repr(data.mu),
                               "beta_prime": repr(data.beta_prime)}
    else:
        sections["domain"] = domain
        sections["mms"] = {"u_exact": data.u_exact, "kappa0": "1.0",
                           "levels": "0,1,2"}
    for name, body in (("solver", solver), ("output", output)):
        if body:
            sections[name] = body
    sections.update(extra or {})
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in body.items()]
        lines.append("")
    return "\n".join(lines)
