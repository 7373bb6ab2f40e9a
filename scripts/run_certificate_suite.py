#!/usr/bin/env python3
"""Certificate suite for a capillary run across three refinements.

Solves psi = 1 + s with constant angle data on the unit disk (optionally with
a radial warp), merges the height / gradient / residual certificates across
the refinement ladder, probes uniqueness with perturbed restarts, and writes
the report file.
"""

import argparse
import logging
import sys
from pathlib import Path

import capgraph as cg
from capgraph.cli import write_report
from capgraph.meshing import DomainSpec
from capgraph.solver import uniqueness_probe
from capgraph.verify import run_refinement_suite


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phi", type=float, default=0.3)
    parser.add_argument("--h", type=float, default=0.2, help="coarsest edge length")
    parser.add_argument("--warp", action="store_true",
                        help="use the radial warp gamma = 1 + r^2")
    parser.add_argument("--out", default="certificates.jsonl")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(name)s %(message)s")

    metric = (cg.MetricField.radial_warp(2, gamma="1 + r^2") if args.warp
              else cg.MetricField.euclidean(2))
    problem = cg.CapillaryProblem.from_expressions(2, "1 + s", str(args.phi))
    domain = DomainSpec("disk", {"radius": 1.0, "h": args.h})

    certs, state = run_refinement_suite(problem, metric, domain, levels=(0, 1, 2))
    spread = uniqueness_probe(problem, metric, domain.build(2), state=state,
                              trials=5, seed=0)

    for cert in certs:
        margin = "" if cert.margin is None else f" margin={cert.margin:+.4f}"
        print(f"{cert.name:>24}: observed={cert.observed:.6e}{margin} "
              f"passed={cert.passed}")
    print(f"{'uniqueness spread':>24}: {spread:.3e} over 5 perturbed restarts")

    write_report(Path(args.out), certs)
    print(f"report written to {args.out}")
    return 0 if all(c.passed for c in certs) else 1


if __name__ == "__main__":
    sys.exit(main())
