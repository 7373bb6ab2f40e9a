#!/usr/bin/env python3
"""SHA-256 digests of everything the shipped configs make the CLI write.

Runs, in this order, each into its own directory under a temporary
directory:

- `capgraph solve` on every `scripts/configs/*.cfg` with a `[problem]`
  section,
- `capgraph mms` on `cap_mms.cfg` and `capgraph oracle1d` on
  `interval_oracle.cfg`,
- `capgraph verify` and `capgraph export --format {vtk,csv,mesh}` on each
  solve's `solution.csv`,
- `capgraph convergence` on `disk_capillary.cfg`, `hyperbolic_warp.cfg` and
  `interval_oracle.cfg` (disk and interval interior balls), and on
  `cap_mms.cfg` (its hand-off to `mms`),
- `capgraph mms` on `cap_mms_warped.cfg` (a warped leaf),
- `capgraph solve` on `annulus_capillary.cfg` with its `[domain]` replaced by
  the `mesh.txt` that its `export --format mesh` run wrote (a mesh read back
  from a file),
- `capgraph oracle1d` on `interval_conformal.cfg` and `capgraph mms` on
  `cap_mms_conformal.cfg` (a conformal leaf in 1D and 2D),
- `capgraph mms` on `cap_mms_nonradial.cfg` (a manufactured solution that is
  not radial, on a warped leaf) and on `cap_mms_constants.cfg` (data with
  operations on constants only, such as `1.5^2` and `2*pi/4`),
- `capgraph solve` on `annulus_capillary.cfg` and `interval_oracle.cfg` with
  their `[domain]` replaced by the exported `mesh.txt` rewritten with each
  cell's last two ids swapped (clockwise triangles, right-to-left segments:
  the mesh reorients them on reading, so the annulus run's digests equal
  those of `solve-mesh-file/annulus_capillary`).

Prints one `sha256  <command>/<config>/<file>` line per output file, and the
same for the run's stdout, stderr (log records included) and exit code.  A
run that writes `continuation.jsonl` also gets one
`newton_iterations [n0, n1, ...]  <command>/<config>` line, the Newton
iterations of each continuation attempt in the order made, so that a diff
tells a roundoff move of the outputs from a change in the counts.
Diff the output of two checkouts to check that a change keeps the outputs
byte-identical:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import logging
import tempfile
from pathlib import Path

from capgraph.cli import run_command

CONFIGS = Path(__file__).resolve().parent / "configs"


def reversed_cells(mesh_text):
    """``mesh_text`` in the `write_mesh` format with each cell's last two ids
    swapped."""
    lines = mesh_text.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("CELLS")) + 1
    for k in range(start, start + int(lines[start - 1].split()[1])):
        *head, a, b = lines[k].split()
        lines[k] = " ".join([*head, b, a])
    return "\n".join(lines) + "\n"


def mesh_file_config(tmp, stem, reverse=False):
    """Write to ``tmp`` a copy of ``stem``.cfg whose `[domain]` is the mesh file
    that the `export-mesh/<stem>` run wrote, or with ``reverse`` a copy of that
    file with `reversed_cells`; returns the config's path."""
    lines, section = [], None
    for line in (CONFIGS / f"{stem}.cfg").read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        if section != "[domain]":
            lines.append(line)
    mesh = Path(tmp) / "export-mesh" / stem / "mesh.txt"
    if reverse:
        text = reversed_cells(mesh.read_text())
        mesh = Path(tmp) / f"{stem}-reversed-mesh.txt"
        mesh.write_text(text)
    lines += ["[domain]", "shape = mesh-file", f"path = {mesh}"]
    path = Path(tmp) / f"{stem}-{'reversed-' if reverse else ''}mesh-file.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def runs(tmp):
    """Yield (name, argv) pairs in a fixed order, each once the runs before it
    have run; run ``name`` writes to ``tmp/name``, the verify and export runs
    read the solve runs' solutions and the mesh-file runs read the meshes
    that the export runs wrote."""
    solved = [path for path in sorted(CONFIGS.glob("*.cfg"))
              if "[problem]" in (line.strip() for line in path.read_text().splitlines())]
    for path in solved:
        yield f"solve/{path.stem}", ["solve", "--config", str(path)]
    yield "mms/cap_mms", ["mms", "--config", str(CONFIGS / "cap_mms.cfg")]
    yield ("oracle1d/interval_oracle",
           ["oracle1d", "--config", str(CONFIGS / "interval_oracle.cfg")])
    for path in solved:
        stored = ["--config", str(path),
                  "--solution", str(Path(tmp) / "solve" / path.stem / "solution.csv")]
        yield f"verify/{path.stem}", ["verify", *stored]
        for fmt in ("vtk", "csv", "mesh"):
            yield f"export-{fmt}/{path.stem}", ["export", *stored, "--format", fmt]
    for stem in ("disk_capillary", "hyperbolic_warp", "interval_oracle"):
        yield (f"convergence/{stem}",
               ["convergence", "--config", str(CONFIGS / f"{stem}.cfg")])
    yield ("convergence/cap_mms",
           ["convergence", "--config", str(CONFIGS / "cap_mms.cfg")])
    yield ("mms/cap_mms_warped",
           ["mms", "--config", str(CONFIGS / "cap_mms_warped.cfg")])
    yield ("solve-mesh-file/annulus_capillary",
           ["solve", "--config", str(mesh_file_config(tmp, "annulus_capillary"))])
    yield ("oracle1d/interval_conformal",
           ["oracle1d", "--config", str(CONFIGS / "interval_conformal.cfg")])
    yield ("mms/cap_mms_conformal",
           ["mms", "--config", str(CONFIGS / "cap_mms_conformal.cfg")])
    yield ("mms/cap_mms_nonradial",
           ["mms", "--config", str(CONFIGS / "cap_mms_nonradial.cfg")])
    yield ("mms/cap_mms_constants",
           ["mms", "--config", str(CONFIGS / "cap_mms_constants.cfg")])
    for stem in ("annulus_capillary", "interval_oracle"):
        yield (f"solve-reversed-mesh-file/{stem}",
               ["solve", "--config", str(mesh_file_config(tmp, stem, reverse=True))])


def capture(argv):
    """Run one CLI invocation; returns (exit code, stdout, stderr) with log
    records formatted as `capgraph.cli.main` formats them."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(name)s %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    level = root.level
    root.setLevel(logging.INFO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
    return code, out.getvalue(), err.getvalue()


def digest(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs(tmp):
            outdir = Path(tmp) / name
            code, out, err = capture([*argv, "--output-dir", str(outdir)])
            for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
                print(f"{digest(path.read_bytes())}  {name}/{path.relative_to(outdir)}")
            print(f"{digest(out.encode())}  {name}/stdout")
            print(f"{digest(err.encode())}  {name}/stderr")
            print(f"exit {code}  {name}")
            attempts = outdir / "continuation.jsonl"
            if attempts.is_file():
                counts = [json.loads(line)["newton_iterations"]
                          for line in attempts.read_text().splitlines()]
                print(f"newton_iterations {counts}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
