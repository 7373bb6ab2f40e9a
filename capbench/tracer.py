"""Outside-in layer tracing by wrapping capgraph's public functions.

Each target is patched at the module attribute the pipeline looks it up
through (``capgraph.solver.residual`` is what `newton_solve` calls, not
``capgraph.assembly.residual``), so the program itself is not modified.
Spans are kept in memory: name, start, end, parent span and operation id.
Worker threads of the certificate pool have no span of their own on their
stack; their spans take the operation's root span as parent, which is why
self time subtracts the *union* of child intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import defaultdict

# (span name, module, attribute path).  A span name may have several targets.
SPAN_TARGETS = [
    ("meshing.build", "capgraph.meshing", "DomainSpec.build"),
    ("config.load", "capgraph.cli", "load_config"),
    ("problem.validate", "capgraph.solver", "validate_conditions"),
    ("problem.validate", "capgraph.cli", "validate_conditions"),
    ("problem.height_bound", "capgraph.solver", "height_bound"),
    ("problem.height_bound", "capgraph.cli", "height_bound"),
    ("expressions.evaluate", "capgraph.expressions", "Expression.evaluate"),
    ("assembly.residual", "capgraph.solver", "residual"),
    ("assembly.jacobian", "capgraph.solver", "jacobian"),
    ("solver.newton", "capgraph.solver", "newton_solve"),
    ("solver.continuation", "capgraph.solver", "continuation_solve"),
    ("solver.continuation", "capgraph.cli", "continuation_solve"),
    ("verify.height", "capgraph.verify", "check_height"),
    ("verify.boundary_gradient", "capgraph.verify", "boundary_gradient_certificate"),
    ("verify.interior_gradient", "capgraph.verify", "interior_gradient_certificate"),
    ("verify.angle", "capgraph.verify", "contact_angle_residual"),
    ("verify.strong_form", "capgraph.verify", "strong_form_residual"),
    ("verify.separation_rate", "capgraph.verify", "separation_rate_check"),
    ("verify.mms_manufacture", "capgraph.verify", "mms_manufacture"),
    ("verify.oracle", "capgraph.verify", "oracle_1d_solve"),
    ("cli.output", "capgraph.cli", "write_solution_csv"),
    ("cli.output", "capgraph.cli", "write_report"),
    ("cli.output", "capgraph.cli", "write_mesh"),
    ("cli.output", "capgraph.cli", "write_vtk"),
]

# Called once per interior vertex; counted without a span to keep the cost low.
COUNT_TARGETS = [
    ("geometry.mean_curvature_strong_calls", "capgraph.verify", "mean_curvature_strong"),
]

ROOT = "op"


def _resolve(module, path):
    """(owner, attribute name) of a dotted target, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


def _jacobian_size(tracer, args, result):
    tracer.count("assembly.jacobian_nnz", result.nnz)
    tracer.count("assembly.jacobian_bytes", result.data.nbytes
                 + result.indices.nbytes + result.indptr.nbytes)


def _newton_result(tracer, args, result):
    tracer.count("solver.newton_accepted", 1)
    tracer.count("solver.newton_iterations", result[1].iterations)


def _continuation_result(tracer, args, result):
    tracer.count("solver.continuation_steps", len(result.history))


def _output_size(tracer, args, result):
    path = next(a for a in args if isinstance(a, (str, os.PathLike)))
    tracer.count("cli.output_bytes", os.path.getsize(path))


_RESULT_HOOKS = {
    "assembly.jacobian": _jacobian_size,
    "solver.newton": _newton_result,
    "solver.continuation": _continuation_result,
    "cli.output": _output_size,
}


class Tracer:
    """In-memory span recorder that patches its targets only while active."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.counts = defaultdict(lambda: defaultdict(float))   # op -> name -> n
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None
        self._root = None
        self._patched = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self._op])
        stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name, value):
        with self._lock:
            self.counts[self._op][name] += value

    def _span_wrapper(self, fn, name):
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "solver.newton":
                    self.count("solver.rejected_steps", 1)
                raise
            finally:
                self._close(sid)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self):
        """Patch every target that exists; record the ones that do not."""
        self.missing = []
        for kind, targets in (("span", SPAN_TARGETS), ("count", COUNT_TARGETS)):
            for name, module, path in targets:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                make = self._span_wrapper if kind == "span" else self._count_wrapper
                setattr(owner, attr, make(original, name))
                self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self, op):
        """Patch, record one operation under a root span, restore."""
        self.install()
        self._op = op
        self._root = self._open(ROOT)       # opened while _root is None: no parent
        try:
            yield self
        finally:
            self._close(self._root)
            self._op = self._root = None
            self.uninstall()

    def missing_layers(self):
        """Span/count names none of whose targets exist."""
        present = {n for n, m, p in SPAN_TARGETS + COUNT_TARGETS
                   if f"{m}.{p}" not in self.missing}
        return sorted({n for n, _, _ in SPAN_TARGETS + COUNT_TARGETS} - present)

    # -- analysis -----------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for sid, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for cs, ce in sorted(children[sid]):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append((end - start) - covered)
        return out

    def per_op(self):
        """op -> {span name: (total seconds, self seconds, calls)}."""
        selfs = self.self_times()
        table = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for sid, (name, start, end, _, op) in enumerate(self.spans):
            row = table[op][name]
            row[0] += end - start
            row[1] += selfs[sid]
            row[2] += 1
        return table

    def records(self):
        """Spans as dicts, for writing out once the run is over."""
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
                for sid, (name, start, end, parent, op) in enumerate(self.spans)]

