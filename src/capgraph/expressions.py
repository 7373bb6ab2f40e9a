"""Tiny expression language for problem data (warping, gravity potential, angle data).

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' power)?      right-associative; the exponent may not
                                     start with a unary minus: write x^(-2)
    atom   := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

Variables: ``x1``, ``x2``, ``s`` and ``r`` (``r = |x|`` in the chart; when
differentiating in x1/x2 it is treated as sqrt(x1^2 + x2^2)).  ``pi`` is a
named constant.  Functions: sin cos exp log sqrt cosh sinh tanh abs (unary),
min max (binary).

Evaluation is vectorized over numpy arrays and raises `EvaluationError` with
the source offset on domain violations (sqrt of a negative, log of a
non-positive, division by zero, non-finite powers) and on a variable that
was not supplied.

An `Expression` holds one tree and evaluates it on a flat tape (`_Tape`),
built once, on first use, in one pass over the tree: the nodes in
post-order, one instruction each, except that structurally equal subtrees
share one slot and are computed once per call (value numbering).  Every
operation runs when the tape runs, operations on constants included, so the
checks, their messages and offsets, and the order in which they fire are
those of a recursive walk of the tree.  ``r`` is derived once per call, and
each slot is dropped after its last use.  A tape of several trees computes
their common subtrees once: the manufactured solution's gradient, Hessian
and value are evaluated that way.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

__all__ = [
    "Expression",
    "ExpressionError",
    "ParseError",
    "EvaluationError",
    "DerivativeError",
    "parse_expression",
    "symbolic_s_derivative",
]

_FUNCTIONS_1 = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "tanh": np.tanh,
    "abs": np.abs,
}
_FUNCTIONS_2 = {"min": np.minimum, "max": np.maximum}
_CONSTANTS = {"pi": math.pi}
_VARIABLES = ("x1", "x2", "s", "r")


class ExpressionError(ValueError):
    """Base class for expression failures; carries the source offset."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class ParseError(ExpressionError):
    pass


class EvaluationError(ExpressionError):
    pass


class DerivativeError(ExpressionError):
    pass


# ---------------------------------------------------------------------------
# AST


class _Node:
    __slots__ = ("pos",)


class _Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value, pos=None):
        self.value = float(value)
        self.pos = pos


class _Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name, pos=None):
        self.name = name
        self.pos = pos


class _Bin(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right, pos=None):
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos


class _Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg, pos=None):
        self.arg = arg
        self.pos = pos


class _Call(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name, args, pos=None):
        self.name = name
        self.args = args
        self.pos = pos


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:]
            if not rest.strip():
                break
            at = pos + (len(rest) - len(rest.lstrip()))
            raise ParseError(f"unexpected character {rest.lstrip()[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = _Bin(val, node, self.term(), pos)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = _Bin(val, node, self.unary(), pos)
            else:
                return node

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return _Neg(self.unary(), pos)
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # exponent is another power: "-" after ^ is a deliberate error
            kind2, val2, pos2 = self.peek()
            if kind2 == "op" and val2 == "-":
                raise ParseError(
                    "unary minus in an exponent requires parentheses, e.g. x^(-2)", pos2
                )
            return _Bin("^", base, self.power(), pos)
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "number":
            return _Num(val, pos)
        if kind == "name":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                self.advance()
                args = [self.expr()]
                while True:
                    k, v, p = self.peek()
                    if k == "op" and v == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if val in _FUNCTIONS_1:
                    arity = 1
                elif val in _FUNCTIONS_2:
                    arity = 2
                else:
                    raise ParseError(f"unknown function {val!r}", pos)
                if len(args) != arity:
                    raise ParseError(
                        f"{val} takes {arity} argument(s), got {len(args)}", pos
                    )
                return _Call(val, args, pos)
            if val in _CONSTANTS:
                return _Num(_CONSTANTS[val], pos)
            if val in _VARIABLES:
                return _Var(val, pos)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, found {val or 'end of input'!r}", pos)


# ---------------------------------------------------------------------------
# Evaluation: one flat tape per expression


def _check(cond, message, pos):
    if not cond:
        raise EvaluationError(message, pos)


def _divide(pos):
    def divide(a, b):
        _check(np.not_equal(b, 0.0).all(), "division by zero", pos)
        return a / b
    return divide


def _power(pos):
    def power(a, b):
        out = np.power(a, b)
        _check(np.isfinite(out).all(), "power produced a non-finite value", pos)
        return out
    return power


def _function(name, pos):
    fn = _FUNCTIONS_1.get(name) or _FUNCTIONS_2.get(name)
    if name not in ("sqrt", "log"):
        return fn
    test, message = ((np.greater_equal, "sqrt of a negative value") if name == "sqrt"
                     else (np.greater, "log of a non-positive value"))

    def checked(a):
        _check(test(a, 0.0).all(), message, pos)
        return fn(a)
    return checked


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class _Tape:
    """The trees of one or more `Expression` objects as one flat list of
    instructions in post-order.

    Structurally equal subtrees share one slot (value numbering), so each
    is computed once per call, at its first place in the post-order.  Each
    instruction is ``(fn, out, a, b, free)``: slot ``out`` gets ``fn`` of
    slot ``a`` (and ``b``), then the slots in ``free``, read for the last
    time, are dropped.  Slot 0 holds the variables, and a load is an
    `operator.itemgetter` of slot 0, whose `KeyError` names a missing
    variable; a number has a slot that holds its value.
    """

    __slots__ = ("consts", "code", "outputs", "positions", "uses_r")

    def __init__(self, exprs):
        consts = [None]      # slot -> number; None: computed (slot 0 too)
        code = []            # (fn, out, a, b)
        slots = {}           # structural key -> slot
        positions = {}       # variable -> offset of its first use
        seen = {}            # id(node) -> slot, for operations met again
        last = {}            # slot -> the last instruction that reads it

        def visit(node):
            kind = type(node)
            if kind is _Num:
                key = node.value.hex()
                out = slots.get(key)
                if out is None:
                    out = slots[key] = len(consts)
                    consts.append(node.value)
                return out
            if kind is _Var:
                out = slots.get(node.name)
                if out is None:
                    out = slots[node.name] = len(consts)
                    consts.append(None)
                    positions[node.name] = node.pos
                    code.append((operator.itemgetter(node.name), out, 0, None))
                return out
            out = seen.get(id(node))
            if out is not None:
                return out
            if kind is _Bin:
                key = (node.op, visit(node.left), visit(node.right))
            elif kind is _Call:      # (name, a, b), with b None for one argument
                key = (node.name, *map(visit, node.args), None)[:3]
            elif kind is _Neg:
                key = ("neg", visit(node.arg), None)
            else:
                raise TypeError(f"unknown node {node!r}")
            out = slots.get(key)
            if out is None:
                out = slots[key] = len(consts)
                consts.append(None)
                if kind is _Bin:
                    fn = _ARITHMETIC.get(node.op) or (_divide if node.op == "/"
                                                      else _power)(node.pos)
                else:
                    fn = operator.neg if kind is _Neg else _function(node.name, node.pos)
                last[key[1]] = last[key[2]] = len(code)
                code.append((fn, out, key[1], key[2]))
            seen[id(node)] = out
            return out

        self.outputs = tuple(visit(e._root) for e in exprs)
        # each computed slot is dropped after the instruction that reads it
        # last; the outputs are kept
        frees = [()] * len(code)
        for i, k in last.items():
            if i is not None and consts[i] is None and i not in self.outputs:
                frees[k] += (i,)
        self.consts = consts
        self.code = tuple((fn, out, a, b, free) for (fn, out, a, b), free in zip(code, frees))
        self.positions = positions
        self.uses_r = "r" in slots

    def run(self, env):
        """The expressions' values for the variables in ``env``, one per
        expression, by the rules of `Expression.evaluate`."""
        if "r" not in env and self.uses_r and "x1" in env:
            x1 = np.asarray(env["x1"], dtype=float)
            if "x2" in env and env["x2"] is not None:
                r = np.sqrt(x1**2 + np.asarray(env["x2"], dtype=float) ** 2)
            else:
                r = np.abs(x1)
            env = dict(env, r=r)
        vals = self.consts.copy()
        vals[0] = env
        try:
            return _execute(self.code, vals, self.outputs)
        except KeyError as exc:      # from a load: no other instruction raises it
            name = exc.args[0]
            raise EvaluationError(f"variable {name!r} was not supplied",
                                  self.positions[name]) from None

    def at_points(self, pts, s=None):
        """The expressions' values at the rows of an (n, dim) chart-point
        array, as a new (k, n) float array for k expressions; ``s`` binds the
        height."""
        values = self.run(_point_env(pts, s))
        out = np.empty((len(values), len(pts)))
        for row, value in zip(out, values):
            row[...] = value
        return out


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def _execute(code, vals, outputs):
    """Run the instructions ``code`` on the slots ``vals``; the values of the
    slots ``outputs``."""
    for fn, out, a, b, free in code:
        vals[out] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
        for i in free:
            vals[i] = None
    return [vals[i] for i in outputs]


def _point_env(pts, s):
    """The variables at the rows of an (n, dim) chart-point array, with the
    height ``s`` (scalar or length n) when given."""
    env = {"x1": pts[:, 0]}
    if pts.shape[1] > 1:
        env["x2"] = pts[:, 1]
    if s is not None:
        if not (type(s) is np.ndarray and s.dtype == float and s.shape == (len(pts),)):
            s = np.broadcast_to(np.asarray(s, dtype=float), (len(pts),))
        env["s"] = s
    return env


# ---------------------------------------------------------------------------
# Differentiation (with light simplification so printed forms stay readable)


def _is_zero(node):
    return isinstance(node, _Num) and node.value == 0.0


def _is_one(node):
    return isinstance(node, _Num) and node.value == 1.0


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, _Num) and isinstance(b, _Num):
        return _Num(a.value + b.value)
    return _Bin("+", a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if isinstance(a, _Num) and isinstance(b, _Num):
        return _Num(a.value - b.value)
    if _is_zero(a):
        return _Neg(b)
    return _Bin("-", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return _Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, _Num) and isinstance(b, _Num):
        return _Num(a.value * b.value)
    return _Bin("*", a, b)


def _div(a, b):
    if _is_zero(a):
        return _Num(0.0)
    if _is_one(b):
        return a
    return _Bin("/", a, b)


def _pow(a, b):
    if _is_zero(b):
        return _Num(1.0)
    if _is_one(b):
        return a
    return _Bin("^", a, b)


def _rewrite_r_even_powers(node, dim):
    """Replace r^(2k) by (x1^2 + x2^2)^k so radial data stays differentiable
    at the origin.  Odd powers of r keep the a.e. rule d r / d xi = xi / r."""
    if isinstance(node, _Bin):
        left = _rewrite_r_even_powers(node.left, dim)
        right = _rewrite_r_even_powers(node.right, dim)
        if (node.op == "^" and isinstance(left, _Var) and left.name == "r"
                and isinstance(right, _Num)):
            e = right.value
            if e > 0 and e == int(e) and int(e) % 2 == 0:
                base = _Bin("^", _Var("x1"), _Num(2.0))
                if dim > 1:
                    base = _Bin("+", base, _Bin("^", _Var("x2"), _Num(2.0)))
                k = e / 2
                return base if k == 1 else _Bin("^", base, _Num(k))
        return _Bin(node.op, left, right, node.pos)
    if isinstance(node, _Neg):
        return _Neg(_rewrite_r_even_powers(node.arg, dim), node.pos)
    if isinstance(node, _Call):
        return _Call(node.name, [_rewrite_r_even_powers(a, dim) for a in node.args],
                     node.pos)
    return node


def _depends_on(node, var):
    if isinstance(node, _Var):
        if node.name == var:
            return True
        # r carries x-dependence
        return node.name == "r" and var in ("x1", "x2")
    if isinstance(node, _Num):
        return False
    if isinstance(node, _Neg):
        return _depends_on(node.arg, var)
    if isinstance(node, _Bin):
        return _depends_on(node.left, var) or _depends_on(node.right, var)
    if isinstance(node, _Call):
        return any(_depends_on(a, var) for a in node.args)
    return False


def _diff(node, var):
    if isinstance(node, _Num):
        return _Num(0.0)
    if isinstance(node, _Var):
        if node.name == var:
            return _Num(1.0)
        if node.name == "r" and var in ("x1", "x2"):
            # d|x|/dxi = xi / r (also valid for n=1 with r = |x1|, a.e.)
            return _div(_Var(var), _Var("r"))
        return _Num(0.0)
    if isinstance(node, _Neg):
        return _Neg(_diff(node.arg, var))
    if isinstance(node, _Bin):
        a, b = node.left, node.right
        da, db = None, None
        if node.op == "+":
            return _add(_diff(a, var), _diff(b, var))
        if node.op == "-":
            return _sub(_diff(a, var), _diff(b, var))
        if node.op == "*":
            return _add(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
        if node.op == "/":
            da, db = _diff(a, var), _diff(b, var)
            if _is_zero(db):
                return _div(da, b)
            return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _Num(2.0)))
        # '^'
        if not _depends_on(b, var):
            # d(f^c) = c f^(c-1) f'
            df = _diff(a, var)
            if isinstance(b, _Num):
                return _mul(_mul(b, _pow(a, _Num(b.value - 1.0))), df)
            return _mul(_mul(b, _pow(a, _sub(b, _Num(1.0)))), df)
        if not _depends_on(a, var):
            # d(c^g) = c^g log(c) g'
            return _mul(_mul(node, _Call("log", [a])), _diff(b, var))
        # f^g with both varying
        return _mul(
            node,
            _add(
                _mul(_diff(b, var), _Call("log", [a])),
                _div(_mul(b, _diff(a, var)), a),
            ),
        )
    if isinstance(node, _Call):
        if node.name in ("abs", "min", "max"):
            if any(_depends_on(a, var) for a in node.args):
                raise DerivativeError(
                    f"{node.name} is not differentiable in {var}", node.pos
                )
            return _Num(0.0)
        arg = node.args[0]
        darg = _diff(arg, var)
        if _is_zero(darg):
            return _Num(0.0)
        if node.name == "sin":
            outer = _Call("cos", [arg])
        elif node.name == "cos":
            outer = _Neg(_Call("sin", [arg]))
        elif node.name == "exp":
            outer = node
        elif node.name == "log":
            return _div(darg, arg)
        elif node.name == "sqrt":
            return _div(darg, _mul(_Num(2.0), node))
        elif node.name == "cosh":
            outer = _Call("sinh", [arg])
        elif node.name == "sinh":
            outer = _Call("cosh", [arg])
        elif node.name == "tanh":
            outer = _div(_Num(1.0), _pow(_Call("cosh", [arg]), _Num(2.0)))
        else:  # pragma: no cover
            raise DerivativeError(f"no derivative rule for {node.name}", node.pos)
        return _mul(outer, darg)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _to_str(node, parent_prec=0):
    if isinstance(node, _Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(node, _Var):
        return node.name
    if isinstance(node, _Neg):
        inner = _to_str(node.arg, _PREC["neg"])
        out = f"-{inner}"
        return f"({out})" if parent_prec > _PREC["neg"] else out
    if isinstance(node, _Call):
        return f"{node.name}({', '.join(_to_str(a) for a in node.args)})"
    prec = _PREC[node.op]
    if node.op == "^":  # right-associative
        left = _to_str(node.left, prec + 1)
        right = _to_str(node.right, prec)
    else:  # left-associative; -, / need parens around same-precedence right child
        left = _to_str(node.left, prec)
        right = _to_str(node.right, prec + 1 if node.op in ("-", "/") else prec)
    out = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    return f"({out})" if prec < parent_prec else out


# ---------------------------------------------------------------------------
# Public wrapper


class Expression:
    """Parsed expression: evaluate vectorized, differentiate symbolically."""

    def __init__(self, root, source=""):
        self._root = root
        self.source = source
        self._tape = None

    def evaluate(self, **env):
        """Evaluate with keyword arrays/scalars for x1, x2, s, r.

        ``r`` is derived from x1 (and x2) when not supplied.  Overflow is
        silent: a non-finite value reaches the checks that name its cause.
        """
        tape = self._tape
        if tape is None:     # built on first use (threads racing build equal tapes)
            tape = self._tape = _Tape([self])
        return tape.run(env)[0]

    def at_points(self, pts, s=None):
        """Values at the rows of an (n, dim) chart-point array as a new float
        array of length n; ``s`` (scalar or length n) binds the height."""
        out = np.empty(len(pts))
        out[...] = self.evaluate(**_point_env(pts, s))
        return out

    def derivative(self, var, dim=None):
        """Symbolic partial derivative with respect to ``var`` in {x1, x2, s}.

        For chart derivatives, passing ``dim`` rewrites even powers of r into
        chart coordinates first, keeping radial data differentiable at the
        origin.
        """
        if var not in ("x1", "x2", "s"):
            raise DerivativeError(f"cannot differentiate with respect to {var!r}")
        root = self._root
        if var in ("x1", "x2") and dim is not None:
            root = _rewrite_r_even_powers(root, dim)
        return Expression(_diff(root, var), source=f"d({self.source})/d{var}")

    def gradient(self, dim):
        """Symbolic chart gradient: the derivatives in x1[, x2] of a
        ``dim``-dimensional chart, by the rules of `derivative`."""
        return [self.derivative(v, dim=dim) for v in ("x1", "x2")[:dim]]

    def depends_on(self, var):
        return _depends_on(self._root, var)

    def __str__(self):
        return _to_str(self._root)

    def __repr__(self):
        return f"Expression({str(self)!r})"


def parse_expression(text):
    """Parse ``text`` into an `Expression`; raises `ParseError` with offset."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return Expression(_Parser(text).parse(), source=text)


def symbolic_s_derivative(expr):
    """Partial derivative of ``expr`` with respect to the height variable s."""
    if isinstance(expr, str):
        expr = parse_expression(expr)
    return expr.derivative("s")
