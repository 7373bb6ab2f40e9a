import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capgraph.expressions as ex
from capgraph.expressions import (
    DerivativeError,
    EvaluationError,
    ExpressionError,
    ParseError,
    parse_expression,
    symbolic_s_derivative,
)


def test_function_overflow_is_silent_and_non_finite():
    # the value reaches the checks that name its cause, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = parse_expression("exp(800*x1)").at_points(np.array([[1.0]]))
    assert out[0] == np.inf


def test_basic_evaluation():
    assert parse_expression("1 + s").evaluate(s=2.0) == 3.0
    assert parse_expression("2/sqrt(1 - r^2)").evaluate(r=0.0) == 2.0
    assert parse_expression("min(3, 1 + 1)").evaluate() == 2.0
    assert parse_expression("pi").evaluate() == pytest.approx(np.pi)


@pytest.mark.parametrize("text,value", [
    ("2^3^2", 512.0),          # ^ right-associative
    ("-2^2", -4.0),            # unary minus binds weaker than ^
    ("2*3 + 4", 10.0),
    ("6/3/2", 1.0),
    ("2 - 3 - 4", -5.0),
    ("2*(3 + 4)", 14.0),
    ("cosh(0) + sinh(0) + tanh(0)", 1.0),
])
def test_precedence(text, value):
    assert parse_expression(text).evaluate() == pytest.approx(value, rel=1e-15)


def test_whitespace_insensitive():
    a = parse_expression("1+s*x1").evaluate(s=0.3, x1=2.0)
    b = parse_expression("  1 + s * x1 ").evaluate(s=0.3, x1=2.0)
    assert a == b


def test_unary_minus_in_exponent_rejected():
    with pytest.raises(ParseError, match="parentheses"):
        parse_expression("cosh(r)^-2")
    # the documented workaround parses
    assert parse_expression("cosh(r)^(-2)").evaluate(r=0.5) == pytest.approx(
        np.cosh(0.5) ** -2)


@pytest.mark.parametrize("text", ["1 +", "foo(2)", "min(1)", "unknown_var", "1 2",
                                  "(1 + 2", ""])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + bogus")
    assert err.value.pos == 4


@pytest.mark.parametrize("text,env", [
    ("sqrt(x1)", {"x1": -1.0}),
    ("log(s)", {"s": 0.0}),
    ("1/x1", {"x1": 0.0}),
    ("(-2)^0.5", {}),
])
def test_evaluation_domain_errors(text, env):
    with pytest.raises(EvaluationError):
        parse_expression(text).evaluate(**env)


def test_vectorized_matches_scalar():
    expr = parse_expression("exp(s)*x1 + sqrt(1 + r^2)")
    x1 = np.linspace(-1, 1, 7)
    s = np.linspace(0, 2, 7)
    vec = expr.evaluate(x1=x1, s=s)
    for k in range(7):
        assert vec[k] == expr.evaluate(x1=x1[k], s=s[k])


def test_r_derived_from_coordinates():
    expr = parse_expression("r^2")
    assert expr.evaluate(x1=3.0, x2=4.0) == pytest.approx(25.0)
    assert expr.evaluate(x1=-3.0) == pytest.approx(9.0)


def test_s_derivative_examples():
    assert symbolic_s_derivative("1 + s").evaluate() == 1.0
    d = symbolic_s_derivative("exp(2*s)*r")
    assert d.evaluate(s=0.5, r=2.0) == pytest.approx(4 * np.exp(1.0))
    assert symbolic_s_derivative("s^3").evaluate(s=2.0) == pytest.approx(12.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.floats(-2.0, 2.0), r=st.floats(0.1, 2.0))
def test_s_derivative_matches_central_differences(s, r):
    for text in ("1 + s + 0.3*s^2", "exp(0.5*s)*r", "sin(s)*cosh(r)", "s/(2 + s^2)"):
        expr = parse_expression(text)
        d = expr.derivative("s")
        h = 1e-6 * (1 + abs(s))
        fd = (expr.evaluate(s=s + h, r=r) - expr.evaluate(s=s - h, r=r)) / (2 * h)
        assert d.evaluate(s=s, r=r) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_derivative_unsupported_constructs():
    with pytest.raises(DerivativeError):
        symbolic_s_derivative("abs(s)")
    with pytest.raises(DerivativeError):
        symbolic_s_derivative("max(s, 0)")
    # s-independent uses of the same functions differentiate to zero
    assert symbolic_s_derivative("abs(x1) + s").evaluate(x1=-2.0) == 1.0


def test_chart_derivative_radial_rewrite():
    # even powers of r are differentiable through the origin
    expr = parse_expression("sqrt(4 - r^2)")
    d = expr.derivative("x1", dim=2)
    pts = dict(x1=np.array([0.0, 0.3]), x2=np.array([0.0, -0.4]))
    expected = -pts["x1"] / np.sqrt(4 - pts["x1"]**2 - pts["x2"]**2)
    np.testing.assert_allclose(d.evaluate(**pts), expected, rtol=1e-14)


def test_print_parse_round_trip():
    for text in ("1 + s*x1 - 2/(x2 + 3)", "x1*(s - 2)/(1 - s)^2", "-(s + 1)^2",
                 "exp(2*s)*r - min(x1, x2)"):
        expr = parse_expression(text)
        again = parse_expression(str(expr))
        env = dict(x1=0.7, x2=-0.4, s=0.9, r=0.3)
        assert again.evaluate(**env) == expr.evaluate(**env)


def test_concurrent_evaluation_is_pure():
    expr = parse_expression("exp(s)*sqrt(1 + x1^2) - s^3/(2 + r)")
    env = dict(x1=np.linspace(-1, 1, 101), s=np.linspace(0, 1, 101))
    expected = expr.evaluate(**env)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: expr.evaluate(**env), range(16)))
    for res in results:
        np.testing.assert_array_equal(res, expected)


def test_concurrent_first_evaluations_build_one_tape_each():
    # threads racing to build the tape of a fresh expression all get its values
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        env = dict(x1=np.linspace(-1, 1, 11), s=np.linspace(0, 1, 11))
        for _ in range(20):
            expr = parse_expression("exp(s)*sqrt(1 + x1^2) - sqrt(1 + x1^2)/(2 + r)")
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: expr.evaluate(**env), range(8)))
            for res in results:
                np.testing.assert_array_equal(res, _walked(expr, env))
    finally:
        sys.setswitchinterval(switch)


def test_derivative_general_power_and_transcendentals():
    # f^g with both parts height-dependent, plus log/tanh chain rules
    for text in ("(1 + s)^s", "log(2 + s)", "tanh(0.5*s)", "cos(s)^2"):
        expr = parse_expression(text)
        d = expr.derivative("s")
        for s in (0.0, 0.4, 1.3):
            h = 1e-6
            fd = (expr.evaluate(s=s + h) - expr.evaluate(s=s - h)) / (2 * h)
            assert d.evaluate(s=s) == pytest.approx(fd, rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# The tape against a tree walk


def _walk(node, env):
    """Reference evaluation: the recursive tree walk that the tape replaced."""
    if isinstance(node, ex._Num):
        return node.value
    if isinstance(node, ex._Var):
        if node.name not in env:
            raise EvaluationError(f"variable {node.name!r} was not supplied", node.pos)
        return env[node.name]
    if isinstance(node, ex._Neg):
        return -_walk(node.arg, env)
    if isinstance(node, ex._Bin):
        a = _walk(node.left, env)
        b = _walk(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            ex._check(np.all(np.asarray(b) != 0.0), "division by zero", node.pos)
            return a / b
        out = np.power(a, b)
        ex._check(np.all(np.isfinite(out)), "power produced a non-finite value", node.pos)
        return out
    args = [_walk(a, env) for a in node.args]
    if node.name == "sqrt":
        ex._check(np.all(np.asarray(args[0]) >= 0.0), "sqrt of a negative value", node.pos)
    elif node.name == "log":
        ex._check(np.all(np.asarray(args[0]) > 0.0), "log of a non-positive value", node.pos)
    fn = ex._FUNCTIONS_1.get(node.name) or ex._FUNCTIONS_2.get(node.name)
    return fn(*args)


def _walked(expr, env):
    """``expr`` at ``env`` by the tree walk, with r derived as `evaluate`
    derives it; returns the value or the `ExpressionError` raised."""
    if "r" not in env and expr.depends_on("r") and "x1" in env:
        x1 = np.asarray(env["x1"], dtype=float)
        x2 = env.get("x2")
        r = np.abs(x1) if x2 is None else np.sqrt(x1**2 + np.asarray(x2) ** 2)
        env = dict(env, r=r)
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return _walk(expr._root, env)
    except ExpressionError as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, ExpressionError):
        assert isinstance(got, ExpressionError)
        assert (type(got), str(got), got.pos) == (type(want), str(want), want.pos)
    else:
        assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                         want.tobytes())


_LEAVES = st.sampled_from(["x1", "x2", "s", "r", "0", "1", "2", "0.5", "3.25", "pi",
                           "1/0", "sqrt(-1)", "log(0)", "2^0.5", "(0 - 1)^0.5"])


def _grown(parts):
    binary = st.tuples(parts, st.sampled_from("+-*/^"), parts).map(
        lambda t: f"({t[0]}){t[1]}({t[2]})")
    call = st.tuples(st.sampled_from(sorted(ex._FUNCTIONS_1)), parts).map(
        lambda t: f"{t[0]}({t[1]})")
    pair = st.tuples(st.sampled_from(["min", "max"]), parts, parts).map(
        lambda t: f"{t[0]}({t[1]}, {t[2]})")
    repeated = st.tuples(parts, parts).map(      # one subtree twice or three times
        lambda t: f"({t[0]})*({t[1]}) - sqrt(({t[0]})^2) + ({t[0]})")
    mirrored = st.tuples(parts, st.sampled_from("+-*/^"), parts).map(   # a.b and b.a
        lambda t: f"(({t[0]}){t[1]}({t[2]})) + (({t[2]}){t[1]}({t[0]}))")
    return st.one_of(binary, call, pair, repeated, mirrored,
                     parts.map(lambda p: f"-({p})"))


_EXPRESSIONS = st.recursive(_LEAVES, _grown, max_leaves=10)
_VALUES = st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_EXPRESSIONS, names=st.sets(st.sampled_from(["x1", "x2", "s", "r"])),
       values=st.lists(_VALUES, min_size=4, max_size=4), vector=st.booleans())
def test_tape_matches_the_tree_walk(text, names, values, vector):
    # bit-identical values, or the same error class, message and offset,
    # with variables missing, constants that fail their checks, and subtrees
    # that the tape shares
    expr = parse_expression(text)
    env = {}
    for k, name in enumerate(sorted(names)):
        env[name] = np.array([values[k], -values[k], 0.5]) if vector else values[k]
    exprs = [expr]
    for var in ("x1", "s"):
        try:
            exprs.append(expr.derivative(var, dim=2))
        except DerivativeError:
            pass
    wanted = [_walked(e, env) for e in exprs]
    for e, want in zip(exprs, wanted):
        try:
            got = e.evaluate(**env)
        except ExpressionError as exc:
            got = exc
        _assert_same(got, want)
    # one tape of all the trees: each tree's value, or the first tree's error
    try:
        together = ex._Tape(exprs).run(env)
    except ExpressionError as exc:
        first = next(w for w in wanted if isinstance(w, ExpressionError))
        _assert_same(exc, first)
    else:
        for got, want in zip(together, wanted):
            _assert_same(got, want)


def test_tape_shares_subtrees_and_runs_operations_on_constants():
    # 2^0.5 is an instruction, the repeated sqrt(1 + x1^2) is one slot, and
    # 1/0 raises when the tape runs, with its offset
    tape = ex._Tape([parse_expression("sqrt(1 + x1^2)*2^0.5 + sqrt(1 + x1^2)")])
    assert len(tape.code) == 7        # load, ^, +, sqrt, ^, *, +
    with pytest.raises(EvaluationError, match=r"division by zero \(at offset 8\)"):
        parse_expression("x1 + 2*1/0").evaluate(x1=1.0)
    # a slot is dropped after its last use, and an output is kept: x1 (slot
    # 1) goes after the product, exp(x1) (slot 2) is the second output
    tape = ex._Tape([parse_expression("exp(x1)*x1"), parse_expression("exp(x1)")])
    assert [np.ndim(v) for v in tape.run({"x1": np.ones(3)})] == [1, 1]
    assert [free for *_, free in tape.code] == [(), (), (1,)]
    assert tape.at_points(np.ones((3, 1))).shape == (2, 3)
