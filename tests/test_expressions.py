import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.expressions import (
    DerivativeError,
    EvaluationError,
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


def test_derivative_general_power_and_transcendentals():
    # f^g with both parts height-dependent, plus log/tanh chain rules
    for text in ("(1 + s)^s", "log(2 + s)", "tanh(0.5*s)", "cos(s)^2"):
        expr = parse_expression(text)
        d = expr.derivative("s")
        for s in (0.0, 0.4, 1.3):
            h = 1e-6
            fd = (expr.evaluate(s=s + h) - expr.evaluate(s=s - h)) / (2 * h)
            assert d.evaluate(s=s) == pytest.approx(fd, rel=1e-7, abs=1e-9)
