import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capgraph as cg
from capgraph.config import load_config
from capgraph.expressions import EvaluationError
from capgraph.geometry import (
    _difference_points,
    _least_squares,
    _patch_derivatives,
    mean_curvature_from_derivatives,
    recover_vertex_gradients,
)
from conftest import cap_gradient, cap_values

SHIPPED = sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.cfg"))


def test_slope_factor_trivials(euclid2):
    assert cg.slope_factor(euclid2, [0.0, 0.0], [0.0, 0.0]) == 1.0
    warped = cg.MetricField.from_expressions(2, gamma="4")
    assert cg.slope_factor(warped, [0.1, 0.2], [3.0, 0.0]) == pytest.approx(np.sqrt(13))


def test_slope_factor_cap(euclid2):
    # u = sqrt(R^2 - |x|^2): grad u = -x/u, so W = R/u
    pts = np.array([[0.5, 0.1], [0.0, 0.9], [-0.3, 0.4]])
    w = cg.slope_factor(euclid2, pts, cap_gradient(pts))
    np.testing.assert_allclose(w, 2.0 / cap_values(pts), rtol=1e-14)


def test_slope_factor_rejects_non_finite(euclid2):
    with pytest.raises(ValueError):
        cg.slope_factor(euclid2, [0.0, 0.0], [np.inf, 0.0])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gx=st.floats(-5, 5), gy=st.floats(-5, 5),
       x1=st.floats(-0.9, 0.9), x2=st.floats(-0.9, 0.9))
def test_slope_factor_lower_bound(gx, gy, x1, x2):
    metric = cg.MetricField.radial_warp(2, gamma="1 + 2*r^2")
    x = np.array([x1, x2])
    w = cg.slope_factor(metric, x, np.array([gx, gy]))
    root_gamma = np.sqrt(metric.gamma(x)[0])
    assert w >= root_gamma - 1e-14
    if gx == 0 and gy == 0:
        assert w == pytest.approx(root_gamma)
    # strictly monotone in the gradient magnitude
    assert cg.slope_factor(metric, x, np.array([2 * gx, 2 * gy])) >= w - 1e-14


@pytest.mark.parametrize("dim", [1, 2])
def test_euclidean_metric_is_flat(dim):
    # c, gamma and grad gamma bit for bit, zeros included with their sign, at
    # signed and zero points
    metric = cg.MetricField.euclidean(dim)
    pts = np.random.default_rng(dim).uniform(-1, 1, size=(7, dim))
    pts[0] = -0.0
    m = len(pts)
    for got, want in ((metric.conformal(pts), np.ones(m)),
                      (metric.gamma(pts), np.ones(m)),
                      (metric.grad_gamma(pts), np.zeros((m, dim)))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_flat_preset_matches_hardcoded_evaluator(euclid2):
    # gamma == 1: all quantities reduce to the euclidean graph formulas
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        g = rng.uniform(-3, 3, size=2)
        hess = rng.uniform(-2, 2, size=(2, 2))
        hess = 0.5 * (hess + hess.T)
        w_flat = np.sqrt(1 + g @ g)
        assert cg.slope_factor(euclid2, x, g) == pytest.approx(w_flat, abs=1e-10)
        nh_flat = np.trace(hess) / w_flat - g @ hess @ g / w_flat**3
        nh = mean_curvature_from_derivatives(euclid2, x, g, hess)
        assert nh == pytest.approx(nh_flat, abs=1e-10)


def test_mean_curvature_constant_graph(euclid2, disk_01):
    u = cg.ScalarField(disk_01, np.full(disk_01.num_vertices, 3.7))
    for v in (0, 5, 40):
        assert cg.mean_curvature_strong(euclid2, u, v) == pytest.approx(0.0, abs=1e-12)


def test_mean_curvature_cap(euclid2, disk_01):
    # div(grad u / W) = div(-x/R) = -2/R for the cap of radius R = 2
    u = cg.ScalarField(disk_01, cap_values(disk_01.vertices))
    interior = np.where(~disk_01.is_boundary_vertex)[0]
    vals = np.array([cg.mean_curvature_strong(euclid2, u, v) for v in interior])
    assert np.max(np.abs(vals + 1.0)) < 0.05


def test_mean_curvature_1d_warped_vs_dense_differences(euclid1):
    # independent dense evaluation of (u'/W)' - (gamma'/2 gamma)(u'/W)
    metric = cg.MetricField.from_expressions(1, gamma="exp(2*x1)")
    mesh = cg.generate_interval_mesh(0.0, 1.0, 40)
    u = cg.ScalarField(mesh, mesh.vertices[:, 0])
    xd = np.linspace(0, 1, 20001)
    flux = 1.0 / np.sqrt(np.exp(2 * xd) + 1.0)          # u' = 1, W = sqrt(gamma + 1)
    dflux = np.gradient(flux, xd)
    dense = dflux - flux                                 # gamma'/2 gamma = 1
    for v in (10, 20, 30):
        x = mesh.vertices[v, 0]
        expected = np.interp(x, xd, dense)
        assert cg.mean_curvature_strong(metric, u, v) == pytest.approx(
            expected, rel=2e-3, abs=1e-4)


def test_mean_curvature_vertical_translate_invariance(euclid2, disk_01):
    rng = np.random.default_rng(3)
    vals = 0.2 * rng.standard_normal(disk_01.num_vertices)
    u = cg.ScalarField(disk_01, vals)
    shifted = cg.ScalarField(disk_01, vals + 11.0)
    for v in (0, 17, 33):
        assert cg.mean_curvature_strong(euclid2, u, v) == pytest.approx(
            cg.mean_curvature_strong(euclid2, shifted, v), abs=1e-10)


def test_degenerate_stencil(euclid2):
    # one triangle: no vertex has the six patch points of a quadratic
    mesh = cg.Mesh(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                   [[0, 1], [1, 2], [0, 2]], ["b", "b", "b"])
    u = cg.ScalarField(mesh, np.zeros(3))
    _, _, fitted = _patch_derivatives(mesh, u.values, [0, 1, 2])
    assert not fitted.any()
    with pytest.raises(ValueError, match="patch of vertex 0 is too small"):
        cg.mean_curvature_strong(euclid2, u, 0)


def _hexagon_fan(squash):
    # the centre's one-ring has 7 points; ``squash`` flattens it onto the x1 axis
    angle = np.arange(6) * np.pi / 3
    ring = np.column_stack([np.cos(angle), squash * np.sin(angle)])
    return cg.Mesh(2, np.vstack([[0.0, 0.0], ring]),
                   [[0, 1 + j, 1 + (j + 1) % 6] for j in range(6)],
                   [[1 + j, 1 + (j + 1) % 6] for j in range(6)], ["b"] * 6)


def _quadratic_design(x):
    return np.stack([np.ones(len(x)), x[:, 0], x[:, 1], 0.5 * x[:, 0] ** 2,
                     x[:, 0] * x[:, 1], 0.5 * x[:, 1] ** 2], axis=-1)


@pytest.fixture
def pinv_calls(monkeypatch):
    """The stacks passed to `np.linalg.pinv` while the test runs."""
    calls, pinv = [], np.linalg.pinv

    def spy(a, *args, **kwargs):
        calls.append(np.array(a))
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", spy)
    return calls


def test_near_collinear_patch_takes_the_truncated_pseudo_inverse(pinv_calls):
    # a patch squashed by 1e-9 has cond_2 near 1e18, past 1/rcond: it is solved
    # by the pseudo-inverse expression bit for bit, the regular patch by QR
    flat = _hexagon_fan(1e-9).vertices
    regular = _hexagon_fan(1.0).vertices
    a = np.stack([_quadratic_design(regular), _quadratic_design(flat)])
    b = np.stack([np.sin(regular[:, 0]) + regular[:, 1] ** 2, np.cos(flat[:, 0]) + flat[:, 1]])
    coef = _least_squares(np.concatenate([a, b[..., None]], axis=2))
    assert len(pinv_calls) == 1
    np.testing.assert_array_equal(pinv_calls[0], a[1:])
    old = np.einsum("mck,mk->mc", np.linalg.pinv(a[1:], rcond=np.finfo(float).eps * 7), b[1:])
    assert coef[1:].tobytes() == old.tobytes()
    np.testing.assert_allclose(coef[0], np.linalg.lstsq(a[0], b[0], rcond=None)[0],
                               rtol=0, atol=1e-13)

    pinv_calls.clear()
    mesh = _hexagon_fan(1e-9)
    grad, hess, fitted = _patch_derivatives(mesh, np.cos(mesh.vertices[:, 0]), [0])
    assert fitted[0] and [c.shape for c in pinv_calls] == [(1, 7, 6)]
    assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))


def test_zero_diagonal_of_r_takes_the_pseudo_inverse(pinv_calls):
    # a collinear patch: the x2 columns vanish, R has a zero diagonal entry and
    # the bound is not finite
    x = np.column_stack([np.linspace(-1.0, 1.0, 7), np.zeros(7)])
    a = _quadratic_design(x)[None]
    assert np.linalg.qr(a, mode="r")[0, 2, 2] == 0.0
    coef = _least_squares(np.concatenate([a, np.exp(x[:, 0])[None, :, None]], axis=2))
    assert [c.shape for c in pinv_calls] == [(1, 7, 6)]
    assert np.all(np.isfinite(coef)) and np.all(coef[0, [2, 4, 5]] == 0.0)


@pytest.mark.parametrize("build", [
    lambda: cg.generate_disk_mesh(1.0, 0.1),
    lambda: cg.generate_disk_mesh(2.0, 0.07, inner_radius=0.5),
    lambda: cg.generate_interval_mesh(0.0, 1.0, 64),
    *[lambda path=path: load_config(path).build_domain().build() for path in SHIPPED],
])
def test_regular_meshes_never_take_the_pseudo_inverse(build, pinv_calls):
    mesh = build()
    every = np.arange(mesh.num_vertices)
    _, _, fitted = _patch_derivatives(mesh, np.sin(mesh.vertices[:, 0]), every)
    assert fitted[~mesh.is_boundary_vertex].all()
    assert pinv_calls == []


def test_recovered_gradients_exact_for_linear(disk_01):
    vals = 0.7 * disk_01.vertices[:, 0] - 0.2 * disk_01.vertices[:, 1]
    grads = recover_vertex_gradients(disk_01, vals)
    np.testing.assert_allclose(grads, np.broadcast_to([0.7, -0.2], grads.shape),
                               atol=1e-13)


def test_metric_validation():
    metric = cg.MetricField.radial_warp(2, gamma="1 + 3*r^2")
    pts = np.random.default_rng(0).uniform(-0.7, 0.7, size=(40, 2))
    assert metric.validate(pts)
    # a wrong gradient, injected through the stored gradient expressions
    metric.grad_gamma_exprs = [cg.parse_expression("0")] * 2
    with pytest.raises(ValueError, match="grad_gamma"):
        metric.validate(pts)
    negative = cg.MetricField.from_expressions(2, gamma="x1")
    with pytest.raises(ValueError):
        negative.gamma(np.array([[-0.5, 0.0]]))


def _mean_curvature_three_operand(metric, pts, du, hess, grad_c, hess_meets_g=False):
    # the dense (m, d, d) sigma^{-1} of the conformal leaf c^2 I, its
    # derivatives from the hand-written gradient ``grad_c`` of c, and the
    # three-operand einsums over them; with ``hess_meets_g`` the hessian
    # meets g = sigma^{-1} du, as in the scalar path, so that the products
    # associate alike
    d = metric.dim
    c = metric.conformal(pts)
    inv_sigma = np.eye(d) / (c ** 2)[:, None, None]
    gamma = metric.gamma(pts)
    ggam = metric.grad_gamma(pts)
    # d_i sigma^{-1} = -2 d_i c / c^3 I and d_i log sqrt(det sigma) = d d_i c / c
    d_inv = np.einsum("mi,kl->mikl", -2.0 * grad_c / (c ** 3)[:, None], np.eye(d))
    d_logsd = d * grad_c / c[:, None]
    g = np.einsum("mkl,ml->mk", inv_sigma, du)
    w = np.sqrt(gamma + np.einsum("mk,mk->m", du, g))
    dw = (ggam + np.einsum("mikl,mk,ml->mi", d_inv, du, du)
          + 2.0 * (np.einsum("mik,mk->mi", hess, g) if hess_meets_g
                   else np.einsum("mkl,mik,ml->mi", inv_sigma, hess, du))
          ) / (2.0 * w[:, None])
    div_x = (np.einsum("miil,ml->m", d_inv, du) / w
             + np.einsum("mil,mil->m", inv_sigma, hess) / w
             - np.einsum("mi,mi->m", g, dw) / w**2)
    div_sigma = div_x + np.einsum("mi,mi->m", g, d_logsd) / w
    return div_sigma - np.einsum("mi,mi->m", ggam, g) / (2.0 * gamma * w)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["flat", "radial-warp", "conformal"])
def test_mean_curvature_matches_three_operand_einsums(dim, kind):
    metric = {
        "flat": lambda: cg.MetricField.euclidean(dim),
        "radial-warp": lambda: cg.MetricField.radial_warp(dim, gamma="1 + 2*r^2"),
        "conformal": lambda: cg.MetricField.from_expressions(
            dim, gamma="1 + x1^2", sigma_conformal="1 + 0.3*r^2"),
    }[kind]()
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-0.8, 0.8, size=(200, dim))
    du = rng.standard_normal((200, dim))
    hess = rng.standard_normal((200, dim, dim))
    hess = hess + hess.transpose(0, 2, 1)
    grad_c = 0.6 * pts if kind == "conformal" else np.zeros_like(pts)
    new = mean_curvature_from_derivatives(metric, pts, du, hess)
    old = _mean_curvature_three_operand(metric, pts, du, hess, grad_c)
    np.testing.assert_allclose(new, old, rtol=1e-13, atol=1e-13 * np.max(np.abs(old)))
    if kind != "conformal":
        # the dense path the scalar one replaced, bit for bit, where c = 1
        dense = _mean_curvature_three_operand(metric, pts, du, hess, grad_c,
                                              hess_meets_g=True)
        assert new.tobytes() == dense.tobytes()


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_conformal_derivatives_match_central_differences(path):
    # the metric terms of the curvature operator from the symbolic grad c
    # against the central differences of 1/c^2 and log c^d they replaced, at
    # the cell quadrature points of the config's mesh
    cfg = load_config(path)
    mesh = cfg.build_domain().build()
    metric = cfg.build_metric(mesh.dim)
    pts = mesh.cell_points.reshape(-1, mesh.dim)
    c, grad_c, d = metric.conformal(pts), metric.grad_conformal(pts), mesh.dim
    shifted = _difference_points(pts)
    for got, f in ((-2.0 * grad_c / (c ** 3)[:, None], lambda x: 1.0 / metric.conformal(x) ** 2),
                   (d * grad_c / c[:, None], lambda x: np.log(metric.conformal(x) ** d))):
        want = np.stack([(f(xp) - f(xm)) / two_step for xp, xm, two_step in shifted], axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)))


def _einsum_mean_curvature(metric, pts, du, hess):
    # the operator as it was written, kept as the reference: the metric's
    # four evaluators and np.einsum contractions
    c = metric.conformal(pts)
    inv_c2 = 1.0 / c ** 2
    gamma = metric.gamma(pts)
    ggam = metric.grad_gamma(pts)
    gc3 = metric.grad_conformal(pts) / (c ** 3)[:, None]
    g = inv_c2[:, None] * du
    w = np.sqrt(gamma + np.einsum("mk,mk->m", du, g))
    dw = (ggam - 2.0 * np.einsum("mi,mk,mk->mi", gc3, du, du)
          + 2.0 * np.einsum("mik,mk->mi", hess, g)) / (2.0 * w[:, None])
    div_sigma = ((metric.dim - 2) * np.einsum("mi,mi->m", gc3, du) / w
                 + np.einsum("m,mii->m", inv_c2, hess) / w
                 - np.einsum("mi,mi->m", g, dw) / w**2)
    return div_sigma - np.einsum("mi,mi->m", ggam, g) / (2.0 * gamma * w)


def _einsum_slope_factor(metric, pts, du):
    inv_c2 = 1.0 / metric.conformal(pts) ** 2
    return np.sqrt(metric.gamma(pts) + np.einsum("ki,k,ki->k", du, inv_c2, du))


_METRICS = {
    "flat": lambda dim: cg.MetricField.euclidean(dim),
    "radial-warp": lambda dim: cg.MetricField.radial_warp(dim, gamma="1 + 20*r^2"),
    "conformal": lambda dim: cg.MetricField.from_expressions(
        dim, gamma="1 + x1^2", sigma_conformal="2/(1 + 0.2*r^2)"),
}


def _signed_zeros(rng, a):
    # about 30% of the entries become zeros, half of them -0.0
    a = a.copy()
    a[rng.random(a.shape) < 0.3] = 0.0
    a[(a == 0.0) & (rng.random(a.shape) < 0.5)] = -0.0
    return a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.sampled_from([1, 2]), kind=st.sampled_from(sorted(_METRICS)),
       seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40))
def test_operator_and_slope_factor_match_their_einsum_forms_bit_for_bit(dim, kind, seed, m):
    metric = _METRICS[kind](dim)
    rng = np.random.default_rng(seed)
    pts = _signed_zeros(rng, rng.uniform(-0.9, 0.9, size=(m, dim)))
    du = _signed_zeros(rng, rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-3, 3, (m, dim)))
    hess = rng.standard_normal((m, dim, dim))
    hess = _signed_zeros(rng, hess + hess.transpose(0, 2, 1))
    # rows with zero derivatives, to reach signed zeros in the output
    flat = rng.random(m) < 0.3
    du[flat], hess[flat] = -0.0, 0.0
    for new, old in ((mean_curvature_from_derivatives(metric, pts, du, hess),
                      _einsum_mean_curvature(metric, pts, du, hess)),
                     (cg.slope_factor(metric, pts, du), _einsum_slope_factor(metric, pts, du))):
        np.testing.assert_array_equal(np.signbit(new), np.signbit(old))
        assert new.tobytes() == old.tobytes()


def test_operator_names_a_failing_conformal_gradient_and_its_point():
    metric = cg.MetricField.from_expressions(2, sigma_conformal="1 + 0.2*r")
    pts = np.array([[0.5, 0.1], [0.0, 0.0]])
    with pytest.raises(EvaluationError) as err:
        mean_curvature_from_derivatives(metric, pts, np.ones((2, 2)), np.zeros((2, 2, 2)))
    assert str(err.value) == ("sigma_conformal: d/dx1 = 0.2*x1/r: division by zero "
                              "at x = (0.0, 0.0)")


def test_operator_checks_gamma_before_the_conformal_gradient():
    # gamma < 0 at the second point and grad c fails at the first: the
    # operator raises gamma's error, as the evaluators run in that order
    metric = cg.MetricField.from_expressions(2, gamma="1 - 2*r^2", sigma_conformal="1 + 0.2*r")
    pts = np.array([[0.0, 0.0], [0.9, 0.0]])
    with pytest.raises(ValueError, match="^gamma must be finite and positive$"):
        mean_curvature_from_derivatives(metric, pts, np.ones((2, 2)), np.zeros((2, 2, 2)))


def _einsum_calls(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"):
            yield node


def test_package_has_no_einsum_of_three_operands():
    # numpy runs a three-operand einsum on its slow generic loop; the package
    # writes such contractions as sums over the components instead
    src = Path(cg.__file__).parent
    found = [f"{path.name}:{call.lineno}"
             for path in sorted(src.glob("*.py"))
             for call in _einsum_calls(ast.parse(path.read_text()))
             if len(call.args) - 1 >= 3]
    assert found == []


def test_only_expressions_reads_an_expression_tree():
    # the tree format stays inside capgraph.expressions: other modules pass
    # Expression objects, to a tape among others, and never read ._root
    src = Path(cg.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py")) if path.name != "expressions.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "_root"]
    assert found == []
