import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capgraph as cg
from capgraph.problem import (
    effective_constants,
    random_positive_gravity_problem,
    validate_conditions,
)
from capgraph.verify import mms_manufacture


def make(dim, psi, phi="0", **kw):
    return cg.CapillaryProblem.from_expressions(dim, psi, phi, **kw)


def test_validation_passes_linear_gravity(disk_01, euclid2):
    report = validate_conditions(make(2, "s"), disk_01, euclid2, (-2, 2))
    assert report.passed
    assert report.beta == pytest.approx(1.0)
    assert report.mu == pytest.approx(0.0)


def test_validation_negative_mu_still_passes(disk_01, euclid2):
    report = validate_conditions(make(2, "-1 + s", "0.5"), disk_01, euclid2, (-2, 2))
    assert report.passed
    assert report.mu == pytest.approx(-1.0)
    assert report.beta_prime >= 0.75 - 1e-12


def test_validation_detects_gravity_sign_change(disk_01, euclid2):
    report = validate_conditions(make(2, "sin(s)"), disk_01, euclid2, (-3, 3))
    assert not report.passed
    assert not report.conditions["positive-gravity"].passed


def test_validation_detects_inconsistent_declared_derivative(disk_01, euclid2):
    prob = make(2, "1 + s", dpsi_ds="2")       # wrong by a factor of two
    report = validate_conditions(prob, disk_01, euclid2, (-1, 1))
    assert not report.conditions["dpsi-consistency"].passed


def test_validation_detects_increasing_phi(disk_01, euclid2):
    report = validate_conditions(make(2, "1 + s", "0.1*tanh(s)"), disk_01, euclid2,
                                 (-1, 1))
    assert not report.conditions["angle-monotone"].passed
    report = validate_conditions(make(2, "1 + s", "-0.1*tanh(s)"), disk_01, euclid2,
                                 (-1, 1))
    assert report.conditions["angle-monotone"].passed


def test_validation_checks_declared_bounds(disk_01, euclid2):
    report = validate_conditions(make(2, "1 + s", "0.5", c_phi=0.4), disk_01,
                                 euclid2, (-1, 1))
    assert not report.conditions["angle-bound"].passed


def test_height_bound_flat(disk_01, euclid2):
    c = 2.5
    assert cg.height_bound(make(2, f"{c} + s"), euclid2, disk_01) == pytest.approx(c)
    assert cg.height_bound(make(2, "s"), euclid2, disk_01) == pytest.approx(0.0)


def test_height_bound_warp_ratio(disk_01):
    # gamma in [1, 4] over the unit disk: sup|Y|/inf|Y| = 2
    metric = cg.MetricField.radial_warp(2, gamma="1 + 3*r^2")
    c = 1.3
    b = cg.height_bound(make(2, f"{c} + s"), metric, disk_01)
    assert b == pytest.approx(2 * c, rel=1e-12)


def test_height_bound_scales_with_mu(disk_01, euclid2):
    b1 = cg.height_bound(make(2, "1 + s"), euclid2, disk_01)
    b2 = cg.height_bound(make(2, "2 + s"), euclid2, disk_01)
    assert b2 == pytest.approx(2 * b1)


def test_height_bound_negative_mu_clamped(disk_01, euclid2):
    assert cg.height_bound(make(2, "-1 + s"), euclid2, disk_01) == 0.0


def test_height_bound_requires_positive_gravity(disk_01, euclid2):
    with pytest.raises(ValueError, match="positive gravity"):
        cg.height_bound(make(2, "1"), euclid2, disk_01)


def test_larger_s_range_shrinks_beta(disk_01, euclid2):
    prob = make(2, "s + 0.1*s^2")
    narrow = validate_conditions(prob, disk_01, euclid2, (-1, 1))
    wide = validate_conditions(prob, disk_01, euclid2, (-4, 4))
    assert wide.beta <= narrow.beta + 1e-12


def test_declared_constants_reconciled_safely(disk_01, euclid2):
    # declared beta larger than the sampled slope: the sampled one wins
    beta, mu, ratio = effective_constants(make(2, "1 + s", beta=5.0, mu=0.2),
                                          euclid2, disk_01)
    assert beta == pytest.approx(1.0)
    assert mu == pytest.approx(1.0)
    assert ratio == pytest.approx(1.0)


@pytest.mark.parametrize("dim,warp", [(1, False), (1, True), (2, False), (2, True)])
def test_random_family_is_admissible(dim, warp):
    rng = np.random.default_rng(5)
    prob, metric = random_positive_gravity_problem(rng, dim, warp=warp)
    mesh = (cg.generate_interval_mesh(0, 1, 16) if dim == 1
            else cg.generate_disk_mesh(1.0, 0.3))
    report = validate_conditions(prob, mesh, metric, (-3, 3))
    assert report.passed
    assert report.mu >= 0
    # negative angle data come with warp slack, in 1D as in 2D
    ratio = effective_constants(prob, metric, mesh)[2]
    assert ratio >= 4.0 if warp else ratio == 1.0


# ---------------------------------------------------------------------------
# Endpoint sampling of data affine in s


def assert_same_report(fast, full):
    """Reports equal to the bit, except the finite-difference roundoff figure
    of dpsi-consistency (its pass/fail must agree)."""
    for name in ("beta", "mu", "beta_prime", "c_psi", "c_phi", "passed"):
        assert getattr(fast, name) == getattr(full, name), name
    assert fast.conditions.keys() == full.conditions.keys()
    for name, cond in fast.conditions.items():
        assert cond.passed == full.conditions[name].passed, name
        if name != "dpsi-consistency":
            assert cond.worst == full.conditions[name].worst, name


@pytest.mark.parametrize("psi,phi,kw,affine", [
    ("1 + s", "0.3", {}, True),
    ("2 + x1*s - r^2", "0.2 - 0.1*s + 0.05*x2", {}, True),
    ("1 + s", "0.1*tanh(s)", {}, False),
    ("1 + s + 0.1*s^3", "0", {}, False),
    ("1 + s", "0", {"dpsi_ds": "1 + 0.1*s^2"}, False),
    ("1 + s + abs(s)", "0", {"dpsi_ds": "1"}, False),
])
def test_affine_in_s_detection(psi, phi, kw, affine):
    # abs(s) has no symbolic s-derivative: detection says "not affine"
    # instead of raising
    assert make(2, psi, phi, **kw).affine_in_s is affine


@pytest.mark.parametrize("kw", [{}, {"dpsi_ds": "1", "dphi_ds": "0"}])
def test_s_derivatives_taken_once(monkeypatch, kw):
    # one symbolic s-derivative each of psi and phi serves both the data
    # callables and the affine test
    import capgraph.problem as problem_module
    taken = []

    def counted(expr):
        taken.append(expr.source)
        return expr.derivative("s")

    monkeypatch.setattr(problem_module, "symbolic_s_derivative", counted)
    assert make(2, "1 + s", "0.3", **kw).affine_in_s
    assert taken == ["1 + s", "0.3"]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       warp=st.booleans(), phi_slope=st.sampled_from([0.0, 0.05]),
       lo=st.sampled_from([-4.0, -1.5, 0.0]), width=st.sampled_from([0.5, 3.0, 7.0]))
def test_endpoint_report_equals_full_grid(seed, dim, warp, phi_slope, lo, width):
    prob, metric = random_positive_gravity_problem(np.random.default_rng(seed), dim,
                                                   warp=warp)
    if phi_slope:
        prob = make(dim, prob.psi_source, f"{prob.phi_source} - {phi_slope!r}*s",
                    beta=prob.beta, mu=prob.mu, beta_prime=prob.beta_prime)
    assert prob.affine_in_s
    full = dataclasses.replace(prob, affine_in_s=False)
    mesh = (cg.generate_interval_mesh(0, 1, 16) if dim == 1
            else cg.generate_disk_mesh(1.0, 0.3))
    s_range = (lo, lo + width)
    assert_same_report(validate_conditions(prob, mesh, metric, s_range),
                       validate_conditions(full, mesh, metric, s_range))
    assert (effective_constants(prob, metric, mesh)
            == effective_constants(full, metric, mesh))


def test_manufactured_data_are_affine_in_s():
    mesh = cg.generate_disk_mesh(1.0, 0.3)
    metric = cg.MetricField.radial_warp(2, gamma="1 + r^2")
    prob = mms_manufacture(metric, mesh, "sqrt(4 - r^2)")
    assert prob.affine_in_s
    full = dataclasses.replace(prob, affine_in_s=False)
    assert_same_report(validate_conditions(prob, mesh, metric, (-3, 3)),
                       validate_conditions(full, mesh, metric, (-3, 3)))


@pytest.mark.parametrize("psi,heights", [("1 + s + 0.1*s^3", 21), ("1 + s", 2)])
def test_validation_samples_heights_by_s_structure(disk_01, euclid2, psi, heights):
    prob = make(2, psi)
    calls = []

    def counted(x, s):
        calls.append(s)
        return prob.psi(x, s)

    validate_conditions(dataclasses.replace(prob, psi=counted), disk_01, euclid2,
                        (-1, 1))
    # per height: psi itself, two x-differences per coordinate and two
    # s-differences; plus one call at s = 0 for mu
    assert len(calls) == heights * (1 + 2 * 2 + 2) + 1
