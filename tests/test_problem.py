import numpy as np
import pytest

import capgraph as cg
from capgraph.problem import (
    effective_constants,
    random_positive_gravity_problem,
    validate_conditions,
)


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


def test_problem_from_callables_defaults():
    prob = cg.CapillaryProblem.from_callables(
        1,
        psi=lambda x, s: 1.0 + np.asarray(s),
        dpsi_ds=lambda x, s: np.ones(len(np.atleast_2d(x))))
    x = np.array([[0.2], [0.8]])
    np.testing.assert_array_equal(prob.phi(x, np.zeros(2)), 0.0)
    np.testing.assert_array_equal(prob.dphi_ds(x, np.zeros(2)), 0.0)
