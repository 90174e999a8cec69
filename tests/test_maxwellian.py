"""Gaussian-power envelope family: evaluation, generator action, mass bounds."""

import numpy as np
import pytest
from scipy import integrate

from speckin.errors import InvalidExponent
from speckin.geometry import reflect
from speckin.maxwellian import (
    GaussianCore,
    MaxwellianParams,
    heat_kernel,
    lB_apply,
    maxwellian_eval,
    maxwellian_mass_bounds,
    super_sub_thresholds,
    total_mass,
    weighted_square_mass,
)
from speckin.weights import WeightParams

BASE = MaxwellianParams(a=0.0, mu=1.0, core=GaussianCore(kappa=1.0, s=1.0), sigma=1.0)


def test_eval_frozen_point():
    # unit-variance core smoothed for one unit of time: G(2, 0) = (4 pi)^(-1/2)
    assert maxwellian_eval(BASE, 1.0, 0.0) == pytest.approx(1 / np.sqrt(4 * np.pi), abs=1e-12)


def test_zero_time_identity():
    params = MaxwellianParams(a=0.7, mu=1.5, core=GaussianCore(2.0, 0.5), sigma=2.0)
    u = np.linspace(-3, 3, 11)
    p0 = (params.core.kappa * heat_kernel(params.core.s, u)) ** params.mu
    np.testing.assert_array_equal(maxwellian_eval(params, 0.0, u), p0)


def test_even_in_velocity():
    params = MaxwellianParams(a=-0.3, mu=2.0, core=GaussianCore(1.2, 0.8), sigma=0.7)
    u = np.linspace(-4, 4, 17)
    np.testing.assert_array_equal(
        maxwellian_eval(params, 0.5, u), maxwellian_eval(params, 0.5, -u)
    )


def test_reflection_invariance_2d():
    params = MaxwellianParams(a=0.1, mu=0.75, core=GaussianCore(1.0, 1.0), sigma=1.0, dimension=2)
    rng = np.random.default_rng(2)
    for _ in range(40):
        theta = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(theta), np.sin(theta)])
        u = rng.uniform(-3, 3, 2)
        assert maxwellian_eval(params, 0.3, reflect(u[None], n[None])[0]) == pytest.approx(
            maxwellian_eval(params, 0.3, u), rel=1e-12
        )


def test_rate_shift_scales_exponentially():
    shifted = MaxwellianParams(a=BASE.a + 0.9, mu=BASE.mu, core=BASE.core, sigma=BASE.sigma)
    t, u = 1.7, np.linspace(-2, 2, 9)
    np.testing.assert_allclose(
        maxwellian_eval(shifted, t, u),
        np.exp(0.9 * t) * maxwellian_eval(BASE, t, u),
        rtol=1e-14,
    )


def test_nonnegative():
    u = np.linspace(-8, 8, 101)
    assert np.all(maxwellian_eval(BASE, 0.25, u) >= 0)


def test_thresholds_frozen_values():
    assert super_sub_thresholds(0.75, 1.0, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert super_sub_thresholds(2.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-15)
    assert super_sub_thresholds(0.75, 1.0, 0.0) == 0.0
    assert super_sub_thresholds(2.0, 1.0, 0.0) == 0.0


def test_thresholds_invalid_exponent():
    for mu in (1.0, 0.0, -0.5):
        with pytest.raises(InvalidExponent):
            super_sub_thresholds(mu, 1.0, 1.0)
    with pytest.raises(ValueError):
        super_sub_thresholds(0.75, 1.0, -1.0)


def test_generator_vanishes_on_heat_flow():
    # a=0, mu=1, B=0: the family is the heat semigroup itself
    rng = np.random.default_rng(9)
    t = rng.uniform(0.05, 2.0, 200)
    u = rng.uniform(-5, 5, 200)
    np.testing.assert_allclose(lB_apply(BASE, 0.0, t, u), 0.0, atol=1e-10)


def test_generator_matches_finite_differences():
    params = MaxwellianParams(a=0.4, mu=1.3, core=GaussianCore(0.9, 1.1), sigma=1.2)
    B, t, u = 0.6, 0.8, 1.4
    h = 1e-5
    p = lambda tt, uu: maxwellian_eval(params, tt, uu)
    fd = (
        (p(t + h, u) - p(t - h, u)) / (2 * h)
        + B * (p(t, u + h) - p(t, u - h)) / (2 * h)
        - 0.5 * params.sigma**2 * (p(t, u + h) - 2 * p(t, u) + p(t, u - h)) / h**2
    )
    assert lB_apply(params, B, t, u) == pytest.approx(fd, rel=1e-5)


def _sign_samples(params, B, n=1000, seed=4):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n)
    u = rng.uniform(-10.0, 10.0, n)
    return lB_apply(params, B, t, u)


@pytest.mark.parametrize("b_norm", [0.5, 1.0, 2.0])
def test_super_side_nonnegative_sub_side_nonpositive(b_norm):
    sigma = 1.0
    a_min = super_sub_thresholds(0.75, sigma, b_norm)
    sup_params = MaxwellianParams(a=a_min + 0.1, mu=0.75, core=GaussianCore(1.0, 1.0), sigma=sigma)
    assert np.all(_sign_samples(sup_params, b_norm) >= -1e-10)

    a_max = super_sub_thresholds(2.0, sigma, b_norm)
    sub_params = MaxwellianParams(a=a_max - 0.1, mu=2.0, core=GaussianCore(1.0, 1.0), sigma=sigma)
    assert np.all(_sign_samples(sub_params, b_norm) <= 1e-10)


def test_wrong_side_rate_violates_sign():
    # push `a` to the wrong side by twice the 0.1 margin: a sign violation
    # must show up in the same sampling box
    a_min = super_sub_thresholds(0.75, 1.0, 1.0)
    bad_sup = MaxwellianParams(a=a_min - 0.2, mu=0.75, core=GaussianCore(1.0, 1.0), sigma=1.0)
    assert np.min(_sign_samples(bad_sup, 1.0)) < -1e-10

    a_max = super_sub_thresholds(2.0, 1.0, 1.0)
    bad_sub = MaxwellianParams(a=a_max + 0.2, mu=2.0, core=GaussianCore(1.0, 1.0), sigma=1.0)
    assert np.max(_sign_samples(bad_sub, 1.0)) > 1e-10


def test_mass_bounds_normalized_gaussian():
    bounds = maxwellian_mass_bounds(BASE, horizon=2.0, weight=WeightParams(3, 1))
    assert bounds.inf_mass == pytest.approx(1.0, rel=1e-6)
    assert np.isfinite(bounds.sup_weighted_l2) and bounds.sup_weighted_l2 > 0


def test_mass_bounds_rate_scaling():
    damped = MaxwellianParams(a=-1.0, mu=1.0, core=GaussianCore(1.0, 1.0), sigma=1.0)
    bounds = maxwellian_mass_bounds(damped, horizon=1.0)
    assert bounds.inf_mass == pytest.approx(np.exp(-1.0), rel=1e-6)


def test_weighted_square_mass_against_direct_quadrature():
    # independent quadrature of (1+|u|) omega * P(0,u)^2 over each half
    # line, no radial reduction
    w = WeightParams(3, 1)
    direct = sum(integrate.quad(
        lambda u: (1 + abs(u)) * (1 + u * u) ** 1.5 * maxwellian_eval(BASE, 0.0, u) ** 2,
        lo, hi,
    )[0] for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))
    mine = weighted_square_mass(BASE, 0.0, w)
    assert mine == pytest.approx(direct, rel=1e-6)


def test_total_mass_t_invariant_for_probability_core():
    for t in (0.0, 0.3, 1.7):
        assert total_mass(BASE, t) == pytest.approx(1.0, rel=1e-6)


def test_params_validation():
    with pytest.raises(InvalidExponent):
        MaxwellianParams(a=0.0, mu=0.5, core=GaussianCore(1.0, 1.0), sigma=1.0)
    with pytest.raises(ValueError):
        GaussianCore(kappa=-1.0, s=1.0)
    with pytest.raises(ValueError):
        GaussianCore(kappa=1.0, s=0.0)
    with pytest.raises(ValueError):
        MaxwellianParams(a=0.0, mu=1.0, core=GaussianCore(1.0, 1.0), sigma=-2.0)
