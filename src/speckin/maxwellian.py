"""Exponentially tilted Gaussian-power families used as density envelopes.

A family member is P(t,u) = e^{a t} * m(t,u)^mu with m(t,u) = kappa * G(s + sigma^2 t, u),
where G(v, .) is the centered heat kernel with variance parameter v.  Because the
core is Gaussian, every time/velocity derivative is closed-form, so applying the
kinetic generator to P and locating the sign thresholds in the rate `a` are exact
computations rather than discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent
from .weights import (
    WeightParams,
    default_weight,
    speed_squared,
    sphere_area,
    stabilized_radial_quad,
)


def heat_kernel(variance, u, dimension=1):
    """Centered Gaussian density G(v,u) = (2 pi v)^(-d/2) exp(-|u|^2 / (2v))."""
    v = np.asarray(variance, dtype=float)
    sq = speed_squared(u, dimension)
    return (2.0 * np.pi * v) ** (-dimension / 2.0) * np.exp(-sq / (2.0 * v))


@dataclass(frozen=True)
class GaussianCore:
    """Gaussian profile kappa * G(s, u): the mu-th root of the t=0 density."""

    kappa: float
    s: float

    def __post_init__(self):
        if self.kappa <= 0 or self.s <= 0:
            raise ValueError(f"kappa and s must be positive, got {self.kappa}, {self.s}")


@dataclass(frozen=True)
class MaxwellianParams:
    a: float
    mu: float
    core: GaussianCore
    sigma: float
    dimension: int = 1

    def __post_init__(self):
        if not 2.0 * self.mu > 1.0:
            raise InvalidExponent(f"need 2*mu > 1, got mu={self.mu}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension}")

    def core_variance(self, t):
        return self.sigma**2 * np.asarray(t, dtype=float) + self.core.s


def maxwellian_eval(params: MaxwellianParams, t, u):
    """P(t,u) = e^{a t} [kappa * G(sigma^2 t + s, u)]^mu; broadcasts over t and u."""
    v = params.core_variance(t)
    m = params.core.kappa * heat_kernel(v, u, params.dimension)
    return np.exp(params.a * np.asarray(t, dtype=float)) * m**params.mu


def super_sub_thresholds(mu: float, sigma: float, B_norm: float) -> float:
    """Critical rate `a` separating one-signed generator action on the family.

    For mu in (0,1) returns the smallest admissible rate
    a_min = mu*B^2 / (2 sigma^2 (1-mu)): any a >= a_min keeps the generator
    nonnegative on the family.  For mu > 1 returns the largest admissible rate
    a_max = -mu*B^2 / (2 sigma^2 (mu-1)): any a <= a_max keeps it nonpositive.
    """
    if mu <= 0 or mu == 1.0:
        raise InvalidExponent(f"thresholds require mu in (0,1) or mu > 1, got {mu}")
    if B_norm < 0:
        raise ValueError(f"B_norm must be nonnegative, got {B_norm}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if mu < 1.0:
        return mu * B_norm**2 / (2.0 * sigma**2 * (1.0 - mu))
    return -mu * B_norm**2 / (2.0 * sigma**2 * (mu - 1.0))


def lB_apply(params: MaxwellianParams, B, t, u):
    """Kinetic generator (d/dt + B . grad_u - (sigma^2/2) Lap_u) applied to P.

    With v = sigma^2 t + s the closed form is
        P(t,u) * [ a - (sigma^2/2) mu (mu-1) |u|^2 / v^2 - mu (B.u) / v ];
    the heat-kernel part of d/dt cancels against the Laplacian exactly.
    """
    d = params.dimension
    v = params.core_variance(t)
    u = np.asarray(u, dtype=float)
    B = np.asarray(B, dtype=float)
    sq = speed_squared(u, d)
    if d == 1 and u.shape == sq.shape:
        dot = B * u
    else:
        dot = np.sum(B * u, axis=-1)
    mu, sig = params.mu, params.sigma
    bracket = params.a - 0.5 * sig**2 * mu * (mu - 1.0) * sq / v**2 - mu * dot / v
    return maxwellian_eval(params, t, u) * bracket


@dataclass(frozen=True)
class EnvelopeSpec:
    """Shape knobs of the envelope pair built by envelope_for_gaussian."""

    mu_lower: float = 2.0
    mu_upper: float = 0.75
    spread: float = 2.0
    pad: float = 0.1
    rate_margin: float = 0.1


def envelope_for_gaussian(
    s0: float,
    u_mean: float,
    amplitude: float,
    sigma: float,
    b_norm: float,
    spec: EnvelopeSpec = EnvelopeSpec(),
) -> tuple:
    """Radial envelope pair sandwiching amplitude * G(s0, u - u_mean) in d=1.

    The upper member decays slower than the data (core variance spread*mu*s0
    per member keeps the u^2 coefficient of the log-ratio one-signed), the
    lower member faster; kappa is set from the log-ratio vertex so the worst
    ratio across u equals 1 + pad.  Rates sit rate_margin beyond the critical
    thresholds, so the pair stays super/sub along the flow for any drift
    bounded by b_norm.  The knobs come from spec.
    """
    mu_lower, mu_upper, spread, pad = spec.mu_lower, spec.mu_upper, spec.spread, spec.pad
    if not 0.5 < mu_upper < 1.0:
        raise InvalidExponent(f"mu_upper must lie in (1/2, 1), got {mu_upper}")
    if not mu_lower > 1.0:
        raise InvalidExponent(f"mu_lower must exceed 1, got {mu_lower}")
    if spread <= 1.0:
        raise ValueError(f"spread must exceed 1, got {spread}")
    if amplitude <= 0 or s0 <= 0 or pad <= 0:
        raise ValueError("amplitude, s0 and pad must be positive")
    c = float(u_mean)
    log_amp = np.log(amplitude) - 0.5 * np.log(2.0 * np.pi * s0)

    def member(mu, s_m, sign):
        """The member with exponent mu and core variance s_m; sign +1 gives
        the upper one, -1 the lower one, whose formulas mirror its signs."""
        a_coef = sign * (0.5 / s0 - 0.5 * mu / s_m)
        vertex = (c / s0) ** 2 / (4.0 * a_coef)
        log_kappa = (
            sign * np.log1p(pad) - c**2 / (2.0 * s0) + sign * vertex + log_amp
            + 0.5 * mu * np.log(2.0 * np.pi * s_m)
        ) / mu
        return MaxwellianParams(
            a=super_sub_thresholds(mu, sigma, b_norm) + sign * spec.rate_margin,
            mu=mu,
            core=GaussianCore(kappa=float(np.exp(log_kappa)), s=s_m),
            sigma=sigma,
        )

    return (member(mu_lower, mu_lower * s0 / spread, -1.0),
            member(mu_upper, spread * mu_upper * s0, 1.0))


@dataclass(frozen=True)
class MassBounds:
    sup_weighted_l2: float
    inf_mass: float


def weighted_square_mass(
    params: MaxwellianParams,
    t: float,
    weight: WeightParams,
    rtol: float = 1e-6,
) -> float:
    """int (1+|u|) omega(u) P(t,u)^2 du (radial)."""
    d = params.dimension
    v = float(params.core_variance(t))
    amp = np.exp(params.a * t) * (params.core.kappa * (2.0 * np.pi * v) ** (-d / 2.0)) ** params.mu

    def radial(r):
        density = amp * np.exp(-params.mu * r * r / (2.0 * v))
        w = (1.0 + r * r) ** (weight.alpha / 2.0)
        return r ** (d - 1) * (1.0 + r) * w * density**2

    return sphere_area(d) * stabilized_radial_quad(radial, rtol=rtol)


def total_mass(params: MaxwellianParams, t: float, rtol: float = 1e-6) -> float:
    """int P(t,u) du by stabilized radial quadrature."""
    d = params.dimension
    v = float(params.core_variance(t))
    amp = np.exp(params.a * t) * (params.core.kappa * (2.0 * np.pi * v) ** (-d / 2.0)) ** params.mu

    def radial(r):
        return r ** (d - 1) * amp * np.exp(-params.mu * r * r / (2.0 * v))

    return sphere_area(d) * stabilized_radial_quad(radial, rtol=rtol)


def maxwellian_mass_bounds(
    params: MaxwellianParams,
    horizon: float,
    weight: WeightParams | None = None,
    rtol: float = 1e-6,
) -> MassBounds:
    """sup_t of the speed-weighted L2 mass and inf_t of the plain mass on [0, T].

    Both extrema are taken over 33 uniform times; each time slice is an
    adaptive radial quadrature.  The weighted supremum is finite whenever
    2*mu > 1 and the infimum is positive (mass does not vanish) for mu >= 1.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if weight is None:
        weight = default_weight(params.dimension)
    times = np.linspace(0.0, horizon, 33)
    sup_l2 = max(weighted_square_mass(params, t, weight, rtol=rtol) for t in times)
    inf_mass = min(total_mass(params, t, rtol=rtol) for t in times)
    return MassBounds(sup_weighted_l2=sup_l2, inf_mass=inf_mass)
