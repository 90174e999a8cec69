"""Polynomial velocity weights (1 + |u|^2)^(alpha/2) and their closed-form bounds.

The weight grows like |u|^alpha, its reciprocal is integrable for alpha > d,
and its first two derivatives are controlled by the weight itself.  Those
three facts are what the weighted-L2 machinery downstream relies on, so the
gradient and Laplacian are evaluated analytically here and the integrability
is certified by an adaptive quadrature that must stabilize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import InvalidExponent, QuadratureNonConvergent


def speed_squared(u, dimension):
    """|u|^2 for scalar/array velocities; last axis = components when d >= 2."""
    u = np.asarray(u, dtype=float)
    if dimension == 1 and (u.ndim == 0 or u.shape[-1] != dimension):
        return u * u
    return np.sum(u * u, axis=-1)


def sphere_area(dimension):
    """Surface measure of the unit sphere in R^d (2 for d=1)."""
    d = dimension
    return 2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)


@dataclass(frozen=True)
class WeightParams:
    """Velocity weight omega(u) = (1 + |u|^2)^(alpha/2) on R^d."""

    alpha: float
    dimension: int = 1

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension}")
        # alpha > max(d, 2): integrability of 1/omega and Laplacian control
        if not self.alpha > max(self.dimension, 2):
            raise InvalidExponent(
                f"alpha={self.alpha} must exceed max(dimension, 2)="
                f"{max(self.dimension, 2)}"
            )


def default_weight(dimension):
    """Smallest integer-exponent weight admissible in dimension d."""
    return WeightParams(alpha=max(dimension, 2) + 1, dimension=dimension)


@dataclass(frozen=True)
class WeightEval:
    value: np.ndarray
    gradient: np.ndarray
    laplacian: np.ndarray


def weight_eval(params: WeightParams, u) -> WeightEval:
    """Evaluate omega, grad omega and Delta omega at u (broadcasts).

    grad omega = alpha * u * (1+|u|^2)^(alpha/2 - 1)
    Delta omega = alpha*d*(1+|u|^2)^(alpha/2-1)
                  + alpha*(alpha-2)*|u|^2*(1+|u|^2)^(alpha/2-2)
    """
    a, d = params.alpha, params.dimension
    u = np.asarray(u, dtype=float)
    sq = speed_squared(u, d)
    base = 1.0 + sq
    value = base ** (a / 2.0)
    inner = a * base ** (a / 2.0 - 1.0)
    if d == 1 and u.shape == sq.shape:
        gradient = u * inner
    else:
        gradient = u * inner[..., None]
    laplacian = d * inner + a * (a - 2.0) * sq * base ** (a / 2.0 - 2.0)
    return WeightEval(value=value, gradient=gradient, laplacian=laplacian)


def subadditivity_constant(alpha):
    """Smallest power-of-two constant C with omega(u+v) <= C*(omega(u)+omega(v)).

    1+|u+v|^2 <= 2[(1+|u|^2) + (1+|v|^2)] and (x+y)^p <= 2^(p-1)(x^p+y^p)
    give C = 2^(alpha-1).  The naive 2^(alpha/2) fails for aligned vectors
    of norm above ~1.6 once alpha > 2.
    """
    return 2.0 ** (alpha - 1.0)


def stabilized_radial_quad(
    integrand: Callable[[np.ndarray], np.ndarray],
    rtol: float = 1e-6,
    max_doublings: int = 48,
) -> float:
    """Integrate f(r) over [0, inf) by doubling the truncation radius.

    Accumulates quadrature over [0, R], R = 1 -> 2R, ... until the latest shell
    contributes less than rtol of the running total twice in a row.  Raises
    QuadratureNonConvergent when the shells keep contributing (divergent or
    too-slowly-decaying integrands).
    """
    # scipy.integrate pulls in scipy.optimize and scipy.sparse; only this
    # function needs it, so the CLI start-up does not pay for it
    from scipy import integrate

    total, err_acc = integrate.quad(integrand, 0.0, 1.0, limit=200)
    lo, hi = 1.0, 2.0
    calm_rounds = 0
    for _ in range(max_doublings):
        shell, err = integrate.quad(integrand, lo, hi, limit=200)
        total += shell
        err_acc += err
        scale = max(abs(total), 1e-300)
        calm_rounds = calm_rounds + 1 if abs(shell) <= rtol * scale else 0
        if calm_rounds >= 2 and err_acc <= 10 * rtol * scale:
            return total
        lo, hi = hi, 2.0 * hi
    raise QuadratureNonConvergent(
        f"radial quadrature did not stabilize to rtol={rtol} "
        f"within {max_doublings} doublings (last total {total:.6g})"
    )


def inverse_weight_mass(params: WeightParams, rtol: float = 1e-6) -> float:
    """Integral of 1/omega over R^d, finite for alpha > d.

    Reduced to the radial integral S_{d-1} * int r^(d-1) (1+r^2)^(-alpha/2) dr
    and evaluated by stabilized adaptive quadrature.
    """
    a, d = params.alpha, params.dimension

    def radial(r):
        return r ** (d - 1) * (1.0 + r * r) ** (-a / 2.0)

    return sphere_area(d) * stabilized_radial_quad(radial, rtol=rtol)
