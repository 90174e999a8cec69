"""Confinement domains: signed distance, outward normal, projection, reflection.

Every supported domain has a closed-form signed distance (negative inside,
zero on the wall, positive outside), so hit detection and wall projection
introduce no geometric approximation error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousProjection, NotUnitNormal

__all__ = [
    "Domain",
    "Interval",
    "Ball",
    "Annulus",
    "BoundaryClass",
    "reflect",
    "normal_velocity",
    "classify",
]

EPS_TAN_DEFAULT = 1e-12  # |u.n| <= EPS_TAN_DEFAULT*|u| counts as a tangential graze


class BoundaryClass(enum.Enum):
    INTERIOR = "interior"
    INCOMING = "incoming"    # (u . n) < 0
    OUTGOING = "outgoing"    # (u . n) > 0
    TANGENTIAL = "tangential"


@dataclass(frozen=True)
class Domain:
    """Base type; use Interval, Ball or Annulus."""

    dimension: int = 0

    def signed_distance(self, x):
        """Closed-form signed distance; negative inside, positive outside."""
        raise NotImplementedError

    def outward_normal(self, x):
        """Unit outward normal at the wall point nearest x.

        Raises AmbiguousProjection when x sits outside the uniqueness band
        (L/2, R/2, (R-r)/2 per domain kind).
        """
        raise NotImplementedError

    def project(self, x):
        """Closed-form projection onto the nearest wall; sd(project(x)) = 0."""
        raise NotImplementedError

    def sample_uniform(self, n, rng):
        """n positions uniform over the domain, rng a numpy Generator."""
        raise NotImplementedError


@dataclass(frozen=True)
class Interval(Domain):
    """D = (0, L) in one dimension."""

    length: float = 1.0
    dimension: int = field(default=1, init=False)

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("interval length must be positive")

    def signed_distance(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(-x, x - self.length)

    def outward_normal(self, x):
        band = 0.5 * self.length
        x = float(np.asarray(x).reshape(()))
        if abs(self.signed_distance(x)) >= band:
            raise AmbiguousProjection(
                f"x={x} outside the band |sd| < {band} around the walls"
            )
        return -1.0 if x < 0.5 * self.length else 1.0

    def project(self, x):
        x = float(np.asarray(x).reshape(()))
        if x == 0.5 * self.length:
            raise AmbiguousProjection("midpoint is equidistant from both walls")
        return 0.0 if x < 0.5 * self.length else self.length

    def sample_uniform(self, n, rng):
        return self.length * rng.uniform(size=n)


@dataclass(frozen=True)
class Ball(Domain):
    """D = open ball of given center and radius, d >= 2."""

    center: tuple = (0.0, 0.0)
    radius: float = 1.0
    dimension: int = field(default=0, init=False)

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        if len(center) < 2:
            raise ValueError("ball requires dimension >= 2")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dimension", len(center))

    def _radial(self, x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - np.asarray(self.center), axis=-1)

    def signed_distance(self, x):
        return self._radial(x) - self.radius

    def outward_normal(self, x):
        band = 0.5 * self.radius
        x = np.asarray(x, dtype=float)
        rho = float(self._radial(x))
        if abs(rho - self.radius) >= band:
            raise AmbiguousProjection(
                f"|sd|={abs(rho - self.radius)} outside the band < {band}"
            )
        return (x - np.asarray(self.center)) / rho

    def project(self, x):
        x = np.asarray(x, dtype=float)
        rho = float(self._radial(x))
        if rho == 0.0:
            raise AmbiguousProjection("ball center projects to every wall point")
        c = np.asarray(self.center)
        return c + (self.radius / rho) * (x - c)

    def sample_uniform(self, n, rng):
        d = self.dimension
        z = rng.standard_normal(size=(n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = self.radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
        return np.asarray(self.center) + r * z


@dataclass(frozen=True)
class Annulus(Domain):
    """D = {r < |x - c| < R}, d >= 2."""

    center: tuple = (0.0, 0.0)
    inner_radius: float = 1.0
    radius: float = 2.0
    dimension: int = field(default=0, init=False)

    def __post_init__(self):
        if not (0 < self.inner_radius < self.radius):
            raise ValueError("annulus requires 0 < inner_radius < radius")
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        if len(center) < 2:
            raise ValueError("annulus requires dimension >= 2")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dimension", len(center))

    def _radial(self, x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - np.asarray(self.center), axis=-1)

    def signed_distance(self, x):
        rho = self._radial(x)
        return np.maximum(self.inner_radius - rho, rho - self.radius)

    def outward_normal(self, x):
        band = 0.5 * (self.radius - self.inner_radius)
        x = np.asarray(x, dtype=float)
        rho = float(self._radial(x))
        if abs(float(self.signed_distance(x))) >= band:
            raise AmbiguousProjection(
                f"point at radius {rho} outside the band < {band} around a wall"
            )
        radial = (x - np.asarray(self.center)) / rho
        # outward from D: toward the center at the inner wall
        if rho < 0.5 * (self.inner_radius + self.radius):
            return -radial
        return radial

    def project(self, x):
        x = np.asarray(x, dtype=float)
        rho = float(self._radial(x))
        if rho == 0.0:
            raise AmbiguousProjection("annulus center projects to every inner point")
        mid = 0.5 * (self.inner_radius + self.radius)
        if rho == mid:
            raise AmbiguousProjection("mid-shell point is equidistant from both walls")
        target = self.inner_radius if rho < mid else self.radius
        c = np.asarray(self.center)
        return c + (target / rho) * (x - c)

    def sample_uniform(self, n, rng):
        d = self.dimension
        z = rng.standard_normal(size=(n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        lo, hi = self.inner_radius**d, self.radius**d
        r = (lo + (hi - lo) * rng.uniform(size=(n, 1))) ** (1.0 / d)
        return np.asarray(self.center) + r * z


def reflect(u, n):
    """Specular reflection u - 2(u.n)n; in d=1 the exact sign flip -u."""
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-12:
        raise NotUnitNormal(f"|n|={norm} deviates from 1")
    if np.ndim(n) == 0:
        return -u if np.ndim(u) == 0 else -np.asarray(u, dtype=float)
    u = np.asarray(u, dtype=float)
    return u - 2.0 * normal_velocity(u, n) * np.asarray(n, dtype=float)


def normal_velocity(u, n) -> float:
    """u . n for a velocity and a wall normal; in d=1 the product u*n."""
    return float(np.dot(np.atleast_1d(u), np.atleast_1d(n)))


def classify(domain, x, u, eps_bd):
    """Interior / incoming / outgoing / tangential at (x, u).

    Interior whenever sd(x) < -eps_bd; otherwise classified by the sign of
    (u . n) at the projected wall point, with a relative tangential band.
    """
    sd = float(np.asarray(domain.signed_distance(x)).reshape(()))
    if sd < -eps_bd:
        return BoundaryClass.INTERIOR
    un = normal_velocity(u, domain.outward_normal(x))
    if abs(un) <= EPS_TAN_DEFAULT * float(np.linalg.norm(u)):
        return BoundaryClass.TANGENTIAL
    return BoundaryClass.OUTGOING if un > 0 else BoundaryClass.INCOMING

