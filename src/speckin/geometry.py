"""Confinement domains: signed distance, outward normal, projection, reflection.

Every supported domain has a closed-form signed distance (negative inside,
zero on the wall, positive outside), so hit detection and wall projection
introduce no geometric approximation error.

Every operation takes batches of rows.  A domain method takes points of any
leading shape: the Interval works elementwise, Ball and Annulus read the last
axis as the vector axis, and a single point is a batch of its own.  The free
functions reflect and normal_velocity take rows: shape (n,) in d = 1 and
(n, d) otherwise, so a single d-vector u is passed as u[None].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousProjection, NotUnitNormal

__all__ = [
    "Domain",
    "Interval",
    "Ball",
    "Annulus",
    "reflect",
    "normal_velocity",
    "row_dot",
    "row_norm",
]


@dataclass(frozen=True)
class Domain:
    """Base type; use Interval, Ball or Annulus."""

    dimension: int = 0

    def signed_distance(self, x):
        """Closed-form signed distance; negative inside, positive outside."""
        raise NotImplementedError

    def outward_normal(self, x):
        """Unit outward normal at the wall point nearest each x.

        Raises AmbiguousProjection when any x sits outside the uniqueness
        band (L/2, R/2, (R-r)/2 per domain kind).
        """
        raise NotImplementedError

    def project(self, x):
        """Closed-form projection onto the nearest wall; sd(project(x)) = 0.

        Raises AmbiguousProjection when any x has no unique nearest wall point.
        """
        raise NotImplementedError

    def sample_uniform(self, n, rng):
        """n positions uniform over the domain, rng a numpy Generator."""
        raise NotImplementedError


def _refuse(bad, what: str):
    if np.any(bad):
        raise AmbiguousProjection(f"{int(np.count_nonzero(bad))} point(s) {what}")


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
        half = 0.5 * self.length  # the band, and the midpoint
        _refuse(np.abs(self.signed_distance(x)) >= half,
                f"outside the band |sd| < {half} around the walls")
        return np.where(np.asarray(x) < half, -1.0, 1.0)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        mid = 0.5 * self.length
        _refuse(x == mid, "at the midpoint, equidistant from both walls")
        return np.where(x < mid, 0.0, self.length)

    def sample_uniform(self, n, rng):
        return self.length * rng.uniform(size=n)


class _Radial(Domain):
    """Ball and Annulus: a center in d >= 2, and walls that are spheres
    around it."""

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        if len(center) < 2:
            raise ValueError(f"{type(self).__name__.lower()} requires dimension >= 2")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dimension", len(center))

    def _radial(self, x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - np.asarray(self.center), axis=-1)

    def _unit(self, x, rho):
        """(x - c) / |x - c| along the last axis."""
        _refuse(rho == 0.0, "at the center, which has no outward normal")
        return (np.asarray(x, dtype=float) - np.asarray(self.center)) / rho[..., None]

    def _to_radius(self, x, target, rho):
        """x moved along its ray from the center to radius target."""
        _refuse(rho == 0.0, "at the center, which projects to every wall point")
        c = np.asarray(self.center)
        return c + (target / rho)[..., None] * (np.asarray(x, dtype=float) - c)


@dataclass(frozen=True)
class Ball(_Radial):
    """D = open ball of given center and radius, d >= 2."""

    center: tuple = (0.0, 0.0)
    radius: float = 1.0
    dimension: int = field(default=0, init=False)

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        super().__post_init__()

    def signed_distance(self, x):
        return self._radial(x) - self.radius

    def outward_normal(self, x):
        band = 0.5 * self.radius
        rho = self._radial(x)
        _refuse(np.abs(rho - self.radius) >= band, f"outside the band |sd| < {band}")
        return self._unit(x, rho)

    def project(self, x):
        return self._to_radius(x, self.radius, self._radial(x))

    def sample_uniform(self, n, rng):
        d = self.dimension
        z = rng.standard_normal(size=(n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = self.radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
        return np.asarray(self.center) + r * z


@dataclass(frozen=True)
class Annulus(_Radial):
    """D = {r < |x - c| < R}, d >= 2."""

    center: tuple = (0.0, 0.0)
    inner_radius: float = 1.0
    radius: float = 2.0
    dimension: int = field(default=0, init=False)

    def __post_init__(self):
        if not (0 < self.inner_radius < self.radius):
            raise ValueError("annulus requires 0 < inner_radius < radius")
        super().__post_init__()

    def signed_distance(self, x):
        rho = self._radial(x)
        return np.maximum(self.inner_radius - rho, rho - self.radius)

    def outward_normal(self, x):
        band = 0.5 * (self.radius - self.inner_radius)
        _refuse(np.abs(self.signed_distance(x)) >= band,
                f"outside the band |sd| < {band} around a wall")
        rho = self._radial(x)
        radial = self._unit(x, rho)
        # outward from D: toward the center at the inner wall
        inner = rho < 0.5 * (self.inner_radius + self.radius)
        return np.where(inner[..., None], -radial, radial)

    def project(self, x):
        rho = self._radial(x)
        mid = 0.5 * (self.inner_radius + self.radius)
        _refuse(rho == mid, "mid-shell, equidistant from both walls")
        target = np.where(rho < mid, self.inner_radius, self.radius)
        return self._to_radius(x, target, rho)

    def sample_uniform(self, n, rng):
        d = self.dimension
        z = rng.standard_normal(size=(n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        lo, hi = self.inner_radius**d, self.radius**d
        r = (lo + (hi - lo) * rng.uniform(size=(n, 1))) ** (1.0 / d)
        return np.asarray(self.center) + r * z


def row_dot(U, N):
    """Per-row dot products of two (n, d) batches.

    Each equals np.dot of its two rows bit for bit: matmul takes the same
    dot product, where an axis-wise sum such as np.einsum('ij,ij->i') adds
    in another order.
    """
    return np.matmul(U[:, None, :], N[:, :, None])[:, 0, 0]


def row_norm(U):
    """Per-row lengths: |u| in d=1, else each bit-identical to np.linalg.norm
    of its row, which takes the same dot product on one vector."""
    return np.abs(U) if U.ndim <= 1 else np.sqrt(row_dot(U, U))


def normal_velocity(U, N):
    """u . n per row of velocities U and wall normals N; in d=1 the product U*N."""
    U, N = np.asarray(U, dtype=float), np.asarray(N, dtype=float)
    return U * N if U.ndim <= 1 else row_dot(U, N)


def reflect(U, N):
    """Specular reflection u - 2(u.n)n per row; in d=1 the exact sign flip -u.

    Raises NotUnitNormal when any normal's length deviates from 1 by more
    than 1e-12.
    """
    U, N = np.asarray(U, dtype=float), np.asarray(N, dtype=float)
    length = row_norm(N)
    if np.any(np.abs(length - 1.0) > 1e-12):
        raise NotUnitNormal(f"|n| deviates from 1 by up to {np.max(np.abs(length - 1.0))}")
    if U.ndim <= 1:
        return -U
    return U - (2.0 * row_dot(U, N))[:, None] * N
