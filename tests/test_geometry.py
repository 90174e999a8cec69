"""Closed-form geometry: distances, normals, projection, reflection algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckin.config import build_domain, config_from_dict
from speckin.errors import AmbiguousProjection, NotUnitNormal
from speckin.geometry import Annulus, Ball, Interval, normal_velocity, reflect, row_dot, row_norm

BALL = Ball(center=(0.0, 0.0), radius=1.0)
ANNULUS = Annulus(center=(0.0, 0.0), inner_radius=1.0, radius=2.0)
INTERVAL = Interval(length=1.0)


def test_signed_distance_values():
    assert BALL.signed_distance((0.5, 0.0)) == -0.5
    assert BALL.signed_distance((2.0, 0.0)) == 1.0
    assert INTERVAL.signed_distance(0.0) == 0.0
    assert INTERVAL.signed_distance(0.25) == -0.25
    assert ANNULUS.signed_distance((1.5, 0.0)) == -0.5
    assert ANNULUS.signed_distance((0.5, 0.0)) == 0.5  # inside the hole
    assert ANNULUS.signed_distance((3.0, 0.0)) == 1.0


def test_signed_distance_broadcasts():
    xs = np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 0.25]])
    np.testing.assert_allclose(
        BALL.signed_distance(xs), [-0.5, 1.0, -0.75], atol=1e-15
    )
    np.testing.assert_allclose(
        INTERVAL.signed_distance(np.array([0.1, 0.9, 1.2])), [-0.1, -0.1, 0.2]
    )


def test_outward_normal_values():
    np.testing.assert_allclose(BALL.outward_normal((0.0, 1.0)), (0.0, 1.0))
    np.testing.assert_allclose(ANNULUS.outward_normal((1.0, 0.0)), (-1.0, 0.0))
    np.testing.assert_allclose(ANNULUS.outward_normal((2.0, 0.0)), (1.0, 0.0))
    assert INTERVAL.outward_normal(0.0) == -1.0
    assert INTERVAL.outward_normal(1.0) == 1.0


def test_outward_normal_ambiguous():
    with pytest.raises(AmbiguousProjection):
        BALL.outward_normal((0.0, 0.0))
    with pytest.raises(AmbiguousProjection):
        INTERVAL.outward_normal(0.5)
    with pytest.raises(AmbiguousProjection):
        ANNULUS.outward_normal((1.5, 0.0))  # mid-shell, outside default band


def test_normal_matches_distance_gradient():
    # centered finite differences of the signed distance, step 1e-5
    rng = np.random.default_rng(7)
    step = 1e-5
    for domain, points in [
        (BALL, 0.9 + 0.2 * rng.uniform(size=12)),
        (ANNULUS, None),
        (INTERVAL, None),
    ]:
        if domain is BALL:
            angles = 2 * np.pi * rng.uniform(size=12)
            pts = np.c_[points * np.cos(angles), points * np.sin(angles)]
        elif domain is ANNULUS:
            radii = np.concatenate([0.9 + 0.2 * rng.uniform(size=6), 1.9 + 0.2 * rng.uniform(size=6)])
            angles = 2 * np.pi * rng.uniform(size=12)
            pts = np.c_[radii * np.cos(angles), radii * np.sin(angles)]
        else:
            pts = np.concatenate([0.1 * rng.uniform(size=6), 1.0 - 0.1 * rng.uniform(size=6)])
        for x in pts:
            n = domain.outward_normal(x)
            if np.ndim(x) == 0:
                fd = (domain.signed_distance(x + step) - domain.signed_distance(x - step)) / (2 * step)
                assert abs(fd - n) < 1e-6
            else:
                fd = np.array(
                    [
                        (domain.signed_distance(x + step * e) - domain.signed_distance(x - step * e)) / (2 * step)
                        for e in np.eye(len(x))
                    ]
                )
                np.testing.assert_allclose(fd, n, atol=1e-6)


def test_projection_lands_on_wall():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-0.95, 0.95, size=2)
        if np.linalg.norm(x) < 1e-3:
            continue
        p = BALL.project(x)
        assert abs(BALL.signed_distance(p)) < 1e-12
    for x in [0.01, 0.3, 0.7, 0.99, -0.2, 1.4]:
        p = INTERVAL.project(x)
        assert abs(INTERVAL.signed_distance(p)) < 1e-12
    for radius in [1.05, 1.4, 1.6, 1.95, 0.5, 2.5]:
        p = ANNULUS.project((radius, 0.0))
        assert abs(ANNULUS.signed_distance(p)) < 1e-12


def test_reflect_formula_and_errors():
    np.testing.assert_allclose(reflect([[1.0, 2.0]], [[0.0, 1.0]]), [[1.0, -2.0]])
    assert reflect([3.0], [-1.0])[0] == -3.0
    with pytest.raises(NotUnitNormal):
        reflect([[1.0, 0.0]], [[0.5, 0.5]])
    with pytest.raises(NotUnitNormal):
        reflect([1.0], [0.9])


unit2 = st.floats(0, 2 * np.pi).map(lambda t: (np.cos(t), np.sin(t)))
vec2 = st.tuples(
    st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
)


@settings(max_examples=300, deadline=None)
@given(u=vec2, n=unit2)
def test_reflection_algebra(u, n):
    u = np.asarray(u)
    n = np.asarray(n)
    r = reflect(u[None], n[None])[0]
    assert abs(np.linalg.norm(r) - np.linalg.norm(u)) < 1e-12 * max(1, np.linalg.norm(u))
    np.testing.assert_allclose(reflect(r[None], n[None])[0], u, atol=1e-12)
    assert abs(np.dot(r, n) + np.dot(u, n)) < 1e-12 * max(1, abs(np.dot(u, n)))


@settings(max_examples=200, deadline=None)
@given(u=vec2, n=unit2)
def test_tangential_component_fixed(u, n):
    u = np.asarray(u)
    n = np.asarray(n)
    t = u - np.dot(u, n) * n
    r = reflect(u[None], n[None])[0]
    np.testing.assert_allclose(r - np.dot(r, n) * n, t, atol=1e-12)


def test_uniform_sampler_stays_inside():
    rng = np.random.default_rng(11)
    for dom in (BALL, ANNULUS, INTERVAL):
        pts = dom.sample_uniform(500, rng)
        assert np.all(dom.signed_distance(pts) < 0)


def test_domain_from_config():
    # the `cube` rejection is test_cli's `domain.kind` constraint case
    def build(domain):
        return build_domain(config_from_dict({"domain": domain}))

    assert build({"kind": "interval", "length": 2.0}) == Interval(2.0)
    b = build({"kind": "ball", "center": [0, 0], "radius": 1})
    assert b.radius == 1.0 and b.dimension == 2
    a = build({"kind": "annulus", "center": [0, 0], "inner_radius": 1, "radius": 2})
    assert a.inner_radius == 1.0


def _near_wall_batch(domain, m, gen):
    """m points within half the uniqueness band of a wall, off the
    ambiguous midpoints, and m velocities."""
    if isinstance(domain, Interval):
        side = gen.integers(0, 2, m)
        X = side * domain.length + gen.uniform(-0.2, 0.2, m) * domain.length
        return X, gen.standard_normal(m)
    d = domain.dimension
    z = gen.standard_normal((m, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    walls = [domain.radius] if isinstance(domain, Ball) else [domain.inner_radius, domain.radius]
    band = 0.5 * (walls[-1] - (walls[0] if len(walls) > 1 else 0.0))
    radius = np.asarray(walls)[gen.integers(0, len(walls), m)] + gen.uniform(-0.4, 0.4, m) * band
    return domain.center + radius[:, None] * z, gen.standard_normal((m, d))


def _one_point_reference(domain, x):
    """(projection, outward normal) of one point by the one-vector formulas."""
    if isinstance(domain, Interval):
        wall = 0.0 if x < 0.5 * domain.length else domain.length
        return wall, -1.0 if wall == 0.0 else 1.0
    c = np.asarray(domain.center)
    rho = float(np.linalg.norm(x - c, axis=-1))
    target, sign = domain.radius, 1.0
    if isinstance(domain, Annulus) and rho < 0.5 * (domain.inner_radius + domain.radius):
        target, sign = domain.inner_radius, -1.0
    p = c + (target / rho) * (x - c)
    return p, sign * (p - c) / float(np.linalg.norm(p - c, axis=-1))


BATCH_DOMAINS = {
    "interval": Interval(length=2.0),
    "ball-2d": Ball(center=(0.5, -1.0), radius=1.5),
    "ball-3d": Ball(center=(0.0, 0.0, 0.0), radius=1.0),
    "annulus-2d": Annulus(center=(0.0, 0.0), inner_radius=0.5, radius=1.0),
    "annulus-3d": Annulus(center=(1.0, 2.0, 3.0), inner_radius=1.0, radius=2.5),
}


@pytest.mark.parametrize("name", sorted(BATCH_DOMAINS))
def test_batched_methods_match_row_loop_bitwise(name):
    domain = BATCH_DOMAINS[name]
    X, U = _near_wall_batch(domain, 500, np.random.default_rng(sorted(BATCH_DOMAINS).index(name)))
    for method in (domain.signed_distance, domain.project, domain.outward_normal):
        batch = method(X)
        np.testing.assert_array_equal(batch, np.array([method(x) for x in X]))
        # any leading shape: a (2, m/2) batch of points gives the same rows
        np.testing.assert_array_equal(method(X.reshape((2, -1) + X.shape[1:])).reshape(batch.shape),
                                      batch)
    P, N = domain.project(X), domain.outward_normal(domain.project(X))
    ref = [_one_point_reference(domain, x) for x in X]
    np.testing.assert_array_equal(P, [p for p, _ in ref])
    np.testing.assert_array_equal(N, [n for _, n in ref])
    un = normal_velocity(U, N)
    R = reflect(U, N)
    if domain.dimension == 1:
        np.testing.assert_array_equal(un, [u * n for u, n in zip(U, N)])
        np.testing.assert_array_equal(R, [-u for u in U])
    else:
        # the one-vector formulas: u.n by np.dot, and u - 2(u.n)n
        np.testing.assert_array_equal(un, [np.dot(u, n) for u, n in zip(U, N)])
        np.testing.assert_array_equal(R, [u - 2.0 * float(np.dot(u, n)) * n for u, n in zip(U, N)])


@pytest.mark.parametrize("domain, ambiguous, outside_band", [
    (Interval(length=1.0), 0.5, 0.5),
    (Ball(center=(0.0, 0.0), radius=1.0), (0.0, 0.0), (0.2, 0.0)),
    (Annulus(center=(0.0, 0.0), inner_radius=1.0, radius=2.0), (1.5, 0.0), (0.0, 1.5)),
    (Annulus(center=(0.0, 0.0), inner_radius=1.0, radius=2.0), (0.0, 0.0), (3.0, 0.0)),
    # a hole narrower than the band: its center lies inside the band
    (Annulus(center=(0.0, 0.0), inner_radius=0.1, radius=2.0), (0.0, 0.0), (0.0, 0.0)),
])
def test_one_ambiguous_row_raises(domain, ambiguous, outside_band):
    X, _ = _near_wall_batch(domain, 40, np.random.default_rng(5))
    domain.outward_normal(domain.project(X))  # the clean batch passes
    for bad, method in ((ambiguous, domain.project), (outside_band, domain.outward_normal)):
        batch = X.copy()
        batch[17] = bad
        with pytest.raises(AmbiguousProjection):
            method(batch)


@pytest.mark.parametrize("d", [2, 3, 64])
def test_row_products_match_one_vector_numpy_bitwise(d):
    # the near-wall kernel's bit-for-bit agreement with one-vector code
    # rests on this property of numpy's matmul
    gen = np.random.default_rng(d)
    U = gen.standard_normal((2000, d)) * gen.uniform(1e-3, 1e3, (2000, 1))
    N = gen.standard_normal((2000, d))
    dots = row_dot(U, N)
    assert all(dots[i] == np.dot(U[i], N[i]) for i in range(len(U)))
    np.testing.assert_array_equal(normal_velocity(U, N), dots)
    np.testing.assert_array_equal(row_norm(U), [np.linalg.norm(u) for u in U])


@pytest.mark.parametrize("d", [2, 3])
def test_one_vector_reflect_form_raises(d):
    # reflect(u, n) with single d-vectors reads them as d rows in d = 1,
    # whose normals are not +-1: it refuses instead of flipping signs
    gen = np.random.default_rng(d)
    for n in (np.eye(d)[0], gen.standard_normal(d)):
        with pytest.raises(NotUnitNormal):
            reflect(gen.standard_normal(d), n / np.linalg.norm(n))
