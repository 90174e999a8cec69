"""Closed-form geometry: distances, normals, projection, reflection algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckin.config import build_domain, config_from_dict
from speckin.errors import AmbiguousProjection, NotUnitNormal
from speckin.geometry import (
    Annulus,
    Ball,
    BoundaryClass,
    Interval,
    classify,
    reflect,
)

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
    np.testing.assert_allclose(reflect((1.0, 2.0), (0.0, 1.0)), (1.0, -2.0))
    assert reflect(3.0, -1.0) == -3.0
    with pytest.raises(NotUnitNormal):
        reflect((1.0, 0.0), (0.5, 0.5))
    with pytest.raises(NotUnitNormal):
        reflect(1.0, 0.9)


unit2 = st.floats(0, 2 * np.pi).map(lambda t: (np.cos(t), np.sin(t)))
vec2 = st.tuples(
    st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
)


@settings(max_examples=300, deadline=None)
@given(u=vec2, n=unit2)
def test_reflection_algebra(u, n):
    u = np.asarray(u)
    n = np.asarray(n)
    r = reflect(u, n)
    assert abs(np.linalg.norm(r) - np.linalg.norm(u)) < 1e-12 * max(1, np.linalg.norm(u))
    np.testing.assert_allclose(reflect(r, n), u, atol=1e-12)
    assert abs(np.dot(r, n) + np.dot(u, n)) < 1e-12 * max(1, abs(np.dot(u, n)))


@settings(max_examples=200, deadline=None)
@given(u=vec2, n=unit2)
def test_tangential_component_fixed(u, n):
    u = np.asarray(u)
    n = np.asarray(n)
    t = u - np.dot(u, n) * n
    r = reflect(u, n)
    np.testing.assert_allclose(r - np.dot(r, n) * n, t, atol=1e-12)


def test_classify():
    assert classify(BALL, (0.0, 1.0), (0.0, 1.0), 1e-9) is BoundaryClass.OUTGOING
    assert classify(BALL, (0.0, 1.0), (1.0, 0.0), 1e-9) is BoundaryClass.TANGENTIAL
    assert classify(BALL, (0.0, 0.5), (5.0, 5.0), 1e-9) is BoundaryClass.INTERIOR
    assert classify(BALL, (0.0, 1.0), (0.0, -1.0), 1e-9) is BoundaryClass.INCOMING
    assert classify(INTERVAL, 0.0, 1.0, 1e-9) is BoundaryClass.INCOMING
    assert classify(INTERVAL, 1.0, 1.0, 1e-9) is BoundaryClass.OUTGOING


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
