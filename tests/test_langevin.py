"""Exact free flow, bridge refinement, billiard hits, ensemble determinism."""

import math

import numpy as np
import pytest

from scalar_cascade import bridge_midpoint
from speckin.errors import InvalidStart, WatchdogExceeded
from speckin.geometry import Ball, Interval
from speckin.langevin import (
    STEP_COUNTER_STRIDE,
    PhaseState,
    StepParams,
    confined_step,
    ensemble_confined_step,
    free_step,
    run_ensemble,
    semigroup_estimate,
    simulate_path,
    step_count,
)
from speckin.rng import RngStream


def analytic_free_cov(sigma, h):
    return np.array(
        [
            [sigma**2 * h**3 / 3.0, sigma**2 * h**2 / 2.0],
            [sigma**2 * h**2 / 2.0, sigma**2 * h],
        ]
    )


def cov_standard_errors(cov, n):
    # Var(C_ij) ~ (C_ii C_jj + C_ij^2)/n for Gaussian samples
    d = np.diag(cov)
    return np.sqrt((np.outer(d, d) + cov**2) / n)


def test_free_step_degenerate_and_transport():
    rng = RngStream(seed=1)
    s = PhaseState(0.3, -0.7)
    assert free_step(s, 0.0, 1.0, rng) is s
    assert rng.counter == 0
    out = free_step(s, 0.5, 0.0, rng)
    assert out.x == pytest.approx(0.3 - 0.35, abs=1e-15) and out.u == -0.7
    assert rng.counter == 2  # draws consumed even when sigma = 0


@pytest.mark.parametrize("sigma,h", [(1.0, 0.1), (0.5, 0.01)])
def test_free_step_increment_covariance(sigma, h):
    n = 200_000
    rng = RngStream(seed=123)
    z = rng.normals(2 * n).reshape(n, 2)
    u0 = 0.4
    u1 = u0 + sigma * math.sqrt(h) * z[:, 0]
    x_inc = h * u0 + sigma * h ** 1.5 * (0.5 * z[:, 0] + 0.5 / math.sqrt(3) * z[:, 1])
    emp = np.cov(np.c_[x_inc - h * u0, u1 - u0].T)
    target = analytic_free_cov(sigma, h)
    assert np.all(np.abs(emp - target) <= 4 * cov_standard_errors(target, n))


def test_free_step_matches_euler_oracle():
    # crude-step Euler-Maruyama with 10^3 substeps as an independent sampler
    sigma, h, n, m = 1.0, 0.1, 40_000, 1000
    gen = np.random.default_rng(77)
    dt = h / m
    xi = gen.standard_normal((n, m))
    u = sigma * math.sqrt(dt) * np.cumsum(xi, axis=1)
    x_inc = dt * (u.sum(axis=1) - u[:, -1] + 0.0)  # left-endpoint rule, u_0 = 0
    emp = np.cov(np.c_[x_inc, u[:, -1]].T)
    target = analytic_free_cov(sigma, h)
    se = cov_standard_errors(target, n)
    assert np.all(np.abs(emp - target) <= 4 * se + np.abs(target) * 3.0 / m)


def test_free_step_components_independent():
    # a single high-dimensional step exercises the per-component noise
    # interleaving; adjacent component pairs play the role of d=2 replicates
    rng = RngStream(seed=5)
    n = 50_000
    state = PhaseState(np.zeros(2 * n), np.zeros(2 * n))
    res = free_step(state, 0.2, 1.0, rng)
    outs = np.c_[res.x.reshape(n, 2), res.u.reshape(n, 2)]
    c = np.corrcoef(outs.T)
    # cross-component correlations vanish; within-component ones do not
    assert abs(c[0, 1]) < 4 / math.sqrt(n) * 1.5
    assert abs(c[2, 3]) < 4 / math.sqrt(n) * 1.5
    assert abs(c[0, 3]) < 4 / math.sqrt(n) * 1.5
    assert c[0, 2] > 0.8


# The bridge law is checked on the scalar oracle's sampler, which the
# kernel-vs-oracle tests tie bit for bit to the kernel's bridge midpoints.
def test_bridge_deterministic_when_sigma_zero():
    h = 0.4
    a = PhaseState(0.1, 0.9)
    b = PhaseState(0.1 + h * 0.9, 0.9)
    mid = bridge_midpoint(a, b, h, 0.0, RngStream(seed=2))
    assert mid.x == pytest.approx(0.1 + 0.2 * 0.9, abs=1e-15)
    assert mid.u == pytest.approx(0.9, abs=1e-15)


def test_bridge_conditional_moments_frozen():
    h, sigma = 0.37, 0.8
    n = 300_000
    # n independent scalar bridges batched as one n-component bridge
    a = PhaseState(np.full(n, 0.2), np.full(n, -0.4))
    b = PhaseState(np.full(n, 0.9), np.full(n, 1.1))
    mid = bridge_midpoint(a, b, h, sigma, RngStream(seed=31))
    xs, us = mid.x, mid.u
    mean_x = 0.5 * (0.2 + 0.9) - h * (1.1 - (-0.4)) / 8.0
    mean_u = 1.5 * (0.9 - 0.2) / h - 0.25 * (-0.4 + 1.1)
    var_x = sigma**2 * h**3 / 192.0
    var_u = sigma**2 * h / 16.0
    assert abs(xs.mean() - mean_x) <= 4 * math.sqrt(var_x / n)
    assert abs(us.mean() - mean_u) <= 4 * math.sqrt(var_u / n)
    assert abs(xs.var(ddof=1) - var_x) <= 4 * var_x * math.sqrt(2.0 / (n - 1))
    assert abs(us.var(ddof=1) - var_u) <= 4 * var_u * math.sqrt(2.0 / (n - 1))
    cov_xu = np.cov(xs, us)[0, 1]
    assert abs(cov_xu) <= 4 * math.sqrt(var_x * var_u / n)


def test_bridge_mean_is_the_conditional_regression():
    # forward two-half-step sampler written out independently here; the
    # residual midpoint - E[midpoint | endpoints] must average to zero
    h, sigma = 0.25, 1.3
    xa, ua = 0.15, 0.6
    gen = np.random.default_rng(8)
    n = 400_000
    g = gen.standard_normal((n, 4))
    hh = h / 2.0
    um = ua + sigma * math.sqrt(hh) * g[:, 0]
    xm = xa + hh * ua + sigma * hh**1.5 * (0.5 * g[:, 0] + 0.5 / math.sqrt(3) * g[:, 1])
    ub = um + sigma * math.sqrt(hh) * g[:, 2]
    xb = xm + hh * um + sigma * hh**1.5 * (0.5 * g[:, 2] + 0.5 / math.sqrt(3) * g[:, 3])

    mean_x = 0.5 * (xa + xb) - h * (ub - ua) / 8.0
    mean_u = 1.5 * (xb - xa) / h - 0.25 * (ua + ub)
    rx = xm - mean_x
    ru = um - mean_u
    var_x = sigma**2 * h**3 / 192.0
    var_u = sigma**2 * h / 16.0
    assert abs(rx.mean()) <= 4 * math.sqrt(var_x / n)
    assert abs(ru.mean()) <= 4 * math.sqrt(var_u / n)
    assert abs(rx.var(ddof=1) - var_x) <= 4 * var_x * math.sqrt(2.0 / (n - 1))
    assert abs(ru.var(ddof=1) - var_u) <= 4 * var_u * math.sqrt(2.0 / (n - 1))
    assert abs(np.cov(rx, ru)[0, 1]) <= 4 * math.sqrt(var_x * var_u / n)


def test_bridge_chaining_preserves_joint_law():
    # insert a bridge midpoint into exact endpoints: the midpoint marginal and
    # the (midpoint, endpoint) cross-covariances must match the free flow
    h, sigma = 0.3, 0.9
    rng = RngStream(seed=17)
    n = 300_000
    a = PhaseState(np.zeros(n), np.zeros(n))
    b = free_step(a, h, sigma, rng)
    m = bridge_midpoint(a, b, h, sigma, rng)
    data = np.c_[m.x, m.u, b.x, b.u]
    s, t = h / 2.0, h
    target = sigma**2 * np.array(
        [
            [s**3 / 3, s**2 / 2, s**2 * (3 * t - s) / 6, s**2 / 2],
            [s**2 / 2, s, s * t - s**2 / 2, s],
            [s**2 * (3 * t - s) / 6, s * t - s**2 / 2, t**3 / 3, t**2 / 2],
            [s**2 / 2, s, t**2 / 2, t],
        ]
    )
    emp = np.cov(data.T)
    assert np.all(np.abs(emp - target) <= 4 * cov_standard_errors(target, n))
    assert np.all(np.abs(data.mean(axis=0)) <= 4 * np.sqrt(np.diag(target) / n))


def test_far_from_wall_is_exactly_free():
    domain = Ball(center=(0.0, 0.0), radius=1.0)
    state = PhaseState(np.zeros(2), np.array([0.1, 0.05]))
    params = StepParams(h=0.1)
    rng_a = RngStream(seed=99, stream_id=3)
    rng_b = RngStream(seed=99, stream_id=3)
    free = free_step(state, 0.1, 0.5, rng_a)
    res = confined_step(domain, state, params, 0.5, rng_b)
    assert res.hits == ()
    assert np.array_equal(res.state.x, free.x) and np.array_equal(res.state.u, free.u)
    assert rng_a.counter == rng_b.counter


def test_deterministic_billiard_interval():
    domain = Interval(length=1.0)
    res = confined_step(
        domain, PhaseState(0.5, 1.0), StepParams(h=1.0), 0.0, RngStream(seed=0)
    )
    assert len(res.hits) == 1
    hit = res.hits[0]
    assert hit.time == pytest.approx(0.5, abs=1e-10)
    assert hit.location == pytest.approx(1.0, abs=1e-10)
    assert hit.pre_velocity == pytest.approx(1.0, abs=1e-10)
    assert hit.post_velocity == pytest.approx(-1.0, abs=1e-10)
    assert res.state.x == pytest.approx(0.5, abs=5e-10)
    assert res.state.u == -1.0


def ball_exit_time(x, u, radius=1.0):
    # smallest t > 0 with |x + t u| = radius
    b = float(np.dot(x, u))
    uu = float(np.dot(u, u))
    disc = b * b + (radius**2 - float(np.dot(x, x))) * uu
    return (-b + math.sqrt(disc)) / uu


@pytest.mark.parametrize(
    "x0,u0",
    [((0.0, 0.0), (0.6, 0.8)), ((0.5, 0.0), (0.0, 1.0)), ((-0.2, 0.3), (1.3, -0.4))],
)
def test_deterministic_billiard_ball(x0, u0):
    domain = Ball(center=(0.0, 0.0), radius=1.0)
    x0, u0 = np.array(x0), np.array(u0)
    t_exit = ball_exit_time(x0, u0)
    h = t_exit + 0.3
    res = confined_step(
        domain, PhaseState(x0, u0), StepParams(h=h), 0.0, RngStream(seed=0)
    )
    assert len(res.hits) >= 1
    hit = res.hits[0]
    wall = x0 + t_exit * u0
    n = wall / np.linalg.norm(wall)
    post = u0 - 2 * np.dot(u0, n) * n
    assert hit.time == pytest.approx(t_exit, abs=1e-10)
    np.testing.assert_allclose(hit.location, wall, atol=1e-10)
    np.testing.assert_allclose(hit.post_velocity, post, atol=1e-10)
    assert np.linalg.norm(hit.post_velocity) == pytest.approx(
        np.linalg.norm(hit.pre_velocity), abs=1e-12
    )
    assert np.dot(hit.pre_velocity, n) > 0


def test_many_reflections_fold_back():
    # speed 1000 crosses the unit interval 1000 times in one macro step;
    # unfolding the billiard gives the exact final state (0.5, +1000)
    domain = Interval(length=1.0)
    res = confined_step(
        domain, PhaseState(0.5, 1000.0), StepParams(h=1.0), 0.0, RngStream(seed=0)
    )
    assert len(res.hits) == 1000
    times = [h.time for h in res.hits]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert res.state.u == pytest.approx(1000.0, rel=1e-9)
    assert res.state.x == pytest.approx(0.5, abs=1e-6)


def test_watchdog_fires():
    domain = Interval(length=1.0)
    with pytest.raises(WatchdogExceeded):
        confined_step(
            domain,
            PhaseState(0.5, 1000.0),
            StepParams(h=1.0, max_hits=100),
            0.0,
            RngStream(seed=0),
        )


@pytest.mark.parametrize("sigma", [0.0, 1e-9, 1e-3])
def test_watchdog_fires_on_grazing_contacts(sigma):
    # a start on the wall with exactly tangential velocity: the first located
    # contacts are grazes, which keep the velocity, so only max_hits stops a
    # step that keeps finding the wall; every graze must count toward it
    with pytest.raises(WatchdogExceeded, match="max_hits=5"):
        confined_step(
            Ball(center=(0.0, 0.0), radius=1.0),
            PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            StepParams(h=0.01, max_hits=5),
            sigma,
            RngStream(seed=3),
        )


def test_simulate_path_billiard_two_hits():
    domain = Interval(length=1.0)
    path = simulate_path(
        domain,
        PhaseState(0.5, 1.0),
        T=2.0,
        params=StepParams(h=1.0),
        sigma=0.0,
        rng=RngStream(seed=0),
    )
    assert len(path.events) == 2
    assert path.events[0].time == pytest.approx(0.5, abs=1e-10)
    assert path.events[1].time == pytest.approx(1.5, abs=1e-10)
    assert path.states[-1].x == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(path.times, [0.0, 1.0, 2.0])


def test_invalid_starts():
    domain = Interval(length=1.0)
    params = StepParams(h=0.1)
    with pytest.raises(InvalidStart):
        simulate_path(domain, PhaseState(1.5, 0.0), 1.0, params, 1.0, RngStream(seed=0))
    with pytest.raises(InvalidStart):
        # on the wall moving out
        simulate_path(domain, PhaseState(1.0, 0.5), 1.0, params, 1.0, RngStream(seed=0))
    # on the wall moving in is an admissible start
    path = simulate_path(domain, PhaseState(1.0, -0.5), 0.2, params, 0.0, RngStream(seed=0))
    assert path.states[-1].x == pytest.approx(0.9, abs=1e-12)


def test_ensemble_statistics_ball():
    domain = Ball(center=(0.0, 0.0), radius=1.0)
    n = 10_000
    gen = np.random.default_rng(4)
    r = 0.5 * np.sqrt(gen.uniform(size=n))
    th = gen.uniform(0, 2 * np.pi, n)
    X0 = np.c_[r * np.cos(th), r * np.sin(th)]
    U0 = gen.standard_normal((n, 2))
    params = StepParams(h=0.1)
    hits = []
    X, U, _ = run_ensemble(domain, X0, U0, 1.0, params, 1.0, seed=2024, hit_sink=hits)
    assert np.all(domain.signed_distance(X) <= params.eps_hit)
    counts = np.zeros(n)
    for rec in hits:
        counts[rec.path_id] += 1
    assert np.quantile(counts, 0.999) < params.max_hits
    for rec in hits[:2000]:
        nrm = domain.outward_normal(rec.location)
        assert abs(
            np.linalg.norm(rec.post_velocity) - np.linalg.norm(rec.pre_velocity)
        ) <= 1e-12 * max(1.0, np.linalg.norm(rec.pre_velocity))
        assert np.dot(rec.pre_velocity, nrm) > 0


def test_ensemble_matches_sequential_paths_bitwise():
    domain = Ball(center=(0.0, 0.0), radius=1.0)
    n = 64
    gen = np.random.default_rng(11)
    r = gen.uniform(0.7, 0.95, n)
    th = gen.uniform(0, 2 * np.pi, n)
    X0 = np.c_[r * np.cos(th), r * np.sin(th)]
    U0 = gen.standard_normal((n, 2))
    params = StepParams(h=0.2)
    seed = 555
    hits = []
    X, U, _ = run_ensemble(domain, X0, U0, 1.0, params, 1.0, seed=seed, hit_sink=hits)
    for i in range(n):
        # path i alone, one confined_step per macro step k from counter k * 2^16
        rng = RngStream(seed=seed, stream_id=i)
        state, events = PhaseState(X0[i].copy(), U0[i].copy()), []
        for k in range(step_count(1.0, params.h)):
            t0 = k * params.h
            rng.jump_to(k * STEP_COUNTER_STRIDE)
            res = confined_step(domain, state, params, 1.0, rng, h=min(params.h, 1.0 - t0))
            state = res.state
            events += [(t0 + ev.time, ev) for ev in res.hits]
        np.testing.assert_array_equal(state.x, X[i])
        np.testing.assert_array_equal(state.u, U[i])
        mine = [h for h in hits if h.path_id == i]
        assert len(mine) == len(events)
        for rec, (t, ev) in zip(mine, events):
            assert rec.time == t
            np.testing.assert_array_equal(rec.location, ev.location)
            np.testing.assert_array_equal(rec.post_velocity, ev.post_velocity)


def test_simulate_path_is_one_row_of_the_ensemble():
    # T = 0.35 ends on a short step; the stream id picks the row's noise
    domain = Interval(length=1.0)
    params = StepParams(h=0.1)
    rng = RngStream(seed=8, stream_id=5, counter=123)
    path = simulate_path(domain, PhaseState(0.05, -2.0), 0.35, params, 1.0, rng)
    assert rng.counter == 123
    hits = []
    X, U, snaps = run_ensemble(
        domain, np.array([0.05]), np.array([-2.0]), 0.35, params, 1.0, 8,
        hit_sink=hits, snapshot_times=(0.1, 0.2), stream_ids=[5],
    )
    np.testing.assert_allclose(path.times, [0.0, 0.1, 0.2, 0.3, 0.35], rtol=0, atol=1e-15)
    assert path.states[0] == PhaseState(0.05, -2.0)
    assert path.states[-1] == PhaseState(float(X[0]), float(U[0]))
    for k in (1, 2):
        assert path.states[k] == PhaseState(float(snaps[k / 10][0][0]), float(snaps[k / 10][1][0]))
    assert path.events == tuple(hits) and hits
    assert {ev.path_id for ev in hits} == {5}


def test_snapshots_keep_every_time_and_end_at_T():
    # T = 0.502 takes 101 steps of h = 0.005, the last one 0.002 long: the
    # snapshot at T is the state after it, and 0.1 and 0.1001 both land on
    # the state after step 20
    domain = Interval(length=1.0)
    gen = np.random.default_rng(3)
    X0, U0 = gen.uniform(0.0, 1.0, 50), gen.standard_normal(50)
    params = StepParams(h=0.005)
    X, U, snaps = run_ensemble(
        domain, X0, U0, 0.502, params, 1.0, 9, snapshot_times=(0.1, 0.1001, 0.502)
    )
    assert sorted(snaps) == [0.1, 0.1001, 0.502]
    assert np.array_equal(snaps[0.502][0], X) and np.array_equal(snaps[0.502][1], U)
    X20, U20, _ = run_ensemble(domain, X0, U0, 0.1, params, 1.0, 9)
    for t in (0.1, 0.1001):
        assert np.array_equal(snaps[t][0], X20) and np.array_equal(snaps[t][1], U20)


def test_semigroup_constant_and_zero_time():
    domain = Interval(length=1.0)
    params = StepParams(h=0.05)
    one = semigroup_estimate(
        domain, lambda x, u: np.ones_like(x), 0.4, PhaseState(0.5, 0.1), 500, params, 1.0, 7
    )
    assert one.mean == 1.0 and one.std_error == 0.0
    psi = lambda x, u: np.cos(x) * np.exp(-(u**2))
    zero = semigroup_estimate(domain, psi, 0.0, PhaseState(0.3, -0.2), 100, params, 1.0, 7)
    assert zero.mean == pytest.approx(math.cos(0.3) * math.exp(-0.04), abs=1e-14)
    assert zero.std_error <= 1e-15  # identical values up to mean-subtraction dust


def test_semigroup_matches_free_gaussian_quadrature():
    # start far from the walls with small reach: confinement never triggers,
    # so the estimate must match the unconfined Gaussian integral
    domain = Interval(length=1.0)
    sigma, t = 0.2, 0.3
    x0, u0 = 0.5, 0.0
    psi = lambda x, u: np.exp(-((x - 0.5) ** 2) - u**2)
    params = StepParams(h=0.05)
    est = semigroup_estimate(domain, psi, t, PhaseState(x0, u0), 20_000, params, sigma, 21)

    cov = analytic_free_cov(sigma, t)
    L = np.linalg.cholesky(cov)
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
    w1, w2 = np.meshgrid(weights, weights, indexing="ij")
    z1, z2 = math.sqrt(2) * g1, math.sqrt(2) * g2
    xq = x0 + t * u0 + L[0, 0] * z1
    uq = u0 + L[1, 0] * z1 + L[1, 1] * z2
    exact = float(np.sum(w1 * w2 * psi(xq, uq)) / np.pi)
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_step_params_validation():
    with pytest.raises(ValueError):
        StepParams(h=0.0)
    with pytest.raises(ValueError):
        StepParams(h=1.0, h_min=2.0)
    with pytest.raises(ValueError):
        StepParams(h=1.0, max_hits=0)
    p = StepParams(h=0.512)
    assert p.h_min == pytest.approx(0.002, abs=1e-15)
