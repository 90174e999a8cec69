"""Exact free flow, bridge refinement, billiard hits, ensemble determinism."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from scalar_cascade import bridge_midpoint
from speckin.errors import InvalidStart, WatchdogExceeded
from speckin.geometry import Ball, Interval
from speckin.langevin import (
    STEP_COUNTER_STRIDE,
    HitLog,
    PhaseState,
    StepParams,
    _bridge_update,
    confined_step,
    ensemble_confined_step,
    ensemble_free_flight,
    run_ensemble,
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
    # free flight of one d = 1 row; a zero-length flight moves nothing
    X, U = np.array([0.3]), np.array([-0.7])
    Xz, Uz = ensemble_free_flight(X, U, 0.0, 1.0, RngStream(seed=1).normals(2)[None])
    assert Xz[0] == 0.3 and Uz[0] == -0.7
    Xo, Uo = ensemble_free_flight(X, U, 0.5, 0.0, RngStream(seed=1).normals(2)[None])
    assert Xo[0] == pytest.approx(0.3 - 0.35, abs=1e-15) and Uo[0] == -0.7


@pytest.mark.parametrize("sigma,h", [(1.0, 0.1), (0.5, 0.01)])
def test_free_step_increment_covariance(sigma, h):
    # one row of n components, each with its own pair of draws
    n = 200_000
    rng = RngStream(seed=123)
    u0 = 0.4
    X1, U1 = ensemble_free_flight(np.zeros((1, n)), np.full((1, n), u0), h, sigma,
                                  rng.normals(2 * n)[None])
    x_inc, u1 = X1[0], U1[0]
    emp = np.cov(np.c_[x_inc - h * u0, u1 - u0].T)
    target = analytic_free_cov(sigma, h)
    assert np.all(np.abs(emp - target) <= 4 * cov_standard_errors(target, n))


EULER_BLOCK = 2_000  # Euler paths drawn at a time


def test_free_step_matches_euler_oracle():
    # exact free-flight increments against crude-step Euler-Maruyama with
    # 10^3 substeps, an independent sampler written out here
    sigma, h, n, m = 1.0, 0.1, 40_000, 1000
    gen = np.random.default_rng(77)
    dt = h / m
    # the paths are drawn a block of rows at a time from the one generator:
    # the same normals as one (n, m) draw, in arrays n / EULER_BLOCK times smaller
    x_inc, u_end = [], []
    for _ in range(n // EULER_BLOCK):
        u = sigma * math.sqrt(dt) * np.cumsum(gen.standard_normal((EULER_BLOCK, m)), axis=1)
        x_inc.append(dt * (u.sum(axis=1) - u[:, -1] + 0.0))  # left-endpoint rule, u_0 = 0
        u_end.append(u[:, -1].copy())  # a view would keep the whole block alive
    euler = np.cov(np.c_[np.concatenate(x_inc), np.concatenate(u_end)].T)
    X, U = ensemble_free_flight(np.zeros(n), np.zeros(n), h, sigma, gen.standard_normal((n, 2)))
    exact = np.cov(np.c_[X, U].T)
    target = analytic_free_cov(sigma, h)
    se = cov_standard_errors(target, n)
    assert np.all(np.abs(exact - euler) <= 4 * se + np.abs(target) * 3.0 / m)


def test_free_step_components_independent():
    # a single high-dimensional step exercises the per-component noise
    # interleaving; adjacent component pairs play the role of d=2 replicates
    rng = RngStream(seed=5)
    n = 50_000
    X, U = ensemble_free_flight(np.zeros((1, 2 * n)), np.zeros((1, 2 * n)), 0.2, 1.0,
                                rng.normals(4 * n)[None])
    outs = np.c_[X[0].reshape(n, 2), U[0].reshape(n, 2)]
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
    # two exact free-flight half steps from (xa, ua); the residual midpoint
    # - E[midpoint | endpoints], the kernel's bridge update with zero noise
    # scales, must average to zero with the bridge variances
    h, sigma = 0.25, 1.3
    xa, ua = 0.15, 0.6
    gen = np.random.default_rng(8)
    n = 400_000
    g = gen.standard_normal((n, 4))
    hh = h / 2.0
    xm, um = ensemble_free_flight(np.full(n, xa), np.full(n, ua), hh, sigma, g[:, :2])
    xb, ub = ensemble_free_flight(xm, um, hh, sigma, g[:, 2:])

    mean_x, mean_u = _bridge_update(xa, ua, xb, ub, h, 0.0, 0.0, 0.0, 0.0)
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
    Xb, Ub = ensemble_free_flight(a.x[None], a.u[None], h, sigma, rng.normals(2 * n)[None])
    b = PhaseState(Xb[0], Ub[0])
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
    Xf, Uf = ensemble_free_flight(state.x[None], state.u[None], 0.1, 0.5, rng_a.normals(4)[None])
    res = confined_step(domain, state, params, 0.5, rng_b)
    assert len(res.hits) == 0
    assert np.array_equal(res.state.x, Xf[0]) and np.array_equal(res.state.u, Uf[0])
    assert rng_a.counter == rng_b.counter


def test_deterministic_billiard_interval():
    domain = Interval(length=1.0)
    res = confined_step(
        domain, PhaseState(0.5, 1.0), StepParams(h=1.0), 0.0, RngStream(seed=0)
    )
    assert len(res.hits) == 1
    hit = res.hits
    assert hit.time[0] == pytest.approx(0.5, abs=1e-10)
    assert hit.location[0] == pytest.approx(1.0, abs=1e-10)
    assert hit.pre_velocity[0] == pytest.approx(1.0, abs=1e-10)
    assert hit.post_velocity[0] == pytest.approx(-1.0, abs=1e-10)
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
    hits = res.hits
    wall = x0 + t_exit * u0
    n = wall / np.linalg.norm(wall)
    post = u0 - 2 * np.dot(u0, n) * n
    assert hits.time[0] == pytest.approx(t_exit, abs=1e-10)
    np.testing.assert_allclose(hits.location[0], wall, atol=1e-10)
    np.testing.assert_allclose(hits.post_velocity[0], post, atol=1e-10)
    assert np.linalg.norm(hits.post_velocity[0]) == pytest.approx(
        np.linalg.norm(hits.pre_velocity[0]), abs=1e-12
    )
    assert np.dot(hits.pre_velocity[0], n) > 0


def test_many_reflections_fold_back():
    # speed 1000 crosses the unit interval 1000 times in one macro step;
    # unfolding the billiard gives the exact final state (0.5, +1000)
    domain = Interval(length=1.0)
    res = confined_step(
        domain, PhaseState(0.5, 1000.0), StepParams(h=1.0), 0.0, RngStream(seed=0)
    )
    assert len(res.hits) == 1000
    assert np.all(np.diff(res.hits.time) > 0)
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
    np.testing.assert_allclose(path.events.time, [0.5, 1.5], rtol=0, atol=1e-10)
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


# rows the march refuses: outside, or on the wall (within eps_hit) with u.n >= 0
BAD_STARTS = {
    "outside-interval": (Interval(1.0), [0.5, 1.5], [0.0, 0.5]),
    "outside-ball": (Ball((0.0, 0.0), 1.0), [[0.0, 0.0], [0.0, 1.2]],
                     [[0.0, 0.0], [0.0, -1.0]]),
    "wall-outward-interval": (Interval(1.0), [0.5, 1.0], [0.0, 0.5]),
    "wall-tangential-interval": (Interval(1.0), [0.5, 0.0], [0.0, 0.0]),
    "near-wall-outward-interval": (Interval(1.0), [0.5, 5e-11], [0.0, -0.5]),
    "wall-outward-ball": (Ball((0.0, 0.0), 1.0), [[0.0, 0.0], [0.6, 0.8]],
                          [[0.0, 0.0], [0.3, 0.4]]),
    "wall-tangential-ball": (Ball((0.0, 0.0), 1.0), [[0.0, 0.0], [1.0, 0.0]],
                             [[0.0, 0.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("case", sorted(BAD_STARTS))
def test_run_ensemble_refuses_bad_starts(case):
    # one check, in the march: simulate_path on the bad row trips the same one
    domain, X0, U0 = BAD_STARTS[case]
    X0, U0 = np.array(X0), np.array(U0)
    params = StepParams(h=0.05)
    with pytest.raises(InvalidStart) as info:
        run_ensemble(domain, X0, U0, 0.1, params, 1.0, 1)
    assert info.traceback[-1].name == "run_ensemble"
    with pytest.raises(InvalidStart) as info:
        simulate_path(domain, PhaseState(X0[1], U0[1]), 0.1, params, 1.0, RngStream(seed=1))
    assert info.traceback[-1].name == "run_ensemble"


def test_run_ensemble_admits_inward_wall_starts():
    # on either wall moving in, and just beyond eps_hit inside moving out
    domain = Interval(1.0)
    X0 = np.array([0.0, 1.0, 1.0 - 1e-9, 0.5])
    U0 = np.array([0.5, -0.5, 0.5, 0.0])
    X, _, _, _ = run_ensemble(domain, X0, U0, 0.1, StepParams(h=0.05), 1.0, 1)
    assert np.all(domain.signed_distance(X) <= 1e-10)
    ball = Ball((0.0, 0.0), 1.0)
    X, _, _, _ = run_ensemble(ball, np.array([[0.6, 0.8]]), np.array([[-0.3, -0.4]]), 0.1,
                           StepParams(h=0.05), 1.0, 1)
    assert np.all(ball.signed_distance(X) <= 1e-10)


@pytest.mark.parametrize("ids", [[5], list(range(12)), [[i] for i in range(10)]])
def test_march_refuses_stream_ids_of_the_wrong_shape(ids):
    # one stream id would be shared by every row, and 12 would fail inside
    # the free flight; the march names both lengths before it draws
    X0, U0 = np.linspace(0.1, 0.9, 10), np.zeros(10)
    params = StepParams(h=0.05)
    shape = re.escape(str(np.shape(ids)))
    with pytest.raises(ValueError, match=f"stream_ids of shape {shape} for 10 rows"):
        ensemble_confined_step(Interval(1.0), X0, U0, 0, params, 1.0, 1, stream_ids=ids)
    with pytest.raises(ValueError, match=f"stream_ids of shape {shape} for 10 rows"):
        run_ensemble(Interval(1.0), X0, U0, 0.1, params, 1.0, 1, stream_ids=ids)


@pytest.mark.parametrize("ids", [[5] * 10, [0, 1, 2, 3, 4, 5, 6, 7, 8, 0]])
def test_march_refuses_repeated_stream_ids(ids):
    # two rows on one stream would run one path twice
    X0, U0 = np.linspace(0.1, 0.9, 10), np.zeros(10)
    params = StepParams(h=0.05)
    repeated = "stream_ids repeat an id"
    with pytest.raises(ValueError, match=repeated):
        ensemble_confined_step(Interval(1.0), X0, U0, 0, params, 1.0, 1, stream_ids=ids)
    with pytest.raises(ValueError, match=repeated):
        run_ensemble(Interval(1.0), X0, U0, 0.1, params, 1.0, 1, stream_ids=ids)


def test_ensemble_statistics_ball():
    domain = Ball(center=(0.0, 0.0), radius=1.0)
    n = 10_000
    gen = np.random.default_rng(4)
    r = 0.5 * np.sqrt(gen.uniform(size=n))
    th = gen.uniform(0, 2 * np.pi, n)
    X0 = np.c_[r * np.cos(th), r * np.sin(th)]
    U0 = gen.standard_normal((n, 2))
    params = StepParams(h=0.1)
    X, U, _, hits = run_ensemble(domain, X0, U0, 1.0, params, 1.0, seed=2024)
    assert np.all(domain.signed_distance(X) <= params.eps_hit)
    counts = np.bincount(hits.path_id, minlength=n)
    assert np.quantile(counts, 0.999) < params.max_hits
    nrm = domain.outward_normal(hits.location[:2000])
    pre, post = (np.linalg.norm(v[:2000], axis=1) for v in (hits.pre_velocity, hits.post_velocity))
    assert np.all(np.abs(post - pre) <= 1e-12 * np.maximum(1.0, pre))
    assert np.all(np.sum(hits.pre_velocity[:2000] * nrm, axis=1) > 0)


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
    X, U, _, hits = run_ensemble(domain, X0, U0, 1.0, params, 1.0, seed=seed)
    for i in range(n):
        # path i alone, one confined_step per macro step k from counter k * 2^16
        rng = RngStream(seed=seed, stream_id=i)
        state, times, locations, posts = PhaseState(X0[i].copy(), U0[i].copy()), [], [], []
        for k in range(step_count(1.0, params.h)):
            t0 = k * params.h
            rng.jump_to(k * STEP_COUNTER_STRIDE)
            res = confined_step(domain, state, params, 1.0, rng, h=min(params.h, 1.0 - t0))
            state = res.state
            times.append(t0 + res.hits.time)
            locations.append(res.hits.location)
            posts.append(res.hits.post_velocity)
        np.testing.assert_array_equal(state.x, X[i])
        np.testing.assert_array_equal(state.u, U[i])
        mine = hits.path_id == i
        np.testing.assert_array_equal(hits.time[mine], np.concatenate(times))
        np.testing.assert_array_equal(hits.location[mine], np.concatenate(locations))
        np.testing.assert_array_equal(hits.post_velocity[mine], np.concatenate(posts))


def test_simulate_path_is_one_row_of_the_ensemble():
    # T = 0.35 ends on a short step; the stream id picks the row's noise
    domain = Interval(length=1.0)
    params = StepParams(h=0.1)
    rng = RngStream(seed=8, stream_id=5, counter=123)
    path = simulate_path(domain, PhaseState(0.05, -2.0), 0.35, params, 1.0, rng)
    assert rng.counter == 123
    X, U, snaps, hits = run_ensemble(
        domain, np.array([0.05]), np.array([-2.0]), 0.35, params, 1.0, 8,
        snapshot_steps=(1, 2), stream_ids=[5],
    )
    np.testing.assert_allclose(path.times, [0.0, 0.1, 0.2, 0.3, 0.35], rtol=0, atol=1e-15)
    assert path.states[0] == PhaseState(0.05, -2.0)
    assert path.states[-1] == PhaseState(float(X[0]), float(U[0]))
    for k in (1, 2):
        assert path.states[k] == PhaseState(float(snaps[k][0][0]), float(snaps[k][1][0]))
    assert len(hits) > 0
    for f in fields(HitLog):
        np.testing.assert_array_equal(getattr(path.events, f.name), getattr(hits, f.name))
    assert set(hits.path_id.tolist()) == {5}


def test_snapshots_keep_every_time_and_end_at_T():
    # T = 0.502 takes 101 steps of h = 0.005, the last one 0.002 long: step
    # 101 is the state after it, step 0 the start, and step 20, listed
    # twice, is kept once
    domain = Interval(length=1.0)
    gen = np.random.default_rng(3)
    X0, U0 = gen.uniform(0.0, 1.0, 50), gen.standard_normal(50)
    params = StepParams(h=0.005)
    X, U, snaps, _ = run_ensemble(domain, X0, U0, 0.502, params, 1.0, 9,
                                  snapshot_steps=(20, 101, 0, 20))
    assert sorted(snaps) == [0, 20, 101]
    assert np.array_equal(snaps[0][0], X0) and np.array_equal(snaps[0][1], U0)
    assert np.array_equal(snaps[101][0], X) and np.array_equal(snaps[101][1], U)
    X20, U20, _, _ = run_ensemble(domain, X0, U0, 0.1, params, 1.0, 9)
    assert np.array_equal(snaps[20][0], X20) and np.array_equal(snaps[20][1], U20)
    # the kept states are copies: they do not share memory with the start or the end
    for k, (Xs, Us) in snaps.items():
        for a in (X0, U0, X, U):
            assert not np.shares_memory(Xs, a) and not np.shares_memory(Us, a), k


@pytest.mark.parametrize("steps", [(-1,), (102,), (0, 101, 102)])
def test_snapshot_steps_outside_the_run_are_refused(steps):
    # T = 0.502 at h = 0.005 has steps 0 .. 101; a step outside is named
    # before any draw
    X0, U0 = np.linspace(0.1, 0.9, 10), np.zeros(10)
    bad = [k for k in steps if not 0 <= k <= 101]
    with pytest.raises(ValueError, match=re.escape(f"snapshot steps {bad} outside [0, 101]")):
        run_ensemble(Interval(1.0), X0, U0, 0.502, StepParams(h=0.005), 1.0, 9,
                     snapshot_steps=steps)


def semigroup_mean(domain, psi, t, x0, u0, n, params, sigma, seed):
    """Monte Carlo E[psi(X_t, U_t)] over n paths of run_ensemble started at
    (x0, u0), and its standard error."""
    X, U, _, _ = run_ensemble(domain, np.full(n, x0), np.full(n, u0), t, params, sigma, seed)
    vals = np.asarray(psi(X, U), dtype=float)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n))


def test_semigroup_constant_and_zero_time():
    domain = Interval(length=1.0)
    params = StepParams(h=0.05)
    mean, err = semigroup_mean(domain, lambda x, u: np.ones_like(x), 0.4, 0.5, 0.1, 500,
                               params, 1.0, 7)
    assert mean == 1.0 and err == 0.0
    psi = lambda x, u: np.cos(x) * np.exp(-(u**2))
    mean, err = semigroup_mean(domain, psi, 0.0, 0.3, -0.2, 100, params, 1.0, 7)
    assert mean == pytest.approx(math.cos(0.3) * math.exp(-0.04), abs=1e-14)
    assert err <= 1e-15  # identical values up to mean-subtraction dust


def test_semigroup_matches_free_gaussian_quadrature():
    # start far from the walls with small reach: confinement never triggers,
    # so the estimate must match the unconfined Gaussian integral
    domain = Interval(length=1.0)
    sigma, t = 0.2, 0.3
    x0, u0 = 0.5, 0.0
    psi = lambda x, u: np.exp(-((x - 0.5) ** 2) - u**2)
    params = StepParams(h=0.05)
    mean, err = semigroup_mean(domain, psi, t, x0, u0, 20_000, params, sigma, 21)

    cov = analytic_free_cov(sigma, t)
    L = np.linalg.cholesky(cov)
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
    w1, w2 = np.meshgrid(weights, weights, indexing="ij")
    z1, z2 = math.sqrt(2) * g1, math.sqrt(2) * g2
    xq = x0 + t * u0 + L[0, 0] * z1
    uq = u0 + L[1, 0] * z1 + L[1, 1] * z2
    exact = float(np.sum(w1 * w2 * psi(xq, uq)) / np.pi)
    assert abs(mean - exact) <= 4 * err


def test_step_params_validation():
    with pytest.raises(ValueError):
        StepParams(h=0.0)
    with pytest.raises(ValueError):
        StepParams(h=1.0, h_min=2.0)
    with pytest.raises(ValueError):
        StepParams(h=1.0, max_hits=0)
    p = StepParams(h=0.512)
    assert p.h_min == pytest.approx(0.002, abs=1e-15)
