"""The lockstep near-wall kernel against the sequential scalar cascade.

`scalar_cascade` keeps the recursive one-path-at-a-time formulation as the
reference.  The kernel must reproduce it bit for bit: end states, every hit
(path id, time, location, velocities, in the order of the hit table) and the
stream counter after the last draw.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import scalar_cascade
from speckin.errors import WatchdogExceeded
from speckin.geometry import Annulus, Ball, Interval
from speckin.langevin import (
    STEP_COUNTER_STRIDE,
    WINDOW,
    PhaseState,
    StepParams,
    _bisect,
    _bridge_scales,
    _crossing_guess,
    _near_wall_kernel,
    confined_step,
    ensemble_confined_step,
)
from speckin.rng import RngStream

SEED = 2718
STEP = 3  # draws start at counter STEP * STEP_COUNTER_STRIDE


def _shell(gen, n, d, r_lo, r_hi):
    """n points with radius uniform in [r_lo, r_hi) and uniform direction."""
    z = gen.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return gen.uniform(r_lo, r_hi, (n, 1)) * z


def _on_sphere(gen, n, d, radius, inward, speed):
    """n points on the sphere |x| = radius, with velocities whose radial
    part points towards the centre (inward) or away from it, its size
    uniform in `speed`."""
    x = _shell(gen, n, d, radius, radius)
    u = gen.standard_normal((n, d))
    radial = np.sum(u * x, axis=1, keepdims=True) / radius**2
    size = gen.uniform(*speed, (n, 1)) / radius
    u -= (radial + (1.0 if inward else -1.0) * size) * x
    return x, u


def _case(name):
    """(domain, X, U, params, sigma) for one scenario."""
    gen = np.random.default_rng(list(CASES).index(name))
    if name == "interval-near":
        X = np.r_[gen.uniform(0.0, 0.05, 40), gen.uniform(0.95, 1.0, 40)]
        return Interval(1.0), X, gen.standard_normal(80), StepParams(h=0.02), 1.0
    if name == "interval-many-hits":
        # a short interval crossed many times per step: paths overrun their
        # prefetched window and refill it
        X = gen.uniform(0.0, 0.05, 10)
        return Interval(0.05), X, 20.0 * gen.standard_normal(10), StepParams(h=0.05), 1.0
    if name == "interval-fast":
        X = gen.uniform(0.0, 1.0, 8)
        U = gen.choice([-1.0, 1.0], 8) * gen.uniform(50.0, 200.0, 8)
        return Interval(1.0), X, U, StepParams(h=0.1), 0.5
    if name == "interval-boundary":
        X = np.r_[np.zeros(30), np.ones(30)]
        U = np.r_[gen.uniform(1e-4, 0.3, 30), -gen.uniform(1e-4, 0.3, 30)]
        return Interval(1.0), X, U, StepParams(h=0.02), 1.0
    if name == "interval-delta-near":
        X = gen.uniform(0.0, 0.02, 12)
        return Interval(1.0), X, gen.standard_normal(12), StepParams(h=0.02, delta_near=0.05), 1.0
    if name == "interval-h-min-is-h":
        # depth 0: the free flight is the only segment and already a leaf
        X = np.r_[gen.uniform(0.0, 0.05, 20), gen.uniform(0.95, 1.0, 20)]
        params = StepParams(h=0.02, h_min=0.02)
        return Interval(1.0), X, 3.0 * gen.standard_normal(40), params, 1.0
    if name == "interval-prune-nothing":
        # a delta_near wider than the domain prunes nothing, so every leaf
        # is reached and those that stay inside are popped in chains
        X = np.r_[gen.uniform(0.0, 0.01, 6), gen.uniform(0.99, 1.0, 6)]
        U = np.r_[-gen.uniform(0.0, 1.0, 6), gen.uniform(0.0, 1.0, 6)]  # towards the wall
        params = StepParams(h=0.02, h_min=0.02 / 64, delta_near=2.0)
        return Interval(1.0), X, U, params, 1.0
    if name == "interval-short-last-step":
        # the last step of a run is shorter than params.h; fast paths hit
        # the walls and refine what is left of it at other scales
        X = gen.uniform(0.0, 0.1, 16)
        U = gen.choice([-1.0, 1.0], 16) * gen.uniform(5.0, 40.0, 16)
        return Interval(0.1), X, U, StepParams(h=0.02), 1.0
    if name == "ball-2d":
        X = _shell(gen, 60, 2, 0.85, 1.0)
        return Ball((0.0, 0.0), 1.0), X, 2.0 * gen.standard_normal((60, 2)), StepParams(h=0.05), 1.0
    if name == "ball-2d-boundary":
        X, U = _on_sphere(gen, 24, 2, 1.0, inward=True, speed=(0.01, 0.2))
        return Ball((0.0, 0.0), 1.0), X, U, StepParams(h=0.05), 1.0
    if name == "ball-3d-delta-near":
        X = _shell(gen, 12, 3, 0.8, 1.0)
        params = StepParams(h=0.05, delta_near=0.1)
        return Ball((0.0, 0.0, 0.0), 1.0), X, gen.standard_normal((12, 3)), params, 1.0
    if name == "annulus-2d":
        X = _shell(gen, 60, 2, 0.5, 1.0)
        dom = Annulus((0.0, 0.0), inner_radius=0.5, radius=1.0)
        return dom, X, 3.0 * gen.standard_normal((60, 2)), StepParams(h=0.05), 1.0
    if name == "annulus-2d-boundary-fast":
        # starts on the inner wall moving away from the centre, fast enough
        # to cross the shell several times per step
        X, U = _on_sphere(gen, 16, 2, 0.5, inward=False, speed=(0.5, 2.0))
        dom = Annulus((0.0, 0.0), inner_radius=0.5, radius=1.0)
        return dom, X, 15.0 * U, StepParams(h=0.1), 0.5
    if name == "ball-2d-eps-hit-1e-22":
        # leaf chords of ~1e-4 bisected to 1e-22 take ~60 halvings, past the
        # 52 after which a bracket's midpoint rounds to one of its ends
        X = _shell(gen, 40, 2, 0.85, 1.0)
        params = StepParams(h=0.05, eps_hit=1e-22)
        return Ball((0.0, 0.0), 1.0), X, 2.0 * gen.standard_normal((40, 2)), params, 1.0
    raise KeyError(name)


# each scenario with its max_hits: about 10 times the most wall contacts
# one of its paths makes, so a fault that keeps paths on the wall raises
# WatchdogExceeded within seconds, not after the default 10,000 contacts
CASES = {
    "interval-near": 10,  # at most 1 contact per path
    "interval-many-hits": 160,  # 16
    "interval-fast": 190,  # 19
    "interval-boundary": 20,  # 2
    "interval-delta-near": 10,  # 1
    "ball-2d": 10,  # 1
    "ball-2d-boundary": 30,  # 3
    "ball-3d-delta-near": 10,  # 1
    "annulus-2d": 30,  # 3
    "annulus-2d-boundary-fast": 70,  # 7
    "interval-h-min-is-h": 10,  # 1
    "interval-prune-nothing": 10,  # 1
    "interval-short-last-step": 50,  # 5
    "ball-2d-eps-hit-1e-22": 10,  # 1
}
SHORT_STEP = {"interval-short-last-step": 0.013}  # step lengths other than params.h


def _row(A, i):
    return float(A[i]) if A.ndim == 1 else A[i].copy()


def _reference(domain, X, U, params, sigma, h):
    """Each path alone through the scalar cascade: (result, counter)."""
    out = []
    for i in range(X.shape[0]):
        rng = RngStream(SEED, i, STEP * STEP_COUNTER_STRIDE)
        res = scalar_cascade.confined_step(
            domain, PhaseState(_row(X, i), _row(U, i)), params, sigma, rng, h=h
        )
        out.append((res, rng.counter))
    return out


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    """One scenario with its scalar reference, shared by the tests below."""
    domain, X, U, params, sigma = _case(request.param)
    params = replace(params, max_hits=CASES[request.param])
    h = SHORT_STEP.get(request.param, params.h)
    return (request.param, domain, X, U, params, sigma, h,
            _reference(domain, X, U, params, sigma, h))


def test_kernel_matches_scalar_cascade_bitwise(case):
    name, domain, X, U, params, sigma, h, ref = case
    base = STEP * STEP_COUNTER_STRIDE
    ids = np.arange(X.shape[0], dtype=np.uint64)
    Xk, Uk, counters, hits = _near_wall_kernel(domain, X, U, h, params, sigma, SEED, ids, base)
    for i, (res, counter) in enumerate(ref):
        np.testing.assert_array_equal(Xk[i], res.state.x)
        np.testing.assert_array_equal(Uk[i], res.state.u)
        assert counters[i] == counter
    # the table holds path 0's contacts in time order, then path 1's, ...
    scalar_cascade.assert_same_hits(hits, [e for res, _ in ref for e in res.hits])
    n = len(hits)
    assert n > 0
    assert hits.path_id.dtype == np.uint64 and hits.path_id.shape == (n,)
    assert hits.time.dtype == np.float64 and hits.time.shape == (n,)
    columns = [getattr(hits, name) for name in scalar_cascade.HIT_COLUMNS]
    for column in columns[2:]:  # states: (n,) in d = 1, (n, d) otherwise
        assert column.dtype == np.float64 and column.shape == (n,) + X.shape[1:]
    # no hit column shares memory with the kernel's state arrays
    assert not any(np.shares_memory(c, A) for c in columns for A in (Xk, Uk))
    if name in ("interval-many-hits", "annulus-2d-boundary-fast"):
        # some path drew past its prefetched window
        assert max(c for _, c in ref) - base > WINDOW * (1 if X.ndim == 1 else X.shape[1])


def test_single_path_and_ensemble_match_scalar_cascade(case):
    _, domain, X, U, params, sigma, h, ref = case
    for i in range(0, X.shape[0], 7):
        rng = RngStream(SEED, i, STEP * STEP_COUNTER_STRIDE)
        res = confined_step(domain, PhaseState(_row(X, i), _row(U, i)), params, sigma, rng, h=h)
        assert rng.counter == ref[i][1]
        np.testing.assert_array_equal(res.state.x, ref[i][0].state.x)
        np.testing.assert_array_equal(res.state.u, ref[i][0].state.u)
        scalar_cascade.assert_same_hits(res.hits, ref[i][0].hits)
    Xe, Ue, hits = ensemble_confined_step(domain, X, U, STEP, params, sigma, SEED, h=h)
    for i, (res, _) in enumerate(ref):
        np.testing.assert_array_equal(Xe[i], res.state.x)
        np.testing.assert_array_equal(Ue[i], res.state.u)
    scalar_cascade.assert_same_hits(hits, [e for res, _ in ref for e in res.hits])


def test_ensemble_watchdog_on_max_hits():
    # path 1 crosses the unit interval ~1000 times in the step
    X = np.array([0.5, 0.5, 0.2])
    U = np.array([1.0, 1000.0, 0.0])
    params = StepParams(h=1.0, max_hits=100)
    with pytest.raises(WatchdogExceeded, match="max_hits"):
        ensemble_confined_step(Interval(1.0), X, U, 0, params, 0.0, seed=1)
    X1, _, _ = ensemble_confined_step(Interval(1.0), X[[0, 2]], U[[0, 2]], 0, params, 0.0, seed=1)
    assert np.all((X1 >= 0.0) & (X1 <= 1.0))


@pytest.mark.parametrize("levels,raises", [(8, False), (10, True)])
def test_ensemble_watchdog_on_noise_budget(levels, raises):
    # a delta_near wider than the ball prunes nothing, so each path refines
    # its whole dyadic tree: 2^levels - 1 bridges of 2d normals each, plus
    # the free flight; in d = 64 that is 32,768 normals at 8 levels and
    # 131,072 at 10, against a budget of 2^16 per path and step
    d = 64
    domain = Ball(tuple([0.0] * d), 1.0)
    X = np.zeros((3, d))
    U = np.full((3, d), 1e-3)
    params = StepParams(h=0.01, h_min=0.01 / 2**levels, delta_near=10.0)
    draws = 2 * d * 2**levels
    assert (draws > STEP_COUNTER_STRIDE) == raises
    if raises:
        with pytest.raises(WatchdogExceeded, match="noise budget"):
            ensemble_confined_step(domain, X, U, 5, params, 1e-6, seed=3)
    else:
        X1, _, _ = ensemble_confined_step(domain, X, U, 5, params, 1e-6, seed=3)
        assert np.all(np.linalg.norm(X1, axis=1) < 1.0)


BISECT_DOMAINS = {
    "interval": Interval(1.0),
    "ball-2d": Ball((0.0, 0.0), 1.0),
    "annulus-3d": Annulus((0.0, 0.0, 0.0), inner_radius=0.5, radius=1.0),
}


def _chords(domain, gen, n):
    """n chords from points near the walls (one in ten on a wall) in uniform
    directions, their lengths log-uniform in [1e-9, 1]: some stay inside,
    some cross a wall, and some leave a wall inwards before crossing one."""
    length = 10.0 ** gen.uniform(-9.0, 0.0, n)
    if isinstance(domain, Interval):
        L = domain.length
        xa = np.r_[gen.uniform(0.0, 0.05 * L, n // 2), gen.uniform(0.95 * L, L, n - n // 2)]
        xa[::10] = L * np.round(xa[::10] / L)
        return xa, xa + gen.choice([-1.0, 1.0], n) * length
    d = len(domain.center)
    inner = getattr(domain, "inner_radius", 0.8)
    xa = _shell(gen, n, d, inner, domain.radius)
    xa[::10] = _shell(gen, xa[::10].shape[0], d, domain.radius, domain.radius)
    direction = _shell(gen, n, d, 1.0, 1.0)
    return xa, xa + length[:, None] * direction


@pytest.mark.parametrize("name", list(BISECT_DOMAINS))
def test_bisect_matches_masked_reference_bitwise(name):
    # eps_hit 1e-17 and below take some rows past 52 halvings, and 1e-300
    # takes every row to the 80-round cap
    domain = BISECT_DOMAINS[name]
    xa, xb = _chords(domain, np.random.default_rng(list(BISECT_DOMAINS).index(name)), 100_000)
    guess = _crossing_guess(domain.signed_distance(xa), domain.signed_distance(xb))
    for eps_hit in (1e-10, 1e-17, 1e-19, 1e-300):
        np.testing.assert_array_equal(
            _bisect(domain, xa, xb, eps_hit, guess),
            scalar_cascade.reference_bisect(domain, xa, xb, eps_hit),
            err_msg=f"eps_hit={eps_hit}",
        )


def _case_domains():
    """Each distinct domain of CASES, by the first scenario that uses it."""
    out = {}
    for name in CASES:
        domain = _case(name)[0]
        if domain not in out.values():
            out[name] = domain
    return out


def _odd_chords(domain):
    """Chords that trip up a guess from the end distances: in an annulus,
    chords that dive through the hole before they leave; in a ball, chords
    between two points equally far from the wall (on it, or both inside);
    on an interval, a chord between the walls; plus a chord of length 0,
    and a long one whose bisection to a tiny eps_hit runs past 52 levels."""
    if isinstance(domain, Interval):
        L = domain.length
        xa, xb = np.array([0.0, 0.3 * L, L, 0.5 * L]), np.array([L, 0.3 * L, 0.0, 3.0 * L])
        return xa, xb
    d = len(domain.center)
    e = np.eye(d)
    r, R = getattr(domain, "inner_radius", 0.5 * domain.radius), domain.radius
    mid = 0.5 * (r + R)
    xa = np.array([-mid * e[0] + 0.1 * r * e[1], -mid * e[0], R * e[0], mid * e[1],
                   -R * e[1], 0.5 * r * e[0]])
    xb = np.array([(R + 0.2) * e[0] + 0.1 * r * e[1], (R + 0.5) * e[0], R * e[1], mid * e[0],
                   -R * e[1], 3.0 * R * e[1]])
    return xa, xb


@pytest.mark.parametrize("name", list(_case_domains()))
def test_bisect_matches_reference_whatever_the_guess(name):
    # a guess only picks the path tried first: wrong, clipped or NaN
    # guesses must give the starts of plain bisection bit for bit
    domain = _case_domains()[name]
    xa, xb = _chords(domain, np.random.default_rng(7), 3000)
    oa, ob = _odd_chords(domain)
    xa, xb = np.concatenate((xa, oa)), np.concatenate((xb, ob))
    sd_a, sd_b = domain.signed_distance(xa), domain.signed_distance(xb)
    for eps_hit in (1e-10, 1e-19, 1e-300):
        want = scalar_cascade.reference_bisect(domain, xa, xb, eps_hit)
        guesses = {
            "from the distances": _crossing_guess(sd_a, sd_b),
            "exact": want,
            "mirrored": 1.0 - want,  # wrong from the first halving on
            "0": np.zeros(len(want)),
            "1": np.ones(len(want)),
            "nan": np.full(len(want), np.nan),
            "out of range": np.where(want < 0.5, np.inf, -np.inf),
        }
        for label, guess in guesses.items():
            np.testing.assert_array_equal(_bisect(domain, xa, xb, eps_hit, guess), want,
                                          err_msg=f"eps_hit={eps_hit}, guess {label}")


def test_bisect_odd_chords_cover_their_cases():
    # the chords above do what _odd_chords says of them
    annulus = _case_domains()["annulus-2d"]
    xa, xb = _odd_chords(annulus)
    for i in (0, 1):  # through the hole, then out of the outer wall
        s = np.linspace(0.0, 1.0, 1001)[:, None]
        sd = annulus.signed_distance(xa[i] + s * (xb[i] - xa[i]))
        assert sd[0] < 0.0 < sd[-1] and (sd[:500] > 0.0).any()
        first = scalar_cascade.reference_bisect(annulus, xa[i:i + 1], xb[i:i + 1], 1e-10)
        assert first < 0.5  # the hole, not the outer wall the distances point to
    ball = _case_domains()["ball-2d"]
    xa, xb = _odd_chords(ball)
    sd_a, sd_b = ball.signed_distance(xa), ball.signed_distance(xb)
    assert sd_a[2] == sd_b[2] == 0.0 and sd_a[3] == sd_b[3] < 0.0 and (xa[4] == xb[4]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        guess = _crossing_guess(sd_a, sd_b)
    assert np.isnan(guess[2]) and guess[3] == -np.inf
    # rows with 0 rounds, and rows past the 52 levels of the predicted batch
    length = np.linalg.norm(xb - xa, axis=1)
    assert length[4] == 0.0 and 2.0**-52 * length[5] > 1e-19


def test_bridge_scales_match_float_formulas_bitwise():
    gen = np.random.default_rng(5)
    dt = 10.0 ** gen.uniform(-8.0, 0.0, 200_000)
    # where the platform's array power rounds a cube differently from the
    # Python float power (about 5% of these values on AVX-512 machines),
    # take those values first
    cube = np.array([v**3 for v in dt.tolist()])
    dt = np.r_[dt[dt**3 != cube][:500], dt[:500]]
    for sigma in (1.0, 0.37):
        sx, su = _bridge_scales(sigma, dt)
        np.testing.assert_array_equal(sx, [sigma * math.sqrt(v**3 / 192.0) for v in dt.tolist()])
        np.testing.assert_array_equal(su, [sigma * math.sqrt(v / 16.0) for v in dt.tolist()])
