"""Reference oracle: the sequential near-wall cascade, one path at a time.

This is the recursive formulation the lockstep kernel in `speckin.langevin`
must reproduce bit for bit: free flight over the time left, then exact
bridge midpoints inserted depth-first (left half before right half) until a
segment is pruned by the near-wall trigger or is short enough (dt <= h_min)
to locate its wall crossing by bisection on the straight chord.  Every draw
comes from `rng.normals`, so the order of draws, and with it each draw's
(seed, stream_id, counter) address, is the order of this recursion.

The free flight and the bridge midpoint are written out here, per component
in Python floats, rather than taken from `speckin.langevin`: a fault in the
kernel's own flow arithmetic then shows as a mismatch.  Each formula keeps
the kernel's order of operations, which IEEE arithmetic makes bitwise.  A
contact is one `Hit` record here, and `assert_same_hits` compares a list of
them with the columns of the program's hit table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from speckin.errors import InvalidStart, WatchdogExceeded
from speckin.geometry import reflect, row_norm
from speckin.langevin import EPS_TAN, PhaseState, StepParams

HIT_COLUMNS = ("path_id", "time", "location", "pre_velocity", "post_velocity")


@dataclass(frozen=True)
class Hit:
    """One wall contact of path path_id: time, location, velocities just
    before and after."""

    path_id: int
    time: float
    location: object
    pre_velocity: object
    post_velocity: object


@dataclass(frozen=True)
class StepResult:
    """The state after one confined step, and its contacts in time order."""

    state: PhaseState
    hits: tuple


def assert_same_hits(log, hits):
    """The hit table `log` holds exactly the contacts `hits`, row by row, in
    every column, bit for bit."""
    assert len(log) == len(hits)
    for name in HIT_COLUMNS:
        column = getattr(log, name)
        want = np.array([getattr(h, name) for h in hits]).reshape(column.shape)
        np.testing.assert_array_equal(column, want, err_msg=name)


def _speed(u):
    u = np.asarray(u, dtype=float)
    return float(np.abs(u)) if u.ndim == 0 else float(np.linalg.norm(u))


def _parts(v):
    """The components of a position or velocity as Python floats."""
    return [float(v)] if np.ndim(v) == 0 else [float(c) for c in v]


def _state(x, u):
    """A PhaseState from component lists: floats in d=1, arrays otherwise."""
    if len(x) == 1:
        return PhaseState(x[0], u[0])
    return PhaseState(np.array(x), np.array(u))


def free_step(state, h, sigma, rng):
    """Exact unconfined step over h > 0: per component, with normals z1, z2,
    u + sigma sqrt(h) z1 and x + h u + sigma h sqrt(h) (z1/2 + z2/(2 sqrt 3))."""
    xs, us = _parts(state.x), _parts(state.u)
    z = rng.normals(2 * len(xs)).tolist()
    root_h = math.sqrt(h)
    c = 0.5 / math.sqrt(3.0)
    x_new = [x + h * u + (sigma * h * root_h) * (0.5 * z[2 * j] + c * z[2 * j + 1])
             for j, (x, u) in enumerate(zip(xs, us))]
    u_new = [u + (sigma * root_h) * z[2 * j] for j, u in enumerate(us)]
    return _state(x_new, u_new)


def bridge_midpoint(a, b, h, sigma, rng):
    """The mid-time state of a free-flight step of length h pinned at a and
    b: per component, independent Gaussians with
      mean x = (x_a + x_b)/2 - h (u_b - u_a)/8,   sd sigma sqrt(h^3 / 192),
      mean u = 3 (x_b - x_a)/(2h) - (u_a + u_b)/4, sd sigma sqrt(h / 16)."""
    xa, ua, xb, ub = _parts(a.x), _parts(a.u), _parts(b.x), _parts(b.u)
    z = rng.normals(2 * len(xa)).tolist()
    scale_x = sigma * math.sqrt(h**3 / 192.0)
    scale_u = sigma * math.sqrt(h / 16.0)
    x_mid, u_mid = [], []
    for j in range(len(xa)):
        x_mid.append(0.5 * (xa[j] + xb[j]) - (h / 8.0) * (ub[j] - ua[j]) + scale_x * z[2 * j])
        u_mid.append(1.5 * (xb[j] - xa[j]) / h - 0.25 * (ua[j] + ub[j]) + scale_u * z[2 * j + 1])
    return _state(x_mid, u_mid)


def _near_trigger(params: StepParams, speed: float, dt: float, sigma: float) -> float:
    if params.delta_near is not None:
        return params.delta_near
    return speed * dt + 3.0 * sigma * dt * math.sqrt(dt)


def _interp(a, b, s):
    return a + s * (b - a)


def locate_on_segment(domain, a: PhaseState, b: PhaseState, params: StepParams):
    """Bisect the straight segment a -> b for the first wall crossing.

    Requires sd(a.x) <= 0 < sd(b.x).  Returns (fraction, location, u_pre).
    Convergence is judged by bracket width, not |sd| alone: a segment that
    starts on the wall and dives back inside before exiting elsewhere must
    not report the start point as the contact.
    """
    chord = np.asarray(b.x, dtype=float) - np.asarray(a.x, dtype=float)
    chord_len = float(np.abs(chord)) if chord.ndim == 0 else float(np.linalg.norm(chord))
    s_lo, s_hi = 0.0, 1.0
    for _ in range(80):
        if (s_hi - s_lo) * chord_len <= params.eps_hit:
            break
        s_mid = 0.5 * (s_lo + s_hi)
        if float(domain.signed_distance(_interp(a.x, b.x, s_mid))) > 0.0:
            s_hi = s_mid
        else:
            s_lo = s_mid
    location = domain.project(_interp(a.x, b.x, s_lo))
    return s_lo, location, _interp(a.u, b.u, s_lo)


def reference_bisect(domain, xa, xb, eps_hit: float):
    """The batched bisection as the kernel first ran it: every row is halved
    under a mask while its bracket is wider than eps_hit, for at most 80
    rounds.  `langevin._bisect` must return the same starts bit for bit."""
    chord = xb - xa
    length = row_norm(chord)
    lo = np.zeros(length.shape)
    hi = np.ones(length.shape)
    for _ in range(80):
        go = ~((hi - lo) * length <= eps_hit)
        if not go.any():
            break
        mid = 0.5 * (lo + hi)
        s = mid if xa.ndim == 1 else mid[:, None]
        out = domain.signed_distance(xa + s * chord) > 0.0
        hi = np.where(go & out, mid, hi)
        lo = np.where(go & ~out, mid, lo)
    return lo


def first_hit(domain, a, b, dt, params, sigma, rng):
    """First wall contact on (0, dt] given endpoint states, or None.

    Returns (time_in_segment, location, u_pre).  Consumes bridge draws from
    rng while refining; a pruned or hit-free call leaves the free endpoint b
    as the step result.
    """
    sd_a = float(domain.signed_distance(a.x))
    sd_b = float(domain.signed_distance(b.x))
    delta = _near_trigger(params, max(_speed(a.u), _speed(b.u)), dt, sigma)
    if sd_a <= -delta and sd_b <= -delta:
        return None
    if dt <= params.h_min:
        if sd_b <= 0.0:
            return None
        frac, location, u_pre = locate_on_segment(domain, a, b, params)
        return frac * dt, location, u_pre
    mid = bridge_midpoint(a, b, dt, sigma, rng)
    found = first_hit(domain, a, mid, 0.5 * dt, params, sigma, rng)
    if found is not None:
        return found
    found = first_hit(domain, mid, b, 0.5 * dt, params, sigma, rng)
    if found is None:
        return None
    t_rel, location, u_pre = found
    return 0.5 * dt + t_rel, location, u_pre


def confined_step(domain, state, params, sigma, rng, h=None) -> StepResult:
    """One macro step of one path, reflecting at every wall hit."""
    if float(domain.signed_distance(state.x)) > params.eps_hit:
        raise InvalidStart(f"state outside the domain: sd={domain.signed_distance(state.x)}")
    h_left = params.h if h is None else float(h)
    t_done = 0.0
    cur = state
    hits = []
    for _ in range(params.max_hits + 1):
        if h_left <= 0.0:
            return StepResult(cur, tuple(hits))
        end = free_step(cur, h_left, sigma, rng)
        found = first_hit(domain, cur, end, h_left, params, sigma, rng)
        if found is None:
            return StepResult(end, tuple(hits))
        t_rel, location, u_pre = found
        n = domain.outward_normal(location)
        dot = float(np.dot(np.atleast_1d(u_pre), np.atleast_1d(n)))
        if dot <= EPS_TAN * max(_speed(u_pre), 1e-300):
            cur = PhaseState(location, u_pre)
        else:
            u_post = reflect(np.asarray(u_pre)[None], np.asarray(n)[None])[0]
            hits.append(Hit(path_id=rng.stream_id, time=t_done + t_rel, location=location,
                            pre_velocity=u_pre, post_velocity=u_post))
            if len(hits) > params.max_hits:
                raise WatchdogExceeded(
                    f"more than max_hits={params.max_hits} reflections in one step"
                )
            cur = PhaseState(location, u_post)
        t_done += t_rel
        h_left -= t_rel
    raise WatchdogExceeded(
        f"more than max_hits={params.max_hits} wall interactions in one step"
    )
