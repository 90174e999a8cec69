"""Reference oracle: the sequential near-wall cascade, one path at a time.

This is the recursive formulation the lockstep kernel in `speckin.langevin`
must reproduce bit for bit: free flight over the time left, then exact
bridge midpoints inserted depth-first (left half before right half) until a
segment is pruned by the near-wall trigger or is short enough (dt <= h_min)
to locate its wall crossing by bisection on the straight chord.  Every draw
comes from `rng.normals`, so the order of draws, and with it each draw's
(seed, stream_id, counter) address, is the order of this recursion.
"""

from __future__ import annotations

import math

import numpy as np

from speckin.errors import InvalidStart, WatchdogExceeded
from speckin.geometry import reflect, row_norm
from speckin.langevin import (
    EPS_TAN,
    ConfinedStepResult,
    HitEvent,
    PhaseState,
    StepParams,
    bridge_midpoint,
    free_step,
)


def _speed(u):
    u = np.asarray(u, dtype=float)
    return float(np.abs(u)) if u.ndim == 0 else float(np.linalg.norm(u))


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


def confined_step(domain, state, params, sigma, rng, h=None) -> ConfinedStepResult:
    """One macro step of one path, reflecting at every wall hit."""
    if float(domain.signed_distance(state.x)) > params.eps_hit:
        raise InvalidStart(f"state outside the domain: sd={domain.signed_distance(state.x)}")
    h_left = params.h if h is None else float(h)
    t_done = 0.0
    cur = state
    hits = []
    for _ in range(params.max_hits + 1):
        if h_left <= 0.0:
            return ConfinedStepResult(cur, tuple(hits))
        end = free_step(cur, h_left, sigma, rng)
        found = first_hit(domain, cur, end, h_left, params, sigma, rng)
        if found is None:
            return ConfinedStepResult(end, tuple(hits))
        t_rel, location, u_pre = found
        n = domain.outward_normal(location)
        dot = float(np.dot(np.atleast_1d(u_pre), np.atleast_1d(n)))
        if dot <= EPS_TAN * max(_speed(u_pre), 1e-300):
            cur = PhaseState(location, u_pre)
        else:
            u_post = reflect(np.asarray(u_pre)[None], np.asarray(n)[None])[0]
            hits.append(HitEvent(path_id=rng.stream_id, time=t_done + t_rel, location=location,
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
