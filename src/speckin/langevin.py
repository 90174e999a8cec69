"""Confined second-order Langevin dynamics with specular wall reflection.

Position integrates velocity, velocity diffuses, and the pair (x, u) between
wall contacts is jointly Gaussian, so free flight over any step length is
sampled exactly rather than by substepping.  Wall hits are found by inserting
exact conditional midpoints (the law of the integrated pair pinned at both
endpoints) depth-first, until a segment is either far enough from the wall to
be pruned or short enough that the frozen-noise straight path locates the
contact time by bisection; the contact point is then projected onto the wall
and the velocity reflected specularly.

One kernel does this for single paths and ensembles alike: the near-wall
paths of a macro step advance in lockstep, each with its own explicit stack
of bridge segments.  A segment is classified (pruned, a leaf that stays
inside, a crossing leaf, or to be split) as soon as both its endpoints
exist, and the segments that need no more work are popped at once, so every
pass either refines or locates the top segment of each path with vectorized
arithmetic.  Every random draw is addressed by (seed, stream id, counter)
and each path draws in the order of the sequential depth-first traversal,
so a path is a pure function of its stream and the results are bit for bit
the same however paths are batched.

One marching loop, run_ensemble, serves every particle run; simulate_path is
that march on one row.  Before each confined step it kicks the velocities by
h times a field: none for the linear process, b(U) for independent drifted
paths, and the mean-field estimate of E[b(U) | X] for the McKean system
(mckean.run_mckean).  Every wall contact is one HitEvent, built once by the
kernel with its path id and its time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStart, WatchdogExceeded
from .geometry import Domain, normal_velocity, reflect, row_norm
from .rng import RngStream, normals_at

STEP_COUNTER_STRIDE = 1 << 16  # per-(path, macro-step) noise budget
EPS_TAN = 1e-12  # |u.n| <= EPS_TAN*|u| at a wall contact counts as a tangential graze
WINDOW = 96  # normals per component fetched ahead for each near-wall path


@dataclass(frozen=True)
class PhaseState:
    """Position/velocity pair; scalars in d=1, length-d arrays otherwise."""

    x: object
    u: object


@dataclass(frozen=True)
class HitEvent:
    """One wall contact of path path_id: time, location, velocities just
    before and after."""

    path_id: int
    time: float
    location: object
    pre_velocity: object
    post_velocity: object


@dataclass(frozen=True)
class StepParams:
    """Macro step h, refinement floor h_min, and hit-detection knobs.

    delta_near = None lets each segment use its own free-flight reach
    max(|u_a|, |u_b|)*dt + 3*sigma*dt^1.5 as the near-wall trigger.
    """

    h: float
    h_min: float | None = None
    eps_hit: float = 1e-10
    delta_near: float | None = None
    max_hits: int = 10_000

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.h_min is None:
            object.__setattr__(self, "h_min", self.h / 256.0)
        if not 0 < self.h_min <= self.h:
            raise ValueError(f"need 0 < h_min <= h, got h_min={self.h_min}")
        if self.eps_hit <= 0 or (self.delta_near is not None and self.delta_near <= 0):
            raise ValueError("eps_hit and delta_near must be positive")
        if self.max_hits < 1:
            raise ValueError(f"max_hits must be >= 1, got {self.max_hits}")


@dataclass(frozen=True)
class ConfinedStepResult:
    state: PhaseState
    hits: tuple


@dataclass(frozen=True)
class PathResult:
    times: np.ndarray
    states: tuple
    events: tuple


@dataclass(frozen=True)
class SemigroupEstimate:
    mean: float
    std_error: float


def _pruned(params: StepParams, sigma: float, sd_a, sd_b, speed_a, speed_b, dt):
    """Near-wall trigger (see StepParams): True where both ends of a segment
    of length dt lie deeper inside than its reach, so it cannot touch the wall."""
    reach = params.delta_near
    if reach is None:
        reach = np.maximum(speed_a, speed_b) * dt + 3.0 * sigma * dt * np.sqrt(dt)
    return np.maximum(sd_a, sd_b) <= -reach


def _free_update(x, u, h, sigma, xi1, xi2):
    """Shared exact-flow arithmetic; identical expression for scalars and batches."""
    root_h = np.sqrt(h)
    u_new = u + (sigma * root_h) * xi1
    x_new = x + h * u + (sigma * h * root_h) * (0.5 * xi1 + (0.5 / math.sqrt(3.0)) * xi2)
    return x_new, u_new


def _bridge_scales(sigma: float, dt: np.ndarray):
    """Standard deviations of the bridge midpoint over each step in dt, with
    Python float cubes: numpy's array dt**3 can differ in the last bit."""
    cube = np.array([v**3 for v in dt.tolist()])
    return sigma * np.sqrt(cube / 192.0), sigma * np.sqrt(dt / 16.0)


def _bridge_update(xa, ua, xb, ub, h, scale_x, scale_u, xi1, xi2):
    """Mid-time states of free-flight segments of length h pinned at both ends:
    per component, independent Gaussians with these means and sds scale_x, scale_u."""
    mean_x = 0.5 * (xa + xb) - (h / 8.0) * (ub - ua)
    mean_u = 1.5 * (xb - xa) / h - 0.25 * (ua + ub)
    return mean_x + scale_x * xi1, mean_u + scale_u * xi2


def _as_rows(state: PhaseState, n: int = 1):
    """(X, U) holding state in each of n rows: shape (n,) in d=1, (n, d) otherwise."""
    return tuple(np.repeat(np.asarray(v, float)[None], n, axis=0) for v in (state.x, state.u))


def _row_state(X, U, i: int = 0) -> PhaseState:
    """Row i of a batch as a PhaseState; Python floats in d=1."""
    if X.ndim == 1:
        return PhaseState(float(X[i]), float(U[i]))
    return PhaseState(X[i], U[i])


def _pairs(Z, X):
    """(xi1, xi2) per row of Z, which holds 2 normals per component of X's rows."""
    return (Z[:, 0], Z[:, 1]) if X.ndim == 1 else (Z[:, 0::2], Z[:, 1::2])


def free_step(state: PhaseState, h: float, sigma: float, rng: RngStream) -> PhaseState:
    """Exact unconfined step: per component the increment pair is Gaussian with
    mean (h*u, 0) and covariance [[s^2 h^3/3, s^2 h^2/2], [s^2 h^2/2, s^2 h]]."""
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    if h == 0:
        return state
    X, U = _as_rows(state)
    return _row_state(*ensemble_free_flight(X, U, h, sigma, rng.normals(2 * U[0].size)[None]))


def _bisect(domain: Domain, xa, xb, eps_hit: float):
    """Per row, the start s of the bracket holding the first wall crossing on
    the straight chord xa -> xb, halved until it is at most eps_hit long.

    Convergence is judged by bracket width, not |sd| alone: a chord that
    starts on the wall and dives back inside before exiting elsewhere must
    not report its start as the contact.  Each row's round count is known
    up front: a bracket is 2^-k wide after k halvings until a midpoint
    rounds to one of its ends, and from then on its start does not move.
    """
    chord = xb - xa
    length = row_norm(chord)
    rounds = (~(np.ldexp(length, -np.arange(80)[:, None]) <= eps_hit)).sum(axis=0)
    lo = np.zeros(length.shape)
    hi = np.ones(length.shape)
    start = lo.copy()
    for k in range(1, rounds.max(initial=0) + 1):
        mid = 0.5 * (lo + hi)
        s = mid if xa.ndim == 1 else mid[:, None]
        out = domain.signed_distance(xa + s * chord) > 0.0
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)
        np.copyto(start, lo, where=rounds == k)
    return start


def _near_wall_kernel(domain, X, U, h, params, sigma, seed, stream_ids, start, limit=None,
                      time_offset=0.0):
    """Advance n paths through one confined step of length h, in lockstep.

    Path i draws from stream stream_ids[i] from counter `start` on, in the
    order of the sequential algorithm: a free flight over the time left,
    then exact bridge midpoints inserted depth-first, left half before right
    half, until a segment is pruned by the near-wall trigger or is short
    enough (dt <= h_min) to locate its wall crossing on the straight chord.
    The crossing is projected onto the wall and the velocity reflected
    (a tangential graze keeps it); the path then flies over the time left.

    Each path keeps a stack of the right endpoints of its pending segments,
    with the dyadic level of each.  A segment's fate (pruned, a leaf that
    stays inside, a crossing leaf, or split) depends only on its two
    endpoints, its level and the time left, so it is decided when the
    segment is pushed: by the free flight, or by the split that makes it.
    Each entry also records the highest entry at or below it that is kept
    (split or crossing), so the segments that need no more work are popped
    in one step, and every pass splits or locates the top segment of each
    active path under vectorized masks.  The wall contacts of a pass are
    bisected, projected, given their normals and reflected together; only
    the fold of each contact's time runs one at a time (a pass holds few).
    Draws come from one window of normals per path, refilled for the paths
    that run past it, so each keeps its (seed, stream_id, counter) address.

    Returns (X, U, counters, hits): end states, each path's counter after
    its last draw, and per path the list of its HitEvents in time order,
    each with path_id stream_ids[i] and time time_offset plus the time
    within the step.
    Raises WatchdogExceeded when a path has more than params.max_hits wall
    contacts, or draws past counter `limit`.
    """
    n = X.shape[0]
    ax = np.array(X, dtype=float)  # left end of each path's current segment
    au = np.array(U, dtype=float)
    ctr = np.full(n, start, dtype=np.int64)
    hits = [[] for _ in range(n)]
    if h <= 0.0:
        return ax, au, ctr, hits
    d = 1 if ax.ndim == 1 else ax.shape[1]
    width = WINDOW * d
    window = normals_at(seed, stream_ids, start, width)
    flat_window = window.reshape(-1)
    w_start = ctr.copy()
    pair = np.arange(2 * d)

    def draw(rows):
        """2d normals for each row at its counter: (xi1, xi2) per component."""
        c = ctr[rows]
        off = c - w_start[rows]
        past = off + 2 * d > width
        if past.any():
            refill = rows[past]
            window[refill] = normals_at(seed, stream_ids[refill], c[past], width)
            w_start[refill] = c[past]
            off[past] = 0
        c += 2 * d
        ctr[rows] = c
        if limit is not None and c.max() > limit:
            raise WatchdogExceeded("per-step noise budget exhausted")
        return _pairs(flat_window[(rows * width + off)[:, None] + pair], ax)

    h = float(h)
    depth, dt = 0, h
    while dt > params.h_min:
        dt *= 0.5
        depth += 1
    # Row i's stack lives in slots i*W .. i*W + W - 1 of flat arrays; slot 0
    # is a sentinel and entries start at slot 1.  An entry holds a right
    # endpoint, its signed distance and speed, the level of the segment it
    # closes, whether that segment is a crossing leaf, and `kept`: the
    # highest slot at or below it whose segment is split or crosses (0 when
    # none is).  Levels increase towards the top, where the two halves of
    # the last split share one.  right[i*W + l]: the level-l segment is a
    # right half.
    W = depth + 3
    bx = np.empty((n * W,) + ax.shape[1:])
    bu = np.empty_like(bx)
    b_sd = np.empty(n * W)
    b_speed = np.empty(n * W)
    b_lev = np.zeros(n * W, dtype=np.int64)
    cross = np.zeros(n * W, dtype=bool)
    kept = np.zeros(n * W, dtype=np.int64)
    right = np.zeros(n * W, dtype=bool)
    top = np.zeros(n, dtype=np.int64)  # slot of the top entry; 0 once the step is done
    a_sd = np.empty(n)
    a_speed = np.empty(n)
    h_left = np.full(n, h)
    t_done = np.zeros(n)
    contacts = np.zeros(n, dtype=np.int64)

    def classify(f, sd_a, speed_a, hl):
        """Mark the entries f that close a crossing leaf, given the signed
        distance and speed of each segment's left end; return which ones
        need no more work (pruned, or a leaf that stays inside)."""
        dt = np.ldexp(hl, -b_lev[f])
        sd_b = b_sd[f]
        prune = _pruned(params, sigma, sd_a, sd_b, speed_a, b_speed[f], dt)
        leaf = ~prune & (dt <= params.h_min)
        cross[f] = out = leaf & (sd_b > 0.0)
        return prune | (leaf & ~out)

    def push(r, g, slot, skip):
        """Entries g, at `slot` of rows r, go on top.  Those that need no
        more work are popped with the skipped entries under them, and the
        left end moves to the right end of the last one popped."""
        kept[g] = top[r] = k = np.where(skip, kept[g - 1], slot)
        r, k = r[skip], k[skip]
        base = r * W
        e = base + k + 1
        ax[r], au[r], a_sd[r], a_speed[r] = bx[e], bu[e], b_sd[e], b_speed[e]
        go = k > 0
        base, k = base[go], k[go]
        right[base + b_lev[base + k]] = True

    def fly(rows):
        """Free flight over the time left; its end is the whole stack."""
        xi1, xi2 = draw(rows)
        hl = h_left[rows]
        xe, ue = _free_update(ax[rows], au[rows], hl if d == 1 else hl[:, None], sigma, xi1, xi2)
        f = rows * W + 1
        bx[f], bu[f], b_lev[f] = xe, ue, 0
        b_sd[f] = domain.signed_distance(xe)
        b_speed[f] = row_norm(ue)
        a_sd[rows] = domain.signed_distance(ax[rows])
        a_speed[rows] = row_norm(au[rows])
        push(rows, f, 1, classify(f, a_sd[rows], a_speed[rows], hl))

    def split(r, t, f):
        """Insert the bridge midpoint of each row's top segment: the right
        half keeps slot t, the left half is pushed above it; then pop what
        needs no more work."""
        lv = b_lev[f]
        hl = h_left[r]
        dt = np.ldexp(hl, -lv)
        xi1, xi2 = draw(r)
        sx, su = _bridge_scales(sigma, dt)
        if d > 1:
            dt, sx, su = dt[:, None], sx[:, None], su[:, None]
        xm, um = _bridge_update(ax[r], au[r], bx[f], bu[f], dt, sx, su, xi1, xi2)
        g = f + 1
        b_lev[f] = b_lev[g] = lv + 1
        bx[g], bu[g] = xm, um
        sd_m = b_sd[g] = domain.signed_distance(xm)
        speed_m = b_speed[g] = row_norm(um)
        right[r * W + lv + 1] = False
        kept[f] = np.where(classify(f, sd_m, speed_m, hl), kept[f - 1], t)
        push(r, g, t + 1, classify(g, a_sd[r], a_speed[r], hl))

    fly(np.arange(n))
    while True:
        rows = np.flatnonzero(top)
        if not rows.size:
            return ax, au, ctr, hits
        t = top[rows]
        f = rows * W + t
        hit = cross[f]
        if not hit.all():
            keep = ~hit
            split(rows[keep], t[keep], f[keep])
        if not hit.any():
            continue
        r, f = rows[hit], f[hit]
        lv = b_lev[f]
        xa, xb = ax[r], bx[f]
        frac = _bisect(domain, xa, xb, params.eps_hit)
        s = frac if d == 1 else frac[:, None]
        u_at = au[r] + s * (bu[f] - au[r])
        location = domain.project(xa + s * (xb - xa))
        normal = domain.outward_normal(location)
        # a tangential graze, or an interpolated velocity pointing back
        # inside at the located crossing, keeps its velocity: no hit
        jump = ~(normal_velocity(u_at, normal) <= EPS_TAN * np.maximum(row_norm(u_at), 1e-300))
        u_new = np.where(jump if d == 1 else jump[:, None], reflect(u_at, normal), u_at)
        t_rel = np.empty(r.size)
        for j, i in enumerate(r.tolist()):
            # fold the time up from the leaf, as the recursion returns it
            hl, level = float(h_left[i]), int(lv[j])
            tau = float(frac[j]) * math.ldexp(hl, -level)
            for up in range(level, 0, -1):
                if right[i * W + up]:
                    tau = math.ldexp(hl, -up) + tau
            t_rel[j] = tau
        contacts[r] += 1
        if contacts[r].max() > params.max_hits:
            raise WatchdogExceeded(f"more than max_hits={params.max_hits} wall contacts in one step")
        t_done[r] += t_rel
        h_left[r] -= t_rel
        ax[r], au[r] = location, u_new
        jumped = r[jump]
        fields = [A[jump] for A in (location, u_at, u_new)]
        if d == 1:  # HitEvent fields are floats in d=1
            fields = [A.tolist() for A in fields]
        for i, when, *state in zip(jumped.tolist(), (time_offset + t_done[jumped]).tolist(), *fields):
            hits[i].append(HitEvent(int(stream_ids[i]), when, *state))
        left = h_left[r] > 0.0
        top[r[~left]] = 0
        if left.any():
            fly(r[left])


def confined_step(
    domain: Domain,
    state: PhaseState,
    params: StepParams,
    sigma: float,
    rng: RngStream,
    h: float | None = None,
) -> ConfinedStepResult:
    """Advance one macro step inside the domain, reflecting at every wall hit.

    Draws from rng's stream from its counter on and leaves the counter after
    the last draw.  Hit times in the returned events are relative to the
    start of this step, and their path_id is rng.stream_id.  Far from the
    wall this is exactly free_step on the same draws.
    """
    if float(domain.signed_distance(state.x)) > params.eps_hit:
        raise InvalidStart(f"state outside the domain: sd={domain.signed_distance(state.x)}")
    X, U, counters, hits = _near_wall_kernel(
        domain, *_as_rows(state), params.h if h is None else float(h), params, sigma,
        rng.seed, np.array([rng.stream_id], dtype=np.uint64), rng.counter,
    )
    rng.jump_to(counters[0])
    return ConfinedStepResult(_row_state(X, U), tuple(hits[0]))


def step_count(T: float, h: float) -> int:
    """Macro steps of length h (the last one possibly shorter) covering [0, T]."""
    return max(1, math.ceil(T / h - 1e-12)) if T > 0 else 0


def step_time(k: int, T: float, h: float) -> float:
    """Grid time after k steps: k*h before the last of step_count(T, h)
    steps, and T after it."""
    return T if k >= step_count(T, h) else k * h


def step_length(k: int, T: float, h: float) -> float:
    """Length of step k of step_count(T, h): h, or what is left of T after
    k*h when that is shorter, which only the last step can be."""
    return min(h, T - k * h)


def snapshot_step(t: float, T: float, h: float) -> int:
    """Steps done at the grid time (see step_time) nearest t."""
    n = step_count(T, h)
    k = min(max(round(t / h), 0), n)
    if k < n and abs(T - t) < abs(k * h - t):
        k = n
    return k


def _check_start(domain: Domain, initial: PhaseState, eps_hit: float):
    X, U = _as_rows(initial)
    sd = float(domain.signed_distance(X)[0])
    if sd > eps_hit:
        raise InvalidStart(f"initial position outside the domain: sd={sd}")
    if sd >= -eps_hit and normal_velocity(U, domain.outward_normal(domain.project(X)))[0] >= 0.0:
        raise InvalidStart(
            "boundary start must have strictly incoming velocity; reflect it before calling"
        )


def simulate_path(
    domain: Domain,
    initial: PhaseState,
    T: float,
    params: StepParams,
    sigma: float,
    rng: RngStream,
) -> PathResult:
    """Simulate one confined path on [0, T], sampled at the macro grid.

    The path is run_ensemble on one row with stream rng.stream_id: macro
    step k always draws from counter k * 2^16 of that stream, so the
    realized path depends only on (seed, stream_id).  rng.counter is
    neither read nor advanced.
    """
    _check_start(domain, initial, params.eps_hit)
    h = params.h
    times = [step_time(k, T, h) for k in range(step_count(T, h) + 1)]
    events = []
    _, _, snapshots = run_ensemble(
        domain, *_as_rows(initial), T, params, sigma, rng.seed,
        hit_sink=events, snapshot_times=tuple(times), stream_ids=[rng.stream_id],
    )
    states = tuple(_row_state(*snapshots[t]) for t in times)
    return PathResult(times=np.array(times), states=states, events=tuple(events))


def ensemble_free_flight(X, U, h, sigma, Z):
    """Vectorized exact flow; Z holds 2 standard normals per component."""
    return _free_update(X, U, h, sigma, *_pairs(Z, X))


def ensemble_confined_step(
    domain: Domain,
    X: np.ndarray,
    U: np.ndarray,
    step_index: int,
    params: StepParams,
    sigma: float,
    seed: int,
    h: float | None = None,
    time_offset: float = 0.0,
    hit_sink: list | None = None,
    stream_ids: np.ndarray | None = None,
):
    """One macro step for N independent paths, path i on stream stream_ids[i].

    Free flight is evaluated in one batch; the paths whose endpoints fall
    within the near-wall trigger then run the near-wall kernel together, on
    their own streams from counter step_index * 2^16, which reproduces the
    per-path results of confined_step bit for bit.  stream_ids defaults to
    the array index; explicit ids let callers shard the ensemble (or permute
    it) without changing any path.
    """
    dt = params.h if h is None else float(h)
    d = 1 if X.ndim == 1 else X.shape[1]
    base = step_index * STEP_COUNTER_STRIDE
    stream_ids = np.asarray(np.arange(X.shape[0]) if stream_ids is None else stream_ids,
                            dtype=np.uint64)
    Z = normals_at(seed, stream_ids, base, 2 * d)
    Xf, Uf = ensemble_free_flight(X, U, dt, sigma, Z)
    far = _pruned(params, sigma, domain.signed_distance(X), domain.signed_distance(Xf),
                  row_norm(U), row_norm(Uf), dt)
    near = np.flatnonzero(~far)
    if not near.size:
        return Xf, Uf
    Xf[near], Uf[near], _, hits = _near_wall_kernel(
        domain, X[near], U[near], dt, params, sigma, seed, stream_ids[near], base,
        limit=base + STEP_COUNTER_STRIDE, time_offset=time_offset,
    )
    if hit_sink is not None:
        for events in hits:
            hit_sink.extend(events)
    return Xf, Uf


def run_ensemble(
    domain: Domain,
    X0: np.ndarray,
    U0: np.ndarray,
    T: float,
    params: StepParams,
    sigma: float,
    seed: int,
    hit_sink: list | None = None,
    snapshot_times: tuple = (),
    stream_ids: np.ndarray | None = None,
    kick=None,
):
    """March N confined paths to time T; optional phase snapshots.

    kick, when given, is a callable (X, U) -> velocity field evaluated at the
    start of every step; each velocity is kicked by the step length times
    its value before the confined step.  None runs free confined paths; the
    local drift b(U) gives independent drifted paths, and a mean-field
    estimate on the current states gives the interacting system.

    Returns (X, U, snapshots) where snapshots maps every requested time t
    to a copy of (X, U) after snapshot_step(t, T, h) steps.  Hit times are
    k*h plus the time within step k.  Ordering and values are independent of
    how callers batch the work because every draw is counter-addressed.
    """
    X = np.array(X0, dtype=float)
    U = np.array(U0, dtype=float)
    wanted = {}
    for t in snapshot_times:
        wanted.setdefault(snapshot_step(t, T, params.h), []).append(t)
    snapshots = {}

    def take(k):
        for t in wanted.get(k, ()):
            snapshots[t] = (X.copy(), U.copy())

    take(0)
    for k in range(step_count(T, params.h)):
        dt = step_length(k, T, params.h)
        if kick is not None:
            U = U + dt * kick(X, U)
        X, U = ensemble_confined_step(
            domain,
            X,
            U,
            k,
            params,
            sigma,
            seed,
            h=dt,
            time_offset=step_time(k, T, params.h),
            hit_sink=hit_sink,
            stream_ids=stream_ids,
        )
        take(k + 1)
    return X, U, snapshots


def semigroup_estimate(
    domain: Domain,
    psi,
    t: float,
    initial: PhaseState,
    N: int,
    params: StepParams,
    sigma: float,
    seed: int,
) -> SemigroupEstimate:
    """Monte Carlo value of E[psi(X_t, U_t)] from N paths started at `initial`.

    psi takes (x, u) arrays batched along the first axis and returns a batch
    of scalars.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_start(domain, initial, params.eps_hit)
    X, U, _ = run_ensemble(domain, *_as_rows(initial, N), t, params, sigma, seed)
    vals = np.asarray(psi(X, U), dtype=float)
    mean = float(np.mean(vals))
    std_error = float(np.std(vals, ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    return SemigroupEstimate(mean=mean, std_error=std_error)
