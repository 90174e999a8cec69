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
that march on one row.  It checks its starting rows once: the process lives
in the closed domain, so a row may start on the wall only with a velocity
pointing inside.  Before each confined step it kicks the velocities by
h times a field: none for the linear process, b(U) for independent drifted
paths, and the mean-field estimate of E[b(U) | X] for the McKean system
(mckean.run_mckean).  It returns (X, U, snapshots, hits): the end states,
the states after the steps the caller lists, keyed by step index (step k
ends at grid time step_time(k, T, h); snapshot_step(t, T, h) is the step
nearest a time t), and the wall contacts as one HitLog, a table of
columns the kernel fills a pass at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidStart, WatchdogExceeded
from .geometry import Domain, normal_velocity, reflect, row_norm
from .rng import RngStream, normals_at

STEP_COUNTER_STRIDE = 1 << 16  # per-(path, macro-step) noise budget
EPS_TAN = 1e-12  # |u.n| <= EPS_TAN*|u| at a wall contact counts as a tangential graze
WINDOW = 96  # normals per component fetched ahead for each near-wall path
EXACT_LEVELS = 52  # halvings of [0, 1] whose midpoints 0.5 * (lo + hi) are exact
BISECT_ROWS = 4096  # rows per predicted batch, which holds EXACT_LEVELS points a row


@dataclass(frozen=True)
class PhaseState:
    """Position/velocity pair; scalars in d=1, length-d arrays otherwise."""

    x: object
    u: object


@dataclass(frozen=True)
class HitLog:
    """Wall contacts as columns, a row per contact: the path id (uint64), the
    time, and the location and the velocities just before and after, each of
    shape (n,) in d=1 and (n, d) otherwise.  Rows run by step, then by path
    in ensemble order, then by time."""

    path_id: np.ndarray
    time: np.ndarray
    location: np.ndarray
    pre_velocity: np.ndarray
    post_velocity: np.ndarray

    def __len__(self) -> int:
        return len(self.time)

    @classmethod
    def _join(cls, parts, shape, rows=None) -> HitLog:
        """The rows of the logs in parts, in turn, or stable-sorted by rows
        (one array per part) when given; shape is a state's, () in d=1."""
        if not parts:
            empty = np.empty((0,) + shape)
            return cls(np.empty(0, dtype=np.uint64), np.empty(0), empty, empty, empty)
        order = slice(None) if rows is None else np.argsort(np.concatenate(rows), kind="stable")
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])[order]
                     for f in fields(cls)))


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
    hits: HitLog


@dataclass(frozen=True)
class PathResult:
    times: np.ndarray
    states: tuple
    events: HitLog


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


def _as_rows(state: PhaseState):
    """(X, U) holding state as one row: shape (1,) in d=1, (1, d) otherwise."""
    return tuple(np.asarray(v, float)[None] for v in (state.x, state.u))


def _row_state(X, U, i: int = 0) -> PhaseState:
    """Row i of a batch as a PhaseState; Python floats in d=1."""
    if X.ndim == 1:
        return PhaseState(float(X[i]), float(U[i]))
    return PhaseState(X[i], U[i])


def _pairs(Z, X):
    """(xi1, xi2) per row of Z, which holds 2 normals per component of X's rows."""
    return (Z[:, 0], Z[:, 1]) if X.ndim == 1 else (Z[:, 0::2], Z[:, 1::2])


def _crossing_guess(sd_a, sd_b):
    """Where the chord between ends at signed distances sd_a and sd_b
    crosses the wall if the distance is linear along it: sd_a / (sd_a - sd_b).
    Not finite where the ends are equally far; _bisect takes any value."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return sd_a / (sd_a - sd_b)


def _bisect(domain: Domain, xa, xb, eps_hit: float, guess):
    """Per row, the start s of the bracket holding the first wall crossing on
    the straight chord xa -> xb, halved until it is at most eps_hit long.

    Convergence is judged by bracket width, not |sd| alone: a chord that
    starts on the wall and dives back inside before exiting elsewhere must
    not report its start as the contact.  Each row's round count is known
    up front: a bracket is 2^-k wide after k halvings until a midpoint
    rounds to one of its ends, and from then on its start does not move.

    The halvings follow a predicted path first.  If the crossing sat at
    `guess` (any float; clipped to [0, 1)), the bracket after k halvings
    would start at guess rounded down to a multiple of 2^-k.  For the first
    EXACT_LEVELS levels those predicted midpoints are exactly the ones
    bisection would take, so one signed_distance call evaluates them all.
    A row keeps the predicted path up to the first level whose outcome
    differs from the prediction, and halves one level at a time from there;
    so the starts are those of plain bisection bit for bit, whatever the
    guess, and a good guess saves the rounds.
    """
    if xa.shape[0] > BISECT_ROWS:
        return np.concatenate([
            _bisect(domain, xa[i:i + BISECT_ROWS], xb[i:i + BISECT_ROWS], eps_hit,
                    guess[i:i + BISECT_ROWS])
            for i in range(0, xa.shape[0], BISECT_ROWS)])
    chord = xb - xa
    length = row_norm(chord)
    rounds = (~(np.ldexp(length, -np.arange(80)[:, None]) <= eps_hit)).sum(axis=0)
    top = min(int(rounds.max(initial=0)), EXACT_LEVELS)
    if top == 0:
        return np.zeros(length.shape)
    level = np.arange(top + 1)
    g = np.fmax(np.fmin(guess, 1.0 - 2.0**-53), 0.0)  # NaN -> the upper end
    path = np.ldexp(np.floor(np.ldexp(g[:, None], level)), -level)  # predicted starts
    mid = path[:, :-1] + np.ldexp(1.0, -level[1:])
    s = mid if xa.ndim == 1 else mid[..., None]
    points = xa[:, None] + s * chord[:, None]
    out = domain.signed_distance(points.reshape((-1,) + xa.shape[1:])).reshape(mid.shape) > 0.0
    # verify: the first level, within the row's rounds, that the prediction got wrong
    wrong = (out != (path[:, 1:] == path[:, :-1])) & (level[1:] <= rounds[:, None])
    done = np.where(wrong.any(axis=1), wrong.argmax(axis=1) + 1, np.minimum(rounds, top))
    # the bracket after `done` true halvings: that level's outcome taken as it came out
    rows, k = np.arange(done.size), np.maximum(done - 1, 0)
    start = np.where(out[rows, k], path[rows, k], mid[rows, k])
    start[done == 0] = 0.0
    more = np.flatnonzero(done < rounds)
    if more.size:
        rest, since = rounds[more], done[more]
        xa, chord, lo = xa[more], chord[more], start[more]
        hi = lo + np.ldexp(1.0, -since)
        tail = lo.copy()
        for k in range(since.min() + 1, rest.max() + 1):
            mid = 0.5 * (lo + hi)
            s = mid if xa.ndim == 1 else mid[:, None]
            out = domain.signed_distance(xa + s * chord) > 0.0
            go = since < k
            hi = np.where(go & out, mid, hi)
            lo = np.where(go & ~out, mid, lo)
            np.copyto(tail, lo, where=rest == k)
        start[more] = tail
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
    its last draw, and the step's HitLog, stable-sorted by row (a path has
    at most one contact per pass, so its contacts stay in time order), with
    path_id stream_ids[i] and time time_offset plus the time within the step.
    Raises WatchdogExceeded when a path has more than params.max_hits wall
    contacts, or draws past counter `limit`.
    """
    n = X.shape[0]
    ax = np.array(X, dtype=float)  # left end of each path's current segment
    au = np.array(U, dtype=float)
    ctr = np.full(n, start, dtype=np.int64)
    found, found_rows = [], []  # each pass's reflected contacts and their rows
    if h <= 0.0:
        return ax, au, ctr, HitLog._join(found, ax.shape[1:])
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

    def classify(f, sd_a, speed_a, dt):
        """Mark the entries f that close a crossing leaf, given the signed
        distance and speed of each segment's left end and its length dt;
        return which ones need no more work (pruned, or a leaf that stays
        inside)."""
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
        dt = np.ldexp(h_left[r], -lv)
        half = 0.5 * dt  # exact: a power-of-two step of a normal float
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
        # both halves at once: the right one (f) starts at the midpoint,
        # the left one (g) at the segment's left end
        m = r.size
        done = classify(np.concatenate((f, g)), np.concatenate((sd_m, a_sd[r])),
                        np.concatenate((speed_m, a_speed[r])), np.concatenate((half, half)))
        kept[f] = np.where(done[:m], kept[f - 1], t)
        push(r, g, t + 1, done[m:])

    fly(np.arange(n))
    while True:
        rows = np.flatnonzero(top)
        if not rows.size:
            return ax, au, ctr, HitLog._join(found, ax.shape[1:], found_rows)
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
        frac = _bisect(domain, xa, xb, params.eps_hit, _crossing_guess(a_sd[r], b_sd[f]))
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
        found.append(HitLog(stream_ids[jumped], time_offset + t_done[jumped],
                            location[jump], u_at[jump], u_new[jump]))
        found_rows.append(jumped)
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
    the last draw.  Hit times in the returned log are relative to the
    start of this step, and their path_id is rng.stream_id.  Far from the
    wall this is exactly ensemble_free_flight on the same draws.  Only a
    start outside the domain is refused: a step may begin on the wall, where
    the previous one grazed it.
    """
    if float(domain.signed_distance(state.x)) > params.eps_hit:
        raise InvalidStart(f"state outside the domain: sd={domain.signed_distance(state.x)}")
    X, U, counters, hits = _near_wall_kernel(
        domain, *_as_rows(state), params.h if h is None else float(h), params, sigma,
        rng.seed, np.array([rng.stream_id], dtype=np.uint64), rng.counter,
    )
    rng.jump_to(counters[0])
    return ConfinedStepResult(_row_state(X, U), hits)


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
    neither read nor advanced.  A start run_ensemble refuses raises
    InvalidStart.
    """
    h = params.h
    steps = range(step_count(T, h) + 1)
    _, _, snapshots, events = run_ensemble(
        domain, *_as_rows(initial), T, params, sigma, rng.seed,
        snapshot_steps=steps, stream_ids=[rng.stream_id],
    )
    return PathResult(times=np.array([step_time(k, T, h) for k in steps]),
                      states=tuple(_row_state(*snapshots[k]) for k in steps), events=events)


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
    stream_ids: np.ndarray | None = None,
):
    """One macro step for N independent paths, path i on stream stream_ids[i].

    Free flight is evaluated in one batch; the paths whose endpoints fall
    within the near-wall trigger then run the near-wall kernel together, on
    their own streams from counter step_index * 2^16, which reproduces the
    per-path results of confined_step bit for bit.  stream_ids defaults to
    the array index; explicit ids let callers shard the ensemble (or permute
    it) without changing any path.  Explicit ids of any shape but (N,), or
    with a repeat, which would give two rows one path, raise ValueError
    before a draw.  Returns (X, U, hits), hits the step's HitLog.
    """
    dt = params.h if h is None else float(h)
    d = 1 if X.ndim == 1 else X.shape[1]
    base = step_index * STEP_COUNTER_STRIDE
    n = X.shape[0]
    if stream_ids is None:
        stream_ids = np.arange(n, dtype=np.uint64)
    else:
        stream_ids = np.asarray(stream_ids, dtype=np.uint64)
        if stream_ids.shape != (n,):
            raise ValueError(
                f"stream_ids of shape {stream_ids.shape} for {n} rows: need one per row")
        ids = np.sort(stream_ids)  # np.unique takes ~20x longer on 1e4 ids
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("stream_ids repeat an id: each row needs a stream of its own")
    Z = normals_at(seed, stream_ids, base, 2 * d)
    Xf, Uf = ensemble_free_flight(X, U, dt, sigma, Z)
    far = _pruned(params, sigma, domain.signed_distance(X), domain.signed_distance(Xf),
                  row_norm(U), row_norm(Uf), dt)
    near = np.flatnonzero(~far)
    if not near.size:
        return Xf, Uf, HitLog._join([], X.shape[1:])
    Xf[near], Uf[near], _, hits = _near_wall_kernel(
        domain, X[near], U[near], dt, params, sigma, seed, stream_ids[near], base,
        limit=base + STEP_COUNTER_STRIDE, time_offset=time_offset,
    )
    return Xf, Uf, hits


def run_ensemble(
    domain: Domain,
    X0: np.ndarray,
    U0: np.ndarray,
    T: float,
    params: StepParams,
    sigma: float,
    seed: int,
    snapshot_steps=(),
    stream_ids: np.ndarray | None = None,
    kick=None,
):
    """March N confined paths to time T, keeping the states after the
    listed steps.

    kick, when given, is a callable (X, U) -> velocity field evaluated at the
    start of every step; each velocity is kicked by the step length times
    its value before the confined step.  None runs free confined paths; the
    local drift b(U) gives independent drifted paths, and a mean-field
    estimate on the current states gives the interacting system.

    Returns (X, U, snapshots, hits) where snapshots maps every listed step k
    to a copy of (X, U) after k steps (step 0 is the start, and
    step_count(T, h) ends at T; snapshot_step(t, T, h) names the step of a
    time t), and hits is the HitLog of the run, step by step.  Hit times are
    k*h plus the time within step k.  Ordering and values are independent
    of how callers batch the work because every draw is counter-addressed.

    Raises ValueError for a listed step outside [0, step_count(T, h)], and
    InvalidStart when a starting row lies more than eps_hit outside the
    domain, or within eps_hit of the wall with u.n >= 0 at its projection:
    a path starts on the wall only moving inside.
    """
    n = step_count(T, params.h)
    keep = set(snapshot_steps)
    outside = sorted(k for k in keep if not 0 <= k <= n)
    if outside:
        raise ValueError(f"snapshot steps {outside} outside [0, {n}]")
    X = np.array(X0, dtype=float)
    U = np.array(U0, dtype=float)
    sd = domain.signed_distance(X)
    if np.any(sd > params.eps_hit):
        raise InvalidStart(f"initial position outside the domain: sd={sd.max()}")
    wall = sd >= -params.eps_hit
    if wall.any() and np.any(
        normal_velocity(U[wall], domain.outward_normal(domain.project(X[wall]))) >= 0.0
    ):
        raise InvalidStart(
            "boundary start must have strictly incoming velocity; reflect it before calling"
        )
    snapshots = {0: (X.copy(), U.copy())} if 0 in keep else {}
    logs = []
    for k in range(n):
        dt = step_length(k, T, params.h)
        if kick is not None:
            U = U + dt * kick(X, U)
        X, U, hits = ensemble_confined_step(domain, X, U, k, params, sigma, seed, h=dt,
                                            time_offset=step_time(k, T, params.h),
                                            stream_ids=stream_ids)
        logs.append(hits)
        if k + 1 in keep:
            snapshots[k + 1] = (X.copy(), U.copy())
    return X, U, snapshots, HitLog._join(logs, X.shape[1:])
