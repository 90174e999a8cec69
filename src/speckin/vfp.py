"""Phase-grid solvers for the kinetic Fokker-Planck problems on an interval.

One spatial dimension, one velocity dimension. Both linear solvers march
one Strang splitting (transport half step, Crank-Nicolson u-diffusion with
homogeneous Dirichlet truncation at |u| = V_max, transport half step) and
share its diffusion stencil, clamp, initial-data check and wall-value rule.
They differ in the transport. The specular solver blends each velocity
column with its upstream neighbour in x, and at a wall with the mirror
column's value there, the specular ghost: the reflection is exact, mass
holds to round-off, and the wall traces are even in u; its velocity
substep also advects the drift upwind. The inflow solver reads the new
value at x from x + u dt, blending each cell with its neighbour towards
the wall its row leaves by, and the last cell with the wall datum half a
cell out; the datum's share is the injected mass, so the in/out mass
ledger is exact by bookkeeping.

The nonlinear solver is one specular march whose step k takes its drift
from the velocity averages of its own slice k. The discrete problem is
causal, slice k + 1 depending only on drift rows 0..k, so that one pass is
the fixed point that Picard iteration on frozen-drift solves converges to.
Once the march ends, `envelope_excursions` measures the history against
the Maxwellian envelopes. The march keeps the weighted energy ledgers only
when it is given a weight.

The solvers take and return plain arrays: initial data as an (n_x, n_u)
array, histories as (n_steps + 1, ...) arrays indexed by grid step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .errors import CFLViolated, NegativeDensity
from .langevin import step_count, step_length
from .maxwellian import MaxwellianParams, maxwellian_eval
from .mckean import KineticModel
from .weights import WeightParams, weight_eval

__all__ = [
    "PhaseGrid",
    "PicardReport",
    "PicardResult",
    "SpecularResult",
    "auto_vmax",
    "solve_specular_linear",
    "solve_linear_inflow",
    "drift_from_density",
    "envelope_excursions",
    "picard_nonlinear",
    "trace_functionals",
]

NEGATIVE_TOL = 1e-12  # clamp threshold; anything below signals a scheme bug

# LAPACK's tridiagonal solver, the routine `scipy.linalg.solve_banded` uses
# for (1, 1) bands, called without that wrapper's per-call validation
(_gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform cell-centered grid on (0, L) x (-V_max, V_max) with steps.

    The velocity nodes are symmetric under index reversal, u[N_u-1-j] ==
    -u[j] exactly, which is what the specular ghost relies on.
    """

    length: float
    n_x: int
    v_max: float
    n_u: int
    dt: float
    horizon: float

    def __post_init__(self):
        if self.n_x < 8 or self.n_u < 8:
            raise ValueError("need at least 8 nodes per axis")
        if self.n_u % 2:
            raise ValueError("n_u must be even so the grid pairs +-u nodes")
        if not (self.length > 0 and self.v_max > 0):
            raise ValueError("length and v_max must be positive")
        if not (self.dt > 0 and self.horizon > 0):
            raise ValueError("dt and horizon must be positive")
        if self.v_max * self.dt > self.dx * (1 + 1e-12):
            raise CFLViolated(
                f"transport: v_max*dt = {self.v_max * self.dt:.3e} exceeds "
                f"dx = {self.dx:.3e}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.n_x

    @property
    def du(self) -> float:
        return 2.0 * self.v_max / self.n_u

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_x) + 0.5) * self.dx

    @property
    def u(self) -> np.ndarray:
        return (np.arange(self.n_u) - (self.n_u - 1) / 2.0) * self.du

    @property
    def n_steps(self) -> int:
        return step_count(self.horizon, self.dt)

    @property
    def times(self) -> np.ndarray:
        """The particle march's clock, step_time(k, horizon, dt) for k = 0..n_steps:
        k*dt before the last step, then T."""
        return np.append(np.arange(self.n_steps) * self.dt, self.horizon)

    def check_diffusion(self, sigma: float):
        lam = sigma**2 * self.dt / (2.0 * self.du**2)
        if lam > 1.0 + 1e-12:
            raise CFLViolated(
                f"diffusion positivity: sigma^2*dt/(2*du^2) = {lam:.3e} > 1"
            )

    def check_drift(self, b_norm: float):
        if b_norm * self.dt > self.du * (1 + 1e-12):
            raise CFLViolated(
                f"drift upwind: b_norm*dt = {b_norm * self.dt:.3e} exceeds "
                f"du = {self.du:.3e}"
            )

    def cell_mass(self, values: np.ndarray) -> float:
        return float(values.sum()) * self.dx * self.du


def auto_vmax(upper: MaxwellianParams, horizon: float, rel: float = 1e-10) -> float:
    """Smallest velocity cutoff V with max_t P(t, V) below rel * max P.

    P is the radial upper envelope; since it is decreasing in |u| the cutoff
    certifies that everything the envelope allows outside (-V, V) is
    negligible at the rel level.
    """
    ts = np.linspace(0.0, horizon, 33)
    peak = float(np.max(maxwellian_eval(upper, ts, np.zeros_like(ts))))
    target = rel * peak

    def worst(v):
        return float(np.max(maxwellian_eval(upper, ts, np.full_like(ts, v))))

    lo, hi = 0.0, 1.0
    while worst(hi) > target:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise ValueError("upper envelope does not decay; check parameters")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if worst(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


# ------------------------------------------------------------ substeps


def _diffusion_matrix(grid: PhaseGrid, sigma: float, dt: float):
    """Banded LHS and RHS stencils of the Crank-Nicolson u-diffusion."""
    lam = sigma**2 * dt / (2.0 * grid.du**2)
    n = grid.n_u
    ab = np.zeros((3, n))
    ab[0, 1:] = -0.5 * lam
    ab[1, :] = 1.0 + lam
    ab[2, :-1] = -0.5 * lam
    return lam, ab


def _diffuse(values: np.ndarray, lam: float, ab: np.ndarray,
             out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Crank-Nicolson u-diffusion of every x row, solved in place in `out`.

    The right-hand side is built in `out` (a new array if None), which
    LAPACK `gtsv` overwrites with the solution; the neighbours' shares go
    into `work` (a new array if None). The checks of `solve_banded` stay:
    non-finite input raises ValueError, a singular band LinAlgError.
    """
    if out is None:
        out = np.empty(values.shape)
    if work is None:
        work = np.empty(values.shape)
    _check_work(values, out, work)
    keep = 1.0 - lam
    rhs = np.multiply(values, keep, out=out)
    side = np.multiply(0.5 * lam, values, out=work)
    # each node takes both neighbours' shares along the flat buffer, then
    # the edge columns are redone with their one neighbour: homogeneous
    # Dirichlet ghosts just outside +-V_max
    flat, shares = rhs.ravel(), side.ravel()
    flat[1:] += shares[:-1]
    flat[:-1] += shares[1:]
    np.add(keep * values[:, 0], side[:, 1], out=rhs[:, 0])
    np.add(keep * values[:, -1], side[:, -2], out=rhs[:, -1])
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs.T, overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x.T


def _advect_u(values: np.ndarray, courant: np.ndarray, out: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """First-order upwind step of B(x) d/du with zero-inflow u-ghosts.

    `courant` holds B(x_i) dt / du per x row. A row takes the face below
    each node where its Courant number is > 0, the face above otherwise.
    The differences are taken once along the flat buffer: stored at each
    node they are the faces below it, in `out`, and shifted one node down
    the faces above it, in `work`. Each row then takes its upwind side, so
    the cost does not depend on how often B(x) changes sign.
    """
    _check_work(values, out, work)
    v, below, above = values.ravel(), out.ravel(), work.ravel()
    np.subtract(v[1:], v[:-1], out=below[1:])
    out[:, 0] = values[:, 0]
    above[:-1] = below[1:]
    np.negative(values[:, -1], out=work[:, -1])
    np.copyto(out, work, where=(courant <= 0)[:, None])
    out *= courant[:, None]
    return np.subtract(values, out, out=out)


def _check_work(values: np.ndarray, *arrays: np.ndarray):
    """Refuse a work array the flat-buffer substeps cannot write through.

    `ravel()` of an array that is not C-contiguous is a copy, so writes to
    it would be lost; one that overlaps `values` would be read after it is
    written.
    """
    for a in arrays:
        if (a.shape != values.shape or not a.flags.c_contiguous
                or np.may_share_memory(a, values)):
            raise ValueError(
                "work arrays must be C-contiguous, of the field's shape "
                "and apart from the field"
            )


def _transport_shifts(grid: PhaseGrid, dt: float) -> np.ndarray:
    """Cells each velocity column moves in time dt, |u| dt / dx."""
    return np.abs(grid.u) * (dt / grid.dx)


def _transport_weights(shifts: np.ndarray, n_x: int) -> tuple:
    """Blend weights (theta, 1 - theta) of each cell, from per-column shifts.

    Every shift must lie in [0, 1): the transport CFL limit of `PhaseGrid`
    keeps a half step within half a cell, so each value blends with its
    upstream neighbour only. The tables repeat each column's weight over
    the n_x rows, so the blend runs on whole contiguous slices: on a 96 x
    192 field that is about 45 us per transport against 54 us with
    broadcast (n_u,) rows (2-CPU x86-64, 6 alternating min-of-5 x 2000).
    """
    if not (shifts.min() >= 0.0 and shifts.max() < 1.0):
        raise CFLViolated(
            f"transport: shifts span [{shifts.min():.3e}, {shifts.max():.3e}] "
            "cells, outside [0, 1)"
        )
    theta = np.tile(shifts, (n_x, 1))
    return theta, 1.0 - theta


def _transport_specular(values: np.ndarray, weights: tuple,
                        out: np.ndarray | None = None,
                        work: np.ndarray | None = None) -> np.ndarray:
    """Semi-Lagrangian x-transport with specular walls, into `out`.

    Each column blends with its upstream neighbour in x by the column's
    theta from `_transport_weights`: u > 0 columns with the cell below,
    u < 0 columns with the cell above. At the wall the upstream cell is the
    mirror column's value there, the specular ghost, so the reflection is
    exact and mass holds to round-off. The kept share is formed in `work`
    (a new array if None).
    """
    theta, keep = weights
    half = values.shape[1] // 2
    up = np.empty_like(values) if out is None else out
    up[1:, half:] = values[:-1, half:]
    up[0, half:] = values[0, half - 1 :: -1]
    up[:-1, :half] = values[1:, :half]
    up[-1, :half] = values[-1, : half - 1 : -1]
    up *= theta
    up += np.multiply(keep, values, out=work)
    return up


def _clamp(values: np.ndarray, scale: float, log: list):
    low = float(values.min())
    if low < -NEGATIVE_TOL * max(scale, 1.0):
        raise NegativeDensity(f"density reached {low:.3e}")
    if low < 0.0:
        log.append(-low)
        np.clip(values, 0.0, None, out=values)
    return values


def _initial_values(grid: PhaseGrid, rho0, sigma: float) -> np.ndarray:
    """A copy of a solver's initial data, checked against the grid and sigma."""
    grid.check_diffusion(sigma)
    f = np.array(rho0, dtype=float)
    if f.shape != (grid.n_x, grid.n_u):
        raise ValueError(f"initial data must have shape {(grid.n_x, grid.n_u)}")
    if float(f.min()) < 0:
        raise NegativeDensity("initial data has negative entries")
    return f


def _wall_values(values: np.ndarray) -> np.ndarray:
    """(2, n_u) values at x = 0 and x = L, extrapolated linearly from the
    two outermost cells."""
    return 1.5 * values[[0, -1]] - 0.5 * values[[1, -2]]


# --------------------------------------------------- specular solver


@dataclass
class SpecularResult:
    """History of the specular solve plus its conservation diagnostics."""

    grid: PhaseGrid
    times: np.ndarray
    fields: np.ndarray  # (n_steps + 1, n_x, n_u)
    traces: np.ndarray  # (n_steps + 1, 2, n_u), even in u by construction
    mass: np.ndarray  # (n_steps + 1,)
    # the energy ledgers, None when the march kept none: per step, the
    # quadrature of |D_u field|^2 w and of (s^2/2 Lap w + B . grad w) f^2
    grad_sq_weighted: np.ndarray | None
    bracket_sq_weighted: np.ndarray | None
    clamped: list
    weight: WeightParams | None  # None: unit weight, or no ledgers

    def trace(self, k: int) -> np.ndarray:
        """The (2, n_u) wall traces of slice k, `traces[k]`."""
        return self.traces[k]

    def energy_residual(self, sigma: float) -> float:
        """Relative defect of the weighted energy balance at the horizon.

        With specular walls the trace terms cancel, leaving
        ||f(T)||^2 + sigma^2 int ||grad_u f||^2 = ||f(0)||^2 + bracket term,
        all in L2(w). Time integrals use the per-step field quadrature.
        A result that kept no ledgers raises ValueError.
        """
        if self.grad_sq_weighted is None:
            raise ValueError("this solve kept no energy ledgers; pass a weight to keep them")
        w = _weight_tables(self.grid, self.weight)[0]
        quad = self.grid.dx * self.grid.du
        e0 = float((self.fields[0] ** 2 * w).sum()) * quad
        eT = float((self.fields[-1] ** 2 * w).sum()) * quad
        grad = sigma**2 * float(self.grad_sq_weighted.sum())
        bracket = float(self.bracket_sq_weighted.sum())
        return abs(eT + grad - e0 - bracket) / e0


def _weight_tables(grid: PhaseGrid, weight: WeightParams | None):
    """(node weights, face weights, gradient, Laplacian) of the weight.

    The nodes are the n_u velocity nodes, the faces the n_u + 1 velocity
    faces (both Dirichlet faces included); gradient and Laplacian are taken
    at the nodes. No weight means 1, 1, 0 and 0.
    """
    n = grid.n_u
    if weight is None:
        return np.ones(n), np.ones(n + 1), np.zeros(n), np.zeros(n)
    nodes = weight_eval(weight, grid.u)
    faces = (np.arange(n + 1) - n / 2.0) * grid.du
    return nodes.value, weight_eval(weight, faces).value, nodes.gradient, nodes.laplacian


def _face_grad_sq(mid: np.ndarray, grid: PhaseGrid, w_face: np.ndarray,
                  d: np.ndarray) -> float:
    """Face-difference gradient energy with zero ghosts beyond +-V_max.

    Pairing the Crank-Nicolson update with the midpoint field makes
    E_after - E_before = -sigma^2 * dt * (this sum) hold exactly when the
    weight is 1, mirroring the continuum energy computation. The n_u + 1
    face differences are taken and squared in `d`, an (n_x, n_u + 1) work
    array.
    """
    d[:, 0] = mid[:, 0]
    np.subtract(mid[:, 1:], mid[:, :-1], out=d[:, 1:-1])
    np.negative(mid[:, -1], out=d[:, -1])
    d /= grid.du
    np.square(d, out=d)
    d *= w_face
    return float(d.sum()) * grid.dx * grid.du


def _specular_march(grid: PhaseGrid, rho0, drifts: np.ndarray, sigma: float,
                    weight: WeightParams | None = None, ledgers: bool = True,
                    fields: np.ndarray | None = None):
    """The one copy of the specular Strang step, marching rho0 to the horizon.

    Row k of `drifts`, an (n_steps, n_x) table, is the frozen drift of step
    k, which runs from grid.times[k] for step_length(k, horizon, dt). The
    march reads row k only after it has yielded slice k, so a caller may
    fill the row from that slice; the caller checks the table against the
    drift CFL limit. Returns (result, steps). `steps` yields (k, slice k)
    for k = 0..n_steps, slice 0 being the initial density, and fills the
    per-step records of `result` (traces, mass, clamps) as it goes.

    With `ledgers` it also fills the energy ledgers in the weight `weight`,
    None meaning unit weight; without, the result holds None for both
    ledgers and for its weight. Slice k is written into `fields[k]` of an
    (n_steps + 1, n_x, n_u) history when one is given, which becomes
    `result.fields`; otherwise every slice is a fresh array and
    `result.fields` is None. A yielded slice is never written again by the
    march. The band matrix, the transport weights and the drift's Courant
    factor are built once per distinct dt, and dt changes on the last step
    only. The substeps write into slice-sized work arrays made once per
    march.
    """
    f = _initial_values(grid, rho0, sigma)
    if fields is not None:
        fields[0] = f
        f = fields[0]
    n_steps = grid.n_steps
    result = SpecularResult(
        grid=grid,
        times=grid.times,
        fields=fields,
        traces=np.empty((n_steps + 1, 2, grid.n_u)),
        mass=np.empty(n_steps + 1),
        grad_sq_weighted=np.zeros(n_steps) if ledgers else None,
        bracket_sq_weighted=np.zeros(n_steps) if ledgers else None,
        clamped=[],
        weight=weight if ledgers else None,
    )
    result.traces[0] = _specular_trace(f)
    result.mass[0] = grid.cell_mass(f)

    def steps(f):
        if ledgers:
            _, w_face, wgrad, wlap = _weight_tables(grid, weight)
            diffusion_bracket = 0.5 * sigma**2 * wlap
            quad = grid.dx * grid.du
            faces = np.empty((grid.n_x, grid.n_u + 1))
        scale = float(f.max())
        per_dt = {}
        a, b, c = (np.empty_like(f) for _ in range(3))
        yield 0, f
        for k in range(n_steps):
            dt = step_length(k, grid.horizon, grid.dt)
            drift = drifts[k]
            if dt not in per_dt:
                per_dt[dt] = (*_diffusion_matrix(grid, sigma, dt),
                              _transport_weights(_transport_shifts(grid, 0.5 * dt), grid.n_x),
                              dt / grid.du)
            lam, ab, weights, courant = per_dt[dt]
            moved = _transport_specular(f, weights, out=a, work=b)
            pre = _advect_u(moved, drift * courant, out=b, work=c)
            post = _diffuse(pre, lam, ab, out=c, work=a)
            if ledgers:
                mid = np.add(pre, post, out=a)
                mid *= 0.5
                result.grad_sq_weighted[k] = dt * _face_grad_sq(mid, grid, w_face, faces)
            out = None if fields is None else fields[k + 1]
            f = _clamp(_transport_specular(post, weights, out=out, work=b), scale,
                       result.clamped)
            result.traces[k + 1] = _specular_trace(f)
            result.mass[k + 1] = grid.cell_mass(f)
            if ledgers:
                bracket = np.multiply(drift[:, None], wgrad, out=a)
                bracket += diffusion_bracket
                bracket *= np.square(f, out=b)
                result.bracket_sq_weighted[k] = dt * float(bracket.sum()) * quad
            yield k + 1, f

    return result, steps(f)


def solve_specular_linear(
    grid: PhaseGrid,
    rho0,
    B,
    sigma: float,
    weight: WeightParams | None = None,
) -> SpecularResult:
    """March the specular problem with frozen drift B(t, x) to the horizon.

    B may be None, a scalar, an (n_x,) row, a callable (t, x) -> (n_x,) row
    evaluated at the start of each step, grid.times[k], or the (n_steps,
    n_x) table of every step's row, such as `PicardResult.drift_history`.
    The returned traces are the wall values averaged over each +-u pair,
    identical for u and -u. The energy ledgers are kept in the weight
    `weight`, None meaning unit weight.
    """
    table = (grid.n_steps, grid.n_x)
    if callable(B):
        B = np.array([B(t, grid.x) for t in grid.times[:-1].tolist()], dtype=float)
        if B.shape != table:
            raise ValueError("a drift callable must return one value per x node")
    drifts = np.asarray(0.0 if B is None else B, dtype=float)
    if drifts.shape not in ((), table[1:], table):
        raise ValueError("drift must be None, a scalar, a callable, an (n_x,) row "
                         "or an (n_steps, n_x) table")
    grid.check_drift(float(np.abs(drifts).max()))
    result, steps = _specular_march(
        grid, rho0, np.broadcast_to(drifts, table), sigma, weight,
        fields=np.empty((grid.n_steps + 1, grid.n_x, grid.n_u)))
    for _ in steps:
        pass
    return result


def _specular_trace(values: np.ndarray) -> np.ndarray:
    """Wall traces averaged over each +-u pair, so even in u, and clipped at 0."""
    w = _wall_values(values)
    return np.clip(0.5 * (w + w[:, ::-1]), 0.0, None)


# ----------------------------------------------------- inflow solver


@dataclass
class InflowResult:
    """History of the backward inflow solve with its energy/mass ledgers."""

    grid: PhaseGrid
    times: np.ndarray
    fields: np.ndarray
    gamma_minus: np.ndarray  # (n_steps + 1, 2, n_u), populated on Sigma^-
    mass: np.ndarray
    mass_in: np.ndarray  # per step, injected through Sigma^+ by the scheme
    mass_out: np.ndarray  # per step, balance: before + in - after
    grad_sq: np.ndarray  # per step, unweighted grad-u square quadrature
    trace_sq: np.ndarray  # per step, |u| gamma^-(t)^2 wall quadrature
    data_sq: np.ndarray  # per step, |u| q(t)^2 wall quadrature on Sigma^+
    clamped: list

    def energy_residual(self) -> tuple:
        """(residual history, relative residual at horizon) of the balance
        ||f(t)||^2 + int_0^t ||gamma^-||^2 + s^2 int ||grad_u f||^2
        = ||f0||^2 + int_0^t ||q||^2."""
        quad = self.grid.dx * self.grid.du
        sq = (self.fields**2).sum(axis=(1, 2)) * quad
        lhs = sq + np.concatenate([[0.0], np.cumsum(self.trace_sq + self.grad_sq)])
        rhs = sq[0] + np.concatenate([[0.0], np.cumsum(self.data_sq)])
        res = lhs - rhs
        return res, float(abs(res[-1]) / sq[0])

    def l1_balance_defect(self) -> float:
        """Bookkeeping defect of mass_after + out_cum - mass0 - in_cum."""
        lhs = self.mass[-1] + float(self.mass_out.sum())
        rhs = self.mass[0] + float(self.mass_in.sum())
        return abs(lhs - rhs) / max(self.mass[0] + float(self.mass_in.sum()), 1e-300)


def _transport_inflow(values: np.ndarray, grid: PhaseGrid, dt: float,
                      q: np.ndarray):
    """Backward-oriented transport: the new value at x is read at x + u dt.

    q holds the (2, n_u) wall data, zero off each wall's outgoing half. A
    row is read towards the wall its velocity leaves by (u > 0 rows as they
    are, u < 0 rows reversed in x), and each cell blends with the next one
    by s = |u| dt / dx. The last cell blends with the wall datum, half a
    cell out, by min(2s, 1). This needs s <= 1/2, a half step moving at most
    half a cell, which the transport CFL limit of `PhaseGrid` guarantees.

    Returns the updated field and the q-mass injected (scheme bookkeeping).
    """
    u = grid.u
    s = _transport_shifts(grid, dt)
    rows = np.where(u > 0, values, values[::-1])
    out = np.empty_like(rows)
    out[:-1] = rows[:-1] + s * (rows[1:] - rows[:-1])
    theta = np.minimum(2.0 * s, 1.0)
    datum = np.where(u > 0, q[1], q[0])
    out[-1] = rows[-1] + theta * (datum - rows[-1])
    injected = float((theta * datum).sum()) * grid.dx * grid.du
    return np.where(u > 0, out, out[::-1]), injected


def _inflow_trace(values: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Trace on the incoming-set rows (Sigma^-), clipped at 0."""
    u = grid.u
    # wall 0 has normal -1, so u.n < 0 there means u > 0
    return np.clip(np.where([u > 0, u < 0], _wall_values(values), 0.0), 0.0, None)


def solve_linear_inflow(
    grid: PhaseGrid,
    f0,
    q,
    sigma: float,
) -> InflowResult:
    """March the backward-oriented wall-data problem to the horizon.

    q is a callable (t, wall) -> (n_u,) array of boundary values, consumed
    only on each wall's outgoing velocity half. The solution's incoming
    trace, the energy pieces of the balance identity, and the exact in/out
    mass ledger are recorded every step.
    """
    f = _initial_values(grid, f0, sigma)
    u = grid.u

    def q_at(t):
        walls = [np.asarray(q(t, wall), dtype=float) for wall in (0, 1)]
        if any(vals.shape != (grid.n_u,) for vals in walls):
            raise ValueError("q(t, wall) must return one value per u node")
        return np.where([u < 0, u > 0], walls, 0.0)

    n_steps = grid.n_steps
    fields = np.empty((n_steps + 1, grid.n_x, grid.n_u))
    gamma = np.empty((n_steps + 1, 2, grid.n_u))
    mass = np.empty(n_steps + 1)
    mass_in = np.empty(n_steps)
    # per slice: sigma^2 ||grad_u f||^2, ||gamma^-||^2 and ||q||^2, each
    # integrated in time by the trapezoid rule once every slice is in
    terms = np.empty((3, n_steps + 1))
    times = grid.times.tolist()
    dts = np.array([step_length(k, grid.horizon, grid.dt) for k in range(n_steps)])
    clamped: list = []
    quad = grid.dx * grid.du
    abs_u = np.abs(u)
    scale = float(f.max()) + 1.0

    def record(k, f):
        fields[k] = f
        gamma[k] = _inflow_trace(f, grid)
        mass[k] = grid.cell_mass(f)
        g = np.gradient(f, grid.du, axis=1)
        terms[:, k] = (sigma**2 * float(np.square(g, out=g).sum()) * quad,
                       float((abs_u * gamma[k]**2).sum()) * grid.du,
                       float((abs_u * q_at(times[k])**2).sum()) * grid.du)

    record(0, f)
    per_dt = {}
    for k, dt in enumerate(dts.tolist()):
        if dt not in per_dt:
            per_dt[dt] = _diffusion_matrix(grid, sigma, dt)
        lam, ab = per_dt[dt]
        f, in1 = _transport_inflow(f, grid, 0.5 * dt, q_at(times[k] + 0.25 * dt))
        f = _diffuse(f, lam, ab)
        f, in2 = _transport_inflow(f, grid, 0.5 * dt, q_at(times[k] + 0.75 * dt))
        f = _clamp(f, scale, clamped)
        mass_in[k] = in1 + in2
        record(k + 1, f)
    grad_sq, trace_sq, data_sq = 0.5 * dts * (terms[:, :-1] + terms[:, 1:])
    return InflowResult(
        grid=grid,
        times=grid.times,
        fields=fields,
        gamma_minus=gamma,
        mass=mass,
        mass_in=mass_in,
        mass_out=mass[:-1] + mass_in - mass[1:],
        grad_sq=grad_sq,
        trace_sq=trace_sq,
        data_sq=data_sq,
        clamped=clamped,
    )


# ------------------------------------------------- drift and traces


def drift_from_density(field, grid: PhaseGrid, model: KineticModel) -> np.ndarray:
    """Velocity average of b against the density columns.

    B(x_i) = sum_j b(u_j) rho[i, j] / sum_j rho[i, j]; zero where the column
    mass falls below 1e-14 / (du n_u). A convex combination of b values, so
    it never exceeds the componentwise bound of b.
    """
    values = np.asarray(field, dtype=float)
    bu = model.drift(grid.u)
    col = values.sum(axis=1)
    num = (values * bu[None, :]).sum(axis=1)
    ok = col * grid.du >= 1e-14 / (grid.du * grid.n_u)
    return np.where(ok, num / np.where(ok, col, 1.0), 0.0)


def trace_functionals(traces, grid: PhaseGrid) -> dict:
    """Per wall, the speed-weighted mass int |u| gamma du of a (..., 2, n_u)
    stack of wall traces, such as `SpecularResult.traces` or one slice of
    it, as "speed_mass", in the shape of the stack less its velocity axis."""
    return {"speed_mass": (traces * np.abs(grid.u)).sum(axis=-1) * grid.du}


# ------------------------------------------------------ Picard solve


@dataclass
class PicardReport:
    """Record of the nonlinear solve: one pass, converged, its largest
    envelope excursions below `lower` and above `upper`, one entry per pass,
    and the upper envelope's peak over the grid times (0 without one), which
    `to_dict` leaves out."""

    iterates: int
    converged: bool
    lower_violation: list
    upper_violation: list
    envelope_peak: float

    def to_dict(self) -> dict:
        return {
            "iterates": self.iterates,
            "converged": bool(self.converged),
            "lower_violation": [float(v) for v in self.lower_violation],
            "upper_violation": [float(v) for v in self.upper_violation],
        }


@dataclass
class PicardResult:
    solution: SpecularResult
    report: PicardReport
    drift_history: np.ndarray  # (n_steps, n_x): row k is the drift of slice k


def envelope_excursions(fields: np.ndarray, grid: PhaseGrid,
                        lower: MaxwellianParams | None,
                        upper: MaxwellianParams | None) -> tuple:
    """(below, above, peak) of a history against the Maxwellian envelopes.

    `fields` holds one (n_x, n_u) slice per grid time. `below` is the largest
    excursion of any node under P_lower(t_k), `above` the largest over
    P_upper(t_k), each 0 when there is none or no envelope; `peak` is the
    largest value of P_upper over the grid times (0 without one). Rounding
    is monotone, so the excursion of a column is the one of its smallest
    (largest) value, bit for bit; one envelope row is evaluated per time.
    """
    if len(fields) != len(grid.times):
        raise ValueError(f"a history needs one slice per grid time, not {len(fields)}")
    below = above = peak = 0.0
    for t, f in zip(grid.times.tolist(), fields):
        if lower is not None:
            below = max(below, float((maxwellian_eval(lower, t, grid.u) - f.min(axis=0)).max()))
        if upper is not None:
            p_up = maxwellian_eval(upper, t, grid.u)
            above = max(above, float((f.max(axis=0) - p_up).max()))
            peak = max(peak, float(p_up.max()))
    return below, above, peak


def picard_nonlinear(
    grid: PhaseGrid,
    rho0,
    model: KineticModel,
    tol: float = 1e-6,
    max_iter: int = 20,
    weight: WeightParams | None = None,
    lower: MaxwellianParams | None = None,
    upper: MaxwellianParams | None = None,
) -> PicardResult:
    """The nonlinear specular problem, solved in one causal march.

    Step k's drift is `drift_from_density` of slice k: the march yields
    slice k, row k of the drift table is filled from it, and only then does
    the march read that row. Slice k + 1 depends on rows 0..k alone, so the
    pass is the fixed point of the Picard map, the frozen-drift specular
    solve with the drift of the previous history: that solve with
    `drift_history` frozen gives the same fields bit for bit. One pass
    therefore meets every tol > 0 and max_iter >= 1, and the report reads
    one iterate, converged. Both parameters stay because callers and
    scenario files name them; values outside that range are refused.

    Every drift row is a convex combination of b values, so the drift CFL
    limit is checked once, on model.b_norm. Each slice is written straight
    into the returned history. The report's envelope excursions and peak
    are `envelope_excursions` of the history once the march ends. The
    weighted energy ledgers that `energy_residual` reads are kept only when
    `weight` is given; without one the solution holds None for both ledgers
    and for its weight, and its `energy_residual` raises. The fields do not
    depend on the weight.
    """
    if not (tol > 0 and max_iter >= 1):
        raise ValueError(f"need tol > 0 and max_iter >= 1, not {tol!r} and {max_iter!r}")
    grid.check_drift(model.b_norm)
    drifts = np.empty((grid.n_steps, grid.n_x))
    result, steps = _specular_march(
        grid, rho0, drifts, model.sigma, weight, ledgers=weight is not None,
        fields=np.empty((grid.n_steps + 1, grid.n_x, grid.n_u)))
    for k, f in steps:
        if k < grid.n_steps:
            drifts[k] = drift_from_density(f, grid, model)
    below, above, peak = envelope_excursions(result.fields, grid, lower, upper)
    report = PicardReport(iterates=1, converged=True, lower_violation=[below],
                          upper_violation=[above], envelope_peak=peak)
    return PicardResult(solution=result, report=report, drift_history=drifts)
