"""Residual checks tying the particle and grid sides together.

Each check turns one structural identity into a number: the mean wall flux
of a trace, the reflection algebra of a hit log, the L2 contraction of the
wall-respecting evolution, envelope violations, and the L1 distance between
a particle cloud and a grid density. A report collects named entries with
their tolerances and renders as JSON or a plain table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxMismatch, DegenerateTrace
from .geometry import Domain, normal_velocity
from .maxwellian import MaxwellianParams, maxwellian_eval
from .vfp import DensityField, PhaseGrid, SpecularResult, TraceField, _specular_march

__all__ = [
    "no_permeability_residual",
    "flux_balance_particles",
    "shell_flux_estimate",
    "semigroup_l2_check",
    "sandwich_check",
    "mc_grid_distance",
    "DiagnosticsReport",
    "ReportEntry",
    "FluxBalance",
    "ShellFlux",
    "SemigroupCheck",
    "SandwichCheck",
]


def no_permeability_residual(traces, grid: PhaseGrid) -> float:
    """Worst |int u gamma du| / int |u| gamma du over the given traces.

    Accepts one TraceField or a sequence. The ratio form makes the residual
    invariant under positive scaling of the trace.
    """
    if isinstance(traces, TraceField):
        traces = [traces]
    u = grid.u
    absu = np.abs(u)
    worst = 0.0
    for tr in traces:
        for wall in (0, 1):
            gamma = tr.gamma[wall]
            den = float((absu * gamma).sum()) * grid.du
            if den <= 0.0:
                raise DegenerateTrace(
                    f"trace at t={tr.time}, wall {wall} has no speed mass"
                )
            num = abs(float((u * gamma).sum())) * grid.du
            worst = max(worst, num / den)
    return worst


@dataclass
class FluxBalance:
    """Exact reflection-algebra checks over a hit log."""

    antisymmetry_residual: float
    signed_flux_sum: float
    count: int
    skipped: bool = False


def flux_balance_particles(hits, domain: Domain, window=None) -> FluxBalance:
    """Per-contact check over a langevin.HitLog that the post-hit normal
    velocity is the exact negation of the pre-hit one, plus the windowed
    signed-flux sum.

    window is an optional (t0, t1) filter on hit times. Both statistics are
    zero by construction of the reflection; any nonzero value is a bug. An
    empty log is a caller error, but a window that selects nothing only
    marks the result skipped.
    """
    if not len(hits):
        raise ValueError("empty hit log")
    keep = slice(None) if window is None else (window[0] <= hits.time) & (hits.time <= window[1])
    location = hits.location[keep]
    if not len(location):
        return FluxBalance(0.0, 0.0, 0, skipped=True)
    normals = domain.outward_normal(location)
    flux = (normal_velocity(hits.pre_velocity[keep], normals)
            + normal_velocity(hits.post_velocity[keep], normals))
    return FluxBalance(antisymmetry_residual=float(np.abs(flux).max()),
                       signed_flux_sum=float(flux.sum()), count=len(flux))


@dataclass
class ShellFlux:
    """Monte Carlo mean of the outward velocity component near the wall."""

    mean: float
    stderr: float
    count: int
    skipped: bool = False


def _phase_arrays(snapshot):
    """(X, U) float arrays of an (X, U) pair or of an object with positions
    and velocities."""
    if hasattr(snapshot, "positions"):
        snapshot = snapshot.positions, snapshot.velocities
    return tuple(np.asarray(a, dtype=float) for a in snapshot)


def _wall_scale(domain: Domain) -> float:
    for attr in ("length", "radius"):
        if hasattr(domain, attr):
            return float(getattr(domain, attr))
    raise ValueError("pass an explicit shell width for this domain")


def shell_flux_estimate(domain: Domain, snapshots, shell: float | None = None) -> ShellFlux:
    """Pooled estimate of E[u . n] over particles within `shell` of the wall.

    snapshots is a sequence of (positions, velocities) pairs or objects with
    those attributes. An empty shell yields a skipped result, not a failure.
    """
    if shell is None:
        shell = 0.02 * _wall_scale(domain)
    xs, us = [], []
    for snap in snapshots:
        X, U = _phase_arrays(snap)
        near = domain.signed_distance(X) >= -shell
        xs.append(X[near])
        us.append(U[near])
    if not sum(len(x) for x in xs):
        return ShellFlux(mean=float("nan"), stderr=float("nan"), count=0,
                         skipped=True)
    arr = normal_velocity(np.concatenate(us), domain.outward_normal(np.concatenate(xs)))
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else float("inf")
    return ShellFlux(mean=float(arr.mean()), stderr=stderr, count=arr.size)


@dataclass
class SemigroupCheck:
    """L2 budget of the wall-respecting backward evolution started at psi."""

    margin: float  # ||psi||^2 - ||evolved(T)||^2
    grad_energy: float  # sigma^2 * time-integrated gradient square
    split_residual: float  # |margin - grad_energy| / ||psi||^2


def semigroup_l2_check(psi, grid: PhaseGrid, sigma: float) -> SemigroupCheck:
    """Propagate psi by the backward evolution and account for its L2 drop.

    With no drift the backward flow is the forward specular solve applied to
    the velocity-reflected data (an exact index reversal on this grid), so
    the drop must equal the dissipated gradient energy. Only the last slice
    and the per-step gradient terms are kept, not the field history.
    """
    psi = np.asarray(psi, dtype=float)
    flipped = psi[:, ::-1].copy()
    no_drift = np.broadcast_to(0.0, (grid.n_steps, grid.n_x))
    res, steps = _specular_march(grid, flipped, no_drift, sigma)
    for _, last in steps:
        pass
    quad = grid.dx * grid.du
    e0 = float((psi**2).sum()) * quad
    eT = float((last**2).sum()) * quad
    margin = e0 - eT
    grad = sigma**2 * float(res.grad_sq_weighted.sum())
    split = abs(margin - grad) / e0 if e0 > 0 else 0.0
    return SemigroupCheck(margin=margin, grad_energy=grad, split_residual=split)


@dataclass
class SandwichCheck:
    """Worst envelope violation over a field history, absolute and relative."""

    absolute: float
    relative: float
    envelope_peak: float
    tol: float | None = None

    @property
    def passed(self) -> bool:
        return self.tol is None or self.absolute <= self.tol


def sandwich_check(fields, times, grid: PhaseGrid,
                   lower: MaxwellianParams | None,
                   upper: MaxwellianParams | None,
                   tol: float | None = None) -> SandwichCheck:
    """max(P_lower - rho, rho - P_upper, 0) over all nodes and times.

    A SpecularResult may be passed as `fields` (times and grid then come
    from it). The relative figure divides by the peak of the upper envelope
    (or of the field itself when no upper envelope is given).
    """
    if isinstance(fields, SpecularResult):
        times = fields.times
        grid = fields.grid
        fields = fields.fields
    fields = np.asarray(fields, dtype=float)
    if fields.ndim == 2:
        fields = fields[None]
        times = [times] if np.ndim(times) == 0 else times
    worst = 0.0
    peak = 0.0
    for k, t in enumerate(np.asarray(times, dtype=float)):
        if lower is not None:
            p_lo = maxwellian_eval(lower, float(t), grid.u)
            worst = max(worst, float((p_lo[None, :] - fields[k]).max()))
        if upper is not None:
            p_up = maxwellian_eval(upper, float(t), grid.u)
            worst = max(worst, float((fields[k] - p_up[None, :]).max()))
            peak = max(peak, float(p_up.max()))
    if peak == 0.0:
        peak = float(np.abs(fields).max()) or 1.0
    worst = max(worst, 0.0)
    return SandwichCheck(absolute=worst, relative=worst / peak,
                         envelope_peak=peak, tol=tol)


def mc_grid_distance(snapshot, field: DensityField, grid: PhaseGrid,
                     block: tuple = (1, 1)) -> float:
    """L1 distance between a particle histogram and a grid density.

    Both sides are normalized to unit mass, so the result lives in [0, 2]
    with 2 meaning disjoint supports. `block` coarsens both sides by summing
    (bx, bu) cell blocks before comparison, trading spatial resolution for
    multinomial noise roughly sqrt(2 cells / (pi N)).
    """
    X, U = (a.reshape(-1) for a in _phase_arrays(snapshot))
    t_part = getattr(snapshot, "time", None)
    if X.min() < 0.0 or X.max() > grid.length:
        raise BoxMismatch("particle positions leave the grid's domain")
    if t_part is not None and abs(t_part - field.time) > 0.5 * grid.dt:
        raise BoxMismatch(
            f"snapshot time {t_part} does not match field time {field.time}"
        )
    bx, bu = block
    if grid.n_x % bx or grid.n_u % bu:
        raise BoxMismatch(f"block {block} does not tile {grid.n_x}x{grid.n_u}")

    ix = np.clip((X / grid.dx).astype(int), 0, grid.n_x - 1)
    iu = np.floor((U + grid.v_max) / grid.du).astype(int)
    inside = (iu >= 0) & (iu < grid.n_u)
    hist = np.zeros((grid.n_x, grid.n_u))
    np.add.at(hist, (ix[inside], iu[inside]), 1.0)
    hist /= X.size  # particles beyond the velocity box count as lost mass

    rho = np.asarray(field.values, dtype=float)
    if rho.shape != hist.shape:
        raise BoxMismatch(f"field shape {rho.shape} does not match the grid")
    total = rho.sum()
    if total <= 0:
        raise BoxMismatch("grid density has no mass")
    rho = rho / total

    hist = hist.reshape(grid.n_x // bx, bx, grid.n_u // bu, bu).sum(axis=(1, 3))
    rho = rho.reshape(grid.n_x // bx, bx, grid.n_u // bu, bu).sum(axis=(1, 3))
    return float(np.abs(hist - rho).sum())


@dataclass
class ReportEntry:
    name: str
    value: float
    tolerance: float | None
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": None if self.value is None else float(self.value),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "passed": bool(self.passed),
            "detail": self.detail,
        }


@dataclass
class DiagnosticsReport:
    """Named residuals with tolerances, serializable and printable."""

    scenario: str
    entries: list = field(default_factory=list)

    def add(self, name: str, value, tolerance=None, passed=None, detail=""):
        if passed is None:
            passed = tolerance is None or abs(value) <= tolerance
        self.entries.append(ReportEntry(name, value, tolerance, passed, detail))
        return self

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), indent=2, **kwargs)

    def table(self) -> str:
        width = max([len(e.name) for e in self.entries] + [8])
        lines = [f"scenario: {self.scenario}"]
        header = f"{'check':<{width}}  {'value':>12}  {'tolerance':>12}  status"
        lines.append(header)
        lines.append("-" * len(header))
        for e in self.entries:
            tol = f"{e.tolerance:.3e}" if e.tolerance is not None else "-"
            val = f"{e.value:.3e}" if e.value is not None else "-"
            status = "pass" if e.passed else "FAIL"
            lines.append(f"{e.name:<{width}}  {val:>12}  {tol:>12}  {status}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)
