"""Residual checks tying the particle and grid sides together.

Each check turns one structural identity into a number: the mean wall flux
of the wall traces, the reflection algebra of a hit log, the L2 contraction
of the wall-respecting evolution, envelope violations, and the L1 distance
between a particle cloud and a grid density. Every check takes one input
form: the grid checks read the arrays of a `SpecularResult` (its `traces`,
its `fields` or one slice of them), the particle checks plain (X, U)
arrays. A report collects named entries with their tolerances and renders
as a dict or a plain table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxMismatch, DegenerateTrace
from .geometry import Domain, normal_velocity
from .maxwellian import MaxwellianParams
from .vfp import (PhaseGrid, SpecularResult, _specular_march, envelope_excursions,
                  trace_functionals)

__all__ = [
    "no_permeability_residual",
    "flux_balance_particles",
    "shell_flux_estimate",
    "semigroup_l2_check",
    "sandwich_check",
    "mc_grid_distance",
    "DiagnosticsReport",
    "ReportEntry",
]


def no_permeability_residual(traces, grid: PhaseGrid) -> float:
    """Worst |int u gamma du| / int |u| gamma du over a stack of wall traces.

    `traces` is a (..., 2, n_u) array such as `SpecularResult.traces`, row 0
    of each pair the wall at x = 0 and row 1 the wall at x = L. The ratio
    form makes the residual invariant under positive scaling of a trace.
    """
    gamma = np.asarray(traces, dtype=float)
    if gamma.shape[-2:] != (2, grid.n_u):
        raise ValueError(f"traces must end in axes (2, {grid.n_u}), not {gamma.shape}")
    den = trace_functionals(gamma, grid)["speed_mass"]
    if (den <= 0.0).any():
        *where, wall = np.argwhere(den <= 0.0)[0].tolist()
        raise DegenerateTrace(f"trace {tuple(where)}, wall {wall} has no speed mass")
    num = np.abs((grid.u * gamma).sum(axis=-1)) * grid.du
    return float((num / den).max())


def flux_balance_particles(hits, domain: Domain) -> float:
    """Largest |u_pre . n + u_post . n| over the contacts of a
    langevin.HitLog: the post-hit normal velocity must be the exact
    negation of the pre-hit one.

    The residual is zero by construction of the reflection; any nonzero
    value is a bug. An empty log is a caller error.
    """
    if not len(hits):
        raise ValueError("empty hit log")
    normals = domain.outward_normal(hits.location)
    flux = (normal_velocity(hits.pre_velocity, normals)
            + normal_velocity(hits.post_velocity, normals))
    return float(np.abs(flux).max())


def _wall_scale(domain: Domain) -> float:
    for attr in ("length", "radius"):
        if hasattr(domain, attr):
            return float(getattr(domain, attr))
    raise ValueError("pass an explicit shell width for this domain")


def shell_flux_estimate(domain: Domain, X, U, shell: float | None = None) -> tuple:
    """(mean, stderr, count): the Monte Carlo estimate of E[u . n] over the
    particles (X, U) within `shell` of the wall.

    The standard error needs two states, so it is nan below that, and an
    empty shell gives (nan, nan, 0), not a failure.
    """
    if shell is None:
        shell = 0.02 * _wall_scale(domain)
    X, U = np.asarray(X, dtype=float), np.asarray(U, dtype=float)
    near = domain.signed_distance(X) >= -shell
    if not near.any():
        return math.nan, math.nan, 0
    arr = normal_velocity(U[near], domain.outward_normal(X[near]))
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return float(arr.mean()), stderr, arr.size


def semigroup_l2_check(psi, grid: PhaseGrid, sigma: float) -> tuple:
    """(margin, grad_energy, split_residual): the L2 budget of the
    wall-respecting backward evolution started at psi.

    The margin is ||psi||^2 - ||evolved(T)||^2, grad_energy sigma^2 times
    the time-integrated gradient square, and the split residual
    |margin - grad_energy| / ||psi||^2. With no drift the backward flow is
    the forward specular solve applied to the velocity-reflected data (an
    exact index reversal on this grid), so the drop must equal the
    dissipated gradient energy, whose ledger the march keeps in unit
    weight (no weight). Only the last slice and the per-step gradient
    terms are kept, not the field history.
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
    return margin, grad, split


def sandwich_check(solution: SpecularResult,
                   lower: MaxwellianParams | None,
                   upper: MaxwellianParams | None) -> tuple:
    """(worst, peak): max(P_lower - rho, rho - P_upper, 0) over all nodes
    and times of a solve, and the scale it is measured against.

    The excursions and the upper envelope's peak are
    `vfp.envelope_excursions` of the solution's history. Without an upper
    envelope the peak is the field's own largest |rho|, or 1 for a zero
    field, so that worst / peak is always defined.
    """
    fields = solution.fields
    below, above, peak = envelope_excursions(fields, solution.grid, lower, upper)
    if peak == 0.0:
        peak = max(float(fields.max()), -float(fields.min())) or 1.0
    return max(below, above), peak


def mc_grid_distance(X, U, rho, grid: PhaseGrid, block: tuple = (1, 1)) -> tuple:
    """(distance, floor): the L1 distance between the histogram of the
    particles (X, U) and the grid density rho, and its sampling floor.

    Both sides are normalized to unit mass, so the distance lives in [0, 2]
    with 2 meaning disjoint supports. `block` coarsens both sides by summing
    (bx, bu) cell blocks before comparison, trading spatial resolution for
    multinomial noise. The floor is that noise for N = X.size draws from the
    grid's own block masses p_b, sqrt(2 / (pi N)) sum_b sqrt(p_b).
    """
    X, U = np.asarray(X, dtype=float).reshape(-1), np.asarray(U, dtype=float).reshape(-1)
    if X.min() < 0.0 or X.max() > grid.length:
        raise BoxMismatch("particle positions leave the grid's domain")
    bx, bu = block
    if grid.n_x % bx or grid.n_u % bu:
        raise BoxMismatch(f"block {block} does not tile {grid.n_x}x{grid.n_u}")

    ix = np.clip((X / grid.dx).astype(int), 0, grid.n_x - 1)
    iu = np.floor((U + grid.v_max) / grid.du).astype(int)
    inside = (iu >= 0) & (iu < grid.n_u)
    hist = np.zeros((grid.n_x, grid.n_u))
    np.add.at(hist, (ix[inside], iu[inside]), 1.0)
    hist /= X.size  # particles beyond the velocity box count as lost mass

    rho = np.asarray(rho, dtype=float)
    if rho.shape != hist.shape:
        raise BoxMismatch(f"field shape {rho.shape} does not match the grid")
    total = rho.sum()
    if total <= 0:
        raise BoxMismatch("grid density has no mass")

    def blocks(values):
        return values.reshape(grid.n_x // bx, bx, grid.n_u // bu, bu).sum(axis=(1, 3))

    distance = float(np.abs(blocks(hist) - blocks(rho / total)).sum())
    masses = blocks(rho * grid.dx * grid.du)
    p = np.clip(masses / float(masses.sum()), 0.0, None)
    return distance, math.sqrt(2.0 / (math.pi * X.size)) * float(np.sqrt(p).sum())


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

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }

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
