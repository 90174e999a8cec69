"""Interacting particle system with an estimated conditional drift.

N confined paths share one empirical measure; each macro step evaluates the
conditional expectation of b(U) given X = x by Nadaraya-Watson regression on
a frozen snapshot, kicks every velocity by h times that field, and then runs
the exact confined step. The estimate is a convex combination of b values,
so the kick respects the componentwise bound of b no matter how degenerate
the data are; where the local kernel mass is negligible the drift is zero.

run_mckean is the one particle march, langevin.run_ensemble, with this
mean-field kick, and it returns what that march returns: (X, U, snapshots,
hits), the snapshots keyed by step.  The linear process is the same march
with no kick or the local b(U).  The march checks the starting states, so a
start outside the domain, or on the wall moving out, raises InvalidStart
here too.  drift_field gives the probe-grid field of any kept state.

On a one-dimensional interval the field is estimated on a probe grid and
interpolated to the particles. There the particles are first binned linearly
onto M = BIN_REFINE * (probes - 1) + 1 centres, and the binned mass and b(U)
sums are smoothed with the kernel (Wand 1994), which costs O(N + M * probes)
per step instead of O(N * probes). conditional_drift is the exact O(N) sum
per point; it serves probes < 2 and domains of dimension two or more.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Domain, Interval
from .langevin import StepParams, run_ensemble

BIN_REFINE = 4  # binning centres per probe interval of the binned estimate

__all__ = [
    "KineticModel",
    "Ensemble",
    "DriftEstimatorConfig",
    "drift_from_name",
    "silverman_bandwidth",
    "conditional_drift",
    "drift_field",
    "run_mckean",
]

_NAME_RE = re.compile(r"^([a-z_]+)\s*(?:\(([^()]*)\))?$")


def _parse_args(text):
    if text is None or text.strip() == "":
        return ()
    return tuple(float(part) for part in text.split(","))


@lru_cache(maxsize=None)
def drift_from_name(name: str):
    """Resolve a catalog drift name to (componentwise function, sup bound).

    Catalog: "zero", "constant(c)", "tanh(scale)", "sign",
    "clipped_linear(slope, cap)". All members act componentwise on the
    velocity and are bounded; the returned bound is the componentwise sup.
    """
    m = _NAME_RE.match(name.strip())
    if m is None:
        raise ValueError(f"malformed drift name: {name!r}")
    head, args = m.group(1), _parse_args(m.group(2))
    if head == "zero" and not args:
        return (lambda u: np.zeros_like(np.asarray(u, dtype=float)), 0.0)
    if head == "constant" and len(args) == 1:
        c = args[0]
        return (lambda u: np.full_like(np.asarray(u, dtype=float), c), abs(c))
    if head == "tanh" and len(args) == 1:
        scale = args[0]
        return (lambda u: np.tanh(scale * np.asarray(u, dtype=float)), 1.0)
    if head == "sign" and not args:
        return (lambda u: np.sign(np.asarray(u, dtype=float)), 1.0)
    if head == "clipped_linear" and len(args) == 2:
        slope, cap = args
        if not cap > 0:
            raise ValueError("clipped_linear cap must be positive")
        return (
            lambda u: np.clip(slope * np.asarray(u, dtype=float), -cap, cap),
            cap,
        )
    raise ValueError(f"unknown drift in catalog: {name!r}")


@dataclass(frozen=True)
class KineticModel:
    """Noise level and bounded velocity drift of the interacting system.

    b names a catalog member; b_norm is the componentwise sup of |b|, so the
    euclidean magnitude of any drift value is at most b_norm * sqrt(d).
    """

    sigma: float
    b: str = "zero"

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        drift_from_name(self.b)  # fail fast on typos

    @property
    def drift(self):
        return drift_from_name(self.b)[0]

    @property
    def b_norm(self) -> float:
        return drift_from_name(self.b)[1]


@dataclass
class Ensemble:
    """Particle cloud at one time: positions (N,) or (N, d), velocities alike."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must share a shape")
        if len(self) < 1:
            raise ValueError("ensemble needs at least one particle")

    def __len__(self):
        return self.positions.shape[0]

    @property
    def dimension(self):
        return 1 if self.positions.ndim == 1 else self.positions.shape[1]


@dataclass(frozen=True)
class DriftEstimatorConfig:
    """Knobs of the Nadaraya-Watson conditional-drift estimate.

    bandwidth None means the Silverman rule per spatial dimension at
    evaluation time. min_mass is the fraction of the maximal kernel mass
    (N at peak 1) below which the estimate returns the zero vector.
    probes >= 2 (one-dimensional intervals only) evaluates the field on that
    many equispaced grid points from linearly binned particles, BIN_REFINE
    bins per probe interval, and linearly interpolates it to the particles;
    probes = 0, like any domain of dimension two or more, evaluates the
    exact estimate at every particle.
    """

    bandwidth: float | None = None
    kernel: str = "gaussian"
    min_mass: float = 1e-6
    probes: int = 257

    def __post_init__(self):
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kernel not in ("gaussian", "epanechnikov"):
            raise ValueError(f"unknown kernel: {self.kernel!r}")
        if not self.min_mass >= 0:
            raise ValueError(f"min_mass must be nonnegative, got {self.min_mass}")
        if self.probes < 0:
            raise ValueError(f"probes must be nonnegative, got {self.probes}")


def _kernel_of_sq(name, q):
    # q = squared scaled distance; both profiles peak at 1
    if name == "gaussian":
        return np.exp(-0.5 * q)
    return np.maximum(0.0, 1.0 - q)


def silverman_bandwidth(positions: np.ndarray):
    """1.06 * std * N^(-1/5) per spatial dimension, floored against collapse."""
    X = np.asarray(positions, dtype=float)
    n = X.shape[0]
    std = X.std(axis=0)
    bw = 1.06 * std * n ** (-0.2)
    return np.where(bw > 0, bw, 1.0) if X.ndim > 1 else (bw if bw > 0 else 1.0)


def _resolve_bandwidth(cfg, positions):
    if cfg.bandwidth is not None:
        return cfg.bandwidth
    return silverman_bandwidth(positions)


def conditional_drift(
    ensemble: Ensemble,
    model: KineticModel,
    cfg: DriftEstimatorConfig,
    x,
):
    """Kernel regression estimate of E[b(U) | X = x] on the ensemble.

    x may be a single point or a batch along the first axis; the output
    keeps its shape. Wherever the summed kernel mass falls below
    min_mass * N * peak, the zero vector is returned. A 1-d cloud is read
    as (N, 1) columns, so one formula serves every dimension.
    """
    n = len(ensemble)
    bw = _resolve_bandwidth(cfg, ensemble.positions)
    X = ensemble.positions.reshape(n, -1)
    BU = model.drift(ensemble.velocities).reshape(n, -1)
    pts = np.asarray(x, dtype=float)
    probes = pts.reshape(-1, X.shape[1])

    out = np.zeros(probes.shape, dtype=float)
    threshold = cfg.min_mass * n
    chunk = max(1, (1 << 22) // max(n, 1))
    for lo in range(0, probes.shape[0], chunk):
        block = probes[lo : lo + chunk]
        diff = (block[:, None, :] - X[None, :, :]) / bw
        q = np.einsum("mnd,mnd->mn", diff, diff)
        w = _kernel_of_sq(cfg.kernel, q)
        denom = w.sum(axis=1)
        ok = denom >= threshold
        safe = np.where(ok, denom, 1.0)
        # row-wise reductions keep results independent of the chunking
        numer = (w[:, :, None] * BU[None, :, :]).sum(axis=1)
        out[lo : lo + chunk] = np.where(ok[:, None], numer / safe[:, None], 0.0)
    return out.reshape(pts.shape)[()]


def _binned_field(ensemble, model, cfg, length):
    """Drift field on the probe grid of [0, length] from linearly binned particles.

    Positions, clipped into [0, length], split their unit mass and their
    b(U) between the two nearest of M = BIN_REFINE * (probes - 1) + 1
    equispaced centres; the kernel then smooths both binned sums onto the
    probes, which sit on every BIN_REFINE-th centre (Wand 1994). The weights
    stay nonnegative, so each value is still a convex combination of b
    values.
    """
    n_probes = cfg.probes
    m = BIN_REFINE * (n_probes - 1) + 1
    X = ensemble.positions
    BU = model.drift(ensemble.velocities)
    s = np.clip(X, 0.0, length) * ((m - 1) / length)
    left = np.minimum(s.astype(np.intp), m - 2)
    frac = s - left
    mass = np.bincount(left, 1.0 - frac, m) + np.bincount(left + 1, frac, m)
    sums = np.bincount(left, (1.0 - frac) * BU, m) + np.bincount(left + 1, frac * BU, m)
    # the kernel weight between centres depends only on their offset, so
    # smoothing is a discrete convolution; probes read every BIN_REFINE-th
    # smoothed centre, and memory stays O(M)
    offsets = np.arange(1 - m, m) * (length / (m - 1))
    profile = _kernel_of_sq(cfg.kernel, (offsets / _resolve_bandwidth(cfg, X)) ** 2)
    denom = np.convolve(mass, profile, "valid")[::BIN_REFINE]
    numer = np.convolve(sums, profile, "valid")[::BIN_REFINE]
    ok = denom >= cfg.min_mass * len(ensemble)
    grid = np.linspace(0.0, length, n_probes)
    return grid, np.where(ok, numer / np.where(ok, denom, 1.0), 0.0)


def drift_field(domain, ensemble, model, cfg):
    """(probe grid, field values) of the drift estimate on the ensemble, or
    None where the estimate runs per particle (see DriftEstimatorConfig)."""
    if ensemble.dimension == 1 and isinstance(domain, Interval) and cfg.probes >= 2:
        return _binned_field(ensemble, model, cfg, domain.length)
    return None


def _drift_at_particles(domain, ensemble, model, cfg):
    """Drift field values at every particle of the frozen snapshot."""
    if model.b_norm == 0.0:
        return np.zeros_like(ensemble.velocities)
    snapshot = drift_field(domain, ensemble, model, cfg)
    if snapshot is None:
        return conditional_drift(ensemble, model, cfg, ensemble.positions)
    grid, values = snapshot
    return np.interp(ensemble.positions, grid, values)


def run_mckean(
    domain: Domain,
    X0: np.ndarray,
    U0: np.ndarray,
    model: KineticModel,
    cfg: DriftEstimatorConfig,
    T: float,
    params: StepParams,
    seed: int,
    snapshot_steps=(),
    stream_ids: np.ndarray | None = None,
):
    """March the len(X0)-particle system from (X0, U0) to time T.

    The march is langevin.run_ensemble with the mean-field kick, and this
    returns its (X, U, snapshots, hits): snapshots maps each listed step to
    the state after it, and the HitLog carries absolute times and path ids.
    The run is a pure function of (X0, U0, seed), a zero drift gives exactly
    the linear ensemble, and a start the march refuses raises InvalidStart.
    """
    return run_ensemble(
        domain, X0, U0, T, params, model.sigma, seed,
        snapshot_steps=snapshot_steps,
        stream_ids=stream_ids,
        kick=lambda X, U: _drift_at_particles(domain, Ensemble(X, U), model, cfg),
    )
