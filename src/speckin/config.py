"""Scenario configuration: JSON schema, validation, canonical form, builders.

A scenario is a single JSON object with sections domain / model / initial /
numerics / run / picard.  Parsing fills every omitted key with its default,
rejects keys it does not know, and checks each numeric constraint by name, so
a bad file fails with the offending dotted key and the rule it broke rather
than deep inside a solver.  The section dataclasses are the one table of
keys, types and defaults: parsing walks their fields, and _check holds every
rule.  The parsed ScenarioConfig is canonical: feeding serialize_config back
through parse gives an equal object, and the serialized bytes hash the
scenario for output manifests.

Builder helpers turn a config into the runtime objects (domain, model, step
parameters, phase grid, envelopes, initial states) so the command-line layer
stays free of numerics.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConstraintViolation, ParseError
from .geometry import Annulus, Ball, Interval
from .langevin import StepParams
from .maxwellian import EnvelopeSpec, envelope_for_gaussian, heat_kernel
from .mckean import DriftEstimatorConfig, KineticModel, drift_from_name
from .vfp import PhaseGrid, auto_vmax
from .weights import WeightParams

_SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class DomainSpec:
    kind: str = "interval"
    length: float = 1.0
    center: tuple = (0.0, 0.0)
    radius: float = 1.0
    inner_radius: float = 0.5

    @property
    def dimension(self) -> int:
        return 1 if self.kind == "interval" else len(self.center)


@dataclass(frozen=True)
class ModelSpec:
    sigma: float = 1.0
    drift: str = KineticModel.b


@dataclass(frozen=True)
class InitialSpec:
    """Gaussian-core initial density.

    rho0(x, u) = (1 + x_amplitude*cos(2*pi*x_mode*x/L)) * G(s, u - u_mean) / L
    on an interval of length L; on radial domains the x modulation must be
    zero and positions start uniform.
    """

    s: float = 1.0
    u_mean: float = 0.0
    x_amplitude: float = 0.0
    x_mode: int = 1


@dataclass(frozen=True)
class StepSpec:
    h: float = 0.005
    eps_hit: float = StepParams.eps_hit
    max_hits: int = StepParams.max_hits
    delta_near: float | None = StepParams.delta_near


@dataclass(frozen=True)
class GridSpec:
    n_x: int = 64
    n_u: int = 128
    v_max: float | None = None
    dt_factor: float = 0.9


@dataclass(frozen=True)
class WeightSpec:
    alpha: float = 3.0


@dataclass(frozen=True)
class NumericsSpec:
    step: StepSpec = field(default_factory=StepSpec)
    grid: GridSpec = field(default_factory=GridSpec)
    estimator: DriftEstimatorConfig = field(default_factory=DriftEstimatorConfig)
    envelope: EnvelopeSpec = field(default_factory=EnvelopeSpec)
    weight: WeightSpec = field(default_factory=WeightSpec)


@dataclass(frozen=True)
class RunSpec:
    T: float = 0.5
    N: int = 10_000
    seed: int = 0
    snapshot_times: tuple = ()
    out: str = "speckin_out"


@dataclass(frozen=True)
class PicardSpec:
    tol: float = 1e-6
    max_iter: int = 20


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "default"
    domain: DomainSpec = field(default_factory=DomainSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    initial: InitialSpec = field(default_factory=InitialSpec)
    numerics: NumericsSpec = field(default_factory=NumericsSpec)
    run: RunSpec = field(default_factory=RunSpec)
    picard: PicardSpec = field(default_factory=PicardSpec)


# --- parsing -----------------------------------------------------------------


def _float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ParseError(f"{path}: expected a finite number")
    return value


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer")
    return value


def _str(value, path):
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string")
    return value


def _numbers(value, path):
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ParseError(f"{path}: expected a list of numbers")
    return tuple(float(v) for v in value)


# value readers by field annotation
_READERS = {
    "float": _float,
    "float | None": lambda value, path: None if value is None else _float(value, path),
    "int": _int,
    "str": _str,
    "tuple": _numbers,
}


def _section(cls, raw, path):
    """Read one section by the fields of its dataclass, defaults filled in.

    Returns a namespace rather than cls, so that _check sees every value
    before a dataclass can reject one in its own terms.  Top-level sections
    are named without the 'config.' prefix.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in raw:
        if key not in names:
            raise ParseError(f"{path}: unknown key '{key}'")
    values = {}
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:  # a nested section
            sub = f.name if cls is ScenarioConfig else f"{path}.{f.name}"
            values[f.name] = _section(f.default_factory, raw.get(f.name, {}), sub)
        elif f.name in raw:
            values[f.name] = _READERS[f.type](raw[f.name], f"{path}.{f.name}")
        else:
            values[f.name] = f.default
    return SimpleNamespace(**values)


def _build(cls, values):
    """The dataclass tree of a checked _section namespace."""
    return cls(**{
        f.name: _build(f.default_factory, getattr(values, f.name))
        if f.default_factory is not dataclasses.MISSING else getattr(values, f.name)
        for f in dataclasses.fields(cls)
    })


def _require(condition, key, constraint):
    if not condition:
        raise ConstraintViolation(key, constraint)


def _check(cfg):
    """Every numeric and cross-key rule, by dotted key, in section order."""
    domain = cfg.domain
    _require(
        domain.kind in ("interval", "ball", "annulus"),
        "domain.kind",
        "must be one of interval, ball, annulus",
    )
    if domain.kind != "interval":
        _require(len(domain.center) >= 2, "domain.center", "radial domains need dimension >= 2")
    _require(domain.length > 0, "domain.length", "must be positive")
    _require(domain.radius > 0, "domain.radius", "must be positive")
    if domain.kind == "annulus":
        _require(
            0 < domain.inner_radius < domain.radius,
            "domain.inner_radius",
            "must lie strictly between 0 and radius",
        )

    _require(cfg.model.sigma > 0, "model.sigma", "must be positive")
    try:
        drift_from_name(cfg.model.drift)
    except ValueError as exc:
        raise ConstraintViolation("model.drift", str(exc)) from exc

    init = cfg.initial
    _require(init.s > 0, "initial.s", "velocity variance must be positive")
    _require(
        abs(init.x_amplitude) < 1,
        "initial.x_amplitude",
        "|x_amplitude| < 1 keeps the initial density positive",
    )
    _require(init.x_mode >= 1, "initial.x_mode", "must be >= 1")

    step = cfg.numerics.step
    _require(step.h > 0, "numerics.step.h", "must be positive")
    _require(step.eps_hit > 0, "numerics.step.eps_hit", "must be positive")
    _require(step.max_hits >= 1, "numerics.step.max_hits", "must be >= 1")
    if step.delta_near is not None:
        _require(step.delta_near > 0, "numerics.step.delta_near", "must be positive when set")

    grid = cfg.numerics.grid
    _require(grid.n_x >= 8, "numerics.grid.n_x", "must be >= 8")
    _require(
        grid.n_u >= 8 and grid.n_u % 2 == 0,
        "numerics.grid.n_u",
        "must be even and >= 8",
    )
    if grid.v_max is not None:
        _require(grid.v_max > 0, "numerics.grid.v_max", "must be positive when set")
    _require(0 < grid.dt_factor <= 1, "numerics.grid.dt_factor", "must lie in (0, 1]")

    est = cfg.numerics.estimator
    if est.bandwidth is not None:
        _require(est.bandwidth > 0, "numerics.estimator.bandwidth", "must be positive when set")
    _require(
        est.kernel in ("gaussian", "epanechnikov"),
        "numerics.estimator.kernel",
        "must be 'gaussian' or 'epanechnikov'",
    )
    _require(est.min_mass >= 0, "numerics.estimator.min_mass", "must be nonnegative")
    _require(est.probes >= 0, "numerics.estimator.probes", "must be nonnegative")

    env = cfg.numerics.envelope
    _require(
        0.5 < env.mu_upper < 1,
        "numerics.envelope.mu_upper",
        "upper envelope exponent must lie in (1/2, 1)",
    )
    _require(
        env.mu_lower > 1,
        "numerics.envelope.mu_lower",
        "lower envelope exponent must exceed 1",
    )
    _require(env.spread > 1, "numerics.envelope.spread", "must exceed 1")
    _require(env.pad > 0, "numerics.envelope.pad", "must be positive")
    _require(env.rate_margin >= 0, "numerics.envelope.rate_margin", "must be nonnegative")

    if domain.kind == "interval":  # only the grid builds a weight, on intervals alone
        _require(
            cfg.numerics.weight.alpha > 2,
            "numerics.weight.alpha",
            "weight exponent must satisfy alpha > max(d, 2) = 2",
        )

    run = cfg.run
    _require(run.T > 0, "run.T", "must be positive")
    _require(run.N >= 1, "run.N", "must be >= 1")
    _require(0 <= run.seed < _SEED_LIMIT, "run.seed", "must lie in [0, 2**64)")
    for t in run.snapshot_times:
        _require(0 <= t <= run.T, "run.snapshot_times", "every time must lie in [0, T]")

    _require(cfg.picard.tol > 0, "picard.tol", "must be positive")
    _require(cfg.picard.max_iter >= 1, "picard.max_iter", "must be >= 1")

    if domain.kind != "interval":
        _require(
            init.x_amplitude == 0.0,
            "initial.x_amplitude",
            "position modulation requires an interval domain",
        )


def config_from_dict(raw) -> ScenarioConfig:
    """Validate a decoded JSON object and fill defaults.

    Structural problems (wrong types, unknown keys) raise ParseError; numeric
    rule breaks raise ConstraintViolation carrying the dotted key.
    """
    values = _section(ScenarioConfig, raw, "config")
    _check(values)
    return _build(ScenarioConfig, values)


def parse_config(source) -> ScenarioConfig:
    """Read a JSON scenario file and return the validated canonical config."""
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON bytes of a config; parsing them back gives cfg again."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


def default_config() -> ScenarioConfig:
    return config_from_dict({})


# --- builders ----------------------------------------------------------------


def build_domain(cfg: ScenarioConfig):
    spec = cfg.domain
    if spec.kind == "interval":
        return Interval(spec.length)
    if spec.kind == "ball":
        return Ball(center=spec.center, radius=spec.radius)
    return Annulus(center=spec.center, radius=spec.radius, inner_radius=spec.inner_radius)


def build_model(cfg: ScenarioConfig) -> KineticModel:
    return KineticModel(sigma=cfg.model.sigma, b=cfg.model.drift)


def build_step_params(cfg: ScenarioConfig) -> StepParams:
    return StepParams(**asdict(cfg.numerics.step))


def build_weight(cfg: ScenarioConfig) -> WeightParams:
    return WeightParams(alpha=cfg.numerics.weight.alpha, dimension=cfg.domain.dimension)


def build_envelopes(cfg: ScenarioConfig):
    """Sub/super Maxwellian pair sandwiching the configured initial density.

    The x modulation scales the local amplitude inside
    [(1 - |a|) / L, (1 + |a|) / L], so the upper envelope is fit to the peak
    amplitude and the lower one to the trough.
    """
    init = cfg.initial
    model = build_model(cfg)
    length = cfg.domain.length
    swing = abs(init.x_amplitude)
    spec = cfg.numerics.envelope
    _, upper = envelope_for_gaussian(
        init.s, init.u_mean, (1.0 + swing) / length, model.sigma, model.b_norm, spec
    )
    lower, _ = envelope_for_gaussian(
        init.s, init.u_mean, (1.0 - swing) / length, model.sigma, model.b_norm, spec
    )
    return lower, upper


def build_grid(cfg: ScenarioConfig, upper=None) -> PhaseGrid:
    """Phase grid for the configured scenario, honoring every CFL constraint.

    v_max defaults to the certified envelope support radius; dt is the
    largest uniform step below dt_factor times the binding limit among
    transport, diffusion positivity, and drift advection. Every grid solve
    holds at least one field history, so a grid whose history does not fit
    in physical memory is refused here, before anything is allocated.
    """
    if cfg.domain.kind != "interval":
        raise ConstraintViolation("domain.kind", "the grid solver needs an interval domain")
    grid_spec = cfg.numerics.grid
    model = build_model(cfg)
    horizon = cfg.run.T
    v_max = grid_spec.v_max
    if v_max is None:
        if upper is None:
            _, upper = build_envelopes(cfg)
        v_max = auto_vmax(upper, horizon)
    dx = cfg.domain.length / grid_spec.n_x
    du = 2.0 * v_max / grid_spec.n_u
    limit = min(dx / v_max, 2.0 * du * du / model.sigma**2)
    if model.b_norm > 0:
        limit = min(limit, du / model.b_norm)
    dt = horizon / math.ceil(horizon / (grid_spec.dt_factor * limit))
    grid = PhaseGrid(
        length=cfg.domain.length,
        n_x=grid_spec.n_x,
        v_max=v_max,
        n_u=grid_spec.n_u,
        dt=dt,
        horizon=horizon,
    )
    history = (grid.n_steps + 1) * grid.n_x * grid.n_u * 8
    memory = _physical_memory()
    if memory is not None and history > memory:
        raise ConstraintViolation(
            "numerics.grid",
            f"one field history of {grid.n_steps + 1} time slices takes "
            f"{history / 1e6:.1f} MB, more than the {memory / 1e6:.1f} MB of "
            "physical memory",
        )
    return grid


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def initial_density(cfg: ScenarioConfig, grid: PhaseGrid) -> np.ndarray:
    """Configured Gaussian-core density on the grid, normalized to unit mass."""
    init = cfg.initial
    profile = 1.0 + init.x_amplitude * np.cos(
        2.0 * math.pi * init.x_mode * grid.x / cfg.domain.length
    )
    bump = heat_kernel(init.s, grid.u - init.u_mean)
    rho = np.outer(profile, bump) / cfg.domain.length
    return rho / grid.cell_mass(rho)


def sample_initial(cfg: ScenarioConfig, n: int, seed: int):
    """Draw n initial particle states from the configured density.

    Deterministic in (cfg, n, seed) and independent of worker count; position
    modulation is realized by rejection against the flat envelope.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    init = cfg.initial
    amp = init.x_amplitude
    if amp == 0.0:
        X = build_domain(cfg).sample_uniform(n, rng)
    else:  # an interval: the configuration refuses modulation elsewhere
        length = cfg.domain.length
        kept = []
        need = n
        while need > 0:
            block = max(2 * need, 1024)
            x = length * rng.uniform(size=block)
            bar = rng.uniform(0.0, 1.0 + abs(amp), size=block)
            x = x[bar < 1.0 + amp * np.cos(2.0 * math.pi * init.x_mode * x / length)]
            kept.append(x[:need])
            need -= kept[-1].size
        X = np.concatenate(kept)
    U = math.sqrt(init.s) * rng.standard_normal(size=X.shape)
    U.reshape(n, -1)[:, 0] += init.u_mean
    return X, U
