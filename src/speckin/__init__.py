"""Confined kinetic Langevin simulation and Fokker-Planck verification toolkit.

The package simulates second-order Langevin particles with specular wall
reflection (independent paths and synchronously interacting ensembles whose
drift is a conditional expectation of the running empirical law), solves the
matching kinetic Fokker-Planck equation on a phase-space grid with specular
or inflow boundary data, iterates the nonlinear problem to its fixed point,
and cross-checks the two descriptions against each other and against the
structural identities the dynamics must satisfy: reflection algebra, weight
inequalities, Maxwellian sub/super solutions, energy balances, wall
no-permeability, and sandwich bounds.
"""

try:
    from importlib.metadata import PackageNotFoundError, version

    __version__ = version("speckin")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "0.0.0+local"

from .cli import OutputBundle, main, run_scenario
from .config import (
    ScenarioConfig,
    config_from_dict,
    default_config,
    parse_config,
    serialize_config,
)
from .diagnostics import (
    DiagnosticsReport,
    FluxBalance,
    ReportEntry,
    SandwichCheck,
    SemigroupCheck,
    ShellFlux,
    flux_balance_particles,
    mc_grid_distance,
    no_permeability_residual,
    sandwich_check,
    semigroup_l2_check,
    shell_flux_estimate,
)
from .errors import (
    AmbiguousProjection,
    BoxMismatch,
    CFLViolated,
    ConstraintViolation,
    DegenerateTrace,
    InvalidExponent,
    InvalidInitial,
    InvalidStart,
    NegativeDensity,
    NotConverged,
    NotUnitNormal,
    ParseError,
    QuadratureNonConvergent,
    SpeckinError,
    WatchdogExceeded,
)
from .geometry import Annulus, Ball, Domain, Interval, reflect
from .langevin import (
    HitEvent,
    PhaseState,
    StepParams,
    confined_step,
    free_step,
    run_ensemble,
    semigroup_estimate,
    simulate_path,
)
from .maxwellian import (
    GaussianCore,
    MaxwellianParams,
    envelope_for_gaussian,
    heat_kernel,
    lB_apply,
    maxwellian_eval,
    maxwellian_mass_bounds,
    super_sub_thresholds,
)
from .mckean import (
    DriftEstimatorConfig,
    Ensemble,
    KineticModel,
    McKeanRun,
    conditional_drift,
    run_mckean,
)
from .vfp import (
    DensityField,
    PhaseGrid,
    PicardReport,
    PicardResult,
    SpecularResult,
    TraceField,
    auto_vmax,
    drift_from_density,
    picard_nonlinear,
    solve_linear_inflow,
    solve_specular_linear,
    trace_extract,
    trace_functionals,
    weighted_norms,
)
from .weights import WeightParams, default_weight, weight_eval

__all__ = [
    "AmbiguousProjection",
    "Annulus",
    "Ball",
    "BoxMismatch",
    "CFLViolated",
    "ConstraintViolation",
    "DegenerateTrace",
    "DensityField",
    "DiagnosticsReport",
    "Domain",
    "DriftEstimatorConfig",
    "Ensemble",
    "FluxBalance",
    "GaussianCore",
    "HitEvent",
    "Interval",
    "InvalidExponent",
    "InvalidInitial",
    "InvalidStart",
    "KineticModel",
    "MaxwellianParams",
    "McKeanRun",
    "NegativeDensity",
    "NotConverged",
    "NotUnitNormal",
    "OutputBundle",
    "ParseError",
    "PhaseGrid",
    "PhaseState",
    "PicardReport",
    "PicardResult",
    "QuadratureNonConvergent",
    "ReportEntry",
    "SandwichCheck",
    "ScenarioConfig",
    "SemigroupCheck",
    "ShellFlux",
    "SpeckinError",
    "SpecularResult",
    "StepParams",
    "TraceField",
    "WatchdogExceeded",
    "WeightParams",
    "auto_vmax",
    "conditional_drift",
    "config_from_dict",
    "confined_step",
    "default_config",
    "default_weight",
    "drift_from_density",
    "envelope_for_gaussian",
    "flux_balance_particles",
    "free_step",
    "heat_kernel",
    "lB_apply",
    "main",
    "maxwellian_eval",
    "maxwellian_mass_bounds",
    "mc_grid_distance",
    "no_permeability_residual",
    "parse_config",
    "picard_nonlinear",
    "reflect",
    "run_ensemble",
    "run_mckean",
    "run_scenario",
    "sandwich_check",
    "semigroup_estimate",
    "semigroup_l2_check",
    "serialize_config",
    "shell_flux_estimate",
    "simulate_path",
    "solve_linear_inflow",
    "solve_specular_linear",
    "super_sub_thresholds",
    "trace_extract",
    "trace_functionals",
    "weight_eval",
    "weighted_norms",
]
