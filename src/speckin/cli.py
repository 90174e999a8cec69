"""Command line front end producing deterministic output bundles.

Subcommands: simulate-linear (independent confined paths under the catalog
drift), simulate-mckean (interacting ensemble whose drift is the conditional
expectation of the running empirical law), solve-vfp (nonlinear grid solve in
one causal march, see `vfp.picard_nonlinear`; it keeps no energy ledgers,
which its bundle does not hold), validate (grid and particle runs
cross-checked into a pass/fail diagnostics report; its solve keeps the
ledgers in the configured weight, and its report carries the envelope
sandwich).

Every run writes a bundle directory: a canonical config.json, data files in
CSV or JSON with a fixed column order and 17-significant-digit floats, and a
manifest recording the scenario hash, the seed, library versions, and the
SHA-256 of every file.  Bundle bytes are a pure function of (config bytes,
seed, subcommand); every subcommand runs on one thread, and the --threads
flag is validated and then ignored.  Each output time lands on the nearest
step of the run's time grid; a step is written once, labelled with its grid
time.  Exit codes: 0 success, 1 execution error, 2 a diagnostic pass
flag came back false, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import (
    ScenarioConfig,
    build_domain,
    build_envelopes,
    build_grid,
    build_model,
    build_step_params,
    build_weight,
    default_config,
    initial_density,
    parse_config,
    sample_initial,
    serialize_config,
)
from .diagnostics import (
    DiagnosticsReport,
    flux_balance_particles,
    mc_grid_distance,
    no_permeability_residual,
    semigroup_l2_check,
    shell_flux_estimate,
)
from .errors import SpeckinError
from .langevin import run_ensemble, snapshot_step, step_time
from .mckean import Ensemble, drift_field, run_mckean
from .vfp import picard_nonlinear, trace_functionals

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIAGNOSTIC = 2
EXIT_USAGE = 64

# fixed gates of the validate report; scenario-dependent ones are derived
NO_PERMEABILITY_TOL = 1e-10
ENERGY_RESIDUAL_SCALE = 0.3  # of dx + du + dt; the balance is first order
SANDWICH_ROUNDOFF = 1e-12  # of the envelope peak; the scheme keeps the sandwich exactly
SEMIGROUP_SCALE = 10.0  # of (dx + du + dt) times the envelope peak
FLUX_ANTISYMMETRY_TOL = 1e-12
SHELL_FLUX_SIGMAS = 4.0
WALL_FLUX_SIGMAS = 4.0  # logged hits against the grid's outgoing wall flux


@dataclass
class OutputBundle:
    """Where a run landed and whether every pass flag held."""

    path: Path
    manifest: dict
    passed: bool


# --- deterministic writers ---------------------------------------------------


CSV_CHUNK_ROWS = 4096  # rows formatted per write, so memory does not grow with N


def _write_csv(path: Path, header, blocks) -> Path:
    """Write the rows of 2-d float blocks under header, every cell as %.17g,
    which reads back to the same double and writes an integer below 1e17,
    such as a path id, without a fraction.

    Rows go out CSV_CHUNK_ROWS at a time, each chunk through one row
    template (see `_format_chunk`).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for block in blocks:
            block = np.asarray(block, dtype=float)
            for lo in range(0, block.shape[0], CSV_CHUNK_ROWS):
                handle.write(_format_chunk(block[lo : lo + CSV_CHUNK_ROWS]))
    return path


def _format_chunk(chunk: np.ndarray) -> str:
    """The rows of a 2-d float chunk as text, through one row template.

    A repeated column (a time, a node coordinate), one with at most half as
    many distinct values as rows, has each distinct value formatted once
    with %.17g, told apart by its bits so that 0.0 and -0.0 stay apart, and
    the template copies the text; any other column gives its floats to
    %.17g cell by cell.
    """
    width = chunk.shape[1]
    cells = [None] * chunk.size
    row = []
    for j in range(width):
        column = chunk[:, j]
        bits, index = np.unique(column.view(np.uint64), return_inverse=True)
        if 2 * len(bits) > len(chunk):
            row.append("%.17g")
            cells[j::width] = column.tolist()
        else:
            row.append("%s")
            text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
            cells[j::width] = list(map(text.__getitem__, index.tolist()))
    return ((",".join(row) + "\n") * len(chunk)) % tuple(cells)


def _write_json(path: Path, payload) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def _columns(dimension: int, *names):
    """The columns of vectors named names: x in d = 1, x0, x1, ... otherwise."""
    if dimension == 1:
        return list(names)
    return [f"{name}{i}" for name in names for i in range(dimension)]


def _output_steps(cfg: ScenarioConfig, T: float, h: float) -> list:
    """The distinct steps of a grid of step h on [0, T] nearest the output
    times: 0, T and every configured snapshot time."""
    times = set(cfg.run.snapshot_times) | {0.0, cfg.run.T}
    return sorted({snapshot_step(t, T, h) for t in times})


def _write_particles(out_dir: Path, snapshots: dict, hits, dimension: int) -> list:
    """paths.csv, a row per particle of each snapshot, and hits.csv, a row
    per contact of the HitLog hits (the header alone if none); returns both paths."""
    return [_write_csv(
        out_dir / "paths.csv",
        ["path_id", "t", *_columns(dimension, "x", "u")],
        (np.column_stack((np.arange(len(X)), np.full(len(X), t), X, U))
         for t, (X, U) in sorted(snapshots.items())),
    ), _write_csv(
        out_dir / "hits.csv",
        ["path_id", "tau", *_columns(dimension, "x", "u_pre", "u_post")],
        [np.column_stack((hits.path_id, hits.time, hits.location, hits.pre_velocity,
                          hits.post_velocity))],
    )]


def _slice_blocks(solution, history, labels, steps):
    """Per step, a block (t, label, u, value) with a row per node of the
    step's history slice, t being its grid time; labels name the slice's rows.

    Every block is one buffer, refilled in place for each step: its label
    and u columns are written once, and a reader must be done with a block
    before it asks for the next.
    """
    u = solution.grid.u
    block = np.empty((len(labels) * u.size, 4))
    nodes = block.reshape(len(labels), u.size, 4)
    nodes[:, :, 1] = np.asarray(labels)[:, None]
    nodes[:, :, 2] = u
    for k in steps:
        block[:, 0] = solution.times[k]
        nodes[:, :, 3] = history[k]
        yield block


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finalize_bundle(out_dir: Path, cfg: ScenarioConfig, subcommand: str, files: list,
                     passed: bool) -> OutputBundle:
    """Hash the files this run wrote and write the manifest last."""
    config_bytes = serialize_config(cfg).encode("utf-8")
    manifest = {
        "subcommand": subcommand,
        "scenario": cfg.scenario,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "seed": cfg.run.seed,
        "passed": bool(passed),
        "versions": {
            "speckin": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": {p.name: _sha256(p) for p in files},
    }
    _write_json(out_dir / "manifest.json", manifest)
    return OutputBundle(path=out_dir, manifest=manifest, passed=passed)


# --- scenario runners ----------------------------------------------------------


def _march_linear(cfg: ScenarioConfig, snapshot_steps=()):
    """Independent confined paths; the catalog drift kicks each velocity."""
    domain = build_domain(cfg)
    model = build_model(cfg)
    X, U = sample_initial(cfg, cfg.run.N, cfg.run.seed)
    drift = model.drift
    return run_ensemble(
        domain, X, U, cfg.run.T, build_step_params(cfg), model.sigma, cfg.run.seed,
        snapshot_steps=snapshot_steps,
        kick=(lambda X, U: drift(U)) if model.b_norm > 0 else None,
    )


def _march_mckean(cfg: ScenarioConfig, snapshot_steps=()):
    """The interacting ensemble; the mean-field drift kicks each velocity."""
    X, U = sample_initial(cfg, cfg.run.N, cfg.run.seed)
    return run_mckean(
        build_domain(cfg), X, U, build_model(cfg), cfg.numerics.estimator, cfg.run.T,
        build_step_params(cfg), cfg.run.seed, snapshot_steps=snapshot_steps,
    )


def _write_march(cfg: ScenarioConfig, out_dir: Path, march):
    """Run march on the output steps and write its paths.csv and hits.csv;
    returns the files and the kept states, keyed by their steps' grid times."""
    T, h = cfg.run.T, cfg.numerics.step.h
    _, _, snapshots, hits = march(cfg, _output_steps(cfg, T, h))
    snapshots = {step_time(k, T, h): state for k, state in snapshots.items()}
    return _write_particles(out_dir, snapshots, hits, cfg.domain.dimension), snapshots


def _run_simulate_linear(cfg: ScenarioConfig, out_dir: Path):
    return True, _write_march(cfg, out_dir, _march_linear)[0]


def _run_simulate_mckean(cfg: ScenarioConfig, out_dir: Path):
    files, snapshots = _write_march(cfg, out_dir, _march_mckean)
    domain, model = build_domain(cfg), build_model(cfg)
    blocks = []
    for t, (X, U) in sorted(snapshots.items()):
        field = drift_field(domain, Ensemble(X, U), model, cfg.numerics.estimator)
        if field is not None:
            blocks.append(np.column_stack((np.full(len(field[0]), t), *field)))
    if blocks:
        files.append(_write_csv(out_dir / "drift.csv", ["t", "x", "B"], blocks))
    return True, files


def _solve_picard(cfg: ScenarioConfig, weight=None):
    """Shared nonlinear solve; returns (solution, report).

    The solution keeps its energy ledgers in `weight` only when one is
    given: `validate` passes the configured weight, `solve-vfp`, whose
    bundle holds no energy figure, none. `picard_nonlinear` is called
    through this module's global name, so a caller that rebinds that name
    (a tracer, say) sees every solve.
    """
    lower, upper = build_envelopes(cfg)
    grid = build_grid(cfg, upper)
    result = picard_nonlinear(
        grid, initial_density(cfg, grid), build_model(cfg),
        tol=cfg.picard.tol, max_iter=cfg.picard.max_iter,
        weight=weight, lower=lower, upper=upper,
    )
    return result.solution, result.report


def _run_solve_vfp(cfg: ScenarioConfig, out_dir: Path):
    solution, report = _solve_picard(cfg)
    grid = solution.grid
    steps = _output_steps(cfg, grid.horizon, grid.dt)
    files = [
        _write_csv(out_dir / "field.csv", ["t", "x", "u", "rho"],
                   _slice_blocks(solution, solution.fields, grid.x, steps)),
        _write_csv(out_dir / "traces.csv", ["t", "wall", "u", "gamma"],
                   _slice_blocks(solution, solution.traces, (0, 1), steps)),
    ]
    payload = report.to_dict()
    payload["grid"] = {
        "n_x": grid.n_x,
        "n_u": grid.n_u,
        "v_max": grid.v_max,
        "dt": grid.dt,
        "n_steps": grid.n_steps,
    }
    files.append(_write_json(out_dir / "picard.json", payload))
    return bool(report.converged), files


def _block_edge(n: int) -> int:
    b = max(1, n // 8)
    while n % b:
        b -= 1
    return b


def _predicted_wall_hits(solution, n_paths: int) -> float:
    """N times the grid's outgoing wall flux, integrated over the horizon.

    Specular traces are even in u, so the outgoing flux through each wall is
    half its speed-weighted trace mass.
    """
    speed_mass = trace_functionals(solution.traces, solution.grid)["speed_mass"]
    return n_paths * float(np.trapezoid(0.5 * speed_mass.sum(axis=1), solution.times))


def _run_validate(cfg: ScenarioConfig, out_dir: Path):
    """Grid and particle runs cross-checked into one pass/fail report.

    The grid needs an interval (`build_grid` refuses any other domain), so
    the wall-flux gate, the particle hit count against the grid's outgoing
    flux, always runs.
    """
    solution, picard_report = _solve_picard(cfg, build_weight(cfg))
    grid = solution.grid
    model = build_model(cfg)
    report = DiagnosticsReport(scenario=cfg.scenario)

    report.add(
        "picard_converged",
        float(picard_report.iterates),
        passed=bool(picard_report.converged),
        detail=f"one causal march, tol {cfg.picard.tol:g}",
    )
    report.add(
        "no_permeability_residual",
        no_permeability_residual(solution.traces, grid),
        tolerance=NO_PERMEABILITY_TOL,
    )
    report.add(
        "energy_residual",
        solution.energy_residual(model.sigma),
        tolerance=max(1e-3, ENERGY_RESIDUAL_SCALE * (grid.dx + grid.du + grid.dt)),
        detail="weighted L2 balance over the full horizon",
    )
    # the solve's report holds the sandwich, so the history is not scanned
    # again; the configured upper envelope gives it a positive peak
    worst = max(picard_report.lower_violation, picard_report.upper_violation)
    peak = picard_report.envelope_peak
    report.add(
        "sandwich_violation",
        worst,
        tolerance=SANDWICH_ROUNDOFF * peak,
        detail=f"relative {worst / peak:.3e} of envelope peak",
    )

    psi = solution.fields[0]  # the solve's copy of the initial density
    psi = 0.5 * (psi + psi[:, ::-1])  # even in u: wall-compatible start
    margin, _, split = semigroup_l2_check(psi, grid, model.sigma)
    slack = SEMIGROUP_SCALE * (grid.dx + grid.du + grid.dt) * peak
    report.add(
        "semigroup_l2_margin",
        margin,
        passed=margin >= -slack,
        detail=f"split residual {split:.3e}",
    )

    domain = build_domain(cfg)
    X, U, _, hits = _march_mckean(cfg)
    block = (_block_edge(grid.n_x), _block_edge(grid.n_u))
    # the march ends at run.T, the time of the last slice
    distance, floor = mc_grid_distance(X, U, solution.fields[-1], grid, block=block)
    report.add(
        "mc_grid_L1",
        distance,
        tolerance=0.05 + 3.0 * floor,
        detail=f"N={cfg.run.N}, block={block}, sampling floor {floor:.3e}",
    )

    detail = "no wall hits"
    hit_passed = True
    if hits:
        antisymmetry = flux_balance_particles(hits, domain)
        mean, stderr, count = shell_flux_estimate(domain, X, U)
        detail = f"antisymmetry {antisymmetry:.3e}"
        hit_passed = antisymmetry <= FLUX_ANTISYMMETRY_TOL
        if stderr > 0:  # nan, so no z, with fewer than two states in the shell
            z = abs(mean) / stderr
            detail += f", near-wall flux z={z:.2f} ({count} states)"
            hit_passed = hit_passed and z <= SHELL_FLUX_SIGMAS
    # cross-layer check: the particle hit log against the grid solution
    expected = _predicted_wall_hits(solution, cfg.run.N)
    if expected > 0:
        z = (len(hits) - expected) / math.sqrt(expected)
        detail += f"; grid flux predicts {expected:.1f} hits, z={z:.2f}"
        hit_passed = hit_passed and abs(z) <= WALL_FLUX_SIGMAS
    report.add(
        "hit_count_stats",
        float(len(hits)),
        passed=hit_passed,
        detail=detail,
    )

    files = [_write_json(out_dir / "diagnostics.json", report.to_dict())]
    print(report.table())
    return report.passed, files


_RUNNERS = {
    "simulate-linear": _run_simulate_linear,
    "simulate-mckean": _run_simulate_mckean,
    "solve-vfp": _run_solve_vfp,
    "validate": _run_validate,
}


def run_scenario(cfg: ScenarioConfig, subcommand: str, out_dir=None) -> OutputBundle:
    """Run one subcommand and write its output bundle.

    Bundle bytes depend only on (canonical config, seed, subcommand); the
    manifest lists config.json and the files this run wrote.
    """
    if subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand: {subcommand!r}")
    out = Path(out_dir) if out_dir is not None else Path(cfg.run.out)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(serialize_config(cfg), encoding="utf-8")
    passed, files = _RUNNERS[subcommand](cfg, out)
    return _finalize_bundle(out, cfg, subcommand, [config, *files], passed)


# --- argument handling ---------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="speckin",
        description="Confined kinetic Langevin simulation and verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, help_text in (
        ("simulate-linear", "independent confined Langevin paths"),
        ("simulate-mckean", "interacting ensemble with empirical-law drift"),
        ("solve-vfp", "nonlinear kinetic Fokker-Planck solve on a grid"),
        ("validate", "cross-check grid and particle runs into a report"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="scenario JSON (defaults apply when omitted)")
        cmd.add_argument("--seed", metavar="U64", type=int, default=None,
                         help="override run.seed")
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="override run.out bundle directory")
        cmd.add_argument("--threads", metavar="N", type=int, default=1,
                         help="validated, then ignored: every run uses one thread")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.threads < 1:
        print("usage error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None and not 0 <= args.seed < (1 << 64):
        print("usage error: --seed must lie in [0, 2**64)", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
        # --out stays outside the config so bundle bytes never depend on
        # where the bundle lands
        bundle = run_scenario(cfg, args.command, out_dir=args.out)
    except SpeckinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"bundle: {bundle.path}")
    if not bundle.passed:
        print("diagnostics failed", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


if __name__ == "__main__":
    # `python -m speckin.cli` runs no subcommand; fail loudly rather than
    # exit 0 with no bundle
    print("usage error: the command line is `python -m speckin` (or `speckin`)",
          file=sys.stderr)
    sys.exit(EXIT_USAGE)
