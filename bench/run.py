"""Benchmark of the speckin command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload linear --seed 1 --seconds 36 --trace 0

Workloads (each one subcommand on a scenario file generated from --seed,
which sets run.seed; the program sees only that file):

- linear: `simulate-linear`, interval L = 1, sigma = 1, zero drift,
  N = 10 000, T = 0.5, h = 0.005.  Particle transport alone: the free
  flight and the near-wall bridge cascade, no drift estimate, no grid.
- cross-validate: `validate` on the acceptance cross-validation scenario
  (tanh(1.0) drift, u_mean 0.8, 64 x 128 grid, T = 0.5) at N = 10 000.
  The only workload where every layer runs.
- grid-fine: `solve-vfp` on the same scenario at 96 x 192.  The grid alone.

With --trace 0 the run measures for --seconds: at least two subcommand runs
at --threads 1, each in a fresh interpreter (child.py), more while the next
one fits, and on `linear` one run at --threads 2 after them.  It reports the
median run time, the median of the set-up probes and the median peak
resident memory of the runs.  With --trace 1 it makes one run at --threads 1
in this process, with spans around the calls into each module's public
functions (see tracing.py), then the replays, and reports per-layer numbers.
Set-up is timed in fresh interpreters (child.py) in both modes.

Every run checks the program's outputs: bundles byte-identical across runs of
the same workload and seed and across thread counts, particles confined and
reflected specularly (linear), Picard converged with its mass kept
(grid-fine), and on cross-validate every `validate` entry passing except the
known `energy_residual` failure, `mc_grid_L1` within its tolerance, and the
wall hit count within 4 Poisson standard errors of the grid's outgoing flux.
A run that raises, exits 1 or writes other bytes counts as failed.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines before it are the human-readable report:
machine facts, /proc/stat steal ticks per run, and the end-to-end numbers
that apply to one workload only (particle_steps_per_s and threads2_speedup
on linear, cell_updates_per_s on grid-fine, diag_failed on cross-validate).
Bundles and spans are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

# at most two busy threads: the program's own --threads 2, and no BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_PROBES = 3
HIT_Z_LIMIT = 4.0
KNOWN_DIAG_FAILURE = "energy_residual"  # grid-only gate, fails on every seed



def _cross_validation(name: str, n_x: int, n_u: int) -> dict:
    """The acceptance cross-validation scenario at N = 10 000 on an n_x x n_u grid."""
    return {
        "scenario": name,
        "domain": {"kind": "interval", "length": 1.0},
        "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
        "initial": {"s": 1.0, "u_mean": 0.8},
        "numerics": {"grid": {"n_x": n_x, "n_u": n_u}, "step": {"h": 0.005}},
        "run": {"T": 0.5, "N": 10_000},
        "picard": {"tol": 1e-6, "max_iter": 20},
    }


@dataclass(frozen=True)
class Workload:
    subcommand: str
    scenario: dict  # the config file, less run.seed
    threads2: bool = False  # end with one --threads 2 run (speed-up, byte check)

    def config(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.scenario)
        cfg["run"]["seed"] = seed
        return cfg


WORKLOADS = {
    "linear": Workload("simulate-linear", {
        "scenario": "bench-linear",
        "domain": {"kind": "interval", "length": 1.0},
        "model": {"sigma": 1.0, "drift": "zero"},
        "numerics": {"step": {"h": 0.005}},
        "run": {"T": 0.5, "N": 10_000},
    }, threads2=True),
    "cross-validate": Workload("validate", _cross_validation("cross-validation", 64, 128)),
    "grid-fine": Workload("solve-vfp", _cross_validation("cross-validation-fine", 96, 192)),
}


@dataclass
class Rep:
    """One `speckin` command line; timings are None when it did not report."""

    out: Path
    threads: int
    seconds: float | None
    cpu_seconds: float | None
    peak_mb: float | None
    code: int | None
    error: str | None
    digest: str | None
    steal_ticks: int | None


# --- machine facts ---------------------------------------------------------------


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_facts() -> dict:
    import numpy
    import scipy

    model = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="ascii", errors="replace").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# --- runs ------------------------------------------------------------------------------


def child(*args: str) -> dict:
    """Run bench/child.py in a fresh interpreter and return its JSON line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(SRC), *args],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def setup_probes(config_path: Path, subcommand: str) -> list[dict]:
    return [child("setup", str(config_path), subcommand) for _ in range(SETUP_PROBES)]


def bundle_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_once(subcommand: str, config_path: Path, out: Path, threads: int, cli=None) -> Rep:
    """One command line: in a fresh interpreter, or in this one through `cli`
    (the traced run, whose wrappers live in this process)."""
    argv = [subcommand, "--config", str(config_path), "--out", str(out),
            "--threads", str(threads)]
    steal0 = steal_ticks()
    if cli is None:
        try:
            r = child("run", *argv)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            r = {"seconds": None, "cpu_seconds": None, "peak_mb": None, "code": None,
                 "error": str(exc)}
    else:
        r = {"peak_mb": None, "error": None}
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                r["code"] = cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a failed benchmark
            r["code"], r["error"] = None, f"{type(exc).__name__}: {exc}"
        r["seconds"], r["cpu_seconds"] = perf_counter() - t0, process_time() - c0
    steal1 = steal_ticks()
    digest = bundle_digest(out) if out.is_dir() else None
    ticks = None if steal0 is None or steal1 is None else steal1 - steal0
    return Rep(out, threads, r["seconds"], r["cpu_seconds"], r["peak_mb"], r["code"],
               r["error"], digest, ticks)


def measure(workload: Workload, config_path: Path, work: Path, seconds: float) -> list[Rep]:
    """At least two runs at --threads 1, more while the next one fits in
    `seconds`, then the workload's --threads 2 run if it has one."""
    reps: list[Rep] = []
    extra = 1 if workload.threads2 else 0
    start = perf_counter()
    while True:
        out = work / f"rep{len(reps)}-t1"
        began = perf_counter()
        reps.append(run_once(workload.subcommand, config_path, out, 1))
        if len(reps) > 1:
            shutil.rmtree(out, ignore_errors=True)  # the first bundle is checked
        now = perf_counter()
        if len(reps) >= 2 and now - start + (1 + extra) * (now - began) > seconds:
            break
    if extra:
        out = work / f"rep{len(reps)}-t2"
        reps.append(run_once(workload.subcommand, config_path, out, 2))
        shutil.rmtree(out, ignore_errors=True)
    return reps


# --- output checks ---------------------------------------------------------------------


def failed_runs(reps: list[Rep], subcommand: str) -> list[str]:
    """Runs that raised, exited 1 (or otherwise unexpectedly) or wrote other bytes."""
    allowed = {0, 2} if subcommand == "validate" else {0}
    reference = reps[0].digest
    problems = []
    for i, rep in enumerate(reps):
        if rep.error is not None:
            problems.append(f"run {i}: {rep.error}")
        elif rep.code not in allowed:
            problems.append(f"run {i}: exit code {rep.code}")
        elif rep.digest is None or rep.digest != reference:
            problems.append(f"run {i} (--threads {rep.threads}): bundle bytes differ from run 0")
    return problems


def read_csv(path: Path) -> dict:
    """Columns of a bundle CSV as float arrays (ids parse as numbers too)."""
    import numpy as np

    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    data = data.reshape(len(lines) - 1, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def bundle_facts(path: Path) -> dict:
    rows = 0
    size = 0
    for p in path.iterdir():
        size += p.stat().st_size
        if p.suffix == ".csv":
            with open(p, "rb") as handle:
                rows += sum(1 for _ in handle) - 1
    return {"rows_written": rows, "bundle_bytes": size}


def check_linear(bundle: Path, cfg: dict) -> tuple[list[str], dict]:
    """Every sampled position inside [0, L]; every hit on a wall, u_post = -u_pre."""
    problems = []
    length = cfg["domain"]["length"]
    n = cfg["run"]["N"]
    paths = read_csv(bundle / "paths.csv")
    if paths["x"].size != 2 * n:
        problems.append(f"paths.csv has {paths['x'].size} rows, expected {2 * n}")
    if paths["x"].min() < 0.0 or paths["x"].max() > length:
        problems.append("a particle left the interval")
    hits = read_csv(bundle / "hits.csv")
    on_wall = (hits["x"] == 0.0) | (hits["x"] == length)
    if not on_wall.all() or not (hits["u_post"] == -hits["u_pre"]).all():
        problems.append("a hit is off the wall or not specular")
    return problems, {"hits": hits["x"].size}


def check_grid(bundle: Path, cfg: dict) -> tuple[list[str], dict]:
    """Picard converged, and the specular walls kept the mass to round-off."""
    picard = json.loads((bundle / "picard.json").read_text())
    problems = [] if picard["converged"] else ["picard.json: not converged"]
    grid = picard["grid"]
    field = read_csv(bundle / "field.csv")
    cell = cfg["domain"]["length"] / grid["n_x"] * 2.0 * grid["v_max"] / grid["n_u"]
    masses = [field["rho"][field["t"] == t].sum() * cell for t in sorted(set(field["t"]))]
    if max(masses) - min(masses) > 1e-9:
        problems.append(f"field.csv mass drifts from {masses[0]!r} to {masses[-1]!r}")
    cells = grid["n_x"] * grid["n_u"] * grid["n_steps"] * picard["iterates"]
    return problems, {"cell_updates": cells, "sweeps": picard["iterates"]}


def predicted_hits(config_path: Path, picard=None) -> float:
    """N * sum over walls of the outgoing flux integral of the Picard solution.

    Specular traces are even in u, so each wall's outgoing part is half of
    `trace_functionals(...)["speed_mass"]`.
    """
    import numpy as np
    from speckin import config as C
    from speckin.vfp import picard_nonlinear, trace_functionals

    cfg = C.parse_config(config_path)
    if picard is None:
        lower, upper = C.build_envelopes(cfg)
        grid = C.build_grid(cfg, upper)
        picard = picard_nonlinear(
            grid, C.initial_density(cfg, grid), C.build_model(cfg),
            tol=cfg.picard.tol, max_iter=cfg.picard.max_iter,
            weight=C.build_weight(cfg), lower=lower, upper=upper,
        )
    sol = picard.solution
    rate = [0.5 * trace_functionals(sol.trace(k), sol.grid)["speed_mass"].sum()
            for k in range(len(sol.times))]
    times = np.asarray(sol.times)
    integral = float(np.sum(0.5 * (np.asarray(rate[1:]) + np.asarray(rate[:-1])) * np.diff(times)))
    return cfg.run.N * integral


def check_validate(bundle: Path, config_path: Path, picard=None) -> tuple[list[str], dict]:
    report = json.loads((bundle / "diagnostics.json").read_text())
    entries = {e["name"]: e for e in report["entries"]}
    problems = [f"validate entry {name} failed ({e['value']:.4g} against {e['tolerance']})"
                for name, e in entries.items()
                if not e["passed"] and name != KNOWN_DIAG_FAILURE]
    l1 = entries["mc_grid_L1"]
    if not l1["value"] <= l1["tolerance"]:
        problems.append(f"mc_grid_L1 {l1['value']:.4g} above {l1['tolerance']:.4g}")
    hits = entries["hit_count_stats"]["value"]
    expected = predicted_hits(config_path, picard)
    z = (hits - expected) / math.sqrt(expected)
    if abs(z) > HIT_Z_LIMIT:
        problems.append(f"wall hits {hits:.0f} against {expected:.1f} predicted: z = {z:.2f}")
    facts = {
        "diag_failed": sum(1 for e in entries.values() if not e["passed"]),
        "energy_residual": entries["energy_residual"]["value"],
        "energy_tolerance": entries["energy_residual"]["tolerance"],
        "mc_grid_L1": l1["value"],
        "hits": hits,
        "hit_ratio": hits / expected,
        "hit_z": z,
        "sweeps": entries["picard_converged"]["value"],
    }
    return problems, facts


def check_bundle(workload: Workload, bundle: Path, config_path: Path, cfg: dict,
                 picard=None) -> tuple[list[str], dict]:
    try:
        if workload.subcommand == "simulate-linear":
            problems, facts = check_linear(bundle, cfg)
        elif workload.subcommand == "solve-vfp":
            problems, facts = check_grid(bundle, cfg)
        else:
            problems, facts = check_validate(bundle, config_path, picard)
    except Exception as exc:  # a broken output fails the check, not the benchmark
        return [f"checking {bundle.name}: {type(exc).__name__}: {exc}"], {}
    facts.update(bundle_facts(bundle))
    return problems, facts


# --- the two modes -------------------------------------------------------------------


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def timed_run(workload, config_path, cfg, work, seconds, setup, report):
    reps = measure(workload, config_path, work, seconds)
    problems = failed_runs(reps, workload.subcommand)
    runs_failed = len(problems)
    checked, facts = check_bundle(workload, reps[0].out, config_path, cfg)
    problems += checked
    one = [r for r in reps if r.threads == 1 and r.seconds is not None]
    if not one:
        raise SystemExit("error: no run at --threads 1 reported its time: "
                         + "; ".join(problems))
    run_s = statistics.median(r.seconds for r in one)
    peak_mb = statistics.median(r.peak_mb for r in one)
    metrics = {
        "run_s": metric(run_s, "s"),
        "setup_s": metric(statistics.median(p["total_s"] for p in setup), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    for i, rep in enumerate(reps):
        report(f"run {i}: --threads {rep.threads}, {rep.seconds:.4f} s, cpu {rep.cpu_seconds:.4f} s, "
               f"peak {rep.peak_mb:.1f} MB, exit {rep.code}, steal_ticks {rep.steal_ticks}, "
               f"digest {str(rep.digest)[:16]}" if rep.seconds is not None else
               f"run {i}: --threads {rep.threads} failed: {rep.error}")
    report(f"run_s: {run_s:.4f} s (median of {len(one)} runs at --threads 1)")
    report(f"setup_s: {metrics['setup_s']['value']:.4f} s (median of {len(setup)} probes)")
    report(f"peak_rss_mb: {peak_mb:.1f} MB (median of the same runs)")
    if workload.threads2 and reps[-1].seconds:
        # a single --threads 2 run: reported, too few samples to bound
        report(f"threads2_speedup: {run_s / reps[-1].seconds:.4f} ratio "
               f"(run_s over one --threads 2 run of {reps[-1].seconds:.4f} s)")
    steps = math.ceil(cfg["run"]["T"] / cfg["numerics"]["step"]["h"] - 1e-12)
    if workload.subcommand == "simulate-linear":
        report(f"particle_steps_per_s: {cfg['run']['N'] * steps / run_s:.1f} 1/s "
               f"({cfg['run']['N']} particles x {steps} steps)")
    if "cell_updates" in facts:
        report(f"cell_updates_per_s: {facts['cell_updates'] / run_s:.1f} 1/s "
               f"({facts['cell_updates']} cell updates over {facts['sweeps']} sweeps)")
    if "diag_failed" in facts:
        report(f"diag_failed: {facts['diag_failed']} count "
               f"({KNOWN_DIAG_FAILURE} {facts['energy_residual']:.4f} against gate "
               f"{facts['energy_tolerance']:.4f}; known failure, not a failed run)")
        report(f"hit gate: {facts['hits']:.0f} hits, ratio {facts['hit_ratio']:.4f}, "
               f"z {facts['hit_z']:.2f} (limit {HIT_Z_LIMIT})")
    report(f"runs_failed: {runs_failed} of {len(reps)}")
    for p in problems:
        report(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": len(reps), "failed": runs_failed,
            "metrics": metrics}


def traced_run(cli, workload, config_path, cfg, work, setup, report):
    import tracing

    tracer = tracing.Tracer()
    capture = tracing.Capture()
    with tracing.traced(tracer, capture):
        rep = run_once(workload.subcommand, config_path, work / "traced", 1, cli)
    problems = failed_runs([rep], workload.subcommand)
    runs_failed = len(problems)
    picard = capture.picard["result"] if capture.picard else None
    checked, facts = check_bundle(workload, rep.out, config_path, cfg, picard)
    problems += checked
    particles = tracing.replay_particles(tracer, capture)
    solve = tracing.replay_linear_solve(tracer, capture)
    if particles["mismatches"]:
        problems.append(f"{particles['mismatches']} near-wall steps differ when replayed alone")
    if particles["hits"] != facts.get("hits", 0):
        problems.append(f"replay found {particles['hits']} hits, the run logged {facts.get('hits')}")
    if solve is not None and not solve["matches"]:
        problems.append("the frozen-drift linear solve differs from Picard's last sweep")

    def med(key):
        return statistics.median(p[key] for p in setup)

    confined_s = tracer.seconds("langevin.ensemble_confined_step")
    cascade_s = confined_s - particles["free_flight_s"]
    near = particles["near"]
    drift_s = tracer.seconds("mckean.conditional_drift")
    drift_calls = tracer.count("mckean.conditional_drift")
    picard_s = tracer.seconds("vfp.picard_nonlinear")
    sweeps = 0
    cells = 0
    solve_s = 0.0
    history_mb = 0.0
    clamps = 0
    if capture.picard is not None:
        grid = capture.picard["grid"]
        result = capture.picard["result"]
        sweeps = result.report.iterates
        cells = grid.n_x * grid.n_u * grid.n_steps * sweeps
        solve_s = solve["seconds"]
        history_mb = (grid.n_steps + 1) * grid.n_x * grid.n_u * 8 / 1e6
        clamps = len(result.solution.clamped)
    metrics = {
        "config.import_s": metric(med("import_s"), "s"),
        "config.parse_s": metric(med("parse_s"), "s"),
        "config.build_s": metric(med("build_s"), "s"),
        "config.sample_s": metric(med("sample_s"), "s"),
        "rng.normals_per_s": metric(
            particles["normals"] / particles["rng_s"] if particles["rng_s"] else 0.0, "1/s"),
        "rng.normals": metric(capture.normals, "count"),
        "langevin.confined_step_s": metric(confined_s, "s"),
        "langevin.free_flight_s": metric(particles["free_flight_s"], "s"),
        "langevin.cascade_s": metric(cascade_s, "s"),
        "langevin.near_steps": metric(near, "count"),
        "langevin.near_fraction": metric(
            near / particles["particle_steps"] if particles["particle_steps"] else 0.0, "ratio"),
        "langevin.bridge_draws": metric(particles["draws"], "count"),
        "langevin.hits": metric(facts.get("hits", 0), "count"),
        "langevin.us_per_near_step": metric(1e6 * cascade_s / near if near else 0.0, "us"),
        "mckean.drift_s": metric(drift_s, "s"),
        "mckean.drift_ms_per_step": metric(1e3 * drift_s / drift_calls if drift_calls else 0.0, "ms"),
        "mckean.kernel_evals": metric(capture.kernel_evals, "count"),
        "vfp.picard_s": metric(picard_s, "s"),
        "vfp.picard_sweeps": metric(sweeps, "count"),
        "vfp.linear_solve_s": metric(solve_s, "s"),
        "vfp.picard_overhead_s": metric(picard_s - sweeps * solve_s, "s"),
        "vfp.cell_updates_per_s": metric(cells / picard_s if picard_s else 0.0, "1/s"),
        "vfp.history_mb": metric(history_mb, "MB"),
        "vfp.clamps": metric(clamps, "count"),
        "diagnostics.semigroup_s": metric(tracer.seconds("diagnostics.semigroup_l2_check"), "s"),
        "diagnostics.sandwich_s": metric(tracer.seconds("diagnostics.sandwich_check"), "s"),
        "diagnostics.flux_s": metric(tracer.seconds("diagnostics.flux_balance_particles")
                                     + tracer.seconds("diagnostics.shell_flux_estimate"), "s"),
        "diagnostics.mc_grid_s": metric(tracer.seconds("diagnostics.mc_grid_distance"), "s"),
        "diagnostics.mc_grid_L1": metric(facts.get("mc_grid_L1", 0.0), "1"),
        "diagnostics.energy_residual": metric(facts.get("energy_residual", 0.0), "1"),
        "diagnostics.hit_ratio": metric(facts.get("hit_ratio", 0.0), "ratio"),
        "diagnostics.hit_z": metric(facts.get("hit_z", 0.0), "z"),
        "cli.rows_written": metric(facts.get("rows_written", 0), "count"),
        "cli.bundle_bytes": metric(facts.get("bundle_bytes", 0), "bytes"),
        "trace.run_s": metric(rep.seconds, "s"),
    }
    spans_path = work / "spans.json"
    tracing.write_spans(tracer, spans_path)
    report(f"traced run: {rep.seconds:.3f} s exit {rep.code} steal_ticks {rep.steal_ticks}; "
           f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    report("derived: langevin.cascade_s = confined_step_s - free_flight_s; "
           "vfp.picard_overhead_s = picard_s - picard_sweeps * linear_solve_s; "
           "computed: vfp.history_mb = (n_steps + 1) n_x n_u 8 bytes; "
           "tracing overhead = trace.run_s against run_s of an untraced run")
    for name in ("replay.free_flight", "replay.bridge_count", "replay.linear_solve"):
        report(f"{name}: {tracer.seconds(name):.3f} s (replay, not part of the run)")
    for name, m in metrics.items():
        report(f"{name}: {m['value']:.6g} {m['unit']}")
    report(f"runs_failed: {runs_failed} of 1")
    for p in problems:
        report(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": 1, "failed": runs_failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "speckin" / "__init__.py").is_file():
        print(f"error: no speckin sources under {SRC}", file=sys.stderr)
        return 1
    if not 0 <= args.seed < 1 << 64:
        print("error: --seed must lie in [0, 2**64)", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import speckin.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "speckin":
        print(f"error: imported speckin from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")

    def report(line):
        print(line, flush=True)

    report(f"workload {args.workload}: speckin {workload.subcommand}, seed {args.seed}, "
           f"config {config_path.relative_to(ROOT)}")
    report("machine: " + json.dumps(machine_facts(), sort_keys=True))
    setup = setup_probes(config_path, workload.subcommand)
    totals = ", ".join(f"{p['total_s']:.4f}" for p in setup)
    report(f"setup probes (s): {totals}")
    if args.trace:
        result = traced_run(cli, workload, config_path, cfg, work, setup, report)
    else:
        result = timed_run(workload, config_path, cfg, work, args.seconds, setup, report)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
