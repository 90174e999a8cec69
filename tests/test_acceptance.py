"""Acceptance suite: the headline guarantees, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to see the per-check verdict
lines; each test also enforces its own wall-clock budget. The cross-validation
scenario (a tanh-drift nonlinear solve plus a 100k-particle ensemble) is built
once and shared by the checks that compare its two halves.
"""

import math
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import special

from speckin.cli import main
from speckin.config import (
    build_domain,
    build_envelopes,
    build_grid,
    build_model,
    build_step_params,
    config_from_dict,
    initial_density,
    sample_initial,
    serialize_config,
)
from speckin.diagnostics import (
    flux_balance_particles,
    mc_grid_distance,
    no_permeability_residual,
    semigroup_l2_check,
    shell_flux_estimate,
)
from speckin.geometry import Ball, Interval, normal_velocity, reflect
from speckin.langevin import PhaseState, StepParams, ensemble_free_flight, simulate_path
from speckin.maxwellian import (
    GaussianCore,
    MaxwellianParams,
    heat_kernel,
    lB_apply,
    maxwellian_eval,
    super_sub_thresholds,
)
from speckin.mckean import run_mckean
from speckin.rng import RngStream, normals_at
from speckin.vfp import (
    PhaseGrid,
    drift_from_density,
    picard_nonlinear,
    solve_linear_inflow,
    solve_specular_linear,
    trace_functionals,
)
from speckin.weights import WeightParams, inverse_weight_mass, weight_eval


def _verdict(num, name, ok, detail, elapsed, budget):
    timed_ok = bool(ok) and elapsed < budget
    tag = "PASS" if timed_ok else "FAIL"
    print(f"[{tag}] {num:02d} {name}: {detail} [{elapsed:.2f}s / {budget:.0f}s]")
    assert timed_ok, f"{name}: {detail} (elapsed {elapsed:.2f}s, budget {budget}s)"


# Shared nonlinear scenario: grid solve feeds checks 08/10/11/13, particles 10/11/13.
_CROSS = {
    "scenario": "cross-validation",
    "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
    "initial": {"s": 1.0, "u_mean": 0.8},
    "numerics": {"grid": {"n_x": 64, "n_u": 128}, "step": {"h": 0.005}},
    "run": {"T": 0.5, "N": 100_000, "seed": 424242},
    "picard": {"tol": 1e-6, "max_iter": 20},
}

_STATE: dict = {}


def _picard_state():
    if "picard" not in _STATE:
        cfg = config_from_dict(_CROSS)
        lower, upper = build_envelopes(cfg)
        grid = build_grid(cfg, upper=upper)
        model = build_model(cfg)
        result = picard_nonlinear(
            grid,
            initial_density(cfg, grid),
            model,
            tol=cfg.picard.tol,
            max_iter=cfg.picard.max_iter,
            lower=lower,
            upper=upper,
        )
        _STATE.update(cfg=cfg, grid=grid, lower=lower, upper=upper, model=model,
                      picard=result)
    return _STATE


def _particle_state():
    st = _picard_state()
    if "mckean" not in st:
        cfg = st["cfg"]
        st["domain"] = build_domain(cfg)
        st["mckean"] = run_mckean(
            st["domain"],
            *sample_initial(cfg, cfg.run.N, cfg.run.seed),
            st["model"],
            cfg.numerics.estimator,
            cfg.run.T,
            build_step_params(cfg),
            cfg.run.seed,
        )
    return st


def test_01_reflection_algebra():
    t0 = perf_counter()
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.0, 2.0 * np.pi, 10_000)
    points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    U = rng.normal(size=(10_000, 2)) * rng.uniform(0.1, 3.0, (10_000, 1))
    N = ball.outward_normal(points)
    R = reflect(U, N)
    worst_norm = np.abs(np.linalg.norm(R, axis=1) - np.linalg.norm(U, axis=1)).max()
    worst_invol = np.abs(reflect(R, N) - U).max()
    worst_flip = np.abs(normal_velocity(R, N) + normal_velocity(U, N)).max()
    worst = max(worst_norm, worst_invol, worst_flip)
    _verdict(1, "reflection algebra", worst <= 1e-12,
             f"norm/involution/flip residuals {worst_norm:.1e}/{worst_invol:.1e}/{worst_flip:.1e}",
             perf_counter() - t0, 1.0)


def test_02_weight_inequalities():
    t0 = perf_counter()
    ok = True
    quad_rels = []
    for alpha, d in ((3, 1), (3, 2), (4, 3)):
        params = WeightParams(alpha, d)
        rng = np.random.default_rng(17)
        shape = (10_000,) if d == 1 else (10_000, d)
        u = rng.standard_normal(shape) * rng.lognormal(0.0, 1.0, shape)
        ev = weight_eval(params, u)
        grad_norm = np.abs(ev.gradient) if d == 1 else np.linalg.norm(ev.gradient, axis=-1)
        radial = u * ev.gradient if d == 1 else np.sum(u * ev.gradient, axis=-1)
        sqrt_w = np.sqrt(ev.value)
        ok = ok and bool(np.all(radial >= 0.0))
        ok = ok and bool(np.all(grad_norm <= alpha * ev.value * (1 + 1e-15)))
        ok = ok and bool(
            np.all(grad_norm / (2.0 * sqrt_w) <= (alpha / 2.0) * sqrt_w * (1 + 1e-15))
        )
        ok = ok and bool(np.all(ev.laplacian <= alpha * (alpha - 2.0 + d) * ev.value * (1 + 1e-15)))
        closed = np.pi ** (d / 2) * special.gamma((alpha - d) / 2) / special.gamma(alpha / 2)
        quad_rels.append(abs(inverse_weight_mass(params, rtol=1e-6) - closed) / closed)
    ok = ok and max(quad_rels) <= 1e-6
    _verdict(2, "weight inequality suite", ok,
             f"4 bounds hold at 1e4 draws x3 cases, quad rel err {max(quad_rels):.1e}",
             perf_counter() - t0, 5.0)


def test_03_free_flight_covariance():
    t0 = perf_counter()
    worst_exact = worst_euler = 0.0
    for sigma, h in ((1.0, 0.1), (0.5, 0.01)):
        target = np.array([
            [sigma**2 * h**3 / 3.0, sigma**2 * h**2 / 2.0],
            [sigma**2 * h**2 / 2.0, sigma**2 * h],
        ])
        n = 1_000_000
        Z = normals_at(2026, np.arange(n, dtype=np.uint64), 0, 2)
        X, U = ensemble_free_flight(np.zeros(n), np.zeros(n), h, sigma, Z)
        C = np.cov(np.stack([X, U]))
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / (n - 1))
        worst_exact = max(worst_exact, float((np.abs(C - target) / se).max()))

        # independent single-step check: left-point Euler on a fine subgrid
        ne, m = 200_000, 512
        rng = np.random.default_rng(7)
        dt = h / m
        Xe = np.zeros(ne)
        Ue = np.zeros(ne)
        root = sigma * math.sqrt(dt)
        for _ in range(m):
            Xe = Xe + Ue * dt
            Ue = Ue + root * rng.standard_normal(ne)
        Ce = np.cov(np.stack([Xe, Ue]))
        see = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / (ne - 1))
        bias = np.array([[1.5 / m, 1.0 / m], [1.0 / m, 0.0]]) * target
        worst_euler = max(worst_euler, float(((np.abs(Ce - target) - bias) / see).max()))
    ok = worst_exact <= 4.0 and worst_euler <= 4.0
    _verdict(3, "free-flight covariance", ok,
             f"max |dev|/SE {worst_exact:.2f} exact, {worst_euler:.2f} euler oracle",
             perf_counter() - t0, 30.0)


def test_04_deterministic_billiard():
    t0 = perf_counter()
    # resolve crossings below the comparison tolerance, not at it
    params = StepParams(h=0.03, eps_hit=1e-13)
    path = simulate_path(Interval(length=1.0), PhaseState(0.3, 1.0), 3.0, params,
                         0.0, RngStream(seed=0))
    expect = [(0.7, 1.0, 1.0, -1.0), (1.7, 0.0, -1.0, 1.0), (2.7, 1.0, 1.0, -1.0)]
    worst = float("inf")
    ev = path.events
    if len(ev) == len(expect):
        table = np.column_stack((ev.time, ev.location, ev.pre_velocity, ev.post_velocity))
        worst = float(np.abs(table - np.array(expect)).max())

    ball = Ball(center=(0.0, 0.0), radius=1.0)
    x0 = np.array([0.2, -0.1])
    u0 = np.array([0.8, 0.6])
    path_b = simulate_path(ball, PhaseState(x0, u0), 4.0,
                           StepParams(h=0.05, eps_hit=1e-13), 0.0, RngStream(seed=0))
    x, u, t_acc, oracle = x0.copy(), u0.copy(), 0.0, []
    while True:
        a, b, c = u @ u, x @ u, x @ x - 1.0
        t_hit = (-b + math.sqrt(b * b - a * c)) / a
        if t_acc + t_hit > 4.0:
            break
        t_acc += t_hit
        x = x + t_hit * u
        n = x / np.linalg.norm(x)
        u_post = u - 2.0 * (u @ n) * n
        oracle.append((t_acc, x.copy(), u.copy(), u_post.copy()))
        x, u = x.copy(), u_post
    worst_b = float("inf")
    ev = path_b.events
    if len(ev) == len(oracle):
        table = np.column_stack((ev.time, ev.location, ev.pre_velocity, ev.post_velocity))
        worst_b = float(np.abs(table - np.array([np.r_[t, xh, up, un]
                                                 for t, xh, up, un in oracle])).max())
    ok = worst <= 1e-10 and worst_b <= 1e-10
    _verdict(4, "deterministic billiard", ok,
             f"interval residual {worst:.1e} ({len(path.events)} hits), "
             f"ball residual {worst_b:.1e} ({len(path_b.events)} hits)",
             perf_counter() - t0, 1.0)


def test_05_envelope_rate_thresholds():
    t0 = perf_counter()
    rng = np.random.default_rng(23)
    # every vertex of the generator's quadratic-in-u bracket stays inside the
    # sampled box u in [-10, 10] for t in [0, 1], so wrong-side rates must show
    families = [
        # (mu, sigma, B, kappa, s); mu < 1 rows expect nonnegative action
        (0.75, 1.0, 1.0, 1.0, 0.5),
        (0.60, 0.8, 0.5, 1.3, 1.0),
        (0.90, 1.2, 0.4, 0.7, 0.8),
        (2.0, 1.0, 1.0, 1.0, 0.5),
        (1.5, 0.8, 0.6, 1.2, 1.0),
        (3.0, 1.1, 0.8, 0.9, 0.6),
    ]
    ok = True
    for mu, sigma, B, kappa, s in families:
        thr = super_sub_thresholds(mu, sigma, B)
        t = rng.uniform(0.0, 1.0, 1000)
        u = rng.uniform(-10.0, 10.0, 1000)
        side = 1.0 if mu < 1.0 else -1.0
        good = MaxwellianParams(a=thr + side * 0.1, mu=mu,
                                core=GaussianCore(kappa=kappa, s=s), sigma=sigma)
        vals = side * lB_apply(good, B, t, u)
        scale = np.abs(vals).max()
        ok = ok and bool(vals.min() >= -1e-12 * scale)
        bad = MaxwellianParams(a=thr - side * 0.2, mu=mu,
                               core=GaussianCore(kappa=kappa, s=s), sigma=sigma)
        ok = ok and bool((side * lB_apply(bad, B, t, u)).min() < 0.0)
    _verdict(5, "envelope rate thresholds", ok,
             "sign one-sided at margin +0.1, violated at -0.2, 6 families x 1e3 draws",
             perf_counter() - t0, 5.0)


def _inflow_scenario(n, T=0.2, v_max=4.0, sigma=0.5, amp_x=0.3, q_amp=0.4):
    g = PhaseGrid(length=1.0, n_x=n, v_max=v_max, n_u=n, dt=T / n, horizon=T)
    f0 = np.outer(1.0 + amp_x * np.sin(2 * np.pi * g.x), heat_kernel(0.25, g.u))

    def q(t, wall):
        shift = 0.5 if wall == 1 else -0.5
        return q_amp * (1.0 + t) * heat_kernel(0.3, g.u - shift)

    return g, f0, q, sigma


def test_06_inflow_energy_ledger():
    t0 = perf_counter()
    rels, defects, p1 = [], [], True
    for n in (32, 64, 128):
        g, f0, q, sigma = _inflow_scenario(n)
        res = solve_linear_inflow(g, f0, q, sigma)
        _, rel = res.energy_residual()
        rels.append(rel)
        defects.append(res.l1_balance_defect())
        lhs = res.mass[-1] + res.mass_out.sum()
        rhs = res.mass[0] + res.mass_in.sum()
        p1 = p1 and lhs <= rhs * (1 + 1e-10)
    ok = rels[0] > rels[1] > rels[2] and rels[2] <= 1e-2 and max(defects) <= 1e-10 and p1
    _verdict(6, "inflow energy ledger", ok,
             f"energy rel {rels[0]:.1e}>{rels[1]:.1e}>{rels[2]:.1e}, "
             f"mass defect {max(defects):.1e}, p=1 estimate holds",
             perf_counter() - t0, 120.0)


def test_07_specular_heat_profile():
    t0 = perf_counter()
    sigma, T, v = 1.0, 0.5, 8.5
    errs, mass_steps, nops = [], [], []
    even = True
    for n in (32, 64, 128):
        g = PhaseGrid(length=1.0, n_x=n, v_max=v, n_u=n, dt=T / (5 * n), horizon=T)
        rho0 = np.broadcast_to(heat_kernel(1.0, g.u), (n, n)).copy()
        res = solve_specular_linear(g, rho0, None, sigma)
        exact = heat_kernel(1.0 + sigma**2 * T, g.u)
        errs.append(float(np.abs(res.fields[-1] - exact[None, :]).max()))
        mass_steps.append(float(np.abs(np.diff(res.mass)).max() / res.mass[0]))
        even = even and all(
            np.array_equal(res.traces[k], res.traces[k][:, ::-1])
            for k in range(len(res.times))
        )
        nops.append(no_permeability_residual(res.traces, g))
    ok = (errs[0] > errs[1] > errs[2] and errs[2] <= 5e-3
          and max(mass_steps) <= 1e-10 and even and max(nops) <= 1e-10)
    _verdict(7, "specular heat profile", ok,
             f"max err {errs[0]:.1e}>{errs[1]:.1e}>{errs[2]:.1e}, "
             f"mass/step {max(mass_steps):.1e}, traces even, flux {max(nops):.1e}",
             perf_counter() - t0, 120.0)


def test_08_picard_convergence():
    # the one causal march is Picard's fixed point: each drift row is the
    # drift of its own slice (the oracle's sweeps are checked in test_vfp)
    t0 = perf_counter()
    st = _picard_state()
    res = st["picard"]
    rep = res.report
    grid, upper, model = st["grid"], st["upper"], st["model"]
    fields = res.solution.fields
    fixed = all(np.array_equal(res.drift_history[k], drift_from_density(fields[k], grid, model))
                for k in range(grid.n_steps))
    tol_rel = 10.0 * (grid.dx + grid.du + grid.dt)
    peak = max(
        float(maxwellian_eval(upper, t, grid.u).max())
        for t in np.linspace(0.0, grid.horizon, 9)
    )
    viol = max(rep.lower_violation, rep.upper_violation)
    ok = rep.converged and rep.iterates == 1 and fixed and viol <= tol_rel * peak
    _verdict(8, "picard convergence", ok,
             f"{rep.iterates} pass, drift rows of their own slices: {fixed}, "
             f"envelope violation {viol:.1e} (cap {tol_rel * peak:.1e})",
             perf_counter() - t0, 300.0)


def test_09_semigroup_contraction():
    t0 = perf_counter()
    sigma, T, v = 1.0, 0.3, 7.5
    margins, tols, splits = [], [], []
    for n in (32, 64, 128):
        steps = int(np.ceil(T * v * n / 1.0))
        g = PhaseGrid(length=1.0, n_x=n, v_max=v, n_u=2 * n, dt=T / steps, horizon=T)
        hump = 0.5 * (heat_kernel(0.5, g.u - 0.6) + heat_kernel(0.5, g.u + 0.6))
        psi = np.outer(1.0 + 0.4 * np.cos(2 * np.pi * g.x), hump)
        margin, _, split = semigroup_l2_check(psi, g, sigma=sigma)
        margins.append(margin)
        tols.append(10.0 * (g.dx + g.du + g.dt) * float(np.abs(psi).max()))
        splits.append(split)
    ok = (all(m >= -tol for m, tol in zip(margins, tols))
          and tols[0] > tols[1] > tols[2] and splits[2] <= 1e-2)
    _verdict(9, "semigroup contraction", ok,
             f"margins {margins[0]:.2e}/{margins[1]:.2e}/{margins[2]:.2e} "
             f"above -tol (tol {tols[2]:.1e} finest), split {splits[2]:.1e}",
             perf_counter() - t0, 60.0)


def test_10_particle_grid_distance():
    t0 = perf_counter()
    st = _particle_state()
    X, U, _, _ = st["mckean"]
    # the ensemble ends at run.T, the time of the solve's last slice
    dist, _ = mc_grid_distance(X, U, st["picard"].solution.fields[-1], st["grid"],
                               block=(8, 16))
    ok = dist <= 0.05
    _verdict(10, "particle-grid distance", ok,
             f"L1 distance {dist:.4f} at 8x16 blocks, 1e5 particles",
             perf_counter() - t0, 300.0)


def test_11_wall_flux_statistics():
    st = _particle_state()  # built by check 10; only post-processing is timed
    t0 = perf_counter()
    X, U, _, hits = st["mckean"]
    antisymmetry = flux_balance_particles(hits, st["domain"])
    mean, stderr, count = shell_flux_estimate(st["domain"], X, U)
    z = abs(mean) / stderr if count > 1 else float("inf")
    ok = antisymmetry == 0.0 and z <= 4.0
    _verdict(11, "wall flux statistics", ok,
             f"antisymmetry {antisymmetry:.1e} over {len(hits)} hits, "
             f"shell mean {mean:.4f} = {z:.2f} SE ({count} in shell)",
             perf_counter() - t0, 10.0)


def _read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def _run_cli(cfg, subcommand: str, out: Path, threads: int = 1) -> Path:
    """The command line on cfg, from a config file beside the bundle."""
    path = out.with_suffix(".json")
    path.write_text(serialize_config(cfg), encoding="utf-8")
    argv = [subcommand, "--config", str(path), "--out", str(out), "--threads", str(threads)]
    assert main(argv) == 0
    return out


def test_12_bundle_reproducibility(tmp_path):
    small = config_from_dict({
        "scenario": "repro",
        "model": {"sigma": 0.8, "drift": "tanh(1.0)"},
        "initial": {"s": 0.9, "u_mean": 0.3, "x_amplitude": 0.2},
        "numerics": {"step": {"h": 0.005}},
        "run": {"T": 0.1, "N": 400, "seed": 31415},
    })
    t0 = perf_counter()
    base = _run_cli(small, "simulate-mckean", tmp_path / "base")
    t_base = perf_counter() - t0
    trees, t_runs = [], []
    for tag, threads in (("again", 1), ("two", 2), ("eight", 8)):
        t1 = perf_counter()
        _run_cli(small, "simulate-mckean", tmp_path / tag, threads)
        t_runs.append(perf_counter() - t1)
        trees.append(_read_tree(tmp_path / tag))
    ref = _read_tree(base)
    identical = all(tree == ref for tree in trees)

    coarse = config_from_dict({
        "scenario": "repro-grid",
        "initial": {"s": 0.9},
        "numerics": {"grid": {"n_x": 24, "n_u": 48}},
        "run": {"T": 0.1, "seed": 5},
    })
    _run_cli(coarse, "solve-vfp", tmp_path / "vfp-a")
    _run_cli(coarse, "solve-vfp", tmp_path / "vfp-b", threads=8)
    identical = identical and _read_tree(tmp_path / "vfp-a") == _read_tree(tmp_path / "vfp-b")

    budget = 3.0 * (3.0 * t_base + 1.0)
    ok = identical and all(t <= 3.0 * t_base + 1.0 for t in t_runs)
    _verdict(12, "bundle reproducibility", ok,
             f"byte-identical at threads 1/2/8 and on re-run, "
             f"re-run cost {max(t_runs):.2f}s vs base {t_base:.2f}s",
             sum(t_runs), budget)


def test_13_wall_hits_match_grid_flux():
    # the particle layer's hit log against the grid layer's wall traces:
    # specular traces are even in u, so the outgoing flux at each wall is
    # half its speed mass, and N times its time integral predicts the hits
    st = _particle_state()  # built by check 10; only post-processing is timed
    t0 = perf_counter()
    sol = st["picard"].solution
    rate = np.array([0.5 * trace_functionals(sol.trace(k), sol.grid)["speed_mass"].sum()
                     for k in range(len(sol.times))])
    times = np.asarray(sol.times)
    expected = st["cfg"].run.N * float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(times)))
    hits = len(st["mckean"][3])
    z = (hits - expected) / math.sqrt(expected)
    _verdict(13, "wall hits vs grid flux", abs(z) <= 4.0,
             f"{hits} hits against {expected:.1f} predicted, z = {z:.2f}",
             perf_counter() - t0, 10.0)
