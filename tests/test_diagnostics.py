"""Residual-check tests: trace flux ratios, hit-log algebra, shell
statistics, L2 contraction accounting, envelope violations, and the
particle-vs-grid histogram distance."""

import json
import tracemalloc

import numpy as np
import pytest

from speckin.config import build_grid, config_from_dict, initial_density
from speckin.diagnostics import (
    DiagnosticsReport,
    flux_balance_particles,
    mc_grid_distance,
    no_permeability_residual,
    sandwich_check,
    semigroup_l2_check,
    shell_flux_estimate,
)
from speckin.errors import BoxMismatch, DegenerateTrace
from speckin.geometry import Annulus, Ball, Interval
from speckin.langevin import StepParams, run_ensemble
from speckin.maxwellian import envelope_for_gaussian, heat_kernel, maxwellian_eval
from speckin.vfp import DensityField, PhaseGrid, TraceField, solve_specular_linear


def small_grid(n_x=8, n_u=24, v_max=3.0, dt=1e-3, horizon=0.01):
    return PhaseGrid(length=1.0, n_x=n_x, v_max=v_max, n_u=n_u, dt=dt,
                     horizon=horizon)


class TestNoPermeability:
    def test_even_trace_vanishes(self):
        g = small_grid()
        gamma = np.stack([heat_kernel(0.7, g.u)] * 2)
        assert no_permeability_residual(TraceField(gamma, 0.0), g) <= 1e-12

    def test_one_sided_trace_saturates(self):
        g = small_grid()
        gamma = np.zeros((2, g.n_u))
        gamma[:, (g.u >= 1.0) & (g.u <= 2.0)] = 1.0
        assert no_permeability_residual(TraceField(gamma, 0.0), g) == 1.0

    def test_zero_trace_raises(self):
        g = small_grid()
        with pytest.raises(DegenerateTrace):
            no_permeability_residual(TraceField(np.zeros((2, g.n_u)), 0.0), g)

    def test_solver_traces_below_budget(self):
        g = PhaseGrid(length=1.0, n_x=16, v_max=9.0, n_u=32, dt=0.2 / 29,
                      horizon=0.2)
        rho0 = np.broadcast_to(heat_kernel(1.0, g.u - 0.8), (16, 32)).copy()
        res = solve_specular_linear(g, rho0, 0.4, sigma=1.0)
        traces = [res.trace(k) for k in range(len(res.times))]
        assert no_permeability_residual(traces, g) <= 1e-10

    def test_scaling_invariance(self):
        g = small_grid()
        gamma = np.stack([heat_kernel(0.7, g.u + 0.3)] * 2)
        r1 = no_permeability_residual(TraceField(gamma, 0.0), g)
        r2 = no_permeability_residual(TraceField(7.5 * gamma, 0.0), g)
        assert r1 == pytest.approx(r2, rel=1e-14)


def hit_log(seed=3, n=400, steps=5):
    domain = Interval(length=0.25)
    rng = np.random.default_rng(seed)
    X = 0.25 * rng.uniform(0.2, 0.8, size=n)
    U = rng.normal(0, 1, size=n)
    params = StepParams(h=0.05)
    *_, hits = run_ensemble(domain, X, U, T=steps * 0.05, params=params, sigma=1.5, seed=seed)
    return domain, hits


CURVED = {
    "ball": Ball(center=(0.2, -0.1), radius=1.0),
    "annulus": Annulus(center=(0.0, 0.0), inner_radius=0.5, radius=1.0),
}


def curved_hit_log(name, n=300, steps=4):
    domain = CURVED[name]
    X = domain.sample_uniform(n, np.random.default_rng(5))
    U = 2.0 * np.random.default_rng(6).standard_normal(X.shape)
    *_, hits = run_ensemble(domain, X, U, T=steps * 0.05, params=StepParams(h=0.05), sigma=1.5,
                            seed=9)
    return domain, hits


def flux_reference(hits, domain):
    """(worst |pre + post|, signed sum) of u.n, one hit at a time."""
    flux = []
    for location, pre, post in zip(hits.location, hits.pre_velocity, hits.post_velocity):
        n = domain.outward_normal(location)
        flux.append(float(np.dot(pre, n)) + float(np.dot(post, n)))
    return max(abs(v) for v in flux), sum(flux)


class TestFluxBalance:
    @pytest.mark.parametrize("name", sorted(CURVED))
    def test_curved_walls_match_row_loop(self, name):
        domain, hits = curved_hit_log(name)
        assert len(hits) > 50
        fb = flux_balance_particles(hits, domain)
        worst, total = flux_reference(hits, domain)
        assert fb.antisymmetry_residual == worst
        assert fb.antisymmetry_residual <= 1e-12
        assert fb.signed_flux_sum == pytest.approx(total, abs=1e-12)
        assert fb.count == len(hits) and not fb.skipped

    def test_reflection_algebra_exact(self):
        domain, hits = hit_log()
        assert len(hits) > 50
        fb = flux_balance_particles(hits, domain)
        assert fb.antisymmetry_residual == 0.0
        assert fb.signed_flux_sum == 0.0
        assert fb.count == len(hits)
        assert not fb.skipped

    def test_window_filters_by_time(self):
        domain, hits = hit_log()
        mid = np.median(hits.time)
        fb = flux_balance_particles(hits, domain, window=(0.0, mid))
        assert 0 < fb.count < len(hits)

    def test_vacuous_window_skipped_not_failed(self):
        domain, hits = hit_log()
        fb = flux_balance_particles(hits, domain, window=(1e6, 2e6))
        assert fb.skipped and fb.count == 0

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            flux_balance_particles([], Interval(1.0))


class TestShellFlux:
    @pytest.mark.parametrize("name", sorted(CURVED))
    def test_curved_walls_match_row_loop(self, name):
        domain = CURVED[name]
        rng = np.random.default_rng(12)
        snaps = [(domain.sample_uniform(3000, rng), rng.normal(0, 1, (3000, 2)))
                 for _ in range(3)]
        est = shell_flux_estimate(domain, snaps)
        values = [float(np.dot(U[i], domain.outward_normal(X[i])))
                  for X, U in snaps for i in np.flatnonzero(domain.signed_distance(X) >= -0.02)]
        assert est.count == len(values) > 100
        assert est.mean == np.mean(values)
        assert est.stderr == np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(est.mean) <= 4.0 * est.stderr

    def test_symmetric_cloud_within_band(self):
        domain = Interval(length=1.0)
        rng = np.random.default_rng(11)
        snaps = [(rng.uniform(0, 1, 4000), rng.normal(0, 1, 4000))
                 for _ in range(4)]
        est = shell_flux_estimate(domain, snaps)
        assert not est.skipped
        assert est.count > 100
        assert abs(est.mean) <= 4.0 * est.stderr

    def test_empty_shell_skipped(self):
        domain = Interval(length=1.0)
        snaps = [(np.full(10, 0.5), np.ones(10))]  # all at the midpoint
        est = shell_flux_estimate(domain, snaps, shell=0.01)
        assert est.skipped and est.count == 0

    def test_outward_cloud_detected(self):
        # everything near the right wall moving right: mean close to +1
        domain = Interval(length=1.0)
        snaps = [(np.full(50, 0.995), np.ones(50))]
        est = shell_flux_estimate(domain, snaps)
        assert est.mean == pytest.approx(1.0)


class TestSemigroup:
    def grid(self, n=32):
        v_max = 7.5
        T = 0.3
        steps = int(np.ceil(T * v_max * n / 1.0))
        return PhaseGrid(length=1.0, n_x=n, v_max=v_max, n_u=2 * n,
                         dt=T / steps, horizon=T)

    def bump(self, g):
        hump = 0.5 * (heat_kernel(0.5, g.u - 0.6) + heat_kernel(0.5, g.u + 0.6))
        return np.outer(1.0 + 0.4 * np.cos(2 * np.pi * g.x), hump)

    def test_zero_function_zero_margin(self):
        g = self.grid()
        chk = semigroup_l2_check(np.zeros((g.n_x, g.n_u)), g, sigma=1.0)
        assert chk.margin == 0.0 and chk.grad_energy == 0.0

    def test_margin_matches_gradient_energy(self):
        g = self.grid()
        chk = semigroup_l2_check(self.bump(g), g, sigma=1.0)
        assert chk.margin >= 0.0
        assert chk.split_residual <= 2e-2

    def test_margin_shrinks_on_refinement(self):
        splits = [semigroup_l2_check(self.bump(self.grid(n)), self.grid(n),
                                     sigma=1.0).split_residual
                  for n in (16, 32)]
        assert splits[1] < 0.7 * splits[0]

    def test_holds_no_field_history(self):
        cfg = config_from_dict({
            "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
            "initial": {"s": 1.0, "u_mean": 0.8},
            "numerics": {"grid": {"n_x": 64, "n_u": 128}},
            "run": {"T": 0.5},
        })
        grid = build_grid(cfg)
        psi = initial_density(cfg, grid)
        history_bytes = (grid.n_steps + 1) * grid.n_x * grid.n_u * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            chk = semigroup_l2_check(psi, grid, sigma=1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert chk.margin > 0.0
        # the last slice and the per-step ledgers, never the field history
        assert peak <= 0.1 * history_bytes, peak / history_bytes

    def test_quadratic_scaling_exact_for_power_of_two(self):
        g = self.grid(16)
        psi = self.bump(g)
        a = semigroup_l2_check(psi, g, sigma=1.0)
        b = semigroup_l2_check(2.0 * psi, g, sigma=1.0)
        assert b.margin == 4.0 * a.margin
        assert b.grad_energy == 4.0 * a.grad_energy


class TestSandwich:
    def envelopes(self):
        return envelope_for_gaussian(1.0, 0.8, 1.0, 1.0, 1.0)

    def history(self, params, grid, times, scale=1.0):
        return np.stack([
            scale * np.broadcast_to(maxwellian_eval(params, float(t), grid.u),
                                    (grid.n_x, grid.n_u))
            for t in times
        ])

    def test_lower_envelope_itself_passes(self):
        lower, upper = self.envelopes()
        g = small_grid(v_max=6.0)
        times = np.array([0.0, 0.05, 0.1])
        fields = self.history(lower, g, times)
        chk = sandwich_check(fields, times, g, lower, upper)
        assert chk.absolute == 0.0 and chk.relative == 0.0

    def test_inflated_upper_envelope_measures_ten_percent(self):
        _, upper = self.envelopes()
        g = small_grid(v_max=6.0)
        times = np.array([0.0, 0.1])
        fields = self.history(upper, g, times, scale=1.1)
        chk = sandwich_check(fields, times, g, None, upper)
        assert chk.relative == pytest.approx(0.1, rel=1e-12)

    def test_tolerance_gate(self):
        lower, upper = self.envelopes()
        g = small_grid(v_max=6.0)
        fields = self.history(upper, g, [0.0], scale=1.1)
        bad = sandwich_check(fields, [0.0], g, lower, upper, tol=1e-6)
        assert not bad.passed
        ok = sandwich_check(self.history(lower, g, [0.0]), [0.0], g,
                            lower, upper, tol=1e-6)
        assert ok.passed


class TestMcGridDistance:
    def grid(self):
        return PhaseGrid(length=1.0, n_x=16, v_max=4.0, n_u=16, dt=1e-3,
                         horizon=0.01)

    def sample_cells(self, g, rho, n, seed):
        rng = np.random.default_rng(seed)
        p = (rho / rho.sum()).reshape(-1)
        picks = rng.choice(p.size, size=n, p=p)
        ix, iu = np.unravel_index(picks, rho.shape)
        X = (ix + 0.5) * g.dx
        U = -g.v_max + (iu + 0.5) * g.du
        return X, U

    def test_identical_histograms_distance_zero(self):
        g = self.grid()
        rho = np.outer(np.ones(16), heat_kernel(0.8, g.u))
        X, U = self.sample_cells(g, rho, 5000, seed=1)
        hist = np.zeros((16, 16))
        np.add.at(hist, (np.clip((X / g.dx).astype(int), 0, 15),
                         np.floor((U + g.v_max) / g.du).astype(int)), 1.0)
        d = mc_grid_distance((X, U), DensityField(hist, 0.0), g)
        assert d == 0.0

    def test_disjoint_supports_distance_two(self):
        g = self.grid()
        rho = np.zeros((16, 16))
        rho[12:, :] = 1.0
        X = np.full(100, 0.1)
        U = np.zeros(100) + g.du / 2
        assert mc_grid_distance((X, U), DensityField(rho, 0.0), g) == 2.0

    def test_multinomial_noise_scale(self):
        g = self.grid()
        rho = np.outer(1.0 + 0.3 * np.sin(2 * np.pi * g.x), heat_kernel(0.8, g.u))
        n = 100_000
        X, U = self.sample_cells(g, rho, n, seed=5)
        d = mc_grid_distance((X, U), DensityField(rho, 0.0), g)
        p = (rho / rho.sum()).reshape(-1)
        expected = np.sqrt(2.0 / (np.pi * n)) * np.sqrt(p).sum()
        assert d <= 3.0 * expected
        assert mc_grid_distance((X, U), DensityField(rho, 0.0), g,
                                block=(4, 4)) < d

    def test_position_outside_domain_rejected(self):
        g = self.grid()
        rho = np.ones((16, 16))
        with pytest.raises(BoxMismatch):
            mc_grid_distance((np.array([1.5]), np.array([0.0])),
                             DensityField(rho, 0.0), g)

    def test_time_mismatch_rejected(self):
        g = self.grid()
        rho = np.ones((16, 16))

        class Snap:
            positions = np.array([0.5])
            velocities = np.array([0.0])
            time = 1.0

        with pytest.raises(BoxMismatch):
            mc_grid_distance(Snap(), DensityField(rho, 0.0), g)

    def test_bad_block_rejected(self):
        g = self.grid()
        rho = np.ones((16, 16))
        with pytest.raises(BoxMismatch):
            mc_grid_distance((np.array([0.5]), np.array([0.0])),
                             DensityField(rho, 0.0), g, block=(5, 1))

    def test_shape_mismatch_rejected(self):
        g = self.grid()
        with pytest.raises(BoxMismatch):
            mc_grid_distance((np.array([0.5]), np.array([0.0])),
                             DensityField(np.ones((8, 16)), 0.0), g)


class TestReport:
    def test_json_round_trip_and_table(self):
        rep = DiagnosticsReport(scenario="demo")
        rep.add("no_permeability_residual", 1e-13, tolerance=1e-10)
        rep.add("sandwich_violation", 0.5, tolerance=1e-2)
        data = json.loads(rep.to_json())
        assert data["scenario"] == "demo"
        assert data["entries"][0]["passed"] is True
        assert data["entries"][1]["passed"] is False
        assert data["passed"] is False
        table = rep.table()
        assert "FAIL" in table and "pass" in table

    def test_all_green_report(self):
        rep = DiagnosticsReport(scenario="ok")
        rep.add("a", 0.0, tolerance=1.0)
        rep.add("b", 1.0)  # no tolerance: informational, passes
        assert rep.passed
