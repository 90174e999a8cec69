"""Residual-check tests: trace flux ratios, hit-log algebra, shell
statistics, L2 contraction accounting, envelope violations, and the
particle-vs-grid histogram distance, each against the loop it replaced
(`reference_checks`) where it has one."""

import json
import tracemalloc

import numpy as np
import pytest

import reference_checks as ref
from speckin.cli import SANDWICH_ROUNDOFF
from speckin.config import (
    build_envelopes,
    build_grid,
    build_model,
    build_weight,
    config_from_dict,
    initial_density,
)
from speckin.diagnostics import (
    DiagnosticsReport,
    SandwichCheck,
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
from speckin.vfp import (
    PhaseGrid,
    SpecularResult,
    envelope_excursions,
    picard_nonlinear,
    solve_specular_linear,
)


def small_grid(n_x=8, n_u=24, v_max=3.0, dt=1e-3, horizon=0.01):
    return PhaseGrid(length=1.0, n_x=n_x, v_max=v_max, n_u=n_u, dt=dt,
                     horizon=horizon)


def no_permeability(traces, g):
    """The residual of a trace stack, checked bit for bit against the
    wall-by-wall loop."""
    got = no_permeability_residual(traces, g)
    assert got == ref.no_permeability_residual(traces, g)
    return got


class TestNoPermeability:
    def test_even_trace_vanishes(self):
        g = small_grid()
        gamma = np.stack([heat_kernel(0.7, g.u)] * 2)
        assert no_permeability(gamma, g) <= 1e-12

    def test_one_sided_trace_saturates(self):
        g = small_grid()
        gamma = np.zeros((2, g.n_u))
        gamma[:, (g.u >= 1.0) & (g.u <= 2.0)] = 1.0
        assert no_permeability(gamma, g) == 1.0

    def test_zero_trace_raises(self):
        g = small_grid()
        with pytest.raises(DegenerateTrace):
            no_permeability_residual(np.zeros((2, g.n_u)), g)

    def test_one_zero_wall_in_a_stack_raises(self):
        g = small_grid()
        stack = np.stack([np.stack([heat_kernel(0.7, g.u)] * 2)] * 5)
        stack[3, 1] = 0.0
        assert ref.no_permeability_residual(stack, g) is None
        with pytest.raises(DegenerateTrace, match=r"trace \(3,\), wall 1"):
            no_permeability_residual(stack, g)

    def test_traces_of_another_velocity_grid_are_refused(self):
        g = small_grid()
        with pytest.raises(ValueError, match="traces must end in axes"):
            no_permeability_residual(np.ones((4, 2, g.n_u + 2)), g)

    def test_solver_traces_below_budget(self):
        g = PhaseGrid(length=1.0, n_x=16, v_max=9.0, n_u=32, dt=0.2 / 29,
                      horizon=0.2)
        rho0 = np.broadcast_to(heat_kernel(1.0, g.u - 0.8), (16, 32)).copy()
        res = solve_specular_linear(g, rho0, 0.4, sigma=1.0)
        assert no_permeability(res.traces, g) <= 1e-10

    def test_scaling_invariance(self):
        g = small_grid()
        gamma = np.stack([heat_kernel(0.7, g.u + 0.3)] * 2)
        r1 = no_permeability(gamma, g)
        r2 = no_permeability(7.5 * gamma, g)
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
    """Worst |pre + post| of u.n, one hit at a time."""
    flux = []
    for location, pre, post in zip(hits.location, hits.pre_velocity, hits.post_velocity):
        n = domain.outward_normal(location)
        flux.append(float(np.dot(pre, n)) + float(np.dot(post, n)))
    return max(abs(v) for v in flux)


class TestFluxBalance:
    @pytest.mark.parametrize("name", sorted(CURVED))
    def test_curved_walls_match_row_loop(self, name):
        domain, hits = curved_hit_log(name)
        assert len(hits) > 50
        fb = flux_balance_particles(hits, domain)
        assert fb.antisymmetry_residual == flux_reference(hits, domain)
        assert fb.antisymmetry_residual <= 1e-12
        assert fb.count == len(hits)

    def test_reflection_algebra_exact(self):
        domain, hits = hit_log()
        assert len(hits) > 50
        fb = flux_balance_particles(hits, domain)
        assert fb.antisymmetry_residual == 0.0
        assert fb.count == len(hits)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            flux_balance_particles([], Interval(1.0))


class TestShellFlux:
    @pytest.mark.parametrize("name", sorted(CURVED))
    def test_curved_walls_match_row_loop(self, name):
        domain = CURVED[name]
        rng = np.random.default_rng(12)
        X, U = domain.sample_uniform(9000, rng), rng.normal(0, 1, (9000, 2))
        est = shell_flux_estimate(domain, X, U)
        values = [float(np.dot(U[i], domain.outward_normal(X[i])))
                  for i in np.flatnonzero(domain.signed_distance(X) >= -0.02)]
        assert est.count == len(values) > 100
        assert est.mean == np.mean(values)
        assert est.stderr == np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(est.mean) <= 4.0 * est.stderr

    def test_symmetric_cloud_within_band(self):
        domain = Interval(length=1.0)
        rng = np.random.default_rng(11)
        est = shell_flux_estimate(domain, rng.uniform(0, 1, 16000), rng.normal(0, 1, 16000))
        assert not est.skipped
        assert est.count > 100
        assert abs(est.mean) <= 4.0 * est.stderr

    def test_empty_shell_skipped(self):
        domain = Interval(length=1.0)
        # all at the midpoint
        est = shell_flux_estimate(domain, np.full(10, 0.5), np.ones(10), shell=0.01)
        assert est.skipped and est.count == 0

    def test_outward_cloud_detected(self):
        # everything near the right wall moving right: mean close to +1
        domain = Interval(length=1.0)
        est = shell_flux_estimate(domain, np.full(50, 0.995), np.ones(50))
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


def history_result(grid, fields):
    """A SpecularResult that holds only a field history, one slice per grid time."""
    return SpecularResult(grid=grid, times=grid.times, fields=fields, traces=None, mass=None,
                          grad_sq_weighted=None, bracket_sq_weighted=None, clamped=[],
                          weight=None)


def sandwich(fields, grid, lower, upper):
    """sandwich_check of a history, checked bit for bit against the
    slice-by-slice loop, as are the excursions it reads."""
    chk = sandwich_check(history_result(grid, fields), lower, upper)
    assert (chk.absolute, chk.relative, chk.envelope_peak) == ref.sandwich(
        fields, grid.times, grid, lower, upper)
    assert envelope_excursions(fields, grid, lower, upper) == ref.envelope_excursions(
        fields, grid.times, grid, lower, upper)
    return chk


class TestSandwich:
    def envelopes(self):
        return envelope_for_gaussian(1.0, 0.8, 1.0, 1.0, 1.0)

    def grid(self):
        return small_grid(v_max=6.0, dt=0.02, horizon=0.1)

    def history(self, params, grid, scale=1.0):
        return np.stack([
            scale * np.broadcast_to(maxwellian_eval(params, t, grid.u),
                                    (grid.n_x, grid.n_u))
            for t in grid.times.tolist()
        ])

    def test_lower_envelope_itself_passes(self):
        lower, upper = self.envelopes()
        g = self.grid()
        chk = sandwich(self.history(lower, g), g, lower, upper)
        assert chk.absolute == 0.0 and chk.relative == 0.0

    def test_inflated_upper_envelope_measures_ten_percent(self):
        _, upper = self.envelopes()
        g = self.grid()
        chk = sandwich(self.history(upper, g, scale=1.1), g, None, upper)
        assert chk.relative == pytest.approx(0.1, rel=1e-12)

    def test_tolerance_gate(self):
        # validate's gate is round-off of the envelope peak, so an excursion
        # of 1e-6 of the envelope fails it on either side
        lower, upper = self.envelopes()
        g = self.grid()

        def passes(chk):
            return chk.absolute <= SANDWICH_ROUNDOFF * chk.envelope_peak

        assert passes(sandwich(self.history(lower, g), g, lower, upper))
        assert passes(sandwich(self.history(upper, g), g, lower, upper))
        assert not passes(sandwich(self.history(upper, g, scale=1 + 1e-6), g, lower, upper))
        assert not passes(sandwich(self.history(lower, g, scale=1 - 1e-6), g, lower, upper))

    def test_excursions_on_either_side_match_the_loop(self):
        lower, upper = self.envelopes()
        g = self.grid()
        fields = self.history(lower, g, scale=1.5)
        fields[2, 3, 7] = 0.0
        fields[4, 5, 11] += 2.0
        below, above, peak = envelope_excursions(fields, g, lower, upper)
        assert below == maxwellian_eval(lower, g.times[2], g.u[7])
        assert above > 0.0 and peak > 0.0
        assert sandwich(fields, g, lower, upper).absolute == max(below, above)
        assert sandwich(fields, g, upper, lower).absolute > 0.0  # swapped
        # no envelope: nothing to exceed, and the field's own peak
        chk = sandwich(fields, g, None, None)
        assert chk.absolute == 0.0 and chk.envelope_peak == np.abs(fields).max()

    def test_history_of_another_length_is_refused(self):
        lower, upper = self.envelopes()
        g = self.grid()
        with pytest.raises(ValueError, match="one slice per grid time"):
            envelope_excursions(self.history(lower, g)[:-1], g, lower, upper)


CROSS_VALIDATION = {
    "domain": {"kind": "interval", "length": 1.0},
    "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
    "initial": {"s": 1.0, "u_mean": 0.8},
    "numerics": {"grid": {"n_x": 32, "n_u": 64}, "step": {"h": 0.005}},
    "run": {"T": 0.5, "N": 10_000},
}

# the envelope pairs each check reads: as built, none, and swapped, so
# that both excursions are positive
ENVELOPES = {
    "envelopes": lambda lower, upper: (lower, upper),
    "bare": lambda lower, upper: (None, None),
    "swapped": lambda lower, upper: (upper, lower),
}


@pytest.fixture(scope="module")
def cross_validation():
    """The acceptance cross-validation scenario on a 32 x 64 grid."""
    cfg = config_from_dict(CROSS_VALIDATION)
    lower, upper = build_envelopes(cfg)
    return cfg, build_grid(cfg, upper), lower, upper


class TestOneFormChecksOnTheSolve:
    """The one-form checks on a real solve, bit for bit against the loops
    they replaced."""

    @pytest.mark.parametrize("way", sorted(ENVELOPES))
    def test_grid_checks_match_the_loops(self, cross_validation, way):
        cfg, grid, lower, upper = cross_validation
        lower, upper = ENVELOPES[way](lower, upper)
        res = picard_nonlinear(grid, initial_density(cfg, grid), build_model(cfg),
                               weight=build_weight(cfg), lower=lower, upper=upper)
        sol = res.solution
        chk = sandwich(sol.fields, grid, lower, upper)
        below, above, peak = envelope_excursions(sol.fields, grid, lower, upper)
        assert chk.absolute == max(below, above)
        # the report reads the excursions of its own history
        assert res.report.lower_violation == [below]
        assert res.report.upper_violation == [above]
        if way == "envelopes":  # the scheme keeps the sandwich exactly
            assert below == above == 0.0 and peak > 0.0
        elif way == "swapped":
            assert below > 0.0 and above > 0.0
        else:
            assert below == above == peak == 0.0
        assert no_permeability(sol.traces, grid) <= 1e-15

    @pytest.mark.parametrize("way", sorted(ENVELOPES))
    def test_report_holds_the_sandwich_of_its_history(self, cross_validation, way):
        # no weight, as solve-vfp solves; the report holds what the loop
        # reads from the returned history, and validate's check built from
        # it is sandwich_check of the solution
        cfg, grid, lower, upper = cross_validation
        lower, upper = ENVELOPES[way](lower, upper)
        res = picard_nonlinear(grid, initial_density(cfg, grid), build_model(cfg),
                               lower=lower, upper=upper)
        sol, rep = res.solution, res.report
        below, above, peak = ref.envelope_excursions(sol.fields, grid.times, grid, lower, upper)
        assert (rep.lower_violation, rep.upper_violation, rep.envelope_peak) == (
            [below], [above], peak)
        assert "envelope_peak" not in rep.to_dict()
        from_report = SandwichCheck.from_excursions(
            rep.lower_violation[0], rep.upper_violation[0], rep.envelope_peak, sol.fields)
        assert from_report == sandwich_check(sol, lower, upper)
        assert (from_report.absolute, from_report.relative, from_report.envelope_peak) == (
            ref.sandwich(sol.fields, grid.times, grid, lower, upper))

    @pytest.mark.parametrize("block", [(1, 1), (4, 8), (8, 16)])
    def test_sampling_floor_matches_the_block_sums(self, cross_validation, block):
        cfg, grid, lower, upper = cross_validation
        rho = picard_nonlinear(grid, initial_density(cfg, grid), build_model(cfg),
                               weight=build_weight(cfg)).solution.fields[-1]
        rng = np.random.default_rng(8)
        X, U = rng.uniform(0.0, 1.0, 2000), rng.normal(-0.3, 1.5, 2000)
        distance, floor = mc_grid_distance(X, U, rho, grid, block=block)
        assert floor == ref.sampling_floor(rho, grid, block, X.size)
        assert 0.0 < floor < distance < 2.0


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
        d, _ = mc_grid_distance(X, U, hist, g)
        assert d == 0.0

    def test_disjoint_supports_distance_two(self):
        g = self.grid()
        rho = np.zeros((16, 16))
        rho[12:, :] = 1.0
        X = np.full(100, 0.1)
        U = np.zeros(100) + g.du / 2
        assert mc_grid_distance(X, U, rho, g)[0] == 2.0

    def test_multinomial_noise_scale(self):
        g = self.grid()
        rho = np.outer(1.0 + 0.3 * np.sin(2 * np.pi * g.x), heat_kernel(0.8, g.u))
        n = 100_000
        X, U = self.sample_cells(g, rho, n, seed=5)
        d, floor = mc_grid_distance(X, U, rho, g)
        assert floor == ref.sampling_floor(rho, g, (1, 1), n)
        p = (rho / rho.sum()).reshape(-1)
        expected = np.sqrt(2.0 / (np.pi * n)) * np.sqrt(p).sum()
        assert floor == pytest.approx(expected, rel=1e-12)
        assert d <= 3.0 * floor
        coarse, coarse_floor = mc_grid_distance(X, U, rho, g, block=(4, 4))
        assert coarse < d and coarse_floor < floor
        assert coarse_floor == ref.sampling_floor(rho, g, (4, 4), n)

    def test_position_outside_domain_rejected(self):
        g = self.grid()
        rho = np.ones((16, 16))
        with pytest.raises(BoxMismatch):
            mc_grid_distance(np.array([1.5]), np.array([0.0]), rho, g)

    def test_bad_block_rejected(self):
        g = self.grid()
        rho = np.ones((16, 16))
        with pytest.raises(BoxMismatch):
            mc_grid_distance(np.array([0.5]), np.array([0.0]), rho, g, block=(5, 1))

    def test_shape_mismatch_rejected(self):
        g = self.grid()
        with pytest.raises(BoxMismatch):
            mc_grid_distance(np.array([0.5]), np.array([0.0]), np.ones((8, 16)), g)


class TestReport:
    def test_json_round_trip_and_table(self):
        rep = DiagnosticsReport(scenario="demo")
        rep.add("no_permeability_residual", 1e-13, tolerance=1e-10)
        rep.add("sandwich_violation", 0.5, tolerance=1e-2)
        data = json.loads(json.dumps(rep.to_dict()))
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
