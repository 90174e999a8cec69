"""Grid solver checks: exact conservation laws, analytic solutions, energy
ledgers, drift quadrature, and the nonlinear fixed-point iteration."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_banded

from speckin.config import (
    build_envelopes,
    build_grid,
    build_model,
    build_weight,
    config_from_dict,
    initial_density,
)
from speckin import vfp
from speckin.errors import CFLViolated, NegativeDensity
from speckin.langevin import step_length, step_time
from speckin.maxwellian import (
    GaussianCore,
    MaxwellianParams,
    envelope_for_gaussian,
    heat_kernel,
    maxwellian_eval,
)
from speckin.mckean import KineticModel
import reference_checks as ref
from speckin.vfp import (
    PhaseGrid,
    _advect_u,
    _diffuse,
    _diffusion_matrix,
    _specular_trace,
    _transport_inflow,
    _transport_shifts,
    _transport_specular,
    _transport_weights,
    auto_vmax,
    drift_from_density,
    envelope_excursions,
    picard_nonlinear,
    solve_linear_inflow,
    solve_specular_linear,
    trace_functionals,
)
from speckin.weights import WeightParams, weight_eval


def cross_validation(n_x, n_u):
    """The acceptance cross-validation scenario on an n_x x n_u grid."""
    return {
        "domain": {"kind": "interval", "length": 1.0},
        "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
        "initial": {"s": 1.0, "u_mean": 0.8},
        "numerics": {"grid": {"n_x": n_x, "n_u": n_u}, "step": {"h": 0.005}},
        "run": {"T": 0.5, "N": 10_000},
    }


def configured_grid(raw):
    cfg = config_from_dict(raw)
    return build_grid(cfg, build_envelopes(cfg)[1])


def uniform_gaussian(grid, variance, shift=0.0):
    prof = heat_kernel(variance, grid.u - shift) / grid.length
    return np.broadcast_to(prof, (grid.n_x, grid.n_u)).copy()


def unfold(values):
    """Reference layout: one periodic circle per +-u column pair. Pair k
    runs out along u[half + k] > 0 from x = 0 and back along its mirror
    column from x = L, so specular transport is a rotation of the circle."""
    half = values.shape[1] // 2
    pos = values[:, half:]  # (n_x, half), u > 0
    neg = values[:, half - 1 :: -1]  # (n_x, half), matching -u columns
    return np.concatenate([pos.T, neg.T[:, ::-1]], axis=1)  # (half, 2 n_x)


def fold(circles):
    """The inverse of `unfold`."""
    half, n_x = circles.shape[0], circles.shape[1] // 2
    values = np.empty((n_x, 2 * half))
    values[:, half:] = circles[:, :n_x].T
    values[:, half - 1 :: -1] = circles[:, n_x:][:, ::-1].T
    return values


def column_shifts(shifts):
    """Per-column shifts of circle-row shifts: each pair moves both its columns."""
    return np.concatenate([shifts[::-1], shifts])


def gather_rotate(circles, shifts):
    """Reference transport: the general periodic gather for any real shifts."""
    m = circles.shape[1]
    n = np.floor(shifts).astype(int)
    theta = shifts - n
    cols = np.arange(m)[None, :]
    i0 = (cols - n[:, None]) % m
    i1 = (i0 - 1) % m
    rows = np.arange(circles.shape[0])[:, None]
    return (1.0 - theta[:, None]) * circles[rows, i0] + theta[:, None] * circles[rows, i1]


def reference_specular_trace(values, grid):
    """Reference: wall traces wall by wall over the +-u row pairs."""
    half = grid.n_u // 2
    out = np.empty((2, grid.n_u))
    for wall, (c0, c1) in ((0, (0, 1)), (1, (grid.n_x - 1, grid.n_x - 2))):
        a = values[c0, half:]
        b = values[c0, half - 1 :: -1]
        a2 = values[c1, half:]
        b2 = values[c1, half - 1 :: -1]
        g = 0.5 * ((1.5 * a - 0.5 * a2) + (1.5 * b - 0.5 * b2))
        np.clip(g, 0.0, None, out=g)
        out[wall, half:] = g
        out[wall, half - 1 :: -1] = g
    return out


def reference_transport_inflow(values, grid, dt, q):
    """Reference: the inflow transport one velocity row at a time, by
    interpolation at the feet x + u dt; q holds the (2, n_u) wall data."""
    x = grid.x
    dx = grid.dx
    out = np.empty_like(values)
    injected = 0.0
    q0, qL = q  # wall x=0, used by u < 0 rows; wall x=L, used by u > 0 rows
    for j, uj in enumerate(grid.u):
        feet = x + uj * dt
        col = values[:, j]
        inside = np.interp(feet, x, col)
        if uj > 0:
            upper = x[-1]
            theta = np.clip((feet - upper) / (0.5 * dx), 0.0, 1.0)
            vals = np.where(feet <= upper, inside, (1 - theta) * col[-1] + theta * qL[j])
            vals = np.where(feet >= grid.length, qL[j], vals)
            injected += float((theta * qL[j]).sum()) * dx * grid.du
        else:
            lower = x[0]
            theta = np.clip((lower - feet) / (0.5 * dx), 0.0, 1.0)
            vals = np.where(feet >= lower, inside, (1 - theta) * col[0] + theta * q0[j])
            vals = np.where(feet <= 0.0, q0[j], vals)
            injected += float((theta * q0[j]).sum()) * dx * grid.du
        out[:, j] = vals
    return out, injected


@dataclass
class WeightedNorms:
    """Discrete weighted space-time norms of a field history."""

    sup_l2w_sq: float
    grad_l2w_sq: float

    @property
    def v1(self) -> float:
        return math.sqrt(self.sup_l2w_sq + self.grad_l2w_sq)


def weighted_norms(fields, grid, weight) -> WeightedNorms:
    """sup_t L2(w) square and time-integrated L2(w) square of u-gradients.

    `fields` is a history of grid.n_steps + 1 slices, (n_t, n_x, n_u), or one
    snapshot, (n_x, n_u). The gradient is centred. Slice k >= 1 of a history
    carries step_length(k - 1, T, dt), the step that ends at it, so the time
    weights sum to T; a snapshot carries dt.
    """
    arr = np.asarray(fields, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if len(arr) not in (1, grid.n_steps + 1):
        raise ValueError("a history needs one slice per grid time")
    w = weight_eval(weight, grid.u).value
    quad = grid.dx * grid.du
    sq = np.array([(np.square(f) * w).sum() for f in arr]) * quad
    gsq = np.array([(np.square(np.gradient(f, grid.du, axis=1)) * w).sum()
                    for f in arr]) * quad
    if len(arr) == 1:
        grad = gsq[0] * grid.dt
    else:
        steps = [step_length(k, grid.horizon, grid.dt) for k in range(grid.n_steps)]
        grad = float(np.dot(gsq[1:], steps))
    return WeightedNorms(sup_l2w_sq=float(sq.max()), grad_l2w_sq=grad)


def _v1_distance(a, b, grid, weight):
    """The V1 norm of the difference of two histories."""
    return weighted_norms(a - b, grid, weight).v1


# ------------------------------------------------------------- grid


class TestPhaseGrid:
    def test_velocity_grid_antisymmetric_exactly(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=3.0, n_u=16, dt=1e-3, horizon=0.1)
        assert np.array_equal(g.u[::-1], -g.u)
        assert not np.any(g.u == 0.0)

    def test_positions_interior(self):
        g = PhaseGrid(length=2.0, n_x=8, v_max=3.0, n_u=16, dt=1e-3, horizon=0.1)
        assert g.x[0] > 0 and g.x[-1] < 2.0
        assert np.allclose(np.diff(g.x), g.dx)

    def test_times_end_at_horizon(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=0.03, horizon=0.1)
        assert g.n_steps == 4
        assert g.times[-1] == pytest.approx(0.1, abs=0)

    @pytest.mark.parametrize("grid", [
        pytest.param(lambda: configured_grid({}), id="default"),
        pytest.param(lambda: configured_grid(cross_validation(64, 128)), id="cross-validate"),
        pytest.param(lambda: configured_grid(cross_validation(96, 192)), id="grid-fine"),
        pytest.param(lambda: PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=0.03,
                                       horizon=0.1), id="horizon-not-a-multiple"),
    ])
    def test_times_are_the_particle_clock(self, grid):
        g = grid()
        T = g.horizon
        assert g.times.tolist() == [step_time(k, T, g.dt) for k in range(g.n_steps + 1)]
        assert g.times[-1] == T

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            PhaseGrid(length=1.0, n_x=4, v_max=2.0, n_u=16, dt=1e-3, horizon=0.1)
        with pytest.raises(ValueError):
            PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=9, dt=1e-3, horizon=0.1)

    def test_transport_cfl_enforced(self):
        with pytest.raises(CFLViolated):
            PhaseGrid(length=1.0, n_x=8, v_max=10.0, n_u=16, dt=0.05, horizon=0.1)

    def test_diffusion_positivity_enforced(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=1.0, n_u=64, dt=0.05, horizon=0.1)
        with pytest.raises(CFLViolated):
            g.check_diffusion(sigma=2.0)

    def test_drift_cfl_enforced(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=1.0, n_u=16, dt=0.1, horizon=0.2)
        with pytest.raises(CFLViolated):
            g.check_drift(5.0)


def test_auto_vmax_certifies_tail():
    env = MaxwellianParams(a=0.5, mu=0.75,
                           core=GaussianCore(kappa=1.3, s=1.5), sigma=1.0)
    T = 0.5
    v = auto_vmax(env, T, rel=1e-10)
    ts = np.linspace(0, T, 33)
    peak = maxwellian_eval(env, ts, np.zeros_like(ts)).max()
    tail = maxwellian_eval(env, ts, np.full_like(ts, v)).max()
    assert tail <= 1e-10 * peak
    shy = maxwellian_eval(env, ts, np.full_like(ts, 0.9 * v)).max()
    assert shy > 1e-10 * peak  # the cutoff is tight, not padded


# -------------------------------------------------- specular solver


class TestSpecularLinear:
    def test_zero_density_stays_zero(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=5e-3, horizon=0.05)
        res = solve_specular_linear(g, np.zeros((8, 16)), None, sigma=1.0)
        assert np.all(res.fields == 0.0)
        assert np.all(res.traces == 0.0)
        assert np.all(res.mass == 0.0)

    def test_negative_initial_rejected(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=5e-3, horizon=0.05)
        bad = np.zeros((8, 16))
        bad[3, 4] = -1e-6
        with pytest.raises(NegativeDensity):
            solve_specular_linear(g, bad, None, sigma=1.0)

    def test_matches_heat_evolution_for_uniform_data(self):
        # uniform-in-x Gaussian: transport is exact, only diffusion acts
        L, sigma, s0, T = 1.0, 1.0, 1.0, 0.5
        errors = []
        for n in (32, 64):
            v_max = 8.5
            steps = int(np.ceil(T * v_max * n / L))
            g = PhaseGrid(length=L, n_x=n, v_max=v_max, n_u=n, dt=T / steps,
                          horizon=T)
            res = solve_specular_linear(g, uniform_gaussian(g, s0), None, sigma)
            exact = heat_kernel(sigma**2 * T + s0, g.u) / L
            errors.append(np.abs(res.fields[-1] - exact[None, :]).max())
            assert np.abs(np.diff(res.mass)).max() / res.mass[0] < 1e-10
            assert np.abs(res.traces[-1][0] - exact).max() < 4 * errors[-1] + 1e-12
            assert not res.clamped
        assert errors[1] < 0.5 * errors[0]
        assert errors[1] < 1e-3

    def _drifted_run(self, n_x=16, n_u=32):
        L, sigma, T = 1.0, 1.0, 0.2
        v_max = 9.0  # far enough out that the shifted-Gaussian tail is ~1e-12
        steps = int(np.ceil(T * v_max * n_x / L))
        g = PhaseGrid(length=L, n_x=n_x, v_max=v_max, n_u=n_u, dt=T / steps,
                      horizon=T)
        rho0 = uniform_gaussian(g, 1.0, shift=0.8)
        drift = 0.5 * np.tanh(g.x - 0.5)
        return g, solve_specular_linear(g, rho0, drift, sigma)

    def test_mass_conserved_with_drift(self):
        _, res = self._drifted_run()
        assert np.abs(np.diff(res.mass)).max() / res.mass[0] < 1e-10

    def test_traces_even_in_velocity_exactly(self):
        _, res = self._drifted_run()
        assert np.array_equal(res.traces, res.traces[:, :, ::-1])

    def test_density_stays_nonnegative(self):
        _, res = self._drifted_run()
        assert res.fields.min() >= 0.0

    def test_wall_flux_moment_vanishes(self):
        g, res = self._drifted_run()
        # even trace against the antisymmetric velocity grid
        moment = (res.traces[-1] * g.u).sum(axis=1) * g.du
        scale = (res.traces[-1] * np.abs(g.u)).sum(axis=1) * g.du
        assert np.all(np.abs(moment) <= 1e-12 * scale)

    def test_energy_split_converges_for_compatible_data(self):
        # initial data even in u satisfies the wall condition, so the
        # discrete balance defect is pure transport dissipation: first order
        L, sigma, T = 1.0, 1.0, 0.5
        v_max = 7.5
        splits = []
        for n in (32, 64):
            steps = int(np.ceil(T * v_max * n / L))
            g = PhaseGrid(length=L, n_x=n, v_max=v_max, n_u=2 * n, dt=T / steps,
                          horizon=T)
            hump = 0.5 * (heat_kernel(0.5, g.u - 0.6) + heat_kernel(0.5, g.u + 0.6))
            psi = np.outer(1.0 + 0.4 * np.cos(2 * np.pi * g.x / L), hump)
            res = solve_specular_linear(g, psi, None, sigma)
            quad = g.dx * g.du
            e0 = (res.fields[0] ** 2).sum() * quad
            eT = (res.fields[-1] ** 2).sum() * quad
            margin = e0 - eT
            grad = sigma**2 * res.grad_sq_weighted.sum()
            assert margin >= 0.0
            splits.append(abs(margin - grad) / e0)
        assert splits[1] < 0.6 * splits[0]
        assert splits[1] < 1.5e-2

    def test_scalar_and_array_drift_agree(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=4.0, n_u=16, dt=2e-3, horizon=0.02)
        rho0 = uniform_gaussian(g, 0.8)
        a = solve_specular_linear(g, rho0, 0.3, sigma=1.0)
        for B in (np.full(8, 0.3), np.full((g.n_steps, 8), 0.3),
                  lambda t, x: np.full_like(x, 0.3)):
            b = solve_specular_linear(g, rho0, B, sigma=1.0)
            assert np.array_equal(a.fields, b.fields)

    def test_drift_of_another_shape_is_refused(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=4.0, n_u=16, dt=2e-3, horizon=0.02)
        rho0 = uniform_gaussian(g, 0.8)
        for B in (np.zeros(7), np.zeros((g.n_steps + 1, 8)), np.zeros((g.n_steps, 1)),
                  lambda t, x: 0.3):
            with pytest.raises(ValueError, match="drift"):
                solve_specular_linear(g, rho0, B, sigma=1.0)

    def test_drift_table_beyond_the_cfl_limit_is_refused_before_any_step(self, monkeypatch):
        g = PhaseGrid(length=1.0, n_x=8, v_max=4.0, n_u=16, dt=2e-3, horizon=0.02)
        rho0 = uniform_gaussian(g, 0.8)
        limit = g.du / g.dt
        table = np.full((g.n_steps, g.n_x), 0.5 * limit)
        solve_specular_linear(g, rho0, table, sigma=1.0)
        table[6, 3] = -1.01 * limit
        moves = []
        monkeypatch.setattr(vfp, "_transport_specular", lambda *a, **k: moves.append(1))
        with pytest.raises(CFLViolated, match="drift upwind"):
            solve_specular_linear(g, rho0, table, sigma=1.0)
        assert not moves

    def test_callable_drift_is_read_at_each_step_start(self):
        # ten steps of 0.01: a running sum of dt reads 0.060000000000000005
        # at step 6, the clock 6 * 0.01 = 0.06
        g = PhaseGrid(length=1.0, n_x=8, v_max=4.0, n_u=16, dt=0.01, horizon=0.1)
        calls = []

        def B(t, x):
            calls.append(t)
            assert np.array_equal(x, g.x)
            return 0.3 * np.cos(2 * np.pi * x) * (1.0 - t)

        res = solve_specular_linear(g, uniform_gaussian(g, 0.8), B, sigma=1.0)
        assert calls == g.times[:-1].tolist()
        assert calls == [step_time(k, g.horizon, g.dt) for k in range(g.n_steps)]
        assert calls[6] == 0.06 and res.times[-1] == 0.1

    def test_short_last_step_marches_its_own_length(self):
        # 0.1 is no multiple of 0.03: three full steps, then one of ~0.01
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=0.03, horizon=0.1)
        t = 0.0
        for _ in range(3):
            t += 0.03
        head = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=0.03, horizon=t)
        tail = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=0.1 - t,
                         horizon=0.1 - t)
        assert (g.n_steps, head.n_steps, tail.n_steps) == (4, 3, 1)
        rho0 = np.outer(1.0 + 0.3 * np.cos(2 * np.pi * g.x), heat_kernel(0.8, g.u - 0.3))
        full = solve_specular_linear(g, rho0, 0.4, sigma=1.0)
        first = solve_specular_linear(head, rho0, 0.4, sigma=1.0)
        last = solve_specular_linear(tail, first.fields[-1], 0.4, sigma=1.0)
        assert np.array_equal(full.fields[:4], first.fields)
        assert np.array_equal(full.fields[-1], last.fields[-1])


class TestSpecularTransport:
    @pytest.mark.parametrize("n_x", [8, 9, 96])
    def test_rotation_matches_gather_bitwise(self, n_x):
        # the transport on the (n_x, n_u) layout is the rotation of the
        # unfolded circles, at shift 0, at the half-cell CFL limit and between
        rng = np.random.default_rng(n_x)
        half = 24
        f = rng.random((n_x, 2 * half)) * rng.lognormal(size=(1, 2 * half))
        shifts = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 0.5, half - 2)])
        want = fold(gather_rotate(unfold(f), shifts))
        weights = _transport_weights(column_shifts(shifts), n_x)
        assert np.array_equal(_transport_specular(f, weights), want)
        out = np.full_like(f, np.nan)
        assert _transport_specular(f, weights, out=out) is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("n_x", [8, 9])
    def test_grid_half_steps_match_gather_bitwise(self, n_x):
        # the largest half-step shift the transport CFL limit allows
        g = PhaseGrid(length=1.0, n_x=n_x, v_max=3.0, n_u=16, dt=1.0 / (3.0 * n_x),
                      horizon=0.1)
        f = np.random.default_rng(1).random((n_x, 16))
        half = g.n_u // 2
        shifts = g.u[half:] * (0.5 * g.dt / g.dx)
        assert shifts.max() <= 0.5
        assert np.array_equal(_transport_shifts(g, 0.5 * g.dt), column_shifts(shifts))
        want = fold(gather_rotate(unfold(f), shifts))
        weights = _transport_weights(_transport_shifts(g, 0.5 * g.dt), n_x)
        assert np.array_equal(_transport_specular(f, weights), want)

    @pytest.mark.parametrize("bad", [1.0, 1.5, -1e-3, np.nan])
    def test_shift_outside_one_cell_raises(self, bad):
        with pytest.raises(CFLViolated):
            _transport_weights(np.array([0.2, bad, 0.4]), 8)


def full_field_upwind(values, drift, grid, dt):
    """Reference: the upwind u-drift step with a full-field face select."""
    c = drift[:, None] * (dt / grid.du)
    d = np.zeros((values.shape[0], values.shape[1] + 2))
    d[:, 1:-1] = values
    d = np.diff(d, axis=1)  # face differences, zero ghosts beyond +-V_max
    return values - c * np.where(c > 0, d[:, :-1], d[:, 1:])


class TestVelocitySubsteps:
    """The u-drift, the u-diffusion and the u-gradient against the library
    and full-field forms they replace, bit for bit."""

    @pytest.mark.parametrize("signs", ["+", "-", "+-+", "alternating"])
    def test_upwind_picks_faces_per_row(self, signs):
        g = PhaseGrid(length=1.0, n_x=12, v_max=3.0, n_u=16, dt=0.01, horizon=0.1)
        rng = np.random.default_rng(len(signs))
        f = rng.random((g.n_x, g.n_u))
        drift = rng.uniform(0.1, 1.0, g.n_x)
        if signs == "-":
            drift = -drift
        elif signs == "+-+":
            drift[4:8] *= -1.0
            drift[5] = 0.0  # no drift takes the face above, like u-drift < 0
        elif signs == "alternating":
            drift[1::2] *= -1.0
        want = full_field_upwind(f, drift, g, g.dt)
        out, work = np.full_like(f, np.nan), np.full_like(f, np.nan)
        assert _advect_u(f, drift * (g.dt / g.du), out=out, work=work) is out
        assert np.array_equal(out, want)

    def test_flat_buffer_substeps_refuse_unusable_work_arrays(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=4.0, n_u=16, dt=0.004, horizon=0.1)
        lam, ab = _diffusion_matrix(g, 1.0, g.dt)
        f = np.random.default_rng(3).random((g.n_x, g.n_u))
        courant = np.full(g.n_x, 0.1)
        ok = np.empty_like(f)
        for bad in (np.empty((g.n_u, g.n_x)).T, np.empty((g.n_x, 2 * g.n_u))[:, ::2],
                    np.empty((g.n_x, g.n_u + 1)), f):
            with pytest.raises(ValueError, match="C-contiguous"):
                _diffuse(f, lam, ab, out=bad)
            with pytest.raises(ValueError, match="C-contiguous"):
                _advect_u(f, courant, out=bad, work=ok)
            with pytest.raises(ValueError, match="C-contiguous"):
                _advect_u(f, courant, out=ok, work=bad)

    @pytest.mark.parametrize("n_x, n_u", [(8, 16), (96, 192)])
    def test_diffusion_matches_solve_banded_bitwise(self, n_x, n_u):
        g = PhaseGrid(length=1.0, n_x=n_x, v_max=4.0, n_u=n_u, dt=0.002, horizon=0.1)
        lam, ab = _diffusion_matrix(g, 1.0, g.dt)
        f = np.random.default_rng(n_x).random((n_x, n_u))
        rhs = (1.0 - lam) * f
        rhs[:, 1:] += 0.5 * lam * f[:, :-1]
        rhs[:, :-1] += 0.5 * lam * f[:, 1:]
        want = solve_banded((1, 1), ab, rhs.T).T
        kept = f.copy()
        assert np.array_equal(_diffuse(f, lam, ab), want)
        out = np.empty_like(f)
        assert np.array_equal(_diffuse(f, lam, ab, out=out), want)
        assert np.shares_memory(_diffuse(f, lam, ab, out=out), out)
        assert np.array_equal(f, kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_diffusion_refuses_non_finite_input(self, bad):
        g = PhaseGrid(length=1.0, n_x=8, v_max=4.0, n_u=16, dt=0.004, horizon=0.1)
        lam, ab = _diffusion_matrix(g, 1.0, g.dt)
        f = np.ones((8, 16))
        f[3, 5] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _diffuse(f, lam, ab)


# ---------------------------------------------------- inflow solver


def inflow_scenario(n, T=0.2, v_max=4.0, sigma=0.5, amp_x=0.3, q_amp=0.4):
    g = PhaseGrid(length=1.0, n_x=n, v_max=v_max, n_u=n, dt=T / n, horizon=T)
    f0 = np.outer(1.0 + amp_x * np.sin(2 * np.pi * g.x), heat_kernel(0.25, g.u))

    def q(t, wall):
        shift = 0.5 if wall == 1 else -0.5
        return q_amp * (1.0 + t) * heat_kernel(0.3, g.u - shift)

    return g, f0, q, sigma


class TestInflow:
    def test_zero_data_stays_zero(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=5e-3, horizon=0.05)
        res = solve_linear_inflow(g, np.zeros((8, 16)),
                                  lambda t, wall: np.zeros(16), sigma=1.0)
        assert np.all(res.fields == 0.0)
        assert np.all(res.mass_in == 0.0) and np.all(res.mass_out == 0.0)

    def test_matched_wall_data_is_steady_without_diffusion(self):
        # uniform-in-x profile with q equal to its own wall values: the
        # transport reads back exactly what it wrote, machine-exact
        g = PhaseGrid(length=1.0, n_x=32, v_max=4.0, n_u=32, dt=np.float64(0.2) / 32,
                      horizon=0.2)
        prof = heat_kernel(0.25, g.u)
        f0 = np.broadcast_to(prof, (32, 32)).copy()
        res = solve_linear_inflow(g, f0, lambda t, wall: prof, sigma=1e-8)
        assert np.abs(res.fields[-1] - f0).max() <= 1e-14 * prof.max()
        _, rel = res.energy_residual()
        assert rel <= 1e-12

    def test_energy_residual_decreases_on_refinement(self):
        rels = []
        for n in (32, 64):
            g, f0, q, sigma = inflow_scenario(n)
            res = solve_linear_inflow(g, f0, q, sigma)
            _, rel = res.energy_residual()
            rels.append(rel)
            assert res.fields.min() >= 0.0
        assert rels[1] < 0.7 * rels[0]
        assert rels[1] < 3e-2

    def test_mass_ledger_closes_and_outflow_nonnegative(self):
        g, f0, q, sigma = inflow_scenario(32)
        res = solve_linear_inflow(g, f0, q, sigma)
        assert res.l1_balance_defect() <= 1e-10
        assert res.mass_out.min() >= 0.0
        assert res.mass_in.min() >= 0.0
        # the p=1 estimate: final mass + outflow <= initial mass + inflow
        lhs = res.mass[-1] + res.mass_out.sum()
        rhs = res.mass[0] + res.mass_in.sum()
        assert lhs <= rhs * (1 + 1e-10)

    @pytest.mark.parametrize("n", [32, 64])
    def test_transport_matches_per_row_reference(self, n):
        g, f0, q, _ = inflow_scenario(n)
        f = f0 * np.random.default_rng(n).uniform(0.5, 1.5, size=f0.shape)
        u = g.u
        walls = np.where([u < 0, u > 0], [q(0.1, 0), q(0.1, 1)], 0.0)
        for dt in (0.5 * g.dt, 0.15 * g.dt):  # a full and a short half step
            got, injected = _transport_inflow(f, g, dt, walls)
            want, want_injected = reference_transport_inflow(f, g, dt, walls)
            assert np.abs(got - want).max() <= 1e-14 * want.max()
            assert injected == pytest.approx(want_injected, rel=1e-14)

    def test_solve_matches_per_row_reference_transport(self, monkeypatch):
        g, f0, q, sigma = inflow_scenario(32)
        res = solve_linear_inflow(g, f0, q, sigma)
        monkeypatch.setattr("speckin.vfp._transport_inflow", reference_transport_inflow)
        ref = solve_linear_inflow(g, f0, q, sigma)
        assert np.abs(res.fields - ref.fields).max() <= 1e-13 * ref.fields.max()
        np.testing.assert_allclose(res.mass_in, ref.mass_in, rtol=1e-13)

    def test_incoming_trace_only_on_incoming_rows(self):
        g, f0, q, sigma = inflow_scenario(32)
        res = solve_linear_inflow(g, f0, q, sigma)
        u = g.u
        assert np.all(res.gamma_minus[:, 0, u < 0] == 0.0)
        assert np.all(res.gamma_minus[:, 1, u > 0] == 0.0)
        assert res.gamma_minus.min() >= 0.0


# ------------------------------------------------- drift quadrature


class TestDriftFromDensity:
    def grid(self):
        return PhaseGrid(length=1.0, n_x=8, v_max=4.0, n_u=32, dt=1e-3,
                         horizon=0.01)

    def test_even_density_gives_no_drift_for_odd_b(self):
        g = self.grid()
        model = KineticModel(sigma=1.0, b="tanh(1)")
        rho = uniform_gaussian(g, 0.7)
        B = drift_from_density(rho, g, model)
        assert np.abs(B).max() <= 1e-14

    def test_separable_density_gives_constant_drift(self):
        g = self.grid()
        model = KineticModel(sigma=1.0, b="tanh(1)")
        rho = np.outer(1.0 + 0.5 * np.sin(2 * np.pi * g.x),
                       heat_kernel(0.5, g.u - 0.6))
        B = drift_from_density(rho, g, model)
        expected = (np.tanh(g.u) * heat_kernel(0.5, g.u - 0.6)).sum() / \
            heat_kernel(0.5, g.u - 0.6).sum()
        assert np.allclose(B, expected, rtol=1e-13)

    def test_bounded_by_drift_norm(self):
        g = self.grid()
        model = KineticModel(sigma=1.0, b="sign")
        rng = np.random.default_rng(7)
        rho = rng.random((g.n_x, g.n_u))
        B = drift_from_density(rho, g, model)
        assert np.abs(B).max() <= model.b_norm * (1 + 1e-12)

    def test_empty_columns_give_zero(self):
        g = self.grid()
        model = KineticModel(sigma=1.0, b="constant(2.5)")
        rho = np.zeros((g.n_x, g.n_u))
        rho[2] = heat_kernel(0.5, g.u)
        B = drift_from_density(rho, g, model)
        assert B[2] == pytest.approx(2.5)
        assert np.all(B[np.arange(8) != 2] == 0.0)

    def test_reads_the_field_without_copying_it(self):
        # one field-sized temporary, the b(u)-weighted product; the field
        # itself is read in place
        g = PhaseGrid(length=1.0, n_x=128, v_max=4.0, n_u=256, dt=1e-3, horizon=0.01)
        model = KineticModel(sigma=1.0, b="tanh(1)")
        rho = np.random.default_rng(3).random((g.n_x, g.n_u))
        expected = (rho * np.tanh(g.u)[None, :]).sum(axis=1) / rho.sum(axis=1)
        tracemalloc.start()
        B = drift_from_density(rho, g, model)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.5 * rho.nbytes
        np.testing.assert_array_equal(B, expected)


# ------------------------------------------------------------ norms


class TestWeightedNorms:
    def test_matches_quadrature_oracle(self):
        L, V, v = 1.0, 8.0, 0.7
        g = PhaseGrid(length=L, n_x=16, v_max=V, n_u=128, dt=1e-3, horizon=0.01)
        f = uniform_gaussian(g, v)
        w = WeightParams(alpha=3.0, dimension=1)
        norms = weighted_norms(f, g, w)
        sup_oracle = integrate.quad(
            lambda u: (1 + u * u) ** 1.5 * (heat_kernel(v, u) / L) ** 2, -V, V
        )[0] * L
        grad_oracle = integrate.quad(
            lambda u: (1 + u * u) ** 1.5 * (u / v * heat_kernel(v, u) / L) ** 2,
            -V, V,
        )[0] * L
        assert norms.sup_l2w_sq == pytest.approx(sup_oracle, rel=1e-12)
        assert norms.grad_l2w_sq / g.dt == pytest.approx(grad_oracle, rel=1e-2)

    def test_zero_field_gives_zero(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=1e-3, horizon=2e-3)
        w = WeightParams(alpha=3.0, dimension=1)
        norms = weighted_norms(np.zeros((3, 8, 16)), g, w)
        assert norms.sup_l2w_sq == 0.0 and norms.v1 == 0.0

    def test_sup_over_time_slices(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=1e-3, horizon=1e-3)
        w = WeightParams(alpha=3.0, dimension=1)
        hist = np.stack([np.zeros((8, 16)), np.ones((8, 16))])
        norms = weighted_norms(hist, g, w)
        one = weighted_norms(np.ones((8, 16)), g, w)
        assert norms.sup_l2w_sq == one.sup_l2w_sq

    @pytest.mark.parametrize("n_t", [1, 2, 17])
    def test_v1_distance_equals_norm_of_difference_exactly(self, n_t):
        # n_t - 1 steps of 1e-3, the last one half as long
        g = PhaseGrid(length=1.0, n_x=9, v_max=2.0, n_u=16, dt=1e-3,
                      horizon=max(n_t - 1.5, 0.5) * 1e-3)
        w = WeightParams(alpha=3.0, dimension=1)
        rng = np.random.default_rng(n_t)
        a = rng.random((n_t, 9, 16))
        b = a + 1e-6 * rng.standard_normal((n_t, 9, 16))
        values = weight_eval(w, g.u).value
        quad = g.dx * g.du
        sup = max(float((values * (a[k] - b[k]) ** 2).sum()) for k in range(n_t)) * quad
        lengths = [g.dt] if n_t == 1 else [step_length(k - 1, g.horizon, g.dt)
                                           for k in range(1, n_t)]
        slices = [0] if n_t == 1 else range(1, n_t)
        grad = sum(dt * float((values * np.gradient(a[k] - b[k], g.du, axis=1) ** 2).sum())
                   for k, dt in zip(slices, lengths)) * quad
        assert _v1_distance(a, b, g, w) == pytest.approx(math.sqrt(sup + grad), rel=1e-13)
        # the constant history Picard starts from is a broadcast view
        c = np.broadcast_to(b[0], b.shape)
        assert _v1_distance(a, c, g, w) == weighted_norms(a - np.array(c), g, w).v1

    def test_constant_history_integrates_its_gradient_over_the_horizon(self):
        # three steps of 0.03 and a last one of 0.01: the gradient term of a
        # constant history is T = 0.1 times its one-slice term, not 4 dt = 0.12
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=0.03, horizon=0.1)
        w = WeightParams(alpha=3.0, dimension=1)
        f = np.random.default_rng(5).random((8, 16))
        one = weighted_norms(f, g, w).grad_l2w_sq / g.dt
        hist = weighted_norms(np.broadcast_to(f, (g.n_steps + 1, 8, 16)), g, w)
        assert hist.grad_l2w_sq == pytest.approx(0.1 * one, rel=1e-14)

    def test_history_of_another_length_is_refused(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=2.0, n_u=16, dt=1e-3, horizon=0.01)
        w = WeightParams(alpha=3.0, dimension=1)
        with pytest.raises(ValueError, match="one slice per grid time"):
            weighted_norms(np.zeros((g.n_steps, 8, 16)), g, w)


class TestTraceExtract:
    def test_uniform_field_trace_is_its_value(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=3.0, n_u=16, dt=1e-3, horizon=0.01)
        f = uniform_gaussian(g, 0.8)
        assert np.allclose(_specular_trace(f), f[0][None, :], rtol=1e-12)

    def test_traces_match_per_wall_reference_bitwise(self):
        g = PhaseGrid(length=1.0, n_x=12, v_max=3.0, n_u=24, dt=1e-3, horizon=0.01)
        f = np.random.default_rng(7).uniform(0.0, 1.0, size=(g.n_x, g.n_u))
        f[[1, -2]] *= 4.0  # steep next-to-wall rows: extrapolations go negative
        want = reference_specular_trace(f, g)
        assert (want == 0.0).any() and (want > 0.0).any()
        assert np.array_equal(_specular_trace(f), want)

    def test_functionals_match_quadrature(self):
        g = PhaseGrid(length=1.0, n_x=8, v_max=3.0, n_u=16, dt=1e-3, horizon=0.01)
        f = uniform_gaussian(g, 0.8)
        fn = trace_functionals(_specular_trace(f), g)
        assert fn["speed_mass"][0] == pytest.approx(
            (np.abs(g.u) * f[0]).sum() * g.du, rel=1e-12)

    def test_functionals_of_a_stack_are_those_of_its_slices(self):
        # the validate gate reads the whole history's stack, bench/ one
        # slice at a time through SpecularResult.trace
        grid, rho0, model, _, _ = picard_scenario(n_x=16, n_u=32, T=0.1)
        sol = picard_nonlinear(grid, rho0, model).solution
        whole = trace_functionals(sol.traces, grid)["speed_mass"]
        slices = [trace_functionals(sol.trace(k), grid)["speed_mass"]
                  for k in range(len(sol.times))]
        assert whole.shape == (len(sol.times), 2)
        assert np.array_equal(whole, np.stack(slices))


# ----------------------------------------------------------- Picard


def picard_scenario(n_x=24, n_u=48, T=0.25):
    L, sigma, s0, u_mean = 1.0, 1.0, 1.0, 0.8
    model = KineticModel(sigma=sigma, b="tanh(1)")
    lower, upper = envelope_for_gaussian(s0, u_mean, 1.0 / L, sigma, model.b_norm)
    v_max = auto_vmax(upper, T, rel=1e-12)
    steps = int(np.ceil(T * v_max * n_x / L))
    grid = PhaseGrid(length=L, n_x=n_x, v_max=v_max, n_u=n_u, dt=T / steps,
                     horizon=T)
    rho0 = uniform_gaussian(grid, s0, shift=u_mean)
    return grid, rho0, model, lower, upper


def reference_picard(grid, rho0, model, tol, max_iter, weight, lower=None, upper=None):
    """The oracle: Picard iteration from iterate 0, the initial density held
    constant in time. Each sweep is a whole linear solve with the drift table
    of the previous history frozen, compared with that history once it is
    done, in the V1 distance of `weighted_norms`."""
    rho_init = np.array(rho0, dtype=float)
    n_steps = grid.n_steps
    prev = np.broadcast_to(rho_init, (n_steps + 1, grid.n_x, grid.n_u))
    distances, lows, ups = [], [], []
    for _ in range(max_iter):
        drifts = np.stack([drift_from_density(prev[k], grid, model) for k in range(n_steps)])

        def frozen(t, x, table=drifts):
            return table[min(int(round(t / grid.dt)), n_steps - 1)]

        solution = solve_specular_linear(grid, rho_init, frozen, model.sigma, weight=weight)
        distances.append(_v1_distance(solution.fields, prev, grid, weight))
        lo_v, up_v, _ = ref.envelope_excursions(solution.fields, grid.times, grid, lower, upper)
        lows.append(lo_v)
        ups.append(up_v)
        prev = solution.fields
        if distances[-1] < tol:
            break
    return distances, lows, ups, drifts, solution


class TestPicard:
    def test_zero_drift_fixed_point_in_two_sweeps(self):
        grid, rho0, _, _, _ = picard_scenario(n_x=8, n_u=16, T=0.02)
        model = KineticModel(sigma=1.0, b="zero")
        res = picard_nonlinear(grid, rho0, model, tol=1e-6)
        assert res.report.converged
        assert res.report.iterates == 1
        assert np.all(res.drift_history == 0.0)
        linear = solve_specular_linear(grid, rho0, None, model.sigma)
        assert np.array_equal(res.solution.fields, linear.fields)
        # the oracle's second sweep repeats its first, which is the one pass
        distances, *_, solution = reference_picard(grid, rho0, model, 1e-6, 20,
                                                   WeightParams(alpha=3.0, dimension=1))
        assert len(distances) == 2 and distances[1] == 0.0
        assert np.array_equal(solution.fields, res.solution.fields)

    @pytest.mark.parametrize("tol, sweeps", [(1e-6, None), (np.inf, 1)])
    def test_drift_history_replays_the_final_sweep(self, tol, sweeps):
        grid, rho0, model, _, _ = picard_scenario()
        weight = WeightParams(alpha=3.0, dimension=1)
        res = picard_nonlinear(grid, rho0, model, tol=tol, weight=weight)
        if sweeps is not None:
            assert res.report.iterates == sweeps
        history = res.drift_history
        assert history.shape == (grid.n_steps, grid.n_x)
        assert history.flags.writeable
        again = solve_specular_linear(grid, rho0, history, model.sigma, weight=weight)
        assert np.array_equal(again.fields, res.solution.fields)
        assert np.array_equal(again.traces, res.solution.traces)
        assert np.array_equal(again.mass, res.solution.mass)

    def test_tanh_drift_converges_with_sandwich(self):
        grid, rho0, model, lower, upper = picard_scenario()
        res = picard_nonlinear(grid, rho0, model, tol=1e-6, max_iter=20,
                               lower=lower, upper=upper)
        rep = res.report
        assert rep.converged and rep.iterates == 1
        peak = max(float(maxwellian_eval(upper, t, 0.0))
                   for t in np.linspace(0, grid.horizon, 33))
        tol_grid = 10.0 * (grid.dx + grid.du + grid.dt) * peak
        assert rep.lower_violation <= tol_grid
        assert rep.upper_violation <= tol_grid
        assert np.abs(res.drift_history).max() <= model.b_norm * (1 + 1e-12)
        mass = res.solution.mass
        assert np.abs(np.diff(mass)).max() / mass[0] < 1e-10

    def test_envelopes_sandwich_initial_density(self):
        grid, rho0, _, lower, upper = picard_scenario()
        p_lo = maxwellian_eval(lower, 0.0, grid.u)
        p_up = maxwellian_eval(upper, 0.0, grid.u)
        assert np.all(p_lo <= rho0[0]) and np.all(rho0[0] <= p_up)

    def test_envelope_tables_give_per_time_violations(self):
        # each slice against the envelope rows of its own grid time
        grid, rho0, model, lower, upper = picard_scenario(n_x=8, n_u=16, T=0.1)
        hist = solve_specular_linear(grid, rho0, 0.5, model.sigma).fields
        assert len(hist) > 4
        hist[3, 2, 5] += 0.1
        hist[4, 1, 7] = 0.0
        lo_v = up_v = peak = 0.0
        for t, f in zip(grid.times, hist):
            lo_v = max(lo_v, float((maxwellian_eval(lower, float(t), grid.u) - f).max()))
            up_v = max(up_v, float((f - maxwellian_eval(upper, float(t), grid.u)).max()))
            peak = max(peak, float(maxwellian_eval(upper, float(t), grid.u).max()))
        assert envelope_excursions(hist, grid, lower, upper) == (lo_v, up_v, peak)
        assert lo_v > 0 and up_v > 0

    def test_sweep_holds_no_history_sized_temporaries(self):
        cfg = config_from_dict({
            "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
            "initial": {"s": 1.0, "u_mean": 0.8},
            "numerics": {"grid": {"n_x": 64, "n_u": 128}},
            "run": {"T": 0.5},
        })
        lower, upper = build_envelopes(cfg)
        grid = build_grid(cfg, upper)
        rho0 = initial_density(cfg, grid)
        model, weight = build_model(cfg), build_weight(cfg)
        history_bytes = (grid.n_steps + 1) * grid.n_x * grid.n_u * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = picard_nonlinear(grid, rho0, model, weight=weight,
                                   lower=lower, upper=upper)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.report.converged and res.report.iterates == 1
        # one history, written slice by slice, plus slice-sized temporaries
        assert peak <= 1.25 * history_bytes, peak / history_bytes

    def test_one_march_per_call(self, monkeypatch):
        march = vfp._specular_march
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return march(*args, **kwargs)

        monkeypatch.setattr(vfp, "_specular_march", counted)
        grid, rho0, model, lower, upper = picard_scenario(n_x=8, n_u=16, T=0.1)
        for n, (tol, max_iter) in enumerate([(1e-6, 20), (1e-16, 1), (np.inf, 5)], 1):
            picard_nonlinear(grid, rho0, model, tol=tol, max_iter=max_iter,
                             lower=lower, upper=upper)
            assert calls == [grid] * n

    def test_tol_and_max_iter_one_pass_cannot_meet_are_refused(self):
        grid, rho0, model, _, _ = picard_scenario(n_x=8, n_u=16, T=0.02)
        for tol, max_iter in [(0.0, 20), (-1e-6, 20), (np.nan, 20), (1e-6, 0)]:
            with pytest.raises(ValueError, match="tol > 0 and max_iter >= 1"):
                picard_nonlinear(grid, rho0, model, tol=tol, max_iter=max_iter)

    def test_model_beyond_the_drift_cfl_limit_is_refused_before_any_step(self, monkeypatch):
        # b_norm dt = 0.1 against du = 1/32; the start is even in u, so its
        # drift row is round-off: the limit is checked on b, not on rows
        grid = PhaseGrid(length=1.0, n_x=8, v_max=1.0, n_u=64, dt=0.1, horizon=0.5)
        model = KineticModel(sigma=0.1, b="tanh(1)")
        rho0 = uniform_gaussian(grid, 0.1)
        assert np.abs(drift_from_density(rho0, grid, model)).max() < 1e-15
        assert model.b_norm * grid.dt > grid.du
        moves = []
        monkeypatch.setattr(vfp, "_transport_specular", lambda *a, **k: moves.append(1))
        with pytest.raises(CFLViolated, match="drift upwind"):
            picard_nonlinear(grid, rho0, model)
        assert not moves


class TestOnePassSweep:
    """The one pass is the frozen-drift solve of its own drift history: each
    drift row is the drift of its slice, and the replay matches bit for bit."""

    @staticmethod
    def check_replay(grid, rho0, model, weight, res):
        fields = res.solution.fields
        for k in range(grid.n_steps):
            assert np.array_equal(res.drift_history[k], drift_from_density(fields[k], grid, model))
        again = solve_specular_linear(grid, rho0, res.drift_history, model.sigma, weight=weight)
        assert np.array_equal(again.fields, fields)
        assert np.array_equal(again.traces, res.solution.traces)
        assert np.array_equal(again.mass, res.solution.mass)

    def test_tanh_scenario_with_envelopes(self):
        grid, rho0, model, lower, upper = picard_scenario()
        weight = WeightParams(alpha=3.0, dimension=1)
        res = picard_nonlinear(grid, rho0, model, tol=1e-6, max_iter=20,
                               weight=weight, lower=lower, upper=upper)
        assert res.report.converged and res.report.iterates == 1
        self.check_replay(grid, rho0, model, weight, res)
        lo_v, up_v, _ = ref.envelope_excursions(res.solution.fields, grid.times, grid,
                                                lower, upper)
        assert res.report.lower_violation == lo_v
        assert res.report.upper_violation == up_v

    def test_swapped_envelopes_on_a_short_last_step(self):
        # swapped envelopes, so that both excursions are positive, and a
        # spike that makes slice 0 the largest excursion above
        grid, rho0, model, weight, upper, lower = short_last_step_scenario()
        rho0[2, 8] += 1.0
        res = picard_nonlinear(grid, rho0, model, weight=weight, lower=lower, upper=upper)
        self.check_replay(grid, rho0, model, weight, res)
        lo_v, up_v, _ = ref.envelope_excursions(res.solution.fields, grid.times, grid,
                                                lower, upper)
        assert res.report.lower_violation == lo_v and lo_v > 0
        assert res.report.upper_violation == up_v and up_v > 0
        assert up_v == float((rho0 - maxwellian_eval(upper, 0.0, grid.u)).max())


def short_last_step_scenario():
    """The tanh scenario on 8 x 16 nodes to T = 0.1, which is no multiple of
    dt, so the last step is shorter than the others."""
    grid, rho0, model, lower, upper = picard_scenario(n_x=8, n_u=16, T=0.1)
    grid = PhaseGrid(length=grid.length, n_x=8, v_max=grid.v_max, n_u=16,
                     dt=0.7 * grid.dt, horizon=0.1)
    assert step_length(grid.n_steps - 1, grid.horizon, grid.dt) < 0.9 * grid.dt
    return grid, rho0, model, WeightParams(alpha=3.0, dimension=1), lower, upper


def cross_validation_scenario():
    """The acceptance cross-validation scenario on 32 x 64 nodes."""
    cfg = config_from_dict(cross_validation(32, 64))
    lower, upper = build_envelopes(cfg)
    grid = build_grid(cfg, upper)
    return grid, initial_density(cfg, grid), build_model(cfg), build_weight(cfg), lower, upper


class TestEnergyLedgers:
    """The weight decides whether the pass keeps its energy ledgers, and
    nothing else: every other output is the same bit for bit."""

    @pytest.mark.parametrize("scenario", [cross_validation_scenario, short_last_step_scenario],
                             ids=["cross-validation-32x64", "short-last-step"])
    def test_weight_keeps_the_ledgers_and_changes_nothing_else(self, scenario):
        grid, rho0, model, weight, lower, upper = scenario()
        kept = picard_nonlinear(grid, rho0, model, weight=weight, lower=lower, upper=upper)
        bare = picard_nonlinear(grid, rho0, model, lower=lower, upper=upper)
        a, b = kept.solution, bare.solution
        for name in ("fields", "traces", "mass"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.clamped == b.clamped
        assert np.array_equal(kept.drift_history, bare.drift_history)
        assert kept.report == bare.report
        assert a.weight == weight and a.grad_sq_weighted.shape == (grid.n_steps,)
        assert math.isfinite(a.energy_residual(model.sigma))
        assert b.weight is b.grad_sq_weighted is b.bracket_sq_weighted is None
        with pytest.raises(ValueError, match="no energy ledgers"):
            b.energy_residual(model.sigma)

    def test_linear_solve_without_weight_keeps_unit_weight_ledgers(self):
        grid, rho0, model, weight, _, _ = short_last_step_scenario()
        unit = solve_specular_linear(grid, rho0, 0.5, model.sigma)
        weighted = solve_specular_linear(grid, rho0, 0.5, model.sigma, weight=weight)
        assert unit.weight is None and np.array_equal(unit.fields, weighted.fields)
        assert math.isfinite(unit.energy_residual(model.sigma))
        assert not np.array_equal(unit.grad_sq_weighted, weighted.grad_sq_weighted)


def recorded_slices(monkeypatch):
    """The slices every `_specular_march` yields from now on, in order."""
    seen = []
    march = vfp._specular_march

    def recording(*args, **kwargs):
        result, steps = march(*args, **kwargs)

        def watched():
            for k, f in steps:
                seen.append(f)
                yield k, f

        return result, watched()

    monkeypatch.setattr(vfp, "_specular_march", recording)
    return seen


class TestSlicesInPlace:
    """A march with a history writes each slice into it; one without makes
    a fresh array per slice."""

    @pytest.mark.parametrize("solve", ["picard", "linear"])
    def test_history_slices_are_the_yielded_arrays(self, monkeypatch, solve):
        grid, rho0, model, weight, lower, upper = short_last_step_scenario()
        seen = recorded_slices(monkeypatch)
        if solve == "picard":
            fields = picard_nonlinear(grid, rho0, model, lower=lower, upper=upper).solution.fields
        else:
            fields = solve_specular_linear(grid, rho0, 0.5, model.sigma, weight=weight).fields
        assert len(seen) == grid.n_steps + 1
        for k, f in enumerate(seen):
            assert np.shares_memory(f, fields[k]) and f.shape == fields[k].shape, k
        assert not np.shares_memory(fields[0], rho0)

    def test_a_march_without_history_yields_fresh_slices(self):
        grid, rho0, model, _, _, _ = short_last_step_scenario()
        drifts = np.zeros((grid.n_steps, grid.n_x))
        result, steps = vfp._specular_march(grid, rho0, drifts, model.sigma)
        slices = [f for _, f in steps]
        assert result.fields is None and len(slices) == grid.n_steps + 1
        assert not np.shares_memory(slices[0], rho0)
        for k in range(grid.n_steps):
            assert not np.shares_memory(slices[k], slices[k + 1]), k
        linear = solve_specular_linear(grid, rho0, None, model.sigma)
        assert np.array_equal(np.stack(slices), linear.fields)


ORACLE_TOL = 1e-6


@pytest.fixture(scope="module", params=[(32, 64), (64, 128)], ids=["32x64", "64x128"])
def oracle(request):
    """The cross-validation scenario on a grid, with the oracle run on it once."""
    cfg = config_from_dict(cross_validation(*request.param))
    lower, upper = build_envelopes(cfg)
    grid = build_grid(cfg, upper)
    rho0 = initial_density(cfg, grid)
    model, weight = build_model(cfg), build_weight(cfg)
    run = reference_picard(grid, rho0, model, ORACLE_TOL, 20, weight, lower, upper)
    return grid, rho0, model, weight, lower, upper, run


class TestPicardOracle:
    """Picard iteration from iterate 0 against the one pass, in V1 distance."""

    @pytest.mark.parametrize("envelopes", [True, False], ids=["envelopes", "bare"])
    def test_one_pass_is_the_oracles_fixed_point(self, oracle, envelopes):
        grid, rho0, model, weight, lower, upper, run = oracle
        distances, lows, ups, _, solution = run
        # the oracle contracts by at least 10x per sweep down to tol
        assert 3 <= len(distances) < 20 and distances[-1] < ORACLE_TOL
        assert all(b <= 0.1 * a for a, b in zip(distances, distances[1:])), distances
        if not envelopes:
            lower = upper = None
        res = picard_nonlinear(grid, rho0, model, tol=ORACLE_TOL, weight=weight,
                               lower=lower, upper=upper)
        assert _v1_distance(solution.fields, res.solution.fields, grid, weight) <= 10 * ORACLE_TOL
        if envelopes:
            peak = envelope_excursions(solution.fields, grid, None, upper)[2]
            assert abs(res.report.lower_violation - lows[-1]) <= 1e-6 * peak
            assert abs(res.report.upper_violation - ups[-1]) <= 1e-6 * peak
        else:
            assert res.report.lower_violation == res.report.upper_violation == 0.0

    def test_a_pass_reading_the_previous_drift_row_disagrees(self, oracle, monkeypatch):
        grid, rho0, model, weight, lower, upper, run = oracle
        solution = run[-1]

        class Lagged:
            """A drift table whose row k reads row k - 1 (row 0 for k = 0)."""

            def __init__(self, table):
                self.table = table

            def __getitem__(self, k):
                return self.table[max(k - 1, 0)]

        march = vfp._specular_march

        def lagged(grid, rho0, drifts, sigma, *args, **kwargs):
            return march(grid, rho0, Lagged(drifts), sigma, *args, **kwargs)

        monkeypatch.setattr(vfp, "_specular_march", lagged)
        res = picard_nonlinear(grid, rho0, model, tol=ORACLE_TOL, weight=weight)
        assert _v1_distance(solution.fields, res.solution.fields, grid, weight) > 10 * ORACLE_TOL
