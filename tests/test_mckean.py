"""Conditional-drift estimation and the interacting particle stepper."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from speckin.errors import InvalidStart
from speckin.geometry import Ball, Interval
from speckin.langevin import (
    STEP_COUNTER_STRIDE,
    HitLog,
    PhaseState,
    RngStream,
    StepParams,
    confined_step,
    ensemble_confined_step,
    run_ensemble,
    snapshot_step,
    step_count,
    step_time,
)
from speckin.mckean import (
    DriftEstimatorConfig,
    Ensemble,
    KineticModel,
    _binned_field,
    _drift_at_particles,
    conditional_drift,
    drift_field,
    drift_from_name,
    run_mckean,
    silverman_bandwidth,
)


def nw_brute(X, U, bfn, x, bw, kernel="gaussian"):
    """Direct O(N) regression sum, no chunking, no masking."""
    q = ((x - X) / bw) ** 2
    w = np.exp(-0.5 * q) if kernel == "gaussian" else np.maximum(0.0, 1.0 - q)
    return float((w * bfn(U)).sum() / w.sum())


# ---------------------------------------------------------------- catalog


def test_drift_catalog_frozen_values():
    u = np.array([-3.0, -0.2, 0.0, 1.0])
    fn, bound = drift_from_name("zero")
    assert np.array_equal(fn(u), np.zeros(4)) and bound == 0.0
    fn, bound = drift_from_name("constant(-2.5)")
    assert np.array_equal(fn(u), np.full(4, -2.5)) and bound == 2.5
    fn, bound = drift_from_name("tanh(2)")
    assert fn(u)[3] == pytest.approx(np.tanh(2.0), rel=1e-15) and bound == 1.0
    fn, bound = drift_from_name("sign")
    assert np.array_equal(fn(u), [-1.0, -1.0, 0.0, 1.0]) and bound == 1.0
    fn, bound = drift_from_name("clipped_linear(2, 0.5)")
    assert np.array_equal(fn(u), [-0.5, -0.4, 0.0, 0.5]) and bound == 0.5


@pytest.mark.parametrize(
    "bad", ["nope", "tanh", "tanh(1,2)", "constant()", "clipped_linear(1, -1)", "zero(3)"]
)
def test_drift_catalog_rejects(bad):
    with pytest.raises(ValueError):
        drift_from_name(bad)


def test_model_validation():
    with pytest.raises(ValueError):
        KineticModel(sigma=0.0)
    with pytest.raises(ValueError):
        KineticModel(sigma=1.0, b="wiggle(3)")
    m = KineticModel(sigma=0.5, b="tanh(1)")
    assert m.b_norm == 1.0 and m.drift(np.array(0.0)) == 0.0


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        Ensemble(np.zeros(0), np.zeros(0))
    ens = Ensemble(np.zeros((5, 2)), np.ones((5, 2)))
    assert len(ens) == 5 and ens.dimension == 2


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        DriftEstimatorConfig(bandwidth=0.0)
    with pytest.raises(ValueError):
        DriftEstimatorConfig(kernel="box")
    with pytest.raises(ValueError):
        DriftEstimatorConfig(min_mass=-1.0)
    with pytest.raises(ValueError):
        DriftEstimatorConfig(probes=-3)


def test_silverman_bandwidth_frozen_and_scaling():
    X = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert silverman_bandwidth(X) == pytest.approx(0.27162320597788003, rel=1e-13)
    assert silverman_bandwidth(3.0 * X) == pytest.approx(
        3.0 * silverman_bandwidth(X), rel=1e-13
    )
    assert silverman_bandwidth(np.full(9, 0.4)) == 1.0  # collapse guard
    per_dim = silverman_bandwidth(np.stack([X, 2 * X], axis=1))
    assert per_dim.shape == (2,) and per_dim[1] == pytest.approx(2 * per_dim[0])


# ---------------------------------------------------- conditional drift


def test_constant_velocity_regression_target():
    r = np.random.default_rng(0)
    ens = Ensemble(r.uniform(0, 1, 400), np.full(400, 0.7))
    model = KineticModel(sigma=1.0, b="tanh(1)")
    got = conditional_drift(ens, model, DriftEstimatorConfig(), np.linspace(0.1, 0.9, 7))
    assert np.allclose(got, np.tanh(0.7), rtol=1e-12)


def test_constant_drift_is_constant_wherever_mass_suffices():
    r = np.random.default_rng(1)
    ens = Ensemble(r.uniform(0, 1, 300), r.normal(size=300))
    model = KineticModel(sigma=1.0, b="constant(1.25)")
    got = conditional_drift(ens, model, DriftEstimatorConfig(), np.linspace(0, 1, 11))
    assert np.allclose(got, 1.25, rtol=1e-12)


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
def test_two_separated_clusters(kernel):
    r = np.random.default_rng(2)
    v1, v2 = 0.7, -1.1
    X = np.concatenate([0.2 + 0.02 * r.normal(size=500), 0.8 + 0.02 * r.normal(size=500)])
    U = np.concatenate([np.full(500, v1), np.full(500, v2)])
    ens = Ensemble(X, U)
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(bandwidth=0.05, kernel=kernel)
    got = conditional_drift(ens, model, cfg, np.array([0.2, 0.8]))
    assert got[0] == pytest.approx(np.tanh(v1), abs=1e-10)
    assert got[1] == pytest.approx(np.tanh(v2), abs=1e-10)
    # point evaluation agrees with the direct sum
    brute = nw_brute(X, U, model.drift, 0.2, 0.05, kernel)
    assert conditional_drift(ens, model, cfg, 0.2) == pytest.approx(brute, rel=1e-12)


def test_low_mass_returns_zero():
    ens = Ensemble(np.full(100, 0.2), np.full(100, 3.0))
    model = KineticModel(sigma=1.0, b="sign")
    for kernel in ("gaussian", "epanechnikov"):
        cfg = DriftEstimatorConfig(bandwidth=0.01, kernel=kernel)
        assert conditional_drift(ens, model, cfg, 0.9) == 0.0
        assert conditional_drift(ens, model, cfg, 0.2) == pytest.approx(1.0)


def test_batch_matches_single_points():
    r = np.random.default_rng(3)
    ens = Ensemble(r.uniform(0, 1, 257), r.normal(size=257))
    model = KineticModel(sigma=1.0, b="tanh(2)")
    cfg = DriftEstimatorConfig(bandwidth=0.08)
    xs = np.linspace(0.0, 1.0, 9)
    batch = conditional_drift(ens, model, cfg, xs)
    singles = np.array([conditional_drift(ens, model, cfg, float(x)) for x in xs])
    assert np.array_equal(batch, singles)


def test_vector_valued_drift_in_two_dimensions():
    r = np.random.default_rng(4)
    X = r.uniform(-0.5, 0.5, size=(600, 2))
    U = r.normal(size=(600, 2))
    ens = Ensemble(X, U)
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(bandwidth=0.2)
    got = conditional_drift(ens, model, cfg, np.zeros(2))
    assert got.shape == (2,)
    # direct sum per component
    q = (((np.zeros(2) - X) / 0.2) ** 2).sum(axis=1)
    w = np.exp(-0.5 * q)
    want = (w[:, None] * np.tanh(U)).sum(axis=0) / w.sum()
    assert np.allclose(got, want, rtol=1e-12)
    assert np.all(np.abs(got) <= 1.0)


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("bandwidth", [None, 0.08])
def test_one_dimension_is_one_column(kernel, bandwidth):
    # a 1-d cloud and the same cloud as (N, 1) columns give one field
    r = np.random.default_rng(6)
    X, U = r.uniform(0, 1, 500), r.normal(size=500)
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(bandwidth=bandwidth, kernel=kernel)
    flat, column = Ensemble(X, U), Ensemble(X[:, None], U[:, None])
    probes = np.linspace(0.0, 1.0, 9)
    batch = conditional_drift(flat, model, cfg, probes)
    assert batch.shape == probes.shape
    assert np.array_equal(batch, conditional_drift(column, model, cfg, probes[:, None])[:, 0])
    point = conditional_drift(flat, model, cfg, 0.3)
    assert np.shape(point) == ()
    assert np.array_equal(point, conditional_drift(column, model, cfg, np.array([0.3]))[0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    probe=st.floats(-2.0, 2.0),
    bw=st.floats(1e-3, 2.0),
    kernel=st.sampled_from(["gaussian", "epanechnikov"]),
)
def test_drift_bounded_by_b_norm(seed, probe, bw, kernel):
    r = np.random.default_rng(seed)
    n = r.integers(1, 40)
    ens = Ensemble(r.uniform(-1, 1, n), 3.0 * r.normal(size=n))
    model = KineticModel(sigma=1.0, b="clipped_linear(4, 0.8)")
    cfg = DriftEstimatorConfig(bandwidth=bw, kernel=kernel)
    val = conditional_drift(ens, model, cfg, probe)
    assert abs(val) <= model.b_norm * (1 + 1e-12)


def test_field_interpolation_tracks_exact_values():
    r = np.random.default_rng(12)
    ens = Ensemble(r.uniform(0, 1, 4000), r.normal(0.8, 1.0, 4000))
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig()
    exact = conditional_drift(ens, model, cfg, ens.positions[:400])
    grid = np.linspace(0.0, 1.0, cfg.probes)
    interp = np.interp(ens.positions[:400], grid, conditional_drift(ens, model, cfg, grid))
    assert np.abs(interp - exact).max() < 2e-3


def test_permuting_particles_leaves_field_invariant():
    r = np.random.default_rng(6)
    X, U = r.uniform(0, 1, 500), r.normal(size=500)
    perm = r.permutation(500)
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(bandwidth=0.1)
    a = conditional_drift(Ensemble(X, U), model, cfg, np.linspace(0, 1, 5))
    b = conditional_drift(Ensemble(X[perm], U[perm]), model, cfg, np.linspace(0, 1, 5))
    assert np.allclose(a, b, rtol=1e-12)


# ------------------------------------------------ binned probe field


def correlated_ensemble(n, seed):
    """Positions from the modulated law 1 + cos(2 pi x)/2 on [0, 1], as the
    scenario sampler draws them; the mean velocity grows along the interval."""
    r = np.random.default_rng(seed)
    x = r.uniform(0.0, 1.0, 4 * n)
    x = x[r.uniform(0.0, 1.5, 4 * n) < 1.0 + 0.5 * np.cos(2.0 * np.pi * x)][:n]
    return Ensemble(x, r.normal(0.8, 1.0, n) + 3.0 * (x - 0.4))


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
def test_binned_field_matches_exact_at_silverman_bandwidth(kernel):
    ens = correlated_ensemble(10_000, 40)
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(kernel=kernel)
    grid, binned = _binned_field(ens, model, cfg, 1.0)
    assert np.array_equal(grid, np.linspace(0.0, 1.0, cfg.probes))
    exact = conditional_drift(ens, model, cfg, grid)
    assert np.abs(binned - exact).max() <= 1e-4 * model.b_norm


@pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("bw", [0.01, 0.05])
def test_binning_error_below_interpolation_error(kernel, bw):
    # the probe path already accepts the error of interpolating the exact
    # probe values to the particles; binning must add well under that
    ens = correlated_ensemble(10_000, 41)
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(bandwidth=bw, kernel=kernel)
    grid, binned = _binned_field(ens, model, cfg, 1.0)
    exact = conditional_drift(ens, model, cfg, grid)
    at = ens.positions[:2000]
    interp = np.abs(np.interp(at, grid, exact) - conditional_drift(ens, model, cfg, at)).max()
    assert np.abs(binned - exact).max() <= interp / 3.0


def test_binned_path_tracks_exact_values_at_particles():
    r = np.random.default_rng(12)
    ens = Ensemble(r.uniform(0, 1, 4000), r.normal(0.8, 1.0, 4000))
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig()
    got = _drift_at_particles(Interval(1.0), ens, model, cfg)
    exact = conditional_drift(ens, model, cfg, ens.positions)
    assert np.abs(got - exact).max() < 2e-3


def test_zero_probes_evaluate_exactly_at_particles():
    r = np.random.default_rng(13)
    ens = Ensemble(r.uniform(0, 1, 300), r.normal(size=300))
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(probes=0)
    assert drift_field(Interval(1.0), ens, model, cfg) is None
    got = _drift_at_particles(Interval(1.0), ens, model, cfg)
    assert np.array_equal(got, conditional_drift(ens, model, cfg, ens.positions))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    bw=st.floats(1e-3, 2.0),
    kernel=st.sampled_from(["gaussian", "epanechnikov"]),
    probes=st.integers(2, 65),
    length=st.floats(0.1, 5.0),
)
def test_binned_field_bounded_by_b_norm(seed, bw, kernel, probes, length):
    r = np.random.default_rng(seed)
    n = r.integers(1, 200)
    ens = Ensemble(r.uniform(0.0, length, n), 3.0 * r.normal(size=n))
    model = KineticModel(sigma=1.0, b="clipped_linear(4, 0.8)")
    cfg = DriftEstimatorConfig(bandwidth=bw, kernel=kernel, probes=probes)
    grid, values = _binned_field(ens, model, cfg, length)
    assert grid.shape == values.shape == (probes,)
    assert np.all(np.abs(values) <= model.b_norm * (1 + 1e-12))


def test_binned_constant_drift_is_constant_wherever_mass_suffices():
    r = np.random.default_rng(1)
    ens = Ensemble(r.uniform(0, 1, 300), r.normal(size=300))
    model = KineticModel(sigma=1.0, b="constant(1.25)")
    for kernel in ("gaussian", "epanechnikov"):
        _, values = _binned_field(ens, model, DriftEstimatorConfig(kernel=kernel), 1.0)
        assert np.allclose(values, 1.25, rtol=1e-12, atol=0.0)


def test_binned_low_mass_returns_zero():
    ens = Ensemble(np.full(100, 0.2), np.full(100, 3.0))
    model = KineticModel(sigma=1.0, b="sign")
    for kernel in ("gaussian", "epanechnikov"):
        cfg = DriftEstimatorConfig(bandwidth=0.01, kernel=kernel, probes=11)
        grid, values = _binned_field(ens, model, cfg, 1.0)
        assert np.all(values[grid >= 0.5] == 0.0)
        assert values[2] == pytest.approx(1.0)  # the probe at 0.2


def test_binned_end_positions_land_in_end_bins():
    # states on either wall and up to eps_hit outside it bin onto the end
    # centres; there binning is exact, so the field matches the exact
    # estimate of the clipped ensemble
    L, eps = 2.0, StepParams(h=0.01).eps_hit
    X = np.array([-eps, 0.0, 0.0, L, L, L + eps])
    U = np.array([-1.0, -0.5, 0.3, 0.2, 0.9, 1.4])
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(bandwidth=0.3, kernel="epanechnikov", probes=9)
    grid, values = _binned_field(Ensemble(X, U), model, cfg, L)
    exact = conditional_drift(Ensemble(np.clip(X, 0.0, L), U), model, cfg, grid)
    assert np.allclose(values, exact, rtol=1e-10, atol=1e-15)
    assert values[0] == pytest.approx(np.tanh(U[:3]).mean(), rel=1e-12)
    assert values[-1] == pytest.approx(np.tanh(U[3:]).mean(), rel=1e-12)


def test_binned_field_invariant_under_permutation():
    ens = correlated_ensemble(2000, 6)
    perm = np.random.default_rng(6).permutation(2000)
    model = KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(bandwidth=0.05)
    _, a = _binned_field(ens, model, cfg, 1.0)
    _, b = _binned_field(Ensemble(ens.positions[perm], ens.velocities[perm]), model, cfg, 1.0)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


# ----------------------------------------------------------- stepping


def test_zero_drift_step_is_bitwise_linear():
    r = np.random.default_rng(7)
    X = r.uniform(0.0, 1.0, 200)
    U = r.normal(size=200)
    dom = Interval(1.0)
    params = StepParams(h=0.05)
    model = KineticModel(sigma=1.0, b="zero")
    Xm, Um, snaps, hits = run_mckean(dom, X, U, model, DriftEstimatorConfig(), 0.05, params,
                                     seed=11, snapshot_steps=[1])
    Xl, Ul, hits_b = ensemble_confined_step(dom, X, U, 0, params, 1.0, 11)
    assert np.array_equal(Xm, Xl)
    assert np.array_equal(Um, Ul)
    # the end state is the one kept after the run's one step, whose grid time is T
    assert step_time(1, 0.05, params.h) == 0.05
    assert np.array_equal(snaps[1][0], Xm) and np.array_equal(snaps[1][1], Um)
    assert np.array_equal(hits.path_id, hits_b.path_id)
    assert np.array_equal(hits.time, hits_b.time)


def test_step_preserves_count_and_confinement():
    r = np.random.default_rng(8)
    dom = Interval(1.0)
    model = KineticModel(sigma=1.0, b="sign")
    params = StepParams(h=0.05)
    X, U, _, _ = run_mckean(
        dom, r.uniform(0, 1, 300), r.normal(size=300), model, DriftEstimatorConfig(),
        0.05, params, seed=13,
    )
    assert X.shape == U.shape == (300,)
    assert np.all(dom.signed_distance(X) <= params.eps_hit)


def test_drift_kick_bounded():
    # sigma tiny and one far-from-wall step isolates the kick: du = h * B
    r = np.random.default_rng(9)
    dom = Interval(1.0)
    X = r.uniform(0.45, 0.55, 200)
    U = r.normal(size=200)
    model = KineticModel(sigma=1e-12, b="clipped_linear(5, 0.6)")
    params = StepParams(h=0.01, delta_near=1e-6)
    _, U1, _, _ = run_mckean(dom, X, U, model, DriftEstimatorConfig(), 0.01, params, seed=17)
    kick = U1 - U
    assert np.abs(kick).max() <= params.h * model.b_norm + 1e-9


def test_run_refuses_one_stream_id_for_many_rows():
    r = np.random.default_rng(15)
    with pytest.raises(ValueError, match=r"stream_ids of shape \(1,\) for 10 rows"):
        run_mckean(Interval(1.0), r.uniform(0.1, 0.9, 10), r.normal(size=10),
                   KineticModel(sigma=1.0, b="tanh(1)"), DriftEstimatorConfig(), 0.1,
                   StepParams(h=0.05), seed=1, stream_ids=[5])


def test_run_refuses_repeated_stream_ids():
    r = np.random.default_rng(15)
    with pytest.raises(ValueError, match="stream_ids repeat an id"):
        run_mckean(Interval(1.0), r.uniform(0.1, 0.9, 10), r.normal(size=10),
                   KineticModel(sigma=1.0, b="tanh(1)"), DriftEstimatorConfig(), 0.1,
                   StepParams(h=0.05), seed=1, stream_ids=[5] * 10)


def test_linear_step_permutation_equivariant_with_stream_ids():
    r = np.random.default_rng(10)
    n = 80
    X = r.uniform(0.0, 0.1, n)  # crowd the wall so reflections participate
    U = r.normal(size=n)
    dom = Interval(1.0)
    params = StepParams(h=0.1)
    Xa, Ua, _ = ensemble_confined_step(dom, X, U, 2, params, 1.0, seed=19)
    perm = r.permutation(n)
    Xb, Ub, _ = ensemble_confined_step(
        dom, X[perm], U[perm], 2, params, 1.0, seed=19, stream_ids=perm
    )
    assert np.array_equal(Xb, Xa[perm])
    assert np.array_equal(Ub, Ua[perm])


# ----------------------------------------------------------- full runs


def test_single_zero_drift_particle_reduces_to_simulate_path():
    dom = Interval(1.0)
    params = StepParams(h=0.1)
    model = KineticModel(sigma=1.0, b="zero")
    n = step_count(0.35, params.h)
    X, U, snaps, hits = run_mckean(
        dom,
        np.array([0.3]),
        np.array([0.5]),
        model,
        DriftEstimatorConfig(),
        0.35,
        params,
        seed=21,
        snapshot_steps=[n],
    )
    # the path alone, one confined_step per macro step k from counter k * 2^16
    rng, state, times = RngStream(21, 0), PhaseState(0.3, 0.5), []
    for k in range(step_count(0.35, params.h)):
        t0 = k * params.h
        rng.jump_to(k * STEP_COUNTER_STRIDE)
        res = confined_step(dom, state, params, 1.0, rng, h=min(params.h, 0.35 - t0))
        state = res.state
        times += (t0 + res.hits.time).tolist()
    assert X[0] == state.x
    assert U[0] == state.u
    assert hits.time.tolist() == times
    # the end state is the one kept after the last, short step, at grid time T
    assert step_time(n, 0.35, params.h) == 0.35
    assert snaps[n][0][0] == state.x and snaps[n][1][0] == state.u


def test_snapshot_times_name_the_steps_they_follow():
    # T = 0.502 takes 101 steps of h = 0.005, the last one 0.002 long
    T, h = 0.502, 0.005
    assert step_count(T, h) == 101
    steps = [snapshot_step(t, T, h) for t in (0.1, 0.1001, 0.502)]
    assert steps == [20, 20, 101]
    assert step_time(20, T, h) == 20 * h and step_time(101, T, h) == T
    r = np.random.default_rng(14)
    dom, model = Interval(1.0), KineticModel(sigma=1.0, b="tanh(1)")
    cfg = DriftEstimatorConfig(probes=17)
    X, U, snaps, _ = run_mckean(dom, r.uniform(0, 1, 100), r.normal(size=100), model, cfg,
                                T, StepParams(h=h), seed=5, snapshot_steps=steps)
    assert sorted(snaps) == [20, 101]
    assert np.array_equal(snaps[101][0], X) and np.array_equal(snaps[101][1], U)
    assert not np.array_equal(snaps[20][0], X)
    for k in snaps:
        grid, values = drift_field(dom, Ensemble(*snaps[k]), model, cfg)
        assert grid.shape == values.shape == (17,)


def test_zero_drift_run_is_the_linear_ensemble():
    # one march: with b = 0 the McKean march is run_ensemble, hit times
    # included (k * h plus the time within step k, not a running sum of h)
    r = np.random.default_rng(12)
    X0, U0 = r.uniform(0.0, 1.0, 200), r.normal(size=200)
    dom = Interval(1.0)
    params = StepParams(h=0.02)
    steps = (0, 5, 15, 25)
    Xm, Um, run_snaps, hits = run_mckean(
        dom, X0, U0, KineticModel(sigma=1.0, b="zero"), DriftEstimatorConfig(),
        0.5, params, seed=37, snapshot_steps=steps,
    )
    X, U, snaps, ref_hits = run_ensemble(
        dom, X0, U0, 0.5, params, 1.0, 37, snapshot_steps=steps
    )
    assert np.array_equal(Xm, X)
    assert np.array_equal(Um, U)
    assert sorted(run_snaps) == sorted(snaps) == list(steps)
    for k, (Xs, Us) in snaps.items():
        assert np.array_equal(run_snaps[k][0], Xs)
        assert np.array_equal(run_snaps[k][1], Us)
    assert len(ref_hits) > 50
    for f in fields(HitLog):
        assert np.array_equal(getattr(hits, f.name), getattr(ref_hits, f.name)), f.name


def test_run_snapshots_and_fields():
    r = np.random.default_rng(11)
    dom = Interval(1.0)
    X0, U0 = r.uniform(0, 1, 150), r.normal(size=150)
    model, cfg = KineticModel(sigma=1.0, b="tanh(1)"), DriftEstimatorConfig()
    run = run_mckean(dom, X0, U0, model, cfg, 0.2, StepParams(h=0.05), seed=23,
                     snapshot_steps=(0, 2, 4))
    # the march's own result: end states, snapshots by step, hit log
    assert isinstance(run, tuple) and len(run) == 4
    X, U, snaps, hits = run
    assert isinstance(hits, HitLog)
    assert sorted(snaps) == [0, 2, 4]
    assert np.array_equal(snaps[0][0], X0) and np.array_equal(snaps[0][1], U0)
    assert step_time(2, 0.2, 0.05) == pytest.approx(0.1)
    grid, vals = drift_field(dom, Ensemble(*snaps[4]), model, cfg)
    assert grid.shape == vals.shape == (257,)
    assert np.abs(vals).max() <= 1.0


def test_run_is_deterministic_given_seed():
    def sampler(n, seed):
        r = np.random.default_rng(seed)
        return r.uniform(0, 1, n), r.normal(size=n)

    dom = Interval(1.0)
    kw = dict(
        model=KineticModel(sigma=1.0, b="tanh(1)"),
        cfg=DriftEstimatorConfig(),
        T=0.1,
        params=StepParams(h=0.05),
        seed=29,
    )
    a = run_mckean(dom, *sampler(120, 29), **kw)
    b = run_mckean(dom, *sampler(120, 29), **kw)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_exterior_initial_rejected():
    # the march's one start check: outside, or on the wall not moving in
    ball = Ball((0.0, 0.0), 1.0)
    cases = [
        (Interval(1.0), [0.3, 1.5], [0.0, 0.0]),
        (Interval(1.0), [0.3, 1.0], [0.0, 0.5]),
        (Interval(1.0), [0.3, 0.0], [0.0, 0.0]),
        (ball, [[0.0, 0.0], [1.2, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]),
        (ball, [[0.0, 0.0], [0.6, 0.8]], [[0.0, 0.0], [0.3, 0.4]]),
        (ball, [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
    ]
    for dom, X0, U0 in cases:
        with pytest.raises(InvalidStart) as info:
            run_mckean(
                dom,
                np.array(X0),
                np.array(U0),
                KineticModel(sigma=1.0),
                DriftEstimatorConfig(),
                0.1,
                StepParams(h=0.05),
                seed=1,
            )
        assert info.traceback[-1].name == "run_ensemble"


def test_ball_ensemble_runs_with_vector_drift():
    r = np.random.default_rng(14)
    dom = Ball((0.0, 0.0), 1.0)
    th = r.uniform(0, 2 * np.pi, 120)
    rad = 0.8 * np.sqrt(r.uniform(0, 1, 120))
    X = np.stack([rad * np.cos(th), rad * np.sin(th)], axis=1)
    U = r.normal(size=(120, 2))
    X1, _, _, _ = run_mckean(
        dom,
        X,
        U,
        KineticModel(sigma=1.0, b="tanh(1)"),
        DriftEstimatorConfig(probes=0),
        0.1,
        StepParams(h=0.05),
        seed=31,
    )
    assert np.all(dom.signed_distance(X1) <= 1e-10)


def test_wall_side_hit_symmetry():
    # symmetric initial law and odd drift make both walls statistically alike
    r = np.random.default_rng(5)
    dom = Interval(1.0)
    *_, hits = run_mckean(
        dom,
        r.uniform(0, 1, 1200),
        r.normal(size=1200),
        KineticModel(sigma=1.0, b="tanh(1)"),
        DriftEstimatorConfig(),
        0.4,
        StepParams(h=0.02),
        seed=5,
    )
    left = int(np.sum(hits.location == 0.0))
    right = int(np.sum(hits.location == 1.0))
    assert left + right > 300
    _, p = stats.chisquare([left, right])
    assert p > 0.01
