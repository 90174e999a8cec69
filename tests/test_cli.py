"""Config parsing, scenario builders, output bundles, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import speckin.cli
import speckin.diagnostics
import speckin.vfp
from speckin.cli import _solve_picard, main, run_scenario
from speckin.config import (
    build_domain,
    build_envelopes,
    build_grid,
    build_model,
    build_step_params,
    build_weight,
    config_from_dict,
    default_config,
    initial_density,
    parse_config,
    sample_initial,
    serialize_config,
)
from speckin.errors import ConstraintViolation, ParseError
from speckin.geometry import Annulus, Ball, Interval
from speckin.langevin import HitLog, StepParams, run_ensemble, step_count
from speckin.maxwellian import maxwellian_eval
from speckin.mckean import KineticModel
from speckin.vfp import envelope_excursions, trace_functionals


def small_scenario(tmp_path, **overrides):
    """Cheap interacting scenario; overrides merge shallowly per section."""
    raw = {
        "scenario": "test",
        "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
        "initial": {"s": 1.0, "u_mean": 0.4, "x_amplitude": 0.2},
        "numerics": {
            "grid": {"n_x": 16, "n_u": 32},
            "step": {"h": 0.02},
            "estimator": {"bandwidth": 0.15, "probes": 33},
        },
        "run": {"T": 0.1, "N": 200, "seed": 9, "out": str(tmp_path / "out")},
    }
    for section, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(section), dict):
            for k, v in value.items():
                if isinstance(v, dict) and isinstance(raw[section].get(k), dict):
                    raw[section][k].update(v)
                else:
                    raw[section][k] = v
        else:
            raw[section] = value
    return raw


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestParsing:
    def test_empty_dict_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg == default_config()
        assert cfg.domain.kind == "interval"
        assert cfg.model.drift == "zero"
        assert cfg.numerics.grid.n_x == 64
        assert cfg.run.seed == 0

    def test_defaults_fill_partial_sections(self):
        cfg = config_from_dict({"model": {"sigma": 0.5}})
        assert cfg.model.sigma == 0.5
        assert cfg.model.drift == "zero"
        assert cfg.numerics.envelope.pad == 0.1

    @pytest.mark.parametrize(
        "raw, needle",
        [
            ({"extra": 1}, "extra"),
            ({"model": {"sigma": 1.0, "sgima": 2.0}}, "sgima"),
            ({"numerics": {"grid": {"nx": 32}}}, "nx"),
            ({"run": {"tee": 0.1}}, "tee"),
        ],
    )
    def test_unknown_keys_rejected(self, raw, needle):
        with pytest.raises(ParseError, match=needle):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            {"model": "not an object"},
            {"model": {"sigma": "one"}},
            {"model": {"sigma": True}},
            {"numerics": {"grid": {"n_x": 32.0}}},
            {"run": {"snapshot_times": 0.1}},
            {"run": {"snapshot_times": ["soon"]}},
            {"domain": {"center": [0.0, "a"]}},
            {"scenario": 7},
        ],
    )
    def test_type_errors_are_parse_errors(self, raw):
        with pytest.raises(ParseError):
            config_from_dict(raw)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ParseError, match="JSON"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_config(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "raw, key, needle",
        [
            ({"numerics": {"weight": {"alpha": 1.0}}}, "numerics.weight.alpha", "max(d, 2) = 2"),
            ({"numerics": {"weight": {"alpha": 2.0}}}, "numerics.weight.alpha", "max(d, 2) = 2"),
            ({"numerics": {"envelope": {"mu_upper": 1.0}}}, "numerics.envelope.mu_upper", "(1/2, 1)"),
            ({"numerics": {"envelope": {"mu_lower": 1.0}}}, "numerics.envelope.mu_lower", "exceed 1"),
            ({"model": {"sigma": 0.0}}, "model.sigma", "positive"),
            ({"model": {"drift": "warp(3)"}}, "model.drift", "catalog"),
            ({"initial": {"s": 0.0}}, "initial.s", "positive"),
            ({"initial": {"x_amplitude": 1.0}}, "initial.x_amplitude", "positive"),
            ({"initial": {"x_mode": 0}}, "initial.x_mode", ">= 1"),
            ({"numerics": {"step": {"h": 0.0}}}, "numerics.step.h", "positive"),
            ({"numerics": {"grid": {"n_x": 4}}}, "numerics.grid.n_x", ">= 8"),
            ({"numerics": {"grid": {"n_u": 31}}}, "numerics.grid.n_u", "even"),
            ({"numerics": {"grid": {"dt_factor": 1.5}}}, "numerics.grid.dt_factor", "(0, 1]"),
            ({"numerics": {"estimator": {"kernel": "box"}}}, "numerics.estimator.kernel", "gaussian"),
            ({"numerics": {"estimator": {"bandwidth": 0.0}}}, "numerics.estimator.bandwidth", "positive"),
            ({"run": {"T": 0.0}}, "run.T", "positive"),
            ({"run": {"N": 0}}, "run.N", ">= 1"),
            ({"run": {"seed": -1}}, "run.seed", "2**64"),
            ({"run": {"seed": 1 << 64}}, "run.seed", "2**64"),
            ({"run": {"T": 0.5, "snapshot_times": [0.6]}}, "run.snapshot_times", "[0, T]"),
            ({"picard": {"tol": 0.0}}, "picard.tol", "positive"),
            ({"picard": {"max_iter": 0}}, "picard.max_iter", ">= 1"),
            ({"domain": {"kind": "cube"}}, "domain.kind", "interval"),
            ({"domain": {"length": -1.0}}, "domain.length", "positive"),
            (
                {"domain": {"kind": "annulus", "radius": 1.0, "inner_radius": 1.5}},
                "domain.inner_radius",
                "between 0 and radius",
            ),
            (
                {"domain": {"kind": "ball"}, "initial": {"x_amplitude": 0.5}},
                "initial.x_amplitude",
                "interval",
            ),
        ],
    )
    def test_constraints_name_key_and_rule(self, raw, key, needle):
        with pytest.raises(ConstraintViolation) as err:
            config_from_dict(raw)
        assert err.value.key == key
        assert needle in err.value.constraint


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "raw",
        [
            {},
            {
                "scenario": "rt",
                "model": {"sigma": 0.7, "drift": "clipped_linear(2.0, 1.5)"},
                "initial": {"s": 0.8, "u_mean": -0.3, "x_amplitude": 0.4, "x_mode": 2},
                "numerics": {
                    "grid": {"n_x": 32, "n_u": 64, "v_max": 6.5},
                    "step": {"h": 0.01, "delta_near": 0.05},
                    "estimator": {"bandwidth": 0.2, "kernel": "epanechnikov"},
                },
                "run": {"T": 0.25, "N": 50, "seed": 123, "snapshot_times": [0.0, 0.1]},
            },
            {"domain": {"kind": "ball", "center": [1.0, -2.0], "radius": 3.0}},
            {"domain": {"kind": "annulus", "radius": 2.0, "inner_radius": 0.5}},
        ],
    )
    def test_parse_serialize_round_trip(self, tmp_path, raw):
        first = config_from_dict(raw)
        path = write_config(tmp_path, json.loads(serialize_config(first)))
        second = parse_config(path)
        assert second == first
        assert serialize_config(second) == serialize_config(first)

    def test_serialized_form_lists_every_key(self):
        data = json.loads(serialize_config(default_config()))
        assert set(data) == {
            "scenario", "domain", "model", "initial", "numerics", "run", "picard",
        }
        assert set(data["numerics"]) == {
            "step", "grid", "estimator", "envelope", "weight",
        }

    def test_serialization_is_deterministic(self):
        cfg = config_from_dict({"run": {"seed": 5}})
        assert serialize_config(cfg) == serialize_config(cfg)


class TestBuilders:
    def test_domain_kinds(self):
        assert build_domain(config_from_dict({})) == Interval(1.0)
        ball = build_domain(config_from_dict({"domain": {"kind": "ball", "radius": 2.0}}))
        assert isinstance(ball, Ball) and ball.radius == 2.0
        ring = build_domain(
            config_from_dict(
                {"domain": {"kind": "annulus", "radius": 2.0, "inner_radius": 1.0}}
            )
        )
        assert isinstance(ring, Annulus)

    def test_grid_respects_every_cfl_limit(self):
        cfg = config_from_dict(
            {"model": {"sigma": 1.5, "drift": "sign"}, "run": {"T": 0.3}}
        )
        grid = build_grid(cfg)
        model = build_model(cfg)
        assert grid.v_max * grid.dt <= grid.dx * (1 + 1e-12)
        assert model.sigma**2 * grid.dt / (2 * grid.du**2) <= 1 + 1e-12
        assert model.b_norm * grid.dt <= grid.du * (1 + 1e-12)
        assert grid.n_steps * grid.dt == pytest.approx(cfg.run.T, rel=1e-12)

    def test_default_config_builds_the_defaults_of_the_built_classes(self):
        # the step and model sections read their defaults from StepParams
        # and KineticModel, so the two cannot drift apart
        cfg = default_config()
        assert build_step_params(cfg) == StepParams(h=0.005)
        assert build_model(cfg) == KineticModel(sigma=1.0)

    def test_grid_needs_interval(self):
        cfg = config_from_dict({"domain": {"kind": "ball"}})
        with pytest.raises(ConstraintViolation, match="interval"):
            build_grid(cfg)

    def test_grid_whose_history_cannot_fit_is_refused(self):
        # one history of this grid is ~5e15 bytes; only the grid is built
        cfg = config_from_dict({"numerics": {"grid": {"n_x": 32768, "n_u": 32768}}})
        refused = r"[0-9.]+ MB, more than the [0-9.]+ MB"
        with pytest.raises(ConstraintViolation, match=refused) as err:
            build_grid(cfg)
        assert err.value.key == "numerics.grid"

    def test_initial_density_mass_and_sandwich(self):
        cfg = config_from_dict(
            {"initial": {"s": 0.8, "u_mean": 0.5, "x_amplitude": 0.4}}
        )
        lower, upper = build_envelopes(cfg)
        grid = build_grid(cfg, upper)
        rho = initial_density(cfg, grid)
        assert grid.cell_mass(rho) == pytest.approx(1.0, rel=1e-12)
        p_lo = maxwellian_eval(lower, 0.0, grid.u)
        p_up = maxwellian_eval(upper, 0.0, grid.u)
        assert np.all(rho <= p_up[None, :] + 1e-12)
        assert np.all(rho >= p_lo[None, :] - 1e-12)

    def test_sample_initial_deterministic_and_in_domain(self):
        cfg = config_from_dict({"initial": {"x_amplitude": 0.5, "u_mean": 0.3}})
        X1, U1 = sample_initial(cfg, 4000, seed=7)
        X2, U2 = sample_initial(cfg, 4000, seed=7)
        assert np.array_equal(X1, X2) and np.array_equal(U1, U2)
        assert X1.shape == (4000,) and U1.shape == (4000,)
        assert np.all((X1 >= 0) & (X1 <= 1.0))
        # positive modulation at mode 1 pushes mass toward the left wall
        assert np.cos(2 * math.pi * X1).mean() > 0.1
        assert abs(U1.mean() - 0.3) < 0.1

    def test_sample_initial_other_seed_differs(self):
        cfg = config_from_dict({})
        X1, _ = sample_initial(cfg, 100, seed=1)
        X2, _ = sample_initial(cfg, 100, seed=2)
        assert not np.array_equal(X1, X2)

    def test_sample_initial_ball(self):
        cfg = config_from_dict({"domain": {"kind": "ball", "radius": 2.0}})
        X, U = sample_initial(cfg, 500, seed=3)
        assert X.shape == (500, 2) and U.shape == (500, 2)
        assert np.all(np.linalg.norm(X, axis=1) <= 2.0)


class TestBundles:
    def test_simulate_linear_bundle(self, tmp_path):
        raw = small_scenario(tmp_path, run={"snapshot_times": [0.06]})
        cfg = config_from_dict(raw)
        bundle = run_scenario(cfg, "simulate-linear", out_dir=tmp_path / "b")
        assert bundle.passed
        names = set(read_tree(bundle.path))
        assert names == {"config.json", "paths.csv", "hits.csv", "manifest.json"}

        lines = (bundle.path / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,x,u"
        assert len(lines) == 1 + 3 * cfg.run.N  # t = 0, 0.06, 0.1
        cells = lines[1].split(",")
        assert len(cells) == 4 and 0.0 <= float(cells[2]) <= 1.0

        hits = (bundle.path / "hits.csv").read_text().splitlines()
        assert hits[0] == "path_id,tau,x,u_pre,u_post"
        for line in hits[1:]:
            row = line.split(",")
            tau, x, u_pre, u_post = map(float, row[1:])
            assert 0.0 <= tau <= cfg.run.T
            assert x in (0.0, 1.0)
            # specular wall rule in one dimension
            assert u_post == pytest.approx(-u_pre, rel=1e-12)

        manifest = json.loads((bundle.path / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate-linear"
        assert manifest["seed"] == cfg.run.seed
        assert set(manifest["files"]) == names - {"manifest.json"}

    def test_default_solve_vfp_ends_at_horizon(self, tmp_path):
        bundle = run_scenario(default_config(), "solve-vfp", out_dir=tmp_path / "b")
        for name in ("field.csv", "traces.csv"):
            rows = (bundle.path / name).read_text().splitlines()[1:]
            assert {row.split(",")[0] for row in rows} == {"0", "0.5"}
            assert rows[-1].split(",")[0] == "0.5"

    def test_manifest_hashes_files(self, tmp_path):
        import hashlib

        cfg = config_from_dict(small_scenario(tmp_path, run={"N": 50}))
        bundle = run_scenario(cfg, "simulate-linear", out_dir=tmp_path / "b")
        for name, digest in bundle.manifest["files"].items():
            data = (bundle.path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        config_bytes = (bundle.path / "config.json").read_bytes()
        assert (
            bundle.manifest["config_sha256"]
            == hashlib.sha256(config_bytes).hexdigest()
        )

    def test_linear_zero_drift_matches_plain_ensemble(self, tmp_path):
        from speckin.cli import _march_linear
        from speckin.config import build_step_params

        raw = small_scenario(tmp_path, model={"drift": "zero"}, run={"N": 120})
        cfg = config_from_dict(raw)
        end = step_count(cfg.run.T, cfg.numerics.step.h)
        X1, U1, snapshots, hits = _march_linear(cfg, [end])
        X0, U0 = sample_initial(cfg, cfg.run.N, cfg.run.seed)
        X, U, _, ref_hits = run_ensemble(
            build_domain(cfg), X0, U0, cfg.run.T, build_step_params(cfg),
            cfg.model.sigma, cfg.run.seed,
        )
        assert np.array_equal(X1, X) and np.array_equal(U1, U)
        assert np.array_equal(snapshots[end][0], X)
        assert np.array_equal(snapshots[end][1], U)
        assert len(hits) > 0
        for f in fields(HitLog):
            assert np.array_equal(getattr(hits, f.name), getattr(ref_hits, f.name)), f.name

    def test_simulate_mckean_bundle(self, tmp_path):
        cfg = config_from_dict(small_scenario(tmp_path))
        bundle = run_scenario(cfg, "simulate-mckean", out_dir=tmp_path / "b")
        assert bundle.passed
        names = set(read_tree(bundle.path))
        assert "drift.csv" in names
        lines = (bundle.path / "drift.csv").read_text().splitlines()
        assert lines[0] == "t,x,B"
        values = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert np.abs(values).max() <= 1.0 + 1e-12  # tanh drift is bounded by 1

    def test_solve_vfp_bundle(self, tmp_path):
        cfg = config_from_dict(small_scenario(tmp_path, run={"snapshot_times": [0.05]}))
        bundle = run_scenario(cfg, "solve-vfp", out_dir=tmp_path / "b")
        assert bundle.passed
        payload = json.loads((bundle.path / "picard.json").read_text())
        assert payload["converged"] is True and payload["iterates"] == 1
        assert "distances" not in payload
        assert payload["grid"]["n_x"] == 16

        lines = (bundle.path / "field.csv").read_text().splitlines()
        assert lines[0] == "t,x,u,rho"
        data = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
        cell = (1.0 / 16) * (2 * payload["grid"]["v_max"] / 32)
        for t in np.unique(data[:, 0]):
            mass = data[data[:, 0] == t, 3].sum() * cell
            assert mass == pytest.approx(1.0, abs=1e-8)

        traces = (bundle.path / "traces.csv").read_text().splitlines()
        assert traces[0] == "t,wall,u,gamma"
        assert len(traces) == 1 + 3 * 2 * 32  # three times, two walls

    def test_output_times_on_one_step_are_written_once_at_its_grid_time(self, tmp_path):
        # 0.0101 and 0.0102 both lie nearest step 2 of h = 0.005, at t = 0.01
        cfg = config_from_dict(small_scenario(
            tmp_path, numerics={"step": {"h": 0.005}},
            run={"T": 0.02, "N": 50, "snapshot_times": [0.0101, 0.0102]},
        ))

        def times(bundle, name, column=0):
            lines = (bundle.path / name).read_text().splitlines()[1:]
            return [float(line.split(",")[column]) for line in lines]

        for subcommand in ("simulate-linear", "simulate-mckean"):
            bundle = run_scenario(cfg, subcommand, out_dir=tmp_path / subcommand)
            t = times(bundle, "paths.csv", column=1)
            assert sorted(set(t)) == [0.0, 0.01, 0.02]
            assert len(t) == 3 * cfg.run.N
        t = times(bundle, "drift.csv")
        assert sorted(set(t)) == [0.0, 0.01, 0.02]
        assert len(t) == 3 * t.count(0.0)

        bundle = run_scenario(cfg, "solve-vfp", out_dir=tmp_path / "grid")
        grid = json.loads((bundle.path / "picard.json").read_text())["grid"]
        cell = (1.0 / grid["n_x"]) * (2 * grid["v_max"] / grid["n_u"])
        data = np.loadtxt(bundle.path / "field.csv", delimiter=",", skiprows=1)
        steps = np.unique(data[:, 0])
        assert len(steps) == 3 and len(data) == 3 * grid["n_x"] * grid["n_u"]
        assert abs(steps[1] - 0.0101) <= 0.5 * grid["dt"] + 1e-12
        for t in steps:
            assert data[data[:, 0] == t, 3].sum() * cell == pytest.approx(1.0, abs=1e-8)
        assert len(times(bundle, "traces.csv")) == 3 * 2 * grid["n_u"]

    @staticmethod
    def _validate_scenario(tmp_path):
        return config_from_dict(small_scenario(
            tmp_path,
            model={"drift": "zero"},
            initial={"u_mean": 0.0, "x_amplitude": 0.2},
            numerics={"grid": {"n_x": 32, "n_u": 64}},
            run={"T": 0.2, "N": 2000},
        ))

    @staticmethod
    def _hit_entry(bundle):
        payload = json.loads((bundle.path / "diagnostics.json").read_text())
        return next(e for e in payload["entries"] if e["name"] == "hit_count_stats")

    def test_validate_bundle_passes(self, tmp_path, capsys):
        cfg = self._validate_scenario(tmp_path)
        bundle = run_scenario(cfg, "validate", out_dir=tmp_path / "b")
        table = capsys.readouterr().out
        assert "overall" in table
        assert bundle.passed, table
        payload = json.loads((bundle.path / "diagnostics.json").read_text())
        names = {entry["name"] for entry in payload["entries"]}
        assert {
            "picard_converged",
            "no_permeability_residual",
            "energy_residual",
            "sandwich_violation",
            "semigroup_l2_margin",
            "mc_grid_L1",
            "hit_count_stats",
        } <= names
        assert all(entry["passed"] for entry in payload["entries"])

        # the wall-flux gate: logged hits against the grid's outgoing flux,
        # N * sum over walls of half the speed mass, integrated in time
        entry = self._hit_entry(bundle)
        found = re.search(r"grid flux predicts ([0-9.]+) hits, z=(-?[0-9.]+)", entry["detail"])
        assert found is not None, entry["detail"]
        predicted, z = float(found.group(1)), float(found.group(2))
        sol = _solve_picard(cfg)[0]
        rate = np.array([0.5 * trace_functionals(sol.trace(k), sol.grid)["speed_mass"].sum()
                         for k in range(len(sol.times))])
        want = cfg.run.N * float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(sol.times)))
        assert predicted == pytest.approx(want, abs=0.05)
        assert z == pytest.approx((entry["value"] - want) / math.sqrt(want), abs=0.005)
        assert abs(z) <= speckin.cli.WALL_FLUX_SIGMAS

    def test_validate_reads_the_sandwich_from_its_solve(self, tmp_path, monkeypatch, capsys):
        # the solve's report carries the sandwich, so validate scans no
        # history for it again; its solve keeps the energy ledgers in the
        # configured weight, and solve-vfp's keeps none
        cfg = self._validate_scenario(tmp_path)
        want = run_scenario(cfg, "validate", out_dir=tmp_path / "want")
        weights = []
        solve = speckin.cli.picard_nonlinear

        def recorded(*args, **kwargs):
            weights.append(kwargs["weight"])
            return solve(*args, **kwargs)

        def rescan(*args, **kwargs):
            raise AssertionError("a history was scanned for the sandwich again")

        monkeypatch.setattr(speckin.cli, "picard_nonlinear", recorded)
        monkeypatch.setattr(speckin.diagnostics, "envelope_excursions", rescan)
        got = run_scenario(cfg, "validate", out_dir=tmp_path / "got")
        run_scenario(cfg, "solve-vfp", out_dir=tmp_path / "vfp")
        assert got.passed and got.manifest["files"] == want.manifest["files"]
        assert weights == [build_weight(cfg), None]

    def test_validate_flux_gate_catches_lost_hits(self, tmp_path, monkeypatch, capsys):
        # dropping every other hit keeps each logged event valid, so only the
        # grid's flux prediction can notice the deficit
        real = speckin.cli.run_mckean

        def lossy(*args, **kwargs):
            X, U, snapshots, hits = real(*args, **kwargs)
            return X, U, snapshots, HitLog(*(getattr(hits, f.name)[::2] for f in fields(HitLog)))

        monkeypatch.setattr(speckin.cli, "run_mckean", lossy)
        bundle = run_scenario(self._validate_scenario(tmp_path), "validate",
                              out_dir=tmp_path / "b")
        entry = self._hit_entry(bundle)
        assert not entry["passed"] and not bundle.passed
        assert "antisymmetry 0.000e+00" in entry["detail"]
        z = float(re.search(r"z=(-?[0-9.]+)$", entry["detail"]).group(1))
        assert z < -speckin.cli.WALL_FLUX_SIGMAS

    def test_validate_sandwich_gate_catches_absorbing_walls(self, tmp_path, monkeypatch, capsys):
        # both specular ghosts set to 0: the walls absorb, the density falls
        # below the lower envelope, and the sandwich entry must fail on that
        # side alone; the resolution-scaled slack it had before could not
        cfg = config_from_dict({
            "scenario": "cross-validation",
            "model": {"sigma": 1.0, "drift": "tanh(1.0)"},
            "initial": {"s": 1.0, "u_mean": 0.8},
            "numerics": {"grid": {"n_x": 32, "n_u": 64}, "step": {"h": 0.005}},
            "run": {"T": 0.5, "N": 400, "seed": 3},
        })

        def absorbing(values, weights, out=None, work=None):
            theta, keep = weights
            half = values.shape[1] // 2
            up = np.empty_like(values) if out is None else out
            up[1:, half:] = values[:-1, half:]
            up[0, half:] = 0.0
            up[:-1, :half] = values[1:, :half]
            up[-1, :half] = 0.0
            up *= theta
            up += keep * values
            return up

        def sandwich_entry(out):
            bundle = run_scenario(cfg, "validate", out_dir=tmp_path / out)
            payload = json.loads((bundle.path / "diagnostics.json").read_text())
            return next(e for e in payload["entries"] if e["name"] == "sandwich_violation")

        kept = sandwich_entry("specular")
        assert kept["passed"] and kept["value"] == 0.0
        monkeypatch.setattr(speckin.vfp, "_transport_specular", absorbing)
        entry = sandwich_entry("absorbing")
        assert not entry["passed"]
        assert entry["value"] > 1e9 * entry["tolerance"]
        solution, _ = _solve_picard(cfg)
        grid = solution.grid
        lower, upper = build_envelopes(cfg)
        below, above, peak = envelope_excursions(solution.fields, grid, lower, upper)
        assert entry["value"] == below > 0.05 and above == 0.0
        assert below < 10.0 * (grid.dx + grid.du + grid.dt) * peak

    def test_unknown_subcommand_rejected(self, tmp_path):
        cfg = config_from_dict(small_scenario(tmp_path))
        with pytest.raises(ValueError, match="unknown subcommand"):
            run_scenario(cfg, "simulate-warp", out_dir=tmp_path / "b")


class TestMain:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 64
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["simulate-warp"]) == 64

    def test_bad_flag_values_are_usage_errors(self, tmp_path):
        path = write_config(tmp_path, small_scenario(tmp_path))
        base = ["simulate-linear", "--config", str(path)]
        assert main(base + ["--threads", "0"]) == 64
        assert main(base + ["--seed", "-3"]) == 64

    def test_missing_config_is_execution_error(self, tmp_path, capsys):
        assert main(["simulate-linear", "--config", str(tmp_path / "no.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_constraint_violation_is_execution_error(self, tmp_path, capsys):
        raw = small_scenario(tmp_path, numerics={"weight": {"alpha": 1.0}})
        path = write_config(tmp_path, raw)
        assert main(["solve-vfp", "--config", str(path)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_success_returns_zero(self, tmp_path):
        raw = small_scenario(tmp_path, run={"N": 60})
        path = write_config(tmp_path, raw)
        out = tmp_path / "bundle"
        assert main(["simulate-linear", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_picard_tol_and_max_iter_change_no_grid_output(self, tmp_path):
        # one causal march meets any tol > 0 in one pass: the tightest
        # settings write the grid files of the defaults, byte for byte
        bundles = []
        for name, picard in (("tight", {"tol": 1e-16, "max_iter": 1}), ("default", {})):
            path = write_config(tmp_path, small_scenario(tmp_path, picard=picard), f"{name}.json")
            out = tmp_path / name
            assert main(["solve-vfp", "--config", str(path), "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["passed"] is True
            bundles.append(out)
        for name in ("picard.json", "field.csv", "traces.csv"):
            assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes(), name

    def test_report_that_did_not_converge_exits_2(self, tmp_path, monkeypatch):
        # solve-vfp passes on the report's flag: false fails the bundle
        real = speckin.cli.picard_nonlinear

        def unconverged(*args, **kwargs):
            result = real(*args, **kwargs)
            result.report.converged = False
            return result

        monkeypatch.setattr(speckin.cli, "picard_nonlinear", unconverged)
        path = write_config(tmp_path, small_scenario(tmp_path))
        out = tmp_path / "bundle"
        assert main(["solve-vfp", "--config", str(path), "--out", str(out)]) == 2
        assert json.loads((out / "picard.json").read_text())["converged"] is False
        assert json.loads((out / "manifest.json").read_text())["passed"] is False

    def test_seed_override_lands_in_bundle(self, tmp_path):
        path = write_config(tmp_path, small_scenario(tmp_path, run={"N": 40}))
        out = tmp_path / "bundle"
        code = main(
            ["simulate-linear", "--config", str(path), "--seed", "77", "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 77
        assert json.loads((out / "config.json").read_text())["run"]["seed"] == 77


    @pytest.mark.parametrize("kind", ["ball", "annulus"])
    def test_3d_radial_domain_runs_on_defaults(self, tmp_path, kind, capsys):
        domain = {"kind": kind, "center": [0.0, 0.0, 0.0]}
        assert config_from_dict({"domain": domain}).domain.dimension == 3
        path = write_config(tmp_path, {"domain": domain, "run": {"N": 50, "T": 0.05}})
        out = tmp_path / "bundle"
        assert main(["simulate-linear", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        # the grid, the one user of the weight, still refuses the domain
        capsys.readouterr()
        assert main(["solve-vfp", "--config", str(path), "--out", str(tmp_path / "g")]) == 1
        assert "domain.kind" in capsys.readouterr().err

    @staticmethod
    def _python_m(module, *args, cwd=None):
        """`python -W error::RuntimeWarning -m module args` in a fresh interpreter."""
        src = str(Path(speckin.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, *args],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=100,
        )

    def test_python_dash_m_speckin_runs_the_command_line_once(self, tmp_path):
        path = write_config(tmp_path, small_scenario(tmp_path, run={"N": 40}))
        out = tmp_path / "bundle"
        done = self._python_m("speckin", "simulate-linear", "--config", str(path),
                              "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert (out / "manifest.json").exists()

    def test_python_dash_m_speckin_cli_is_a_usage_error(self, tmp_path):
        # the library module runs no subcommand, and must not exit 0 as if it had
        done = self._python_m("speckin.cli", "simulate-linear", "--out", "D", cwd=tmp_path)
        assert done.returncode == 64, (done.stdout, done.stderr)
        assert not (tmp_path / "D").exists()
        assert "python -m speckin" in done.stderr


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, small_scenario(tmp_path, run={"N": 150}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate-mckean", "--config", str(path), "--out", str(out)]) == 0
            outs.append(read_tree(out))
        assert outs[0] == outs[1]

    def test_threads_do_not_change_bytes(self, tmp_path):
        path = write_config(tmp_path, small_scenario(tmp_path, run={"N": 150}))
        trees = {}
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            code = main(
                [
                    "simulate-mckean",
                    "--config", str(path),
                    "--out", str(out),
                    "--threads", str(threads),
                ]
            )
            assert code == 0
            trees[threads] = read_tree(out)
        assert trees[1] == trees[2] == trees[8]

    def test_reused_out_directory_lists_only_this_runs_files(self, tmp_path):
        # simulate-mckean leaves drift.csv behind; a simulate-linear bundle
        # written over it must have the manifest of one in a fresh directory
        path = write_config(tmp_path, small_scenario(tmp_path, run={"N": 80}))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["simulate-mckean", "--config", str(path), "--out", str(reused)]) == 0
        drift = (reused / "drift.csv").read_bytes()
        for out in (reused, fresh):
            assert main(["simulate-linear", "--config", str(path), "--out", str(out)]) == 0
        assert (reused / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes()
        assert (reused / "drift.csv").read_bytes() == drift  # left on disk, untouched

    def test_seed_changes_bytes(self, tmp_path):
        path = write_config(tmp_path, small_scenario(tmp_path, run={"N": 80}))
        trees = {}
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            main(
                ["simulate-linear", "--config", str(path), "--seed", str(seed), "--out", str(out)]
            )
            trees[seed] = read_tree(out)
        assert trees[1]["paths.csv"] != trees[2]["paths.csv"]

    def test_floats_round_trip_17_digits(self, tmp_path):
        cfg = config_from_dict(small_scenario(tmp_path, run={"N": 30}))
        bundle = run_scenario(cfg, "simulate-linear", out_dir=tmp_path / "b")
        lines = (bundle.path / "paths.csv").read_text().splitlines()
        X0, _ = sample_initial(cfg, cfg.run.N, cfg.run.seed)
        got = [float(l.split(",")[2]) for l in lines[1 : 1 + cfg.run.N]]
        assert got == [float(x) for x in X0]

    def test_csv_cells_are_17_digit_doubles(self, tmp_path):
        # the row template writes what per-cell format(float(v), ".17g") writes,
        # on the special values and on doubles drawn across the whole range
        gen = np.random.default_rng(11)
        bits = gen.integers(0, 2**63, 2000, dtype=np.uint64) | (
            gen.integers(0, 2, 2000, dtype=np.uint64) << np.uint64(63)
        )
        values = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0, 3, np.float32(0.1)]
        values += bits.view(np.float64).tolist() + list(gen.standard_normal(10))
        rows = [(str(i), v, np.float64(v) * 0.5) for i, v in enumerate(values)]
        a = np.array(values, dtype=float)
        block = np.column_stack((np.arange(len(values)), a, a * 0.5))
        path = tmp_path / "cells.csv"
        speckin.cli._write_csv(path, ["path_id", "a", "b"], [block[:1000], block[1000:]])
        want = "path_id,a,b\n" + "".join(
            ",".join(c if isinstance(c, str) else format(float(c), ".17g") for c in row) + "\n"
            for row in rows
        )
        assert path.read_bytes() == want.encode("utf-8")
        speckin.cli._write_csv(path, ["t"], [])
        assert path.read_bytes() == b"t\n"
