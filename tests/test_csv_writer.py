"""Bundle CSV tables against the per-cell reference writers.

`reference_writers` keeps the writers that turned every cell into a Python
value, and the one-template writer that followed them; `speckin.cli` writes
each table from whole arrays through one writer, which formats the distinct
values of a repeated column once.  The bytes must be the same: on synthetic
tables in d = 1, 2 and 3 (several snapshots, row counts on both sides of a
format chunk, an empty hit log), on columns of every kind (distinct,
constant, repeated, both zeros, nan and inf, integer-valued), and on the
tables of real subcommand runs.
"""

import math

import numpy as np
import pytest

import reference_writers as ref
from test_cli import small_scenario
from speckin import cli
from speckin.config import build_domain, build_model, config_from_dict
from speckin.langevin import HitLog, step_time
from speckin.mckean import Ensemble, drift_field


def _values(gen, shape):
    """Normals with the special values mixed in."""
    v = gen.standard_normal(shape)
    flat = v.reshape(-1)
    specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0]
    flat[: len(specials)] = specials[: flat.size]
    return v


def _tables(gen, d, n_rows, times, n_hits=None):
    """Snapshots of n_rows particles at each time, and a hit table of n_hits
    rows, n_rows by default (columns of shape (n,) in d = 1, (n, d)
    otherwise, as the kernel makes them)."""
    shape = (n_rows,) if d == 1 else (n_rows, d)
    snapshots = {t: (_values(gen, shape), _values(gen, shape)) for t in times}
    n_hits = n_rows if n_hits is None else n_hits
    ids = np.sort(gen.integers(0, n_rows, n_hits)).astype(np.uint64)
    state = (n_hits,) if d == 1 else (n_hits, d)
    hits = HitLog(ids, gen.uniform(0.0, 1.0, n_hits),
                  *(gen.standard_normal(state) for _ in range(3)))
    return snapshots, hits


def _assert_particles_match(tmp_path, snapshots, hits, d):
    mine, want = tmp_path / "mine", tmp_path / "want"
    mine.mkdir()
    want.mkdir()
    cli._write_particles(mine, snapshots, hits, d)
    ref.write_paths_csv(want / "paths.csv", snapshots, d)
    ref.write_hits_csv(want / "hits.csv", hits, d)
    for name in ("paths.csv", "hits.csv"):
        assert (mine / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_particle_tables_match_reference(tmp_path, d):
    gen = np.random.default_rng(d)
    snapshots, hits = _tables(gen, d, 300, (0.5, 0.0, 0.25, 1.0 / 3.0))
    _assert_particles_match(tmp_path, snapshots, hits, d)


@pytest.mark.parametrize("n_rows", [cli.CSV_CHUNK_ROWS - 1, cli.CSV_CHUNK_ROWS,
                                    cli.CSV_CHUNK_ROWS + 1])
def test_row_counts_around_a_chunk_match_reference(tmp_path, n_rows):
    gen = np.random.default_rng(n_rows)
    snapshots, hits = _tables(gen, 2, n_rows, (0.0, 0.1))
    _assert_particles_match(tmp_path, snapshots, hits, 2)


@pytest.mark.parametrize("d", [1, 2])
def test_empty_hit_log_writes_the_header_alone(tmp_path, d):
    snapshots, hits = _tables(np.random.default_rng(0), d, 5, (0.0,), n_hits=0)
    _assert_particles_match(tmp_path, snapshots, hits, d)
    want = "path_id,tau," + ",".join(cli._columns(d, "x", "u_pre", "u_post")) + "\n"
    assert (tmp_path / "mine" / "hits.csv").read_text() == want


def _same_as_one_template(tmp_path, header, blocks):
    """cli's writer and the one-template writer on the same blocks."""
    cli._write_csv(tmp_path / "mine.csv", header, blocks)
    ref.write_csv_one_template(tmp_path / "want.csv", header, blocks)
    mine = (tmp_path / "mine.csv").read_bytes()
    assert mine == (tmp_path / "want.csv").read_bytes()
    return mine.decode()


def _slice_like(n_rows, labels, u, times, gen):
    """Blocks (t, label, u, value) as `solve-vfp` writes them: a constant
    column, a column of runs, a periodic column and a distinct one."""
    rows = len(labels) * len(u)
    reps = -(-n_rows // rows)
    return [np.column_stack((np.full(n_rows, t), np.tile(np.repeat(labels, len(u)), reps)[:n_rows],
                             np.tile(u, len(labels) * reps)[:n_rows],
                             gen.standard_normal(n_rows))) for t in times]


class TestRepeatedColumns:
    """Repeated columns are formatted once per distinct value in a chunk;
    the bytes are the one-template writer's."""

    def test_all_distinct_columns(self, tmp_path):
        gen = np.random.default_rng(1)
        _same_as_one_template(tmp_path, list("abcd"), [gen.standard_normal((700, 4))])

    def test_constant_and_repeated_columns(self, tmp_path):
        gen = np.random.default_rng(2)
        blocks = _slice_like(600, np.linspace(0.05, 0.95, 10), np.linspace(-3.0, 3.0, 30),
                             (0.0, 0.1, 1.0 / 3.0), gen)
        blocks.append(np.column_stack((np.full(50, 7.25), gen.standard_normal((50, 3)))))
        text = _same_as_one_template(tmp_path, ["t", "x", "u", "rho"], blocks)
        assert text.count("\n") == 1 + 3 * 600 + 50

    def test_zero_and_negative_zero_stay_apart(self, tmp_path):
        # one repeated column holding both zeros; keyed on the value, the
        # first one formatted would stand for both
        column = np.tile([0.0, -0.0, 1.5, -0.0], 100)
        block = np.column_stack((column, column[::-1], np.arange(400.0)))
        text = _same_as_one_template(tmp_path, ["a", "b", "i"], [block])
        assert text.startswith("a,b,i\n0,-0,0\n-0,1.5,1\n1.5,-0,2\n-0,0,3\n")

    def test_nan_and_inf(self, tmp_path):
        special = np.tile([math.nan, math.inf, -math.inf, 2.5], 200)
        gen = np.random.default_rng(3)
        mixed = gen.standard_normal(800)
        mixed[::7] = math.nan
        mixed[3::11] = -math.inf
        text = _same_as_one_template(tmp_path, ["s", "m"], [np.column_stack((special, mixed))])
        assert "nan" in text and "-inf" in text

    def test_integer_valued_floats(self, tmp_path):
        ids = np.repeat(np.arange(50.0), 8)
        big = np.tile([2.0**53, 1e16, -3.0, 1e17], 100)
        text = _same_as_one_template(tmp_path, ["id", "big", "i"],
                                     [np.column_stack((ids, big, np.arange(400.0)))])
        assert text.startswith("id,big,i\n0,9007199254740992,0\n0,10000000000000000,1\n")
        assert text.endswith("\n49,-3,398\n49,1e+17,399\n")

    @pytest.mark.parametrize("n_rows", [cli.CSV_CHUNK_ROWS - 1, cli.CSV_CHUNK_ROWS,
                                        cli.CSV_CHUNK_ROWS + 1])
    def test_row_counts_around_a_chunk(self, tmp_path, n_rows):
        gen = np.random.default_rng(n_rows)
        blocks = _slice_like(n_rows, np.linspace(0.0, 1.0, 7), np.linspace(-2.0, 2.0, 64),
                             (0.0, 0.5), gen)
        _same_as_one_template(tmp_path, ["t", "x", "u", "rho"], blocks)


def _scenario(tmp_path, **overrides):
    return config_from_dict(small_scenario(tmp_path, run={"snapshot_times": [0.04]}, **overrides))


def _same_file(tmp_path, bundle, name, write):
    path = tmp_path / f"want-{name}"
    write(path)
    assert (bundle.path / name).read_bytes() == path.read_bytes(), name


def _march(cfg, march):
    """The march's hit log and its states at the output steps, keyed by grid time."""
    T, h = cfg.run.T, cfg.numerics.step.h
    _, _, snapshots, hits = march(cfg, cli._output_steps(cfg, T, h))
    return {step_time(k, T, h): state for k, state in snapshots.items()}, hits


def test_simulate_mckean_tables_match_reference(tmp_path):
    cfg = _scenario(tmp_path)
    snapshots, hits = _march(cfg, cli._march_mckean)
    assert sorted(snapshots) == [0.0, 0.04, 0.1]
    domain, model = build_domain(cfg), build_model(cfg)
    drift_fields = {t: drift_field(domain, Ensemble(X, U), model, cfg.numerics.estimator)
                    for t, (X, U) in snapshots.items()}
    assert hits and all(f is not None for f in drift_fields.values())
    bundle = cli.run_scenario(cfg, "simulate-mckean", out_dir=tmp_path / "b")
    _same_file(tmp_path, bundle, "paths.csv", lambda p: ref.write_paths_csv(p, snapshots, 1))
    _same_file(tmp_path, bundle, "hits.csv", lambda p: ref.write_hits_csv(p, hits, 1))
    _same_file(tmp_path, bundle, "drift.csv",
               lambda p: ref.write_drift_csv(p, drift_fields))


def test_simulate_linear_tables_in_an_annulus_match_reference(tmp_path):
    cfg = _scenario(
        tmp_path,
        domain={"kind": "annulus", "center": [0.0, 0.0], "radius": 1.0, "inner_radius": 0.5},
        model={"drift": "zero"},
        initial={"x_amplitude": 0.0},
    )
    snapshots, hits = _march(cfg, cli._march_linear)
    d = cfg.domain.dimension
    assert hits and d == 2 and sorted(snapshots) == [0.0, 0.04, 0.1]
    bundle = cli.run_scenario(cfg, "simulate-linear", out_dir=tmp_path / "b")
    _same_file(tmp_path, bundle, "paths.csv", lambda p: ref.write_paths_csv(p, snapshots, d))
    _same_file(tmp_path, bundle, "hits.csv", lambda p: ref.write_hits_csv(p, hits, d))


def test_solve_vfp_tables_match_reference(tmp_path):
    cfg = _scenario(tmp_path)
    solution, _ = cli._solve_picard(cfg)
    grid = solution.grid
    steps = cli._output_steps(cfg, grid.horizon, grid.dt)
    bundle = cli.run_scenario(cfg, "solve-vfp", out_dir=tmp_path / "b")
    _same_file(tmp_path, bundle, "field.csv", lambda p: ref.write_slices_csv(
        p, ["t", "x", "u", "rho"], solution, solution.fields, solution.grid.x.tolist(), steps))
    _same_file(tmp_path, bundle, "traces.csv", lambda p: ref.write_slices_csv(
        p, ["t", "wall", "u", "gamma"], solution, solution.traces, ("0", "1"), steps))
