"""What the benchmark under bench/ needs from the package.

The traced benchmark rebinds the public functions it times by module and
name, and its capture hooks read the arguments of the functions they trace
by parameter name;
the setup probes call the config functions by name; the bundle checks read
keys of picard.json and diagnostics.json and call picard_nonlinear by
keyword.  A refactor that renames or reroutes any of them breaks the
benchmark without failing a package test, so these tests read bench/
(without changing it) and check each name.
"""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

import speckin.cli  # what bench/run.py imports; it loads every traced module
from speckin import config
from speckin.langevin import ensemble_confined_step, step_count
from speckin.vfp import picard_nonlinear

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


def _attributes_of(path, owner):
    """Names read as `owner.<name>` anywhere in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    }


def _function(script, name):
    tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _keys_read(script, function):
    """{owner: keys} of the reads `owner["key"]` in a function of bench/,
    each owner as written, e.g. `grid` or `entries['mc_grid_L1']`."""
    keys = {}
    for node in ast.walk(_function(script, function)):
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            keys.setdefault(ast.unparse(node.value), set()).add(node.slice.value)
    return keys


def _small_scenario():
    return config.config_from_dict({
        "model": {"drift": "tanh(1.0)"},
        "initial": {"u_mean": 0.4},
        "numerics": {"grid": {"n_x": 16, "n_u": 32}, "step": {"h": 0.02},
                     "estimator": {"probes": 33}},
        "run": {"T": 0.1, "N": 200, "seed": 4},
    })


def test_traced_functions_resolve():
    for module_name, fn_name in tracing.TRACED:
        assert callable(getattr(getattr(speckin, module_name), fn_name)), (module_name, fn_name)


@pytest.mark.parametrize("script, owner", [("child.py", "config"), ("run.py", "C")])
def test_config_functions_called_by_bench_exist(script, owner):
    names = _attributes_of(BENCH / script, owner)
    assert names
    for name in names:
        assert callable(getattr(config, name, None)), f"speckin.config.{name}"


def _arguments_read(hook):
    """The keys a capture hook reads from its bound arguments, `a["key"]`."""
    return {
        node.slice.value
        for node in ast.walk(ast.parse(inspect.getsource(hook)))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "a"
        and isinstance(node.slice, ast.Constant)
    }


def _capture_hooks():
    """{traced function name: hook name} of the `hooks` table in tracing.traced."""
    table = next(node.value for node in ast.walk(ast.parse(inspect.getsource(tracing.traced)))
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "hooks")
    return {key.value: value.id for key, value in zip(table.keys, table.values)}


def test_capture_step_reads_parameters_of_the_step():
    read = _arguments_read(tracing._capture_step)
    assert {"X", "U", "step_index", "stream_ids", "h"} <= read
    assert read <= set(inspect.signature(ensemble_confined_step).parameters)


@pytest.mark.parametrize("fn_name, hook_name", sorted(_capture_hooks().items()))
def test_every_capture_hook_reads_parameters_of_its_function(fn_name, hook_name):
    # a hook's keys are the traced function's parameter names: renaming one
    # breaks only a traced bench run, and only where that call is made
    module_name = next(m for m, name in tracing.TRACED if name == fn_name)
    traced = getattr(getattr(speckin, module_name), fn_name)
    read = _arguments_read(getattr(tracing, hook_name))
    assert read <= set(inspect.signature(traced).parameters), (fn_name, read)


def test_every_capture_hook_is_checked():
    assert _capture_hooks() == {
        "ensemble_confined_step": "_capture_step",
        "conditional_drift": "_capture_drift",
        "normals_at": "_capture_normals",
        "picard_nonlinear": "_capture_picard",
    }
    assert _arguments_read(tracing._capture_drift) == {"ensemble"}
    assert _arguments_read(tracing._capture_picard) == {"grid", "rho0", "model", "weight"}


def test_traced_mckean_run_sees_every_step(tmp_path):
    # the march must call ensemble_confined_step through its module-global
    # name, or the traced run captures nothing and replays nothing
    cfg = config.config_from_dict({
        "model": {"drift": "tanh(1.0)"},
        "numerics": {"step": {"h": 0.02}, "estimator": {"probes": 33}},
        "run": {"T": 0.1, "N": 100, "seed": 4},
    })
    tracer, capture = tracing.Tracer(), tracing.Capture()
    with tracing.traced(tracer, capture):
        speckin.cli.run_scenario(cfg, "simulate-mckean", out_dir=tmp_path / "b")
    steps = step_count(cfg.run.T, cfg.numerics.step.h)
    assert tracer.count("mckean.run_mckean") == 1
    assert tracer.count("langevin.ensemble_confined_step") == len(capture.steps) == steps
    assert [s["k"] for s in capture.steps] == list(range(steps))
    assert capture.steps[-1]["X_out"].shape == (cfg.run.N,)
    replay = tracing.replay_particles(tracer, capture)
    assert replay["near"] > 0
    assert replay["mismatches"] == 0
    # the per-step confined_step replay finds every row of the run's hit table
    rows = (tmp_path / "b" / "hits.csv").read_text().splitlines()[1:]
    assert len(rows) > 0
    assert replay["hits"] == len(rows)


def test_picard_json_holds_the_keys_bench_reads(tmp_path):
    keys = _keys_read("run.py", "check_grid")
    assert {"converged", "iterates", "grid"} <= keys["picard"]
    bundle = speckin.cli.run_scenario(_small_scenario(), "solve-vfp",
                                      out_dir=tmp_path / "b")
    payload = json.loads((bundle.path / "picard.json").read_text())
    assert keys["picard"] <= set(payload)
    assert keys["grid"] and keys["grid"] <= set(payload["grid"])


def test_diagnostics_json_holds_the_keys_bench_reads(tmp_path):
    keys = _keys_read("run.py", "check_validate")
    assert {"picard_converged", "mc_grid_L1", "hit_count_stats"} <= keys["entries"]
    fields = set().union(*(k for owner, k in keys.items()
                           if owner in ("e", "l1") or owner.startswith("entries[")))
    assert {"name", "value", "tolerance", "passed"} <= fields
    bundle = speckin.cli.run_scenario(_small_scenario(), "validate",
                                      out_dir=tmp_path / "b")
    payload = json.loads((bundle.path / "diagnostics.json").read_text())
    assert keys["report"] <= set(payload)
    entries = {e["name"]: e for e in payload["entries"]}
    assert keys["entries"] <= set(entries)
    for name, entry in entries.items():
        assert fields <= set(entry), name


def test_picard_nonlinear_takes_what_bench_passes():
    call = next(node for node in ast.walk(_function("run.py", "predicted_hits"))
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "picard_nonlinear")
    passed = {kw.arg for kw in call.keywords}
    assert passed == {"tol", "max_iter", "weight", "lower", "upper"}
    params = list(inspect.signature(picard_nonlinear).parameters)
    assert passed <= set(params[len(call.args):])


def test_traced_grid_solve_replays_bit_for_bit(tmp_path):
    # cli must call picard_nonlinear through its module-global name, or the
    # traced run captures no solve and the frozen-drift replay checks nothing
    tracer, capture = tracing.Tracer(), tracing.Capture()
    with tracing.traced(tracer, capture):
        speckin.cli.run_scenario(_small_scenario(), "solve-vfp", out_dir=tmp_path / "b")
    assert tracer.count("vfp.picard_nonlinear") == 1
    assert capture.picard is not None
    replay = tracing.replay_linear_solve(tracer, capture)
    assert replay["matches"] is True


def test_bench_predicted_hits_match_the_validate_gate(tmp_path):
    # bench/run.py integrates the wall flux slice by slice through
    # SpecularResult.trace; validate's wall-flux gate reads the whole trace
    # stack. The trapezoid sums are ordered differently, so the two agree
    # to round-off, not bit for bit
    cfg = _small_scenario()
    path = tmp_path / "config.json"
    path.write_text(config.serialize_config(cfg), encoding="utf-8")
    solution = speckin.cli._solve_picard(cfg, config.build_weight(cfg))[0]
    want = speckin.cli._predicted_wall_hits(solution, cfg.run.N)
    assert want > 0
    bench_run = importlib.import_module("run")  # bench/run.py, its main not run
    assert bench_run.predicted_hits(path) == pytest.approx(want, rel=1e-12, abs=0)
