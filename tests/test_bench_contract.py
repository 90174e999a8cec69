"""What the benchmark under bench/ needs from the package.

The traced benchmark rebinds the public functions it times by module and
name and reads the arguments of ensemble_confined_step by parameter name;
the setup probes call the config functions by name.  A refactor that renames
or reroutes any of them breaks the benchmark without failing a package test,
so these tests read bench/ (without changing it) and check each name.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import speckin.cli  # what bench/run.py imports; it loads every traced module
from speckin import config
from speckin.langevin import ensemble_confined_step, step_count

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


def test_traced_functions_resolve():
    for module_name, fn_name in tracing.TRACED:
        assert callable(getattr(getattr(speckin, module_name), fn_name)), (module_name, fn_name)


@pytest.mark.parametrize("script, owner", [("child.py", "config"), ("run.py", "C")])
def test_config_functions_called_by_bench_exist(script, owner):
    names = _attributes_of(BENCH / script, owner)
    assert names
    for name in names:
        assert callable(getattr(config, name, None)), f"speckin.config.{name}"


def test_capture_step_reads_parameters_of_the_step():
    tree = ast.parse(inspect.getsource(tracing._capture_step))
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "a"
        and isinstance(node.slice, ast.Constant)
    }
    assert {"X", "U", "step_index", "stream_ids", "h"} <= read
    assert read <= set(inspect.signature(ensemble_confined_step).parameters)


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
