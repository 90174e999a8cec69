"""The package root names only the package; the API lives in its modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_speckin_loads_no_submodule_numpy_or_scipy():
    probe = (
        "import sys, speckin\n"
        "assert isinstance(speckin.__version__, str), speckin.__version__\n"
        "print(sorted(m for m in sys.modules if m.startswith('speckin.')\n"
        "             or m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["diagnostics", "geometry", "mckean", "rng", "vfp"])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"speckin.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
