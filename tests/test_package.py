import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["cli", "experiments", "magnus", "model", "operators", "optimize", "pulses"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"xtalksim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: the Bessel coefficients come from
    # magnus's own recurrence.  A fresh interpreter, so that no other test's
    # import counts.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = "import sys, xtalksim.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "[]"
