import importlib

import pytest

MODULES = ["cli", "experiments", "magnus", "model", "operators", "optimize", "pulses"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"xtalksim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
