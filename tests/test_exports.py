import importlib

import pytest

MODULES = ("cli", "config", "dataio", "forecast", "models", "neuralnet", "odeint", "svgplot", "symrec")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tumordyn.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
