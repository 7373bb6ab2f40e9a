import importlib
import pkgutil

import pytest

import capgraph

MODULES = ["capgraph"] + [f"capgraph.{m.name}"
                          for m in pkgutil.iter_modules(capgraph.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
