"""Every name a module exports through ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import ofdmsar

MODULES = sorted(m.name for m in pkgutil.iter_modules(ofdmsar.__path__, "ofdmsar."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
