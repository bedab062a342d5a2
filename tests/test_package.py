"""The package's public surface."""
from __future__ import annotations

import functools
import importlib
import pkgutil
import types

import teleportsim


def test_every_exported_name_resolves():
    for name in teleportsim.__all__:
        assert getattr(teleportsim, name) is not None, name
    assert len(set(teleportsim.__all__)) == len(teleportsim.__all__)


def test_teleport_is_still_the_module():
    # `from teleportsim import teleport` must give the engine module.
    assert isinstance(teleportsim.teleport, types.ModuleType)
    assert teleportsim.teleport.__name__ == "teleportsim.teleport"


def test_every_lru_cache_is_a_package_cache():
    # A memo left out of PACKAGE_CACHES survives clear_caches(), so a fault
    # injected after it was filled would go unseen. Class bodies are searched
    # too: a cached method is not a module attribute.
    lru_cache = type(functools.lru_cache(maxsize=None)(lambda: None))
    found = set()
    for info in pkgutil.iter_modules(teleportsim.__path__):
        module = importlib.import_module(f"teleportsim.{info.name}")
        for obj in vars(module).values():
            inner = vars(obj).values() if isinstance(obj, type) else ()
            found |= {
                getattr(o, "__func__", o) for o in (obj, *inner)
                if isinstance(getattr(o, "__func__", o), lru_cache)
            }
    assert found
    assert found <= set(teleportsim.PACKAGE_CACHES)
