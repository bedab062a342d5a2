"""The package's public surface."""
from __future__ import annotations

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
