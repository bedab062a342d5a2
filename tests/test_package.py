"""The package's public surface."""
from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
import types
from pathlib import Path

import teleportsim

ROOT = Path(__file__).resolve().parents[1]


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


def _definitions(tree: ast.Module):
    """Each module-level function, class and constant, and each non-dunder
    method, as (qualified name, name, class or None)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, None
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not name.startswith("__"):
                    yield name, name, None


def test_every_package_name_has_a_program_caller():
    # A name only the tests reach belongs in tests/. Identifiers are matched by
    # name alone: a read of any Name, Attribute or import alias of that name in
    # src/, scripts/ or bench/ counts, so a method can hide behind another
    # class's attribute of the same name. A definition is not a read.
    used = set()
    for path in (p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    exempt = set(teleportsim.__all__)
    unused = [
        f"{path.stem}.{qualified}"
        for path in sorted((ROOT / "src" / "teleportsim").glob("*.py"))
        for qualified, name, cls in _definitions(ast.parse(path.read_text()))
        if name not in used and name not in exempt and cls not in exempt
    ]
    assert not unused, f"package names with no caller outside tests/: {unused}"
