"""Every name a package module lists in `__all__` exists.

A deletion that removes a public name must remove it from `__all__` too:
this check imports each module and names the `__all__` entries it does not
define.
"""

import importlib
import types

import pytest

from test_imports import MODULES


def missing_exports(module: types.ModuleType) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_name_in_all_exists(path):
    name = "dsmsched" if path.stem == "__init__" else f"dsmsched.{path.stem}"
    assert missing_exports(importlib.import_module(name)) == []


def test_the_check_finds_a_missing_name():
    module = types.ModuleType("planted")
    exec("__all__ = ['kept', 'gone', 'Gone']\nkept = 1\nclass Other: pass\n", vars(module))
    assert missing_exports(module) == ["gone", "Gone"]
