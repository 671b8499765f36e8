import importlib
import pkgutil

import pytest

import harr

MODULES = [
    importlib.import_module(f"harr.{m.name}") for m in pkgutil.iter_modules(harr.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_module_export_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_name_is_a_module_export():
    exported = set().union(*(m.__all__ for m in MODULES))
    modules = {m.__name__.rpartition(".")[2] for m in MODULES}
    public = {name for name in vars(harr) if not name.startswith("_")} - modules
    assert public - exported == set()
