import importlib
import pkgutil

import pytest

import chutelat

# every module of the package but the ``python -m`` entry point
MODULES = sorted(
    f"chutelat.{info.name}" for info in pkgutil.iter_modules(chutelat.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["chutelat"] + MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *`` and misleads readers of the API
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(exports) == len(set(exports)), name
    missing = [export for export in exports if not hasattr(module, export)]
    assert missing == [], name
