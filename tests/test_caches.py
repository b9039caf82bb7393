"""Every cache in the package is bounded, so a long sweep holds a fixed
number of entries however many permutations it visits."""

import importlib
import inspect

import pytest

from chutelat import poset
from test_exports import MODULES

# guarded to n <= 6, so it holds at most six entries (see below)
UNBOUNDED = {"chutelat.poset._brute_force_all"}


def package_caches():
    """Each ``lru_cache`` defined in a module of the package, by dotted
    name: module-level functions and methods of the module's classes."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else ()
            for qual, fn in [(attr, obj), *((f"{attr}.{m}", f) for m, f in members)]:
                fn = getattr(fn, "__func__", fn)
                if hasattr(fn, "cache_info"):
                    found[f"{name}.{qual}"] = fn
    return found


def test_every_cache_is_bounded():
    caches = package_caches()
    # the finder sees module functions, methods and wrapped lambdas alike
    for name in ("chutelat.perm._diagram", "chutelat.perm.Permutation.inverse",
                 "chutelat.chute._shared_move", "chutelat.poset.cached_poset"):
        assert name in caches, name
    unbounded = sorted(name for name, fn in caches.items() if fn.cache_info().maxsize is None)
    assert unbounded == sorted(UNBOUNDED)


def test_brute_force_cache_is_bounded_by_its_guard():
    for n in range(1, 7):
        poset._brute_force_all(n)
    with pytest.raises(ValueError):
        poset._brute_force_all(7)
    assert poset._brute_force_all.cache_info().currsize <= 6
