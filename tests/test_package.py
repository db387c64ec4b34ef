"""The package's public surface: `__all__` lists exactly what it exports."""

import types

import fibrekit


def test_all_matches_the_public_names():
    # a deletion that leaves a dangling __all__ entry, or an import that
    # never made it into __all__, fails here
    public = {
        name
        for name, value in vars(fibrekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(fibrekit.__all__) == sorted(public)
    namespace = {}
    exec("from fibrekit import *", namespace)
    assert public <= namespace.keys()
