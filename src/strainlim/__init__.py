"""Finite element simulator for strain-limiting viscoelastic solids."""

import importlib

__all__ = [
    "checks",
    "constitutive",
    "diagnostics",
    "driver",
    "dynamics",
    "fespace",
    "scenarios",
    "symtensor",
]


def __getattr__(name):
    # submodules load on first access, so `python -m strainlim.driver`
    # does not find its own module already imported by the package
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
