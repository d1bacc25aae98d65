import importlib
import types

import h2embed

# the library modules whose public names the package re-exports; fileio and
# cli are the command-line front end and stay behind their module names
LIBRARY_MODULES = (
    "errors", "polynomials", "symbols", "blaschke", "operators", "semigroups", "decisions",
    "verify",
)


def test_package_exports_are_the_modules_all():
    declared = set()
    for name in LIBRARY_MODULES:
        declared |= set(importlib.import_module(f"h2embed.{name}").__all__)
    public = {
        name for name, value in vars(h2embed).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == declared

