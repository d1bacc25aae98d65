import importlib
import importlib.util
import types
from pathlib import Path

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



def test_traced_names_resolve():
    # perfbench/tracing.py binds these names with getattr; a missing one
    # breaks only the traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"h2embed.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    outer = importlib.import_module("h2embed.semigroups").OuterFlow
    assert {"__init__", "at"} <= set(vars(outer))
