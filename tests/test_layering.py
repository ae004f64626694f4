"""Layering: the simulation core never imports the spec layer.

Specs build structures (``repro.specs`` -> ``repro.buffers``), never the
other way round.  The scan reads every import statement of the packages
below the spec layer, at module level or inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
CORE_PACKAGES = ("buffers", "caches", "classify", "hierarchy", "common")
SPEC_LAYER = "repro.specs"


def imported_modules(source: str, package: str):
    """Absolute names of every module *source* imports from inside *package*."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            # ``from repro import specs`` names the module in the alias.
            for alias in node.names:
                yield f"{base}.{alias.name}"


def spec_layer_imports(source: str, package: str):
    return sorted(
        {
            module
            for module in imported_modules(source, package)
            if module == SPEC_LAYER or module.startswith(SPEC_LAYER + ".")
        }
    )


def test_core_modules_do_not_import_specs():
    offending = {}
    for name in CORE_PACKAGES:
        for path in sorted((PACKAGE_ROOT / name).rglob("*.py")):
            package = ".".join(("repro",) + path.relative_to(PACKAGE_ROOT).parent.parts)
            found = spec_layer_imports(path.read_text(), package)
            if found:
                offending[str(path.relative_to(PACKAGE_ROOT))] = found
    assert offending == {}


@pytest.mark.parametrize(
    "source, found",
    [
        ("from ..specs.structures import VictimCacheSpec", True),
        ("from .. import specs", True),
        ("import repro.specs", True),
        ("def describe(self):\n    from ..specs import build", True),
        ("from ..common.errors import ConfigurationError", False),
        ("from .victim_cache import VictimCache", False),
    ],
)
def test_scan_sees_every_import_form(source, found):
    assert bool(spec_layer_imports(source, "repro.buffers")) is found
