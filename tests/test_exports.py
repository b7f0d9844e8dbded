import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ldphist

MODULES = sorted(m.name for m in pkgutil.iter_modules(ldphist.__path__) if m.name != "__main__")
ROOT = Path(__file__).resolve().parents[1]
# Exported paper quantities that only the tests call (unbiasedness and
# degrading-channel checks).
KEPT = {"fo_estimate", "degrade"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ldphist.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_exported_name_has_a_caller():
    # A use is a Name, an Attribute or an import alias in the package, the
    # benchmark or the demos; a name in a docstring or a string is not one.
    used = set()
    for folder in ("src/ldphist", "perfbench", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update({node.name, node.asname} - {None})
    exported = {n for m in MODULES for n in getattr(importlib.import_module(f"ldphist.{m}"), "__all__", ())}
    assert sorted(exported - used - KEPT) == []
    assert sorted(KEPT & used) == []  # a kept name that gained a caller leaves KEPT


# Private names one module of the package imports from another: onebit
# draws with core's sampler and label encoder, cli checks report files
# against the wire widths of transport, and heavy_hitter sizes its decode
# chunks from codec's byte budget.
KEPT_PRIVATE_IMPORTS = {
    ("onebit", "core", "_below"),
    ("onebit", "core", "_draw_args"),
    ("onebit", "core", "_encode_label"),
    ("cli", "transport", "_REPORT_BITS"),
    ("heavy_hitter", "codec", "_chunk_rows"),
}


def test_no_new_private_name_crosses_modules():
    found = set()
    for path in sorted((ROOT / "src" / "ldphist").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    assert sorted(found - KEPT_PRIVATE_IMPORTS, key=str) == []
    assert sorted(KEPT_PRIVATE_IMPORTS - found, key=str) == []  # and no entry outlives its import
