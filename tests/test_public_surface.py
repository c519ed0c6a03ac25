"""Every name srt exports, and every public method of an exported class, is
reached by a verdict.

A name stays exported only if the package itself, the benchmark harness, a
demo or an acceptance test uses it in code; a method stays only if that code
names it as an attribute. A name that only its own unit tests call is surface
that no verdict needs; delete it instead of keeping it.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "srt"


def _exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _used_identifiers():
    """Names, attributes and imported names in the code of src/srt (but its
    __init__.py), bench/, demos/ and tests/test_acceptance.py; a def or class
    statement does not use the name it defines, and comments and strings are
    not code."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    paths += sorted((ROOT / "demos").rglob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return used


USED = _used_identifiers()


@pytest.mark.parametrize("name", _exported_names())
def test_exported_name_is_used(name):
    assert name in USED, (
        f"srt exports {name}, but no code in src/srt, bench/, demos/ or "
        f"tests/test_acceptance.py uses it"
    )


def _exported_class_methods():
    """(class, method) for each public method defined in the body of a class
    that srt exports."""
    exported = set(_exported_names())
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                out += [
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                ]
    return sorted(out)


@pytest.mark.parametrize("cls, method", _exported_class_methods())
def test_public_method_is_used(cls, method):
    assert method in USED, (
        f"{cls}.{method} is public, but no code in src/srt, bench/, demos/ or "
        f"tests/test_acceptance.py uses it"
    )
