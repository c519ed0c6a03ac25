"""Every name srt exports, and every public method of an exported class, is
reached by a verdict.

A name stays exported only if the package itself, the benchmark harness, a
demo or an acceptance test uses it in code; a method stays only if that code
names it as an attribute. A name that only its own unit tests call is surface
that no verdict needs; delete it instead of keeping it.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srt

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "srt"


def _exported_names():
    return sorted(srt.__all__)


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


def test_exports_load_their_module_on_first_use():
    """In a fresh process, `import srt` loads no submodule, and reading an
    export loads its module and what that module imports, nothing else;
    `from srt import *` binds the names of `srt.__all__`, none of them a
    module, and an unknown name is an AttributeError."""
    script = """
import inspect, sys
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "srt")
import srt
assert loaded() == ["srt"], loaded()
assert srt.vp(5, 5) == 1
assert loaded() == ["srt", "srt.errors", "srt.valuation"], loaded()
names = {}
exec("from srt import *", names)
del names["__builtins__"]
assert sorted(names) == sorted(srt.__all__), set(names) ^ set(srt.__all__)
assert not any(inspect.ismodule(value) for value in names.values())
try:
    srt.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("srt.no_such_name resolved")
"""
    # the child imports the srt under test, wherever this process found it
    root = str(Path(srt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
