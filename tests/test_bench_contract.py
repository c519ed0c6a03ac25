"""The names of srt that the benchmark harness in bench/ relies on.

The harness reaches srt only through attribute lookups at run time, so a
renamed or deleted name fails there, not at import. These tests fail first.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import srt
import srt.cli
import srt.groups

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dotted(node):
    """'srt.a.b' for an attribute chain rooted at the name srt, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "srt" and parts:
        return ".".join(["srt", *reversed(parts)])
    return None


def _workload_names():
    """Every srt.<name> chain in the code of bench/workloads.py (comments and
    docstrings are not code), with the srt modules it imports."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("srt."))
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name is not None:
                names.add(name)
    return names


def _resolve(dotted):
    obj = srt
    for attr in dotted.split(".")[1:]:
        obj = getattr(obj, attr)
    return obj


def test_traced_methods_are_defined_on_their_class():
    # Tracer.installed reads each method from the class __dict__
    tracing = _load_tracing()
    missing = [
        f"{cls.__name__}.{attr}"
        for cls, attr in tracing.METHODS
        if attr not in cls.__dict__
    ]
    assert not missing


def test_traced_layers_are_modules():
    tracing = _load_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"srt.{layer}")


def test_workload_names_resolve():
    names = _workload_names()
    # the parse found the calls, so an empty list below means something
    assert "srt.scaled_coefficient_valuations" in names
    unresolved = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            unresolved.append(name)
    assert not unresolved
