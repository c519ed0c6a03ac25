"""The names of srt that the benchmark harness in bench/ relies on.

The harness reaches srt only through attribute lookups at run time, so a
renamed or deleted name fails there, not at import. These tests fail first.
"""
import ast
import collections
import importlib
import importlib.util
from fractions import Fraction
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


def test_annotate_callbacks_read_live_results():
    # the callbacks read srt results (`terms`, `.kind`, `.order`) only in a
    # traced run; run each one here on what srt returns
    annotate = _load_tracing().ANNOTATE
    assert set(annotate) == {"localfield.mul", "localfield.is_pth_power", "groups.generation_check"}
    counters = collections.Counter()
    ctx = srt.LocalFieldContext(5, N=5)
    x = ctx.from_rational(7) + ctx.pi_power(Fraction(1, 5), 2)
    annotate["localfield.mul"](counters, (x, x), {}, x * x, 0)
    annotate["localfield.mul"](counters, (x, 3), {}, x * 3, 0)
    assert counters["localfield.mul.term_products"] == 2 * 2 + 2 * 1
    verdict = srt.is_pth_power(ctx.from_rational(32))
    annotate["localfield.is_pth_power"](counters, (ctx.from_rational(32),), {}, verdict, 0)
    assert counters["localfield.is_pth_power.attempts"] == 1
    assert counters["localfield.is_pth_power.decided"] == 1
    q = 7
    gens = [srt.groups.MatrixElement(1, 1, 0, 1, q), srt.groups.MatrixElement(1, 0, 1, 1, q)]
    result = srt.generation_check(gens, q, mode="bfs")
    annotate["groups.generation_check"](counters, (gens, q), {"mode": "bfs"}, result, 1000)
    assert counters["groups.bfs.elements"] == q * (q * q - 1)
    assert counters["groups.bfs.ns"] == 1000
