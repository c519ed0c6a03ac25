"""Each arithmetic job of srt is written once.

The scan reads the syntax of src/srt. It finds every loop that divides a
prime out of an integer (`while x % d == 0` with `x //= d` in its body) and
every search for a residue root (a loop over y that keeps the y with
`pow(y, m, p)` equal to a residue), and requires one of each: the strip in
`valuation.split_p_part`, and the branch rule of the root engine in
`localfield._least_root`, which names the branch of an exact rational root
and of a Newton root alike. A second copy fails here; call the one instead.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srt"


def _is_mod_test(test):
    """The Name x and divisor d of a loop test `x % d == 0` or `not x % d`,
    or None."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        mod = test.operand
    elif (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == 0
    ):
        mod = test.left
    else:
        return None
    if isinstance(mod, ast.BinOp) and isinstance(mod.op, ast.Mod) and isinstance(mod.left, ast.Name):
        return mod.left.id, ast.dump(mod.right)
    return None


def _is_strip(node):
    """A while loop on `x % d == 0` whose body divides x by d."""
    if not isinstance(node, ast.While):
        return False
    found = _is_mod_test(node.test)
    if found is None:
        return False
    name, divisor = found
    return any(
        isinstance(n, ast.AugAssign)
        and isinstance(n.op, ast.FloorDiv)
        and isinstance(n.target, ast.Name)
        and n.target.id == name
        and ast.dump(n.value) == divisor
        for statement in node.body
        for n in ast.walk(statement)
    )


def _is_power(node, name):
    """Whether node is a three-argument pow whose base is `name`."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == name
    )


def _tests_power(node, name):
    """Whether node holds a test pow(name, m, p) == r."""
    return any(
        isinstance(n, ast.Compare)
        and len(n.ops) == 1
        and isinstance(n.ops[0], ast.Eq)
        and any(_is_power(side, name) for side in (n.left, *n.comparators))
        for n in ast.walk(node)
    )


def _is_root_search(node):
    """A comprehension over y filtered by pow(y, m, p) == r, or a for loop
    over y with an if on pow(y, m, p) == r in its body."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
        return any(
            isinstance(g.target, ast.Name) and any(_tests_power(c, g.target.id) for c in g.ifs)
            for g in node.generators
        )
    if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
        return any(
            isinstance(n, ast.If) and _tests_power(n.test, node.target.id)
            for statement in node.body
            for n in ast.walk(statement)
        )
    return False


def _sites(predicate):
    """(module, innermost function) of each node of src/srt that predicate
    holds for."""
    out = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if predicate(node):
            out.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return out


def test_one_prime_strip():
    assert _sites(_is_strip) == [("valuation", "split_p_part")]


def test_one_residue_root_search():
    assert _sites(_is_root_search) == [("localfield", "_least_root")]


def test_the_scan_finds_each_shape():
    # the hand-written copies that the two checks above refuse
    strips = [
        "while n % p == 0:\n    n //= p\n    a += 1",
        "while not d % 2:\n    s += 1\n    d //= 2",
    ]
    searches = [
        "next(y for y in range(1, p) if pow(y, m, p) == r)",
        "for y in range(1, p):\n    if pow(y, m, p) == r:\n        break",
    ]
    for text in strips:
        assert _is_strip(ast.parse(text).body[0]), text
    for text in searches:
        assert any(_is_root_search(n) for n in ast.walk(ast.parse(text))), text
    # a conditional order reduction is no strip, and a primitive root test
    # no residue root search
    reduction = "while order % f == 0 and check(order // f):\n    order //= f"
    assert not _is_strip(ast.parse(reduction).body[0])
    primitive = "for g in range(2, q):\n    if all(pow(g, k, q) != 1 for k in ks):\n        break"
    assert not any(_is_root_search(n) for n in ast.walk(ast.parse(primitive)))
