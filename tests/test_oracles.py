"""The test oracles stand apart from the package they check: tests/helpers.py
and tests/draws.py import nothing of srt. And the case loop of draws.py
does what its docstring says: the edge cases give each draw every one of
its edges, a failing case names the call that replays it, and a case that
refuses its edges goes on at random."""
import ast
from pathlib import Path

import pytest

from draws import Draw, cases

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", ["helpers.py", "draws.py"])
def test_the_oracle_imports_no_srt(name):
    modules = []
    for node in ast.walk(ast.parse((TESTS / name).read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "fractions" in modules
    assert [m for m in modules if m.split(".")[0] == "srt"] == []


def test_the_edge_cases_draw_every_edge():
    seen = []

    @cases(3)
    def draw(rng):
        items = [rng.randint(0, 9) for _ in range(2)]
        seen.append((rng.edge, rng.randint(-2, 5), rng.randint(1, 4), rng.choice("abcd"), items))

    draw()
    edges = [case[1:] for case in seen if case[0]]
    assert len(edges) == 4 and len(seen) == 7
    # edge case 0 draws 0 (or lo) and first members; the items of a list differ
    assert edges[0] == (0, 1, "a", [0, 9])
    assert [{case[i] for case in edges} for i in range(3)] == [{-2, 0, 5}, {1, 4}, set("abcd")]


def test_a_failing_case_names_the_call_that_replays_it():
    @cases(5)
    def fails(rng):
        assert rng.randint(0, 9) < 9

    with pytest.raises(AssertionError) as info:
        fails()
    rng = Draw(fails.__qualname__, 1, True)
    assert info.value.__notes__ == [f"failing case: {fails.__qualname__}.__wrapped__(..., rng={rng!r})"]
    with pytest.raises(AssertionError):
        fails.__wrapped__(rng=rng)


def test_a_refused_edge_case_goes_on_at_random():
    @cases(0)
    def odd(rng):
        # 0 and 10 are the only edges, and both are refused
        x = rng.randint(0, 10)
        while x % 2 == 0:
            x = rng.randint(0, 10)

    odd()
