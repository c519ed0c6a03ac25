"""Bounded fuzz of every CLI subcommand through srt.cli.dispatch.

Each example builds an argv from the flags that srt.cli.COMMANDS lists for
the subcommand, each value drawn, plausible or malformed, from the flag's one
strategy in VALUES (and, for the file flags, a JSON file with plausible and
malformed content), and checks the CLI boundary: the exit code is 0, 1 or
2, stderr holds no traceback, and the call returns within EXAMPLE_SECONDS.
An exception that is not an SrtError propagates out of dispatch and fails
the example. The runs are derandomized, and all examples together must stay
within TOTAL_SECONDS.
"""
import contextlib
import io
import json
import tempfile
import time

import pytest

from srt.cli import COMMANDS, FLAGS, dispatch

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

EXAMPLES = 25  # per subcommand
EXAMPLE_SECONDS = 2.0
TOTAL_SECONDS = 10.0
SETTINGS = settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)

JUNK = ["", "x", "-", "1/0", "inf", "nan", "1e9", "0x10", "--p", "[", "3/-2", "-7/3"]


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def value(good, bad=()):
    """A flag value: from `good` 7 times in 8, else from `bad` or junk."""
    bad = st.sampled_from(list(bad) + JUNK)
    return st.integers(0, 7).flatmap(lambda i: bad if i == 7 else good)


PRIMES = value(st.sampled_from(["3", "5", "5", "7", "11", "13"]), ["2", "4", "9", "1", "0", "-5"])
SMALL = value(ints(1, 4), ["0", "-1", "40"])
UNITS = value(ints(1, 8), ["0", "-3", "25"])
FRACTIONS = value(st.sampled_from(["0", "1", "1/2", "3/2", "2", "5/4", "-1", "7/3", "inf"]))
CASES = value(st.sampled_from(["generic", "a=0", "a=1"]), ["b", "A=0"])
QS = value(
    st.sampled_from(["251", "499", "1249", "13", "31", "101", "7", "331"]), ["9", "0", "-251", "124"]
)

# flag -> value strategy, one for each flag of srt.cli.FLAGS; a flag with no
# strategy fails the collection of this module, so none can skip the fuzz
VALUES = {
    "--p": PRIMES, "--nu": SMALL, "--s": UNITS, "--level": SMALL, "--case": CASES,
    # cover integers, and wild-monodromy's r < 125
    "--r": value(st.one_of(ints(1, 8), ints(1, 130)), ["0", "-3", "5", "25"]),
    "--sqrt1ma": FRACTIONS, "--extra": FRACTIONS, "--root-delta": FRACTIONS, "--x": FRACTIONS,
    "--T": value(ints(1, 40), ["0", "-1"]),
    "--vals": value(
        st.lists(FRACTIONS, max_size=20).map(json.dumps),
        ["{}", "[[1]]", "[null]", '["1", 2]'],
    ),
    "--tree": st.just("@tree"), "--filtration": st.just("@filtration"),
    # enum-tails' count of primitive tails, and group's trace of beta
    "--tau": value(st.one_of(ints(0, 3), ints(0, 20)), ["-1", "-2", "5"]),
    "--shape": value(st.sampled_from(["tame-over-cyclotomic", "kummer-tower"])),
    "--compositum": value(st.lists(FRACTIONS, min_size=1, max_size=4).map(",".join)),
    "--direction": value(st.sampled_from(["phi", "psi"])),
    "--q": QS, "--rho": value(ints(0, 20), ["-2"]),
    "--mode": value(st.sampled_from(["criterion", "bfs"])),
}
assert set(VALUES) == set(FLAGS), set(VALUES) ^ set(FLAGS)

# flags that are left out 3 times in 4 (the others are left out 1 time in 8)
RARE = {"--sqrt1ma", "--root-delta", "--filtration", "--compositum", "--tau", "--rho"}

ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.sampled_from(["", "1/2", "x"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["a", "id"]), inner, max_size=2)
    ),
    max_leaves=6,
)
NUMBERS = value(
    st.sampled_from(["1/2", "1", "3/2", "2", "9/4", "5/2", "3"]), ["0", "-1", "x", "1/0", None, 2]
)


@st.composite
def trees(draw):
    """A root with up to three children, some of them with a child of their
    own; every field is drawn from plausible values, sometimes from bad ones."""
    kinds = value(st.sampled_from(["none", "primitive", "new-etale", "new-inseparable"]), ["old"])
    vertices = [{"id": "root", "inertia": draw(st.integers(1, 3))}]
    edges = []
    for i in range(draw(st.integers(0, 3))):
        parent = draw(st.sampled_from([v["id"] for v in vertices]))
        vertex = {"id": f"v{i}", "inertia": draw(st.integers(0, 2)), "tail": draw(kinds)}
        for key in ("sigma", "delta_eff"):
            if draw(st.booleans()):
                vertex[key] = draw(NUMBERS)
        if draw(st.integers(0, 3)) == 0:
            vertex["branch_points"] = [{"id": f"b{i}", "index": draw(st.integers(1, 25))}]
        vertices.append(vertex)
        edge = {"parent": parent, "child": vertex["id"]}
        for key in ("sigma_eff", "epaisseur"):
            if draw(st.booleans()):
                edge[key] = draw(NUMBERS)
        edges.append(edge)
    return {"vertices": vertices, "edges": edges}


@st.composite
def filtrations(draw):
    """Jumps 0, 1, ... with orders (p-1)p^k, p^k, ..., sometimes perturbed."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 3))
    orders = [(p - 1) * p ** (n - 1)] + [p ** (n - i) for i in range(1, n)]
    breaks = [{"jump": str(i), "order": order} for i, order in enumerate(orders)]
    if draw(st.integers(0, 3)) == 0:
        breaks[draw(st.integers(0, n - 1))]["jump"] = draw(NUMBERS)
    return {"breaks": breaks}


TREES = st.integers(0, 7).flatmap(lambda i: ANY_JSON if i == 7 else trees())
FILTRATIONS = st.integers(0, 7).flatmap(lambda i: ANY_JSON if i == 7 else filtrations())


@st.composite
def invocation(draw, command):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(value(st.sampled_from(["json", "text"]), ["xml"]))]
    argv.append(command)
    _, _, flags = COMMANDS[command]
    for flag in flags:
        if draw(st.integers(0, 7)) < (2 if flag in RARE else 7):
            argv += [flag, draw(VALUES[flag])]
    files = {"@tree": draw(TREES), "@filtration": draw(FILTRATIONS)}
    return argv, files


@pytest.fixture(scope="module")
def spent():
    """Seconds spent in dispatch by every example of this module so far."""
    return [0.0]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_input_ends_cleanly(command, spent):
    @SETTINGS
    @given(invocation(command))
    def run(case):
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            resolved = []
            for token in argv:
                if token in files:
                    path = f"{tmp}/{token[1:]}.json"
                    with open(path, "w") as handle:
                        json.dump(files[token], handle)
                    token = path
                resolved.append(token)
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(resolved)
            elapsed = time.perf_counter() - start
        spent[0] += elapsed
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        assert elapsed < EXAMPLE_SECONDS, (argv, elapsed)
        assert spent[0] < TOTAL_SECONDS, "the fuzz as a whole went over its time budget"

    run()
