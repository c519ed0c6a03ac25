"""Bounded fuzz of every CLI subcommand through srt.cli.dispatch.

Each case builds an argv from the flags that srt.cli.COMMANDS lists for the
subcommand, each value drawn, plausible or malformed, from the flag's one
draw in VALUES (and, for the file flags, a JSON file with plausible and
malformed content), and checks the CLI boundary: the exit code is 0, 1 or
2, stderr holds no traceback, and the call returns within EXAMPLE_SECONDS.
An exception that is not an SrtError propagates out of dispatch and fails
the case. The cases are seeded draws (tests/draws.py), and all of them
together must stay within TOTAL_SECONDS.

Every other random case is plausible: it gives each required flag and draws
only plausible values and files, and at least ANSWERED random cases of a
subcommand must answer (exit 0 or 2), so that its answered paths are fuzzed too.
"""
import json
import time

import pytest

from srt.cli import COMMANDS, FLAGS, REQUIRED

import records
from draws import cases

EXAMPLES = 25  # random cases per subcommand, beside the edge cases
ANSWERED = 5
EXAMPLE_SECONDS = 2.0
TOTAL_SECONDS = 10.0

JUNK = ["", "x", "-", "1/0", "inf", "nan", "1e9", "0x10", "--p", "[", "3/-2", "-7/3"]
BOOLS = [False, True]


def ints(lo, hi):
    return lambda rng: str(rng.randint(lo, hi))


def sampled(*members):
    return lambda rng: rng.choice(members)


def one_of(*draws):
    return lambda rng: rng.choice(draws)(rng)


def junk(rng):
    """Whether to draw a malformed value or file: 1 time in 8, but never in a
    plausible case."""
    return not rng.plausible and rng.random() < 1 / 8


def value(good, bad=()):
    """A flag value: from `good`, or from `bad` or junk when `junk` says so."""
    bad = list(bad) + JUNK
    return lambda rng: rng.choice(bad) if junk(rng) else good(rng)


PRIMES = value(sampled("3", "5", "5", "7", "11", "13"), ["2", "4", "9", "1", "0", "-5"])
SMALL = value(ints(1, 4), ["0", "-1", "40"])
UNITS = value(ints(1, 8), ["0", "-3", "25"])
RATIONALS = ("0", "1", "1/2", "3/2", "2", "5/4", "-1", "7/3")
FRACTIONS = value(sampled(*RATIONALS))
# --vals alone reads "inf", the valuation of a zero coefficient
VALUATIONS = value(sampled(*RATIONALS, "inf"))
CASES = value(sampled("generic", "a=0", "a=1"), ["b", "A=0"])
QS = value(
    sampled("251", "499", "1249", "13", "31", "101", "7", "331"), ["9", "0", "-251", "124"]
)

# flag -> value draw, one for each flag of srt.cli.FLAGS; a flag with no
# draw fails the collection of this module, so none can skip the fuzz
VALUES = {
    "--p": PRIMES, "--nu": SMALL, "--s": UNITS, "--level": SMALL, "--case": CASES,
    # cover integers, and wild-monodromy's r < 125
    "--r": value(one_of(ints(1, 8), ints(1, 130)), ["0", "-3", "5", "25"]),
    "--sqrt1ma": FRACTIONS, "--extra": FRACTIONS, "--root-delta": FRACTIONS, "--x": FRACTIONS,
    "--T": value(ints(1, 40), ["0", "-1"]),
    "--vals": value(
        lambda rng: json.dumps([VALUATIONS(rng) for _ in range(rng.randint(0, 20))]),
        ["{}", "[[1]]", "[null]", '["1", 2]'],
    ),
    "--tree": sampled("@tree"), "--filtration": sampled("@filtration"),
    # enum-tails' count of primitive tails, and group's trace of beta
    "--tau": value(one_of(ints(0, 3), ints(0, 20)), ["-1", "-2", "5"]),
    "--shape": value(sampled("tame-over-cyclotomic", "kummer-tower")),
    "--compositum": value(lambda rng: ",".join(FRACTIONS(rng) for _ in range(rng.randint(1, 4)))),
    "--direction": value(sampled("phi", "psi")),
    "--q": QS, "--rho": value(ints(0, 20), ["-2"]),
    "--mode": value(sampled("criterion", "bfs")),
}
assert set(VALUES) == set(FLAGS), set(VALUES) ^ set(FLAGS)

# a plausible case draws these flags from the narrow domain of its subcommand:
# wild-monodromy answers only at p = 5 with 125 | q^2 - 1; tail-center's a=0
# and a=1 need p | r + s and p | s, which independent draws seldom meet;
# tail-radius's a=0 and a=1 need an --extra in (0, nu - 1] resp. above 0, and
# generic none; the standard pair of group needs p | q - 1
DOMAINS = {
    "wild-monodromy": {"--p": sampled("5"), "--q": sampled("251", "499", "1249")},
    "tail-center": {"--case": sampled("generic"), "--r": ints(1, 8)},
    "tail-radius": {
        "--case": sampled("a=0", "a=1"), "--nu": ints(2, 4), "--extra": sampled("1/2", "1"),
    },
    "group": {"--q": sampled("251", "31", "101", "331"), "--p": sampled("5")},
}

# flags that are left out 3 times in 4 (the others are left out 1 time in 8)
RARE = {"--sqrt1ma", "--root-delta", "--filtration", "--compositum", "--tau", "--rho"}

NUMBERS = value(
    sampled("1/2", "1", "3/2", "2", "9/4", "5/2", "3"), ["0", "-1", "x", "1/0", None, 2]
)
KINDS = value(sampled("none", "primitive", "new-etale", "new-inseparable"), ["old"])


def any_json(rng, depth=2):
    """None, a bool, a small int or string, or a list or dict of them,
    nested at most `depth` deep."""
    kind = rng.choice(["leaf", "list", "dict"] if depth else ["leaf"])
    if kind == "list":
        return [any_json(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if kind == "dict":
        return {rng.choice(["a", "id"]): any_json(rng, depth - 1) for _ in range(rng.randint(0, 2))}
    return rng.choice([None, False, True, rng.randint(-3, 5), "", "1/2", "x"])


def tree(rng):
    """A root with up to three children, some of them with a child of their
    own; every field is drawn from plausible values, sometimes from bad ones."""
    vertices = [{"id": "root", "inertia": rng.randint(1, 3)}]
    edges = []
    for i in range(rng.randint(0, 3)):
        parent = rng.choice([v["id"] for v in vertices])
        vertex = {"id": f"v{i}", "inertia": rng.randint(0, 2), "tail": KINDS(rng)}
        for key in ("sigma", "delta_eff"):
            if rng.choice(BOOLS):
                vertex[key] = NUMBERS(rng)
        if rng.random() < 1 / 4:
            vertex["branch_points"] = [{"id": f"b{i}", "index": rng.randint(1, 25)}]
        vertices.append(vertex)
        edge = {"parent": parent, "child": vertex["id"]}
        for key in ("sigma_eff", "epaisseur"):
            if rng.choice(BOOLS):
                edge[key] = NUMBERS(rng)
        edges.append(edge)
    return {"vertices": vertices, "edges": edges}


def filtration(rng):
    """Jumps 0, 1, ... with orders (p-1)p^k, p^k, ..., sometimes perturbed."""
    p = rng.choice([3, 5, 7])
    n = rng.randint(1, 3)
    orders = [(p - 1) * p ** (n - 1)] + [p ** (n - i) for i in range(1, n)]
    breaks = [{"jump": str(i), "order": order} for i, order in enumerate(orders)]
    if rng.random() < 1 / 4:
        breaks[rng.randint(0, n - 1)]["jump"] = NUMBERS(rng)
    return {"breaks": breaks}


def invocation(rng, command):
    argv = []
    if rng.choice(BOOLS):
        argv += ["--format", value(sampled("json", "text"), ["xml"])(rng)]
    argv.append(command)
    _, _, flags = COMMANDS[command]
    domain = DOMAINS.get(command, {}) if rng.plausible else {}
    for flag, spec in flags.items():
        given = rng.plausible and spec is REQUIRED
        if given or rng.random() < (1 / 4 if flag in RARE else 7 / 8):
            argv += [flag, domain.get(flag, VALUES[flag])(rng)]
    files = {
        "@tree": any_json(rng) if junk(rng) else tree(rng),
        "@filtration": any_json(rng) if junk(rng) else filtration(rng),
    }
    return argv, files


@pytest.fixture(scope="module")
def spent():
    """Seconds spent in dispatch by every case of this module so far."""
    return [0.0]


@cases(EXAMPLES)
def _ends_cleanly(command, spent, answered, tmp_path, rng):
    rng.plausible = not rng.edge and rng.index % 2 == 0
    argv, files = invocation(rng, command)
    for token, content in files.items():
        (tmp_path / f"{token[1:]}.json").write_text(json.dumps(content))
    resolved = [str(tmp_path / f"{token[1:]}.json") if token in files else token for token in argv]
    start = time.perf_counter()
    code, _, err = records.capture(resolved)
    elapsed = time.perf_counter() - start
    spent[0] += elapsed
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    assert elapsed < EXAMPLE_SECONDS, (argv, elapsed)
    assert spent[0] < TOTAL_SECONDS, "the fuzz as a whole went over its time budget"
    if code != 1 and not rng.edge:
        answered.append(argv)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_input_ends_cleanly(command, spent, tmp_path):
    answered = []
    _ends_cleanly(command, spent, answered, tmp_path)
    assert len(answered) >= ANSWERED, (command, answered)
