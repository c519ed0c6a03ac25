"""Byte-identity of `srt expand` over a compact grid of requests.

Each request runs in-process through srt.cli.dispatch. Every (argv, exit
code, stdout) record is pinned in tests/digests/expand.txt, so a change to
the Maclaurin recurrence or to the JSON cannot alter a single byte of an
answer unnoticed. The grid holds refusals too (r or s out of range, a forced
branch, a degenerate cover, T < 1): their stdout is empty and their exit
code is pinned.

The oracle is `helpers.binomial_reference`, the truncated product of the
binomial expansions of the four factors of g, with no srt import: a seeded
sample of the grid's pinned JSON records is checked against it, coefficient
by coefficient, and their valuations against `helpers.vp_fraction`; a
refusal in the sample is checked against the cover's stated preconditions.

Pins, oracles and regeneration: tests/records.py.
"""
import json
import random
from fractions import Fraction

import records
from helpers import binomial_reference, vp_fraction


def _grid():
    for p in (3, 5, 7, 11, 13):
        for nu in (1, 2, 3):
            for r in (1, 2, 4, 6, 9):
                for s in (1, 3, 5, 8, 12):
                    yield ["expand", "--p", str(p), "--nu", str(nu), "--r", str(r), "--s", str(s)]
    # sqrt1ma = 2 at (r, s) = (1, 2) is the branch that a = -3 forbids
    for sqrt1ma in ("7/4", "1", "-1", "-5/9", "-2/1", "2"):
        for p in (3, 5, 7):
            for r, s in ((1, 2), (2, 5), (3, 3), (4, 1)):
                yield [
                    "expand", "--p", str(p), "--nu", "2", "--r", str(r), "--s", str(s),
                    "--sqrt1ma", sqrt1ma,
                ]
    for T in ("0", "1", "2", "40", "200"):
        for p, r, s in ((3, 1, 2), (5, 2, 3), (7, 3, 10)):
            yield ["expand", "--p", str(p), "--nu", "2", "--r", str(r), "--s", str(s), "--T", T]
    for p, r, s in ((5, 1, 2), (7, 3, 5)):
        yield [
            "--format", "text", "expand", "--p", str(p), "--nu", "1", "--r", str(r), "--s", str(s)
        ]


def generate():
    """Each request of the grid as (p<its p>, argv, [argv, exit code, stdout])."""
    for argv in _grid():
        code, out, _ = records.capture(argv)
        yield f"p{argv[argv.index('--p') + 1]}", argv, [argv, code, out]


def test_expand_grid_is_byte_identical():
    records.check("expand")


def _pinned():
    """The pinned [argv, exit code, stdout] records of the grid's JSON requests."""
    return [record for _, argv, record in records.stream("expand") if argv[0] == "expand"]


def _refused(p, nu, r, s, c, T):
    """Whether the cover's preconditions refuse the request: r and s in
    (0, p^nu), the branch c = -s/r that a = 1 - (s/r)^2 forces, c = 0, a
    constant cover (c = -1 with r = s), or T < 1."""
    forced = 1 - c * c == 1 - Fraction(s, r) ** 2 and c != Fraction(-s, r)
    return (
        not (0 < r < p**nu and 0 < s < p**nu)
        or forced
        or c == 0
        or (c == -1 and r == s)
        or T < 1
    )


def _assert_matches_the_binomial_product(record):
    """Check one pinned expand record against the oracle; returns its exit code."""
    argv, code, out = record
    flags = dict(zip(argv[1::2], argv[2::2]))
    p, nu, r, s = (int(flags[k]) for k in ("--p", "--nu", "--r", "--s"))
    c = Fraction(flags.get("--sqrt1ma", Fraction(-s, r)))
    T = int(flags.get("--T", 3 * p + 2))
    if _refused(p, nu, r, s, c, T):
        assert (code, out) == (1, ""), argv
        return code
    assert code == 0, argv
    answer = json.loads(out)
    # g = ((z+1)/(z-1))^r ((z+c)/(z-c))^s at 0
    want = binomial_reference([(-1, r), (1, -r), (-c, s), (c, -s)], Fraction(0), T)
    assert answer["coefficients"] == [str(x) for x in want], argv
    assert answer["valuations"] == [
        str(vp_fraction(x, p)) if x else "inf" for x in want[1:]
    ], argv
    return code


def test_a_seeded_sample_of_the_grid_matches_the_binomial_product():
    for record in random.Random("expand-oracle").sample(_pinned(), 40):
        _assert_matches_the_binomial_product(record)


def test_every_negative_rational_sqrt1ma_reaches_the_cover():
    # "-5/9" and "-2/1" start with "-" but are values of --sqrt1ma, not
    # options; each of their 24 requests is answered and checked
    negative = (["--sqrt1ma", "-5/9"], ["--sqrt1ma", "-2/1"])
    pinned = [record for record in _pinned() if record[0][-2:] in negative]
    assert len(pinned) == 24
    for record in pinned:
        assert _assert_matches_the_binomial_product(record) == 0, record[0]

