"""Byte-identity of `srt expand` over a compact grid of requests.

Each request runs in-process through srt.cli.dispatch. The sha256 of every
(argv, exit code, stdout) triple is compared with a digest committed here, so
a change to the Maclaurin recurrence or to the JSON cannot alter a single
byte of an answer unnoticed. The grid holds refusals too (r or s out of
range, a forced branch, a degenerate cover, T < 1): their stdout is empty
and their exit code is pinned.

The digest detects a change, not a wrong answer. The oracle is
`helpers.binomial_reference`, the truncated product of the binomial
expansions of the four factors of g, with no srt import: a seeded sample of
the grid's JSON requests is checked against it, coefficient by coefficient,
and their valuations against `helpers.vp_fraction`; a refusal in the sample
is checked against the cover's stated preconditions.

If the output is meant to change, regenerate the digest with
``PYTHONPATH=src python tests/test_expand_digest.py`` and say why in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from helpers import binomial_reference, vp_fraction
from srt.cli import dispatch

EXPECTED_DIGEST = "29dd14a7f888950d76764c2fee1e43da0e8caf06ec62d53392753927fed96ec4"
EXPECTED_REQUESTS = 464


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


def _run(argv):
    """(exit code, stdout) of one request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    return code, out.getvalue()


def _digest():
    h = hashlib.sha256()
    n = 0
    for argv in _grid():
        code, out = _run(argv)
        h.update(json.dumps([argv, code, out]).encode())
        h.update(b"\n")
        n += 1
    return h.hexdigest(), n


def test_expand_grid_is_byte_identical():
    digest, n = _digest()
    assert n == EXPECTED_REQUESTS
    assert digest == EXPECTED_DIGEST


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


def _assert_matches_the_binomial_product(argv):
    """Check one expand request against the oracle; returns its exit code."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    code, out = _run(argv)
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
    requests = [argv for argv in _grid() if argv[0] == "expand"]
    for argv in random.Random("expand-oracle").sample(requests, 40):
        _assert_matches_the_binomial_product(argv)


def test_every_negative_rational_sqrt1ma_reaches_the_cover():
    # "-5/9" and "-2/1" start with "-" but are values of --sqrt1ma, not
    # options; each of their 24 requests is answered and checked
    negative = (["--sqrt1ma", "-5/9"], ["--sqrt1ma", "-2/1"])
    requests = [argv for argv in _grid() if argv[-2:] in negative]
    assert len(requests) == 24
    for argv in requests:
        assert _assert_matches_the_binomial_product(argv) == 0, argv


if __name__ == "__main__":
    digest, n = _digest()
    print(json.dumps({"digest": digest, "requests": n}))
