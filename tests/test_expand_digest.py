"""Byte-identity of `srt expand` over a compact grid of requests.

Each request runs in-process through srt.cli.dispatch. The sha256 of every
(argv, exit code, stdout) triple is compared with a digest committed here, so
a change to the Maclaurin recurrence or to the JSON cannot alter a single
byte of an answer unnoticed. The grid holds refusals too (r or s out of
range, a forced branch, a degenerate cover, T < 1): their stdout is empty
and their exit code is pinned.

If the output is meant to change, regenerate the digest with
``PYTHONPATH=src python tests/test_expand_digest.py`` and say why in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json

from srt.cli import dispatch

EXPECTED_DIGEST = "d8371f5926c33eda93fc9b8d7285ec05f0e0a47358ffd1f190fb3f5c7c4dc67b"
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


def _digest():
    h = hashlib.sha256()
    n = 0
    for argv in _grid():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv)
        h.update(json.dumps([argv, code, out.getvalue()]).encode())
        h.update(b"\n")
        n += 1
    return h.hexdigest(), n


def test_expand_grid_is_byte_identical():
    digest, n = _digest()
    assert n == EXPECTED_REQUESTS
    assert digest == EXPECTED_DIGEST


if __name__ == "__main__":
    digest, n = _digest()
    print(json.dumps({"digest": digest, "requests": n}))
