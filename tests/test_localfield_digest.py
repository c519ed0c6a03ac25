"""Byte-identity of `srt.localfield` over seeded random elements.

Each element of Q_p(pi), pi^N = p, exact or at a finite precision, is drawn
with p in {3, 5, 7, 11} and N up to 2p. Its repr, to_json, `terms` view and
`prec`, together with the outcome of `is_pth_power`, `nth_root(x, p)`,
`nth_root(x, 2)`, `inverse()` and `x**3`, are pinned in
tests/digests/localfield.txt; an outcome is its JSON, or the exception's
type and message. Half the elements sit near a p-th power, so "yes", "no" with a
congruence certificate and "undecidable" all occur. Each element also meets a
rational q, drawn as a unit is (an int or a Fraction, at times with p in the
denominator): `x + q`, `q - x`, `x * q`, `q / x`, `x == q` and `x + q - x == q`
are pinned. `sqrt_of_minus_one` at p in {5, 13, 17, 29} is pinned too.

Pins, oracles and regeneration: tests/records.py.
"""
import random
from fractions import Fraction

from srt import (
    LocalFieldContext,
    LocalFieldElement,
    SrtError,
    is_pth_power,
    nth_root,
    sqrt_of_minus_one,
)
from srt.valuation import to_jsonable

import records

ELEMENTS = 1500


def _unit(rng, p):
    if rng.random() < 0.5:
        return rng.randint(-30, 30)
    return Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, p, 4 * p]))


def _prec(rng, N):
    r = rng.random()
    if r < 0.4:
        return None
    if r < 0.9:
        return Fraction(rng.randint(1, 4 * N), N)
    # off the (1/N)Z grid
    return Fraction(rng.randint(1, 12), rng.choice([2, 3, 7]))


def _element(rng):
    p = rng.choice([3, 5, 7, 11])
    N = rng.randint(1, 2 * p)
    ctx = LocalFieldContext(p, N, rng.randint(2, 4))
    prec = _prec(rng, N)
    if rng.random() < 0.5:
        pairs = [
            (Fraction(rng.randint(-N, 3 * N), N), _unit(rng, p))
            for _ in range(rng.randint(0, 4))
        ]
        return LocalFieldElement(ctx, pairs, prec)
    # near a p-th power: y^p, shifted to a valuation that p may divide, plus
    # most often one term at a valuation in (0, 2], past p/(p-1) for every p
    y = LocalFieldElement(
        ctx,
        [(Fraction(rng.randint(0, N), N), rng.randint(1, p - 1)) for _ in range(rng.randint(1, 4))],
    )
    x = y**p * ctx.pi_power(Fraction(rng.randint(-2, 2) * p, N))
    if rng.random() < 0.7:
        e = Fraction(rng.randint(1, 2 * N), N)
        x = x + ctx.pi_power(e, rng.randint(1, p - 1))
    return x.truncate(prec) if prec is not None else x


def _outcome(f):
    try:
        return to_jsonable(f())
    except (SrtError, ZeroDivisionError) as exc:
        return [type(exc).__name__, str(exc)]


def generate():
    """Each element with its outcomes, then each sqrt_of_minus_one, as
    (p, the call, record)."""
    rng = random.Random(20)
    # the rational operands have their own stream, so the elements stay as drawn
    qrng = random.Random(23)
    for _ in range(ELEMENTS):
        x = _element(rng)
        p = x.ctx.p
        q = _unit(qrng, p)
        yield f"p{p}", f"{x.ctx!r}: {x!r}", {
            "ctx": repr(x.ctx),
            "repr": repr(x),
            "json": x.to_json(),
            "terms": [[str(e), str(u), type(u).__name__] for e, u in x.terms.items()],
            "prec": str(x.prec),
            "is_pth_power": _outcome(lambda: is_pth_power(x)),
            "nth_root_p": _outcome(lambda: nth_root(x, p)),
            "nth_root_2": _outcome(lambda: nth_root(x, 2)),
            "inverse": _outcome(x.inverse),
            "cube": _outcome(lambda: x**3),
            "rational": [
                str(q),
                _outcome(lambda: x + q),
                _outcome(lambda: q - x),
                _outcome(lambda: x * q),
                _outcome(lambda: q / x),
                x == q,
                # the sum's canonical form against q's own: True when x is exact
                x + q - x == q,
            ],
        }
    for p in (5, 13, 17, 29):
        ctx = LocalFieldContext(p, 4, 6)
        for prec in (None, 3, "5/2", Fraction(7, 3)):
            outcome = _outcome(lambda: sqrt_of_minus_one(ctx, prec))
            key = f"sqrt_of_minus_one({ctx!r}, {prec!r})"
            yield f"p{p}", key, {"sqrt_of_minus_one": [p, str(prec), outcome]}


def test_localfield_outputs_are_byte_identical():
    records.check("localfield")
