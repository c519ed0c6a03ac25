"""Byte-identity of `srt.taylor_factors` at local-field and Gaussian centers.

Three families of expansions, drawn from a seeded stream:

- the case-i unit factor and the full set of roots of g at z = sqrt(-1), for
  p in {5, 13, 17, 29} in Q_p(pi), pi^(2(p-1)) = p, with the center
  `sqrt_of_minus_one(ctx, prec)` exact or at a finite precision;
- g at the p = 5 exceptional tail disks in Q_5(pi), pi^60 = 5, whose
  sqrt(1-a) holds the 5th root of 5^(4nu+1) binom(x, 5), for nu in {2, 3}
  and both cases a=0 and a=1;
- g in Q(i) at I_GAUSS and at other Gaussian-rational centers, for p in
  {3, 7, 11}.

The repr of every coefficient, with its precision, is pinned in
tests/digests/taylor.txt. A few requests put the center on a root, or on a
root only to the center's precision; their outcome is the exception's type
and message.

Pins, oracles and regeneration: tests/records.py.
"""
import math
import random
from fractions import Fraction

from srt import (
    I_GAUSS,
    CoverParams,
    GaussRational,
    LocalFieldContext,
    NoNthRoot,
    SrtError,
    nth_root,
    sqrt_of_minus_one,
    taylor_factors,
)

import records


def _coefficients(factors, center, T, p):
    try:
        series = taylor_factors(factors, center, T, p)
    except (SrtError, ZeroDivisionError) as exc:
        return [type(exc).__name__, str(exc)]
    return [[repr(c), str(getattr(c, "prec", None))] for c in series.coefficients]


def _unit_pair(rng, top, p):
    while True:
        r, s = rng.randrange(1, top), rng.randrange(1, top)
        if r % p and s % p and r != s:
            return r, s


def _case_i(rng):
    for p in (5, 13, 17, 29):
        ctx = LocalFieldContext(p, N=2 * (p - 1), M=6)
        T = 3 * p + 2 if p < 17 else p
        for prec in (None, 4, 8, Fraction(19, 2)):
            center = sqrt_of_minus_one(ctx, prec)
            for _ in range(3):
                r, s = _unit_pair(rng, p * p, p)
                c = Fraction(-s, r)
                unit = [(-c, s), (Fraction(-1), -s), (Fraction(1), s), (c, -s)]
                yield ["case-i", p, str(prec), r, s], _coefficients(unit, center, T, p)
                roots = CoverParams(p, 2, r, s, c).roots()
                yield ["case-i roots", p, str(prec), r, s], _coefficients(roots, center, T, p)
        # a center on an exact root is refused, and so is one that equals a
        # root only to the precision of the two, with a message naming both
        exact = ctx.from_rational(Fraction(2, 3))
        near = ctx.from_rational(Fraction(2, 3), 4)
        on_sqrt = sqrt_of_minus_one(ctx)
        for label, root, at in (
            ("center on a root", exact, exact),
            ("center near a root", exact, near),
            ("center on a finite root", on_sqrt, on_sqrt),
        ):
            yield [label, p], _coefficients([(root, 2), (Fraction(1), 1)], at, 5, p)


def _exceptional(rng):
    ctx = LocalFieldContext(5, N=60, M=4)
    for nu in (2, 3):
        for case in ("a=0", "a=1"):
            found = 0
            while found < 4:
                # x = r + s for a=0 and s for a=1, with v_5(x) = nu - 1
                x = 5 ** (nu - 1) * rng.choice([m for m in range(5, 60) if m % 5])
                if case == "a=0":
                    r = rng.choice([k for k in range(1, x) if k % 5 and 2 * k != x])
                    s = x - r
                else:
                    r, s = rng.choice([k for k in range(1, 5**nu) if k % 5 and k != x]), x
                radicand = ctx.from_rational(Fraction(5) ** (4 * nu + 1) * math.comb(x, 5))
                try:
                    root = nth_root(radicand, 5)
                except NoNthRoot:
                    continue
                found += 1
                c = (ctx.from_rational(s) - root) * Fraction(-1, r)
                factors = [(Fraction(-1), r), (Fraction(1), -r), (-c, s), (c, -s)]
                yield ["exceptional", nu, case, r, s], _coefficients(factors, ctx.zero(), 17, 5)
                # a second center in the same field, at a unit or at 1/5
                shifted = ctx.from_rational(rng.choice([2, 3, Fraction(1, 5)]))
                yield ["exceptional shifted", nu, case, r, s], _coefficients(
                    factors, shifted, 12, 5
                )


def _gauss(rng):
    for p in (3, 7, 11):
        for _ in range(6):
            r, s = _unit_pair(rng, p * p, p)
            roots = CoverParams(p, 2, r, s, Fraction(-s, r)).roots()
            yield ["gauss at i", p, r, s], _coefficients(roots, I_GAUSS, 3 * p + 2, p)
            center = GaussRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            )
            yield ["gauss", p, r, s, repr(center)], _coefficients(roots, center, 3 * p + 2, p)
        # Gaussian roots, a repeated one, and a center on a root
        factors = [(I_GAUSS, 3), (-I_GAUSS, -2), (I_GAUSS, 1), (GaussRational(1, 1), 0)]
        yield ["gauss roots", p], _coefficients(factors, GaussRational(2, -1), 2 * p, p)
        yield ["gauss center on a root", p], _coefficients(factors, -I_GAUSS, 2 * p, p)


def generate():
    """Each expansion as (case-i, exceptional or gauss, its draw label,
    [draw label, coefficients])."""
    rng = random.Random(25)
    for family, part in (("case-i", _case_i), ("exceptional", _exceptional), ("gauss", _gauss)):
        for label, coefficients in part(rng):
            yield family, label, [label, coefficients]


def test_taylor_coefficients_are_byte_identical():
    records.check("taylor")
