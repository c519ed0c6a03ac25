"""Property tests of vp and scaled_coefficient_valuations against the
independent valuation of the test oracle, on ints, Fractions, and the str
and float forms vp converts."""
import math
from fractions import Fraction

from srt import (
    INFINITY,
    ExtendedRational,
    TruncatedSeries,
    scaled_coefficient_valuations,
    vp,
)

from draws import cases
from helpers import vp_fraction

PRIMES = [2, 3, 5, 7, 11, 13]


def integer(rng):
    return rng.choice([rng.randint(-(10**30), 10**30), 0, 1, -1, 2**64, -(3**40)])


def fraction(rng):
    return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))


def text(rng):
    """The text forms Fraction parses: "a/b", "a", and decimals with an
    exponent."""
    return rng.choice([
        lambda: f"{rng.randint(-(10**9), 10**9)}/{rng.randint(1, 10**9)}",
        lambda: str(rng.randint(-(10**9), 10**9)),
        lambda: f"{rng.randint(-999, 999)}e{rng.randint(-30, 30)}",
    ])()


def finite_float(rng):
    """Zeros of both signs, the least subnormal, the largest float, 0.1, or
    any sign and binary exponent."""
    scaled = math.ldexp(rng.random(), rng.randint(-1074, 1024))
    return rng.choice([0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, scaled, -scaled])


def _assert_valuation(got, x, p):
    """got is vp's answer for x: INFINITY at 0, else an ExtendedRational
    whose value is the Fraction the oracle gives."""
    assert type(got) is ExtendedRational
    if Fraction(x) == 0:
        assert got.is_infinite and got == INFINITY
        return
    assert type(got.value) is Fraction
    assert got.value == vp_fraction(x, p)


@cases(200)
def test_vp_matches_the_oracle(rng):
    x = rng.choice([integer, fraction, text, finite_float])(rng)
    p = rng.choice(PRIMES)
    _assert_valuation(vp(x, p), x, p)


@cases(200)
def test_scaled_coefficient_valuations_match_the_oracle(rng):
    coefficients = [rng.choice([integer, fraction])(rng) for _ in range(rng.randint(1, 12))]
    v_e = rng.choice([fraction, lambda rng: rng.randint(-20, 20), text])(rng)
    p = rng.choice(PRIMES)
    got = scaled_coefficient_valuations(TruncatedSeries(coefficients), p, v_e)
    assert len(got) == len(coefficients) - 1
    for i, (v, c) in enumerate(zip(got, coefficients[1:]), 1):
        assert type(v) is ExtendedRational
        if c == 0:
            assert v.is_infinite
        else:
            assert type(v.value) is Fraction
            assert v.value == vp_fraction(c, p) + i * Fraction(v_e)
