"""Property tests of the Taylor recurrence against the truncated product of
binomial series, on small random roots, exponents and centers: repeated
roots, exponent 0, shifted numerators with a common factor, roots b and -b
whose exponents cancel, and a center on a root, which is refused. Over Q the
roots and centers are rationals; in the local field Q_p(pi) they are exact
or finite-precision elements, and in Q(i) the centers are Gaussian
rationals. Evaluation at a local-field point is checked against Horner's
rule and on every lift of the point and the coefficients in
tests/test_localfield_properties.py (TestLifts)."""
import math
from fractions import Fraction

import pytest

from srt import (
    GaussRational,
    LocalFieldContext,
    LocalFieldElement,
    TruncatedSeries,
    taylor_factors,
)
from srt.errors import PrecisionError, PreconditionViolated

from draws import cases, fraction, nonzero
from helpers import binomial_reference


def rational(rng):
    return fraction(rng, -12, 12, 6)


def center(rng):
    return fraction(rng, -60, 60, 30)


def exponent(rng):
    # exponent 0 keeps its root in P but adds nothing to Q
    return rng.randint(-5, 5)


def expansion(rng):
    """(factors, center, T): the factors draw their roots from a pool of at
    most three, so roots repeat, and the center is sometimes one of them."""
    pool = [rational(rng) for _ in range(rng.randint(1, 3))]
    factors = [(rng.choice(pool), exponent(rng)) for _ in range(rng.randint(1, 5))]
    roots = [root for root, _ in factors]
    if rng.random() < 1 / 4:
        return factors, rng.choice(roots), rng.randint(0, 40)
    at = center(rng)
    while at in roots:
        at = center(rng)
    return factors, at, rng.randint(0, 40)


def _check_against_reference(factors, center, T):
    got = taylor_factors(factors, center, T, 7).coefficients
    assert got == binomial_reference(factors, center, T)
    assert all(type(c) is Fraction for c in got)


@cases(60)
def test_rational_recurrence_matches_binomial_products(rng):
    factors, center, T = expansion(rng)
    if any(center == root for root, _ in factors):
        with pytest.raises(PreconditionViolated, match="center equals the root"):
            taylor_factors(factors, center, T, 7)
        return
    _check_against_reference(factors, center, T)


@cases(60)
def test_shifted_numerators_with_a_common_factor(rng):
    at, g, T = center(rng), rng.randint(2, 6), rng.randint(0, 40)
    shifts = [(nonzero(rng, 8), rng.randint(0, 4), exponent(rng)) for _ in range(rng.randint(2, 4))]
    # b_i = g a_i / (1 + g w_i) keeps the factor g in its numerator, since
    # the denominator is prime to g, so L = lcm(u_i) < |P(0)| = prod |u_i|
    bases = [Fraction(g * a, 1 + g * w) for a, w, _ in shifts]
    numerators = [b.numerator for b in bases]
    assert math.lcm(*numerators) < abs(math.prod(numerators))
    factors = [(at + b, m) for b, (_, _, m) in zip(bases, shifts)]
    _check_against_reference(factors, at, T)


def mirrored_expansion(rng):
    """(factors, center, T) whose shifted roots b = root - center come with
    their mirrors: (b, m) beside (b, -m), (-b, m), (-b, -m) or (-b, m + 1),
    so exponents of one |b| cancel in full or in part, with odd and even m
    and either sign of b. A base may repeat, and its exponents may be closed
    to sum to 0."""
    at = center(rng)
    shifted = []
    for _ in range(rng.randint(1, 3)):
        b = Fraction(nonzero(rng, 12), rng.randint(1, 6))
        ms = [exponent(rng) for _ in range(rng.randint(1, 3))]
        for m in ms:
            shifted.append((b, m))
            mirror = rng.choice([None, (b, -m), (-b, m), (-b, -m), (-b, m + 1)])
            if mirror is not None:
                shifted.append(mirror)
        if rng.choice([False, True]):
            shifted.append((b, -sum(ms)))
    rng.shuffle(shifted)
    return [(at + b, m) for b, m in shifted], at, rng.randint(0, 20)


@cases(60)
def test_cancelling_exponents_match_binomial_products(rng):
    # g_0 = prod (-b)^m sums the exponents of each |b| before raising it and
    # folds the sign of each -b < 0 with odd m: the pairs drawn here cancel
    _check_against_reference(*mirrored_expansion(rng))


def local_field_expansion(rng):
    """(factors, center, T) in Q_p(pi), pi^N = p. Roots come from a pool of
    at most three rationals and elements, exact or at a finite precision, and
    the center is sometimes one of them."""
    ctx = LocalFieldContext(rng.choice([3, 5, 7]), rng.randint(1, 4), 4)
    N = ctx.N

    def element():
        terms = [(Fraction(rng.randint(-N, 2 * N), N), rng.randint(-20, 20))
                 for _ in range(rng.randint(1, 3))]
        x = LocalFieldElement(ctx, terms)
        if rng.choice([False, True]):
            # a finite precision above the lowest term, so x is rarely 0
            return x.truncate(min(e for e, _ in terms) + Fraction(rng.randint(1, 4 * N), N))
        return x

    pool = [element() if rng.choice([False, True]) else rational(rng)
            for _ in range(rng.randint(1, 3))]
    factors = [(rng.choice(pool), exponent(rng)) for _ in range(rng.randint(1, 4))]
    at = rng.choice(pool) if rng.random() < 1 / 4 else element()
    return factors, ctx.one() * at, rng.randint(0, 12)


@cases(60)
def test_local_field_recurrence_matches_binomial_products(rng):
    factors, center, T = local_field_expansion(rng)
    bases = [center.ctx.one() * (root - center) for root, _ in factors]
    # the first root at the center is refused: on an exact root, or on one
    # equal to the center only to its precision, before P(0) is inverted
    at_root = next((b for b in bases if not b.terms), None)
    if at_root is not None:
        error, message = (
            (PreconditionViolated, "center equals the root")
            if at_root == 0
            else (PrecisionError, "the center .* equals the root")
        )
        with pytest.raises(error, match=message):
            taylor_factors(factors, center, T, center.ctx.p)
        return
    got = taylor_factors(factors, center, T, center.ctx.p).coefficients
    want = binomial_reference(factors, center, T)
    assert all(type(c) is LocalFieldElement for c in got)
    assert got[0].terms
    for k, (g, w) in enumerate(zip(got, want)):
        # the difference vanishes below the joint precision
        assert not (g - w).terms, k
        if g.terms and w.terms:
            assert g.valuation() == w.valuation(), k


@cases(60)
def test_gaussian_center_matches_binomial_products(rng):
    # a center off the real line is never a rational root; the reference is
    # slow in Q(i), so T stays at 20
    factors = expansion(rng)[0]
    im = Fraction(nonzero(rng, 30), rng.randint(1, 12))
    center = GaussRational(fraction(rng, -30, 30, 12), im)
    T = rng.randint(0, 20)
    got = taylor_factors(factors, center, T, 7).coefficients
    assert got == binomial_reference(factors, center, T)
    assert all(type(c) is GaussRational for c in got)


def _tail_floor_reference(T, const, slope, weight):
    """The tail floor with every comparison made in Fractions."""
    net = slope + weight
    if net <= 0:
        return None
    candidates = [T + 1]
    b = 1
    while (1 << b) <= T:
        b += 1
    while True:
        k = 1 << b
        candidates.append(k)
        if net * k - b >= net * candidates[0] + 4:
            break
        b += 1
    return min(const + net * k - k.bit_length() for k in candidates)


@cases(60)
def test_integer_tail_floor_matches_the_fraction_reference(rng):
    T = rng.choice([0, 1, rng.randint(0, 600)])
    const, slope = fraction(rng, -30, 30, 12), fraction(rng, -12, 12, 12)
    weight = fraction(rng, -6, 30, 60)
    series = TruncatedSeries([0] * (T + 1), tail_bound=(const, slope))
    got = series.tail_floor(weight)
    assert got == _tail_floor_reference(T, const, slope, weight)
    if got is not None:
        assert type(got) is Fraction
        # the least value of the minorant const + net*k - bitlen(k) over k > T
        net = slope + weight
        values = [const + net * k - k.bit_length() for k in range(T + 1, T + 3000)]
        assert got == min(values)


@cases(60)
def test_evaluate_reads_through_the_last_index_below_the_floor(rng):
    """An on-demand series hands evaluate c_0 .. c_imax and no more: imax is
    the last i <= T whose bound const + slope*i - v_p(i) + i*v(x) lies below
    the floor, found here by trying every i in Fractions."""
    read = []

    def zeros():
        for i in range(T + 1):
            read.append(i)
            yield Fraction(0)

    floor = None
    while floor is None:  # a series with no floor at x is drawn anew
        T, p = rng.randint(0, 80), rng.choice([3, 5, 7])
        const, slope = fraction(rng, -30, 30, 12), fraction(rng, -12, 12, 12)
        j, N = rng.randint(1, 30), rng.randint(1, 12)
        w = Fraction(j, N)
        series = TruncatedSeries._on_demand(zeros(), T, (const, slope), p)
        floor = series.tail_floor(w)
    series.evaluate(LocalFieldContext(p, N=N).pi_power(w))
    v_p = [0] + [next(v for v in range(i) if i % p ** (v + 1)) for i in range(1, T + 1)]
    live = [i for i in range(1, T + 1) if const + (slope + w) * i - v_p[i] < floor]
    assert read == list(range(max(live, default=0) + 1))
