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

from helpers import binomial_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
centers = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30))
# exponent 0 keeps its root in P but adds nothing to Q
exponents = st.integers(-5, 5)


@st.composite
def expansions(draw):
    """(factors, center, T): the factors draw their roots from a pool of at
    most three, so roots repeat, and the center is sometimes one of them."""
    pool = draw(st.lists(rationals, min_size=1, max_size=3))
    factors = draw(
        st.lists(st.tuples(st.sampled_from(pool), exponents), min_size=1, max_size=5)
    )
    roots = [root for root, _ in factors]
    if draw(st.integers(0, 3)) == 1:
        center = draw(st.sampled_from(roots))
    else:
        center = draw(centers.filter(lambda c: c not in roots))
    return factors, center, draw(st.integers(0, 40))


def _check_against_reference(factors, center, T):
    got = taylor_factors(factors, center, T, 7).coefficients
    assert got == binomial_reference(factors, center, T)
    assert all(type(c) is Fraction for c in got)


@SETTINGS
@given(case=expansions())
def test_rational_recurrence_matches_binomial_products(case):
    factors, center, T = case
    if any(center == root for root, _ in factors):
        with pytest.raises(PreconditionViolated, match="center equals the root"):
            taylor_factors(factors, center, T, 7)
        return
    _check_against_reference(factors, center, T)


@SETTINGS
@given(
    center=centers,
    g=st.integers(2, 6),
    shifts=st.lists(
        st.tuples(
            st.integers(-8, 8).filter(bool), st.integers(0, 4), exponents
        ),
        min_size=2,
        max_size=4,
    ),
    T=st.integers(0, 40),
)
def test_shifted_numerators_with_a_common_factor(center, g, shifts, T):
    # b_i = g a_i / (1 + g w_i) keeps the factor g in its numerator, since
    # the denominator is prime to g, so L = lcm(u_i) < |P(0)| = prod |u_i|
    bases = [Fraction(g * a, 1 + g * w) for a, w, _ in shifts]
    numerators = [b.numerator for b in bases]
    assert math.lcm(*numerators) < abs(math.prod(numerators))
    factors = [(center + b, m) for b, (_, _, m) in zip(bases, shifts)]
    _check_against_reference(factors, center, T)


@st.composite
def mirrored_expansions(draw):
    """(factors, center, T) whose shifted roots b = root - center come with
    their mirrors: (b, m) beside (b, -m), (-b, m), (-b, -m) or (-b, m + 1),
    so exponents of one |b| cancel in full or in part, with odd and even m
    and either sign of b. A base may repeat, and its exponents may be closed
    to sum to 0."""
    center = draw(centers)
    shifted = []
    for b in draw(st.lists(rationals.filter(bool), min_size=1, max_size=3)):
        ms = draw(st.lists(exponents, min_size=1, max_size=3))
        for m in ms:
            shifted.append((b, m))
            mirror = draw(st.sampled_from([None, (b, -m), (-b, m), (-b, -m), (-b, m + 1)]))
            if mirror is not None:
                shifted.append(mirror)
        if draw(st.booleans()):
            shifted.append((b, -sum(ms)))
    shifted = draw(st.permutations(shifted))
    return [(center + b, m) for b, m in shifted], center, draw(st.integers(0, 20))


@SETTINGS
@given(case=mirrored_expansions())
def test_cancelling_exponents_match_binomial_products(case):
    # g_0 = prod (-b)^m sums the exponents of each |b| before raising it and
    # folds the sign of each -b < 0 with odd m: the pairs drawn here cancel
    _check_against_reference(*case)


@st.composite
def local_field_expansions(draw):
    """(factors, center, T) in Q_p(pi), pi^N = p. Roots come from a pool of
    at most three rationals and elements, exact or at a finite precision, and
    the center is sometimes one of them."""
    ctx = LocalFieldContext(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 4)), 4)
    N = ctx.N

    def element():
        exponent = st.builds(Fraction, st.integers(-N, 2 * N), st.just(N))
        terms = draw(
            st.lists(st.tuples(exponent, st.integers(-20, 20)), min_size=1, max_size=3)
        )
        x = LocalFieldElement(ctx, terms)
        if draw(st.booleans()):
            # a finite precision above the lowest term, so x is rarely 0
            above = Fraction(draw(st.integers(1, 4 * N)), N)
            return x.truncate(min(e for e, _ in terms) + above)
        return x

    pool = [
        element() if draw(st.booleans()) else draw(rationals)
        for _ in range(draw(st.integers(1, 3)))
    ]
    factors = draw(st.lists(st.tuples(st.sampled_from(pool), exponents), min_size=1, max_size=4))
    center = draw(st.sampled_from(pool)) if draw(st.integers(0, 3)) == 1 else element()
    return factors, ctx.one() * center, draw(st.integers(0, 12))


@SETTINGS
@given(case=local_field_expansions())
def test_local_field_recurrence_matches_binomial_products(case):
    factors, center, T = case
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


@SETTINGS
@given(
    case=expansions(),
    re=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    im=st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12)),
    T=st.integers(0, 20),
)
def test_gaussian_center_matches_binomial_products(case, re, im, T):
    # a center off the real line is never a rational root; the reference is
    # slow in Q(i), so T stays at 20
    factors = case[0]
    center = GaussRational(re, im)
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


@SETTINGS
@given(
    T=st.sampled_from([0, 1]) | st.integers(0, 600),
    const=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    slope=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    weight=st.builds(Fraction, st.integers(-6, 30), st.integers(1, 60)),
)
def test_integer_tail_floor_matches_the_fraction_reference(T, const, slope, weight):
    series = TruncatedSeries([0] * (T + 1), tail_bound=(const, slope))
    got = series.tail_floor(weight)
    assert got == _tail_floor_reference(T, const, slope, weight)
    if got is not None:
        assert type(got) is Fraction
        # the least value of the minorant const + net*k - bitlen(k) over k > T
        net = slope + weight
        values = [const + net * k - k.bit_length() for k in range(T + 1, T + 3000)]
        assert got == min(values)


@SETTINGS
@given(
    T=st.integers(0, 80),
    p=st.sampled_from([3, 5, 7]),
    const=st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    slope=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    j=st.integers(1, 30),
    N=st.integers(1, 12),
)
def test_evaluate_reads_through_the_last_index_below_the_floor(T, p, const, slope, j, N):
    """An on-demand series hands evaluate c_0 .. c_imax and no more: imax is
    the last i <= T whose bound const + slope*i - v_p(i) + i*v(x) lies below
    the floor, found here by trying every i in Fractions."""
    x = LocalFieldContext(p, N=N).pi_power(Fraction(j, N))
    w = Fraction(j, N)
    read = []

    def zeros():
        for i in range(T + 1):
            read.append(i)
            yield Fraction(0)

    series = TruncatedSeries._on_demand(zeros(), T, (const, slope), p)
    floor = series.tail_floor(w)
    hypothesis.assume(floor is not None)
    series.evaluate(x)
    v_p = [0] + [next(v for v in range(i) if i % p ** (v + 1)) for i in range(1, T + 1)]
    live = [i for i in range(1, T + 1) if const + (slope + w) * i - v_p[i] < floor]
    assert read == list(range(max(live, default=0) + 1))
