"""Property tests of the Taylor recurrence over Q against the truncated
product of binomial series, on small random rational roots, exponents and
centers: repeated roots, exponent 0, shifted numerators with a common factor,
and a center on a root, which is refused."""
import math
from fractions import Fraction

import pytest

from srt import taylor_factors
from srt.errors import PreconditionViolated

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
