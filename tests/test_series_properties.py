"""Property test of the Taylor recurrence over Q against the truncated
product of binomial series, on small random rational roots, exponents and
centers."""
from fractions import Fraction

import pytest

from srt import taylor_factors

from helpers import binomial_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
factor_sets = st.lists(st.tuples(rationals, st.integers(-5, 5)), min_size=1, max_size=4)


@SETTINGS
@given(factors=factor_sets, center=rationals, T=st.integers(0, 12))
def test_rational_recurrence_matches_binomial_products(factors, center, T):
    hypothesis.assume(all(center != root for root, _ in factors))
    got = taylor_factors(factors, center, T, 7).coefficients
    assert got == binomial_reference(factors, center, T)
    assert all(type(c) is Fraction for c in got)
