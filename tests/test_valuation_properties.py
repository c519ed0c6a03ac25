"""Property tests of vp and scaled_coefficient_valuations against the
independent valuation of the test oracle, on ints, Fractions, and the str
and float forms vp converts."""
from fractions import Fraction

import pytest

from srt import (
    INFINITY,
    ExtendedRational,
    TruncatedSeries,
    scaled_coefficient_valuations,
    vp,
)

from helpers import vp_fraction

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

primes = st.sampled_from([2, 3, 5, 7, 11, 13])
ints = st.integers(-(10**30), 10**30) | st.sampled_from([0, 1, -1, 2**64, -(3**40)])
fractions = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12))
# the text forms Fraction parses: "a/b", "a", and decimals with an exponent
texts = (
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-(10**9), 10**9), st.integers(1, 10**9))
    | st.integers(-(10**9), 10**9).map(str)
    | st.builds(lambda n, e: f"{n}e{e}", st.integers(-999, 999), st.integers(-30, 30))
)
floats = st.floats(allow_nan=False, allow_infinity=False)


def _assert_valuation(got, x, p):
    """got is vp's answer for x: INFINITY at 0, else an ExtendedRational
    whose value is the Fraction the oracle gives."""
    assert type(got) is ExtendedRational
    if Fraction(x) == 0:
        assert got.is_infinite and got == INFINITY
        return
    assert type(got.value) is Fraction
    assert got.value == vp_fraction(x, p)


@SETTINGS
@given(x=ints | fractions | texts | floats, p=primes)
def test_vp_matches_the_oracle(x, p):
    _assert_valuation(vp(x, p), x, p)


@SETTINGS
@given(
    coefficients=st.lists(ints | fractions, min_size=1, max_size=12),
    v_e=fractions | st.integers(-20, 20) | texts,
    p=primes,
)
def test_scaled_coefficient_valuations_match_the_oracle(coefficients, v_e, p):
    got = scaled_coefficient_valuations(TruncatedSeries(coefficients), p, v_e)
    assert len(got) == len(coefficients) - 1
    for i, (v, c) in enumerate(zip(got, coefficients[1:]), 1):
        assert type(v) is ExtendedRational
        if c == 0:
            assert v.is_infinite
        else:
            assert type(v.value) is Fraction
            assert v.value == vp_fraction(c, p) + i * Fraction(v_e)
