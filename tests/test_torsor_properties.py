"""Property tests of splitting_obstruction against the Fraction oracle of
tests/helpers.py, on valuation lists that sit at the threshold theta, at or
below it at p-divisible indices, and at infinity, given as a mix of ints,
Fractions and ExtendedRationals. The borderline case v(c_p) <= theta, which
the oracle leaves out, is covered by the example tests in
tests/test_torsor.py."""
import json
from fractions import Fraction

from srt import ExtendedRational, splitting_obstruction
from srt.valuation import INFINITY, to_jsonable

from draws import cases
from helpers import splitting_reference


def valuation_list(rng):
    """(vals, p, n): vals[i-1] is v(c_i) for i = 1..T with p <= T <= 3p + 2.
    Every value starts above theta or infinite, and up to three indices are
    then redrawn at theta, above or below it by a small offset, at an
    integer, or at infinity. Each finite value comes as an int when it is
    one, a Fraction or an ExtendedRational, and infinity as None or
    INFINITY."""
    p = rng.choice([3, 5, 7, 11])
    n = rng.choice([1, 2, 3, Fraction(3, 2)])
    theta = Fraction(n) + Fraction(1, p - 1)
    T = rng.randint(p, 3 * p + 2)

    def value(kinds):
        kind = rng.choice(kinds)
        if kind == "inf":
            return rng.choice([None, INFINITY])
        # small offsets from theta, over denominators that share factors with p - 1
        offset = Fraction(rng.randint(1, 6), rng.choice([1, 2, 3, 4, 6, 10, 12]))
        v = {
            "at": theta,
            "above": theta + offset,
            "below": theta - offset,
            "integer": Fraction(rng.randint(-2, 6)),
        }[kind]
        form = rng.choice([int, Fraction, ExtendedRational])
        if form is int and v.denominator != 1:
            form = Fraction
        return form(v)

    vals = [value(["above", "inf"]) for _ in range(T)]
    for _ in range(rng.randint(0, 3)):
        vals[rng.randint(1, T) - 1] = value(["at", "at", "below", "integer", "above", "inf"])
    return vals, p, n


def _as_fraction(v):
    if isinstance(v, ExtendedRational):
        v = v.value
    return None if v is None else Fraction(v)


def _outcome(want):
    if want is None:
        return "borderline"
    if want["verdict"] == "Inconclusive":
        return "p-divisible" if "p-divisible" in want["evidence"]["reason"] else "no unique index"
    return want["verdict"]


@cases(300)
def _check(seen, rng):
    vals, p, n = valuation_list(rng)
    got = to_jsonable(splitting_obstruction(vals, p, n))
    want = splitting_reference([_as_fraction(v) for v in vals], p, n)
    seen.add(_outcome(want))
    if want is None:
        # v(c_p) <= theta: the borderline case, which the reference leaves out
        assert got["verdict"] != "ObstructedByConditionI"
        if got["verdict"] == "SplitsWithConductor":
            assert got["evidence"]["absorbed"] == "true"
        return
    # the JSON text, so the evidence keys come in the same order
    assert json.dumps(got) == json.dumps(want)


def test_splitting_obstruction_matches_the_fraction_reference():
    seen = set()
    _check(seen)
    # the draws meet every outcome of the reference
    assert seen == {
        "p-divisible",
        "ObstructedByConditionI",
        "SplitsWithConductor",
        "no unique index",
        "borderline",
    }
