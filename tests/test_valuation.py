"""Unit tests for exact p-adic valuations and combinatorial helpers."""
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from srt import (
    INFINITY,
    ExtendedRational,
    multinomial,
    vp,
)
from srt.errors import Unsupported
from srt.localfield import LocalFieldContext
from srt.valuation import is_prime, to_jsonable


class TestVp:
    def test_values(self):
        assert vp(250, 5) == Fraction(3)
        assert vp(Fraction(1, 25), 5) == Fraction(-2)
        assert vp(Fraction(-75, 8), 5) == Fraction(2)
        assert vp(Fraction(-75, 8), 2) == Fraction(-3)
        assert vp(6, 7) == Fraction(0)

    def test_zero_is_infinite(self):
        assert vp(0, 5).is_infinite
        assert vp(Fraction(0), 3) == INFINITY

    def test_bad_prime(self):
        with pytest.raises(ValueError):
            vp(10, 1)

    def test_normalization(self):
        # v(p) = 1 for every p
        for p in (2, 3, 5, 7, 11):
            assert vp(p, p) == Fraction(1)


class TestExtendedRational:
    def test_total_order_with_infinity(self):
        assert INFINITY > Fraction(10**9)
        assert not INFINITY < INFINITY
        assert INFINITY >= INFINITY
        assert INFINITY == ExtendedRational(None)
        assert ExtendedRational(Fraction(1, 3)) < ExtendedRational(Fraction(1, 2))

    def test_arithmetic(self):
        a = ExtendedRational(Fraction(3, 2))
        assert (a + Fraction(1, 2)).as_fraction() == 2
        assert (a * 2).as_fraction() == 3
        assert (INFINITY + a).is_infinite
        assert (INFINITY * 7).is_infinite

    def test_as_fraction_of_infinity_raises(self):
        with pytest.raises(ValueError):
            INFINITY.as_fraction()

    def test_hashable(self):
        assert len({ExtendedRational(1), ExtendedRational(Fraction(2, 2))}) == 1

    # operands of every type a comparison accepts, each with the extended
    # rational it stands for (None is +infinity)
    OPERANDS = [
        (0, Fraction(0)),
        (1, Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(-3, 4), Fraction(-3, 4)),
        (ExtendedRational(Fraction(1, 2)), Fraction(1, 2)),
        (ExtendedRational(-1), Fraction(-1)),
        (INFINITY, None),
        ("1/2", Fraction(1, 2)),
        ("2", Fraction(2)),
        # compared exactly, not through float(1/3)
        (1 / 3, Fraction(1 / 3)),
    ]
    SELVES = [
        ExtendedRational(Fraction(1, 2)),
        ExtendedRational(1),
        ExtendedRational(Fraction(1, 3)),
        ExtendedRational(-1),
        INFINITY,
    ]
    OPS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]

    @staticmethod
    def _key(v):
        # +infinity above every rational
        return (1, 0) if v is None else (0, v)

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_comparison_table(self, op):
        for a in self.SELVES:
            ka = self._key(a.value)
            for b, vb in self.OPERANDS:
                kb = self._key(vb)
                assert op(a, b) is op(ka, kb), (a, op.__name__, b)
                # the reflected form, e.g. Fraction < ExtendedRational
                assert op(b, a) is op(kb, ka), (b, op.__name__, a)

    @pytest.mark.parametrize("other", ["abc", object(), [1], 1j])
    def test_equality_with_a_non_number_is_false(self, other):
        for a in self.SELVES:
            assert not a == other
            assert a != other
            assert not other == a

    @pytest.mark.parametrize("op", OPS[2:], ids=lambda op: op.__name__)
    def test_ordering_against_a_non_number_raises(self, op):
        with pytest.raises(ValueError):
            op(ExtendedRational(1), "abc")
        with pytest.raises(TypeError):
            op(ExtendedRational(1), object())

    # ExtendedRational(None) is +infinity, but a None operand is not a
    # valuation (it used to read as infinity: INFINITY == None was True)
    def test_equality_with_none_is_false(self):
        assert ExtendedRational(None) == INFINITY
        assert not INFINITY == None  # noqa: E711
        assert not ExtendedRational(1) == None  # noqa: E711
        assert INFINITY != None  # noqa: E711

    @pytest.mark.parametrize("op", OPS[2:], ids=lambda op: op.__name__)
    def test_ordering_against_none_raises(self, op):
        for a in self.SELVES:
            with pytest.raises(TypeError):
                op(a, None)

    def test_adding_none_raises(self):
        for a in self.SELVES:
            with pytest.raises(TypeError):
                a + None
            with pytest.raises(TypeError):
                None + a

    @pytest.mark.parametrize("x", [0, -7, Fraction(3, 5), Fraction(-9, 4), "5/10", 10**30])
    def test_hash_matches_fraction(self, x):
        assert hash(ExtendedRational(x)) == hash(Fraction(x))
        assert ExtendedRational(x).value == Fraction(x)

    def test_fraction_is_kept(self):
        x = Fraction(7, 3)
        assert ExtendedRational(x).value is x
        assert type(ExtendedRational(5).value) is Fraction


class TestMultinomial:
    def test_values(self):
        assert multinomial(10, (3, 3, 4)) == 4200
        assert multinomial(5, (5,)) == 1
        assert multinomial(0, ()) == 1
        assert multinomial(0, (0,)) == 1

    def test_binomial_special_case(self):
        import math

        assert multinomial(12, (5, 7)) == math.comb(12, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            multinomial(10, (3, 3))
        with pytest.raises(ValueError):
            multinomial(4, (-1, 5))


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(-3, 20000) if is_prime(n)] == [
            n for n in range(-3, 20000) if trial(n)
        ]

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the bases 2, 3, 5, 7 and to every
        # prime base up to 31
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_large_primes(self):
        assert is_prime(1000000000061)
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * 1000000000061)

    def test_beyond_the_certified_range(self):
        with pytest.raises(Unsupported):
            is_prime(2**89 - 1)


@dataclass
class _Inner:
    kind: str = field(metadata={"json": "verdict"})
    value: Fraction | None = None


@dataclass
class _Report:
    name: str
    inner: _Inner
    count: int = 0
    items: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class TestToJsonable:
    def test_fields_at_their_default_are_left_out(self):
        assert to_jsonable(_Report("r", _Inner("yes"))) == {
            "name": "r",
            "inner": {"verdict": "yes"},
        }

    def test_fields_off_their_default_are_kept_in_declaration_order(self):
        report = _Report("r", _Inner("no", Fraction(3, 2)), 2, [1], {"a": 1})
        out = to_jsonable(report)
        assert list(out) == ["name", "inner", "count", "items", "extra"]
        assert out["count"] == 2 and out["items"] == [1] and out["extra"] == {"a": 1}

    def test_metadata_json_renames_a_field(self):
        assert to_jsonable(_Inner("Holds")) == {"verdict": "Holds"}

    def test_nested_dataclass_and_local_field_element(self):
        x = LocalFieldContext(5, N=5).from_rational(7, 3)
        out = to_jsonable(_Report("r", _Inner("no", Fraction(1, 5)), items=[x, INFINITY]))
        assert out["inner"] == {"verdict": "no", "value": "1/5"}
        assert out["items"] == [x.to_json(), "inf"]

    def test_any_other_value_passes_as_it_is(self):
        assert to_jsonable({"x": [1.5, True]}) == {"x": [1.5, True]}

    def test_none_in_a_plain_dict_is_kept(self):
        cert = {"kind": "congruence", "alpha": 4, "beta": None}
        assert to_jsonable(_Report("r", _Inner("no"), extra=cert))["extra"] == cert
