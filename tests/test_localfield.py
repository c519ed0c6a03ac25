"""Unit tests for exact arithmetic in ramified extensions of Q_p, cross
checked against the independent polynomial-ring oracle in helpers.py."""
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import srt.localfield
from srt import (
    LocalFieldContext,
    LocalFieldElement,
    NoNthRoot,
    PrecisionError,
    PreconditionViolated,
    is_pth_power,
    nth_root,
    sqrt_of_minus_one,
)
from srt.errors import Unsupported
from srt.valuation import power, to_jsonable

from helpers import PiExt, pi_digits, pth_power_residues


def ctx5(N=5, M=8):
    return LocalFieldContext(5, N=N, M=M)


def lift(ctx, x):
    """PiExt -> LocalFieldElement over the same pi^N = p presentation."""
    out = ctx.zero()
    for i, c in enumerate(x.coeffs):
        if c != 0:
            out = out + ctx.pi_power(Fraction(i, x.n), c)
    return out


class TestContext:
    def test_validation(self):
        with pytest.raises(Unsupported):
            LocalFieldContext(4)
        with pytest.raises(Unsupported):
            LocalFieldContext(2)
        with pytest.raises(PreconditionViolated, match="N and M must be positive, got N=0, M=8"):
            LocalFieldContext(5, N=0)
        with pytest.raises(PreconditionViolated, match="N and M must be positive, got N=40, M=0"):
            LocalFieldContext(5, M=0)

    def test_frozen(self):
        ctx = LocalFieldContext(5, 5, 8)
        with pytest.raises(AttributeError):
            ctx.M = 9
        assert ctx.M == 8
        assert repr(ctx) == "LocalFieldContext(p=5, N=5, M=8)"
        assert hash(ctx) == hash((5, 5, 8))


class TestCanonicalForm:
    def test_pi_power_unit_normalization(self):
        # 10 * pi^2 = 2 * 5 * pi^2 = 2 * pi^7 for pi^5 = 5
        x = ctx5().pi_power(Fraction(2, 5), 10)
        assert x.valuation().as_fraction() == Fraction(7, 5)
        assert x.terms[Fraction(7, 5)] == 2

    def test_same_class_terms_merge(self):
        ctx = ctx5()
        x = ctx.pi_power(Fraction(1, 5), 3) + ctx.pi_power(Fraction(6, 5), 1)
        # 3*pi + 5*pi = 8*pi
        assert list(x.terms.items()) == [(Fraction(1, 5), 8)]

    def test_distinct_classes_cannot_cancel(self):
        ctx = ctx5()
        x = ctx.one() - ctx.pi_power(Fraction(1, 5))
        assert x.valuation().as_fraction() == 0

    def test_exact_cancellation(self):
        ctx = ctx5()
        x = ctx.from_rational(7) - ctx.from_rational(7)
        assert x.is_zero()
        assert x.valuation().is_infinite

    def test_terms_view_is_a_copy(self):
        ctx = LocalFieldContext(5, N=5)
        for prec in (None, 3):
            x = ctx.from_rational(7, prec)
            before = (repr(x), x.to_json(), to_jsonable(is_pth_power(x)), hash(x))
            view = x.terms
            view.clear()
            view[Fraction(1, 5)] = 3
            assert (repr(x), x.to_json(), to_jsonable(is_pth_power(x)), hash(x)) == before
            assert hash(x) == hash(ctx.from_rational(7, prec))

    def test_bad_exponent(self):
        with pytest.raises(PreconditionViolated, match="exponent 1/3 not representable"):
            ctx5().pi_power(Fraction(1, 3))

    def test_an_exponent_reads_as_the_fraction_of_its_value(self):
        # a str or float exponent is read by Fraction, as a Fraction is; the
        # float 0.4 is the double nearest 2/5, not in (1/5)Z
        ctx = ctx5()
        assert LocalFieldElement(ctx, [("2/5", 3)]) == ctx.pi_power(Fraction(2, 5), 3)
        assert LocalFieldElement(ctx, [(2.0, 3)]) == ctx.pi_power(2, 3)
        with pytest.raises(PreconditionViolated, match="not representable"):
            LocalFieldElement(ctx, [(0.4, 3)])

    def test_equality_with_non_numbers_is_false(self):
        # __eq__ coerces the other side; what Fraction refuses compares unequal
        ctx = ctx5()
        for prec in (None, 3):
            for x in (ctx.from_rational(3, prec), ctx.pi_power(Fraction(2, 5), 7, prec)):
                for other in ("abc", None, object(), [3]):
                    assert (x == other) is False
                    assert (x != other) is True

    def test_equality_with_numbers_is_coerced(self):
        ctx = ctx5()
        for prec in (None, 3):
            for value in (3, 0, -10, Fraction(3, 25), Fraction(-7, 2)):
                for x in (ctx.from_rational(3, prec), ctx.from_rational(value, prec), ctx.zero(prec)):
                    assert (x == value) == (x == ctx.from_rational(value))
                    # an element at finite precision never equals an exact one
                    assert (x == value) == (prec is None and x.terms == ctx.from_rational(value).terms)


class TestPrecision:
    def test_truncate(self):
        ctx = ctx5()
        x = ctx.from_rational(1 + 5**4).truncate(3)
        assert x.terms == {Fraction(0): 1}
        assert x.prec == 3

    def test_zero_to_precision_is_undecidable(self):
        x = ctx5().zero(prec=4)
        with pytest.raises(PrecisionError):
            x.is_zero()
        with pytest.raises(PrecisionError):
            x.valuation()
        assert x.valuation_lower_bound().as_fraction() == 4

    def test_unit_residues_canonicalized_at_finite_precision(self):
        ctx = ctx5()
        x = ctx.from_rational(Fraction(1, 3), prec=2)
        assert x.terms[Fraction(0)] == pow(3, -1, 25)

    def test_precision_off_the_grid(self):
        # a precision need not lie in (1/N)Z; it shows as the same Fraction
        # in repr, to_json, == and hash, and moves by term valuations
        ctx = ctx5()
        x = LocalFieldElement(ctx, [(0, 7), (Fraction(1, 5), 3)], prec=Fraction(1, 3))
        assert repr(x) == "2 + 3*5^(1/5) + O(5^(1/3))"
        assert x.to_json() == {
            "terms": [
                {"exponent": "0", "unit": "2", "modulus": "5^1"},
                {"exponent": "1/5", "unit": "3", "modulus": "5^1"},
            ],
            "precision": "1/3",
        }
        assert x.prec == Fraction(1, 3)
        same = LocalFieldElement(ctx, [(0, 2), (Fraction(1, 5), 3)], prec="2/6")
        assert x == same and hash(x) == hash(same)
        assert x != LocalFieldElement(ctx, [(0, 2), (Fraction(1, 5), 3)], prec=Fraction(2, 5))
        y = x * ctx.pi_power(Fraction(1, 5))
        assert repr(y) == "2*5^(1/5) + 3*5^(2/5) + O(5^(8/15))"
        assert repr(x + ctx.zero(prec=Fraction(1, 5))) == "2 + O(5^(1/5))"
        assert repr(x.truncate(Fraction(1, 4))) == "2 + 3*5^(1/5) + O(5^(1/4))"
        # two off-grid precisions can sum onto the grid
        product = ctx.zero(prec=Fraction(1, 3)) * ctx.zero(prec=Fraction(2, 3))
        assert product == ctx.zero(prec=1) and repr(product) == "0 + O(5^(1))"

    def test_precision_carried_into_a_subfield(self):
        # 276 + 3*5 + 4*5^3 = 791 = 166 mod 5^4, at a precision 16/5 off the
        # grid (1/N)Z of Q_5 (N = 1)
        sub = LocalFieldContext(5, N=1, M=8)
        w = LocalFieldElement(sub, [(0, 276), (1, 3), (3, 4)], prec=Fraction(16, 5))
        assert repr(w) == "166 + O(5^(16/5))"
        assert w.to_json() == {
            "terms": [{"exponent": "0", "unit": "166", "modulus": "5^4"}],
            "precision": "16/5",
        }
        same = LocalFieldElement(sub, [(0, 166)], prec=Fraction(16, 5))
        assert w == same and hash(w) == hash(same)
        assert repr(w * 5) == "166*5 + O(5^(21/5))"
        on_grid = LocalFieldElement(sub, [(0, 7)], prec=Fraction(15, 5))
        assert on_grid == LocalFieldElement(sub, [(0, 7)], prec=3)


class TestArithmeticAgainstOracle:
    def test_ring_operations(self):
        rng = random.Random(11)
        ctx = ctx5()
        for _ in range(50):
            a = PiExt([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                       for _ in range(5)])
            b = PiExt([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                       for _ in range(5)])
            la, lb = lift(ctx, a), lift(ctx, b)
            assert (la + lb - lift(ctx, a + b)).is_zero()
            assert (la * lb - lift(ctx, a * b)).is_zero()
            assert (la - lb - lift(ctx, a - b)).is_zero()
            assert (la**3 - lift(ctx, a**3)).is_zero()
            if not a.is_zero():
                assert la.valuation().as_fraction() == a.valuation()

    def test_one_term_finite_factor(self):
        # a product by f = u * pi^k known to p^q is a shift: it is the
        # oracle's product to q + v(a), on either side, and so is f ** n
        rng = random.Random(13)
        ctx = ctx5()
        for _ in range(50):
            a = PiExt([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(5)])
            k, u = rng.randint(-5, 10), rng.choice([-7, -3, -1, 1, 2, 4, 6, 8])
            q = Fraction(k + rng.randint(1, 15), 5)
            f, f_value = ctx.pi_power(Fraction(k, 5), u, q), PiExt.pi() ** k * u
            la = lift(ctx, a)
            for got in (la * f, f * la):
                if a.is_zero():
                    assert got == ctx.zero()
                    continue
                assert got.prec == q + a.valuation()
                assert (got - lift(ctx, a * f_value)).valuation_lower_bound() >= got.prec
            n = rng.randint(1, 9) * rng.choice([1, -1])
            got = f**n
            # the relative precision q - k/5 holds throughout
            assert got.prec == q + (n - 1) * Fraction(k, 5)
            assert (got - lift(ctx, f_value**n)).valuation_lower_bound() >= got.prec

    def test_division_roundtrip(self):
        rng = random.Random(12)
        ctx = ctx5()
        for _ in range(30):
            a = PiExt([rng.randint(-9, 9) for _ in range(5)])
            b = PiExt([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(4)])
            la, lb = lift(ctx, a), lift(ctx, b)
            q = la / lb
            back = q * lb - la
            assert back.valuation_lower_bound() > 5

    def test_inverse_of_two_plus_pi_is_fast(self):
        """(2 + pi)^-1 at N = 60 to precision p^8 costs a few Newton steps; the
        best of three runs stays under 50 ms."""
        ctx = LocalFieldContext(5, N=60, M=8)
        x = ctx.from_rational(2) + ctx.pi_power(Fraction(1, 60))
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            y = x.inverse()
            best = min(best, time.perf_counter() - start)
        assert y.prec == 8
        assert (x * y - 1).valuation_lower_bound() >= 8
        assert best < 0.050

    def test_newton_steps_canonicalize_once_per_dot(self, monkeypatch):
        """Only a dot whose products can merge canonicalizes; -u, a
        truncation and a product by a rational or a power of pi are shifts.
        1/u of the exact unit u = 1 + pi + pi^2 to relative precision 20
        takes 7 Newton steps from v(1 - u*y) = 1/5, each of two dots (the
        error 1 - u*y and y + y*err); with the first error that is 15
        canonicalizations. Its fifth root from u^5 takes 47: 1 for the
        peel's first difference w - alpha^5, with alpha^5 an int, 5 for its
        one step (y + digit, the three products of y^5 and the difference),
        9 for the inverse of 5w (its first error and 4 steps), and 32 for 6
        Newton steps, each one product d = diff * c and one dot y + y*d, and
        in the 5 that go on the three products of y^5 and the difference.
        The steps read d modulo p^19 and v(d_1) = v(w - y^5) - 1 = 2/5, so
        the inverse of 5w is taken to relative precision 19 - 2/5 = 93/5,
        not to 20, the precision w is cut to: one Newton step less."""
        ctx = LocalFieldContext(5, N=5, M=20)
        u = LocalFieldElement(ctx, [(0, 1), (Fraction(1, 5), 1), (Fraction(2, 5), 1)])
        fifth = u**5
        calls = []
        canonicalize = srt.localfield._canonicalize

        def counting(*args):
            calls.append(None)
            return canonicalize(*args)

        monkeypatch.setattr(srt.localfield, "_canonicalize", counting)
        y = u.inverse()
        inverse_calls = len(calls)
        root = nth_root(fifth, 5)
        monkeypatch.undo()
        assert (inverse_calls, len(calls) - inverse_calls) == (15, 47)
        assert y.prec == 20 and (u * y - 1).valuation_lower_bound() >= 20
        assert root == u.truncate(19)

    def test_one_term_factors_do_not_canonicalize(self, monkeypatch):
        # a product by one term, exact or not, moves each term of the other
        # factor to a class of its own: x * 3/5 and -x are products by a
        # rational, x.truncate(q) is x * 1 at q, and x * f is a product by
        # a finite one-term f; d ** 17 and f ** 4 are formed as one term
        ctx = ctx5()
        d = ctx.pi_power(Fraction(2, 5), Fraction(-7, 3))
        f = ctx.pi_power(Fraction(1, 5), 2, prec=Fraction(12, 5))
        x = LocalFieldElement(ctx, [(0, 3), (Fraction(1, 5), Fraction(7, 2))], 4)
        calls = []
        monkeypatch.setattr(srt.localfield, "_canonicalize", lambda *args: calls.append(args))
        d17, product, neg, cut = d**17, x * Fraction(3, 5), -x, x.truncate(Fraction(13, 5))
        by_finite, finite_power, inverse_power = x * f, f**4, f**-3
        monkeypatch.undo()
        assert calls == []
        assert d17 == ctx.pi_power(Fraction(34, 5), Fraction(-7, 3) ** 17)
        assert product.prec == 3 and product.terms == {Fraction(-1): 9, Fraction(-4, 5): 323}
        assert neg.prec == 4 and (neg + x).terms == {}
        assert cut.prec == Fraction(13, 5) and cut.terms == {0: 3, Fraction(1, 5): 66}
        # prec(x f) = min(4 + 1/5, 12/5 + 0), and 7/2 * 2 = 7 mod 5^2
        assert by_finite.prec == Fraction(12, 5)
        assert by_finite.terms == {Fraction(1, 5): 6, Fraction(2, 5): 7}
        # relative precision 11/5 throughout: 2^4 mod 5^3, at 12/5 + 3/5
        assert finite_power.prec == 3 and finite_power.terms == {Fraction(4, 5): 16}
        assert finite_power == power(f, 4, ctx.one())
        assert inverse_power == power(f, -3, ctx.one())
        assert inverse_power.terms == {Fraction(-3, 5): pow(2, -3, 125)}

    @pytest.mark.parametrize("exponent", [Fraction(1, 2), 2.0])
    def test_a_power_needs_an_int_exponent(self, exponent):
        # the one-term power takes only an int; any other exponent reaches
        # the square-and-multiply and raises there, as for more terms
        ctx = ctx5()
        one_term = ctx.pi_power(Fraction(2, 5), 3)
        finite = ctx.pi_power(Fraction(2, 5), 3, prec=2)
        more = LocalFieldElement(ctx, [(0, 3), (Fraction(1, 5), 2)])
        for x in (one_term, finite, more):
            with pytest.raises(TypeError):
                x**exponent


def _sqrt_residue(u, p, M):
    """The square root of u mod p^M taken by nth_root in Q_p, as an int."""
    root = nth_root(LocalFieldContext(p, N=1).from_rational(u, M), 2)
    assert root.prec == M and set(root.terms) == {0}
    return root.terms[Fraction(0)]


class TestHenselSqrt:
    def test_reference_value(self):
        assert _sqrt_residue(41, 5, 6) == 696
        assert 696 * 696 % 5**6 == 41

    def test_branch_is_smaller_root_mod_p(self):
        r = _sqrt_residue(4, 7, 5)
        assert r % 7 == 2  # branch lifts 2, not 5

    def test_non_residue(self):
        with pytest.raises(NoNthRoot):
            _sqrt_residue(2, 5, 4)
        with pytest.raises(NoNthRoot):
            _sqrt_residue(10, 5, 4)

    def test_sqrt_of_minus_one(self):
        ctx = ctx5()
        i = sqrt_of_minus_one(ctx, 8)
        assert (i * i + 1).valuation_lower_bound() >= 8
        assert i.terms[Fraction(0)] % 5 == 2

    @pytest.mark.parametrize("prec", [0, -1])
    def test_sqrt_of_minus_one_refuses_a_precision_below_one(self, prec):
        with pytest.raises(PrecisionError):
            sqrt_of_minus_one(LocalFieldContext(5, N=8), prec)

    @pytest.mark.parametrize("prec, M", [(None, 8), (Fraction(5, 2), 3), (Fraction(1, 2), 1)])
    def test_sqrt_of_minus_one_in_the_callers_field(self, prec, M):
        ctx = ctx5(N=8)
        i = sqrt_of_minus_one(ctx, prec)
        assert i.ctx == ctx and i.prec == M
        assert (i * i + 1).valuation_lower_bound() >= M

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_sqrt_of_minus_one_needs_p_1_mod_4(self, p):
        with pytest.raises(NoNthRoot):
            sqrt_of_minus_one(LocalFieldContext(p, N=2), 4)


class TestNthRoot:
    def test_exact_rational_root(self):
        ctx = ctx5()
        r = nth_root(ctx.from_rational(32), 5)
        assert (r - ctx.from_rational(2)).is_zero()

    @pytest.mark.parametrize(
        "p, u, root", [(5, 9, -3), (7, 16, -4), (7, 4, 2), (5, Fraction(9, 4), Fraction(-3, 2))]
    )
    def test_exact_rational_root_is_the_least_residue_root(self, p, u, root):
        # the square root of an exact rational is the one congruent to the
        # least residue root mod p, as on each ball around it: 9 at p = 5 has
        # the roots 3 and -3 = 2 mod 5, and the root is -3
        ctx = LocalFieldContext(p, N=2, M=4)
        assert nth_root(ctx.from_rational(u), 2) == ctx.from_rational(root)
        assert not (nth_root(ctx.from_rational(u, 3), 2) - root).terms

    def test_exact_rational_cube_with_no_rational_root_of_least_residue(self):
        # 8 at p = 7: the cube roots of 1 mod 7 are 1, 2 and 4, so the root is
        # 2 times a cube root of unity, not 2, and Newton's
        ctx = LocalFieldContext(7, N=1, M=4)
        root = nth_root(ctx.from_rational(8), 3)
        assert root.prec == 4 and root.terms[0] % 7 == 1
        assert (root**3 - 8).valuation_lower_bound() >= 4

    def test_no_digit_left_for_the_root_prime_to_p(self):
        # at M = 1 the cube root of an exact unit is known to relative
        # precision M - 1 = 0, and no digit fixes its square root (this
        # raised a KeyError)
        ctx = LocalFieldContext(3, N=1, M=1)
        with pytest.raises(PrecisionError, match="the 3-th roots leave no digit"):
            nth_root(ctx.from_rational(28), 6)

    def test_unit_root_mod_precision(self):
        ctx = ctx5()
        x = ctx.from_rational(7**5 + 5**9)
        r = nth_root(x, 5)
        assert r.terms[Fraction(0)] % 5**5 == 7 % 5**5
        assert (r**5 - x).valuation_lower_bound() > 5

    def test_valuation_must_divide(self):
        ctx = LocalFieldContext(5, N=2, M=6)
        with pytest.raises(NoNthRoot):
            nth_root(ctx.pi_power(Fraction(1, 2)), 5)

    def test_n_must_be_positive(self):
        with pytest.raises(PreconditionViolated, match="n must be positive, got 0"):
            nth_root(ctx5().from_rational(32), 0)

    def test_no_root_in_zp(self):
        ctx = ctx5()
        with pytest.raises(NoNthRoot):
            nth_root(ctx.from_rational(2), 5)

    def test_exact_only_for_exact_powers(self):
        root = nth_root(ctx5(M=8).from_rational(32), 5)
        assert root.prec is None and root == ctx5(M=8).from_rational(2)
        # relative precision M - 1 = 6 for the 5th root of an exact unit
        root = nth_root(ctx5(M=7).from_rational(57), 5)
        assert root.prec == 6 and pow(root.terms[0], 5, 5**6) == 57

    def test_ramified_root(self):
        ctx = ctx5()
        x = ctx.pi_power(Fraction(2), 32)  # 32 * 5^2
        r = nth_root(x, 5)
        assert r.valuation().as_fraction() == Fraction(2, 5)
        assert (r**5 - x).valuation_lower_bound() > 7


class TestPnthRoot:
    def test_roundtrip(self):
        # a root has relative precision M - 1: M = 8 carries r^5 past 5^6
        ctx = LocalFieldContext(5, N=2, M=8)
        x = ctx.one() + ctx.pi_power(Fraction(3), 2)
        r = nth_root(x, 5)
        assert (r**5 - x).valuation_lower_bound() > 6

    def test_no_root_below_the_hensel_level(self):
        # 6 = 1 + 5: the peel puts 5^(1/5) into the root, and the cross term
        # 5 * 5^(1/5) then lands at 6/5, a level prime to 5
        ctx = ctx5()
        x = ctx.one() + ctx.pi_power(Fraction(1), 1)
        with pytest.raises(NoNthRoot):
            nth_root(x, 5)

    @pytest.mark.parametrize("p, N", [(3, 3), (5, 5), (7, 7)])
    def test_second_term_below_the_hensel_level(self, p, N):
        # the root 1 + pi has a term below p/(p-1) beyond its leading unit
        ctx = LocalFieldContext(p, N=N)
        pi = ctx.pi_power(Fraction(1, N))
        root = nth_root((1 + pi) ** p, p)
        assert root.prec is None and root == 1 + pi

    def test_term_at_the_hensel_level(self):
        ctx = LocalFieldContext(3, N=2)
        y = 1 + ctx.pi_power(Fraction(1, 2))
        root = nth_root(y**3, 3)
        assert root.prec is None and root == y

    def test_roots_agree_with_the_oracle_and_the_power_test(self):
        """nth_root(y^5, 5) for random units y at p = N = 5: the root is y,
        as 5th roots of unity other than 1 lie outside Q_5(5^(1/5)), and it is
        the power test's root."""
        ctx = ctx5()
        rng = random.Random(11)
        for _ in range(100):
            y = TestPthPowerOracle.random_unit(rng)
            prec = rng.choice((None, None, 2, 3, 5))
            x = lift(ctx, y**5)
            if prec is not None:
                x = x.truncate(prec)
            root = nth_root(x, 5)
            assert root == is_pth_power(x).root
            digits = PiExt([0] * 5)
            for e, u in root.terms.items():
                digits = digits + PiExt.pi() ** int(e * 5) * u
            if root.prec is None:
                assert digits == y and digits**5 == y**5
            else:
                assert root.prec == (prec if prec is not None else ctx.M) - 1
                # the root is y modulo p^prec, so its 5th power is x modulo
                # p^(prec + 1)
                L = int(5 * root.prec)
                assert pi_digits(digits - y, L) == (0,) * L
                assert pi_digits(digits**5 - y**5, L + 5) == (0,) * (L + 5)


class TestNoNthRootPayload:
    """The peel's NoNthRoot carries the unit part it peeled, and its text,
    built only when it is shown, is the peel's message as it always was:
    the local-field digest records type(exc).__name__ and str(exc), and the
    CLI digest pins it on tail-center's stderr."""

    @staticmethod
    def peel_message(w):
        p = w.ctx.p
        return (
            f"{w!r} is not a {p}-th power: y^{p} misses it at a level prime "
            f"to {p} below {Fraction(p, p - 1)}"
        )

    def test_the_peel_carries_the_unit_part(self):
        ctx = ctx5()
        x = ctx.pi_power(Fraction(2), 6)  # 6 * 5^2 = (1 + 5) * 5^2
        with pytest.raises(NoNthRoot) as info:
            nth_root(x, 5)
        unit = info.value.unit
        assert unit == x * ctx.pi_power(-2) == ctx.from_rational(6)
        assert info.value.args == ()
        assert str(info.value) == self.peel_message(unit)

    def test_seeded_peel_refusals_keep_their_type_and_text(self):
        rng = random.Random(37)
        refusals = 0
        for _ in range(300):
            p = rng.choice((3, 5, 7))
            ctx = LocalFieldContext(p, N=rng.choice((1, 2, p, 2 * p)), M=rng.choice((3, 6)))
            N = ctx.N
            v = Fraction(p * rng.randint(-2, 2), N)
            pairs = [(v, rng.randint(1, 200) * rng.choice((1, -1)))] + [
                (v + Fraction(rng.randint(1, 3 * N), N), rng.randint(-50, 50))
                for _ in range(rng.randint(1, 3))
            ]
            x = LocalFieldElement(ctx, pairs, rng.choice((None, v + rng.randint(1, 4))))
            try:
                nth_root(x, p)
            except NoNthRoot as exc:
                if exc.unit is None:
                    continue
                refusals += 1
                w = x * ctx.pi_power(-x.valuation().as_fraction())
                assert type(exc).__name__ == "NoNthRoot"
                assert exc.unit == w
                assert str(exc) == self.peel_message(w)
            except PrecisionError:
                pass
        assert refusals > 50

    def test_is_pth_power_forms_the_unit_part_once(self, monkeypatch):
        # a "no" verdict shifts x to its unit part once, inside nth_root, and
        # builds its certificate on the unit that NoNthRoot hands back
        ctx = ctx5()
        x = ctx.pi_power(Fraction(2), 6, prec=8)
        shifts = []
        pi = srt.localfield._pi

        def counting(ctx, j):
            shifts.append(j)
            return pi(ctx, j)

        monkeypatch.setattr(srt.localfield, "_pi", counting)
        verdict = is_pth_power(x)
        monkeypatch.undo()
        assert shifts == [-10]
        assert verdict.kind == "no"
        assert verdict.certificate == srt.localfield._no_certificate(ctx.from_rational(6, prec=6))

    def test_other_refusals_carry_no_unit(self):
        # the m-th root's residue test and the valuation test have messages
        # of their own and no unit
        ctx = ctx5()
        with pytest.raises(NoNthRoot) as info:
            nth_root(ctx.from_rational(2), 2)
        assert info.value.unit is None
        assert str(info.value) == "2 has no 2-th root: 2 is no 2-th power mod 5"
        with pytest.raises(NoNthRoot) as info:
            nth_root(ctx.pi_power(Fraction(1, 5)), 5)
        assert info.value.unit is None
        assert str(info.value) == (
            "valuation 1/5 is not divisible by 5 within ramification index 5"
        )


class TestIsPthPower:
    def test_fifth_power_unit(self):
        ctx = ctx5()
        for u in (1, 7, 18, 24):
            v = is_pth_power(ctx.from_rational(u + 5**8, prec=8))
            assert v.kind == "yes"
            assert (v.root**5 - (u + 5**8)).valuation_lower_bound() > 5

    def test_non_power_unit_certificate(self):
        ctx = ctx5()
        v = is_pth_power(ctx.from_rational(2, prec=8))
        assert v.kind == "no"
        assert v.certificate["kind"] == "congruence"
        assert v.certificate["alpha"] == 2

    def test_certificate_of_exact_and_finite_forms_agree(self):
        # beta is read from the unit residue num * den^-1 mod p, so a
        # non-integer exact unit gives the certificate of its residue
        ctx = ctx5()
        for u, beta in ((Fraction(7, 2), 1), (Fraction(1, 3), 2)):
            pairs = [(0, 1), (Fraction(6, 5), u)]
            exact = is_pth_power(LocalFieldElement(ctx, pairs))
            finite = is_pth_power(LocalFieldElement(ctx, pairs, prec=6))
            assert exact.kind == finite.kind == "no"
            assert exact.certificate == finite.certificate
            assert exact.certificate["beta"] == beta

    def test_zero(self):
        ctx = LocalFieldContext(5, N=5)
        with pytest.raises(PreconditionViolated, match="0 is excluded"):
            is_pth_power(ctx.zero())
        v = is_pth_power(ctx.zero(prec=3))
        assert v.kind == "undecidable"
        assert v.certificate == {"reason": "zero to precision"}

    def test_valuation_obstruction(self):
        ctx = ctx5()
        v = is_pth_power(ctx.pi_power(Fraction(1, 5)))
        assert v.kind == "no"
        assert v.certificate["kind"] == "valuation"

    def test_pi_multiple_is_power(self):
        ctx = ctx5()
        x = ctx.pi_power(Fraction(1), 32, prec=9)  # 32 * 5
        v = is_pth_power(x)
        assert v.kind == "yes"
        assert (v.root**5 - x).valuation_lower_bound() > 6

    def test_undecidable_at_low_precision(self):
        ctx = ctx5()
        v = is_pth_power(ctx.from_rational(7, prec=1))
        assert v.kind == "undecidable"

    def test_verdict_of_a_ball_holds_on_every_lift(self):
        # modulo pi^10 the cubes of Q_3(pi), pi^6 = 3, are decided (10/6 > 3/2);
        # the ball 2 + O(pi^7) holds 27 classes mod pi^10, cubes and non-cubes
        # (the lift 2 + 7*3^(4/3) is a cube), so it is undecidable, although
        # its known term lies in Q_3, where precision 7/6 would decide
        cubes = pth_power_residues(3, 6, 10, 4)
        known = pi_digits(PiExt.from_rational(2, 6, 3), 7)
        lifts = {"yes" if known + tail in cubes else "no"
                 for tail in itertools.product(range(3), repeat=3)}
        assert lifts == {"yes", "no"}
        ball = LocalFieldContext(3, N=6, M=8).from_rational(2, prec=Fraction(7, 6))
        assert is_pth_power(ball).kind == "undecidable"

    @pytest.mark.parametrize("p, N, prec, L, r", [(3, 2, Fraction(3, 2), 4, 2),
                                                  (5, 8, Fraction(9, 8), 11, 3)])
    def test_a_known_level_prime_to_p_decides_below_the_hensel_level(self, p, N, prec, L, r):
        # 2 - 2^p has valuation 1, at pi^N with N prime to p, and the ball
        # 2 + O(p^prec) knows that level: no lift is a p-th power (y mod pi^r
        # fixes y^p mod pi^L, and L/N > p/(p-1) decides)
        powers = pth_power_residues(p, N, L, r)
        known = pi_digits(PiExt.from_rational(2, N, p), int(prec * N))
        assert not any(known + tail in powers
                       for tail in itertools.product(range(p), repeat=L - len(known)))
        ball = LocalFieldContext(p, N=N).from_rational(2, prec=prec)
        v = is_pth_power(ball)
        assert v.kind == "no"
        assert v.certificate["lhs"] != v.certificate["rhs"]
        with pytest.raises(NoNthRoot):
            nth_root(ball, p)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_undecidable_at_the_hensel_level(self, n):
        # 8 = 2^3 to precision 3^(3/2): the digits are found, but a root needs
        # the quotient known beyond p/(p-1) = 3/2
        ctx = LocalFieldContext(3, N=n)
        v = is_pth_power(LocalFieldElement(ctx, [(0, 8)], prec=Fraction(3, 2)))
        assert v.kind == "undecidable"
        assert "\n" not in v.certificate["reason"]
        above = is_pth_power(LocalFieldElement(ctx, [(0, 8)], prec=Fraction(7, 4)))
        assert above.kind == "yes"
        assert above.root == LocalFieldElement(ctx, [(0, 2)], prec=Fraction(3, 4))

    @pytest.mark.parametrize(
        "pairs, prec",
        [
            ([(0, 1), (Fraction(1, 5), 1)], None),  # 1 + pi
            ([(0, 1), (Fraction(2, 5), 1)], 6),  # 1 + 5^(2/5)
            ([(0, 2), (Fraction(1, 5), 1)], 6),  # 2 + 5^(1/5)
        ],
    )
    def test_first_fractional_term_below_one_answers_no(self, pairs, prec):
        # the lowest fractional term sits below v = 1, where no beta digit
        # can reach it; the certificate used to put beta at a negative
        # exponent and fail to invert p
        x = LocalFieldElement(ctx5(), pairs, prec=prec)
        v = is_pth_power(x)
        assert v.kind == "no"
        cert = v.certificate
        assert cert["kind"] == "congruence"
        assert cert["lhs"] != cert["rhs"]
        oracle = PiExt([0] * 5)
        for e, u in pairs:
            oracle = oracle + PiExt.pi() ** int(e * 5) * u
        assert pi_digits(oracle, 7) not in pth_power_residues()

    @pytest.mark.parametrize("p, N", [(3, 2), (3, 4), (5, 4), (5, 8), (7, 6)])
    def test_root_through_the_level_p_over_p_minus_1(self, p, N):
        # with (p-1) | N the digit at pi^(N/(p-1)) reaches y^p at the level
        # p/(p-1) itself, twice: through its p-th power and its linear term
        ctx = LocalFieldContext(p, N=N)
        rng = random.Random(N * p)
        for _ in range(20):
            y = LocalFieldElement(
                ctx,
                [(0, rng.randrange(1, p))]
                + [(Fraction(j, N), rng.randint(1, 50)) for j in range(1, 2 * N)],
            )
            for x in (y**p, (y**p).truncate(3)):
                v = is_pth_power(x)
                assert v.kind == "yes"
                assert v.root == (y if v.root.prec is None else y.truncate(v.root.prec))

    def test_roots_of_exact_inputs_are_honest(self):
        # 157 is a 5th power in Q_5, but no rational is its 5th root: the
        # root must carry a precision, at relative precision M - 1
        ctx = ctx5()
        v = is_pth_power(ctx.from_rational(157))
        assert v.kind == "yes"
        assert v.root.prec == ctx.M - 1
        assert not (v.root**5 - 157).terms
        # an exact p-th power of the Hensel start keeps an exact root
        assert is_pth_power(ctx.from_rational(32)).root == ctx.from_rational(2)
        pi = ctx.pi_power(Fraction(1, 5))
        assert is_pth_power((1 + pi) ** 5).root == 1 + pi
        rng = random.Random(9)
        for _ in range(60):
            p = rng.choice((3, 5, 7))
            c = LocalFieldContext(p, N=rng.choice((1, 2, 5)), M=rng.choice((4, 8)))
            y = LocalFieldElement(
                c,
                [(Fraction(rng.randrange(2 * c.N), c.N), rng.randint(1, 40))
                 for _ in range(rng.randint(1, 3))],
            )
            x = y**p + c.pi_power(Fraction(rng.randrange(c.N, 4 * c.N), c.N), rng.randint(1, 9))
            root = is_pth_power(x).root
            if root is not None:
                assert root.prec is not None or root**p == x
                repr(root)


class TestPthPowerOracle:
    """is_pth_power at p = N = 5 against the digit-table oracle of helpers.py:
    a unit x is a 5th power iff x mod pi^7 is y^5 mod pi^7 for one of the 20
    units y mod pi^2."""

    RESIDUES = pth_power_residues()

    @staticmethod
    def random_unit(rng):
        c0 = rng.choice([u for u in range(-30, 31) if u % 5])
        return PiExt([c0] + [rng.randint(-12, 12) for _ in range(4)])

    def case(self, rng):
        y = self.random_unit(rng)
        shape = rng.randrange(4)
        if shape == 0:
            return y
        x = y**5
        if shape == 2:  # a change at pi^7 and above keeps a 5th power
            x = x + PiExt([0, 0, rng.randint(-9, 9)]) * 5 * PiExt.pi() ** rng.randrange(5)
        elif shape == 3:  # a change below pi^7 may break it
            x = x + PiExt.pi() ** rng.randrange(1, 7) * rng.choice((1, 2, 3, 4))
        return x

    def test_verdicts_and_roots(self):
        ctx = ctx5()
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            oracle = self.case(rng)
            prec = rng.choice((None, None, Fraction(7, 5), Fraction(3, 2), 2, 3, 5))
            x = lift(ctx, oracle)
            if prec is not None:
                x = x.truncate(prec)
            v = is_pth_power(x)
            expected = "yes" if pi_digits(oracle, 7) in self.RESIDUES else "no"
            assert v.kind == expected, (x, v)
            seen.add((v.kind, prec is None))
            if v.kind == "yes":
                if v.root.prec is None:
                    assert v.root**5 == x
                else:
                    # an error of valuation e in a unit root moves its 5th
                    # power at valuation min(e + 1, 5e): the exact digits of
                    # the root must reach one past its precision
                    assert v.root.prec == (x.prec if x.prec is not None else ctx.M) - 1
                    digits = LocalFieldElement(ctx, list(v.root.terms.items()))
                    assert (digits**5 - x).valuation_lower_bound() >= v.root.prec + 1
            elif v.certificate["kind"] == "congruence":
                assert v.certificate["lhs"] != v.certificate["rhs"]
        assert seen == {("yes", True), ("yes", False), ("no", True), ("no", False)}


class TestIntegerRoots:
    def test_huge_unit_does_not_overflow(self):
        # the exact-root shortcut used a float k-th root, which overflowed here
        u = 5**700 + 1
        root = nth_root(ctx5(M=9).from_rational(u), 5)
        assert root.prec is not None
        assert pow(root.terms[0], 5, 5**8) == u % 5**8

    def test_huge_exact_power(self):
        root = nth_root(ctx5().from_rational(Fraction(-(3**500), 7**300)), 5)
        assert root.prec is None
        assert root.terms == {0: -Fraction(3**100, 7**60)}


class TestTailCenterRadicands:
    def test_census(self):
        """The p = 5 exceptional tail centers take the 5th root of
        5^(4nu+1) C(b, 5): for nu = 2..5 and b = 5..59, 48 of the 220
        radicands have one."""
        ctx = LocalFieldContext(5)
        roots = refusals = 0
        for nu in range(2, 6):
            for b in range(5, 60):
                x = ctx.from_rational(Fraction(5) ** (4 * nu + 1) * math.comb(b, 5))
                try:
                    root = nth_root(x, 5)
                except NoNthRoot:
                    refusals += 1
                    continue
                roots += 1
                assert not (root**5 - x).terms
        assert (roots, refusals) == (48, 172)
