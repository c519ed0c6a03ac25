"""Unit tests for the exact series expansions of the cover function."""
import json
import random
import time
from fractions import Fraction

import pytest

import srt.localfield
from srt import (
    CoverParams,
    GaussRational,
    I_GAUSS,
    LocalFieldContext,
    LocalFieldElement,
    PrecisionError,
    PreconditionViolated,
    TruncatedSeries,
    Unsupported,
    element_valuation,
    maclaurin_g,
    nth_root,
    scaled_coefficient_valuations,
    sqrt_of_minus_one,
    taylor_factors,
    vp,
)
from srt.cli import EXIT_OK, dispatch
from srt.errors import SrtError
from srt.series import _rational_coefficients

from helpers import binomial_reference, general_binomial, vp_fraction


class TestGeneralBinomial:
    def test_integer_case(self):
        import math

        for m in range(8):
            for k in range(8):
                expected = math.comb(m, k) if k <= m else 0
                assert general_binomial(m, k) == expected

    def test_negative_and_fractional(self):
        assert general_binomial(-1, 3) == -1
        assert general_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert general_binomial(Fraction(-5, 2), 0) == 1


class TestGaussRational:
    def test_i_squared(self):
        assert I_GAUSS * I_GAUSS == GaussRational(-1)

    def test_field_operations(self):
        x = GaussRational(Fraction(3, 2), 1)
        y = GaussRational(2, -5)
        assert (x + y) - y == x
        assert (x * y) / y == x
        assert x * x.inverse() == GaussRational(1)
        with pytest.raises(ZeroDivisionError, match="inverse of 0"):
            GaussRational(0).inverse()
        assert x ** 3 == x * x * x
        assert 1 / I_GAUSS == -I_GAUSS
        assert 2 - x == GaussRational(Fraction(1, 2), -1)

    def test_a_gaussian_root_at_a_rational_center(self):
        # the shifted root center - root is a rational minus a GaussRational:
        # 1/(z - i) at z = 0 is i * sum (-i z)^k
        series = taylor_factors([(I_GAUSS, -1)], Fraction(0), 4, 7)
        i, one = I_GAUSS, GaussRational(1)
        assert series.coefficients == [i, one, -i, -one, i]

    def test_equality_with_what_is_no_number(self):
        # Fraction refuses "x" and None, so == falls back to identity
        for other in ("x", None):
            assert GaussRational(1) != other

    def test_valuation_inert_prime(self):
        x = GaussRational(Fraction(7, 3), 49)
        assert x.valuation(7).as_fraction() == 1
        assert GaussRational(0, Fraction(1, 7)).valuation(7).as_fraction() == -1

    def test_valuation_rejects_split_prime(self):
        with pytest.raises(ValueError):
            GaussRational(1, 2).valuation(5)


class TestCoverParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoverParams(5, 0, 1, 2, Fraction(-2))
        with pytest.raises(ValueError):
            CoverParams(5, 1, 7, 2, Fraction(-2, 7))
        with pytest.raises(ValueError):
            CoverParams(5, 2, 1, 2, Fraction(2))  # branch forced to -2

    def test_degenerate(self):
        with pytest.raises(Unsupported, match=r"sqrt\(1-a\) = 0 degenerates the cover"):
            CoverParams(5, 2, 3, 3, Fraction(0))
        with pytest.raises(Unsupported, match="constant cover"):
            CoverParams(5, 2, 3, 3, Fraction(-1))

    def test_repr(self):
        params = CoverParams(5, 2, 2, 3, Fraction(-3, 2))
        assert repr(params) == "CoverParams(p=5, nu=2, r=2, s=3, sqrt1ma=-3/2)"

    def test_roots(self):
        params = CoverParams(5, 2, 2, 3, Fraction(-3, 2))
        assert params.a == 1 - Fraction(9, 4)
        assert params.roots() == [
            (Fraction(-1), 2),
            (Fraction(1), -2),
            (Fraction(3, 2), 3),
            (Fraction(-3, 2), -3),
        ]


def _assert_bound_holds(params):
    """coefficient_bound against the actual Maclaurin coefficient valuations
    through T = 3p + 2."""
    p = params.p
    const, slope = params.coefficient_bound()
    g = maclaurin_g(params, 3 * p + 2)
    for i in range(1, g.order + 1):
        ci = g.coefficient(i)
        if ci == 0:
            continue
        bound = const + slope * i - vp(i, p).as_fraction()
        assert vp(ci, p).as_fraction() >= bound


class TestMaclaurin:
    def test_low_coefficients_closed_form(self):
        # with sqrt(1-a) = -s/r the expansion is even-free below order 6 and
        # c3/c0, c5/c0 have the exact closed forms in r, s
        rng = random.Random(3)
        for _ in range(25):
            r = rng.randint(1, 30)
            s = rng.randint(1, 30)
            if r == s:
                continue
            params = CoverParams(31, 1, r, s, Fraction(-s, r))
            g = maclaurin_g(params, 6)
            c0 = g.coefficient(0)
            assert c0 == Fraction(-1) ** (r + s)
            for i in (1, 2, 4):
                assert g.coefficient(i) == 0
            gamma3 = Fraction(2 * r, 3) * Fraction(s**2 - r**2, s**2)
            gamma5 = Fraction(2 * r, 5) * Fraction(s**4 - r**4, s**4)
            assert g.coefficient(3) / c0 == gamma3
            assert g.coefficient(5) / c0 == gamma5

    def test_single_factor_odd_coefficients(self):
        # ((z+1)/(z-1))^m: the z^3 and z^5 coefficients of the normalized
        # expansion are (4/3)m^3 + (2/3)m and (4/15)m^5 + (4/3)m^3 + (2/5)m
        for m in range(1, 12):
            g = taylor_factors(
                [(Fraction(-1), m), (Fraction(1), -m)], Fraction(0), 6, 7
            )
            c0 = g.coefficient(0)
            assert c0 == Fraction(-1) ** m
            assert g.coefficient(3) / c0 == Fraction(4, 3) * m**3 + Fraction(2, 3) * m
            assert (
                g.coefficient(5) / c0
                == Fraction(4, 15) * m**5 + Fraction(4, 3) * m**3 + Fraction(2, 5) * m
            )

    def test_evaluate_against_exact_product(self):
        params = CoverParams(5, 2, 2, 7, Fraction(-7, 2))
        g = maclaurin_g(params, 40)
        x = LocalFieldContext(5, N=1, M=40).from_rational(Fraction(5, 3))  # v = 1 > 0
        value = g.evaluate(x)
        exact = x.ctx.one()
        for root, m in params.roots():
            exact = exact * (x - root) ** m
        assert exact.prec is None
        assert value.prec > 0
        assert value == exact.truncate(value.prec)

    def test_coefficient_bound_is_honest(self):
        rng = random.Random(5)
        for _ in range(20):
            p = rng.choice([5, 7])
            nu = rng.randint(1, 3)
            r = rng.randrange(1, p**nu)
            s = rng.randrange(1, p**nu)
            if r == s or r % p == 0 or s % p == 0:
                continue
            _assert_bound_holds(CoverParams(p, nu, r, s, Fraction(-s, r)))

    @pytest.mark.parametrize("sqrt1ma", [1, -1])
    @pytest.mark.parametrize("r, s", [(1, 2), (2, 1), (3, 7), (9, 4)])
    def test_coefficient_bound_when_a_is_zero(self, sqrt1ma, r, s):
        # sqrt1ma = +-1 gives a = 0 exactly, where v_p(a) is infinite
        params = CoverParams(5, 2, r, s, Fraction(sqrt1ma))
        assert params.a == 0
        assert params.coefficient_bound() == (0, 0)
        _assert_bound_holds(params)

    def test_expand_cli_when_a_is_zero(self, capsys):
        argv = ["expand", "--p", "5", "--nu", "1", "--r", "1", "--s", "2",
                "--sqrt1ma", "1"]
        assert dispatch(argv) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == 17

    def test_expand_cli_large_prime_is_fast(self, capsys):
        # T = 3*251 + 2 = 755: O(T^2) convolutions took longer than 5 s here
        r, s = 7, 5
        argv = ["expand", "--p", "251", "--nu", "1", "--r", str(r), "--s", str(s)]
        t0 = time.time()
        assert dispatch(argv) == EXIT_OK
        assert time.time() - t0 < 5
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == 755
        assert Fraction(out["coefficients"][0]) == (-1) ** (r + s)

    def test_large_order_is_fast(self):
        # the integer recurrence scales coefficient k by L^k with L = 2 here
        # and takes about 0.3 s on a 2-core box; scaling by P(0)^k = 4^k
        # instead takes about 4.6 s, and by k! P(0)^k far longer
        params = CoverParams(5, 1, 1, 2, Fraction(-2))
        t0 = time.perf_counter()
        series = maclaurin_g(params, 12000)
        assert time.perf_counter() - t0 < 2
        assert series.order == 12000

    def test_large_s_expand_is_fast(self, capsys):
        # g(0) = (-1)^(r+s) from exponents that cancel: a product of the
        # powers s^s, about 41 million bits each here, took 29 s on a 2-core
        # box
        r, s = 1, 1953124
        argv = ["expand", "--p", "5", "--nu", "9", "--r", str(r), "--s", str(s),
                "--T", "3"]
        t0 = time.perf_counter()
        assert dispatch(argv) == EXIT_OK
        assert time.perf_counter() - t0 < 2
        out = json.loads(capsys.readouterr().out)
        assert Fraction(out["coefficients"][0]) == (-1) ** (r + s)

    def test_inexact_integer_step_is_an_internal_error(self):
        # L = 2 from a shifted root 2 does not clear the root 3 of P = t - 3:
        # the first step leaves a remainder, which is a bug, not a user error;
        # the generator runs that step when coefficient 1 is asked for
        steps = _rational_coefficients([-3, 1], [1], 2, Fraction(1), 3)
        assert next(steps) == 1
        with pytest.raises(RuntimeError, match="k = 1") as exc:
            next(steps)
        assert not isinstance(exc.value, SrtError)

    def test_a_recurrence_that_stopped_is_not_read_short(self):
        # the step that raised ends the generator, so a later read finds
        # fewer coefficients than the order: that is refused, not returned
        steps = _rational_coefficients([-3, 1], [1], 2, Fraction(1), 3)
        series = TruncatedSeries._on_demand(steps, 3, (Fraction(0), Fraction(1)), 5)
        with pytest.raises(RuntimeError, match="k = 1"):
            series.coefficients
        for read in (lambda: series.coefficients, lambda: series.coefficient(2)):
            with pytest.raises(RuntimeError, match="stopped at coefficient 1 of 3"):
                read()
        with pytest.raises(RuntimeError, match="stopped at coefficient 1 of 3"):
            series.evaluate(LocalFieldContext(5, N=1).pi_power(1))


def _unit_factors(s, c):
    """The unit factor of g expanded at z = sqrt(-1) in case i."""
    return [(-c, s), (Fraction(-1), -s), (Fraction(1), s), (c, -s)]


class TestTaylorFactors:
    P = 7

    FACTOR_SETS = {
        "generic": CoverParams(7, 2, 3, 10, Fraction(-10, 3)).roots(),
        "a=0, sqrt1ma=1": CoverParams(7, 1, 2, 5, Fraction(1)).roots(),
        "a=0, sqrt1ma=-1": CoverParams(7, 1, 2, 5, Fraction(-1)).roots(),
        "case-i unit": _unit_factors(10, Fraction(-10, 3)),
        # at center 0 the shifted numerators share the factor 2: L = 2 < |P(0)| = 4
        "roots +-1, +-2": [
            (Fraction(1), 3), (Fraction(-1), -2), (Fraction(2), 5), (Fraction(-2), -4)
        ],
        "repeated root": [(Fraction(3), 2), (Fraction(3), -5), (Fraction(-1, 2), 3)],
        # an odd number of positive roots: P(0) < 0 at center 0
        "negative P(0)": [(Fraction(2), 1), (Fraction(3), -2), (Fraction(5, 4), 3)],
    }

    # 14/5 has v_7 = 1 > 0, and neither it nor -7/4 is a root
    @pytest.mark.parametrize("name", sorted(FACTOR_SETS))
    @pytest.mark.parametrize(
        "center",
        [Fraction(0), Fraction(14, 5), Fraction(-7, 4), I_GAUSS],
        ids=["0", "14_5", "-7_4", "i"],
    )
    def test_recurrence_matches_binomial_products(self, name, center):
        factors = self.FACTOR_SETS[name]
        assert center not in [root for root, _ in factors]
        T = 3 * self.P + 2
        got = taylor_factors(factors, center, T, self.P).coefficients
        assert got == binomial_reference(factors, center, T)
        ring = GaussRational if isinstance(center, GaussRational) else Fraction
        assert all(type(c) is ring for c in got)

    @staticmethod
    def _exceptional():
        # g at the p = 5 exceptional tail (nu = 2, case a=0, (r, s) = (1, 4)),
        # whose sqrt(1-a) holds the 5th root of 5^(4nu+1) binom(r+s, 5) = 5^9
        ctx = LocalFieldContext(5, N=60, M=4)
        r, s = 1, 4
        c = (ctx.from_rational(s) - nth_root(ctx.from_rational(5**9), 5)) * Fraction(-1, r)
        return [(Fraction(-1), r), (Fraction(1), -r), (-c, s), (c, -s)], ctx.zero(), 17

    @staticmethod
    def _case_i():
        # the case-i unit factor at z = sqrt(-1), known to precision 5^8
        ctx = LocalFieldContext(5, N=8, M=6)
        return _unit_factors(2, Fraction(-2, 3)), sqrt_of_minus_one(ctx, 8), 17

    @pytest.mark.parametrize("make", ["_exceptional", "_case_i"], ids=["exceptional", "sqrt-1"])
    def test_local_field_center_matches_binomial_products(self, make):
        factors, center, T = getattr(self, make)()
        got = taylor_factors(factors, center, T, 5).coefficients
        want = binomial_reference(factors, center, T)
        assert all(type(c) is LocalFieldElement for c in got)
        for k, (g, w) in enumerate(zip(got, want)):
            # the difference vanishes below the joint precision
            assert not (g - w).terms, k
            assert g.valuation() == w.valuation(), k

    def test_one_more_coefficient_canonicalizes_once_per_dot(self, monkeypatch):
        # at a finite-precision center each coefficient Q_{j-1} - m P_j is one
        # dot, their sum against g is one more, and the step then multiplies
        # by 1/P(0) and 1/(k+1): at most n + 3 canonicalizations, where a
        # chain of coercions, products and differences takes 4n + 2. A
        # product by one term, exact or at a precision, is a shift and takes
        # none: 1/(k+1), and here 1/P(0), one term known to 5^8, and m P_n,
        # since Q_(n-1) = sum of the m_i is an exact zero, so a coefficient
        # takes 4 at n = 4
        factors, center, _ = self._case_i()
        n = len(factors)
        calls = []
        canonicalize = srt.localfield._canonicalize

        def counting_canonicalize(p, N, classes, prec):
            calls.append(prec)
            return canonicalize(p, N, classes, prec)

        monkeypatch.setattr(srt.localfield, "_canonicalize", counting_canonicalize)
        counts = []
        for T in (12, 13):
            calls.clear()
            taylor_factors(factors, center, T, 5)
            counts.append(len(calls))
        assert counts[1] - counts[0] <= n + 3

    def test_one_more_coefficient_builds_no_rational_element(self, monkeypatch):
        # the step's -m and 1/(k+1) are rationals that element_dot reads as
        # terms: one more coefficient builds none of them as an element
        factors, center, _ = self._case_i()
        built = []
        from_rational = LocalFieldContext.from_rational

        def counting_from_rational(ctx, q, prec=None):
            built.append(q)
            return from_rational(ctx, q, prec)

        monkeypatch.setattr(LocalFieldContext, "from_rational", counting_from_rational)
        counts = []
        for T in (12, 13):
            built.clear()
            taylor_factors(factors, center, T, 5)
            counts.append(len(built))
        assert counts[1] - counts[0] == 0

    @pytest.mark.parametrize(
        "center",
        [Fraction(1), GaussRational(-1), LocalFieldContext(7, N=4, M=4).from_rational(1)],
        ids=["rational", "gauss", "local-field"],
    )
    def test_center_at_a_root_is_refused(self, center):
        factors = CoverParams(7, 1, 2, 3, Fraction(-3, 2)).roots()
        with pytest.raises(PreconditionViolated):
            taylor_factors(factors, center, 5, 7)

    def test_center_on_a_root_only_to_its_precision_names_both(self):
        # root - center is 0 modulo 5^4, so P(0) has no inverse there
        ctx = LocalFieldContext(5, N=8, M=4)
        root, center = ctx.from_rational(Fraction(2, 3)), ctx.from_rational(Fraction(2, 3), 4)
        message = r"the center 209 \+ O\(5\^\(4\)\) equals the root 2/3 modulo 5\^4"
        with pytest.raises(PrecisionError, match=message):
            taylor_factors([(root, 2), (Fraction(1), 1)], center, 5, 5)


class TestTruncatedSeries:
    def test_coefficient_underflow(self):
        s = TruncatedSeries([Fraction(1), Fraction(2)])
        with pytest.raises(PreconditionViolated, match="coefficient 5 beyond truncation order 1"):
            s.coefficient(5)

    def test_product_truncates_to_min_order(self):
        a = TruncatedSeries([Fraction(1)] * 4)
        b = TruncatedSeries([Fraction(1)] * 3)
        assert (a * b).order == 2
        assert (a * b).coefficients == [Fraction(1), Fraction(2), Fraction(3)]

    def test_evaluate_requires_positive_valuation(self):
        g = maclaurin_g(CoverParams(5, 1, 1, 2, Fraction(-2)), 17)
        with pytest.raises(PreconditionViolated, match=r"v\(x\) > 0"):
            g.evaluate(LocalFieldContext(5, N=1).from_rational(Fraction(1, 3)))
        with pytest.raises(PreconditionViolated, match="local-field point"):
            g.evaluate(Fraction(5, 3))
        with pytest.raises(PreconditionViolated, match="prime mismatch"):
            g.evaluate(LocalFieldContext(7, N=1).from_rational(7))
        # a coefficient of another field is refused, also one far above the
        # floor, whose pair the sum leaves out
        x = LocalFieldContext(5, N=1).pi_power(1)
        for c in (LocalFieldContext(5, N=2).pi_power(40), LocalFieldContext(5, N=2).zero()):
            series = TruncatedSeries([Fraction(1), c], tail_bound=(Fraction(0), Fraction(0)))
            with pytest.raises(PreconditionViolated, match="context mismatch"):
                series.evaluate(x)

    def test_evaluate_without_a_prime_reads_the_point_prime(self):
        # no p= given: v(x) is read over the point's own prime, and the
        # refusal is the missing tail bound, not a prime mismatch
        s = TruncatedSeries([Fraction(1), Fraction(1)])
        with pytest.raises(PreconditionViolated, match="no tail bound"):
            s.evaluate(LocalFieldContext(5, N=1).pi_power(1))

    def test_a_constant_rational_series_evaluates(self):
        # order 0 with a rational coefficient: the sum is an element, cut to
        # the floor 1 + min over k >= 1 of (k - bitlen(k)) = 1
        x = LocalFieldContext(5, N=1).pi_power(1)
        value = TruncatedSeries([Fraction(3)], tail_bound=(Fraction(1), Fraction(0))).evaluate(x)
        assert value == LocalFieldContext(5, N=1).from_rational(3, prec=1)

    def test_refusal_comes_before_any_multiplication(self, monkeypatch):
        # the tail floor is read before the powers of x are formed: a series
        # whose dropped terms it cannot bound is refused without one element
        # product or dot
        ctx = LocalFieldContext(5, N=1)
        x = ctx.pi_power(1)
        coefficients = [ctx.from_rational(k + 1) for k in range(8)]
        products = []
        mul = LocalFieldElement.__mul__

        def counting_mul(a, b):
            products.append((a, b))
            return mul(a, b)

        # a dot merges terms when it forms more than one term product; a
        # rational is one term, or none when it is 0
        merges = []
        element_dot = srt.localfield.element_dot

        def terms(z):
            return len(z.terms) if isinstance(z, LocalFieldElement) else int(z != 0)

        def merging_dot(xs, ys, prec=None):
            xs, ys = list(xs), list(ys)
            if sum(terms(x) * terms(y) for x, y in zip(xs, ys)) > 1:
                merges.append((xs, ys))
            return element_dot(xs, ys, prec)

        dots = []

        def counting_dot(xs, ys, prec=None):
            dots.append((xs, ys))
            return merging_dot(xs, ys, prec)

        monkeypatch.setattr(LocalFieldElement, "__mul__", counting_mul)
        monkeypatch.setattr(LocalFieldElement, "__rmul__", counting_mul)
        monkeypatch.setattr(srt.series, "element_dot", counting_dot)
        monkeypatch.setattr(srt.localfield, "element_dot", merging_dot)
        # no bound at all, and a bound whose slope v(x) cannot lift above 0
        for bound in (None, (Fraction(0), Fraction(-2))):
            with pytest.raises(PreconditionViolated, match="no tail bound"):
                TruncatedSeries(coefficients, tail_bound=bound).evaluate(x)
        assert products == [] and dots == []
        value = TruncatedSeries(coefficients, tail_bound=(Fraction(0), Fraction(0))).evaluate(x)
        # the floor is 4 = 8 - bitlen(8), and v(c_i) + i = v_5(i + 1) + i
        # reaches it at i = 4: the powers x^1..x^3, then one dot of the
        # powers with c_0..c_3
        monkeypatch.undo()
        assert len(products) == 3
        assert [len(xs) for xs, _ in dots] == [4]
        # every power of a one-term x is one term, so only the dot merges
        # terms, once; Horner's rule would merge at each step
        assert len(merges) == 1
        assert value == LocalFieldElement(ctx, [(k, k + 1) for k in range(4)], 4)


class TestValuationHelpers:
    def test_coefficient_valuations(self):
        params = CoverParams(5, 2, 1, 7, Fraction(-7))
        g = maclaurin_g(params, 7)
        vals = scaled_coefficient_valuations(g, 5, 0)
        assert len(vals) == 7
        for i, v in enumerate(vals, start=1):
            ci = g.coefficient(i)
            if ci == 0:
                assert v.is_infinite
            else:
                assert v.as_fraction() == vp_fraction(ci, 5)

    def test_scaled_coefficient_valuations(self):
        params = CoverParams(5, 2, 1, 7, Fraction(-7))
        g = maclaurin_g(params, 7)
        plain = scaled_coefficient_valuations(g, 5, 0)
        scaled = scaled_coefficient_valuations(g, 5, Fraction(3, 4))
        for i, (a, b) in enumerate(zip(plain, scaled), start=1):
            assert b == a + Fraction(3, 4) * i

    def test_coefficient_valuations_read_rational_series_only(self):
        for coefficient in (GaussRational(0, 7), LocalFieldContext(7).from_rational(7)):
            with pytest.raises(PreconditionViolated, match="rational series"):
                scaled_coefficient_valuations(TruncatedSeries([1, coefficient]), 7, 0)

    def test_element_valuation_dispatch(self):
        assert element_valuation(Fraction(50), 5).as_fraction() == 2
        assert element_valuation(GaussRational(0, 7), 7).as_fraction() == 1
