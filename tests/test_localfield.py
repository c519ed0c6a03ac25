"""Unit tests for exact arithmetic in ramified extensions of Q_p, cross
checked against the independent polynomial-ring oracle in helpers.py."""
import random
import time
from fractions import Fraction

import pytest

from srt import (
    ContextError,
    DivergentSeries,
    LocalFieldContext,
    NoNthRoot,
    NoSquareRoot,
    PrecisionError,
    hensel_sqrt,
    is_pth_power,
    nth_root,
    pnth_root_binomial,
    sqrt_of_minus_one,
    unit_nth_root,
)

from helpers import PiExt


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
        with pytest.raises(ContextError):
            LocalFieldContext(4)
        with pytest.raises(ContextError):
            LocalFieldContext(2)
        with pytest.raises(ContextError):
            LocalFieldContext(5, N=0)
        with pytest.raises(ContextError):
            LocalFieldContext(5, M=0)

    def test_refine(self):
        a = LocalFieldContext(5, N=4, M=6)
        b = LocalFieldContext(5, N=6, M=8)
        c = a.refine(b)
        assert (c.N, c.M) == (12, 8)
        with pytest.raises(ContextError):
            a.refine(LocalFieldContext(7))


class TestCanonicalForm:
    def test_pi_power_unit_normalization(self):
        # 10 * pi^2 = 2 * 5 * pi^2 = 2 * pi^7 for pi^5 = 5
        x = ctx5().pi_power(Fraction(2, 5), 10)
        assert x.valuation().as_fraction() == Fraction(7, 5)
        assert x.unit_at(Fraction(7, 5)) == 2

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

    def test_bad_exponent(self):
        with pytest.raises(ContextError):
            ctx5().pi_power(Fraction(1, 3))


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

    def test_valuation_at_least(self):
        ctx = ctx5()
        x = ctx.pi_power(Fraction(2), 3, prec=5)
        assert x.valuation_at_least(2)
        assert not x.valuation_at_least(Fraction(5, 2))
        with pytest.raises(PrecisionError):
            ctx.zero(prec=3).valuation_at_least(4)

    def test_unit_residues_canonicalized_at_finite_precision(self):
        ctx = ctx5()
        x = ctx.from_rational(Fraction(1, 3), prec=2)
        assert x.terms[Fraction(0)] == pow(3, -1, 25)


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


class TestHenselSqrt:
    def test_reference_value(self):
        assert hensel_sqrt(41, 5, 6) == 696
        assert 696 * 696 % 5**6 == 41

    def test_branch_is_smaller_root_mod_p(self):
        r = hensel_sqrt(4, 7, 5)
        assert r % 7 == 2  # branch lifts 2, not 5

    def test_non_residue(self):
        with pytest.raises(NoSquareRoot):
            hensel_sqrt(2, 5, 4)
        with pytest.raises(NoSquareRoot):
            hensel_sqrt(10, 5, 4)

    def test_sqrt_of_minus_one(self):
        ctx = ctx5()
        i = sqrt_of_minus_one(ctx, 8)
        assert (i * i + 1).valuation_lower_bound() >= 8
        assert i.terms[Fraction(0)] % 5 == 2


class TestNthRoot:
    def test_exact_rational_root(self):
        ctx = ctx5()
        r = nth_root(ctx.from_rational(32), 5)
        assert (r - ctx.from_rational(2)).is_zero()

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

    def test_no_root_in_zp(self):
        ctx = ctx5()
        with pytest.raises(NoNthRoot):
            nth_root(ctx.from_rational(2), 5)

    def test_unit_nth_root_exact_flag(self):
        root, exact = unit_nth_root(Fraction(32), 5, 5, 8)
        assert exact and root == 2
        root, exact = unit_nth_root(Fraction(57), 5, 5, 6)
        assert not exact and pow(root, 5, 5**6) == 57

    def test_ramified_root(self):
        ctx = ctx5()
        x = ctx.pi_power(Fraction(2), 32)  # 32 * 5^2
        r = nth_root(x, 5)
        assert r.valuation().as_fraction() == Fraction(2, 5)
        assert (r**5 - x).valuation_lower_bound() > 7


class TestPnthRootBinomial:
    def test_roundtrip(self):
        ctx = LocalFieldContext(5, N=2, M=6)
        x = ctx.one() + ctx.pi_power(Fraction(3), 2)
        r = pnth_root_binomial(x, 1)
        assert (r**5 - x).valuation_lower_bound() > 6

    def test_divergence_guard(self):
        ctx = ctx5()
        x = ctx.one() + ctx.pi_power(Fraction(1), 1)
        with pytest.raises(DivergentSeries):
            pnth_root_binomial(x, 1)


class TestIsPthPower:
    def test_fifth_power_unit(self):
        ctx = ctx5()
        for u in (1, 7, 18, 24):
            v = is_pth_power(ctx.from_rational(u + 5**8, prec=8), 5)
            assert v.kind == "yes"
            assert (v.root**5 - (u + 5**8)).valuation_lower_bound() > 5

    def test_non_power_unit_certificate(self):
        ctx = ctx5()
        v = is_pth_power(ctx.from_rational(2, prec=8), 5)
        assert v.kind == "no"
        assert v.certificate["kind"] == "congruence"
        assert v.certificate["alpha"] == 2

    def test_certificate_of_exact_and_finite_forms_agree(self):
        # beta is read from the unit residue num * den^-1 mod p, so a
        # non-integer exact unit gives the certificate of its residue
        ctx = ctx5()
        for u, beta in ((Fraction(7, 2), 1), (Fraction(1, 3), 2)):
            pairs = [(0, 1), (Fraction(6, 5), u)]
            exact = is_pth_power(ctx.element(pairs), 5)
            finite = is_pth_power(ctx.element(pairs, prec=6), 5)
            assert exact.kind == finite.kind == "no"
            assert exact.certificate == finite.certificate
            assert exact.certificate["beta"] == beta

    def test_valuation_obstruction(self):
        ctx = ctx5()
        v = is_pth_power(ctx.pi_power(Fraction(1, 5)), 5)
        assert v.kind == "no"
        assert v.certificate["kind"] == "valuation"

    def test_pi_multiple_is_power(self):
        ctx = ctx5()
        x = ctx.pi_power(Fraction(1), 32, prec=9)  # 32 * 5
        v = is_pth_power(x, 5)
        assert v.kind == "yes"
        assert (v.root**5 - x).valuation_lower_bound() > 6

    def test_undecidable_at_low_precision(self):
        ctx = ctx5()
        v = is_pth_power(ctx.from_rational(7, prec=1), 5)
        assert v.kind == "undecidable"

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_undecidable_at_the_hensel_level(self, n):
        # 8 = 2^3 to precision 3^(3/2): the digits are found, but a root needs
        # the quotient known beyond p/(p-1) = 3/2
        ctx = LocalFieldContext(3, N=n)
        v = is_pth_power(ctx.element([(0, 8)], prec=Fraction(3, 2)), 3)
        assert v.kind == "undecidable"
        assert "\n" not in v.certificate["reason"]
        above = is_pth_power(ctx.element([(0, 8)], prec=Fraction(7, 4)), 3)
        assert above.kind == "yes"
        assert above.root == ctx.element([(0, 2)], prec=Fraction(3, 4))

    def test_p_squared_power(self):
        ctx = ctx5(M=10)
        x = ctx.from_rational(pow(2, 25, 5**10), prec=10)
        v = is_pth_power(x, 25)
        assert v.kind == "yes"
        y = is_pth_power(ctx.from_rational(pow(2, 5, 5**10), prec=10), 25)
        assert y.kind == "no"


class TestIntegerRoots:
    def test_huge_unit_does_not_overflow(self):
        # the exact-root shortcut used a float k-th root, which overflowed here
        u = Fraction(5**700 + 1)
        root, exact = unit_nth_root(u, 5, 5, 8)
        assert exact is False
        assert pow(root, 5, 5**8) == u % 5**8

    def test_huge_exact_power(self):
        root, exact = unit_nth_root(Fraction(-(3**500), 7**300), 5, 5, 8)
        assert exact is True
        assert root == -Fraction(3**100, 7**60)
