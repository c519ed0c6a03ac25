"""Unit tests for the torsor splitting decision, disk centers and radii.

The last class pins the exact corrective values for the two deeper p = 5
inseparable-tail cases whose externally stated identities fail (the failing
statements themselves live in tests/test_acceptance.py as xfail tests).
"""
import random
from fractions import Fraction

import pytest

from srt import (
    LocalFieldContext,
    NoNthRoot,
    PreconditionViolated,
    insep_center,
    insep_tail_catalog,
    nth_root,
    splitting_obstruction,
    tail_center,
    tail_radius,
)
from srt.errors import Unsupported
from srt.valuation import INFINITY

from helpers import PiExt, agrees, parse_local, pi_digits, pth_power_residues, vp_fraction
from test_acceptance import _exceptional_insep_gap


def _vals(p, n, overrides):
    """Baseline list v(c_i) = theta + 1 for i = 1..2p, then overrides {i: v}."""
    theta = Fraction(n) + Fraction(1, p - 1)
    out = [theta + 1] * (2 * p)
    for i, v in overrides.items():
        out[i - 1] = v
    return out


class TestSplittingObstruction:
    p, n = 5, 2
    theta = Fraction(2) + Fraction(1, 4)

    def test_needs_enough_coefficients(self):
        with pytest.raises(PreconditionViolated, match="valuations up to i = 5, got 4"):
            splitting_obstruction([Fraction(3)] * 4, 5, 2)

    def test_hypothesis_failure_on_p_divisible_index(self):
        vals = _vals(5, 2, {10: self.theta})
        assert splitting_obstruction(vals, 5, 2).kind == "Inconclusive"

    def test_condition_one(self):
        vals = _vals(5, 2, {2: Fraction(1)})
        v = splitting_obstruction(vals, 5, 2)
        assert v.kind == "ObstructedByConditionI"
        assert v.evidence["witness_index"] == "2"

    def test_splits_generic(self):
        for sigma in (1, 2, 3):
            vals = _vals(5, 2, {sigma: self.theta})
            v = splitting_obstruction(vals, 5, 2)
            assert v.kind == "SplitsWithConductor"
            assert v.conductor == sigma

    def test_no_unique_threshold_index(self):
        vals = _vals(5, 2, {1: self.theta, 3: self.theta})
        assert splitting_obstruction(vals, 5, 2).kind == "Inconclusive"

    def test_index_p_at_threshold_is_not_generic_split(self):
        # v(c_5) = theta triggers the borderline analysis, and with
        # v(c_1) far above the root-term level the twist reinstates index 1
        v_root = (self.theta + 4 * 2 + 1) / 5
        vals = _vals(5, 2, {5: self.theta})
        v = splitting_obstruction(vals, 5, 2)
        assert v.kind == "SplitsWithConductor"
        assert v.conductor == 1
        assert v.evidence.get("absorbed") == "true"
        assert Fraction(v.evidence["v_c_sigma"].value) == v_root

    def test_borderline_floor(self):
        floor = Fraction(2) - Fraction(3, 8)
        vals = _vals(5, 2, {5: floor})
        assert splitting_obstruction(vals, 5, 2).kind == "Inconclusive"

    def test_condition_two(self):
        # borderline v(c_p) with v(c_1) off the root-term level, both < theta
        v_p = Fraction(17, 8)
        v_root = (v_p + 4 * 2 + 1) / 5  # 89/40
        vals = _vals(5, 2, {5: v_p, 1: Fraction(17, 8)})
        v = splitting_obstruction(vals, 5, 2)
        assert v.kind == "ObstructedByConditionII"
        assert Fraction(v.evidence["v_c1"].value) == Fraction(17, 8)
        assert Fraction(v.evidence["v_root_term"].value) == v_root

    def test_condition_two_missing_root_term(self):
        # v(c_p) strictly between floor and theta demands a matching c_1
        v_p = Fraction(2)
        v_root = (v_p + 4 * 2 + 1) / 5
        vals = _vals(5, 2, {5: v_p, 1: INFINITY})
        v = splitting_obstruction(vals, 5, 2)
        assert v.kind == "ObstructedByConditionII"
        assert Fraction(v.evidence["v_root_term"].value) == v_root

    def test_tie_needs_elements(self):
        v_p = Fraction(2)
        v_root = (v_p + 4 * 2 + 1) / 5
        vals = _vals(5, 2, {5: v_p, 1: v_root})
        v = splitting_obstruction(vals, 5, 2)
        assert v.kind == "Inconclusive"
        assert "element data" in v.evidence["reason"]

    def test_tie_resolved_by_elements(self):
        # c_p exactly (c_1)^p / p^((p-1)n+1): the root term absorbs fully
        ctx = LocalFieldContext(5, N=40, M=6)
        v_p = Fraction(2)
        v_root = (v_p + 4 * 2 + 1) / 5
        c1 = ctx.pi_power(v_root, 3)
        cp = c1**5 / ctx.from_rational(Fraction(5) ** 9)
        vals = _vals(5, 2, {5: v_p, 1: v_root, 2: self.theta})
        v = splitting_obstruction(vals, 5, 2, c1=c1, cp=cp)
        assert v.kind == "SplitsWithConductor"
        assert v.conductor == 2
        assert v.evidence.get("absorbed") == "true"

    def test_absorption_keeps_a_value_below_the_threshold(self):
        # the tie above, cut at T = 9 with v(c_9) = 17/8 in [v(c_p), theta):
        # condition I lets it pass, since its bound is v(c_p), and after the
        # absorption it still lies below theta, so index 2 does not split
        ctx = LocalFieldContext(5, N=40, M=6)
        v_p = Fraction(2)
        v_root = (v_p + 4 * 2 + 1) / 5
        c1 = ctx.pi_power(v_root, 3)
        cp = c1**5 / ctx.from_rational(Fraction(5) ** 9)
        vals = _vals(5, 2, {5: v_p, 1: v_root, 2: self.theta, 9: Fraction(17, 8)})[:9]
        v = splitting_obstruction(vals, 5, 2, c1=c1, cp=cp)
        assert v.kind == "Inconclusive"
        assert v.evidence == {
            "reason": "no unique prime-to-p index at the threshold after absorption"
        }


    @pytest.mark.parametrize("p, N, v1", [(5, 5, Fraction(6, 5)), (3, 2, Fraction(3, 2))])
    def test_candidate_root_with_a_term_below_the_hensel_level(self, p, N, v1):
        # c_p = c_1^p / p^((p-1)n+1) at n = 1, c_1 = p^v1 (1 + pi): the root
        # p^v1 (1 + pi) of p^p c_p has a second term below p/(p-1); absorbing
        # it clears index 1, and no prime-to-p index is left at the threshold
        ctx = LocalFieldContext(p, N=N)
        c1 = ctx.pi_power(v1) * (1 + ctx.pi_power(Fraction(1, N)))
        cp = c1**p / ctx.from_rational(p**p)
        vals = [v1] + [10] * (p + 1)
        vals[p - 1] = cp.valuation().as_fraction()
        v = splitting_obstruction(vals, p, 1, c1=c1, cp=cp)
        assert v.kind == "Inconclusive"
        assert v.evidence == {
            "reason": "no unique prime-to-p index at the threshold after absorption"
        }


class TestTailCenter:
    def test_generic(self):
        assert tail_center(7, 1, 2, 3, "generic") == 1 - Fraction(9, 4)

    def test_generic_guards(self):
        with pytest.raises(Unsupported, match=r"v_7\(7\) must be 0"):
            tail_center(7, 1, 7, 3, "generic")  # v(r) != 0
        with pytest.raises(Unsupported, match=r"generic case .* v\(s\)=1, v\(r\+s\)=0"):
            tail_center(7, 1, 2, 7, "generic")  # v(s) != 0
        with pytest.raises(Unsupported, match=r"generic case .* v\(s\)=0, v\(r\+s\)=1"):
            tail_center(7, 1, 3, 4, "generic")  # v(r+s) != 0
        with pytest.raises(Unsupported, match="coincides with the branch point"):
            tail_center(7, 1, 3, 3, "generic")  # center at the branch point

    def test_a_zero_rational(self):
        # p > 5, or v(a) < nu - 1: the plain rational center
        assert tail_center(7, 3, 1, 48, "a=0") == 1 - Fraction(48) ** 2
        assert tail_center(5, 3, 1, 4, "a=0") == 1 - 16

    def test_a_zero_admissibility(self):
        with pytest.raises(Unsupported, match=r"v\(a\) = 2 exceeds nu - 1 = 1"):
            tail_center(5, 2, 1, 24, "a=0")  # v(r+s) = 2 > nu - 1

    def test_a_one_rational(self):
        assert tail_center(7, 2, 2, 7, "a=1") == 1 - Fraction(49, 4)
        with pytest.raises(Unsupported, match=r"case a=1 needs v\(s\) > 0, got v\(s\)=0"):
            tail_center(7, 2, 2, 3, "a=1")  # needs v(s) > 0
        with pytest.raises(Unsupported, match=r"v\(sqrt\(1-a\)\) = 2 exceeds nu - 1 = 1"):
            tail_center(5, 2, 1, 50, "a=1")  # v(s) = 2 > nu - 1 = 1

    def test_exceptional_center_matches_construction(self):
        # p = 5, v(r+s) = nu - 1: center uses the exact 5th root of
        # 5^(4nu+1) * binom(r+s, 5)
        import math

        ctx = LocalFieldContext(5)
        nu, r, s = 2, 1, 4
        center = tail_center(5, nu, r, s, "a=0")
        radicand = Fraction(5) ** (4 * nu + 1) * math.comb(r + s, 5)
        rho = nth_root(ctx.from_rational(radicand), 5)
        expected = 1 - ((ctx.from_rational(s) - rho) * Fraction(1, r)) ** 2
        assert (center - expected).is_zero()

    def test_exceptional_center_is_built_at_p5_only(self):
        # at p = 3 a valuation below nu - 1 keeps the rational center, and
        # nu - 1 itself, whose center the 5th-root construction does not give,
        # is refused in both cases
        assert tail_center(3, 3, 1, 2, "a=0") == 1 - 4
        with pytest.raises(Unsupported, match="p = 5 only, got p = 3"):
            tail_center(3, 3, 7, 2, "a=0")  # v(r+s) = 2 = nu - 1
        with pytest.raises(Unsupported, match="p = 5 only, got p = 3"):
            tail_center(3, 2, 1, 3, "a=1")  # v(s) = 1 = nu - 1

    def test_unknown_case(self):
        with pytest.raises(PreconditionViolated, match="unknown case 'bogus'"):
            tail_center(5, 2, 1, 2, "bogus")


class TestTailRadius:
    def test_generic(self):
        out = tail_radius(7, 2, "generic")
        x = Fraction(2) + Fraction(1, 6)
        assert out.v_rho == Fraction(2, 3) * x
        assert out.v_e == Fraction(1, 3) * x
        with pytest.raises(PreconditionViolated, match="generic case takes no auxiliary valuation"):
            tail_radius(7, 2, "generic", extra=1)

    def test_spec_example_values(self):
        out = tail_radius(7, 2, "generic")
        assert str(out.v_rho) == "13/9"
        assert str(out.v_e) == "13/18"

    def test_a_zero(self):
        out = tail_radius(5, 3, "a=0", extra=2)
        x = Fraction(3) + Fraction(1, 4)
        assert out.v_rho == Fraction(2, 3) * x + Fraction(2, 3)
        assert out.v_e == Fraction(1, 3) * (x - 2)

    def test_a_one(self):
        out = tail_radius(5, 3, "a=1", extra=2)
        x = Fraction(3) + Fraction(1, 4)
        assert out.v_rho == Fraction(2, 3) * (x + 2)
        assert out.v_e == Fraction(1, 3) * (x + 2)

    def test_missing_extra(self):
        with pytest.raises(PreconditionViolated):
            tail_radius(5, 3, "a=0")


class TestInsepTailCatalog:
    def test_generic_and_level_one_empty(self):
        assert insep_tail_catalog(5, 3, "generic") == []
        assert insep_tail_catalog(5, 1, "a=0", extra=Fraction(1, 2)) == []

    def test_a_zero_standard_tail(self):
        out = insep_tail_catalog(7, 3, "a=0", extra=1)
        assert len(out) == 1
        t = out[0]
        assert t.kind == "new-inseparable"
        assert t.j == 2
        assert t.radius_valuation == 1 + Fraction(1, 6)
        assert t.sigma == 2
        assert t.upstairs_radius_valuation == Fraction(1, 12)

    def test_a_zero_deeper_tail_only_for_p5(self):
        out5 = insep_tail_catalog(5, 3, "a=0", extra=1)
        assert [t.j for t in out5] == [2, 1]
        assert out5[1].radius_valuation == 1 + Fraction(17, 20)
        assert out5[1].upstairs_radius_valuation == Fraction(17, 40)
        out7 = insep_tail_catalog(7, 3, "a=0", extra=1)
        assert [t.j for t in out7] == [2]

    def test_a_one_tail(self):
        out = insep_tail_catalog(5, 3, "a=1", extra=1)
        assert len(out) == 1
        t = out[0]
        assert t.j == 1
        assert t.radius_valuation == 2 + Fraction(17, 20)
        assert t.upstairs_radius_valuation == 1 + Fraction(17, 40)
        assert insep_tail_catalog(7, 3, "a=1", extra=1) == []

    def test_admissibility(self):
        with pytest.raises(Unsupported, match=r"0 < v\(a\) <= nu - 1 = 2, got 3"):
            insep_tail_catalog(5, 3, "a=0", extra=3)
        with pytest.raises(PreconditionViolated):
            insep_tail_catalog(5, 3, "a=0")
        with pytest.raises(Unsupported, match=r"v\(1-a\) = 6 must lie in \(0, 9/2\]"):
            insep_tail_catalog(5, 3, "a=1", 3)


def _deeper_center_draws(count, seed):
    """(p, nu, r, s, case) with r a unit and (r, s) in case a=0 (v(s) = 0 <
    v(r+s)) or a=1 (v(s) > 0), mostly at p = 5."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((5, 5, 5, 3, 7))
        case = rng.choice(("a=0", "a=1"))
        r = rng.choice([k for k in range(1, 60) if k % p])
        m = p ** rng.randint(1, 3) * rng.choice([k for k in range(-30, 31) if k % p])
        s = m - r if case == "a=0" else m
        yield p, rng.randint(1, 5), r, s, case


class TestInsepCenter:
    """`insep_center` against the catalog and srt-free arithmetic: it answers
    exactly where `insep_tail_catalog` lists the deeper tail with center d,
    and its d solves d^5 = c^5 b'^2, b' = 5^(extra+1)/b, in Q[pi]/(pi^5 - 5)
    with c = 2s/r, b = s for a=1 and c = 1, b = r+s for a=0; NoNthRoot comes
    only where the unit of b'^2 is no 5th power modulo pi^7, which decides it
    (helpers.pth_power_residues)."""

    DRAWS = list(_deeper_center_draws(400, seed=42))

    @staticmethod
    def _catalog_lists_d(p, nu, case, extra):
        try:
            tails = insep_tail_catalog(p, nu, case, extra)
        except Unsupported:
            return False
        return any("d = +-" in tail.center for tail in tails)

    def test_answers_where_the_catalog_lists_d_and_solves_its_equation(self):
        fifth_powers = pth_power_residues()
        outcomes = set()
        for p, nu, r, s, case in self.DRAWS:
            extra = vp_fraction(r + s if case == "a=0" else s, p)
            if not self._catalog_lists_d(p, nu, case, extra):
                outcomes.add("refused")
                with pytest.raises(PreconditionViolated, match="no deeper inseparable tail"):
                    insep_center(p, nu, r, s, case)
                continue
            c, b = (Fraction(2 * s, r), s) if case == "a=1" else (1, r + s)
            radicand = (Fraction(5) ** (extra + 1) / b) ** 2
            unit = PiExt.from_rational(radicand / 25)
            try:
                text = repr(insep_center(p, nu, r, s, case))
            except NoNthRoot:
                outcomes.add("no root")
                assert pi_digits(unit, 7) not in fifth_powers
                continue
            outcomes.add("exact" if "O(" not in text else "to a precision")
            assert pi_digits(unit, 7) in fifth_powers
            d, prec = parse_local(text)
            # an error at v >= prec in d moves d^5 by v >= prec + 4 v(d)
            bound = None if prec is None else prec + 4 * d.valuation()
            assert agrees(d**5, c**5 * radicand, bound)
        assert outcomes == {"refused", "exact", "to a precision", "no root"}

    def test_generic_case_has_no_deeper_tail(self):
        with pytest.raises(PreconditionViolated, match="in case generic$"):
            insep_center(5, 3, 1, 2, "generic")

    def test_cover_outside_the_case(self):
        with pytest.raises(Unsupported, match=r"case a=1 needs v\(s\) > 0"):
            insep_center(5, 3, 1, 2, "a=1")


class TestDeepInsepCorrectedResiduals:
    """Exact values for the two p = 5 deeper inseparable-tail cases: the gap
    c''_5 - (c''_1)^5 / 5^(4n+1) is NOT zero; its leading term is pinned here.
    """

    def test_case_ii_true_residual(self):
        gap, verdict, ctx, e, (r, s) = _exceptional_insep_gap("ii")
        assert gap.valuation().as_fraction() == Fraction(17, 8)  # v(a) + 9/8
        residual = ctx.from_rational(Fraction(1016, 5) * (r + s)) * e**5
        assert residual.valuation().as_fraction() == Fraction(17, 8)
        diff = gap - residual
        assert diff.valuation_lower_bound() >= Fraction(149, 40)
        # the split check honestly reports that the candidate is off
        assert verdict.kind == "Inconclusive"
        assert "not within" in verdict.evidence["reason"]

    def test_case_iii_true_residual(self):
        gap, verdict, ctx, e, (r, s) = _exceptional_insep_gap("iii")
        assert gap.valuation().as_fraction() == Fraction(17, 8)  # w + 9/8
        residual = ctx.from_rational(
            Fraction(2**15 - 2, 5) * Fraction(r**5, s**4)
        ) * e**5
        assert residual.valuation().as_fraction() == Fraction(17, 8)
        diff = gap - residual
        assert diff.valuation_lower_bound() >= Fraction(157, 40)
        assert verdict.kind == "Inconclusive"
