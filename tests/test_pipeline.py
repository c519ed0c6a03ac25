"""Unit tests for the end-to-end wild monodromy pipeline."""
import json
import re
from fractions import Fraction

import pytest

import srt.pipeline
import srt.series
from srt import (
    CoverParams,
    insep_center,
    insep_tail_catalog,
    maclaurin_g,
    run_wild_monodromy,
)
from srt.cli import EXIT_OK, dispatch
from srt.errors import PrecisionError, Unsupported
from srt.localfield import PthPowerVerdict, element_dot
from srt.valuation import to_jsonable, vp

from helpers import parse_local


class TestRun:
    def test_other_admissible_q(self):
        # v_5(499^2 - 1) = 3, so the inseparable-tail setup applies
        report = run_wild_monodromy(499, 5, 1)
        assert report.verdict == "Nontrivial"
        assert report.inputs["nu"] == 3
        ids = [s["id"] for s in report.steps]
        for required in ("center", "g(d)+", "g(d)-", "delta+", "delta-",
                         "power-p+", "power-p-", "power-p2+", "power-p2-"):
            assert required in ids

    def test_report_serialization(self, capsys):
        report = run_wild_monodromy(499, 5, 1)
        blob = to_jsonable(report)
        json.dumps(blob)  # must be plain JSON data
        assert blob["verdict"] == "Nontrivial"
        assert blob["inputs"]["q"] == 499
        step_ids = {s["id"] for s in blob["steps"]}
        assert "power-p2+" in step_ids
        # the text form is the CLI's rendering of the same JSON
        argv = ["--format", "text", "wild-monodromy", "--q", "499", "--p", "5"]
        assert dispatch(argv) == EXIT_OK
        assert "verdict: nontrivial" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("q", [251, 499])
    @pytest.mark.parametrize("r", [1, 2, 7])
    def test_center_is_the_catalog_formula_by_the_root_engine(self, q, r):
        """The printed center solves the catalog's formula, read with srt-free
        arithmetic: d = 2(s/r)(5^(w+1)/s)^(2/5), so d^5 = (2s/r)^5 (5^(w+1)/s)^2
        in Q[pi]/(pi^5 - 5). That equation fixes d, since Q_5(pi) holds no
        5th root of unity but 1."""
        report = run_wild_monodromy(q, 5, r)
        steps = {step["id"]: step["value"] for step in report.steps}
        nu, s, w = report.inputs["nu"], report.inputs["s"], int(steps["v_sqrt"])
        assert insep_tail_catalog(5, nu, "a=1", w)[0].center == (
            f"a/(1-d^2), d = +-2(s/r)(5^{w + 1}/s)^(2/5)"
        )
        d, prec = parse_local(steps["center"])
        assert prec is None
        assert d**5 == Fraction(2 * s, r) ** 5 * Fraction(5 ** (w + 1), s) ** 2
        if r == 7:
            assert steps["center"] == "2/7*5^(7/5)"


class TestPreconditions:
    def test_needs_p_squared_dividing(self):
        with pytest.raises(Unsupported, match=r"got v = 0"):
            run_wild_monodromy(7, 5, 1)
        with pytest.raises(Unsupported, match=r"got v = 1"):
            run_wild_monodromy(11, 5, 1)

    def test_r_must_be_a_unit(self):
        with pytest.raises(Unsupported, match=r"v_5\(5\) = 0"):
            run_wild_monodromy(251, 5, 5)

    @pytest.mark.parametrize(
        "q, p, r",
        [(7, 5, 1), (11, 5, 1), (101, 5, 4), (1999, 3, 2), (251, 5, 5)],
        ids=["nu=0", "nu=1", "empty-catalog", "p=3", "r-not-a-unit"],
    )
    def test_refuses_outside_the_catalog_domain_with_unsupported(self, q, p, r):
        # nu < 2, a catalog with no new inseparable tail (nu = 2 at p = 5,
        # and every nu at p = 3), and an r that is no unit are all outside
        # the domain where the pipeline answers
        with pytest.raises(Unsupported):
            run_wild_monodromy(q, p, r)

    @pytest.mark.parametrize("q", [124, -251, 0, 1, 126])
    def test_q_must_be_prime_before_any_other_check(self, q):
        # r = 5 is no unit, so a later check would refuse each too: q comes first
        with pytest.raises(Unsupported, match=f"q must be prime, got {q}$"):
            run_wild_monodromy(q, 5, 5)

    @pytest.mark.parametrize("p", [0, 1, 2, 4, 9, 25])
    def test_p_must_be_an_odd_prime_before_any_other_check(self, p):
        # 251 is prime and r = 1 a unit: without this refusal p = 4, 9 and 25
        # would reach "need p^2 | q^2 - 1", p = 2 would name a catalog query
        # that the CLI rejects, and p = 0 or 1 would fail inside vp
        with pytest.raises(Unsupported, match=f"p must be an odd prime, got {p}$"):
            run_wild_monodromy(251, p, 1)


class TestSeriesEvaluation:
    """g(d) by the truncated series is the full product of the linear-factor
    powers, cut to the series' precision, on both branches, for the
    monodromy bench's q values and the nu = 6 prime 31249."""

    @pytest.mark.parametrize("q", [251, 499, 751, 1249, 1499, 1999, 2251, 2749, 31249])
    @pytest.mark.parametrize("r", [1, 2, 7, 24, 49, 124])
    def test_equals_the_full_product_at_its_precision(self, q, r):
        p, s = 5, 5
        nu = int(vp(q * q - 1, p).as_fraction())
        params = CoverParams(p, nu, r, s, Fraction(-s, r))
        series = maclaurin_g(params)
        d_plus = insep_center(p, nu, r, s, "a=1")
        ctx = d_plus.ctx
        for d in (d_plus, -d_plus):
            g = series.evaluate(d)
            full = ctx.one()
            for root, m in params.roots():
                full = full * (d - root) ** m
            assert full.prec > g.prec > Fraction(9, 4)
            assert g == full.truncate(g.prec)


class TestBranchesAgree:
    def test_sign_branches_agree_on_the_sweep(self):
        """g(-z) g(z) = 1 makes eps_- eps_+ = 1 in a field with no 5th root
        of unity but 1, so the p^2-verdicts of the two branches agree: on
        every answered input with p = 5, q < 20,000 and r in {1, 2, 3}."""
        answered = 0
        for q in range(3, 20_000):
            if (q * q - 1) % 25 or any(q % k == 0 for k in range(2, int(q**0.5) + 1)):
                continue
            for r in (1, 2, 3):
                try:
                    report = run_wild_monodromy(q, 5, r)
                except Unsupported:
                    continue
                answered += 1
                steps = {step["id"]: step["value"] for step in report.steps}
                assert steps["power-p2+"].kind == steps["power-p2-"].kind, (q, r)
                want = "Nontrivial" if steps["power-p2+"].kind == "no" else "Trivial"
                assert report.verdict == want
        assert answered == 132


class TestCoefficientsComputed:
    @pytest.mark.parametrize("r", [1, 2, 3, 7])
    def test_only_the_coefficients_below_the_floor(self, monkeypatch, r):
        """At p = 5, T = 17 and v(d) = 7/5 the floor is 16/5, and the bound
        v(c_i) >= 1 - i - v_5(i) puts every c_i with i >= 6 at or above it:
        the run computes c_0 .. c_5 once and reads them on both branches."""
        computed = []
        steps = srt.series._rational_coefficients

        def counting(*args):
            for c in steps(*args):
                computed.append(c)
                yield c

        monkeypatch.setattr(srt.series, "_rational_coefficients", counting)
        report = run_wild_monodromy(251, 5, r)
        monkeypatch.undo()
        assert len(computed) == 6
        series = maclaurin_g(CoverParams(5, 3, r, 5, Fraction(-5, r)))
        assert series.order == 17
        assert computed == series.coefficients[:6]
        assert report.verdict == "Nontrivial"

    def test_on_demand_evaluation_is_the_full_one(self):
        """For the first 40 primes q with 125 | q^2 - 1 and r in {1, 2, 3, 7},
        g(d) from the series computed on demand has the repr and precision of
        g(d) from the series built in full, and both are the dot of every
        pair c_i d^i, i = 0..T, at the floor."""
        qs = [q for q in range(3, 10**5) if (q * q - 1) % 125 == 0
              and all(q % k for k in range(2, int(q**0.5) + 1))][:40]
        assert len(qs) == 40
        for q in qs:
            nu = int(vp(q * q - 1, 5).as_fraction())
            for r in (1, 2, 3, 7):
                params = CoverParams(5, nu, r, 5, Fraction(-5, r))
                full = maclaurin_g(params)
                coefficients = list(full.coefficients)
                d_plus = insep_center(5, nu, r, 5, "a=1")
                for d in (d_plus, -d_plus):
                    lazy = maclaurin_g(params).evaluate(d)
                    built = full.evaluate(d)
                    assert (repr(lazy), lazy.prec) == (repr(built), built.prec), (q, r)
                    powers = [d.ctx.one()]
                    for _ in range(full.order):
                        powers.append(powers[-1] * d)
                    floor = full.tail_floor(d.valuation().as_fraction())
                    every = element_dot(powers, coefficients, floor)
                    assert (lazy._t, lazy._prec) == (every._t, every._prec), (q, r)


def _raise_precision(series, x):
    raise PrecisionError("term beyond the context's precision")


def _below_the_floor(series, x):
    # precision 2 < 2w + 1/(p - 1) = 9/4, where the p^2-test of the
    # normalized root no longer decides
    return x.ctx.one().truncate(2)


class TestEvaluationFailures:
    """The two ways evaluating g(d) can fail, forced by replacing the series
    evaluation: neither message may point at a precision setting, since the
    CLI passes none to the pipeline."""

    @pytest.mark.parametrize(
        "evaluate, needle",
        [(_raise_precision, "beyond the context's precision"),
         (_below_the_floor, "known only modulo p^2;")],
        ids=["precision", "floor"],
    )
    def test_message_names_no_setting(self, monkeypatch, evaluate, needle):
        monkeypatch.setattr(srt.series.TruncatedSeries, "evaluate", evaluate)
        with pytest.raises(Unsupported) as exc:
            run_wild_monodromy(251, 5, 1)
        message = str(exc.value)
        assert "insufficient precision" in message
        assert needle in message
        assert "(q, r) = (251, 1)" in message
        assert "\n" not in message
        assert not re.search(r"\b[NMT]\b|retry|increase", message)


class TestPowerTestRefusals:
    """A g(d) not certified as a p-th power, and a p^2-test left undecided,
    are refused with Unsupported, forced by replacing the power test."""

    def test_g_not_a_pth_power(self, monkeypatch):
        monkeypatch.setattr(
            srt.pipeline, "is_pth_power", lambda x: PthPowerVerdict("no", certificate={})
        )
        with pytest.raises(Unsupported, match=r"g\(d\)\+ is not certified as a 5-th power: no"):
            run_wild_monodromy(251, 5, 1)

    def test_p_squared_test_undecidable(self, monkeypatch):
        first = srt.pipeline.is_pth_power
        calls = []

        def second_undecidable(x):
            calls.append(x)
            if len(calls) == 1:
                return first(x)
            return PthPowerVerdict("undecidable", certificate={"reason": "forced"})

        monkeypatch.setattr(srt.pipeline, "is_pth_power", second_undecidable)
        with pytest.raises(Unsupported, match=r"25-th power test .* undecidable: forced$"):
            run_wild_monodromy(251, 5, 1)
