"""Unit tests for the end-to-end wild monodromy pipeline."""
import json
import re
from fractions import Fraction

import pytest

import srt.pipeline
from srt import (
    CoverParams,
    LocalFieldContext,
    PipelineError,
    insep_tail_catalog,
    maclaurin_g,
    run_wild_monodromy,
)
from srt.cli import EXIT_OK, dispatch
from srt.errors import PrecisionError
from srt.pipeline import _direct_g
from srt.valuation import vp


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
        blob = report.to_json()
        json.dumps(blob)  # must be plain JSON data
        assert blob["verdict"] == "Nontrivial"
        assert blob["inputs"]["q"] == 499
        step_ids = {s["id"] for s in blob["steps"]}
        assert "power-p2+" in step_ids
        # the text form is the CLI's rendering of the same JSON
        argv = ["--format", "text", "wild-monodromy", "--q", "499", "--p", "5"]
        assert dispatch(argv) == EXIT_OK
        assert "verdict: nontrivial" in capsys.readouterr().out.splitlines()


class TestPreconditions:
    def test_needs_p_squared_dividing(self):
        with pytest.raises(PipelineError, match=r"got v = 0"):
            run_wild_monodromy(7, 5, 1)
        with pytest.raises(PipelineError, match=r"got v = 1"):
            run_wild_monodromy(11, 5, 1)

    def test_r_must_be_a_unit(self):
        with pytest.raises(PipelineError, match=r"v_5\(5\) = 0"):
            run_wild_monodromy(251, 5, 5)


class TestDirectG:
    """The closed-form g(d) at the series' precision is the full product of
    the linear-factor powers, cut to that precision."""

    @pytest.mark.parametrize("q", [251, 499, 2749])
    @pytest.mark.parametrize("r", [1, 7, 124])
    def test_equals_the_full_product_at_the_series_precision(self, q, r):
        p, s, w = 5, 5, 1
        nu = int(vp(q * q - 1, p).as_fraction())
        tail = insep_tail_catalog(p, nu, "a=1", w)[0]
        ctx = LocalFieldContext(p, N=tail.d_exponent.denominator)
        params = CoverParams(p, nu, r, s, Fraction(-s, r))
        series = maclaurin_g(params)
        d_plus = ctx.pi_power(w * tail.d_exponent, Fraction(2 * s, r))
        for d in (d_plus, -d_plus):
            prec = series.evaluate(d).prec
            g = _direct_g(params, d, prec)
            assert g.prec == prec
            full = ctx.one()
            for root, m in params.roots():
                full = full * (d - root) ** m
            assert full.prec > prec
            assert g == full.truncate(prec)


def _raise_precision(params, d, prec):
    raise PrecisionError("term beyond the context's precision")


def _zero(params, d, prec):
    return d.ctx.zero()


class TestEvaluationFailures:
    """The two ways evaluating g(d) can fail, forced by replacing the exact
    product: neither message may point at a precision setting, since the CLI
    passes none to the pipeline."""

    @pytest.mark.parametrize(
        "direct_g, needle",
        [(_raise_precision, "insufficient precision"), (_zero, "disagree")],
        ids=["precision", "disagreement"],
    )
    def test_message_names_no_setting(self, monkeypatch, direct_g, needle):
        monkeypatch.setattr(srt.pipeline, "_direct_g", direct_g)
        with pytest.raises(PipelineError) as exc:
            run_wild_monodromy(251, 5, 1)
        message = str(exc.value)
        assert needle in message
        assert "(q, r) = (251, 1)" in message
        assert "\n" not in message
        assert not re.search(r"\b[NMT]\b|retry|increase", message)
