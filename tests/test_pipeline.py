"""Unit tests for the end-to-end wild monodromy pipeline."""
import json
import re

import pytest

import srt.pipeline
from srt import PipelineError, run_wild_monodromy
from srt.errors import PrecisionError


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

    def test_report_serialization(self):
        report = run_wild_monodromy(499, 5, 1)
        blob = report.to_json()
        json.dumps(blob)  # must be plain JSON data
        assert blob["verdict"] == "Nontrivial"
        assert blob["inputs"]["q"] == 499
        step_ids = {s["id"] for s in blob["steps"]}
        assert "power-p2+" in step_ids
        text = report.to_text()
        assert "verdict: Nontrivial" in text


class TestPreconditions:
    def test_needs_p_squared_dividing(self):
        with pytest.raises(PipelineError, match=r"got v = 0"):
            run_wild_monodromy(7, 5, 1)
        with pytest.raises(PipelineError, match=r"got v = 1"):
            run_wild_monodromy(11, 5, 1)

    def test_r_must_be_a_unit(self):
        with pytest.raises(PipelineError, match=r"v_5\(5\) = 0"):
            run_wild_monodromy(251, 5, 5)


def _raise_precision(params, d):
    raise PrecisionError("term beyond the context's precision")


def _zero(params, d):
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
