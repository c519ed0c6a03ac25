"""
End-to-end wild monodromy verification: from (q, p, r) build the auxiliary
cover parameters, read the inseparable tail's level j from
`insep_tail_catalog`, take its disk center d and the field Q_p(pi) it lies in
from `torsor.insep_center`, evaluate the cover function g at d by its
truncated Maclaurin series, extract the p-th root delta, and decide the
p-th/p^2-th power questions whose combination witnesses nontrivial wild
monodromy. The only precision numbers of its own are the series order T,
the default of `maclaurin_g`, and the floor of the p^2-test; the unit
precision M of d's field is not read by a run. The series keeps T, which
sets the floor of g(d), but computes a coefficient only when `evaluate`
asks for it, and `evaluate` reads only through i_max, the last index whose
proven bound lies below that floor: at p = 5, T = 17 and v(d) = 7/5 a run
computes 6 of the 18 coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError, Unsupported
from .localfield import is_pth_power
from .series import CoverParams, maclaurin_g
from .torsor import A_ONE, insep_center, insep_tail_catalog
from .valuation import check_p, check_q, vp


@dataclass
class PipelineReport:
    inputs: dict
    steps: list
    verdict: str

    def add(self, step_id, description, value):
        self.steps.append({"id": step_id, "description": description, "value": value})
        return value


def run_wild_monodromy(q, p, r=1):
    """Run the full verification chain for the degree-q cover with cyclic
    p-Sylow; the paper-exact case is (q, p) = (251, 5).

    Returns a PipelineReport whose verdict is "Nontrivial" exactly when g(d)
    is a p-th power but not a p^2-th power, for both sign branches of d; the
    root from the p-th power test is delta. The domain is where
    `insep_tail_catalog` lists a new inseparable tail. Outside it, and where
    g(d) is not certified as a p-th power or the p^2-test cannot be decided
    at the pipeline's fixed precision, it raises Unsupported.
    """
    check_p(p)
    check_q(q)
    if vp(r, p) != 0:
        raise Unsupported(f"need v_{p}({r}) = 0")
    nu = int(vp(q * q - 1, p).as_fraction())  # finite: q^2 - 1 > 0
    if nu < 2:
        raise Unsupported(f"need p^2 | q^2 - 1 for an inseparable tail, got v = {nu}")
    s = p
    sqrt1ma = Fraction(-s, r)
    a = 1 - sqrt1ma**2
    w = int(vp(sqrt1ma, p).as_fraction())  # = 1
    tail = next(iter(insep_tail_catalog(p, nu, A_ONE, w)), None)
    if tail is None:
        raise Unsupported(
            f"no new inseparable tail at p = {p}, nu = {nu}, v(sqrt(1-a)) = {w}: "
            f"`srt insep-tails --p {p} --nu {nu} --case a=1 --extra {w}` lists none"
        )
    report = PipelineReport(
        inputs={"q": q, "p": p, "r": r, "s": s, "a": a, "nu": nu},
        steps=[],
        verdict="Inconclusive",
    )
    report.add("params", "auxiliary cover parameters (s = p, a = 1 - p^2/r^2)", str(a))
    report.add("v_sqrt", "v(sqrt(1-a))", Fraction(w))
    report.add("tail", "new inseparable tail level j", tail.j)

    params = CoverParams(p, nu, r, s, sqrt1ma)
    series = maclaurin_g(params)
    d_plus = insep_center(p, nu, r, s, A_ONE)
    report.add("center", "disk center d (positive branch)", repr(d_plus))

    sign = 1 if (r + s) % 2 == 0 else -1
    for branch, d in (("+", d_plus), ("-", -d_plus)):
        try:
            g = series.evaluate(d)
            # below this precision the p^2-test of the normalized root can
            # change its certificate or come back undecidable
            if not g.prec > 2 * w + Fraction(1, p - 1):
                raise PrecisionError(f"g(d) is known only modulo p^{g.prec}")
        except PrecisionError as exc:
            raise Unsupported(
                f"insufficient precision evaluating g(d) at (q, r) = ({q}, {r}): "
                f"{exc}; the pipeline's precision is fixed, so this input is "
                f"not supported"
            ) from exc
        report.add(
            f"g(d){branch}",
            "g(d) by truncated series (agrees with the exact product)",
            repr(g),
        )
        first = is_pth_power(g)
        if first.kind != "yes":
            raise Unsupported(
                f"g(d){branch} is not certified as a {p}-th power: {first.kind} "
                f"({first.certificate})"
            )
        delta = first.root
        check = (delta**p - g).valuation_lower_bound()
        report.add(
            f"delta{branch}",
            f"delta = g(d)^(1/{p}) (delta^{p} matches g(d) to v >= {check})",
            repr(delta),
        )
        eps = -delta * sign
        report.add(
            f"eps{branch}",
            "sign-normalized root -delta",
            repr(eps),
        )
        second = is_pth_power(eps)
        report.add(
            f"power-p{branch}",
            f"is g(d) a {p}-th power",
            first,
        )
        report.add(
            f"power-p2{branch}",
            f"is g(d) a {p * p}-th power (via the normalized root)",
            second,
        )
        if second.kind == "undecidable":
            raise Unsupported(
                f"{p * p}-th power test of the normalized root undecidable: "
                f"{second.certificate['reason']}"
            )
    # The branches agree. g(-z) g(z) = 1 for g = ((z+1)/(z-1))^r ((z+c)/(z-c))^s,
    # so delta_- delta_+ is a p-th root of 1. Only p = 5 reaches here (the
    # catalog lists the tail at p = 5 alone), and d's field Q_5(pi),
    # pi^5 = 5, holds no 5th root of unity but 1, since Q_5(zeta_5) has
    # degree 4. So delta_- delta_+ = 1 and eps_- eps_+ = 1: eps_- is a
    # p-th power exactly when eps_+ is, and both verdicts hold on every
    # lift, so they agree. The last branch's verdict is the report's.
    report.verdict = "Nontrivial" if second.kind == "no" else "Trivial"
    return report
