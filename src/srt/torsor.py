"""
Splitting analysis of mu_{p^n}-torsors over a p-adic disk, read off from the
valuations of the series coefficients c_i, together with the closed-form
centers and radii of the distinguished disks (new etale tail, new inseparable
tails) of the associated reduction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CaseMismatch,
    InadmissibleValuation,
    InsufficientData,
    PreconditionViolated,
    Unsupported,
)
from .localfield import LocalFieldContext, nth_root
from .valuation import INFINITY, ExtendedRational, _value, check_nu, check_p, vp


GENERIC = "generic"
A_ZERO = "a=0"
A_ONE = "a=1"
_CASES = (GENERIC, A_ZERO, A_ONE)
# e in the center d = +-c(5^(extra+1)/b)^e of the deeper p = 5 inseparable tails
D_EXPONENT = Fraction(2, 5)
# per case, the scale c and the base b of that d: as the catalog prints them,
# and as values at the cover's (r, s)
_CENTER_FORMS = {
    A_ZERO: ("", "(r+s)", lambda r, s: (1, r + s)),
    A_ONE: ("2(s/r)", "s", lambda r, s: (Fraction(2 * s, r), s)),
}


def _norm_case(case):
    if case not in _CASES:
        raise CaseMismatch(f"unknown case {case!r}; expected one of {_CASES}")
    return case


@dataclass
class SplitVerdict:
    # ObstructedByConditionI | ObstructedByConditionII | SplitsWithConductor |
    # Inconclusive
    kind: str = field(metadata={"json": "verdict"})
    conductor: Fraction | None = None
    evidence: dict = field(default_factory=dict)


def _over_common_denominator(values, theta):
    """The finite values (ints or Fractions, None for infinity) and theta as
    the ints D*v and D*theta, D the lcm of their denominators; None stays
    None. Comparing these ints orders the values as the rationals do."""
    D = math.lcm(theta.denominator, *(v.denominator for v in values if v is not None))
    scaled = [None if v is None else v.numerator * (D // v.denominator) for v in values]
    return scaled, theta.numerator * (D // theta.denominator)


def _positive_criterion(w, p, t):
    """Unique prime-to-p index sigma <= p at exactly the threshold, all other
    indices strictly above it; on the valuations w_1, w_2, ... and the
    threshold t of _over_common_denominator."""
    hits = [i for i, x in enumerate(w, 1) if x == t]
    if len(hits) != 1:
        return None
    sigma = hits[0]
    if sigma % p == 0 or sigma > p:
        return None
    # the one hit is the only index at t, so the others must not fall below
    if any(x is not None and x < t for x in w):
        return None
    return sigma


def _extended(v):
    return v if isinstance(v, ExtendedRational) else ExtendedRational(v)


def splitting_obstruction(vals, p, n, c1=None, cp=None):
    """Decide splitting of the torsor 1 + c_1 t + c_2 t^2 + ... at level n.

    Args:
        vals: v(c_i) for i = 1..T (Fractions or ExtendedRationals), T >= p.
        p: odd prime; n: level (the torsor splits into p^(n-1) pieces of
           conductor sigma when the verdict is SplitsWithConductor(sigma)).
        c1, cp: optional LocalFieldElements for the borderline comparison.

    Returns:
        SplitVerdict.

    The threshold theta = n + 1/(p-1) and every finite v(c_i) are compared
    as ints over one common denominator, the lcm of theta's and theirs, with
    None for infinity. Evidence reports the caller's valuations as
    ExtendedRationals. The borderline case v(c_p) <= theta, reached at most
    once a call, does its arithmetic on ExtendedRationals.
    """
    check_p(p)
    T = len(vals)
    if T < p:
        raise InsufficientData(f"need coefficient valuations up to i = {p}, got {T}")
    # ExtendedRational(None) is infinity, so None is read as infinity here too
    values = [None if v is None else _value(v) for v in vals]
    theta = Fraction(n) + Fraction(1, p - 1)
    w, t = _over_common_denominator(values, theta)
    for i in range(2 * p, T + 1, p):
        if w[i - 1] is not None and w[i - 1] <= t:
            return SplitVerdict(
                "Inconclusive",
                evidence={
                    "reason": f"hypothesis v(c_{i}) > {theta} fails for the "
                    f"p-divisible index {i}",
                },
            )
    w_p = w[p - 1]
    bound = t if w_p is None else min(w_p, t)
    for i, x in enumerate(w, 1):
        if i != p and x is not None and x < bound:
            return SplitVerdict(
                "ObstructedByConditionI",
                evidence={
                    "witness_index": str(i),
                    "valuation": _extended(vals[i - 1]),
                    "threshold": theta,
                },
            )
    if w_p is None or w_p > t:
        sigma = _positive_criterion(w, p, t)
        if sigma is not None:
            return SplitVerdict(
                "SplitsWithConductor",
                conductor=Fraction(sigma),
                evidence={"threshold": theta, "v_c_sigma": _extended(vals[sigma - 1])},
            )
        return SplitVerdict(
            "Inconclusive",
            evidence={"reason": "no unique prime-to-p index at the threshold"},
        )
    # borderline: v(c_p) <= theta; absorb the p-th-root part of c_p into c_1
    vals = {i: _extended(v) for i, v in enumerate(vals, 1)}
    v_p = vals[p]
    floor = Fraction(n) - Fraction(p - 2, 2 * (p - 1))
    if not v_p > floor:
        return SplitVerdict(
            "Inconclusive",
            evidence={"reason": f"requires v(c_p) > {floor}, got {v_p}"},
        )
    v_root = (v_p + (p - 1) * n + 1) * Fraction(1, p)
    v1 = vals[1]
    if v1 != v_root:
        v_diff = min(v1, v_root)
        if v_diff < theta:
            return SplitVerdict(
                "ObstructedByConditionII",
                evidence={
                    "v_c1": v1,
                    "v_root_term": v_root,
                    "v_difference": v_diff,
                    "threshold": theta,
                },
            )
        return _absorbed_verdict(vals, p, n, theta, v_diff, v_root)
    # exact tie: the comparison needs the elements themselves
    if c1 is None or cp is None:
        return SplitVerdict(
            "Inconclusive",
            evidence={
                "reason": f"v(c_1) = v((p^((p-1)n+1) c_p)^(1/p)) = {v_root}; "
                f"element data (c1, cp) required to compare"
            },
        )
    candidate = c1**p / cp.ctx.from_rational(Fraction(p) ** ((p - 1) * n + 1))
    v_gap = (cp - candidate).valuation_lower_bound()
    if not v_gap > theta:
        return SplitVerdict(
            "Inconclusive",
            evidence={
                "reason": f"candidate is not within p^{theta} of c_p (v >= {v_gap})"
            },
        )
    # c_1 is the root itself, so the twist clears index 1
    return _absorbed_verdict(vals, p, n, theta, INFINITY, v_root, v_p_new=v_gap)


def _absorbed_verdict(vals, p, n, theta, v1_new, v_root, v_p_new=None):
    """Positive criterion after twisting away the p-th-root part of c_p."""
    new_vals = dict(vals)
    new_vals[1] = v1_new
    new_vals[p] = v_p_new if v_p_new is not None else ExtendedRational(theta) + Fraction(1, 2 * p * (p - 1))
    for k in range(2, p):
        # the twist contributes binom(p^n, k) eta^k at index k
        contribution = Fraction(n) * (1 - k) + v_root * k
        new_vals[k] = min(new_vals[k], contribution)
    w, t = _over_common_denominator([v.value for v in new_vals.values()], theta)
    sigma = _positive_criterion(w, p, t)
    if sigma is not None:
        return SplitVerdict(
            "SplitsWithConductor",
            conductor=Fraction(sigma),
            evidence={
                "threshold": theta,
                "v_c_sigma": new_vals[sigma],
                "absorbed": "true",
            },
        )
    return SplitVerdict(
        "Inconclusive",
        evidence={"reason": "no unique prime-to-p index at the threshold after absorption"},
    )


def _aux_valuation(p, r, s, case):
    """The auxiliary valuation of a = 1 - s^2/r^2 in its case: v(a) for a=0,
    v(sqrt(1-a)) for a=1, None for generic. Raises CaseMismatch when (r, s)
    is not in the case."""
    if vp(r, p) != 0:
        raise CaseMismatch(f"v_{p}({r}) must be 0")
    if s == 0 or r + s == 0:
        raise CaseMismatch(f"need s != 0 and r + s != 0, got r={r}, s={s}")
    vs = vp(s, p)
    vrs = vp(r + s, p)
    if case == GENERIC:
        if vs != 0 or vrs != 0:
            raise CaseMismatch(
                f"generic case needs v(s) = v(r+s) = 0, got v(s)={vs}, v(r+s)={vrs}"
            )
        return None
    if case == A_ZERO:
        if vs != 0 or not vrs > 0:
            raise CaseMismatch(
                f"case a=0 needs v(s) = 0 < v(r+s), got v(s)={vs}, v(r+s)={vrs}"
            )
        return vrs.as_fraction()
    if not vs > 0:
        raise CaseMismatch(f"case a=1 needs v(s) > 0, got v(s)={vs}")
    return vs.as_fraction()


def tail_center(p, nu, r, s, case):
    """Center of the disk of the new etale tail.

    Rational in the non-exceptional cases; a ramified local field element for
    the p = 5 exceptional cases (v(a) = nu - 1 resp. v(sqrt(1-a)) = nu - 1),
    built from the 5th root that `nth_root` takes. That root is unique: zeta_5
    lies in no totally ramified Q_5(5^(1/N)), since Q_5(zeta_5) is
    Q_5((-5)^(1/4)) (Serre, Local Fields, ch. IV), so the center has no
    branch to choose. That construction is p = 5's alone, so p = 3 with its
    auxiliary valuation at nu - 1 is refused with Unsupported.
    """
    check_p(p)
    case = _norm_case(case)
    check_nu(nu)
    extra = _aux_valuation(p, r, s, case)
    if case == GENERIC:
        if r == s:
            raise CaseMismatch("center 1 - s^2/r^2 = 0 coincides with the branch point x = 0")
        return 1 - Fraction(s, r) ** 2
    _refuse_above_nu(case, extra, nu)
    if p > 5 or extra < nu - 1:
        return 1 - Fraction(s, r) ** 2
    return _exceptional_center(p, nu, r, s, r + s if case == A_ZERO else s)


def _refuse_above_nu(case, extra, nu):
    """Refuse an auxiliary valuation above nu - 1, where the case has no new
    etale tail."""
    if extra > nu - 1:
        name = "v(a)" if case == A_ZERO else "v(sqrt(1-a))"
        raise InadmissibleValuation(f"{name} = {extra} exceeds nu - 1 = {nu - 1}")


def _exceptional_center(p, nu, r, s, binom_arg):
    if p != 5:
        raise Unsupported(
            f"the exceptional tail center at v = nu - 1 is built for p = 5 only, got p = {p}"
        )
    if binom_arg < 0:
        raise CaseMismatch(
            f"the exceptional center needs x >= 0 in binomial(x, 5), x = r+s "
            f"for a=0 and s for a=1; got x = {binom_arg}"
        )
    ctx = LocalFieldContext(p)
    radicand = Fraction(p) ** (4 * nu + 1) * math.comb(binom_arg, 5)
    root = nth_root(ctx.from_rational(radicand), 5)
    return 1 - ((ctx.from_rational(s) - root) * Fraction(1, r)) ** 2


@dataclass
class TailRadius:
    v_rho: Fraction
    v_e: Fraction


def tail_radius(p, nu, case, extra=None):
    """Valuations of the radius rho of the tail disk (x-coordinate) and of
    the scale e of the disk upstairs (z-coordinate). Case a=0 refuses a
    v(a) above nu - 1, as tail_center does."""
    check_p(p)
    case = _norm_case(case)
    check_nu(nu)
    x = Fraction(nu) + Fraction(1, p - 1)
    if case == GENERIC:
        if extra not in (None, 0, Fraction(0)):
            raise CaseMismatch("generic case takes no auxiliary valuation")
        return TailRadius(Fraction(2, 3) * x, Fraction(1, 3) * x)
    if extra is None or not Fraction(extra) > 0:
        raise PreconditionViolated(f"case {case} needs a positive auxiliary valuation")
    extra = Fraction(extra)
    if case == A_ZERO:
        _refuse_above_nu(case, extra, nu)
        return TailRadius(
            Fraction(2, 3) * x + Fraction(1, 3) * extra,
            Fraction(1, 3) * (x - extra),
        )
    return TailRadius(
        Fraction(2, 3) * (x + extra),
        Fraction(1, 3) * (x + extra),
    )


@dataclass
class TailDescriptor:
    case: str
    kind: str  # "new-inseparable"
    j: int
    center: str
    radius_valuation: Fraction
    sigma: Fraction
    upstairs_centers: str
    upstairs_radius_valuation: Fraction


def _has_deeper_tail(p, nu, extra):
    """Whether the admissible case a=0 or a=1 with auxiliary valuation extra
    has the deeper p = 5 inseparable tail, whose center is d."""
    return p == 5 and extra < nu - 1


def _center_text(case, extra):
    c, b, _ = _CENTER_FORMS[case]
    return f"a/(1-d^2), d = +-{c}(5^{extra + 1}/{b})^({D_EXPONENT})"


def insep_tail_catalog(p, nu, case, extra=None):
    """Complete list of new inseparable tails.

    Args:
        p, nu: prime and exponent; empty for nu = 1.
        case: generic / a=0 / a=1.
        extra: v(a) for a=0, v(sqrt(1-a)) for a=1.
    """
    check_p(p)
    case = _norm_case(case)
    check_nu(nu)
    if case == GENERIC:
        return []
    if nu <= 1:
        return []
    if extra is None:
        raise PreconditionViolated(f"case {case} needs the auxiliary valuation")
    extra = Fraction(extra)
    if case == A_ZERO:
        if not 0 < extra <= nu - 1:
            raise InadmissibleValuation(
                f"v(a) must satisfy 0 < v(a) <= nu - 1 = {nu - 1}, got {extra}"
            )
        out = [
            TailDescriptor(
                case=case,
                kind="new-inseparable",
                j=int(nu - extra),
                center="a/2",
                radius_valuation=extra + Fraction(1, p - 1),
                sigma=Fraction(2),
                upstairs_centers="z = +sqrt(-1), z = -sqrt(-1)",
                upstairs_radius_valuation=Fraction(1, 2 * (p - 1)),
            )
        ]
        if _has_deeper_tail(p, nu, extra):
            out.append(
                TailDescriptor(
                    case=case,
                    kind="new-inseparable",
                    j=int(nu - extra - 1),
                    center=_center_text(case, extra),
                    radius_valuation=extra + Fraction(17, 20),
                    sigma=Fraction(2),
                    upstairs_centers="z = +d, z = -d",
                    upstairs_radius_valuation=Fraction(17, 40),
                )
            )
        return out
    # case a=1: extra = v(sqrt(1-a)), so v(1-a) = 2*extra
    if not 0 < 2 * extra <= 2 * (nu - 1 + Fraction(1, p - 1)):
        raise InadmissibleValuation(
            f"v(1-a) = {2 * extra} must lie in (0, {2 * (nu - 1 + Fraction(1, p - 1))}]"
        )
    if not _has_deeper_tail(p, nu, extra):
        return []
    return [
        TailDescriptor(
            case=case,
            kind="new-inseparable",
            j=int(nu - extra - 1),
            center=_center_text(case, extra),
            radius_valuation=2 * extra + Fraction(17, 20),
            sigma=Fraction(2),
            upstairs_centers="z = +d, z = -d",
            upstairs_radius_valuation=extra + Fraction(17, 40),
        )
    ]


def insep_center(p, nu, r, s, case):
    """The center d of the deeper inseparable tail of the cover (r, s), on
    its positive branch: d = c * b'^e with b' = 5^(extra+1)/b, e = D_EXPONENT
    and the case's c and b, the d that `insep_tail_catalog` prints. It lies
    in Q_5(pi), pi^N = 5 with N the denominator of e, as c times the N-th
    root that `nth_root` takes of b'^(numerator of e); that root is unique,
    as in `tail_center`.

    Refuses where the catalog lists no such tail: CaseMismatch for an
    unknown case or an (r, s) not in the case, PreconditionViolated for the
    generic case and where the case has no deeper tail at (p, nu). Raises
    NoNthRoot when b'^2 has no 5th root in the field, that is when the unit
    part of b' is no 5th power there.
    """
    check_p(p)
    case = _norm_case(case)
    check_nu(nu)
    extra = _aux_valuation(p, r, s, case)
    if extra is None or not _has_deeper_tail(p, nu, extra):
        raise PreconditionViolated(
            f"no deeper inseparable tail at p = {p}, nu = {nu} in case {case}"
            + ("" if extra is None else f" with auxiliary valuation {extra}")
        )
    c, b = _CENTER_FORMS[case][2](r, s)
    base = Fraction(5) ** (extra + 1) / b
    ctx = LocalFieldContext(p, N=D_EXPONENT.denominator)
    radicand = ctx.from_rational(base**D_EXPONENT.numerator)
    return nth_root(radicand, D_EXPONENT.denominator) * c
