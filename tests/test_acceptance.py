"""
Acceptance gate: the end-to-end computational claims the package exists to
reproduce, with exact tolerances.

Three tests in this file encode externally supplied reference values that the
exact computation contradicts; they fail by design and are kept as a record
(see their docstrings and the repository notes):
  - test_appendix_published_digit_combination
  - test_insep_tail_case_ii_published_identity
  - test_insep_tail_case_iii_published_residual
The true values the library computes are pinned green by companion tests here
and in tests/test_series.py / tests/test_torsor.py.
"""
import collections
import itertools
import json
import math
import random
import re
import resource
import time
from fractions import Fraction

import pytest

from srt import (
    CoverParams,
    Edge,
    GaussRational,
    I_GAUSS,
    INFINITY,
    LocalFieldContext,
    ReductionTree,
    Vertex,
    compositum_conductor,
    conductor_case,
    cyclotomic_filtration,
    effective_invariant,
    element_order,
    element_valuation,
    enumerate_tail_configs,
    generation_check,
    herbrand,
    invariant_weights,
    maclaurin_g,
    minus_identity,
    multinomial,
    nth_root,
    propagate_differents,
    run_wild_monodromy,
    scaled_coefficient_valuations,
    splitting_obstruction,
    sqrt_of_minus_one,
    standard_generators,
    tail_radius,
    taylor_factors,
    upper_from_lower,
    vp,
)
from srt.cli import EXIT_OK, dispatch

import records
from helpers import (
    PiExt,
    agrees,
    parse_local,
    pi_digits,
    pth_power_residues,
    rational_mod,
    vp_fraction,
)


# --------------------------------------------------------------------------
# 1. End-to-end wild monodromy over SL2(251)
# --------------------------------------------------------------------------

def _oracle_branches():
    """g(d) on both sign branches in exact Q[pi]/(pi^5 - 5) arithmetic.

    Instance: q = 251, p = 5, r = 1, hence s = 5, sqrt(1-a) = -5, and the
    cover function g(z) = (z+1)(z-5)^5 / ((z-1)(z+5)^5), evaluated at the
    disk center d = +-2*5^(7/5) = +-10 pi^2.
    """
    out = {}
    for branch, sign in (("+", 1), ("-", -1)):
        d = PiExt([0, 0, 10 * sign])
        g = (d + 1) * (d - 5) ** 5 / ((d - 1) * (d + 5) ** 5)
        out[branch] = g
    return out


def test_appendix_pipeline_exact():
    """The verified end-to-end run: verdict, per-branch digits of g(d) and of
    the normalized 5th root, and the 25th-power refutation certificates, all
    cross-checked against an independent exact-arithmetic oracle."""
    t0 = time.time()
    report = run_wild_monodromy(251, 5, 1)
    elapsed = time.time() - t0
    assert elapsed < 10
    assert report.verdict == "Nontrivial"

    steps = {s["id"]: s["value"] for s in report.steps}

    # Oracle ground truth per branch:
    #   +d: g = 1 - 4*5^2 + 3*5^(11/5) + o(5^(9/4)),  eps = 19 + 2*5^(6/5) + ...
    #   -d: g = 1 + 4*5^2 + 2*5^(11/5) + o(5^(9/4)),  eps = 4 + 3*5^(6/5) + ...
    truth = {
        "+": {"g0_mod125": 26, "g1_digit": 3, "eps": PiExt([19, 10])},
        "-": {"g0_mod125": 101, "g1_digit": 2, "eps": PiExt([4, 15])},
    }
    for branch, g in _oracle_branches().items():
        a = g.coeffs
        want = truth[branch]
        assert rational_mod(a[0], 125, 5) == want["g0_mod125"]
        assert vp_fraction(a[1], 5) == 2
        assert rational_mod(Fraction(a[1]) / 25, 5, 5) == want["g1_digit"]
        # no other term at or below 5^(9/4)
        for i in (2, 3, 4):
            if a[i] != 0:
                assert vp_fraction(a[i], 5) + Fraction(i, 5) > Fraction(9, 4)
        # the stated digits of eps = -g^(1/5) pin eps beyond 5^(6/5):
        # eps0^5 + g must vanish past 1 + 6/5
        diff = want["eps"] ** 5 + g
        assert diff.valuation() > Fraction(11, 5)

    # 5th power yes, 25th power no, with the exact congruence certificates
    certs = {
        "+": {"alpha": 4, "beta": 2, "lhs": 9, "rhs": 19},
        "-": {"alpha": 4, "beta": 3, "lhs": 14, "rhs": 4},
    }
    for branch in ("+", "-"):
        assert steps[f"power-p{branch}"].kind == "yes"
        second = steps[f"power-p2{branch}"]
        assert second.kind == "no"
        cert = second.certificate
        want = certs[branch]
        assert cert["alpha"] == want["alpha"]
        assert cert["beta"] == want["beta"]
        assert cert["lhs"] == want["lhs"]
        assert cert["rhs"] == want["rhs"]
        # arithmetic consistency of the certificate itself
        assert (cert["alpha"] ** 5 + 5 * cert["beta"] ** 5) % 25 == cert["lhs"]
        assert cert["lhs"] != cert["rhs"] % 25


def test_appendix_library_matches_oracle():
    """The local-field stack reproduces the oracle's exact digits of g(d)."""
    ctx = LocalFieldContext(5, N=5, M=8)
    d = ctx.pi_power(Fraction(2, 5), Fraction(10))
    for branch, g_oracle in _oracle_branches().items():
        dd = d if branch == "+" else -d
        g_lib = ctx.one()
        for root, m in ((-1, 1), (1, -1), (5, 5), (-5, -5)):
            g_lib = g_lib * (dd - ctx.from_rational(root)) ** m
        lifted = ctx.zero()
        for i, coeff in enumerate(g_oracle.coeffs):
            if coeff != 0:
                lifted = lifted + ctx.pi_power(Fraction(i, 5), coeff)
        diff = g_lib - lifted
        assert diff.valuation_lower_bound() > Fraction(12, 5)


def _report_sample(count, seed):
    """(q, r) drawn from the first 40 primes q with 125 | q^2 - 1 and the
    r < 125 prime to 5."""
    qs = list(itertools.islice(
        (q for q in itertools.count(3)
         if (q * q - 1) % 125 == 0 and all(q % k for k in range(2, math.isqrt(q) + 1))),
        40,
    ))
    units = [r for r in range(1, 125) if r % 5]
    rng = random.Random(seed)
    return [(rng.choice(qs), rng.choice(units)) for _ in range(count)]


def test_printed_monodromy_reports_match_the_oracle(capsys):
    """Each printed report of a seeded sample, read back from its JSON alone:
    the printed g(d) is the exact product prod (d - root)^m to its printed
    precision, for g(z) = ((z+1)/(z-1))^r ((z - s/r)/(z + s/r))^s, the cover
    function at sqrt(1-a) = -s/r, and d = +-(the printed center); the
    printed center is exact and solves the catalog's d^5 = (2s/r)^5 b'^2,
    b' = 5^(w+1)/s with w = v(s/r) the printed v_sqrt, which fixes it since
    Q_5(pi) holds no 5th root of unity but 1; delta^5
    agrees with that exact g(d) to the bound the delta step prints; and
    eps = -delta when r + s is even, delta when it is odd, at delta's
    precision; eps is no 5th power, since its digits modulo pi^7 are not
    those of a 5th power; and the power-p2 certificate holds eps's digits:
    alpha = eps mod 5, beta its digit at 5^(6/5), rhs its integer-class
    residue mod 5^2, and lhs != rhs that residue of (alpha + beta*pi)^5."""
    fifth_powers = pth_power_residues()
    for q, r in _report_sample(30, seed=7):
        argv = ["wild-monodromy", "--q", str(q), "--p", "5", "--r", str(r)]
        assert dispatch(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        inputs = report["inputs"]
        p, s = inputs["p"], inputs["s"]
        assert (inputs["q"], inputs["r"]) == (q, r)
        assert Fraction(inputs["a"]) == 1 - Fraction(s, r) ** 2
        steps = {step["id"]: step for step in report["steps"]}
        center, exact = parse_local(steps["center"]["value"])
        assert exact is None
        w = Fraction(steps["v_sqrt"]["value"])
        assert w == vp_fraction(Fraction(s, r), p)
        assert center**5 == Fraction(2 * s, r) ** 5 * Fraction(p ** (w + 1), s) ** 2
        roots = [(-1, r), (1, -r), (Fraction(s, r), s), (Fraction(-s, r), -s)]
        for branch, sign in (("+", 1), ("-", -1)):
            d = center * sign
            g = PiExt.from_rational(1)
            for root, m in roots:
                g = g * (d - root) ** m
            printed, g_prec = parse_local(steps[f"g(d){branch}"]["value"])
            assert g_prec is not None and agrees(printed, g, g_prec)
            delta, delta_prec = parse_local(steps[f"delta{branch}"]["value"])
            bound = re.search(r"to v >= (\S+)\)$", steps[f"delta{branch}"]["description"])
            assert agrees(delta**p, g, Fraction(bound.group(1)))
            eps, eps_prec = parse_local(steps[f"eps{branch}"]["value"])
            assert eps_prec == delta_prec
            assert agrees(eps, delta * (-1 if (r + s) % 2 == 0 else 1), eps_prec)
            assert eps_prec >= Fraction(7, 5)
            digits = pi_digits(eps, 7)
            assert digits not in fifth_powers
            # eps is an integer mod p, so its first digit in (1, p/(p-1)] is at pi^6
            assert digits[1:5] == (0,) * 4
            alpha, beta = digits[0], digits[6]
            rhs = rational_mod(eps.coeffs[0], 25, 5)
            lhs = rational_mod((PiExt([alpha, beta]) ** 5).coeffs[0], 25, 5)
            assert lhs != rhs
            assert steps[f"power-p2{branch}"]["value"] == {
                "verdict": "no",
                "certificate": {
                    "kind": "congruence",
                    "alpha": alpha,
                    "beta": beta,
                    "modulus_alpha": 5,
                    "modulus_beta": 5,
                    "violated_exponent_class": "0",
                    "modulus": "5^2",
                    "lhs": lhs,
                    "rhs": rhs,
                },
            }


@pytest.mark.xfail(
    strict=True,
    reason="reference digit combination mixes the two sign branches; "
    "the exact computation realizes it on neither (see repository notes)",
)
def test_appendix_published_digit_combination():
    """Reference values as stated: g(d) = +-(1 - 3*5^(11/5) - 4*5^2) with the
    normalized root 19 + 3*5^(6/5) and certificate alpha=4, beta=3,
    lhs 14, rhs 19 -- all on ONE branch.  The exact branches are
    (26, +3, eps=19+2*5^(6/5), beta=2, lhs 9, rhs 19) and
    (101, +2, eps=4+3*5^(6/5), beta=3, lhs 14, rhs 4), so no branch
    matches and this test fails by design."""
    report = run_wild_monodromy(251, 5, 1)
    steps = {s["id"]: s["value"] for s in report.steps}
    matches = []
    for branch, g in _oracle_branches().items():
        a = g.coeffs
        cert = steps[f"power-p2{branch}"].certificate
        eps5_plus_g = PiExt([19, 15]) ** 5 + g  # eps = 19 + 3*5^(6/5)
        matches.append(
            rational_mod(a[0], 125, 5) == 26  # 1 - 4*5^2
            and rational_mod(Fraction(a[1]) / 25, 5, 5) == 2  # -3*5^(11/5)
            and eps5_plus_g.valuation() > Fraction(11, 5)
            and cert["alpha"] == 4
            and cert["beta"] == 3
            and cert["lhs"] == 14
            and cert["rhs"] == 19
        )
    assert any(matches)


# --------------------------------------------------------------------------
# 2. SL2(251) generator data
# --------------------------------------------------------------------------

def test_sl2_251_generators():
    alpha, beta = standard_generators(251, 5)
    assert element_order(alpha) == 251
    assert element_order(beta) == 250
    assert element_order(alpha * beta) == 50
    assert beta ** 125 == minus_identity(251)

    t0 = time.time()
    quick = generation_check([alpha, beta], 251, mode="criterion")
    assert time.time() - t0 < 1
    assert quick.kind == "Generates"
    assert quick.order == 15_813_000

    t0 = time.time()
    full = generation_check([alpha, beta], 251, mode="bfs")
    assert time.time() - t0 < 30
    assert full.kind == "Generates"
    assert full.order == 15_813_000
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 1024 * 1024  # < 1 GB


# --------------------------------------------------------------------------
# 3. Conductor-3 splitting sweep (generic case)
# --------------------------------------------------------------------------

def test_conductor3_splitting_sweep():
    rng = random.Random(20260824)
    t0 = time.time()
    for p in (7, 11, 13):
        for nu in (1, 2, 3):
            done = 0
            while done < 20:
                r = rng.randrange(1, p**nu)
                s = rng.randrange(1, p**nu)
                if r == s or r % p == 0 or s % p == 0:
                    continue
                if (r + s) % p == 0 or (r - s) % p == 0:
                    continue
                params = CoverParams(p, nu, r, s, Fraction(-s, r))
                T = 3 * p + 2
                series = maclaurin_g(params, T)
                theta = Fraction(nu) + Fraction(1, p - 1)
                vals = scaled_coefficient_valuations(series, p, theta / 3)
                verdict = splitting_obstruction(vals, p, nu)
                assert verdict.kind == "SplitsWithConductor"
                assert verdict.conductor == 3
                assert vals[2].as_fraction() == theta  # v(c_3) exactly
                for i, v in enumerate(vals, start=1):
                    if i != 3:
                        assert v > theta
                done += 1
    assert time.time() - t0 < 5


def _split_request(rng):
    """(p, n, vals) of a split-check request: v(c_1), ..., v(c_T) around the
    threshold n + 1/(p-1), None for infinity, drawn to reach every verdict:
    indices below the threshold, one prime-to-p index at it, a borderline
    v(c_p) with v(c_1) near the root term, or anything near it."""
    p, n = rng.choice([3, 5, 7, 11]), rng.randint(1, 4)
    theta = n + Fraction(1, p - 1)
    T = rng.randint(p, 2 * p + 1)
    vals = [theta + Fraction(rng.randint(1, 8), rng.randint(1, 2 * (p - 1))) for _ in range(T)]
    mode = rng.randrange(4)
    if mode == 0:
        for _ in range(rng.randint(1, 2)):
            vals[rng.randrange(T)] = theta - Fraction(rng.randint(1, 6), rng.randint(1, 6))
    elif mode == 1:
        vals[rng.randrange(p - 1)] = theta
    elif mode == 2:
        floor = n - Fraction(p - 2, 2 * (p - 1))
        v_p = rng.choice([theta, theta - Fraction(1, 2 * p), floor + Fraction(1, 2 * (p - 1))])
        v_root = (v_p + (p - 1) * n + 1) / p
        vals[p - 1] = v_p
        vals[0] = rng.choice([v_root + 1, v_root + Fraction(1, 7), v_root - Fraction(1, 9), None])
    else:
        vals = [rng.choice([theta, theta - Fraction(1, 2), n, theta + 1, None]) for _ in vals]
    return p, n, vals


def _check_split_evidence(p, n, vals, code, report):
    """Re-derive one printed split-check verdict from its --vals (None for
    infinity) by plain Fraction arithmetic; returns (verdict, absorbed)."""
    inf = float("inf")
    kind, evidence = report["verdict"], report["evidence"]
    v = {i: inf if x is None else x for i, x in enumerate(vals, start=1)}
    theta = n + Fraction(1, p - 1)
    if kind != "Inconclusive":
        assert Fraction(evidence["threshold"]) == theta
    if kind == "ObstructedByConditionI":
        witness = int(evidence["witness_index"])
        assert witness != p and code == 2
        assert v[witness] == Fraction(evidence["valuation"]) < min(v[p], theta)
    elif kind == "SplitsWithConductor" and "absorbed" not in evidence:
        sigma = int(report["conductor"])
        assert sigma <= p and sigma % p != 0 and code == 0
        assert v[sigma] == theta == Fraction(evidence["v_c_sigma"])
        assert all(x > theta for i, x in v.items() if i != sigma)
    elif kind == "ObstructedByConditionII":
        v_root = (Fraction(v[p]) + (p - 1) * n + 1) / p
        assert Fraction(evidence["v_root_term"]) == v_root and code == 2
        assert min(v[1], v_root) < theta
    return kind, "absorbed" in evidence


def test_printed_split_evidence_matches_the_vals(capsys):
    """Each printed split-check verdict of a seeded sample, and each answered
    split-check record that tests/digests/cli.txt pins in --format json,
    re-derived from its --vals by plain Fraction arithmetic: theta = level +
    1/(p-1) is the printed threshold; a condition-I witness is an index other
    than p whose value is the printed valuation, below min(v_p, theta); an
    unabsorbed conductor is the unique prime-to-p index <= p at theta, with
    every other index above it; and a condition-II obstruction prints v_root
    = (v_p + (p-1)n + 1)/p, with min(v_1, v_root) < theta. The sample, not
    the pins, holds the floor of each verdict."""
    rng = random.Random(20261019)
    kinds = collections.Counter()
    for _ in range(200):
        p, n, vals = _split_request(rng)
        text = json.dumps(["inf" if v is None else str(v) for v in vals])
        code = dispatch(["split-check", "--p", str(p), "--level", str(n), "--vals", text])
        kinds[_check_split_evidence(p, n, vals, code, json.loads(capsys.readouterr().out))] += 1
    for kind in ("ObstructedByConditionI", "SplitsWithConductor", "ObstructedByConditionII"):
        assert kinds[kind, False] >= 10, kinds
    answered = 0
    for label, full, (_, code, out, _) in records.stream("cli"):
        if label != "split-check" or full[1] != "json" or code not in (0, 2):
            continue
        flags = dict(zip(full[3::2], full[4::2]))
        vals = [None if x == "inf" else Fraction(x) for x in json.loads(flags["--vals"])]
        _check_split_evidence(int(flags["--p"]), int(flags["--level"]), vals, code, json.loads(out))
        answered += 1
    assert answered == 82


# --------------------------------------------------------------------------
# 4. p = 5 exceptional tail centers
# --------------------------------------------------------------------------

def _fifth_power_unit(x):
    """Is the unit part of the rational x a 5th power in Z_5?"""
    num = abs(x.numerator)
    while num % 5 == 0:
        num //= 5
    den = x.denominator
    while den % 5 == 0:
        den //= 5
    return num * pow(den, -1, 25) % 25 in (1, 7, 18, 24)


def _exceptional_instances(nu, case):
    """(r, s, radicand) with the 5th root exactly extractable in Q_5."""
    if case == "a=0":
        for m0 in range(1, 500):
            if m0 % 5 == 0:
                continue
            rs = m0 * 5 ** (nu - 1)
            rad = Fraction(5) ** (4 * nu + 1) * math.comb(rs, 5)
            if rad != 0 and _fifth_power_unit(rad):
                for r in range(1, rs):
                    s = rs - r
                    if r % 5 and s % 5 and 0 < r < 5**nu and 0 < s < 5**nu and r != s:
                        return r, s, rad
    else:
        for m0 in range(1, 500):
            if m0 % 5 == 0:
                continue
            s = m0 * 5 ** (nu - 1)
            if not s < 5**nu:
                continue
            rad = Fraction(5) ** (4 * nu + 1) * math.comb(s, 5)
            if rad != 0 and _fifth_power_unit(rad):
                for r in range(1, 5**nu):
                    if r % 5 and r != s:
                        return r, s, rad
    raise AssertionError("no admissible instance found")


def _exceptional_split_verdict(nu, case, with_root_term):
    r, s, rad = _exceptional_instances(nu, case)
    T = 17
    if case == "a=0":
        v_e = (Fraction(nu) + Fraction(1, 4) - (nu - 1)) / 3
    else:
        v_e = (Fraction(nu) + Fraction(1, 4) + 2 * (nu - 1)) / 3
    if not with_root_term:
        params = CoverParams(5, nu, r, s, Fraction(-s, r))
        series = maclaurin_g(params, T)
        vals = scaled_coefficient_valuations(series, 5, v_e)
        return splitting_obstruction(vals, 5, nu)
    ctx = LocalFieldContext(5, N=60, M=4)
    root = nth_root(ctx.from_rational(rad), 5)
    sqrt1ma = (ctx.from_rational(s) - root) * Fraction(-1, r)
    factors = [
        (Fraction(-1), r),
        (Fraction(1), -r),
        (-sqrt1ma, s),
        (sqrt1ma, -s),
    ]
    series = taylor_factors(factors, ctx.zero(), T, 5)
    g0 = series.coefficient(0)
    e = ctx.pi_power(v_e)
    vals, elements = [], {}
    for i in range(1, T + 1):
        ci = series.coefficient(i) / g0 * e**i
        elements[i] = ci
        vals.append(INFINITY if ci.is_zero() else ci.valuation())
    return splitting_obstruction(vals, 5, nu, c1=elements[1], cp=elements[5])


@pytest.mark.parametrize("case", ["a=0", "a=1"])
@pytest.mark.parametrize("nu", [2, 3])
def test_exceptional_center_with_root_term_splits(nu, case):
    t0 = time.time()
    verdict = _exceptional_split_verdict(nu, case, with_root_term=True)
    assert verdict.kind == "SplitsWithConductor"
    assert verdict.conductor == 3
    assert time.time() - t0 < 15


@pytest.mark.parametrize("case", ["a=0", "a=1"])
@pytest.mark.parametrize("nu", [2, 3])
def test_exceptional_center_without_root_term_obstructed(nu, case):
    verdict = _exceptional_split_verdict(nu, case, with_root_term=False)
    assert verdict.kind == "ObstructedByConditionII"


# --------------------------------------------------------------------------
# 5. Inseparable-tail conductor-2 checks
# --------------------------------------------------------------------------

def _case_i_verdict(p, r, s, va):
    """Conductor-2 splitting for the disk around sqrt(-1): expand the unit
    factor h(z) = ((z + sqrt(1-a))/(z+1) * (z-1)/(z - sqrt(1-a)))^s at
    z = sqrt(-1) and feed the scaled valuations to the split check at level
    n = v(a)."""
    c = Fraction(-s, r)
    factors = [(-c, s), (Fraction(-1), -s), (Fraction(1), s), (c, -s)]
    T = 3 * p + 2
    if p % 4 == 1:
        ctx = LocalFieldContext(p, N=2 * (p - 1), M=6)
        d = sqrt_of_minus_one(ctx, 8)
    else:
        d = I_GAUSS
    series = taylor_factors(factors, d, T, p)
    v_h0 = element_valuation(series.coefficient(0), p).as_fraction()
    v_e = Fraction(1, 2 * (p - 1))
    vals = []
    for i in range(1, T + 1):
        v = element_valuation(series.coefficient(i), p)
        if v.is_infinite:
            vals.append(INFINITY)
        else:
            vals.append(v.as_fraction() - v_h0 + i * v_e)
    return splitting_obstruction(vals, p, va), vals


def test_insep_tail_conductor2_case_i():
    t0 = time.time()
    for p, r, s, va in [(5, 1, 9, 1), (5, 1, 4, 1), (7, 1, 13, 1),
                        (7, 1, 97, 2), (11, 1, 21, 1)]:
        verdict, vals = _case_i_verdict(p, r, s, va)
        theta = Fraction(va) + Fraction(1, p - 1)
        assert verdict.kind == "SplitsWithConductor"
        assert verdict.conductor == 2
        assert vals[1] == theta  # v(c_2) exactly at the threshold
    assert time.time() - t0 < 120


def _exceptional_insep_gap(case):
    """Exact (gap, residual ingredients) for the p = 5 deeper inseparable
    tails: expand g at the exact 5th-root center d, rescale by e'' and return
    c''_5 - (c''_1)^5 / 5^(4n+1) together with the pieces needed to compare."""
    ctx = LocalFieldContext(5, N=40, M=4)
    if case == "ii":
        va, r, s = 1, 1, 34  # v(r+s) = 1, unit of 5^(va+1)/(r+s) a 5th power
        n = va + 1
        d = nth_root(ctx.from_rational(Fraction(5 ** (va + 1), r + s)), 5) ** 2
        e = ctx.pi_power(Fraction(17, 40))
    else:
        w, r, s = 1, 2, 35  # v(s) = 1, unit of 5^(w+1)/s a 5th power
        n = w + 1
        d = ctx.from_rational(Fraction(2 * s, r)) * (
            nth_root(ctx.from_rational(Fraction(5 ** (w + 1), s)), 5) ** 2
        )
        e = ctx.pi_power(Fraction(w) + Fraction(17, 40))
    c = Fraction(-s, r)
    factors = [(Fraction(-1), r), (Fraction(1), -r), (-c, s), (c, -s)]
    series = taylor_factors(factors, d, 17, 5)
    g0 = series.coefficient(0)
    vals, elements = [], {}
    for i in range(1, 18):
        ci = series.coefficient(i) / g0 * e**i
        elements[i] = ci
        vals.append(INFINITY if ci.is_zero() else ci.valuation())
    gap = elements[5] - elements[1] ** 5 / ctx.from_rational(Fraction(5) ** (4 * n + 1))
    verdict = splitting_obstruction(vals, 5, n, c1=elements[1], cp=elements[5])
    return gap, verdict, ctx, e, (r, s)


@pytest.mark.xfail(
    strict=True,
    reason="the stated identity c5'' = (c1'')^5/5^(4v(a)+5) does not hold: the "
    "exact residual is (1016/5)(r+s)(e'')^5 at valuation v(a) + 9/8 "
    "(see repository notes); pinned green in tests/test_torsor.py",
)
def test_insep_tail_case_ii_published_identity():
    gap, verdict, ctx, e, (r, s) = _exceptional_insep_gap("ii")
    assert gap.is_zero() or gap.valuation_lower_bound() > Fraction(5, 2)
    assert verdict.kind == "SplitsWithConductor" and verdict.conductor == 2


@pytest.mark.xfail(
    strict=True,
    reason="the stated residual (2^25 - 2^5) r^5/(5 s^4) (e'')^5 at "
    "v(sqrt(1-a)) + 25/8 is wrong: the exact residual is "
    "(2^15 - 2) r^5/(5 s^4) (e'')^5 at v(sqrt(1-a)) + 9/8 "
    "(see repository notes); pinned green in tests/test_torsor.py",
)
def test_insep_tail_case_iii_published_residual():
    gap, verdict, ctx, e, (r, s) = _exceptional_insep_gap("iii")
    published = ctx.from_rational(
        Fraction(2**25 - 2**5, 5) * Fraction(r**5, s**4)
    ) * e**5
    assert published.valuation() == Fraction(1) + Fraction(25, 8)
    diff = gap - published
    assert diff.is_zero() or diff.valuation_lower_bound() > Fraction(1) + Fraction(25, 8)
    assert verdict.kind == "SplitsWithConductor" and verdict.conductor == 2


# --------------------------------------------------------------------------
# 6. Radius oracle: tail_radius against the tree solver
# --------------------------------------------------------------------------

def _radius_by_tree_solve(p, nu, case, extra):
    """v(rho) of the new etale tail as the tree solver reads it: the total
    epaisseur of the chain root - (W -) tail solved by the law
    delta(parent) - delta(child) = sigma * epaisseur, with the root at
    inertia nu and delta x = nu + 1/(p-1), and the tail etale of sigma 3/2.
    In cases a=0 and a=1 the component W, of delta x - w and inertia
    nu - ceil(w), sits between them, with w = extra for a=0 and w = extra/2
    for a=1 (extra read as v(1 - a)), over an edge of sigma 1 resp. 1/2.
    None when no such W exists in the tree, w outside (0, nu - 1]."""
    x3_2 = Fraction(3, 2)
    tail = Vertex("tail", inertia=0, tail="new-etale", sigma=x3_2)
    if case == "generic":
        verts = [Vertex("root", inertia=nu), tail]
        edges = [Edge("root", "tail", sigma_eff=x3_2)]
    else:
        w = extra if case == "a=0" else extra / 2
        if not 0 < w <= nu - 1:
            return None
        x = Fraction(nu) + Fraction(1, p - 1)
        verts = [
            Vertex("root", inertia=nu),
            Vertex("W", inertia=nu - math.ceil(w), delta_eff=x - w),
            tail,
        ]
        edges = [
            Edge("root", "W", sigma_eff=Fraction(1) if case == "a=0" else Fraction(1, 2)),
            Edge("W", "tail", sigma_eff=x3_2),
        ]
    result = propagate_differents(ReductionTree(verts, edges), p)
    assert result.status == "Solved", result.contradictions
    return sum((e.epaisseur for e in result.tree.edges), Fraction(0))


def test_tail_radius_matches_tree_solve():
    rng = random.Random(6)
    for _ in range(30):
        p = rng.choice([3, 5, 7, 11, 13])
        nu = rng.randint(2, 5)
        case = rng.choice(["generic", "a=0", "a=1"])
        if case == "generic":
            extra = None
        elif case == "a=0":
            extra = Fraction(rng.randint(1, nu - 1))
        else:
            extra = Fraction(2 * rng.randint(1, nu - 1))  # v(1 - a)
        assert _radius_by_tree_solve(p, nu, case, extra) == tail_radius(p, nu, case, extra).v_rho


# --------------------------------------------------------------------------
# 7. Tail-structure enumeration
# --------------------------------------------------------------------------

def _brute_force_tail_configs(tau, p):
    """Independent multiset search over half-integers."""
    half = Fraction(1, 2)
    candidates = [half * k for k in range(1, 4 * p + 1)]
    found = set()
    n_new_max = max(0, 2 - tau)
    for n_new in range(n_new_max + 1):
        def rec(prim, new):
            if len(prim) < tau:
                start = prim[-1] if prim else candidates[0]
                for v in candidates:
                    if v >= start:
                        rec(prim + [v], new)
                return
            if len(new) < n_new:
                start = new[-1] if new else candidates[0]
                for v in candidates:
                    if v > 1 and v >= start:
                        rec(prim, new + [v])
                return
            if sum(prim) + sum(v - 1 for v in new) == 1:
                found.add((tuple(prim), tuple(new)))
        rec([], [])
    return found


def test_tail_config_enumeration():
    h = Fraction(1, 2)
    for p in (5, 7):
        assert enumerate_tail_configs(3, p) == []
        two = enumerate_tail_configs(2, p)
        assert [(c.prim, c.new) for c in two] == [((h, h), ())]
        one = enumerate_tail_configs(1, p)
        assert [(c.prim, c.new) for c in one] == [
            ((Fraction(1),), ()),
            ((h,), (Fraction(3, 2),)),
        ]
        for tau in (0, 1, 2, 3):
            got = {(c.prim, c.new) for c in enumerate_tail_configs(tau, p)}
            assert got == _brute_force_tail_configs(tau, p)


# --------------------------------------------------------------------------
# 8. Property suites (>= 200 randomized cases each)
# --------------------------------------------------------------------------

_PRIMES = [2, 3, 5, 7, 11, 13]


def _random_fraction(rng, p):
    unit = Fraction(rng.choice([u for u in range(1, 30) if u % p]),
                    rng.choice([u for u in range(1, 30) if u % p]))
    return unit * Fraction(p) ** rng.randint(-5, 5) * rng.choice([1, -1])


def test_property_valuation_axioms():
    rng = random.Random(81)
    for _ in range(250):
        p = rng.choice(_PRIMES)
        x = _random_fraction(rng, p)
        y = _random_fraction(rng, p)
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        assert vp(1 / x, p).as_fraction() == -vp(x, p).as_fraction()
        if x + y != 0:
            assert vp(x + y, p) >= min(vp(x, p), vp(y, p))
            if vp(x, p) != vp(y, p):
                assert vp(x + y, p) == min(vp(x, p), vp(y, p))
        assert vp(0, p).is_infinite


def test_property_multinomial_valuation_bound():
    # v(multinomial(q; parts)) >= v(q) - min_i v(parts_i)
    rng = random.Random(82)
    for _ in range(250):
        p = rng.choice(_PRIMES)
        parts = [rng.randint(1, 40) for _ in range(rng.randint(2, 5))]
        q = sum(parts)
        coeff = multinomial(q, parts)
        bound = vp(q, p).as_fraction() - min(vp(k, p).as_fraction() for k in parts)
        assert vp(coeff, p).as_fraction() >= bound


def test_property_binomial_prime_power_congruence():
    rng = random.Random(83)
    for _ in range(220):
        p = rng.choice([3, 5, 7, 11, 13])
        n = rng.randint(1, 5)
        assert math.comb(p**n, p) % p**n == p ** (n - 1)


def test_property_pnth_root_roundtrip():
    rng = random.Random(84)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        a = rng.randint(1, 2)
        k = rng.randint(a + 1, a + 3)
        unit = rng.choice([u for u in range(1, p**3) if u % p])
        # a p^a-th root has relative precision M - a: M = 10 carries its
        # p^a-th power past p^(k + 2)
        ctx = LocalFieldContext(p, N=2, M=10)
        x = ctx.one() + ctx.pi_power(Fraction(k), unit)
        root = nth_root(x, p**a)
        assert root.valuation().as_fraction() == 0
        assert (root - ctx.one()).valuation().as_fraction() == k - a
        assert (root ** (p**a) - x).valuation_lower_bound() > k + 2


def test_property_hensel_sqrt_roundtrip():
    rng = random.Random(85)
    for _ in range(220):
        p = rng.choice([3, 5, 7, 11, 13])
        M = rng.randint(3, 8)
        t = rng.randint(1, p**M - 1)
        while t % p == 0:
            t = rng.randint(1, p**M - 1)
        u = t * t % p**M
        root = nth_root(LocalFieldContext(p, N=1).from_rational(u, M), 2)
        assert root.prec == M and set(root.terms) == {0}
        r = root.terms[Fraction(0)]
        assert r * r % p**M == u


def _random_filtration(rng):
    total = rng.choice([4, 6, 8, 12, 20, 50])
    orders = [total]
    while orders[-1] > 1 and rng.random() < 0.7:
        divisors = [d for d in range(1, orders[-1]) if orders[-1] % d == 0]
        orders.append(rng.choice(divisors))
    jumps = sorted(rng.sample(range(1, 40), len(orders) - 1))
    lower = [(Fraction(0), total)] + [
        (Fraction(j), o) for j, o in zip(jumps, orders[1:])
    ]
    return upper_from_lower(lower)


def test_property_herbrand_inverse():
    rng = random.Random(86)
    for _ in range(220):
        f = _random_filtration(rng)
        x = Fraction(rng.randint(0, 400), rng.randint(1, 12))
        assert herbrand(f, "phi", herbrand(f, "psi", x)) == x
        assert herbrand(f, "psi", herbrand(f, "phi", x)) == x


def test_property_compositum_conductor_algebra():
    rng = random.Random(87)
    for _ in range(220):
        values = [
            Fraction(rng.randint(0, 60), rng.randint(1, 10))
            for _ in range(rng.randint(1, 6))
        ]
        c = compositum_conductor(values)
        assert c == max(values)
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert compositum_conductor(shuffled) == c
        assert compositum_conductor(values + values) == c
        # nesting
        cut = rng.randint(1, len(values))
        left, right = values[:cut], values[cut:]
        nested = compositum_conductor(
            [compositum_conductor(left)] + (right and [compositum_conductor(right)])
        )
        assert nested == c
        assert compositum_conductor(values + [c + 1]) == c + 1


def test_property_invariant_weight_sum():
    rng = random.Random(88)
    for _ in range(220):
        p = rng.choice([3, 5, 7, 11, 13])
        r = rng.randint(1, 8)
        weights = invariant_weights(r, p)
        assert sum(weights) == 1
        assert all(w > 0 for w in weights)
        sigma = Fraction(rng.randint(1, 20), rng.randint(1, 4))
        assert effective_invariant([sigma] * r, p) == sigma


def test_property_different_monotonic_on_solved_trees():
    rng = random.Random(89)
    for _ in range(210):
        p = rng.choice([3, 5, 7])
        depth = rng.randint(1, 5)
        sigmas = [Fraction(rng.randint(1, 6), 2) for _ in range(depth)]
        epais = [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(depth)]
        root_delta = sum(s * e for s, e in zip(sigmas, epais))
        verts = [Vertex("v0", inertia=depth)]
        edges = []
        for i in range(depth):
            inertia = depth - 1 - i
            tail = "new-etale" if inertia == 0 else "none"
            verts.append(
                Vertex(
                    f"v{i + 1}",
                    inertia=inertia,
                    tail=tail,
                    sigma=Fraction(3, 2) if tail != "none" else None,
                )
            )
            edges.append(
                Edge(f"v{i}", f"v{i + 1}", sigma_eff=sigmas[i], epaisseur=epais[i])
            )
        result = propagate_differents(
            ReductionTree(verts, edges), p, root_delta=root_delta
        )
        assert result.status == "Solved", result.contradictions
        deltas = [result.tree.vertices[f"v{i}"].delta_eff for i in range(depth + 1)]
        assert deltas[0] == root_delta and deltas[-1] == 0
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))


# --------------------------------------------------------------------------
# 9. Conductor closed forms
# --------------------------------------------------------------------------

def test_conductor_closed_forms():
    for p in (3, 5, 7, 11, 13):
        for nu in range(1, 6):
            tame = conductor_case(p, nu, "tame-over-cyclotomic")
            assert tame == Fraction(nu - 1)
            if nu >= 2:
                kummer = conductor_case(p, nu, "kummer-tower")
                assert kummer == max(Fraction(nu - 1), Fraction(p, p - 1))
                assert tame < nu
                assert kummer < nu
