"""Byte-identity of the `srt` subcommands that no other digest covers.

A seeded sweep draws requests for `split-check`, `tail-center` (two draws
a round), `tail-radius`, `insep-tails`, `enum-tails`, `conductor`,
`herbrand`, `group` (criterion mode, and bfs for q <= 61) and
`wild-monodromy`, and runs each in-process through srt.cli.dispatch in
`--format json` and in `--format text`. The sha256 of every (argv, exit
code, stdout, stderr) record is compared with a digest committed here. The
draws mix answers, contradiction verdicts (exit 2) and refusals (exit 1, one
`error:` line on stderr); every argument passes argparse, so no usage text,
which depends on the terminal width, reaches the records.

A digest detects a change, not a wrong answer. The tests that check answers
of each family against an independent one:
- `split-check`: tests/test_acceptance.py::
  test_printed_split_evidence_matches_the_vals re-derives 200 printed
  verdicts of its own draws from their --vals.
- `herbrand`: tests/test_ramification.py::
  test_digest_herbrand_draws_match_the_integral checks a seeded sample of
  the draws here against the integral of the step function in helpers.py,
  and phi(psi(x)) = x.
- `group`: tests/test_groups.py::TestGenerationCheck::
  test_criterion_matches_bfs_on_random_pairs checks the criterion mode
  against the bfs closure on its own seeded pairs. For the `sylow` part,
  tests/test_groups.py::TestSylowData::test_matches_brute_force_over_the_group
  checks sylow_data for every prime q <= 31 against SL2(F_q) listed in
  helpers.py.
- `enum-tails`: tests/test_graph.py::TestTailConfigs::test_matches_brute_force
  checks enumerate_tail_configs for tau 0..3 and p up to 13 against the
  brute force in helpers.py.
- `wild-monodromy`: tests/test_acceptance.py::
  test_printed_monodromy_reports_match_the_oracle rebuilds 30 printed
  reports from their JSON with srt-free arithmetic.
- `conductor`: tests/test_ramification.py::
  test_digest_conductor_draws_match_the_filtrations checks every `--shape`
  draw here against the conductor of cyclotomic_filtration, and for
  kummer-tower its compositum with the Kummer step's jump p/(p-1).
- `tail-radius`: test_tail_radius_draws_match_tree_solve below runs the
  check of tests/test_acceptance.py::test_tail_radius_matches_tree_solve on
  the draws here: each printed v_rho is the total epaisseur of the reduction
  tree that the tree solver solves for the draw's case.
- `tail-center`: test_tail_center_draws_match_their_equations below checks
  each answered draw with srt-free arithmetic: a rational center is
  1 - (s/r)^2, and a local-field center is 1 - ((s - rho)/r)^2 with
  rho^5 = p^(4 nu + 1) binomial(x, 5), x = r + s for a=0 and s for a=1, an
  equation that tests/helpers.py's PiExt checks to the printed precision.
- `insep-tails` has no oracle test of its printed answers.

If the output is meant to change, regenerate the digest with
``PYTHONPATH=src python tests/test_cli_digest.py`` and say why in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

from srt.cli import dispatch

from helpers import PiExt, agrees, rational_mod, vp_fraction
from test_acceptance import _radius_by_tree_solve

EXPECTED_DIGEST = "e84a606ef80d3eb691952f6ff0e50a2a631e7961315282f8789a0fd461295a8a"
EXPECTED_REQUESTS = 2000
ROUNDS = 100
SEED = 21
# an exact local-field tail center is checked modulo p^EXACT_DIGITS
EXACT_DIGITS = 20

PRIMES = (3, 5, 7)
CASES = ("generic", "a=0", "a=1", "generic", "a=0", "a=1", "other")
# q with 125 | q^2 - 1 (an inseparable tail at p = 5), q with only 25 or 5
# dividing q^2 - 1, and q = 5 itself
MONODROMY_Q = (251, 499, 751, 1249, 1999, 2251, 3001, 101, 11, 5)
GROUP_Q = (5, 7, 11, 13, 19, 29, 31, 41, 61, 71, 101, 151, 251, 15)


def _rational(rng):
    return str(Fraction(rng.randint(-3, 12), rng.choice([1, 2, 3, 4, 6])))


def _split_vals(rng, p, n):
    """Valuations of c_1..c_T around the threshold n + 1/(p-1): random, a
    positive criterion, or a borderline v(c_p) with c_1 near the root term."""
    theta = n + Fraction(1, p - 1)
    T = rng.randint(p - 1, 2 * p + 1)
    mode = rng.randrange(3)
    above = [theta + Fraction(rng.randint(1, 6), 2 * (p - 1)) for _ in range(T)]
    if mode == 0:
        vals = [
            rng.choice([theta, theta - Fraction(1, 2), n, None]) if rng.random() < 0.3 else v
            for v in above
        ]
    elif mode == 1:
        vals = above
        vals[rng.randrange(min(T, p))] = theta
    else:
        vals = above
        floor = n - Fraction(p - 2, 2 * (p - 1))
        v_p = rng.choice([theta, floor, floor + Fraction(1, 4), theta - Fraction(1, 8)])
        if T >= p:
            vals[p - 1] = v_p
            v_root = (v_p + (p - 1) * n + 1) / p
            vals[0] = rng.choice([v_root, v_root + 1, v_root - Fraction(1, 2), theta + 1])
    return json.dumps(["inf" if v is None else str(v) for v in vals])


def _cover(rng, p, case):
    """(r, s) for a tail center: most often in the given case, the exceptional
    p = 5 centers included, sometimes anything."""
    r = rng.choice([1, 2, 3, 4, 6, 7])
    if case == "a=0" and rng.random() < 0.8:
        return r, p ** rng.randint(1, 2) - r
    if case == "a=1" and rng.random() < 0.8:
        return r, p ** rng.randint(1, 2) * rng.choice([1, 2, 3])
    return rng.choice([r, r, p]), rng.choice([1, 2, 4, 5, 24, 25, -1, 10, r])


def _requests(rng):
    p = rng.choice(PRIMES)
    nu = str(rng.randint(1, 4))
    case = rng.choice(CASES)
    yield ["split-check", "--p", str(p), "--level", str(rng.randint(1, 3)),
           "--vals", _split_vals(rng, p, rng.randint(1, 3))]
    center_p = rng.choice((5, 5, 3, 7))
    r, s = _cover(rng, center_p, case)
    for _ in range(2):
        yield ["tail-center", "--p", str(center_p), "--nu", str(rng.randint(2, 4)),
               f"--r={r}", f"--s={s}", "--case", case]
    omit = 0.7 if case == "generic" else 0.2
    extra = [] if rng.random() < omit else [f"--extra={_rational(rng)}"]
    yield ["tail-radius", "--p", str(p), "--nu", nu, "--case", case] + extra
    extra = [] if rng.random() < 0.2 else ["--extra", str(rng.choice([0, 1, 2, 3, "1/2"]))]
    yield ["insep-tails", "--p", str(rng.choice((5, 5, 3))), "--nu", nu,
           "--case", case] + extra
    tau = rng.choice([-1, 0, 1, 1, 2, 2, 3, 4])
    rng.choice([2, 2, 2, 3])  # the draw of the retired --m-g flag: later draws stay put
    yield ["enum-tails", f"--tau={tau}", "--p", str(p)]
    if rng.random() < 0.5:
        values = ",".join(_rational(rng) for _ in range(rng.randint(1, 3)))
        yield ["conductor", f"--compositum={values}"]
    else:
        shape = rng.choice(["tame-over-cyclotomic", "kummer-tower"])
        flags = ["--shape", shape]
        if rng.random() < 0.9:
            flags += ["--nu", nu]
        if rng.random() < 0.7:
            flags += ["--p", str(p)]
        yield ["conductor"] + flags
    yield ["herbrand", "--p", str(p), "--nu", nu, "--direction",
           rng.choice(["phi", "psi"]), f"--x={_rational(rng)}"]
    q = rng.choice(GROUP_Q)
    if rng.random() < 0.3:
        yield ["group", "--q", str(q), "--tau", str(rng.randrange(q)),
               "--rho", str(rng.randrange(q))]
    else:
        divisors = [ell for ell in (3, 5, 7) if (q - 1) % ell == 0]
        ell = rng.choice(divisors + [3, 5, 7] if rng.random() < 0.2 else divisors or [3])
        mode = "bfs" if q <= 61 and rng.random() < 0.5 else "criterion"
        yield ["group", "--q", str(q), "--p", str(ell), "--mode", mode]
    r = rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 5])
    yield ["wild-monodromy", "--q", str(rng.choice(MONODROMY_Q)), "--p",
           str(rng.choice((5, 5, 5, 5, 3))), "--r", str(r)]


def _records(rounds=ROUNDS, seed=SEED):
    rng = random.Random(seed)
    for _ in range(rounds):
        for argv in _requests(rng):
            for fmt in ("json", "text"):
                full = ["--format", fmt] + argv
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = dispatch(full)
                yield [full, code, out.getvalue(), err.getvalue()]


def _digest(rounds=ROUNDS):
    h = hashlib.sha256()
    n = 0
    for record in _records(rounds):
        h.update(json.dumps(record).encode())
        h.update(b"\n")
        n += 1
    return h.hexdigest(), n


def test_cli_requests_are_byte_identical():
    digest, n = _digest()
    assert n == EXPECTED_REQUESTS
    assert digest == EXPECTED_DIGEST


def _answered(command):
    """(argv, JSON answer) of each draw of the sweep for `command` that
    answers with exit code 0."""
    rng = random.Random(SEED)
    for _ in range(ROUNDS):
        for argv in _requests(rng):
            if argv[0] != command:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = dispatch(argv)
            if code == 0:
                yield argv, json.loads(out.getvalue())


def test_tail_radius_draws_match_tree_solve():
    """Every tail-radius draw of the sweep that answers, in the domain where
    its tree has the component W (generic, or the auxiliary valuation in
    (0, nu - 1]): the printed v_rho is the tree solver's. The other answered
    draws are counted, since that tree does not exist for them."""
    checked = outside = 0
    for argv, answer in _answered("tail-radius"):
        p, nu, case = int(argv[2]), int(argv[4]), argv[6]
        extra = Fraction(argv[7].partition("=")[2]) if len(argv) > 7 else None
        v_rho = _radius_by_tree_solve(p, nu, case, extra)
        if v_rho is None:
            outside += 1
            continue
        assert Fraction(answer["v_rho"]) == v_rho, argv
        checked += 1
    assert (checked, outside) == (36, 8)


def _local_value(element, p):
    """(PiExt value over pi^5 = p, precision) of a local-field element in its
    JSON form: the sum of its terms unit * p^exponent, each exponent in
    (1/5)Z, and the precision as a Fraction, or None when it is exact."""
    coeffs = [Fraction(0)] * 5
    for term in element["terms"]:
        e5 = Fraction(term["exponent"]) * 5
        assert e5.denominator == 1, term
        # p^e = p^k * pi^i for 5e = 5k + i, 0 <= i < 5
        k, i = divmod(int(e5), 5)
        coeffs[i] += Fraction(term["unit"]) * Fraction(p) ** k
    prec = element["precision"]
    return PiExt(coeffs, 5, p), None if prec == "exact" else Fraction(prec)


def _fifth_root(R, p, L):
    """A root rho of rho^5 = R in Q_p(pi), pi^5 = p, correct modulo p^L, for
    a rational R >= 0: pi^k mu for R = p^k m with m a unit, and mu an integer
    with mu^5 = m modulo p^L lifted one p-adic digit at a time. None when m
    has no 5th root in Z_p.

    (mu + t p^j)^5 = mu^5 + 5 mu^4 t p^j modulo p^(j + e), e = 1 + v_p(5),
    for j >= 1, so the digit t at p^j sets mu^5 modulo p^(j + e); the digit
    at p^0 must give mu^5 = m modulo p^e already."""
    if R == 0:
        return PiExt.from_rational(0, 5, p)
    k = vp_fraction(R, p)
    m = R / Fraction(p) ** k
    e = 2 if p == 5 else 1
    roots = [a for a in range(1, p) if (a**5 - rational_mod(m, p**e, p)) % p**e == 0]
    if not roots:
        return None
    mu = roots[0]
    for j in range(1, L):
        modulus = p ** (j + e)
        mu = next(
            mu + t * p**j
            for t in range(p)
            if ((mu + t * p**j) ** 5 - rational_mod(m, modulus, p)) % modulus == 0
        )
    return PiExt.pi(5, p) ** k * mu


def test_tail_center_draws_match_their_equations():
    """Every tail-center draw of the sweep that answers. A rational center
    is 1 - (s/r)^2. A local-field center is 1 - ((s - rho)/r)^2 with
    rho^5 = p^(4 nu + 1) binomial(x, 5), x = r + s for a=0 and s for a=1:
    rho is taken here digit by digit, with no srt, and the printed center
    must agree with that value to its printed precision, or modulo
    p^EXACT_DIGITS when it is printed exact. That root is the only one in
    the field, which holds no 5th root of unity but 1."""
    counts = {"rational": 0, "local": 0}
    for argv, answer in _answered("tail-center"):
        p, nu, case = int(argv[2]), int(argv[4]), argv[8]
        r, s = (int(arg.partition("=")[2]) for arg in argv[5:7])
        center = answer["center"]
        if isinstance(center, str):
            assert Fraction(center) == 1 - Fraction(s, r) ** 2, argv
            counts["rational"] += 1
            continue
        printed, prec = _local_value(center, p)
        digits = EXACT_DIGITS if prec is None else prec
        x = r + s if case == "a=0" else s
        rho = _fifth_root(Fraction(p) ** (4 * nu + 1) * math.comb(x, 5), p, math.ceil(digits) + 1)
        assert rho is not None, argv
        # r is a unit, so a root known modulo p^L gives the center modulo p^L
        assert agrees(printed, 1 - ((s - rho) / r) ** 2, digits), argv
        counts["local"] += 1
    assert counts == {"rational": 45, "local": 10}


if __name__ == "__main__":
    digest, n = _digest()
    print(json.dumps({"digest": digest, "requests": n}))
