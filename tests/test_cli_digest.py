"""Byte-identity of the `srt` subcommands that no other digest covers.

A seeded sweep draws requests for `split-check`, `tail-center` (two draws
a round), `tail-radius`, `insep-tails`, `enum-tails`, `conductor`,
`herbrand`, `group` (criterion mode, and bfs for q <= 61) and
`wild-monodromy`, and runs each in-process through srt.cli.dispatch in
`--format json` and in `--format text`. Every (argv, exit code, stdout,
stderr) record is pinned in tests/digests/cli.txt. The draws mix answers,
contradiction verdicts (exit 2) and refusals (exit 1, one `error:` line on
stderr); every argument passes argparse, so no usage text, which depends on
the terminal width, reaches the records.

Pins, oracles and regeneration: tests/records.py.
"""
import json
import math
import random
from fractions import Fraction

import records
from helpers import (
    PiExt,
    agrees,
    rational_mod,
    sl2_closure,
    sl2_mul,
    sl2_power,
    tail_configs,
    vp_fraction,
    vp_int,
)
from test_acceptance import _radius_by_tree_solve

ROUNDS = 100
SEED = 21
# an exact local-field tail center is checked modulo p^EXACT_DIGITS
EXACT_DIGITS = 20
# a group answer is checked against the closure of its pair up to this q
BRUTE_Q = 31

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


def generate():
    """Each request of the sweep in --format json and in --format text, as
    (subcommand, argv, [argv, exit code, stdout, stderr])."""
    rng = random.Random(SEED)
    for _ in range(ROUNDS):
        for argv in _requests(rng):
            for fmt in ("json", "text"):
                full = ["--format", fmt] + argv
                yield argv[0], full, [full, *records.capture(full)]


def test_cli_requests_are_byte_identical():
    records.check("cli")


def pinned(command):
    """(argv, exit code, stdout) of each draw of the sweep for `command`, read
    from its pinned --format json record."""
    return [
        (full[2:], code, out)
        for label, full, (_, code, out, _) in records.stream("cli")
        if label == command and full[1] == "json"
    ]


def _answered(command):
    """(argv, JSON answer) of each draw for `command` that answers with exit
    code 0."""
    return [(argv, json.loads(out)) for argv, code, out in pinned(command) if code == 0]


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



def _primes_of(n):
    """The primes dividing n > 0, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] * (n > 1)


def test_group_draws_match_their_matrices():
    """Every group draw of the sweep that answers, checked on its printed
    matrices with no srt: alpha and beta have determinant 1; each printed
    order n of alpha, beta and alpha*beta is the least with x^n = I, since
    x^n = I and x^(n/l) != I for each prime l | n; the Sylow order is
    p^v_p(q^2 - 1); and for q <= BRUTE_Q the printed verdict and group order
    are those of the closure of <alpha, beta>."""
    checked = closed = 0
    for argv, answer in _answered("group"):
        q = answer["q"]
        alpha, beta = tuple(answer["alpha"]), tuple(answer["beta"])
        for a, b, c, d in (alpha, beta):
            assert (a * d - b * c) % q == 1, argv
        elements = {"alpha": alpha, "beta": beta, "alpha*beta": sl2_mul(alpha, beta, q)}
        for name, n in answer["orders"].items():
            x = elements[name]
            assert sl2_power(x, n, q) == (1, 0, 0, 1), (argv, name)
            assert all(sl2_power(x, n // ell, q) != (1, 0, 0, 1) for ell in _primes_of(n)), argv
        if "sylow" in answer:
            p = int(argv[argv.index("--p") + 1])
            assert answer["sylow"]["order"] == p ** vp_int(q * q - 1, p), argv
        if q <= BRUTE_Q:
            order = len(sl2_closure([alpha, beta], q))
            verdict = "Generates" if order == q * (q * q - 1) else "ProperSubgroup"
            generation = answer["generation"]
            assert (generation["verdict"], generation["order"]) == (verdict, order), argv
            closed += 1
        checked += 1
    assert (checked, closed) == (66, 21)


def test_enum_tails_draws_match_brute_force():
    """Every enum-tails draw of the sweep that answers lists the
    configurations of helpers.tail_configs, rendered as the CLI renders a
    TailConfig: an empty multiset and flagged = false left out."""
    checked = 0
    for argv, answer in _answered("enum-tails"):
        tau, p = int(argv[1].partition("=")[2]), int(argv[3])
        want = [
            {"prim": [str(s) for s in prim], "new": [str(s) for s in new], "flagged": flagged}
            for prim, new, flagged in tail_configs(tau, p)
        ]
        assert answer == [{k: v for k, v in c.items() if v} for c in want], argv
        checked += 1
    assert checked == 74
