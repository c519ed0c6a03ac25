"""
The five benchmark workloads.

A workload is a list of op classes. One round holds one op of every class,
in an order the seed shuffles, and a run executes a fixed number of whole
rounds, so every run of a workload does the same mix of work and its latency
percentiles are comparable across commits. The seed chooses the concrete
inputs inside each class; the classes are fixed because the cost of an op
depends mostly on its class (the prime, the ramification, the group order).

Each op is (label, call, check): `call` runs the srt public API and returns
what it answered, `check` compares that answer with a value computed here,
from closed forms or from how the input was built, and raises WrongAnswer on
a mismatch. Only `call` is timed.

srt is always reached through module attributes at call time (`srt.x.f`), so
the traced run sees every call once it rebinds those attributes.

Inputs left out on purpose, because the project plans to turn their answers
into refusals (see bench/README.md): monodromy with p != 5, anything at p = 3,
`enum-tails` beyond p = 13, a non-prime p for `expand`, and `herbrand` with
nu = 0.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import srt
import srt.cli
import srt.groups


class WrongAnswer(Exception):
    """The program answered, but not with the value the harness expects."""


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _vp(x, p):
    x = Fraction(x)
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _unit(p, hi, rng, avoid=()):
    """A p-adic unit in [1, hi) outside `avoid`."""
    while True:
        x = rng.randrange(1, hi)
        if x % p and x not in avoid:
            return x


# --- monodromy --------------------------------------------------------------

# primes q with 125 | q^2 - 1: the inseparable-tail case of the p = 5 pipeline
MONODROMY_Q = [251, 499, 751, 1249, 1499, 1999, 2251, 2749]
# (251, r = 1) is the paper's instance; its certificates (alpha, beta, lhs,
# rhs) per sign branch are pinned
PINNED_CERTIFICATES = {"+": (4, 2, 9, 19), "-": (4, 3, 14, 4)}


def _monodromy_op(q, r, pinned):
    def call():
        return srt.run_wild_monodromy(q, 5, r)

    def check(report):
        expect(report.verdict == "Nontrivial", f"verdict {report.verdict}")
        steps = {s["id"]: s["value"] for s in report.steps}
        for branch in "+-":
            expect(steps[f"power-p{branch}"].kind == "yes", f"g(d){branch} not a 5th power")
            second = steps[f"power-p2{branch}"]
            expect(second.kind == "no", f"g(d){branch} 25th-power verdict {second.kind}")
            cert = second.certificate
            expect(cert.get("kind") == "congruence", f"certificate {cert}")
            alpha, beta, lhs, rhs = (cert[k] for k in ("alpha", "beta", "lhs", "rhs"))
            expect((alpha**5 + 5 * beta**5) % 25 == lhs % 25, f"certificate {cert} lhs")
            expect(lhs % 25 != rhs % 25, f"certificate {cert} does not separate")
            if pinned:
                expect(
                    (alpha, beta, lhs, rhs) == PINNED_CERTIFICATES[branch],
                    f"pinned certificate {branch}: {cert}",
                )

    return (f"q{q}", call, check)


def monodromy_round(rng):
    ops = [_monodromy_op(251, 1, pinned=True)]
    for q in MONODROMY_Q:
        ops.append(_monodromy_op(q, _unit(5, 125, rng), pinned=False))
    return ops


# --- splitting_sweep --------------------------------------------------------

SWEEP_CLASSES = [(p, nu) for p in (7, 11, 13) for nu in (1, 2, 3)]
SWEEP_PER_ROUND = 2  # ops of each class in a round


def _sweep_op(p, nu, r, s):
    def call():
        params = srt.CoverParams(p, nu, r, s, Fraction(-s, r))
        series = srt.maclaurin_g(params, 3 * p + 2)
        theta = Fraction(nu) + Fraction(1, p - 1)
        vals = srt.scaled_coefficient_valuations(series, p, theta / 3)
        return vals, srt.splitting_obstruction(vals, p, nu)

    def check(result):
        vals, verdict = result
        theta = Fraction(nu) + Fraction(1, p - 1)
        expect(verdict.kind == "SplitsWithConductor", f"verdict {verdict.kind}")
        expect(verdict.conductor == 3, f"conductor {verdict.conductor}")
        expect(vals[2].as_fraction() == theta, f"v(c_3) = {vals[2]}, want {theta}")

    return (f"p{p}nu{nu}", call, check)


def _in_stratum(rng, top, j, strata, ok):
    """A value in the j-th of `strata` equal slices of [1, top) that passes
    `ok`, widening the slice when it holds none: drawn by `rng`, or the one
    nearest the slice's middle when `rng` is None."""
    lo = 1 + (top - 1) * j // strata
    hi = max(lo + 1, 1 + (top - 1) * (j + 1) // strata)
    while True:
        candidates = [x for x in range(lo, hi) if ok(x)]
        if candidates and rng is None:
            return min(candidates, key=lambda x: abs(2 * x - lo - hi + 1))
        if candidates:
            return rng.choice(candidates)
        lo, hi = max(1, lo - 1), min(top, hi + 1)


def sweep_rounds(rng, n_rounds):
    """The cost of maclaurin_g grows with s (the factor (z - c)^s with
    c = -s/r brings in (s/r)^s), so each class's s values are a fixed grid
    over the whole run: (0, p^nu) is cut into one slice per op, and each slice
    gives the s nearest its middle. Each s is paired with an r drawn from a
    shuffled r-slice, and the pairs are dealt to rounds in seeded order. Every
    seed then covers the same spread of sizes."""
    rounds = [[] for _ in range(n_rounds)]
    draws = SWEEP_PER_ROUND * n_rounds
    for p, nu in SWEEP_CLASSES:
        top = p**nu
        r_strata = list(range(draws))
        rng.shuffle(r_strata)
        picks = []
        for j, k in enumerate(r_strata):
            s = _in_stratum(None, top, j, draws, lambda s: s % p)
            r = _in_stratum(
                rng, top, k, draws, lambda r: r != s and r % p and (r + s) % p and (r - s) % p
            )
            picks.append(_sweep_op(p, nu, r, s))
        rng.shuffle(picks)
        for k, op in enumerate(picks):
            rounds[k % n_rounds].append(op)
    return rounds


# --- tail_expansion ---------------------------------------------------------


def _fifth_power_unit(x):
    """Is the unit part of the rational x a 5th power in Z_5 (mod 25 test)?"""
    num, den = abs(x.numerator), x.denominator
    while num % 5 == 0:
        num //= 5
    while den % 5 == 0:
        den //= 5
    return num * pow(den, -1, 25) % 25 in (1, 7, 18, 24)


@functools.lru_cache(maxsize=None)
def exceptional_instances(nu, case):
    """(r, s, radicand) for the p = 5 exceptional center at v(a) = nu - 1
    (case a=0) or v(sqrt(1-a)) = nu - 1 (case a=1), where the radicand
    5^(4nu+1) C(n, 5) has a 5th root in Q_5."""
    out = []
    for m0 in range(1, 200):
        if m0 % 5 == 0:
            continue
        n = m0 * 5 ** (nu - 1)
        rad = Fraction(5) ** (4 * nu + 1) * math.comb(n, 5)
        if rad == 0 or not _fifth_power_unit(rad):
            continue
        if case == "a=0":
            for r in range(1, n):
                s = n - r
                if r % 5 and s % 5 and r < 5**nu and s < 5**nu and r != s:
                    out.append((r, s, rad))
        elif n < 5**nu:
            out.extend((r, n, rad) for r in range(1, 5**nu) if r % 5 and r != n)
    return tuple(out)


def _exceptional_op(nu, case, r, s, rad):
    """Expand g at the exceptional p = 5 tail disk, whose center needs an
    exact 5th root; the torsor there splits with conductor 3."""

    def call():
        ctx = srt.LocalFieldContext(5, N=60, M=4)
        root = srt.nth_root(ctx.from_rational(rad), 5)
        c = (ctx.from_rational(s) - root) * Fraction(-1, r)
        factors = [(Fraction(-1), r), (Fraction(1), -r), (-c, s), (c, -s)]
        series = srt.taylor_factors(factors, ctx.zero(), 17, 5)
        shift = nu - 1 if case == "a=0" else -2 * (nu - 1)
        e = ctx.pi_power((Fraction(nu) + Fraction(1, 4) - shift) / 3)
        g0 = series.coefficient(0)
        coeffs = [series.coefficient(i) / g0 * e**i for i in range(1, 18)]
        vals = [srt.INFINITY if ci.is_zero() else ci.valuation() for ci in coeffs]
        return srt.splitting_obstruction(vals, 5, nu, c1=coeffs[0], cp=coeffs[4])

    def check(verdict):
        expect(verdict.kind == "SplitsWithConductor", f"verdict {verdict.kind}")
        expect(verdict.conductor == 3, f"conductor {verdict.conductor}")

    return (f"exc-nu{nu}-{case}", call, check)


def _case_i_op(p, va, r, s):
    """Expand the unit factor of g at z = sqrt(-1) in Q_p(pi), pi^(2(p-1)) = p;
    the new inseparable tail there has conductor 2. The center's precision
    grows with the level v(a): at p = 5, v(a) = 2, precision 8 leaves about 1 %
    of the instances undecidable (PrecisionError), and 10 decides them all."""
    prec = 6 + 2 * va

    def call():
        c = Fraction(-s, r)
        factors = [(-c, s), (Fraction(-1), -s), (Fraction(1), s), (c, -s)]
        ctx = srt.LocalFieldContext(p, N=2 * (p - 1), M=6)
        series = srt.taylor_factors(factors, srt.sqrt_of_minus_one(ctx, prec), 3 * p + 2, p)
        v0 = srt.element_valuation(series.coefficient(0), p).as_fraction()
        vals = []
        for i in range(1, 3 * p + 3):
            v = srt.element_valuation(series.coefficient(i), p)
            vals.append(v if v.is_infinite else v.as_fraction() - v0 + Fraction(i, 2 * (p - 1)))
        return vals, srt.splitting_obstruction(vals, p, va)

    def check(result):
        vals, verdict = result
        expect(verdict.kind == "SplitsWithConductor", f"verdict {verdict.kind}")
        expect(verdict.conductor == 2, f"conductor {verdict.conductor}")
        theta = Fraction(va) + Fraction(1, p - 1)
        expect(vals[1] == theta, f"v(c_2) = {vals[1]}, want {theta}")

    return (f"casei-p{p}-va{va}", call, check)


EXCEPTIONAL_CLASSES = [(nu, case) for nu in (2, 3) for case in ("a=0", "a=1")]
CASE_I_CLASSES = [(5, 1), (5, 2), (13, 1)]


def tail_round(rng):
    ops = []
    for p, va in CASE_I_CLASSES:
        top = p ** (va + 1)
        while True:
            r, s = rng.randrange(1, top), rng.randrange(1, top)
            if r % p and s % p and r != s and _vp(r + s, p) == va:
                break
        ops.append(_case_i_op(p, va, r, s))
    for nu, case in EXCEPTIONAL_CLASSES:
        ops.append(_exceptional_op(nu, case, *rng.choice(exceptional_instances(nu, case))))
    return ops


# --- group_closure ----------------------------------------------------------

# primes q = 1 (mod 5) with a standard generating pair (q = 11 has none:
# lambda^5 = -1 there); q = 101 sets the peak RSS
GROUP_STANDARD_Q = [31, 41, 61, 71, 101]
GROUP_BOREL_Q = [11, 31, 41, 61, 71, 101, 131, 151]


def _group_standard_op(q):
    order = q * (q * q - 1)

    def call():
        gens = srt.standard_generators(q, 5)
        return (
            srt.generation_check(gens, q, mode="criterion"),
            srt.generation_check(gens, q, mode="bfs"),
        )

    def check(result):
        for verdict in result:
            expect(verdict.kind == "Generates", f"verdict {verdict.kind}")
            expect(verdict.order == order, f"order {verdict.order}, want {order}")

    return (f"std-q{q}", call, check)


def _group_borel_op(q, lam):
    """alpha = [[1,1],[0,1]] and diag(lam, 1/lam) generate the upper-triangular
    Borel subgroup, of order q(q-1)."""

    def call():
        gens = [
            srt.groups.MatrixElement(1, 1, 0, 1, q),
            srt.groups.MatrixElement(lam, 0, 0, pow(lam, -1, q), q),
        ]
        return (
            srt.generation_check(gens, q, mode="criterion"),
            srt.generation_check(gens, q, mode="bfs"),
        )

    def check(result):
        criterion, bfs = result
        expect(criterion.kind == "ProperSubgroup", f"criterion verdict {criterion.kind}")
        expect(bfs.kind == "ProperSubgroup", f"bfs verdict {bfs.kind}")
        expect(bfs.order == q * (q - 1), f"order {bfs.order}, want {q * (q - 1)}")

    return (f"borel-q{q}", call, check)


def _primitive_roots(q):
    factors = [f for f in range(2, q) if (q - 1) % f == 0 and _is_prime(f)]
    return [g for g in range(2, q) if all(pow(g, (q - 1) // f, q) != 1 for f in factors)]


def group_round(rng):
    ops = [_group_standard_op(q) for q in GROUP_STANDARD_Q]
    ops += [_group_borel_op(q, rng.choice(_primitive_roots(q))) for q in GROUP_BOREL_Q]
    return ops


# --- cli_mix ----------------------------------------------------------------

# A round's latencies must put the run's median inside one kind of request
# and its 11th-largest inside another, or both would jump between kinds from
# seed to seed. So the cheap requests (about 4 ms) come twice, which makes
# them most of a round, and enum-tails at tau = 3, p = 11 (cubic in p, the
# slowest request) comes twice, which gives a 10 s run of 7 rounds 14 of them.
# tau = 3 at p = 13 takes about 1 s alone and is left out, so that a 10 s run
# still holds 7 rounds.
CLI_ENUM = [(tau, p) for p in (5, 7, 11, 13) for tau in (0, 1, 2, 3) if (tau, p) != (3, 13)]
CLI_ENUM.append((3, 11))
# the configurations allowed by the vanishing-cycles identity for m_G = 2
ENUM_EXPECTED = {
    0: [{"new": ["2"]}, {"new": ["3/2", "3/2"]}],
    1: [{"prim": ["1"]}, {"prim": ["1/2"], "new": ["3/2"]}],
    2: [{"prim": ["1/2", "1/2"]}],
    3: [],
}
CLI_PRIMES = [5, 7, 11, 13]


class CliMix:
    """Requests through srt.cli.dispatch, in-process, with stdout and stderr
    captured. Tree files are written once, in a directory the caller owns."""

    def __init__(self, tree_dir):
        self.tree_dir = tree_dir

    def _request(self, label, argv, want_code, check_out):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = srt.cli.dispatch(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            expect(code == want_code, f"{argv}: exit {code}, want {want_code}: {err.strip()}")
            check_out(json.loads(out))

        return (label, call, check)

    def round(self, rng):
        ops = []
        for _ in range(2):
            ops += [self._tail_radius(rng, case) for case in ("generic", "a=0", "a=1")]
            ops += [self._insep_tails(rng, case) for case in ("a=0", "a=1")]
            ops += [self._tail_center_rational(rng)]
            ops += [self._herbrand(rng, "phi"), self._herbrand(rng, "psi")]
            ops += [self._conductor(rng, shape) for shape in ("tame-over-cyclotomic", "kummer-tower")]
            ops += [self._compositum(rng)]
            ops += [self._split_check(rng, obstructed) for obstructed in (False, True)]
        for case in ("generic", "a=0", "a=1"):
            path, p, v_rho = self._write_tree(rng, case)
            ops += [self._tree_solve(path, p, v_rho), self._tree_check(path, p)]
        ops += [self._tail_center_exceptional(rng)]
        ops += [self._enum_tails(tau, p) for tau, p in CLI_ENUM]
        ops += [self._expand(rng) for _ in range(2)]
        ops += [self._group(rng) for _ in range(2)]
        return ops

    def _tail_radius(self, rng, case):
        p, nu = rng.choice(CLI_PRIMES), rng.randint(2, 5)
        x = nu + Fraction(1, p - 1)
        argv = ["tail-radius", "--p", str(p), "--nu", str(nu), "--case", case]
        if case == "generic":
            want = (Fraction(2, 3) * x, x / 3)
        else:
            extra = Fraction(rng.randint(1, nu - 1))
            argv += ["--extra", str(extra)]
            if case == "a=0":
                want = (Fraction(2, 3) * x + extra / 3, (x - extra) / 3)
            else:
                want = (Fraction(2, 3) * (x + extra), (x + extra) / 3)

        def check_out(out):
            expect(out == {"v_rho": str(want[0]), "v_e": str(want[1])}, f"{argv}: {out}")

        return self._request(f"tail-radius-{case}", argv, 0, check_out)

    def _insep_tails(self, rng, case):
        p, nu = 5, rng.randint(3, 6)
        extra = rng.randint(1, nu - 2)
        argv = ["insep-tails", "--p", str(p), "--nu", str(nu), "--case", case,
                "--extra", str(extra)]
        if case == "a=0":
            want = [(nu - extra, extra + Fraction(1, 4)), (nu - extra - 1, extra + Fraction(17, 20))]
        else:
            want = [(nu - extra - 1, 2 * extra + Fraction(17, 20))]

        def check_out(out):
            got = [(t["j"], Fraction(t["radius_valuation"])) for t in out]
            expect(got == want, f"{argv}: {got}, want {want}")
            expect(all(t["sigma"] == "2" for t in out), f"{argv}: sigma")

        return self._request(f"insep-tails-{case}", argv, 0, check_out)

    def _tail_center_rational(self, rng):
        p, nu = rng.choice([7, 11, 13]), rng.randint(1, 3)
        r = _unit(p, p**nu, rng)
        while True:
            s = _unit(p, p**nu, rng, avoid=(r,))
            if (r + s) % p:
                break
        argv = ["tail-center", "--p", str(p), "--nu", str(nu), "--r", str(r), "--s", str(s),
                "--case", "generic"]
        want = str(1 - Fraction(s, r) ** 2)
        return self._request(
            "tail-center-rational", argv, 0,
            lambda out: expect(out == {"center": want}, f"{argv}: {out}"),
        )

    def _tail_center_exceptional(self, rng):
        """The p = 5 center 1 - ((s - root)/r)^2 at the default N = 40, with
        root^5 = 5^(4nu+1) C(n, 5). Every other contribution to its integer
        exponent class has valuation at least ceil(v(s) + v(root)), so the
        leading term agrees with 1 - s^2/r^2 to that many digits."""
        nu, case = rng.choice(EXCEPTIONAL_CLASSES)
        r, s, rad = rng.choice(exceptional_instances(nu, case))
        argv = ["tail-center", "--p", "5", "--nu", str(nu), "--r", str(r), "--s", str(s),
                "--case", case]
        lead = 1 - Fraction(s, r) ** 2
        v = _vp(lead, 5)
        unit = lead / Fraction(5) ** v
        digits = math.ceil(_vp(s, 5) + Fraction(_vp(rad, 5), 5)) - v

        def check_out(out):
            first = out["center"]["terms"][0]
            expect(Fraction(first["exponent"]) == v, f"{argv}: leading exponent {first}")
            known = digits if first["modulus"] == "exact" else int(first["modulus"].split("^")[1])
            mod = 5 ** min(digits, known)
            got = Fraction(first["unit"])
            expect(
                (got - unit).numerator % mod == 0,
                f"{argv}: leading unit {first} differs from {unit} mod {mod}",
            )

        return self._request("tail-center-p5", argv, 0, check_out)

    def _write_tree(self, rng, case):
        """A root-to-tail chain whose epaisseurs must sum to the closed-form
        tail radius v(rho)."""
        p, nu = rng.choice(CLI_PRIMES), rng.randint(2, 5)
        x = nu + Fraction(1, p - 1)
        tail = {"id": "tail", "inertia": 0, "tail": "new-etale", "sigma": "3/2"}
        root = {"id": "root", "inertia": nu}
        if case == "generic":
            vertices = [root, tail]
            edges = [{"parent": "root", "child": "tail", "sigma_eff": "3/2"}]
            v_rho = Fraction(2, 3) * x
        else:
            k = rng.randint(1, nu - 1)
            mid = {"id": "W", "inertia": nu - k, "delta_eff": str(x - k)}
            if case == "a=0":
                sigma_top, v_rho = "1", Fraction(2, 3) * x + Fraction(k, 3)
            else:
                sigma_top, v_rho = "1/2", Fraction(2, 3) * (x + 2 * k)
            vertices = [root, mid, tail]
            edges = [
                {"parent": "root", "child": "W", "sigma_eff": sigma_top},
                {"parent": "W", "child": "tail", "sigma_eff": "3/2"},
            ]
        fd, path = tempfile.mkstemp(suffix=".json", dir=self.tree_dir)
        with os.fdopen(fd, "w") as handle:
            json.dump({"vertices": vertices, "edges": edges}, handle)
        return path, p, v_rho

    def _tree_solve(self, path, p, v_rho):
        argv = ["tree-solve", "--p", str(p), "--tree", path]

        def check_out(out):
            expect(out["status"] == "Solved", f"{argv}: {out['status']}")
            total = sum(Fraction(e["epaisseur"]) for e in out["tree"]["edges"])
            expect(total == v_rho, f"{argv}: epaisseurs sum to {total}, want {v_rho}")

        return self._request("tree-solve", argv, 0, check_out)

    def _tree_check(self, path, p):
        """One new-etale tail of sigma 3/2 gives 1/2 on the left of the
        vanishing-cycles identity, so the check reports a violation (exit 2)."""
        argv = ["tree-check", "--p", str(p), "--tree", path]

        def check_out(out):
            expect(out["problems"] == [], f"{argv}: {out['problems']}")
            want = {"verdict": "Violated", "lhs": "1/2", "rhs": "1"}
            expect(out["vanishing_cycles"] == want, f"{argv}: {out['vanishing_cycles']}")
            expect(out["monotonicity"] == {"verdict": "Monotonic"}, f"{argv}: monotonicity")

        return self._request("tree-check", argv, 2, check_out)

    def _enum_tails(self, tau, p):
        argv = ["enum-tails", "--tau", str(tau), "--p", str(p)]
        want = ENUM_EXPECTED[tau]
        return self._request(
            f"enum-tails-t{tau}", argv, 0,
            lambda out: expect(out == want, f"{argv}: {out}"),
        )

    def _herbrand(self, rng, direction):
        """psi of the cyclotomic filtration is p^k - 1 + (x - k)(p-1)p^k on
        [k, k+1] for k < nu - 1, and continues linearly past nu - 1; phi is
        its inverse."""
        p, nu = rng.choice(CLI_PRIMES), rng.randint(1, 4)
        x = Fraction(rng.randint(0, 40), rng.randint(1, 8))
        if direction == "psi":
            k = min(math.floor(x), nu - 1)
            want = p**k - 1 + (x - k) * (p - 1) * p**k
        else:
            k = max(j for j in range(nu) if p**j - 1 <= x)
            want = k + (x - p**k + 1) / ((p - 1) * p**k)
        argv = ["herbrand", "--p", str(p), "--nu", str(nu), "--direction", direction,
                "--x", str(x)]

        def check_out(out):
            expect(Fraction(out["value"]) == want, f"{argv}: {out['value']}, want {want}")
            expect(Fraction(out["conductor"]) == nu - 1, f"{argv}: conductor {out['conductor']}")

        return self._request(f"herbrand-{direction}", argv, 0, check_out)

    def _conductor(self, rng, shape):
        p, nu = rng.choice(CLI_PRIMES), rng.randint(2, 6)
        argv = ["conductor", "--p", str(p), "--nu", str(nu), "--shape", shape]
        want = Fraction(nu - 1)
        if shape == "kummer-tower":
            want = max(want, Fraction(p, p - 1))
        return self._request(
            f"conductor-{shape}", argv, 0,
            lambda out: expect(out == {"conductor": str(want)}, f"{argv}: {out}"),
        )

    def _compositum(self, rng):
        values = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(rng.randint(2, 5))]
        argv = ["conductor", "--compositum", ",".join(str(v) for v in values)]
        want = str(max(values))
        return self._request(
            "conductor-compositum", argv, 0,
            lambda out: expect(out == {"conductor": want}, f"{argv}: {out}"),
        )

    def _split_check(self, rng, obstructed):
        """Valuations built to split with conductor 3 (v(c_3) at the threshold,
        all others above), or with one index below the threshold, which
        obstructs by condition I."""
        p, n = rng.choice(CLI_PRIMES), rng.randint(1, 4)
        theta = n + Fraction(1, p - 1)
        vals = [theta + Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(p + 2)]
        vals[2] = theta
        witness = None
        if obstructed:
            witness = rng.choice([i for i in range(1, p) if i != 3])
            vals[witness - 1] = theta - Fraction(rng.randint(1, 6), rng.randint(2, 7))
        argv = ["split-check", "--p", str(p), "--level", str(n), "--vals",
                json.dumps([str(v) for v in vals])]

        def check_out(out):
            if obstructed:
                expect(out["verdict"] == "ObstructedByConditionI", f"{argv}: {out}")
                expect(out["evidence"]["witness_index"] == str(witness), f"{argv}: {out}")
            else:
                expect(out["verdict"] == "SplitsWithConductor", f"{argv}: {out}")
                expect(out["conductor"] == "3", f"{argv}: {out}")

        return self._request(
            f"split-check-{'obstructed' if obstructed else 'splits'}", argv,
            2 if obstructed else 0, check_out,
        )

    def _expand(self, rng):
        """g(0) = (-1)^(r+s); the z-coefficient is 2r + 2s/c = 0 for c = -s/r;
        the reported valuations are those of the reported coefficients."""
        p, nu = rng.choice([5, 7]), rng.randint(1, 2)
        r = _unit(p, p**nu, rng)
        s = _unit(p, p**nu, rng, avoid=(r,))
        argv = ["expand", "--p", str(p), "--nu", str(nu), "--r", str(r), "--s", str(s)]

        def check_out(out):
            coeffs = [Fraction(c) for c in out["coefficients"]]
            expect(out["order"] == 3 * p + 2 and len(coeffs) == 3 * p + 3, f"{argv}: order")
            expect(coeffs[0] == (-1) ** (r + s) and coeffs[1] == 0, f"{argv}: {coeffs[:2]}")
            vals = [str(v) if v is not None else "inf" for v in (_vp(c, p) for c in coeffs[1:])]
            expect(out["valuations"] == vals, f"{argv}: valuations")

        return self._request("expand", argv, 0, check_out)

    def _group(self, rng):
        q = rng.choice([q for q in range(31, 400) if q % 5 == 1 and _is_prime(q)])
        argv = ["group", "--q", str(q), "--p", "5"]
        n, sylow = q * q - 1, 1
        while n % 5 == 0:
            n //= 5
            sylow *= 5

        def check_out(out):
            want = {"alpha": q, "beta": q - 1, "alpha*beta": (q - 1) // 5}
            expect(out["orders"] == want, f"{argv}: orders {out['orders']}")
            gen = out["generation"]
            expect(gen["verdict"] == "Generates", f"{argv}: {gen}")
            expect(gen["order"] == q * (q * q - 1), f"{argv}: {gen}")
            expect(out["sylow"]["order"] == sylow, f"{argv}: sylow {out['sylow']}")

        return self._request("group", argv, 0, check_out)


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_rounds: object  # (rng, number of rounds, workdir) -> list of rounds
    op_limit_s: float  # an op slower than this counts as failed
    round_s: float  # wall time of one round at the commit that set it
    reference: str  # the kernel that gauges the machine's speed (worker.REFERENCES)


def _each_round(make_round):
    return lambda rng, n, workdir: [make_round(rng) for _ in range(n)]


def _cli_rounds(rng, n, workdir):
    mix = CliMix(workdir)
    return [mix.round(rng) for _ in range(n)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("monodromy", _each_round(monodromy_round), 3.0, 1.0, "python"),
        Workload("splitting_sweep", lambda rng, n, workdir: sweep_rounds(rng, n), 10.0, 1.2, "python"),
        Workload("tail_expansion", _each_round(tail_round), 10.0, 1.15, "python"),
        Workload("group_closure", _each_round(group_round), 30.0, 1.6, "numpy"),
        Workload("cli_mix", _cli_rounds, 20.0, 1.4, "python"),
    ]
}


def build_rounds(workload, rng, n_rounds, workdir):
    """A warm-up op (the first op of a round of its own) and `n_rounds`
    rounds, each shuffled by `rng`."""
    warmup = workload.make_rounds(rng, 1, workdir)[0][0]
    rounds = workload.make_rounds(rng, n_rounds, workdir)
    for ops in rounds:
        rng.shuffle(ops)
    return warmup, rounds
