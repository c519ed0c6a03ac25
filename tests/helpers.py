"""
Independent exact-arithmetic oracle used by the test suite.

Implements Q[pi]/(pi^n - p) with Fraction coefficients, entirely separate
from the package under test: no imports from srt.  Elements are polynomials
of degree < n in the uniformizer pi, with pi^n = p.  The valuation is
normalized so v(p) = 1, hence v(pi) = 1/n.  Beside it: the table of p-th
powers modulo pi^L, Herbrand's functions of the cyclotomic filtration as
integrals of its step function, the etale-tail configurations by brute
force, SL2(F_q) as a list of 4-tuples with orders by repeated
multiplication, and the torsor splitting criterion on Fraction valuations.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


def vp_int(x, p):
    """p-adic valuation of a nonzero integer."""
    x = abs(int(x))
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def vp_fraction(x, p):
    """p-adic valuation of a nonzero Fraction (or int)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def general_binomial(m, k):
    """binom(m, k) for any rational m and integer k >= 0, exact."""
    out = Fraction(1)
    m = Fraction(m)
    for i in range(k):
        out *= (m - i) / (k - i)
    return out


def binomial_reference(factors, center, T):
    """Coefficients 0..T of prod (z - root)^m at `center`, as the truncated
    product of the binomial expansions
    (center - root)^m * sum binom(m, k) (t / (center - root))^k."""
    out = [Fraction(1)] + [Fraction(0)] * T
    for root, m in factors:
        base = center - root
        expansion = [general_binomial(m, k) * base**m / base**k for k in range(T + 1)]
        out = [
            sum((out[i] * expansion[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(T + 1)
        ]
    return out


def splitting_reference(vals, p, n):
    """The splitting criterion at level n on v(c_1), ..., v(c_T), given as
    Fractions with None for infinity, compared as Fractions. Returns the
    verdict's JSON as a dict (verdict, conductor when it splits, evidence
    with every value a string), or None when v(c_p) <= theta, the borderline
    case this reference leaves out."""

    def above(v, x):
        return v is None or v > x

    theta = Fraction(n) + Fraction(1, p - 1)
    indexed = list(enumerate(vals, 1))
    for i, v in indexed:
        if i > p and i % p == 0 and not above(v, theta):
            reason = f"hypothesis v(c_{i}) > {theta} fails for the p-divisible index {i}"
            return {"verdict": "Inconclusive", "evidence": {"reason": reason}}
    v_p = vals[p - 1]
    bound = theta if v_p is None else min(v_p, theta)
    for i, v in indexed:
        if i != p and v is not None and v < bound:
            return {
                "verdict": "ObstructedByConditionI",
                "evidence": {"witness_index": str(i), "valuation": str(v), "threshold": str(theta)},
            }
    if not above(v_p, theta):
        return None
    hits = [i for i, v in indexed if v == theta]
    if (
        len(hits) == 1
        and hits[0] % p != 0
        and hits[0] <= p
        and all(above(v, theta) for i, v in indexed if i != hits[0])
    ):
        return {
            "verdict": "SplitsWithConductor",
            "conductor": str(hits[0]),
            "evidence": {"threshold": str(theta), "v_c_sigma": str(theta)},
        }
    reason = "no unique prime-to-p index at the threshold"
    return {"verdict": "Inconclusive", "evidence": {"reason": reason}}


def rational_mod(x, m, p):
    """x mod m for a Fraction x with denominator prime to p (m a power of p)."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError(f"denominator of {x} not prime to {p}")
    return x.numerator * pow(x.denominator, -1, m) % m


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        coeff = a[-1] / b[-1]
        deg = len(a) - len(b)
        q[deg] = coeff
        for i, bc in enumerate(b):
            a[deg + i] -= coeff * bc
        a.pop()
    return q, a


def _poly_ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g over Q[x]."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]

    def trim(x):
        x = list(x)
        while x and x[-1] == 0:
            x.pop()
        return x

    def sub_mul(x, q, y):
        out = list(x) + [Fraction(0)] * max(0, len(q) + len(y) - 1 - len(x))
        for i, qc in enumerate(q):
            if qc == 0:
                continue
            for j, yc in enumerate(y):
                out[i + j] -= qc * yc
        return trim(out)

    r0, r1 = trim(r0), trim(r1)
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, trim(r)
        s0, s1 = s1, sub_mul(s0, q, s1)
        t0, t1 = t1, sub_mul(t0, q, t1)
    return r0, s0, t0


class PiExt:
    """Element of Q[pi]/(pi^n - p): exact arithmetic, no precision loss."""

    __slots__ = ("coeffs", "n", "p")

    def __init__(self, coeffs, n=5, p=5):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > n:
            # reduce pi^n -> p
            for i in range(len(coeffs) - 1, n - 1, -1):
                coeffs[i - n] += p * coeffs[i]
                coeffs[i] = Fraction(0)
        coeffs = coeffs[:n] + [Fraction(0)] * (n - len(coeffs))
        self.coeffs = tuple(coeffs)
        self.n = n
        self.p = p

    @classmethod
    def from_rational(cls, x, n=5, p=5):
        return cls([Fraction(x)], n, p)

    @classmethod
    def pi(cls, n=5, p=5):
        return cls([0, 1], n, p)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.coeffs == other.coeffs

    def _coerce(self, other):
        if isinstance(other, PiExt):
            return other
        return PiExt.from_rational(other, self.n, self.p)

    def __add__(self, other):
        other = self._coerce(other)
        return PiExt(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.n, self.p
        )

    __radd__ = __add__

    def __neg__(self):
        return PiExt([-a for a in self.coeffs], self.n, self.p)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        n, p = self.n, self.p
        out = [Fraction(0)] * (2 * n)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PiExt(out, n, p)

    __rmul__ = __mul__

    def inverse(self):
        modulus = [Fraction(-self.p)] + [Fraction(0)] * (self.n - 1) + [Fraction(1)]
        g, u, _ = _poly_ext_gcd(list(self.coeffs), modulus)
        if len(g) != 1 or g[0] == 0:
            raise ZeroDivisionError("element not invertible")
        inv = [c / g[0] for c in u]
        return PiExt(inv, self.n, self.p)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = PiExt.from_rational(1, self.n, self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def valuation(self):
        """min over pi-graded components, as a Fraction; raises on zero."""
        if self.is_zero():
            raise ValueError("valuation of 0 is infinite")
        return min(
            vp_fraction(c, self.p) + Fraction(i, self.n)
            for i, c in enumerate(self.coeffs)
            if c != 0
        )

    def __repr__(self):
        return f"PiExt({list(self.coeffs)}, n={self.n}, p={self.p})"


def parse_local(text, n=5, p=5):
    """(value, precision) of a local-field element printed as
    `349 + 2*5^(11/5) + O(5^(16/5))`: terms u, u*p and u*p^(e) with u a
    rational and n*e an integer, joined by " + ", and an optional O(p^(q)).
    The value is the exact PiExt sum of the terms over pi^n = p; the
    precision is the Fraction q, or None when no O term is printed."""
    coeffs, prec = [Fraction(0)] * n, None
    for term in text.split(" + "):
        if term.startswith("O(") and term.endswith(")"):
            base, _, exponent = term[2:-1].partition("^")
            if base != str(p):
                raise ValueError(f"precision term {term!r} is not a power of {p}")
            prec = Fraction(exponent.strip("()"))
            continue
        unit, _, power = term.partition("*")
        if not power:
            e = Fraction(0)
        elif power == str(p):
            e = Fraction(1)
        else:
            base, _, exponent = power.partition("^")
            if base != str(p) or not (exponent.startswith("(") and exponent.endswith(")")):
                raise ValueError(f"term {term!r} is not u*{p}^(e)")
            e = Fraction(exponent[1:-1])
        if (e * n).denominator != 1:
            raise ValueError(f"exponent {e} of {term!r} is not in (1/{n})Z")
        # pi^(e*n) = p^k * pi^i with e*n = k*n + i, 0 <= i < n
        k, i = divmod(int(e * n), n)
        coeffs[i] += Fraction(unit) * Fraction(p) ** k
    return PiExt(coeffs, n, p), prec


def agrees(x, y, prec):
    """True when the PiExt values x and y agree modulo p^prec (None: exactly)."""
    diff = x - y
    return diff.is_zero() or (prec is not None and diff.valuation() >= prec)


def pi_digits(x, L):
    """The pi-adic digits d_0, ..., d_(L-1) in [0, p) of an integral PiExt x,
    x = sum d_i pi^i modulo pi^L; a carry at pi^i moves to pi^(i+n) = p*pi^i."""
    p, n = x.p, x.n
    K = -(-L // n)
    acc = [0] * (L + n)
    for i, c in enumerate(x.coeffs):
        if c != 0:
            acc[i] = rational_mod(c, p**K, p)
    for i in range(L):
        carry, acc[i] = divmod(acc[i], p)
        acc[i + n] += carry
    return tuple(acc[:L])


def pth_power_residues(p=5, n=5, L=7, r=2):
    """The digit vectors modulo pi^L of y^p over the units y = a + b_1 pi +
    ... + b_(r-1) pi^(r-1) modulo pi^r.

    For p = n = 5 the defaults decide every unit x: L/n = 7/5 exceeds
    p/(p-1) = 5/4, so by Hensel's lemma x is a 5th power iff x = y^5 modulo
    pi^7 for some unit y; and (y + c pi^2)^5 - y^5 has valuation at least
    min(5*2, 5 + 2)/5 = 7/5, so y modulo pi^2 fixes y^5 modulo pi^7, which
    leaves 20 units y to list."""
    out = set()
    for a in range(1, p):
        for tail in itertools.product(range(p), repeat=r - 1):
            y = PiExt([a, *tail], n, p)
            out.add(pi_digits(y**p, L))
    return out


def herbrand(p, nu, direction, x):
    """Herbrand's psi (upper to lower numbering) or its inverse phi at x >= 0
    for the upper-numbered filtration of Q_p(zeta_(p^nu)): |G^u| is
    (p-1)p^(nu-1) at u = 0, p^(nu-i) on (i-1, i] for i < nu, and 1 beyond
    nu - 1. Each is the integral of a step function, one step at a time:
    psi(x) = int_0^x (G^0 : G^u) du, and phi(t) = int_0^t 1/(G_0 : G_s) ds,
    where the lower group G_s is the upper G^u of the step (i-1, i] for s in
    (psi(i-1), psi(i)]."""
    x = Fraction(x)
    g0 = (p - 1) * p ** (nu - 1)
    value, start, i = Fraction(0), Fraction(0), 1
    while True:
        index = Fraction(g0, p ** max(0, nu - i))  # (G^0 : G^u) on (i-1, i]
        # the step's length in the numbering of x, and the integrand on it
        length, weight = (1, index) if direction == "psi" else (index, 1 / index)
        if i >= nu or x <= start + length:
            return value + (x - start) * weight
        value += length * weight
        start += length
        i += 1


def tail_configs(tau, p):
    """The etale-tail configurations for m_G = 2 with tau primitive tails, by
    brute force over sigma in (1/2)Z with 0 < sigma <= 3: a new tail has
    sigma > 1, there are at most 2 - tau new tails, and the vanishing-cycles
    identity sum(sigma_new - 1) + sum(sigma_prim) = 1 holds. Returns (prim,
    new, flagged) with each multiset a sorted tuple, ordered by (len(new),
    prim, new); flagged when some sigma >= p/2."""
    sigmas = [Fraction(k, 2) for k in range(1, 7)]
    found = set()
    for n_new in range(3 - tau):
        for prim in itertools.product(sigmas, repeat=tau):
            for new in itertools.product([s for s in sigmas if s > 1], repeat=n_new):
                if sum(s - 1 for s in new) + sum(prim) == 1:
                    found.add((tuple(sorted(prim)), tuple(sorted(new))))
    ordered = sorted(found, key=lambda c: (len(c[1]), c[0], c[1]))
    return [(prim, new, any(2 * s >= p for s in prim + new)) for prim, new in ordered]


def sl2_elements(q):
    """Every element (a, b, c, d) of SL2(F_q), ad - bc = 1: for a != 0,
    d = (1 + bc)/a; for a = 0, c = -1/b and d is free."""
    for a in range(q):
        for b in range(q):
            if a:
                for c in range(q):
                    yield a, b, c, (1 + b * c) * pow(a, -1, q) % q
            elif b:
                for d in range(q):
                    yield 0, b, -pow(b, -1, q) % q, d


def sl2_order(x, q, limit=None):
    """Order of x = (a, b, c, d) in SL2(F_q) by repeated multiplication;
    None once it exceeds limit."""
    a, b, c, d = x
    y, order = x, 1
    while y != (1, 0, 0, 1):
        if limit is not None and order >= limit:
            return None
        ya, yb, yc, yd = y
        y = ((ya * a + yb * c) % q, (ya * b + yb * d) % q,
             (yc * a + yd * c) % q, (yc * b + yd * d) % q)
        order += 1
    return order
