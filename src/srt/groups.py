"""
SL2 over a prime field: element orders read from the trace, the
trace-prescribed generator construction, generation checks (a normalizer
criterion and an exact orbit-stabilizer closure), and p-Sylow data.

The closure never lists the group: |H| = |H [e1]| * |K| for the orbit of the
line [e1] among the q + 1 lines of F_q^2 and its stabilizer K = H n B, B upper
triangular. K has Schreier generators [[lam, u], [0, 1/lam]], and |K| is the
order of the group of the lam in F_q^* times |K n U|, U unipotent of order q.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import PreconditionViolated, ResourceLimit, Unsupported
from .valuation import _SMALL_PRIMES, check_p, check_q, is_prime, power, split_p_part

@dataclass(frozen=True)
class MatrixElement:
    """Element of SL2(F_q) with entries ((a, b), (c, d)) and det 1."""

    a: int
    b: int
    c: int
    d: int
    q: int

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, getattr(self, name) % self.q)
        if (self.a * self.d - self.b * self.c) % self.q != 1:
            raise PreconditionViolated(
                f"determinant must be 1 mod {self.q}, got "
                f"{(self.a * self.d - self.b * self.c) % self.q}"
            )

    def __mul__(self, other):
        if self.q != other.q:
            raise PreconditionViolated(f"field mismatch: {self.q} vs {other.q}")
        q = self.q
        return MatrixElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            q,
        )

    def inverse(self):
        return MatrixElement(self.d, -self.b, -self.c, self.a, self.q)

    def __pow__(self, n):
        return power(self, n, identity(self.q))

    def trace(self):
        return (self.a + self.d) % self.q

    def is_identity(self):
        return (self.a, self.b, self.c, self.d) == (1 % self.q, 0, 0, 1 % self.q)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


def identity(q):
    return MatrixElement(1, 0, 0, 1, q)


def minus_identity(q):
    return MatrixElement(-1, 0, 0, -1, q)


def _prime_factors(n):
    """{prime: exponent} of n >= 1, in increasing order: trial division by
    the primes up to 41, then Pollard's rho on the cofactor."""
    if n < 1:
        raise PreconditionViolated(f"no prime factors of {n}")
    out = {}
    for d in _SMALL_PRIMES:
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        for m in sorted(_large_prime_factors(n)):
            out[m] = out.get(m, 0) + 1
    return out


def order_primes(q):
    """(primes of q - 1, primes of q + 1) of a prime q, which the generators,
    the closure and each element order read. q is checked before the cache
    is, since the cache would take the float 251.0 for the key 251."""
    check_q(q)
    return _order_primes(q)


# a request reads one q, so a few entries let it factor q - 1 and q + 1 once
@functools.lru_cache(maxsize=8)
def _order_primes(q):
    return tuple(_prime_factors(q - 1)), tuple(_prime_factors(q + 1))


def _large_prime_factors(n):
    """The prime factors, with multiplicity, of n > 1 that is prime or has
    no prime factor up to 41 (so is prime below 43^2); each factor is
    confirmed by is_prime."""
    if n < 43 * 43 or is_prime(n):
        return [n]
    f = _rho_factor(n)
    return _large_prime_factors(f) + _large_prime_factors(n // f)


def _rho_factor(n):
    """A proper factor of the odd composite n by Pollard's rho in Brent's
    form (Brent, "An improved Monte Carlo factorization algorithm", BIT 20,
    1980): y <- y^2 + c from y = 2, the gcd taken once per block of 128
    steps on the product of the x - y, and the steps of a block redone one
    by one when it overshoots to n. The seeds c = 1, 2, ... are tried in
    turn until one splits n."""
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _lucas_v(t, k, q):
    """V_k = lam^k + lam^-k mod q for lam + lam^-1 = t, by the doubling
    V_2j = V_j^2 - 2, V_2j+1 = V_j V_j+1 - t on the pair (V_j, V_j+1)."""
    v, w = 2, t
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w = (v * w - t) % q, (w * w - 2) % q
        else:
            v, w = (v * v - 2) % q, (v * w - t) % q
    return v


def element_order(m):
    """Multiplicative order, read from the trace t over the prime field F_q.

    +-I have order 1 or 2. Any other m with t = 2 is unipotent, of order q,
    and with t = -2 it is minus a unipotent, of order 2q. Otherwise m has
    distinct eigenvalues lam, lam^-1 in F_q^2, so m^k = I exactly when
    lam^k = 1, that is when V_k = lam^k + lam^-k = 2, since
    V_k - 2 = (lam^k - 1)^2 / lam^k; the order divides q^2 - 1.
    """
    q = m.q
    check_q(q)
    if m.b == 0 and m.c == 0 and m.a == m.d:
        return 1 if m.is_identity() else 2
    t = m.trace()
    if t == 2 % q:
        return q
    if t == -2 % q:
        return 2 * q
    down, up = order_primes(q)
    order = q * q - 1
    for prime in {*down, *up}:
        while order % prime == 0 and _lucas_v(t, order // prime, q) == 2 % q:
            order //= prime
    return order


def solve_trace_system(q, tau, rho):
    """A matrix beta with tr(beta) = tau and tr(alpha*beta) = rho, where
    alpha = [[1,1],[0,1]]; requires tau, rho, 2, -2 pairwise distinct mod q.

    The solution has lower-left entry c = rho - tau != 0, so beta lies
    outside the upper-triangular subgroup.
    """
    check_q(q)
    tau %= q
    rho %= q
    values = [tau, rho, 2 % q, (-2) % q]
    if len(set(values)) != 4:
        raise Unsupported(
            f"tau, rho, 2, -2 must be pairwise distinct mod {q}, got {values}"
        )
    c = (rho - tau) % q
    b = (-pow(c, -1, q)) % q
    beta = MatrixElement(0, b, c, tau, q)
    alpha = MatrixElement(1, 1, 0, 1, q)
    assert beta.trace() == tau
    assert (alpha * beta).trace() == rho
    return beta


def _primitive_root(q, factors):
    """The least primitive root mod the prime q, which always has one."""
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g


def standard_generators(q, p):
    """The generating pair (alpha, beta) with alpha = [[1,1],[0,1]] of order q,
    beta of order q - 1, and alpha*beta of order (q-1)/p.

    beta is built by prescribing the traces of the split semisimple classes of
    those orders: tau = lam + lam^-1 for a primitive root lam, and
    rho = mu + mu^-1 for mu = lam^p.
    """
    check_q(q)
    check_p(p)
    if (q - 1) % p != 0:
        raise Unsupported(f"p = {p} must divide q - 1 = {q - 1}")
    lam = _primitive_root(q, order_primes(q)[0])
    tau = (lam + pow(lam, -1, q)) % q
    mu = pow(lam, p, q)
    rho = (mu + pow(mu, -1, q)) % q
    alpha = MatrixElement(1, 1, 0, 1, q)
    beta = solve_trace_system(q, tau, rho)
    return alpha, beta


@dataclass
class GenerationVerdict:
    kind: str = field(metadata={"json": "verdict"})  # Generates | ProperSubgroup
    order: int | None = None
    evidence: dict | None = None


def generation_check(gens, q, mode="criterion"):
    """Do the given matrices generate SL2(F_q)?

    criterion mode: for gens = (alpha, beta) with alpha of order q (q a prime
    >= 5), beta outside the normalizer of <alpha> (lower-left entry nonzero)
    forces the image in PSL2 to be everything. That lifts to SL2 whatever
    the order of beta: a proper subgroup onto PSL2 would meet {I, -I} in I
    alone and so be isomorphic to PSL2, of even order, while -I is the only
    involution of SL2(F_q). When beta has even order, the evidence names
    the power of beta that is -I.

    bfs mode (q prime): the exact order of the generated group H, compared
    with |SL2(F_q)| = q(q^2 - 1). A breadth-first search finds the orbit of
    the line [e1] among the q + 1 lines of F_q^2, and Schreier's lemma gives
    generators of its stabilizer K in the upper-triangular group; |H| is the
    orbit size times |K|.
    """
    check_q(q)
    gens = list(gens)
    if not gens:
        raise PreconditionViolated("need at least one generator")
    for g in gens:
        if g.q != q:
            raise PreconditionViolated(f"generator over F_{g.q}, expected F_{q}")
    if mode == "bfs":
        return _generation_bfs(gens, q)
    if mode != "criterion":
        raise PreconditionViolated(f"mode must be criterion or bfs, got {mode!r}")
    if len(gens) == 1:
        return GenerationVerdict(
            "ProperSubgroup",
            order=element_order(gens[0]),
            evidence={"reason": "single generator spans a cyclic group"},
        )
    if len(gens) != 2:
        raise Unsupported("criterion mode needs exactly two generators")
    alpha, beta = gens
    if q < 5:
        raise Unsupported(f"criterion mode needs a prime q >= 5, got {q}")
    if element_order(alpha) != q:
        raise Unsupported(
            f"criterion mode needs the first generator of order q = {q}"
        )
    # alpha of order q is conjugate to a unipotent; in the basis where alpha
    # is upper triangular, the normalizer of <alpha-bar> in PSL2 is the Borel
    if beta.c % q == 0 and alpha.c % q == 0:
        return GenerationVerdict(
            "ProperSubgroup",
            evidence={"reason": "both generators upper triangular"},
        )
    if alpha.c % q != 0:
        raise Unsupported("criterion mode expects the unipotent in upper form")
    evidence = {"psl2_criterion": "order-q element plus element outside its normalizer"}
    ord_beta = element_order(beta)
    # -I is the only involution of SL2(F_q), q odd: it is in <beta> iff 2 | ord
    if ord_beta % 2 == 0:
        evidence["minus_identity"] = f"beta^{ord_beta // 2}"
    return GenerationVerdict("Generates", order=q * (q * q - 1), evidence=evidence)


# the closure visits the q + 1 lines of F_q^2 with O(q) products and memory;
# q = 100151 takes about 0.8 s on a shared 2-core x86 box with Python 3.11,
# so this bound keeps a closure near a time budget of 1 s
_BFS_MAX_Q = 100_000


def _generation_bfs(gens, q):
    if q > _BFS_MAX_Q:
        raise ResourceLimit(
            f"the bfs closure is bounded to q <= {_BFS_MAX_Q}, got q = {q}; "
            f"use the criterion mode for a larger q"
        )

    # the line through (x, y) is indexed by its slope y/x, or by q when x = 0;
    # t[L] is a transversal in H whose first column spans L. Each Schreier
    # element t[gL]^-1 g t[L] fixes [e1], so it is kept as its row (lam, u)
    mats = [g.entries() for g in gens]
    t = {0: (1, 0, 0, 1)}
    orbit = [(1, 0, 0, 1)]
    schreier = set()
    for a, b, c, d in orbit:  # a breadth-first queue, appended to as it runs
        for ga, gb, gc, gd in mats:
            x, y = (ga * a + gb * c) % q, (gc * a + gd * c) % q
            m = (x, (ga * b + gb * d) % q, y, (gc * b + gd * d) % q)
            line = y * pow(x, -1, q) % q if x else q
            if line not in t:
                t[line] = m
                orbit.append(m)
                continue
            _, tb, _, td = t[line]
            schreier.add(((td * x - tb * y) % q, (td * m[1] - tb * m[3]) % q))

    # |Lambda| for the lams in the cyclic F_q^*: the least d with every lam^d = 1
    lams, lam_order = {lam for lam, _ in schreier}, q - 1
    for f in order_primes(q)[0]:
        while lam_order % f == 0 and all(pow(x, lam_order // f, q) == 1 for x in lams):
            lam_order //= f
    # K n U is 1 or U. Take s0 = (lam0, u0) with lam0 != +-1; (lam, u) commutes
    # with it iff u lam (lam0^2 - 1) = u0 lam0 (lam^2 - 1). If all do, K lies in
    # the torus of s0 and K n U = 1; else K is not abelian, though K / (K n U)
    # embeds in F_q^*, so K n U = U. With all lam = +-1, K lies in +-U
    s0 = next(((lam, u) for lam, u in schreier if lam not in (1, q - 1)), None)
    if s0 is None:
        unipotent = any(u for _, u in schreier)
    else:
        lam0, u0 = s0
        unipotent = any(
            (u * lam * (lam0 * lam0 - 1) - u0 * lam0 * (lam * lam - 1)) % q
            for lam, u in schreier
        )
    order = len(t) * lam_order * (q if unipotent else 1)
    if order == q * (q * q - 1):
        return GenerationVerdict("Generates", order=order)
    return GenerationVerdict("ProperSubgroup", order=order)


@dataclass
class SylowData:
    order: int
    cyclic: bool
    m_G: int


def sylow_data(q, p):
    """p-Sylow data of SL2(F_q) for odd p dividing q^2 - 1: the Sylow is the
    p-part of q^2 - 1, it is cyclic, and the normalizer acts through a group
    of order m_G = 2."""
    check_q(q)
    check_p(p)
    if q % p == 0:
        raise Unsupported(f"p = {p} divides q = {q}")
    n = q * q - 1
    if n % p != 0:
        raise Unsupported(f"p = {p} does not divide q^2 - 1 = {n}")
    a, _ = split_p_part(n, p)
    return SylowData(order=p**a, cyclic=True, m_G=2)
