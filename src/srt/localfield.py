"""
Exact arithmetic in totally ramified extensions Q_p(pi) with pi^N = p.

An element is a finite sum of terms u * pi^j, with j an integer and u a p-adic
unit, together with an absolute precision bound; the term has valuation j/N.
Each term is held as j -> (num, den), a pair of ints. Precision None means the
element is an exact finite sum and num/den is a reduced rational prime to p.
A finite precision q (a Fraction) means the value is only known modulo p^q;
then den = 1 and num is an int residue modulo p^k, k = ceil(q - j/N).

The canonical form keeps at most one term per residue class of j mod N, which
makes the valuation of a nonzero element exact: distinct classes can never
cancel. It is computed on ints alone. Callers see the `terms` view, which maps
each valuation j/N (a Fraction) to its unit: a Fraction when exact, the int
residue otherwise.

The inverse is Newton's iteration y <- y(2 - xy), which doubles the relative
precision each step (Caruso, Computations with p-adic numbers,
arXiv:1701.06794, sections 1.3 and 2.1).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    ContextError,
    DivergentSeries,
    NoNthRoot,
    NoSquareRoot,
    PrecisionError,
    PreconditionViolated,
)
from .valuation import (
    INFINITY,
    ExtendedRational,
    ceil_fraction,
    floor_fraction,
    is_prime,
    power,
    split_p_part,
    vp,
)

# default ramification index N and unit precision M of a context; the CLI's
# SRT_CONFIG keys N and M default to these too
DEFAULT_N = 40
DEFAULT_M = 8


def _modinv(a, m):
    return pow(a % m, -1, m)


class LocalFieldContext:
    """Ambient field Q_p(pi), pi^N = p, with default unit precision M."""

    def __init__(self, p, N=DEFAULT_N, M=DEFAULT_M):
        if p == 2 or not is_prime(p):
            raise ContextError(f"p must be an odd prime, got {p}")
        if N < 1 or M < 1:
            raise ContextError(f"N and M must be positive, got N={N}, M={M}")
        self.p = p
        self.N = N
        self.M = M

    def __eq__(self, other):
        return (
            isinstance(other, LocalFieldContext)
            and (self.p, self.N, self.M) == (other.p, other.N, other.M)
        )

    def __hash__(self):
        return hash((self.p, self.N, self.M))

    def __repr__(self):
        return f"LocalFieldContext(p={self.p}, N={self.N}, M={self.M})"

    # constructors

    def element(self, pairs, prec=None):
        return LocalFieldElement(self, pairs, prec)

    def zero(self, prec=None):
        return LocalFieldElement._make(self, {}, None if prec is None else Fraction(prec))

    def one(self):
        return LocalFieldElement._make(self, {0: (1, 1)}, None)

    def from_rational(self, q, prec=None):
        if type(q) is not int:
            q = Fraction(q)
        if q == 0:
            return self.zero(prec)
        return LocalFieldElement(self, [(0, q)], prec)

    def pi_power(self, j, unit=1, prec=None):
        """unit * pi^(j*N), i.e. valuation j (j a Fraction with denominator | N)."""
        return LocalFieldElement(self, [(Fraction(j), Fraction(unit))], prec)


# Fraction(j, N) for the term keys of the `terms` view, one dict per N
_EXPONENTS = {}


def _exponent(N, j):
    keys = _EXPONENTS.get(N)
    if keys is None:
        keys = _EXPONENTS[N] = {}
    e = keys.get(j)
    if e is None:
        e = keys[j] = Fraction(j, N)
    return e


def _index_limit(prec, N):
    """Least j with j/N >= prec: terms pi^j with j at or above it vanish
    modulo p^prec. None for an exact element."""
    if prec is None:
        return None
    return -((-prec.numerator * N) // prec.denominator)


def _integer_terms(ctx, pairs):
    """(j, (num, den)) with num/den prime to p for public (exponent, unit)
    pairs; a zero unit gives no term."""
    p, N = ctx.p, ctx.N
    for e, u in pairs:
        if type(e) is int:
            j = e * N
        else:
            e = Fraction(e)
            j, r = divmod(e.numerator * N, e.denominator)
            if r:
                raise ContextError(
                    f"exponent {e} not representable with ramification index {N}"
                )
        if type(u) is int:
            num, den = u, 1
        else:
            u = Fraction(u)
            num, den = u.numerator, u.denominator
        if num == 0:
            continue
        while num % p == 0:
            num //= p
            j += N
        while den % p == 0:
            den //= p
            j -= N
        yield j, (num, den)


def _canonicalize(p, N, pairs, prec):
    """Canonical term dict of the sum of num/den * pi^j over (j, (num, den))
    in `pairs`, each num/den prime to p, taken modulo p^prec when prec is
    not None."""
    jlim = _index_limit(prec, N)
    # per class j mod N: (m, A, B), the sum is A/B * p^m * pi^class
    classes = {}
    for j, (num, den) in pairs:
        if jlim is not None and j >= jlim:
            continue
        m, f = divmod(j, N)
        c = classes.get(f)
        if c is None:
            classes[f] = (m, num, den)
            continue
        m0, A, B = c
        if m >= m0:
            classes[f] = (m0, A * den + num * B * p ** (m - m0), B * den)
        else:
            classes[f] = (m, A * den * p ** (m0 - m) + num * B, B * den)
    terms = {}
    if jlim is None:
        for f, (m, A, B) in classes.items():
            if A == 0:
                continue
            while A % p == 0:
                A //= p
                m += 1
            g = math.gcd(A, B)
            terms[f + m * N] = (A // g, B // g) if g != 1 else (A, B)
    else:
        a, b = prec.numerator * N, prec.denominator
        for f, (m, A, B) in classes.items():
            j = f + m * N
            # digits of the class sum known below p^prec: ceil(prec - j/N)
            mod = p ** -((b * j - a) // (b * N))
            A = A % mod if B == 1 else A * pow(B, -1, mod) % mod
            if A == 0:
                continue
            while A % p == 0:
                A //= p
                j += N
            terms[j] = (A, 1)
    return dict(sorted(terms.items()))


class LocalFieldElement:
    __slots__ = ("ctx", "prec", "_t", "_view")

    def __init__(self, ctx, pairs, prec=None):
        self.ctx = ctx
        if prec is not None:
            prec = Fraction(prec)
        self.prec = prec
        self._t = _canonicalize(ctx.p, ctx.N, _integer_terms(ctx, pairs), prec)
        self._view = None

    @classmethod
    def _make(cls, ctx, t, prec):
        """Element with the canonical term dict t, as is."""
        x = object.__new__(cls)
        x.ctx = ctx
        x.prec = prec
        x._t = t
        x._view = None
        return x

    def _build(self, pairs, prec):
        """Canonical element of self's context from (j, (num, den)) pairs."""
        ctx = self.ctx
        return LocalFieldElement._make(ctx, _canonicalize(ctx.p, ctx.N, pairs, prec), prec)

    @property
    def terms(self):
        """{valuation (Fraction): unit}, the unit a Fraction when exact and an
        int residue otherwise."""
        view = self._view
        if view is None:
            N = self.ctx.N
            if self.prec is None:
                view = {_exponent(N, j): Fraction(n, d) for j, (n, d) in self._t.items()}
            else:
                view = {_exponent(N, j): n for j, (n, _) in self._t.items()}
            self._view = view
        return view

    def _lead_exponent(self):
        return _exponent(self.ctx.N, next(iter(self._t)))

    # --- queries ---

    def is_zero(self):
        """True only for the exact zero; raises if zero merely to precision."""
        if self._t:
            return False
        if self.prec is None:
            return True
        raise PrecisionError(f"element is zero modulo p^{self.prec}; cannot decide")

    def valuation(self) -> ExtendedRational:
        if self._t:
            return ExtendedRational(self._lead_exponent())
        if self.prec is None:
            return INFINITY
        raise PrecisionError(
            f"valuation unknown: zero modulo p^{self.prec}"
        )

    def valuation_lower_bound(self) -> ExtendedRational:
        if self._t:
            return ExtendedRational(self._lead_exponent())
        if self.prec is None:
            return INFINITY
        return ExtendedRational(self.prec)

    def valuation_at_least(self, bound) -> bool:
        bound = Fraction(bound)
        if self._t and self._lead_exponent() < bound:
            return False
        if self.prec is not None and self.prec < bound:
            raise PrecisionError(
                f"cannot certify valuation >= {bound} at precision p^{self.prec}"
            )
        return True

    def unit_at(self, exponent):
        """Coefficient at the given exponent (0 if provably absent)."""
        exponent = Fraction(exponent)
        terms = self.terms
        if exponent in terms:
            return terms[exponent]
        if self.prec is not None and exponent >= self.prec:
            raise PrecisionError(f"exponent {exponent} beyond precision {self.prec}")
        return 0

    # --- arithmetic ---

    def _check_ctx(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextError(f"context mismatch: {self.ctx} vs {other.ctx}")

    def _coerce(self, other):
        if isinstance(other, LocalFieldElement):
            return other
        return self.ctx.from_rational(other)

    def __add__(self, other):
        other = self._coerce(other)
        self._check_ctx(other)
        pairs = list(self._t.items())
        pairs.extend(other._t.items())
        return self._build(pairs, _min_prec(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        return self._build([(j, (-n, d)) for j, (n, d) in self._t.items()], self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_ctx(other)
        a, b = self._t, other._t
        if not a and self.prec is None:
            return self.ctx.zero()
        if not b and other.prec is None:
            return self.ctx.zero()
        prec = None
        if self.prec is not None:
            prec = self.prec + (other._lead_exponent() if b else other.prec)
        if other.prec is not None:
            q = other.prec + (self._lead_exponent() if a else self.prec)
            prec = q if prec is None else min(prec, q)
        jlim = _index_limit(prec, self.ctx.N)
        pairs = []
        for j1, (n1, d1) in a.items():
            for j2, (n2, d2) in b.items():
                # b is sorted: the rest of the row vanishes modulo p^prec
                if jlim is not None and j1 + j2 >= jlim:
                    break
                pairs.append((j1 + j2, (n1 * n2, d1 * d2)))
        return self._build(pairs, prec)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, self.ctx.one())

    def inverse(self, rel_prec=None):
        if not self._t:
            if self.prec is None:
                raise ZeroDivisionError("inverse of exact zero")
            raise PrecisionError(f"inverse of element that is zero modulo p^{self.prec}")
        j, (n, d) = next(iter(self._t.items()))
        if n < 0:
            n, d = -n, -d
        lead_inv = LocalFieldElement._make(self.ctx, {-j: (d, n)}, None)
        if len(self._t) == 1 and self.prec is None and rel_prec is None:
            return lead_inv
        v = self._lead_exponent()
        if self.prec is not None:
            rel = self.prec - v
        else:
            rel = Fraction(rel_prec if rel_prec is not None else self.ctx.M)
        # y = 1/x to relative precision `done`: v(x*y - 1) >= done. Each Newton
        # step y <- y - y*(x*y - 1) squares the error, so it needs x and the
        # correction only to relative precision 2*done.
        y = lead_inv
        first = (self * y - 1).valuation_lower_bound()
        done = rel if first.is_infinite else min(first.as_fraction(), rel)
        while done < rel:
            done = min(2 * done, rel)
            err = self.truncate(v + done) * y - 1
            # y is taken as exact: its error is what the next step corrects
            y = LocalFieldElement._make(self.ctx, (y - y * err)._t, None)
        return y.truncate(-v + rel)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def truncate(self, prec):
        prec = Fraction(prec)
        if self.prec is not None and self.prec <= prec:
            return self
        return self._build(self._t.items(), prec)

    def to_context(self, ctx):
        if ctx.p != self.ctx.p:
            raise ContextError(f"prime mismatch: {self.ctx.p} vs {ctx.p}")
        N, N2 = self.ctx.N, ctx.N
        pairs = []
        for j, u in self._t.items():
            j2, r = divmod(j * N2, N)
            if r:
                raise ContextError(
                    f"exponent {Fraction(j, N)} not representable with "
                    f"ramification index {N2}"
                )
            pairs.append((j2, u))
        t = _canonicalize(ctx.p, N2, pairs, self.prec)
        return LocalFieldElement._make(ctx, t, self.prec)

    # --- comparisons / display ---

    def __eq__(self, other):
        if not isinstance(other, LocalFieldElement):
            try:
                other = self._coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (
            self.ctx == other.ctx
            and self.prec == other.prec
            and self._t == other._t
        )

    def __hash__(self):
        return hash((self.ctx, self.prec, tuple(self.terms.items())))

    def __repr__(self):
        p = self.ctx.p
        bits = []
        for e, u in self.terms.items():
            if e == 0:
                bits.append(f"{u}")
            elif e == 1:
                bits.append(f"{u}*{p}")
            else:
                bits.append(f"{u}*{p}^({e})")
        body = " + ".join(bits) if bits else "0"
        if self.prec is not None:
            body += f" + O({p}^({self.prec}))"
        return body

    def to_json(self):
        out = {
            "terms": [
                {
                    "exponent": str(e),
                    "unit": str(u),
                    "modulus": (
                        f"{self.ctx.p}^{ceil_fraction(self.prec - e)}"
                        if self.prec is not None
                        else "exact"
                    ),
                }
                for e, u in self.terms.items()
            ],
            "precision": str(self.prec) if self.prec is not None else "exact",
        }
        return out


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# --- square roots ---


def hensel_sqrt(u, p, M):
    """Square root of a unit residue mod p^M, branch = lift of the smallest
    nonnegative root mod p."""
    u = u % (p**M)
    if u % p == 0:
        raise NoSquareRoot(f"{u} is not a unit mod {p}")
    r = _unit_prime_to_p_root(u, 2, p, M)
    if r is None:
        raise NoSquareRoot(f"{u} is not a quadratic residue mod {p}")
    return r


def sqrt_of_minus_one(ctx, prec=None):
    """The square root of -1 congruent to the smaller root mod p; requires
    p = 1 mod 4."""
    M = ceil_fraction(prec) if prec is not None else ctx.M
    r = hensel_sqrt(-1 % ctx.p ** M, ctx.p, M)
    return ctx.element([(Fraction(0), r)], Fraction(M))


# --- n-th roots ---


def _unit_pth_root(u, p, K):
    """Solve y^p = u in Z_p to precision p^K; returns int residue or None."""
    u = u % (p**K)
    y = u % p
    if y == 0:
        return None
    if pow(y, p, p * p) != u % (p * p):
        return None
    # extend digit by digit: y^p = u mod p^(t+1) implies a unique digit fixing
    # the next level
    for t in range(1, K):
        mod = p ** (t + 2)
        diff = (u - pow(y, p, mod)) % mod
        if diff % (p ** (t + 1)) != 0:
            return None
        c = (diff // p ** (t + 1)) * _modinv(pow(y, p - 1, p), p) % p
        y = y + c * p**t
    return y % (p**K)


def _unit_prime_to_p_root(u, m, p, K):
    """Solve y^m = u in Z_p (gcd(m, p) = 1) to precision p^K."""
    u = u % (p**K)
    y0 = None
    for y in range(1, p):
        if (pow(y, m, p) - u) % p == 0:
            y0 = y
            break
    if y0 is None:
        return None
    y = y0
    k = 1
    while k < K:
        k = min(2 * k, K)
        mod = p**k
        f = (pow(y, m, mod) - u) % mod
        y = (y - f * _modinv(m * pow(y, m - 1, mod), mod)) % mod
    return y


def _integer_nth_root_exact(n, k):
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 2:
        return n
    # integer Newton iteration from 2^ceil(bits/k) >= n^(1/k); it decreases
    # strictly until it reaches floor(n^(1/k))
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def unit_nth_root(u, n, p, K):
    """n-th root of a p-adic unit, given as Fraction or int residue.

    Returns (root, exact) where root is a Fraction (exact=True) or an int
    residue mod p^K (exact=False). Raises NoNthRoot when no root exists in Z_p.
    """
    frac = Fraction(u)
    num, den = frac.numerator, frac.denominator
    # exact shortcut for rational perfect powers; a negative one only for odd
    # n (for even n the residue path decides)
    if num >= 0 or n % 2 == 1:
        rn = _integer_nth_root_exact(abs(num), n)
        rd = _integer_nth_root_exact(den, n)
        if rn is not None and rd is not None:
            return (-1 if num < 0 else 1) * Fraction(rn, rd), True
    mod = p**K
    res = num * _modinv(den, mod) % mod
    if res % p == 0:
        raise NoNthRoot(f"{u} is not a unit mod {p}")
    a, m = split_p_part(n, p)
    y = res
    for _ in range(a):
        y = _unit_pth_root(y, p, K)
        if y is None:
            raise NoNthRoot(
                f"unit {res} mod {p}^{K} has no {n}-th root in Z_{p} "
                f"(obstruction at the p-part)"
            )
    if m > 1:
        y = _unit_prime_to_p_root(y, m, p, K)
        if y is None:
            raise NoNthRoot(
                f"unit {res} mod {p}^{K} has no {n}-th root in Z_{p} "
                f"(no residue solves y^{m} = u mod {p})"
            )
    return y, False


def _binomial_series(z, exponent, target):
    """(1 + z)^exponent truncated so the tail is beyond `target` (absolute),
    for a Fraction exponent with v_p(denominator) = a.

    Convergence requires v(z) > a + 1/(p-1) if a > 0, else v(z) > 0.
    """
    ctx = z.ctx
    p = ctx.p
    exponent = Fraction(exponent)
    a = -min(0, int(vp(exponent, p).as_fraction()))
    zv = z.valuation_lower_bound()
    bound = Fraction(a) + Fraction(1, p - 1) if a > 0 else Fraction(0)
    if not zv > bound:
        raise DivergentSeries(
            f"binomial series with exponent {exponent} needs v(z) > {bound}, "
            f"got {zv}"
        )
    slope = zv + ExtendedRational(-bound)  # per-term valuation gain, > 0
    out = ctx.one()
    coeff = Fraction(1)
    zpow = ctx.one()
    k = 1
    while slope * k < target or (slope.is_infinite and k <= 1):
        if slope.is_infinite:
            break
        coeff = coeff * (exponent - (k - 1)) / k
        zpow = zpow * z
        if coeff != 0:
            out = out + zpow * coeff
        k += 1
    return out


def pnth_root_binomial(x, a):
    """p^a-th root of x via the binomial series; needs v(x - 1) > a + 1/(p-1)."""
    ctx = x.ctx
    p = ctx.p
    if a == 0:
        return x
    z = x - 1
    bound = Fraction(a) + Fraction(1, p - 1)
    zv = z.valuation_lower_bound()
    if not zv > bound:
        raise DivergentSeries(
            f"p^{a}-th root series needs v(x-1) > {bound}, got v(x-1) = {zv}"
        )
    if x.prec is not None:
        target = x.prec - a
    elif not zv.is_infinite:
        target = zv.as_fraction() - a + ctx.M
    else:
        return ctx.one()
    y = _binomial_series(z, Fraction(1, p**a), target)
    return y.truncate(target)


def nth_root(x, n, branch=0):
    """n-th root of x in Q_p(pi) when one exists; deterministic branch.

    The valuation must divide evenly (v(x)/n must live in (1/N)Z), the unit
    part must have an n-th root in Z_p, and when p | n the principal part must
    lie in the binomial convergence region.
    """
    ctx = x.ctx
    p = ctx.p
    if n < 1:
        raise PreconditionViolated(f"n must be positive, got {n}")
    v = x.valuation()
    if v.is_infinite:
        return ctx.zero()
    v = v.as_fraction()
    if (v / n * ctx.N).denominator != 1:
        raise NoNthRoot(
            f"valuation {v} is not divisible by {n} within ramification index {ctx.N}"
        )
    u0 = x.terms[v]
    a, _ = split_p_part(n, p)
    rel = (x.prec - v) if x.prec is not None else Fraction(ctx.M)
    K = max(ceil_fraction(rel) + 2 * a + 2, 2 * a + 3)
    root_u, exact = unit_nth_root(Fraction(u0), n, p, K)
    if exact:
        lead_root = ctx.element([(v / n, root_u)])
    else:
        lead_root = ctx.element([(v / n, root_u)], v / n + K)
    if len(x.terms) == 1:
        if x.prec is None and exact:
            out = lead_root
        else:
            out = lead_root.truncate(v / n + rel - a)
    else:
        lead = ctx.element([(v, u0)])
        z = x / lead - 1
        series = _binomial_series(z, Fraction(1, n), rel - a)
        out = (lead_root * series).truncate(v / n + rel - a)
    if branch and n % 2 == 0:
        out = -out
    return out


# --- p-th power decision procedure ---


class PthPowerVerdict:
    """Outcome of the k-th power test: kind in {yes, no, undecidable}."""

    def __init__(self, kind, root=None, certificate=None):
        self.kind = kind
        self.root = root
        self.certificate = certificate

    def __repr__(self):
        return f"PthPowerVerdict({self.kind!r}, certificate={self.certificate!r})"

    def to_json(self):
        out = {"verdict": self.kind}
        if self.root is not None:
            out["root"] = self.root.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _hensel_start(w, ctx):
    """An exact unit y with v(y^p - w) > p/(p-1), or None when the unit w is
    not a p-th power.

    For i < N/(p-1), (1 + c*pi^i)^p = 1 + c^p*pi^(p*i) modulo higher terms,
    so the lowest term c*pi^k of w - y^p must have p | k, and adding the
    digit c mod p at pi^(k/p) moves it higher. At k = N*p/(p-1) both the p-th
    power and the linear term p*y^(p-1)*t*pi^(k-N) reach pi^k, and
    (y + t*pi^(k-N))^p adds 2t*pi^k there, so t = c/2 mod p.
    """
    p, N = ctx.p, ctx.N

    def digit(j, num, den):
        return LocalFieldElement._make(ctx, {j: (num * _modinv(den, p) % p, 1)}, None)

    y = digit(0, *w._t[0])
    while True:
        diff = w - y**p
        if not diff._t:
            return y
        k, (num, den) = next(iter(diff._t.items()))
        if k * (p - 1) > p * N:
            return y
        if k * (p - 1) == p * N:
            return y + digit(k - N, num, 2 * den)
        if k % p:
            return None
        y = y + digit(k // p, num, den)


def _class_residue(x, frac_class, modulus_exp, p):
    """Aggregate integer residue of the terms of x in one exponent class."""
    total = Fraction(0)
    for e, u in x.terms.items():
        f = e - floor_fraction(e)
        if f == frac_class:
            total += Fraction(u) * Fraction(p) ** floor_fraction(e - frac_class)
    mod = p**modulus_exp
    return total.numerator * _modinv(total.denominator, mod) % mod if total else 0


def _no_certificate(w, ctx):
    """Normalized non-power certificate: alpha from the integer level, beta
    from the lowest fractional term with valuation in (1, p/(p-1)] (None if
    there is none), then the first violated congruence."""
    p, Nsub = ctx.p, ctx.N
    C = Fraction(p, p - 1)
    alpha = int(_class_residue(w, Fraction(0), 1, p))
    beta = None
    beta_exponent = None
    for j, (num, den) in w._t.items():
        if j % Nsub and Nsub < j and j * (p - 1) <= p * Nsub:
            # the candidate digit t sits at exponent e - 1 > 0; its cross term
            # is p * alpha^(p-1) * beta * pi^(e-1)
            coeff = num * _modinv(den, p) % p
            beta = coeff * _modinv(pow(alpha, p - 1, p), p) % p
            beta_exponent = _exponent(Nsub, j)
            break
    y = ctx.element([(Fraction(0), alpha)])
    if beta is not None:
        y = y + ctx.element([(beta_exponent - 1, beta)])
    diff = y**p - w
    violated = None
    for e in sorted(diff.terms):
        if e <= C:
            violated = e
            break
    cert = {
        "kind": "congruence",
        "alpha": alpha,
        "beta": beta,
        "modulus_alpha": p,
        "modulus_beta": p,
    }
    if violated is not None:
        f = violated - floor_fraction(violated)
        mexp = floor_fraction(C - f) + 1
        lhs = _class_residue(y**p, f, mexp, p)
        rhs = _class_residue(w, f, mexp, p)
        cert.update(
            {
                "violated_exponent_class": str(f),
                "modulus": f"{p}^{mexp}",
                "lhs": int(lhs),
                "rhs": int(rhs),
            }
        )
    return cert


def is_pth_power(x, k):
    """Decide whether x is a k-th power in its field, k in {p, p^2}.

    Write x = pi^v * w with w a unit. A p-th power needs v/p in (1/N)Z, and w
    is decided on the unit filtration U_i = 1 + pi^i O (Serre, Local Fields,
    ch. XIV; Fesenko-Vostokov, Local Fields and Their Extensions, ch. I 5).
    For i < N/(p-1) the p-th power map sends U_i into U_(p*i) and induces
    u -> u^p from U_i / U_(i+1) onto U_(p*i) / U_(p*i+1), while nothing
    reaches the levels in between. So w / y^p can first differ from 1 only at
    a level divisible by p, where one digit of y removes it. Peeling those
    levels (`_hensel_start`) either meets a level prime to p, and x is no
    p-th power, or reaches v(w - y^p) > p/(p-1); then Hensel's lemma, as the
    binomial series of (w / y^p)^(1/p), gives the root. The verdict depends
    only on w modulo the decision level floor(N*p/(p-1))/N.

    Returns a PthPowerVerdict. No-verdicts carry either a valuation
    obstruction or a congruence certificate; Undecidable means the tracked
    precision cannot separate the cases. The root of a yes-verdict is marked
    exact only when its p-th power is exactly x; otherwise its relative
    precision is that of x less 1, or M - 1 when x is exact.
    """
    ctx = x.ctx
    p = ctx.p
    if k not in (p, p * p):
        raise PreconditionViolated(f"k must be p or p^2, got {k}")
    if not x.terms:
        if x.prec is None:
            raise PreconditionViolated("0 is excluded from the power test")
        return PthPowerVerdict("undecidable", certificate={"reason": "zero to precision"})
    v = min(x.terms)
    if (v / p * ctx.N).denominator != 1:
        return PthPowerVerdict(
            "no",
            certificate={
                "kind": "valuation",
                "valuation": str(v),
                "k": k,
                "reason": f"v(x) = {v} is not divisible by {p} within the field",
            },
        )
    if k == p * p:
        first = is_pth_power(x, p)
        if first.kind != "yes":
            out = PthPowerVerdict(first.kind, certificate=first.certificate)
            return out
        second = is_pth_power(first.root, p)
        if second.kind == "yes":
            return PthPowerVerdict("yes", root=second.root, certificate=None)
        return PthPowerVerdict(second.kind, certificate=second.certificate)

    # reduce to a unit in the minimal subcontext
    w_full = x * ctx.element([(-v, 1)])
    denoms = [e.denominator for e in w_full.terms]
    Nsub = math.lcm(1, *denoms)
    sub = LocalFieldContext(p, Nsub, ctx.M)
    w = w_full.to_context(sub)
    C = Fraction(p, p - 1)
    needed = Fraction(p * Nsub // (p - 1), Nsub)
    if w.prec is not None and w.prec <= needed:
        return PthPowerVerdict(
            "undecidable",
            certificate={
                "reason": f"precision p^{w.prec} does not reach the decision "
                f"level {needed}"
            },
        )
    y0 = _hensel_start(w, sub)
    if y0 is None:
        return PthPowerVerdict("no", certificate=_no_certificate(w, sub))
    if w.prec is not None and w.prec <= C:
        # a root needs w / y0^p - 1 known beyond p/(p-1); the "no" above is
        # already decided, since every level up to `needed` lies below prec
        return PthPowerVerdict(
            "undecidable",
            certificate={
                "reason": f"precision p^{w.prec} does not exceed the Hensel "
                f"level {C}"
            },
        )
    if w.prec is None and w == y0**p:
        unit_root = y0
    else:
        # relative precision M - 1 for an exact w, as in nth_root
        rel = (w.prec if w.prec is not None else Fraction(ctx.M)) - 1
        z = w / y0**p - 1
        unit_root = (y0 * _binomial_series(z, Fraction(1, p), rel)).truncate(rel)
    root = unit_root.to_context(ctx) * ctx.element([(v / p, 1)])
    return PthPowerVerdict("yes", root=root)
