"""
Truncated series expansions of the degree-(r+s) rational cover function

    g(z) = ((z+1)/(z-1))^r * ((z+c)/(z-c))^s,    c = sqrt(1-a),

around a center d. On a disk z = d + e*t the expansion of g is
taylor_factors(params.roots(), d, T, p) with coefficient i multiplied by e^i.
Coefficients are exact: rationals, Gaussian rationals, or local field
elements, depending on where the expansion center lives. Truncation is
tracked honestly; evaluation at a local-field point cuts the sum to a
precision derived from a proven lower bound on the dropped coefficients.

In every coefficient ring the Taylor coefficients come from the linear
recurrence of the ODE P*g' = Q*g that g satisfies, after one linear-factor
update per root builds P and Q (_recurrence_coefficients). Over Q it runs on
integers and builds one Fraction per coefficient at the end. Its start
g_0 = prod (-b)^m over the shifted roots b sums the exponents of each |b|
before raising anything: the roots +-1 and +-c of g come in pairs whose
exponents cancel, so g(0) = (-1)^(r+s) costs no power of size s^s r^s. In
Q(i) and the local field each coefficient Q_{j-1} - m P_j of a step is one
dot, and so is the step's sum against g; `element_dot` canonicalizes a dot
once. On finite-precision elements each product lowers the recorded
precision by what it costs, so no coefficient claims more precision than it
has.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import islice
from operator import mul

from .errors import PrecisionError, PreconditionViolated, Unsupported
from .localfield import LocalFieldElement, _rational_term, element_dot
from .valuation import (
    INFINITY,
    ExtendedRational,
    _check_valuation_prime,
    _vp_count,
    check_nu,
    check_p,
    power,
    vp,
)


class GaussRational:
    """Exact element of Q(i): re + im*i with rational components.

    p-adic valuation is supported for primes p = 3 mod 4, where p stays prime
    in Z[i] and v(re + im*i) = min(v(re), v(im)).
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        return GaussRational(other)

    def __add__(self, other):
        other = self._coerce(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        return power(self, n, GaussRational(1))

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __repr__(self):
        return f"GaussRational({self.re}, {self.im})"

    def valuation(self, p) -> ExtendedRational:
        if p % 4 != 3:
            raise Unsupported(
                f"p = {p} splits in Z[i]; component-wise valuation is only "
                f"valid for p = 3 mod 4"
            )
        return min(vp(self.re, p), vp(self.im, p))


I_GAUSS = GaussRational(0, 1)


def element_valuation(x, p) -> ExtendedRational:
    """Valuation of a coefficient of any supported ring, at a prime p."""
    _check_valuation_prime(p)
    if isinstance(x, LocalFieldElement):
        if x.ctx.p != p:
            raise PreconditionViolated(f"prime mismatch: element over {x.ctx.p}, asked {p}")
        return x.valuation()
    if isinstance(x, GaussRational):
        return x.valuation(p)
    return vp(x, p)


class CoverParams:
    """Parameters of the cover function g.

    Args:
        p: odd prime.
        nu: positive exponent of the p-power degree.
        r, s: integers with 0 < r, s < p^nu.
        sqrt1ma: the chosen square root of 1 - a, an exact rational.

    The invariant a = 1 - sqrt1ma^2 is derived. When a = 1 - s^2/r^2 the
    branch is forced: sqrt1ma = -s/r.
    """

    def __init__(self, p, nu, r, s, sqrt1ma):
        check_p(p)
        check_nu(nu)
        if not (0 < r < p**nu and 0 < s < p**nu):
            raise PreconditionViolated(
                f"need 0 < r, s < p^nu = {p**nu}, got r={r}, s={s}"
            )
        self.p = p
        self.nu = nu
        self.r = r
        self.s = s
        self.sqrt1ma = Fraction(sqrt1ma)
        self.a = 1 - self.sqrt1ma**2
        # a = 1 - (s/r)^2 leaves the roots +-s/r, and s > 0 tells them apart
        if self.sqrt1ma == Fraction(s, r):
            raise PreconditionViolated(
                f"branch is forced to sqrt(1-a) = {-Fraction(s, r)} for this a"
            )
        if self.sqrt1ma == 0:
            raise Unsupported("sqrt(1-a) = 0 degenerates the cover")
        if self.sqrt1ma == -1 and r == s:
            raise Unsupported("constant cover")

    def roots(self):
        """(root, exponent) pairs of g as a rational function."""
        c = self.sqrt1ma
        return [
            (Fraction(-1), self.r),
            (Fraction(1), -self.r),
            (-c, self.s),
            (c, -self.s),
        ]

    def coefficient_bound(self):
        """(const, slope) with v(maclaurin coefficient i) >= const + slope*i
        - v_p(i) for all i >= 1; proven per case."""
        p = self.p
        if self.a == 0:
            # sqrt1ma = +-1 makes g = ((z+1)/(z-1))^(r +- s), whose Maclaurin
            # coefficients are integers; v_p(a) would be infinite here
            return Fraction(0), Fraction(0)
        va = vp(self.a, p)
        if va > 0:
            return va.as_fraction(), Fraction(0)
        # v(1 - a) = 2 v(sqrt1ma), as 1 - a = sqrt1ma^2 and sqrt1ma != 0
        ws = vp(self.sqrt1ma, p).as_fraction()
        if ws > 0:
            return ws, -ws
        return Fraction(0), Fraction(0)

    def __repr__(self):
        return (
            f"CoverParams(p={self.p}, nu={self.nu}, r={self.r}, s={self.s}, "
            f"sqrt1ma={self.sqrt1ma})"
        )


class TruncatedSeries:
    """Coefficients 0..order of a power series, with an optional proven lower
    bound (const, slope) so that v(coefficient i) >= const + slope*i - v_p(i)
    holds for every i >= 1 (used to control dropped tails).

    A series built from a list holds every coefficient. One that
    `taylor_factors` builds over Q (so every `maclaurin_g` series) computes
    each coefficient from its recurrence only when asked for:
    `coefficient(i)` and `coefficients` compute through the order, and
    `evaluate` through the last index its floor can read. The order, and
    with it the floor, is the same either way."""

    def __init__(self, coefficients, tail_bound=None, p=None):
        self._known = list(coefficients)
        self._pending = None
        self.order = len(self._known) - 1
        self.tail_bound = tail_bound
        self.p = p

    @classmethod
    def _on_demand(cls, coefficients, order, tail_bound, p):
        """The series of order `order` whose coefficients the iterator
        `coefficients` yields, c_0 first, each taken when first asked for."""
        series = cls((), tail_bound, p)
        series._pending, series.order = coefficients, order
        return series

    def _through(self, i):
        """The series' own list of coefficients, after computing any that
        are missing through index i. A recurrence that stopped early, on an
        error in an earlier read, is an internal error."""
        known = self._known
        missing = i + 1 - len(known)
        if missing > 0:
            known.extend(islice(self._pending, missing))
            if len(known) <= i:
                raise RuntimeError(
                    f"the recurrence stopped at coefficient {len(known)} of {self.order}"
                )
        return known

    @property
    def coefficients(self):
        return self._through(self.order)

    def coefficient(self, i):
        if not 0 <= i <= self.order:
            raise PreconditionViolated(f"coefficient {i} beyond truncation order {self.order}")
        return self.coefficients[i]

    def __mul__(self, other):
        T = min(self.order, other.order)
        out = [Fraction(0)] * (T + 1)
        for i, u in enumerate(self.coefficients[: T + 1]):
            for j, v in enumerate(other.coefficients[: T + 1 - i]):
                out[i + j] = out[i + j] + u * v
        return TruncatedSeries(out, p=self.p or other.p)

    def _net(self, w):
        """slope + w as the ints (n, D) of n/D, for a weight w that is an int
        or a Fraction."""
        slope = self.tail_bound[1]
        return (
            slope.numerator * w.denominator + w.numerator * slope.denominator,
            slope.denominator * w.denominator,
        )

    def tail_floor(self, per_index_weight):
        """Rigorous lower bound for min over k > order of
        v(coefficient k) + k * per_index_weight, an int or a Fraction, or
        None if no bound holds."""
        if self.tail_bound is None:
            return None
        const = self.tail_bound[0]
        # net = slope + w = n/D, compared in ints over the denominator D
        n, D = self._net(per_index_weight)
        if n <= 0:
            return None
        # v(coeff k) + k*w >= const + net*k - bitlen(k); the piecewise-linear
        # minorant attains its minimum over k > T at T+1 or at a power of two
        T = self.order
        stop = n * (T + 1) + 4 * D
        least = n * (T + 1) - D * (T + 1).bit_length()
        b = max(1, T.bit_length())
        while True:
            k = 1 << b
            least = min(least, n * k - D * (b + 1))
            if n * k - D * b >= stop:
                break
            b += 1
        return Fraction(const.numerator * D + least * const.denominator, const.denominator * D)

    def evaluate(self, x):
        """Sum of the series at a local-field point x with v(x) > 0, cut to
        the precision the tail bound certifies for the dropped terms.

        It computes no coefficient past c_imax, imax the last index i <= order
        whose proven bound const + slope*i - v_p(i) + i*v(x) lies below the
        floor (compared in ints over one denominator): by that bound every
        later pair is at or above the floor, so it adds no term and cannot
        lower the precision. It reads every coefficient the series already
        holds, so a series built from a list is read whole, and one whose
        coefficients are computed when asked for is read through c_imax, or
        further if they were computed before. The sum of the c_i * x^i is one
        dot, canonicalized once at the least of that floor and each part's
        precision (`element_dot`). It gets only the live pairs: a pair whose
        c_i is exact 0, or has a lowest term with v(c_i) + i*v(x) >= floor,
        adds no term below the floor, and its precision bound min(prec(c_i) +
        v(x^i), prec(x^i) + v(c_i)) exceeds that valuation, so leaving it out
        changes neither the terms nor the precision. A c_i that is zero to its
        precision stays, since it may set the precision. Each rational c_i is
        read as its term once, and the powers x^i are element products up to
        the last live pair."""
        if not isinstance(x, LocalFieldElement):
            raise PreconditionViolated(
                f"evaluation needs a local-field point, got {type(x).__name__}"
            )
        vx = element_valuation(x, x.ctx.p if self.p is None else self.p)
        if not vx > 0:
            raise PreconditionViolated(f"evaluation needs v(x) > 0, got {vx}")
        w = vx.as_fraction()
        floor = self.tail_floor(w)
        if floor is None:
            raise PreconditionViolated("no tail bound available to certify the dropped terms")
        ctx = x.ctx
        p, N = ctx.p, ctx.N
        # imax is the last i <= T with (slope + w)*i - v_p(i) < floor - const,
        # that is b*(n*i - D*v_p(i)) < a*D for slope + w = n/D and
        # floor - const = a/b. An i with v_p(i) >= v is live when
        # b*n*i < a*D + b*D*v, so imax is the largest over v of the last
        # multiple of p^v below that.
        T = self.order
        n, D = self._net(w)
        a, b = (floor - self.tail_bound[0]).as_integer_ratio()
        imax, v, step = 0, 0, 1
        while step <= T:
            top = min(T, (a * D + b * D * v - 1) // (b * n))
            imax = max(imax, top - top % step)
            v, step = v + 1, step * p
        # on the exponents j of pi^j: v(x) = jx/N, and ceil(floor*N)
        jx = next(iter(x._t))
        jfloor = -(-floor.numerator * N // floor.denominator)
        powers, coefficients = [], []
        power, k = ctx.one(), 0
        for i, c in enumerate(self._through(imax)):
            if isinstance(c, LocalFieldElement):
                if c.ctx is not ctx:
                    x._check_ctx(c)
                t = c._t
                if not t and c._prec is None:
                    continue
            else:
                # the rational's one exact term, read once
                t = dict(_rational_term(c, p, N))
                if not t:
                    continue
                c = LocalFieldElement._make(ctx, t, None)
            # a lowest term at or above the floor: the pair adds nothing; a c
            # that is zero to its precision stays
            if t and next(iter(t)) + i * jx >= jfloor:
                continue
            while k < i:
                power, k = power * x, k + 1
            powers.append(power)
            coefficients.append(c)
        if not powers:
            return ctx.zero(floor)
        return element_dot(powers, coefficients, floor)


def maclaurin_g(params, T=None):
    """Maclaurin expansion of g through order T (default 3p + 2): the Taylor
    expansion at 0, with exact rational coefficients and the proven tail
    bound of CoverParams.coefficient_bound."""
    if T is None:
        T = 3 * params.p + 2
    if T < 1:
        raise PreconditionViolated(f"T must be >= 1, got {T}")
    return taylor_factors(
        params.roots(), Fraction(0), T, params.p, tail_bound=params.coefficient_bound()
    )


def taylor_factors(factors, center, T, p, tail_bound=None):
    """Taylor expansion at `center` through order T of a product of
    linear-factor powers prod (z - root)^m, given as (root, m) pairs.

    The coefficients come from the recurrence of the ODE P*g' = Q*g in the
    ring of the center and the roots: Q, Q(i) or the local field (see
    _recurrence_coefficients). The recurrence is safe on finite-precision
    elements because LocalFieldElement arithmetic records the precision each
    step loses to its divisor (k+1)*P(0). A center equal to a root is
    refused with PreconditionViolated. p is the odd prime of the series'
    tail bound and of its evaluation.

    The center may be a Fraction, GaussRational or LocalFieldElement; the
    coefficients live in the same ring and are exact within order T. The
    expansion of g(d + e*t) in t is taylor_factors(params.roots(), d, T, p)
    with coefficient i multiplied by e^i; a caller who needs more digits at a
    local-field center raises the context's M.

    The shifted roots, P, Q and g_0 are built, and a center on a root is
    refused, at the call. Over Q each coefficient is computed when the
    series is first asked for it (`TruncatedSeries`); in Q(i) and the local
    field all of them are computed at the call.
    """
    check_p(p)
    coefficients = _recurrence_coefficients(factors, center, T)
    # the order is T, or 0 for T <= 0; a T that is no int fails here
    return TruncatedSeries._on_demand(coefficients, len(range(T)), tail_bound, p)


def _recurrence_coefficients(factors, center, T):
    """An iterator of the coefficients 0..T at `center` of prod (z - root)^m.
    P, Q and g_0 are built here. Over Q each step of the recurrence runs
    when the iterator is asked for its coefficient (_rational_coefficients);
    in Q(i) and the local field every step runs here.

    In t = z - center the factors are (t - b)^m with b = root - center, so
    g'/g = sum m/(t - b) = Q/P for P = prod (t - b_i) and
    Q = sum m_i prod_{j != i} (t - b_j). The coefficients of t^k in
    P*g' = Q*g give, with n = deg P,

        (k+1) P_0 g_{k+1} = sum_{j=1..n} (Q_{j-1} - (k+1-j) P_j) g_{k+1-j},

    from g_0 = prod (-b_i)^m_i: the D-finite recurrence of Stanley (1980)
    and gfun (Salvy-Zimmermann 1994). P_0 = prod (-b_i) is nonzero since
    the center is not a root; repeated roots need no special case. In every
    ring one pass over b_i = u_i/v_i builds Q <- Q (v t - u) + m v P and
    P <- P (v t - u), v = 1 outside Q, in O(n^2) ring operations. Over Q, P
    and Q are integers scaled by prod v_i and the recurrence runs on integers
    (_rational_coefficients). There g_0 is the sign, -1 per factor with
    -b_i < 0 and m_i odd, times |b|^e for each distinct |b| whose exponents
    m_i sum to e != 0: a base is raised once, after its exponents cancel, so
    a pair of roots b and -b with opposite exponents, as g has at 0, costs
    nothing however large m is. In Q(i) and the local field each -b_i is
    formed as center - root by one dot, an update entry is one dot, a
    coefficient Q_{j-1} - m P_j one dot against the rationals (1, -m), and
    the step's sum one dot of those with g, times 1/P_0 = P_0.inverse(),
    taken once, and the rational 1/(k+1); the local field reads each
    rational as one term (`element_dot`).
    """
    factors = list(factors)
    one = _ring_one(center, *(root for root, _ in factors))
    if isinstance(one, Fraction):
        P, Q, L, exponents, negative = [1], [], 1, {}, False
        cu, cv = center.numerator, center.denominator
        for root, m in factors:
            # b = root - center = u/v in lowest terms, formed in ints
            u, v = root.numerator * cv - cu * root.denominator, root.denominator * cv
            k = math.gcd(u, v)
            u, v = u // k, v // k
            _refuse_root_center(u, root, center)
            Q = [v * x - u * y + m * v * z for x, y, z in zip([0] + Q, Q + [0], P)]
            P = [v * x - u * y for x, y in zip([0] + P, P + [0])]
            L = math.lcm(L, u)
            # |b| as the ints (|u|, v)
            base = (abs(u), v)
            exponents[base] = exponents.get(base, 0) + m
            # (-b)^m is negative when -b < 0 and m is odd
            negative ^= u > 0 and m % 2 == 1
        g0 = Fraction(-1 if negative else 1)
        for base, e in exponents.items():
            if e:
                g0 *= Fraction(*base) ** e
        return _rational_coefficients(P, Q, L, g0, T)
    # refuse each root at the center before an inverse fails on a near one
    shifted = []
    for root, m in factors:
        nb = one._coerce(center - root)
        _refuse_root_center(nb, root, center)
        shifted.append((nb, m))
    dot = element_dot if isinstance(one, LocalFieldElement) else lambda xs, ys: sum(map(mul, xs, ys))
    g0, P, Q = one, [one], []
    for nb, m in shifted:
        g0 = g0 * nb**m
        Q = [dot((one, nb, z), (x, y, m)) for x, y, z in zip([0] + Q, Q + [0], P)]
        P = [dot((one, nb), (x, y)) for x, y in zip([0] + P, P + [0])]
    n = len(P) - 1
    inv_P0 = P[0].inverse()
    g = [g0]
    for k in range(T):
        cs = [dot((Q[j - 1], P[j]), (1, j - k - 1)) for j in range(1, min(n, k + 1) + 1)]
        # cs[j-1] meets g_{k+1-j}: zip stops at the last coefficient
        acc = dot(cs, reversed(g)) if n else 0 * one
        g.append(acc * inv_P0 * Fraction(1, k + 1))
    return iter(g)


def _rational_coefficients(P, Q, L, g0, T):
    """The recurrence of _recurrence_coefficients over Q, on integers: a
    generator of g_0 .. g_T, each step run when its coefficient is asked for.

    P and Q are integer polynomials, L is the lcm of the numerators u_i of
    the shifted roots b_i = u_i/v_i, and g0 is the Fraction g_0. Since
    g/g_0 = prod (1 - (v_i/u_i) t)^m_i and binomial coefficients of an
    integer exponent are integers, h_k = g_k L^k / g_0 is an integer, and

        (k+1) P_0 h_{k+1} = sum_{j=1..n} (Q_{j-1} - (k+1-j) P_j) L^j h_{k+1-j}.

    Each step is then one integer division by (k+1) P_0. It is exact by the
    argument above, so a remainder is an internal error, raised as a
    RuntimeError naming k when that step runs. Coefficient k comes back as
    the one Fraction g_0 h_k / L^k. The denominator of g_k / g_0 divides
    L^k, so h_k carries few digits beyond the coefficient's own; a scaling
    by k! P_0^k or by P_0^k grows faster and makes large T slower.
    """
    n = len(P) - 1
    # QL[j] = Q_{j-1} L^j and PL[j] = P_j L^j
    QL = [0] + [c * L**j for j, c in enumerate(Q, 1)]
    PL = [c * L**j for j, c in enumerate(P)]
    num, den = g0.numerator, g0.denominator
    h = deque([1], maxlen=n)  # h_{k+1-j} is h[-j]
    yield g0
    Lk = 1
    for k in range(T):
        acc = 0
        for j in range(1, min(n, k + 1) + 1):
            acc += (QL[j] - (k + 1 - j) * PL[j]) * h[-j]
        hk, rem = divmod(acc, (k + 1) * P[0])
        if rem:
            raise RuntimeError(
                f"internal error: the integer Maclaurin recurrence left a "
                f"remainder at k = {k + 1}"
            )
        h.append(hk)
        Lk *= L
        yield Fraction(num * hk, den * Lk)


def _refuse_root_center(base, root, center):
    """Refuse a shifted root `base`, root - center or center - root (over Q
    its numerator), that is 0: exactly, or only to its precision, where P(0)
    would have no inverse."""
    if base == 0:
        raise PreconditionViolated(
            f"the center equals the root {root}; g has no Taylor expansion there"
        )
    if isinstance(base, LocalFieldElement) and not base._t:
        raise PrecisionError(
            f"the center {center!r} equals the root {root!r} modulo "
            f"{base.ctx.p}^{base.prec}; g has no Taylor expansion known there"
        )


def _ring_one(*xs):
    """The one of the ring holding every x: the local field of any
    LocalFieldElement, else Q(i) if any x is a GaussRational, else Q."""
    for x in xs:
        if isinstance(x, LocalFieldElement):
            return x.ctx.one()
    if any(isinstance(x, GaussRational) for x in xs):
        return GaussRational(1)
    return Fraction(1)


def scaled_coefficient_valuations(series, p, v_e):
    """v(c_i) = v(coefficient i) + i*v(e) for a homogeneous rescaling with a
    scale of known valuation v_e = n/d, of a series over Q: a coefficient
    that is no int or Fraction is refused. Its valuation is read as its int
    count a of p's, and a + i*n/d is built as the one Fraction
    (a*d + i*n) / d. p is checked here, so the count takes no check of its
    own."""
    _check_valuation_prime(p)
    n, d = Fraction(v_e).as_integer_ratio()
    out = []
    for i, c in enumerate(series.coefficients[1:], 1):
        if not isinstance(c, (int, Fraction)):
            raise PreconditionViolated(
                f"coefficient valuations need a rational series, got {type(c).__name__}"
            )
        a = _vp_count(c, p)
        out.append(INFINITY if a is None else ExtendedRational(Fraction(a * d + i * n, d)))
    return out
