"""
Exact p-adic valuations over the rationals, and the small helpers every other
module shares: primality, the p-part split of an integer, square-and-multiply
and conversion of reports to JSON values.

Valuations take values in (1/N)Z for various N, so everything here is built on
``fractions.Fraction``, extended by a single infinite element for v(0).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionViolated


class ExtendedRational:
    """A rational number or +infinity, totally ordered.

    Supports the arithmetic a valuation needs: addition with rationals and
    with other extended rationals (inf + x = inf), comparison, and scaling by
    a nonnegative rational.
    """

    __slots__ = ("value",)

    def __init__(self, value=None):
        if value is None:
            self.value = None  # infinity
        else:
            self.value = Fraction(value)

    @property
    def is_infinite(self):
        return self.value is None

    def _coerce(self, other):
        if isinstance(other, ExtendedRational):
            return other
        return ExtendedRational(other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return ExtendedRational(self.value + other.value)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return ExtendedRational(self.value * other.value)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other):
        other = self._coerce(other)
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.value < other.value

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        if self.is_infinite:
            return "inf"
        return str(self.value)

    def as_fraction(self):
        if self.is_infinite:
            raise PreconditionViolated("infinite valuation has no rational value")
        return self.value


INFINITY = ExtendedRational()


def vp(x, p) -> ExtendedRational:
    """p-adic valuation of a rational number, normalized so vp(p) = 1.

    Args:
        x: int or Fraction (or anything Fraction accepts).
        p: prime.

    Returns:
        ExtendedRational; INFINITY for x = 0.
    """
    if p < 2:
        raise PreconditionViolated(f"p must be a prime >= 2, got {p}")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    num = x.numerator
    den = x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return ExtendedRational(v)


def unit_part(x, p) -> Fraction:
    """x / p^vp(x) as an exact rational; the p-adic unit part of x != 0."""
    x = Fraction(x)
    if x == 0:
        raise PreconditionViolated("0 has no unit part")
    v = vp(x, p).as_fraction()
    return x / Fraction(p) ** int(v)


def multinomial(q, parts):
    """Exact multinomial coefficient q! / (r_1! ... r_n!).

    Args:
        q: nonnegative integer.
        parts: iterable of nonnegative integers summing to q.
    """
    parts = list(parts)
    if any(r < 0 for r in parts) or q < 0:
        raise PreconditionViolated(f"negative arguments: q={q}, parts={parts}")
    if sum(parts) != q:
        raise PreconditionViolated(f"parts {parts} do not sum to {q}")
    out = math.factorial(q)
    for r in parts:
        out //= math.factorial(r)
    return out


def floor_fraction(x) -> int:
    """Floor of a Fraction as an int."""
    x = Fraction(x)
    return x.numerator // x.denominator


def ceil_fraction(x) -> int:
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def fractional_part(x) -> Fraction:
    x = Fraction(x)
    return x - floor_fraction(x)


def is_prime(n) -> bool:
    """Trial-division primality test."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def split_p_part(n, p):
    """(a, m) with n = p^a * m and m prime to p, for a nonzero integer n."""
    if n == 0 or p < 2:
        raise PreconditionViolated(f"no p-part split of {n} at p = {p}")
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a, n


def power(base, n, one):
    """base^n by square-and-multiply; the ring's `one` for n = 0, and a
    negative n raises base.inverse() to -n."""
    if n < 0:
        base, n = base.inverse(), -n
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        if n > 1:
            base = base * base
        n >>= 1
    return one if out is None else out


def to_jsonable(v):
    """Plain JSON value of a report: objects by their to_json, rationals and
    extended rationals as strings, containers element-wise."""
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, (Fraction, ExtendedRational)):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [to_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: to_jsonable(x) for k, x in v.items()}
    return v
