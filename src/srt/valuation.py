"""
Exact p-adic valuations over the rationals, and the small helpers every other
module shares: primality, the one domain rule of each of p, q and nu (check_p,
check_q, check_nu), the one spelling and reader of numbers from outside
(INTEGER_SPELLING, RATIONAL_SPELLING, read_rational, read_int), the p-part
split of an integer, square-and-multiply and to_jsonable.

Valuations take values in (1/N)Z for various N, so everything here is built on
``fractions.Fraction``, extended by a single infinite element for v(0).
"""
from __future__ import annotations

import dataclasses
import functools
import math
import re
import sys
from fractions import Fraction

from .errors import PreconditionViolated, ResourceLimit, Unsupported


@functools.total_ordering
class ExtendedRational:
    """A rational number or +infinity, totally ordered.

    Supports the arithmetic a valuation needs: addition with rationals and
    with other extended rationals (inf + x = inf), comparison, and scaling by
    a nonnegative rational. The other operand may be an ExtendedRational or
    anything Fraction accepts. ExtendedRational(None) is +infinity, but None
    as an operand is not a valuation: == with it is False, and ordering and
    arithmetic with it raise TypeError.
    """

    __slots__ = ("value",)

    def __init__(self, value=None):
        if value is not None and not isinstance(value, Fraction):
            value = Fraction(value)
        self.value = value  # None is infinity

    @property
    def is_infinite(self):
        return self.value is None

    def __add__(self, other):
        b = _value(other)
        if self.value is None or b is None:
            return INFINITY
        return ExtendedRational(self.value + b)

    __radd__ = __add__

    def __mul__(self, other):
        b = _value(other)
        if self.value is None or b is None:
            return INFINITY
        return ExtendedRational(self.value * b)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            return self.value == _value(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        a, b = self.value, _value(other)
        if a is None:
            return False
        return b is None or a < b

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


def _value(x):
    """The Fraction (or None for infinity) an operand of ExtendedRational
    stands for; ints pass as they are, other numbers convert exactly, and
    anything Fraction refuses, None included, raises TypeError or
    ValueError."""
    if isinstance(x, ExtendedRational):
        return x.value
    if isinstance(x, (int, Fraction)):
        return x
    return Fraction(x)


def vp(x, p) -> ExtendedRational:
    """p-adic valuation of a rational number, normalized so vp(p) = 1.

    Args:
        x: int or Fraction, read as it is, or anything Fraction converts;
            any other x is refused with PreconditionViolated.
        p: prime.

    Returns:
        ExtendedRational; INFINITY for x = 0.
    """
    _check_valuation_prime(p)
    if not isinstance(x, (int, Fraction)):
        try:
            x = Fraction(x)
        except (TypeError, ValueError):
            raise PreconditionViolated(
                f"x must be an int, a Fraction or a value Fraction reads, "
                f"got {type(x).__name__}"
            ) from None
    v = _vp_count(x, p)
    return INFINITY if v is None else ExtendedRational(v)


def _check_valuation_prime(p):
    """The domain of the p of vp and of the valuations built on it: an int
    prime, 2 included."""
    if type(p) is not int or not is_prime(p):
        raise PreconditionViolated(f"p must be a prime >= 2, got {p}")


def _vp_count(x, p):
    """vp(x, p) as the int count of p's it is, or None for x = 0: the count
    behind vp, for a caller that builds its own value and has checked p and
    that x is an int or a Fraction."""
    num = x.numerator
    if not num:
        return None
    # num and den are coprime, so p divides at most one of them
    if num % p == 0:
        return split_p_part(num, p)[0]
    den = x.denominator
    if den % p == 0:
        return -split_p_part(den, p)[0]
    return 0


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


# the primes up to 41: trial divisors and Miller-Rabin bases of is_prime
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all the bases above (Sorenson and Webster,
# Strong pseudoprimes to twelve prime bases, Math. Comp. 86 (2017)); below
# it, passing Miller-Rabin to those bases proves n prime
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_prime(n) -> bool:
    """Deterministic primality test in O(log^3 n) bit operations.

    Trial division by the primes up to 41 settles every n below 43^2 and
    every n with such a factor; the rest passes Miller-Rabin to those same
    bases exactly when it is prime, for n below 3.3 * 10^24. Larger n have
    no certificate here and raise Unsupported.
    """
    if n < 2:
        return False
    for b in _SMALL_PRIMES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise Unsupported(
            f"primality of {n} is certified only below {_MILLER_RABIN_EXACT_BELOW}"
        )
    s, d = split_p_part(n - 1, 2)
    for b in _SMALL_PRIMES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The domains of the paper's parameters, each decided here once: every
# library entry that takes p, q or nu calls its rule before any other use of
# it, and the CLI's --p type calls check_p. Each value must be of type int
# itself: a bool is refused, though it is an int, and so is a float or
# Fraction of integer value.


def check_p(p):
    """The prime p of the cyclic p-Sylow: an odd prime int. is_prime's own
    Unsupported for a p too large to certify passes through."""
    if type(p) is not int or p == 2 or not is_prime(p):
        raise Unsupported(f"p must be an odd prime, got {p}")


def check_q(q):
    """The q of SL2(F_q): a prime int."""
    if type(q) is not int or not is_prime(q):
        raise Unsupported(f"q must be prime, got {q}")


def check_nu(nu):
    """The exponent nu = v_p(q^2 - 1) of the Sylow order p^nu: an int >= 1."""
    if type(nu) is not int:
        raise PreconditionViolated(f"nu must be an integer, got {nu}")
    if nu < 1:
        raise PreconditionViolated(f"nu must be >= 1, got {nu}")


# The one spelling of a number from outside srt, a flag or a string of a JSON
# file: ASCII digits after one optional sign, and for a rational either "/"
# and a denominator, or a decimal point and an exponent, each optional. Read
# with fullmatch. int and Fraction read more: blanks around the number, "_"
# between digits, and the digits of every script.
INTEGER_SPELLING = re.compile(r"[-+]?[0-9]+")
RATIONAL_SPELLING = re.compile(
    r"[-+]?(?=\.?[0-9])(?P<digits>[0-9]*)(?:/(?P<denominator>[0-9]+)"
    r"|(?:\.(?P<decimals>[0-9]*))?(?:[eE](?P<exponent>[-+]?[0-9]+))?)"
)


def read_rational(text):
    """Fraction(text) of a value read from outside: a flag, or a JSON string
    or number. A str not spelled as RATIONAL_SPELLING says is refused with
    PreconditionViolated in Fraction's words, and one with too many digits to
    print with ResourceLimit: the digits of its match plus its exponent bound
    those of numerator and denominator, so 1e1000000000 is refused before
    Fraction builds 10^1000000000. A number is built already; a bool raises
    PreconditionViolated, and any other value Fraction refuses raises
    Fraction's own error."""
    if isinstance(text, bool):
        raise PreconditionViolated(f"a bool is not a rational, got {text}")
    if not isinstance(text, str):
        return Fraction(text)
    spelled = RATIONAL_SPELLING.fullmatch(text)
    if spelled is None:
        raise PreconditionViolated(f"Invalid literal for Fraction: {text!r}")
    limit = sys.get_int_max_str_digits()
    exponent = (spelled["exponent"] or "").lstrip("+-").lstrip("0")
    size = len(spelled["digits"]) + len(spelled["denominator"] or spelled["decimals"] or "")
    # an exponent with more digits than the limit is past it anyway
    size += limit if len(exponent) > len(str(limit)) else int(exponent or 0)
    if limit and size >= limit:
        shown = text if len(text) <= 20 else text[:20] + "..."
        raise ResourceLimit(
            f"rational {shown!r} has {limit} or more digits with its exponent, "
            f"too many to print; write it with fewer digits or a smaller exponent"
        )
    return Fraction(text)


def read_int(value, name):
    """value, the integer field `name` read from outside: a JSON integer,
    so an int itself, and no bool, float or string."""
    if type(value) is not int:
        raise PreconditionViolated(f"{name} must be a JSON integer, got {value!r}")
    return value


def split_p_part(n, p):
    """(a, m) with n = p^a * m and m prime to p, for a nonzero integer n: the
    one loop of srt that divides a prime out of an integer."""
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
    """Plain JSON value of a report. Rationals and extended rationals become
    strings, containers convert element-wise, and an object with a to_json
    method renders by it. A dataclass gives its fields in declaration order,
    each under its metadata["json"] name if it has one, and leaves out a
    field that equals its default or default_factory(). Any other value,
    such as a str, an int, None or a float, passes as it is."""
    if v is None or isinstance(v, (str, int)):
        return v
    if isinstance(v, (Fraction, ExtendedRational)):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [to_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: to_jsonable(x) for k, x in v.items()}
    if hasattr(v, "to_json"):
        return v.to_json()
    if dataclasses.is_dataclass(v):
        out = {}
        for f in dataclasses.fields(v):
            value = getattr(v, f.name)
            if not _is_default(f, value):
                out[f.metadata.get("json", f.name)] = to_jsonable(value)
        return out
    return v


def _is_default(f, value):
    if f.default is not dataclasses.MISSING:
        return value == f.default
    if f.default_factory is not dataclasses.MISSING:
        return value == f.default_factory()
    return False
