"""Property tests of local-field arithmetic against an exact model.

The model of an element of Q(pi), pi^N = p, is its value in the PiExt of
tests/helpers.py, exact arithmetic in Q[pi]/(pi^N - p). It reads srt
elements only through their public `terms` view and `prec`. The tests of
the canonical form (TestCanonicalForm) read the term dict `_t` and the
precision pair `_prec` themselves, since `__eq__` and `__hash__` compare
those directly."""
import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest

from srt import (
    ContextError,
    LocalFieldContext,
    LocalFieldElement,
    NoNthRoot,
    PrecisionError,
    TruncatedSeries,
    TruncationUnderflow,
    is_pth_power,
    nth_root,
    taylor_factors,
)
from srt.localfield import (
    _integer_terms,
    _prec_pair,
    element_dot,
)
from srt.valuation import power

from draws import cases, fraction, nonzero
from helpers import PiExt, agrees, pi_digits, pth_power_residues, vp_fraction

P = 5
NS = (5, 8, 60)
M = 3  # relative precision of exact inverses
MAX_TERMS = 3


def model(x):
    """The exact PiExt value of the srt element x, read from its public
    terms (a representative of its ball when x is finite)."""
    N, p = x.ctx.N, x.ctx.p
    coeffs = [Fraction(0)] * N
    for e, u in x.terms.items():
        k, i = divmod(int(e * N), N)
        coeffs[i] += Fraction(u) * Fraction(p) ** k
    return PiExt(coeffs, N, p)


def precision_of(x):
    """Valuation lower bound that a product sees: the lowest exponent, or the
    precision of an element that is zero to precision."""
    return min(x.terms) if x.terms else x.prec


def assert_canonical(x):
    """One term per exponent class mod 1; exact units prime to p; finite
    units int residues in [1, p^k) prime to p, k = ceil(prec - e)."""
    classes = [e - (e.numerator // e.denominator) for e in x.terms]
    assert len(set(classes)) == len(classes)
    for e, u in x.terms.items():
        assert (e * x.ctx.N).denominator == 1
        if x.prec is None:
            assert isinstance(u, Fraction) and u != 0 and vp_fraction(u, P) == 0
        else:
            k = -((-(x.prec - e).numerator) // (x.prec - e).denominator)
            assert e < x.prec
            assert isinstance(u, int) and 0 < u < P**k and u % P != 0


def precision(rng, lo, hi, denominators):
    """None, or Fraction(n, d) with n in [lo, hi] and d from denominators."""
    return rng.choice([None, Fraction(rng.randint(lo, hi), rng.choice(denominators))])


def scalar(rng):
    """A rational operand, drawn as element draws its units."""
    return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5, 7, 25]))


def element(rng, N):
    ctx = LocalFieldContext(P, N=N, M=M)
    pairs = [(Fraction(rng.randint(-N, 2 * N), N), scalar(rng))
             for _ in range(rng.randint(0, MAX_TERMS))]
    return LocalFieldElement(ctx, pairs, precision(rng, -N, 3 * N, [N]))


def pair(rng):
    N = rng.choice(NS)
    return element(rng, N), element(rng, N)


def unit(rng):
    """An element with a nonzero leading term, exact or not."""
    x = element(rng, rng.choice(NS))
    while not x.terms:  # drawn anew
        x = element(rng, rng.choice(NS))
    return x


class TestRingOperations:
    @cases(40)
    def test_add_sub_neg(self, rng):
        a, b = pair(rng)
        prec = min((q for q in (a.prec, b.prec) if q is not None), default=None)
        for got, want in ((a + b, model(a) + model(b)), (a - b, model(a) - model(b))):
            assert got.prec == prec
            assert agrees(model(got), want, prec)
            assert_canonical(got)
        neg = -a
        assert neg.prec == a.prec
        assert agrees(model(neg), -model(a), a.prec)
        assert_canonical(neg)

    @cases(40)
    def test_sum_is_the_chain_of_adds(self, rng):
        N = rng.choice(NS)
        xs = [element(rng, N) for _ in range(rng.randint(1, 6))]
        prec = precision(rng, -60, 180, [1, 5, 60])
        chain = functools.reduce(operator.add, xs)
        if prec is not None:
            chain = chain.truncate(prec)
        got = element_dot(xs, [xs[0].ctx.one()] * len(xs), prec)
        assert got._t == chain._t
        assert got._prec == chain._prec
        assert_canonical(got)

    @cases(40)
    def test_dot_is_the_chain_of_products_and_adds(self, rng):
        N = rng.choice(NS)
        pairs = [(element(rng, N), element(rng, N) if rng.choice([False, True]) else scalar(rng))
                 for _ in range(rng.randint(1, 5))]
        prec = precision(rng, -60, 180, [1, 5, 60])
        # factors may be exact, finite, an exact zero or zero to precision
        xs, ys = (list(t) for t in zip(*pairs))
        chain = functools.reduce(operator.add, [x * y for x, y in pairs])
        if prec is not None:
            chain = chain.truncate(prec)
        got = element_dot(xs, ys, prec)
        assert got._t == chain._t
        assert got._prec == chain._prec
        assert_canonical(got)
        other = LocalFieldContext(P, N=7, M=M).one()
        with pytest.raises(ContextError):
            element_dot(xs + [other], ys + [1], prec)
        with pytest.raises(ContextError):
            element_dot(xs, ys[:-1] + [other], prec)

    @cases(40)
    def test_mul(self, rng):
        a, b = pair(rng)
        got = a * b
        zero = (not a.terms and a.prec is None) or (not b.terms and b.prec is None)
        if zero:
            assert not got.terms and got.prec is None
            return
        bounds = []
        if a.prec is not None:
            bounds.append(a.prec + precision_of(b))
        if b.prec is not None:
            bounds.append(b.prec + precision_of(a))
        prec = min(bounds, default=None)
        assert got.prec == prec
        assert agrees(model(got), model(a) * model(b), prec)
        assert_canonical(got)


class TestInverse:
    @cases(40)
    def test_inverse(self, rng):
        x = unit(rng)
        y = x.inverse()
        assert_canonical(y)
        v = min(x.terms)
        if x.prec is None and len(x.terms) == 1:
            assert y.prec is None
            assert model(x * y) == 1
            return
        rel = x.prec - v if x.prec is not None else M
        assert y.prec == -v + rel
        assert agrees(model(x) * model(y), 1, rel)
        z = x * y - 1
        assert z.valuation_lower_bound() >= z.prec

    @cases(40)
    def test_relative_precision_of_exact_inverse(self, rng):
        # a one-term exact element has an exact inverse (test_inverse)
        x, rel = unit(rng), rng.randint(1, 4)
        while not (x.prec is None and len(x.terms) > 1):  # drawn anew
            x = unit(rng)
        x = LocalFieldElement(LocalFieldContext(P, N=x.ctx.N, M=rel), list(x.terms.items()))
        y = x.inverse()
        v = min(x.terms)
        assert y.prec == -v + rel
        assert agrees(model(x) * model(y), 1, rel)


class TestPrecisionMoves:
    @cases(40)
    def test_truncate(self, rng):
        x = element(rng, rng.choice(NS))
        q = rng.randint(-2, 4) + Fraction(rng.randint(1, 60), 60)
        got = x.truncate(q)
        prec = q if x.prec is None else min(q, x.prec)
        assert got.prec == prec
        assert agrees(model(got), model(x), prec)
        assert_canonical(got)


class TestRoots:
    @cases(40)
    def test_fifth_root_of_a_fifth_power(self, rng):
        """nth_root(y^5, 5) never refuses once y is known beyond relative
        precision 5/4, the Hensel level; the root is y (no other 5th root of
        unity lies in these fields) to relative precision that of y^5 less 1,
        and it is the power test's root."""
        y = unit(rng)
        while not (y.prec is None or y.prec - min(y.terms) > Fraction(5, 4)):  # drawn anew
            y = unit(rng)
        v = min(y.terms)
        x = y**5
        root = nth_root(x, 5)
        assert root == is_pth_power(x).root
        assert_canonical(root)
        fifth = model(root) ** 5
        if root.prec is None:
            assert agrees(model(root), model(y), None)
            assert agrees(fifth, model(x), None)
            return
        rel = (x.prec - 5 * v if x.prec is not None else M) - 1
        assert root.prec == v + rel
        assert agrees(model(root), model(y), root.prec)
        assert agrees(fifth, model(x), 5 * v + rel + 1)


def prime_to(p, n):
    """n moved off the multiples of p."""
    return n + 1 if n % p == 0 else n


def near_fifth_power(rng):
    """A finite element of Q_5(pi), pi^N = 5, N in NS: pi^s * y^5 for a unit
    y, most often one term off, cut to a precision above its lowest term.
    The draws lean to the balls that a verdict can get wrong: N = 5, where
    the digit table decides a whole ball; y a rational and the term off at
    valuation 1, so the known terms lie in Q_5; and a precision in (1, 5/4],
    where the level 1 is known and the Hensel level is not."""
    N = rng.choice((5,) + NS)
    ctx = LocalFieldContext(P, N=N, M=M)

    def digit():
        return prime_to(P, rng.randint(-30, 30))

    def exponent():
        return Fraction(rng.randint(1, 2 * N), N)

    y = LocalFieldElement(ctx, [(0, digit())])
    if rng.random() < 1 / 3:
        y = y + LocalFieldElement(ctx, [(exponent(), digit()) for _ in range(rng.randint(0, 2))])
    x = y**P
    if rng.random() < 1 / 2:
        off = rng.choice([None, Fraction(1), Fraction(1), Fraction(1)])
    else:
        off = exponent()
    if off is not None:
        x = x + ctx.pi_power(off, digit())
    # most often a power of pi that keeps x a candidate 5th power
    s = rng.randint(-1, 1) * P + rng.choice([0, 0, 0, 1])
    x = x * ctx.pi_power(Fraction(s, N))
    if rng.random() < 2 / 3:
        above = rng.choice([Fraction(k, N) for k in range(N + 1, N * 5 // 4 + 1)])
    else:
        above = Fraction(rng.randint(1, 3 * N), rng.choice([N, 7]))
    return x.truncate(min(x.terms) + above)


def ball(rng, x, count=4):
    """`count` exact elements of the ball of x, each the terms of x plus up
    to three random terms at or above its precision. An x that is exact, or
    not an element, is its own lift."""
    if not isinstance(x, LocalFieldElement) or x.prec is None:
        return [x] * count
    N = x.ctx.N
    low = math.ceil(x.prec * N)

    def extra():
        return [(Fraction(rng.randint(low, low + 2 * N), N), rng.randint(-30, 30))
                for _ in range(rng.randint(0, 3))]

    return [LocalFieldElement(x.ctx, [*x.terms.items(), *extra()]) for _ in range(count)]


# (L, r) for N: a unit is a 5th power iff its digits mod pi^L, L/N > 5/4,
# are those of y^5 for a unit y mod pi^r (helpers.pth_power_residues); the
# table is cheap for these N
FIFTH_POWER_TABLES = {5: (7, 2), 8: (11, 3)}


@functools.cache
def fifth_powers(N):
    L, r = FIFTH_POWER_TABLES[N]
    return pth_power_residues(P, N, L, r)


def oracle_kinds(x):
    """The verdicts of the srt-free digit table on every class modulo pi^L
    of the ball of x, one class when x is exact; None when the ball holds
    more than 125 classes."""
    N = x.ctx.N
    L = FIFTH_POWER_TABLES[N][0]
    v = min(x.terms)
    if (v * N) % P:
        return {"no"}
    unit = x * x.ctx.pi_power(-v)
    known = L if unit.prec is None else min(L, math.ceil(unit.prec * N))
    if L - known > 3:
        return None
    head = pi_digits(model(unit), L)[:known]
    return {
        "yes" if head + tail in fifth_powers(N) else "no"
        for tail in itertools.product(range(P), repeat=L - known)
    }


def evaluation(rng):
    """(series, x): 1 to 9 coefficients, each a rational or an exact or
    finite-precision element of Q_p(pi), a tail bound (const, slope), and a
    point x, exact or not, with a known valuation v(x) > 0."""
    ctx = LocalFieldContext(rng.choice([3, 5, 7]), rng.randint(1, 5), 4)
    N = ctx.N

    def element(low):
        terms = [(Fraction(rng.randint(low, 3 * N), N), nonzero(rng, 30))
                 for _ in range(rng.randint(1, 3))]
        x = LocalFieldElement(ctx, terms)
        if rng.choice([False, True]):
            return x.truncate(min(e for e, _ in terms) + Fraction(rng.randint(1, 4 * N), N))
        return x

    coefficients = [element(-N) if rng.choice([False, True]) else fraction(rng, -12, 12, 6)
                    for _ in range(rng.randint(1, 9))]
    x = element(1)
    while not x.terms:  # drawn anew
        x = element(1)
    bound = (fraction(rng, -12, 12, 6), Fraction(rng.randint(-4, 6), rng.randint(1, 4)))
    return TruncatedSeries(coefficients, tail_bound=bound, p=ctx.p), x


def horner(series, x):
    """The series at x by Horner's rule, cut to the certified floor."""
    acc = x.ctx.one() * series.coefficients[-1]
    for c in reversed(series.coefficients[:-1]):
        acc = acc * x + c
    return acc.truncate(series.tail_floor(x.valuation().as_fraction()))


class TestLifts:
    """An element at a finite precision stands for the ball of its lifts, and
    an answer on it must hold on every lift: each public entry that takes one
    answers every exact lift alike, below the precision it states."""

    @cases(40)
    def test_is_pth_power(self, rng):
        x = near_fifth_power(rng)
        lifts = ball(rng, x)
        verdict = is_pth_power(x).kind
        kinds = [is_pth_power(lift).kind for lift in lifts]
        if x.ctx.N in FIFTH_POWER_TABLES:
            assert [{kind} for kind in kinds] == [oracle_kinds(lift) for lift in lifts]
            kinds_of_x = oracle_kinds(x)
            if kinds_of_x is not None and verdict != "undecidable":
                assert kinds_of_x == {verdict}
        assert set(kinds) <= {"yes", "no"}
        if verdict != "undecidable":
            assert set(kinds) == {verdict}

    @cases(40)
    def test_nth_root(self, rng):
        x = near_fifth_power(rng)
        lifts, n = ball(rng, x), rng.choice([2, 5])
        try:
            root = nth_root(x, n)
        except NoNthRoot:
            for lift in lifts:
                with pytest.raises(NoNthRoot):
                    nth_root(lift, n)
            return
        except PrecisionError:
            return
        for lift in lifts:
            assert not (nth_root(lift, n) - root).terms

    @cases(40)
    def test_inverse(self, rng):
        x = near_fifth_power(rng)
        inverse = x.inverse()
        for lift in ball(rng, x):
            assert not (lift.inverse() - inverse).terms

    @cases(40)
    def test_taylor_factors_at_a_finite_center(self, rng):
        center = near_fifth_power(rng)
        lifts = ball(rng, center)
        factors = [(rng.choice([0, 2, -1, 5, Fraction(1, 5)]), rng.randint(-3, 3))
                   for _ in range(rng.randint(1, 3))]
        T = rng.randint(0, 6)
        try:
            got = taylor_factors(factors, center, T, P).coefficients
        except PrecisionError:
            # a root equal to the center to its precision
            return
        for lift in lifts:
            for g, want in zip(taylor_factors(factors, lift, T, P).coefficients, got):
                assert not (g - want).terms

    @cases(40)
    def test_evaluation_matches_horner_and_every_lift(self, rng):
        series, x = evaluation(rng)
        if series.tail_bound[1] + min(x.terms) <= 0:
            with pytest.raises(TruncationUnderflow, match="no tail bound"):
                series.evaluate(x)
            return
        got = series.evaluate(x)
        if x.prec is None:
            want = horner(series, x)
            assert got._t == want._t
            assert got._prec == want._prec
        # the point and the coefficients are lifted alike
        points = ball(rng, x, 8)
        columns = [ball(rng, c, 8) for c in series.coefficients]
        for point, coefficients in zip(points, zip(*columns)):
            value = TruncatedSeries(list(coefficients), series.tail_bound, series.p).evaluate(point)
            assert value.prec == series.tail_floor(min(x.terms))
            assert not (value - got).terms


def cut_evaluation(rng):
    """(series, x) of `evaluation` with some coefficients replaced by a
    rational or an element far above the floor, an exact zero (0 or the
    element) or an element that is zero to a precision."""
    series, x = evaluation(rng)
    ctx = x.ctx
    p, N = ctx.p, ctx.N
    coefficients = list(series.coefficients)
    for i in range(len(coefficients)):
        kind = rng.choice(["keep", "keep", "high", "high", "zero", "exact zero", "ball"])
        high = rng.randint(0, 12)
        unit = prime_to(p, rng.randint(1, 30))
        if kind == "high" and rng.choice([False, True]):
            coefficients[i] = Fraction(unit * p**high, prime_to(p, rng.randint(1, 4)))
        elif kind == "high":
            e = Fraction(high * N + rng.randint(0, N - 1), N)
            coefficients[i] = ctx.pi_power(e, unit, rng.choice([None, e + 1, e + Fraction(1, N)]))
        elif kind == "zero":
            coefficients[i] = rng.choice([0, Fraction(0)])
        elif kind == "exact zero":
            coefficients[i] = ctx.zero()
        elif kind == "ball":
            coefficients[i] = ctx.zero(Fraction(rng.randint(-N, 8 * N), N))
    return TruncatedSeries(coefficients, series.tail_bound, series.p), x


class TestEvaluation:
    @cases(100)
    def test_evaluation_is_the_dot_of_every_pair(self, rng):
        """`evaluate` hands the dot only the pairs below the floor; the dot
        of every pair c_i * x^i, i = 0..T, at the floor is the reference,
        in the term dict and the precision pair alike."""
        series, x = cut_evaluation(rng)
        floor = series.tail_floor(min(x.terms))
        if floor is None:
            with pytest.raises(TruncationUnderflow, match="no tail bound"):
                series.evaluate(x)
            return
        powers = [x.ctx.one()]
        for _ in range(series.order):
            powers.append(powers[-1] * x)
        want = element_dot(powers, series.coefficients, floor)
        got = series.evaluate(x)
        assert got._t == want._t
        assert got._prec == want._prec


PRIMES = (3, 5, 7, 11)


def context(rng, primes=PRIMES, Ns=range(1, 13)):
    return LocalFieldContext(rng.choice(primes), rng.choice(Ns), M)


def rational(rng, p):
    """An int or a Fraction, negative or zero at times, with p in the
    numerator or the denominator at times."""
    num = rng.randint(-60, 60) * p ** rng.randint(0, 2)
    if rng.choice([False, True]):
        return num
    return Fraction(num, rng.choice([1, 2, 4, 6]) * p ** rng.randint(0, 2))


def nonzero_rational(rng, p):
    q = rational(rng, p)
    while not q:  # drawn anew
        q = rational(rng, p)
    return q


def raw_pairs(rng, p, N):
    """(j, (num, den)) with num and den prime to p, den > 0, not always
    reduced, as products of canonical terms hand them to the merge."""
    pairs = []
    for _ in range(rng.randint(0, 6)):
        j = rng.randint(-2 * N, 3 * N)
        pairs.append((j, (prime_to(p, rng.randint(-80, 80)), prime_to(p, rng.randint(1, 40)))))
    return pairs


def canonicalize(ctx, pairs, prec=None):
    """The term dict of the sum of the terms (j, (num, den)) in `pairs` at
    the precision prec: element_dot of one-term elements with ones, which
    merges them once and canonicalizes the classes once. A single term times
    1 would be a shift, so it is summed as two halves instead."""
    terms = [LocalFieldElement._make(ctx, {j: u}, None) for j, u in pairs]
    if len(terms) == 1:
        return element_dot(terms * 2, [Fraction(1, 2)] * 2, prec)._t
    return element_dot(terms, [1] * len(terms), prec)._t if terms else {}


def assert_canonical_dict(t, p, N, prec):
    """Sorted by j, one term per class of j mod N, units prime to p: reduced
    with a positive denominator when exact, int residues in [0, p^k) with
    denominator 1 at finite precision, k = ceil(prec - j/N)."""
    js = list(t)
    assert js == sorted(js)
    assert len({j % N for j in js}) == len(js)
    for j, (num, den) in t.items():
        assert num % p != 0 and den % p != 0
        if prec is None:
            assert den > 0 and math.gcd(num, den) == 1
        else:
            k = math.ceil(Fraction(*prec) - Fraction(j, N))
            assert den == 1 and 0 <= num < p**k


class TestCanonicalForm:
    @cases(40)
    def test_one_term_constructors_match_the_canonicalizer(self, rng):
        """from_rational, pi_power and the coerced operand of x + q build one
        exact term without the canonicalizer; their `_t` and `_prec` are the
        canonicalizer's own, and so are those of an element whose two terms
        merge into the same value."""
        ctx = context(rng)
        q = rational(rng, ctx.p)
        e = Fraction(rng.randint(-2 * ctx.N, 2 * ctx.N), ctx.N)
        x = LocalFieldElement(ctx, [(Fraction(1, ctx.N), 1)])
        for built, exponent in (
            (ctx.from_rational(q), 0),
            (x._coerce(q), 0),
            (ctx.pi_power(e, q), e),
        ):
            want = canonicalize(ctx, _integer_terms(ctx, [(exponent, q)]))
            merged = LocalFieldElement(ctx, [(exponent, 2 * q), (exponent, -q), (1, 0)])
            assert built._t == want == merged._t
            assert list(built._t) == list(merged._t)
            assert built._prec is None and merged._prec is None
            assert built == merged and hash(built) == hash(merged)
        assert (x + q)._t == (x + ctx.from_rational(q))._t

    @cases(40)
    def test_from_rational_at_a_precision(self, rng):
        ctx = context(rng)
        p, N = ctx.p, ctx.N
        q = rational(rng, p)
        prec = Fraction(rng.randint(-N, 4 * N), rng.choice([1, N, 7]))
        built = ctx.from_rational(q, prec)
        general = LocalFieldElement(ctx, [(0, q), (0, 0), (1, 0)], prec)
        assert (built._t, built._prec) == (general._t, general._prec) == (
            canonicalize(ctx, _integer_terms(ctx, [(0, q)]), prec),
            _prec_pair(prec, N),
        )
        assert_canonical_dict(built._t, p, N, built._prec)

    @cases(40)
    def test_canonicalizer_output(self, rng):
        ctx = context(rng)
        p, N = ctx.p, ctx.N
        pairs = raw_pairs(rng, p, N)
        exact = canonicalize(ctx, pairs)
        assert_canonical_dict(exact, p, N, None)
        # the value of each class is kept exactly
        for f in range(N):
            want = sum(
                (Fraction(num, den) * Fraction(p) ** (j // N) for j, (num, den) in pairs if j % N == f),
                Fraction(0),
            )
            got = [Fraction(num, den) * Fraction(p) ** (j // N) for j, (num, den) in exact.items() if j % N == f]
            assert sum(got, Fraction(0)) == want
        q = Fraction(rng.randint(-2 * N, 4 * N), rng.choice([1, N, 3]))
        assert_canonical_dict(canonicalize(ctx, pairs, q), p, N, _prec_pair(q, N))


def factor(rng, ctx):
    """An element of ctx: exact, at a finite precision, an exact zero or zero
    to precision, drawn as a sum of terms or as ctx.zero."""
    N = ctx.N
    if rng.choice([False, True]):
        return ctx.zero(rng.choice([None, rng.randint(-2, 3)]))
    terms = [(Fraction(rng.randint(-N, 2 * N), N), rational(rng, ctx.p))
             for _ in range(rng.randint(0, 3))]
    return LocalFieldElement(ctx, terms, precision(rng, -N, 3 * N, [N]))


class TestRationalOperands:
    @cases(40)
    def test_a_rational_reads_as_its_element(self, rng):
        """element_dot reads a rational y straight into one exact term: the
        sum has the `_t` and `_prec` it has with ctx.from_rational(y) in its
        place, for y an int or a Fraction with p in the numerator or the
        denominator, +-1 or 0."""
        ctx = context(rng)
        xs = [factor(rng, ctx) for _ in range(rng.randint(1, 4))]
        ys = [rational(rng, ctx.p) if rng.random() < 1 / 2 else rng.choice([1, -1, 0]) for _ in xs]
        prec = precision(rng, -ctx.N, 3 * ctx.N, [1, ctx.N])
        got = element_dot(xs, ys, prec)
        want = element_dot(xs, [ctx.from_rational(y) for y in ys], prec)
        assert (got._t, got._prec) == (want._t, want._prec)
        assert list(got._t) == list(want._t)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([LocalFieldContext(5, N=4).zero()], [LocalFieldContext(5, N=7).one()]),
            ([LocalFieldContext(5, N=4).one(), LocalFieldContext(5, N=7).zero()], [1, 2]),
            ([LocalFieldContext(5, N=4).one(), LocalFieldContext(5, N=7).zero()], [1, 0]),
        ],
        ids=["zero-beside-other", "other-zero-times-rational", "other-zero-times-zero"],
    )
    def test_an_exact_zero_still_meets_the_context_check(self, xs, ys):
        # a pair with an exact zero forms no product, yet its context is
        # checked before the pair is skipped
        with pytest.raises(ContextError):
            element_dot(xs, ys)


def one_term(rng, ctx):
    """u * pi^k with k negative, zero or positive, exact or at a precision
    above its term."""
    k = rng.randint(-2 * ctx.N, 2 * ctx.N)
    x = ctx.pi_power(Fraction(k, ctx.N), nonzero_rational(rng, ctx.p))
    if rng.choice([False, True]):
        return x
    above = Fraction(rng.randint(1, 3 * ctx.N), rng.choice([1, ctx.N, 7]))
    # the p-part of the unit moves the term
    return x.truncate(min(x.terms) + above)


def one_term_factor(rng, ctx):
    """A factor of one term: an int or a Fraction with p in the numerator or
    the denominator, +-1, or u * pi^k, exact or at a precision."""
    kind = rng.choice(["rational", "sign", "term"])
    if kind == "rational":
        return nonzero_rational(rng, ctx.p)
    if kind == "sign":
        return rng.choice([1, -1])
    return one_term(rng, ctx)


class TestShift:
    @cases(150)
    def test_a_one_term_factor_is_a_shift(self, rng):
        """A one-pair dot with a one-term factor on either side, exact or at
        a precision, has the `_t`, key order and `_prec` of the same product
        split over two pairs, x * y/2 + x * y/2, whose halves merge in the
        canonicalizer; its value agrees with the product in PiExt to its
        precision."""
        ctx = context(rng)
        x, y = factor(rng, ctx), one_term_factor(rng, ctx)
        prec = precision(rng, -ctx.N, 3 * ctx.N, [1, ctx.N, 7])
        sides = [((x,), (y,))]
        if isinstance(y, LocalFieldElement):
            sides.append(((y,), (x,)))
            ((e, u),) = y.terms.items()
            half = ctx.pi_power(e, Fraction(u) / 2)
            if y.prec is not None:
                half = half.truncate(y.prec)
        else:
            half = Fraction(y, 2)
        want = element_dot((x, x), (half, half), prec)
        product = model(x) * (model(y) if isinstance(y, LocalFieldElement) else y)
        for xs, ys in sides:
            got = element_dot(xs, ys, prec)
            assert (got._t, got._prec) == (want._t, want._prec)
            assert list(got._t) == list(want._t)
            assert agrees(model(got), product, got.prec)


class TestOneTermArithmetic:
    @cases(150)
    def test_the_power_of_one_term_is_the_square_and_multiply(self, rng):
        """x ** n of a one-term x, exact or at a precision, has the `_t` and
        `_prec` that `valuation.power`'s square-and-multiply gives, also for
        a negative n, which inverts first."""
        ctx = context(rng, (3, 5, 13), (1, 5, 24, 60))
        x, n = one_term(rng, ctx), rng.randint(-20, 64)
        got, want = x**n, power(x, n, ctx.one())
        assert (got._t, got._prec) == (want._t, want._prec)
        assert_canonical_dict(got._t, ctx.p, ctx.N, got._prec)

    @cases(150)
    def test_the_inverse_of_one_term_is_its_inverted_term(self, rng):
        """x.inverse() of u * pi^e is pi^-e / u, cut to q - 2e when x is
        known to q: the relative precision q - e of x."""
        ctx = context(rng, (3, 5, 13), (1, 5, 24, 60))
        x = one_term(rng, ctx)
        ((e, u),) = x.terms.items()
        want = ctx.pi_power(-e, 1 / Fraction(u))
        if x.prec is not None:
            want = want.truncate(x.prec - 2 * e)
        got = x.inverse()
        assert (got._t, got._prec) == (want._t, want._prec)


def fraction_repr(x):
    """The rendering of x from its public terms and precision, as Fractions
    print them."""
    p = x.ctx.p
    bits = []
    for e, u in x.terms.items():
        if e == 0:
            bits.append(f"{u}")
        elif e == 1:
            bits.append(f"{u}*{p}")
        else:
            bits.append(f"{u}*{p}^({e})")
    body = " + ".join(bits) if bits else "0"
    if x.prec is not None:
        body += f" + O({p}^({x.prec}))"
    return body


class TestRepr:
    @cases(40)
    def test_repr_renders_the_terms_and_precision_as_fractions(self, rng):
        # exponents negative, integral and 1 (rendered *p), precisions
        # integral and fractional, and a zero to precision
        ctx = context(rng)
        N = ctx.N

        def exponent():
            if rng.random() < 1 / 2:
                return Fraction(rng.randint(-2 * N, 2 * N), N)
            return Fraction(rng.choice([-1, 0, 1, 2]))

        terms = [(exponent(), rational(rng, ctx.p)) for _ in range(rng.randint(0, 4))]
        prec = precision(rng, -N, 4 * N, [1, N, 3])
        for x in (LocalFieldElement(ctx, terms, prec), ctx.zero(prec)):
            assert repr(x) == fraction_repr(x)
