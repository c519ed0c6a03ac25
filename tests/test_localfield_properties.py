"""Property tests of local-field arithmetic against a plain-Fraction model.

The model holds an element of Q(pi), pi^N = p, as its N rational coordinates
c_0..c_{N-1} in the basis 1, pi, ..., pi^(N-1), so x = sum c_i pi^i. It reads
srt elements only through their public `terms` view and `prec`. The tests of
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

from helpers import PiExt, agrees, pi_digits, pth_power_residues

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

P = 5
NS = (5, 8, 60)
M = 3  # relative precision of exact inverses
MAX_TERMS = 3

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def vp(q):
    """p-adic valuation of a nonzero rational."""
    v, num, den = 0, q.numerator, q.denominator
    while num % P == 0:
        num //= P
        v += 1
    while den % P == 0:
        den //= P
        v -= 1
    return v


def model(x):
    """Coordinates of the value of the srt element x."""
    N = x.ctx.N
    c = [Fraction(0)] * N
    for e, u in x.terms.items():
        m, i = divmod(int(e * N), N)
        c[i] += Fraction(u) * Fraction(P) ** m
    return c


def m_add(a, b):
    return [x + y for x, y in zip(a, b)]


def m_neg(a):
    return [-x for x in a]


def m_mul(a, b):
    N = len(a)
    out = [Fraction(0)] * N
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                if y:
                    if i + k < N:
                        out[i + k] += x * y
                    else:
                        out[i + k - N] += P * x * y
    return out


def m_val(a):
    """Valuation of sum a_i pi^i, None for 0: distinct i never cancel."""
    N = len(a)
    vals = [vp(x) + Fraction(i, N) for i, x in enumerate(a) if x]
    return min(vals) if vals else None


def m_one(N):
    return [Fraction(1)] + [Fraction(0)] * (N - 1)


def agree(a, b, prec):
    """a = b modulo p^prec (exactly when prec is None)."""
    v = m_val(m_add(a, m_neg(b)))
    return v is None or (prec is not None and v >= prec)


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
            assert isinstance(u, Fraction) and u != 0 and vp(u) == 0
        else:
            k = -((-(x.prec - e).numerator) // (x.prec - e).denominator)
            assert e < x.prec
            assert isinstance(u, int) and 0 < u < P**k and u % P != 0


@st.composite
def elements(draw, N):
    ctx = LocalFieldContext(P, N=N, M=M)
    n_terms = draw(st.integers(0, MAX_TERMS))
    pairs = []
    for _ in range(n_terms):
        j = draw(st.integers(-N, 2 * N))
        u = Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 2, 3, 5, 7, 25])))
        pairs.append((Fraction(j, N), u))
    prec = None if draw(st.booleans()) else Fraction(draw(st.integers(-N, 3 * N)), N)
    return LocalFieldElement(ctx, pairs, prec)


# rational operands, as elements(N) draws its units
SCALARS = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 25]))


@st.composite
def pairs_of(draw):
    N = draw(st.sampled_from(NS))
    return draw(elements(N)), draw(elements(N))


@st.composite
def units(draw):
    """Elements with a nonzero leading term, exact or not."""
    N = draw(st.sampled_from(NS))
    x = draw(elements(N))
    hypothesis.assume(x.terms)
    return x


class TestRingOperations:
    @SETTINGS
    @given(pairs_of())
    def test_add_sub_neg(self, ab):
        a, b = ab
        prec = min((q for q in (a.prec, b.prec) if q is not None), default=None)
        for got, want in (
            (a + b, m_add(model(a), model(b))),
            (a - b, m_add(model(a), m_neg(model(b)))),
        ):
            assert got.prec == prec
            assert agree(model(got), want, prec)
            assert_canonical(got)
        neg = -a
        assert neg.prec == a.prec
        assert agree(model(neg), m_neg(model(a)), a.prec)
        assert_canonical(neg)

    @SETTINGS
    @given(
        st.sampled_from(NS).flatmap(lambda N: st.lists(elements(N), min_size=1, max_size=6)),
        st.none() | st.builds(Fraction, st.integers(-60, 180), st.sampled_from([1, 5, 60])),
    )
    def test_sum_is_the_chain_of_adds(self, xs, prec):
        chain = functools.reduce(operator.add, xs)
        if prec is not None:
            chain = chain.truncate(prec)
        got = element_dot(xs, [xs[0].ctx.one()] * len(xs), prec)
        assert got._t == chain._t
        assert got._prec == chain._prec
        assert_canonical(got)

    @SETTINGS
    @given(
        st.sampled_from(NS).flatmap(
            lambda N: st.lists(
                st.tuples(elements(N), elements(N) | SCALARS), min_size=1, max_size=5
            )
        ),
        st.none() | st.builds(Fraction, st.integers(-60, 180), st.sampled_from([1, 5, 60])),
    )
    def test_dot_is_the_chain_of_products_and_adds(self, pairs, prec):
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

    @SETTINGS
    @given(pairs_of())
    def test_mul(self, ab):
        a, b = ab
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
        assert agree(model(got), m_mul(model(a), model(b)), prec)
        assert_canonical(got)


class TestInverse:
    @SETTINGS
    @given(units())
    def test_inverse(self, x):
        y = x.inverse()
        assert_canonical(y)
        v = min(x.terms)
        if x.prec is None and len(x.terms) == 1:
            assert y.prec is None
            assert model(x * y) == m_one(x.ctx.N)
            return
        rel = x.prec - v if x.prec is not None else M
        assert y.prec == -v + rel
        assert agree(m_mul(model(x), model(y)), m_one(x.ctx.N), rel)
        z = x * y - 1
        assert z.valuation_lower_bound() >= z.prec

    @SETTINGS
    @given(units(), st.integers(1, 4))
    def test_relative_precision_of_exact_inverse(self, x, rel):
        # a one-term exact element has an exact inverse (test_inverse)
        hypothesis.assume(x.prec is None and len(x.terms) > 1)
        x = LocalFieldElement(LocalFieldContext(P, N=x.ctx.N, M=rel), list(x.terms.items()))
        y = x.inverse()
        v = min(x.terms)
        assert y.prec == -v + rel
        assert agree(m_mul(model(x), model(y)), m_one(x.ctx.N), rel)


class TestPrecisionMoves:
    @SETTINGS
    @given(st.sampled_from(NS).flatmap(elements), st.integers(-2, 4), st.integers(1, 60))
    def test_truncate(self, x, whole, sixtieths):
        q = whole + Fraction(sixtieths, 60)
        got = x.truncate(q)
        prec = q if x.prec is None else min(q, x.prec)
        assert got.prec == prec
        assert agree(model(got), model(x), prec)
        assert_canonical(got)


class TestRoots:
    @SETTINGS
    @given(units())
    def test_fifth_root_of_a_fifth_power(self, y):
        """nth_root(y^5, 5) never refuses once y is known beyond relative
        precision 5/4, the Hensel level; the root is y (no other 5th root of
        unity lies in these fields) to relative precision that of y^5 less 1,
        and it is the power test's root."""
        v = min(y.terms)
        hypothesis.assume(y.prec is None or y.prec - v > Fraction(5, 4))
        x = y**5
        root = nth_root(x, 5)
        assert root == is_pth_power(x).root
        assert_canonical(root)
        fifth = m_one(x.ctx.N)
        for _ in range(5):
            fifth = m_mul(fifth, model(root))
        if root.prec is None:
            assert agree(model(root), model(y), None)
            assert agree(fifth, model(x), None)
            return
        rel = (x.prec - 5 * v if x.prec is not None else M) - 1
        assert root.prec == v + rel
        assert agree(model(root), model(y), root.prec)
        assert agree(fifth, model(x), 5 * v + rel + 1)


@st.composite
def near_fifth_powers(draw):
    """A finite element of Q_5(pi), pi^N = 5, N in NS: pi^s * y^5 for a unit
    y, most often one term off, cut to a precision above its lowest term.
    The draws lean to the balls that a verdict can get wrong: N = 5, where
    the digit table decides a whole ball; y a rational and the term off at
    valuation 1, so the known terms lie in Q_5; and a precision in (1, 5/4],
    where the level 1 is known and the Hensel level is not."""
    N = draw(st.sampled_from((5,) + NS))
    ctx = LocalFieldContext(P, N=N, M=M)
    digit = st.integers(-30, 30).filter(lambda u: u % P)
    exponent = st.builds(Fraction, st.integers(1, 2 * N), st.just(N))
    y = LocalFieldElement(ctx, [(0, draw(digit))])
    if draw(st.sampled_from([False, False, True])):
        y = y + LocalFieldElement(ctx, draw(st.lists(st.tuples(exponent, digit), max_size=2)))
    x = y**P
    off = draw(st.sampled_from([None, Fraction(1), Fraction(1), Fraction(1)]) | exponent)
    if off is not None:
        x = x + ctx.pi_power(off, draw(digit))
    # most often a power of pi that keeps x a candidate 5th power
    s = draw(st.integers(-1, 1)) * P + draw(st.sampled_from([0, 0, 0, 1]))
    x = x * ctx.pi_power(Fraction(s, N))
    window = [Fraction(k, N) for k in range(N + 1, N * 5 // 4 + 1)]
    above = draw(
        st.sampled_from(window)
        | st.sampled_from(window)
        | st.builds(Fraction, st.integers(1, 3 * N), st.sampled_from([N, 7]))
    )
    return x.truncate(min(x.terms) + above)


@st.composite
def balls(draw, centers=near_fifth_powers(), count=4):
    """(x, lifts): x drawn from `centers` and `count` exact elements of its
    ball, each the terms of x plus up to three random terms at or above its
    precision. An x that is exact, or not an element, is its own lift."""
    x = draw(centers)
    if not isinstance(x, LocalFieldElement) or x.prec is None:
        return x, [x] * count
    N = x.ctx.N
    low = math.ceil(x.prec * N)
    exponent = st.builds(Fraction, st.integers(low, low + 2 * N), st.just(N))
    extra = st.lists(st.tuples(exponent, st.integers(-30, 30)), max_size=3)
    return x, [LocalFieldElement(x.ctx, [*x.terms.items(), *draw(extra)]) for _ in range(count)]


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
    head = pi_digits(PiExt(model(unit), N, P), L)[:known]
    return {
        "yes" if head + tail in fifth_powers(N) else "no"
        for tail in itertools.product(range(P), repeat=L - known)
    }


@st.composite
def evaluations(draw):
    """(series, x): 1 to 9 coefficients, each a rational or an exact or
    finite-precision element of Q_p(pi), a tail bound (const, slope), and a
    point x, exact or not, with a known valuation v(x) > 0."""
    ctx = LocalFieldContext(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 5)), 4)
    N = ctx.N
    rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))

    def element(low):
        exponent = st.builds(Fraction, st.integers(low, 3 * N), st.just(N))
        unit = st.integers(-30, 30).filter(bool)
        terms = draw(st.lists(st.tuples(exponent, unit), min_size=1, max_size=3))
        x = LocalFieldElement(ctx, terms)
        if draw(st.booleans()):
            above = Fraction(draw(st.integers(1, 4 * N)), N)
            return x.truncate(min(e for e, _ in terms) + above)
        return x

    coefficients = [
        element(-N) if draw(st.booleans()) else draw(rationals)
        for _ in range(draw(st.integers(1, 9)))
    ]
    x = element(1)
    hypothesis.assume(x.terms)
    bound = (draw(rationals), Fraction(draw(st.integers(-4, 6)), draw(st.integers(1, 4))))
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

    @SETTINGS
    @given(balls())
    def test_is_pth_power(self, ball):
        x, lifts = ball
        verdict = is_pth_power(x).kind
        kinds = [is_pth_power(lift).kind for lift in lifts]
        if x.ctx.N in FIFTH_POWER_TABLES:
            assert [{kind} for kind in kinds] == [oracle_kinds(lift) for lift in lifts]
            ball = oracle_kinds(x)
            if ball is not None and verdict != "undecidable":
                assert ball == {verdict}
        assert set(kinds) <= {"yes", "no"}
        if verdict != "undecidable":
            assert set(kinds) == {verdict}

    @SETTINGS
    @given(balls(), st.sampled_from([2, 5]))
    def test_nth_root(self, ball, n):
        x, lifts = ball
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

    @SETTINGS
    @given(balls())
    def test_inverse(self, ball):
        x, lifts = ball
        inverse = x.inverse()
        for lift in lifts:
            assert not (lift.inverse() - inverse).terms

    @SETTINGS
    @given(
        balls(),
        st.lists(st.tuples(st.sampled_from([0, 2, -1, 5, Fraction(1, 5)]), st.integers(-3, 3)),
                 min_size=1, max_size=3),
        st.integers(0, 6),
    )
    def test_taylor_factors_at_a_finite_center(self, ball, factors, T):
        center, lifts = ball
        try:
            got = taylor_factors(factors, center, T, P).coefficients
        except PrecisionError:
            # a root equal to the center to its precision
            return
        for lift in lifts:
            for g, want in zip(taylor_factors(factors, lift, T, P).coefficients, got):
                assert not (g - want).terms

    @SETTINGS
    @given(case=evaluations(), data=st.data())
    def test_evaluation_matches_horner_and_every_lift(self, case, data):
        series, x = case
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
        count = 8
        _, points = data.draw(balls(st.just(x), count))
        columns = [data.draw(balls(st.just(c), count))[1] for c in series.coefficients]
        for point, coefficients in zip(points, zip(*columns)):
            value = TruncatedSeries(list(coefficients), series.tail_bound, series.p).evaluate(point)
            assert value.prec == series.tail_floor(min(x.terms))
            assert not (value - got).terms


@st.composite
def cut_evaluations(draw):
    """(series, x) of `evaluations` with some coefficients replaced by a
    rational or an element far above the floor, an exact zero (0 or the
    element) or an element that is zero to a precision."""
    series, x = draw(evaluations())
    ctx = x.ctx
    p, N = ctx.p, ctx.N
    coefficients = list(series.coefficients)
    for i in range(len(coefficients)):
        kind = draw(st.sampled_from(["keep", "keep", "high", "high", "zero", "exact zero", "ball"]))
        high = draw(st.integers(0, 12))
        unit = draw(st.integers(1, 30).filter(lambda u: u % p))
        if kind == "high" and draw(st.booleans()):
            coefficients[i] = Fraction(unit * p**high, draw(st.integers(1, 4).filter(lambda d: d % p)))
        elif kind == "high":
            e = Fraction(high * N + draw(st.integers(0, N - 1)), N)
            prec = draw(st.sampled_from([None, e + 1, e + Fraction(1, N)]))
            coefficients[i] = ctx.pi_power(e, unit, prec)
        elif kind == "zero":
            coefficients[i] = draw(st.sampled_from([0, Fraction(0)]))
        elif kind == "exact zero":
            coefficients[i] = ctx.zero()
        elif kind == "ball":
            coefficients[i] = ctx.zero(Fraction(draw(st.integers(-N, 8 * N)), N))
    return TruncatedSeries(coefficients, series.tail_bound, series.p), x


class TestEvaluation:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cut_evaluations())
    def test_evaluation_is_the_dot_of_every_pair(self, case):
        """`evaluate` hands the dot only the pairs below the floor; the dot
        of every pair c_i * x^i, i = 0..T, at the floor is the reference,
        in the term dict and the precision pair alike."""
        series, x = case
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


def prime_to(p, n):
    """n moved off the multiples of p."""
    return n + 1 if n % p == 0 else n


@st.composite
def rationals(draw, p):
    """An int or a Fraction, negative or zero at times, with p in the
    numerator or the denominator at times."""
    num = draw(st.integers(-60, 60)) * p ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        return num
    den = draw(st.sampled_from([1, 2, 4, 6])) * p ** draw(st.integers(0, 2))
    return Fraction(num, den)


@st.composite
def raw_pairs(draw, p, N):
    """(j, (num, den)) with num and den prime to p, den > 0, not always
    reduced, as products of canonical terms hand them to the merge."""
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        j = draw(st.integers(-2 * N, 3 * N))
        num = prime_to(p, draw(st.integers(-80, 80)))
        den = prime_to(p, draw(st.integers(1, 40)))
        pairs.append((j, (num, den)))
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
    @SETTINGS
    @given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
    def test_one_term_constructors_match_the_canonicalizer(self, p, N, data):
        """from_rational, pi_power and the coerced operand of x + q build one
        exact term without the canonicalizer; their `_t` and `_prec` are the
        canonicalizer's own, and so are those of an element whose two terms
        merge into the same value."""
        ctx = LocalFieldContext(p, N, M)
        q = data.draw(rationals(p))
        e = Fraction(data.draw(st.integers(-2 * N, 2 * N)), N)
        x = LocalFieldElement(ctx, [(Fraction(1, N), 1)])
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

    @SETTINGS
    @given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
    def test_from_rational_at_a_precision(self, p, N, data):
        ctx = LocalFieldContext(p, N, M)
        q = data.draw(rationals(p))
        prec = Fraction(data.draw(st.integers(-N, 4 * N)), data.draw(st.sampled_from([1, N, 7])))
        built = ctx.from_rational(q, prec)
        general = LocalFieldElement(ctx, [(0, q), (0, 0), (1, 0)], prec)
        assert (built._t, built._prec) == (general._t, general._prec) == (
            canonicalize(ctx, _integer_terms(ctx, [(0, q)]), prec),
            _prec_pair(prec, N),
        )
        assert_canonical_dict(built._t, p, N, built._prec)

    @SETTINGS
    @given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
    def test_canonicalizer_output(self, p, N, data):
        pairs = data.draw(raw_pairs(p, N))
        ctx = LocalFieldContext(p, N, M)
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
        q = Fraction(data.draw(st.integers(-2 * N, 4 * N)), data.draw(st.sampled_from([1, N, 3])))
        assert_canonical_dict(canonicalize(ctx, pairs, q), p, N, _prec_pair(q, N))


@st.composite
def factors(draw, ctx):
    """An element of ctx: exact, at a finite precision, an exact zero or zero
    to precision."""
    N = ctx.N
    exponent = st.builds(Fraction, st.integers(-N, 2 * N), st.just(N))
    terms = draw(st.lists(st.tuples(exponent, rationals(ctx.p)), max_size=3))
    prec = draw(st.none() | st.builds(Fraction, st.integers(-N, 3 * N), st.just(N)))
    return LocalFieldElement(ctx, terms, prec)


class TestRationalOperands:
    @SETTINGS
    @given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
    def test_a_rational_reads_as_its_element(self, p, N, data):
        """element_dot reads a rational y straight into one exact term: the
        sum has the `_t` and `_prec` it has with ctx.from_rational(y) in its
        place, for y an int or a Fraction with p in the numerator or the
        denominator, +-1 or 0."""
        ctx = LocalFieldContext(p, N, M)
        xs = data.draw(st.lists(factors(ctx) | st.builds(ctx.zero, st.none() | st.integers(-2, 3)),
                                min_size=1, max_size=4))
        ys = [data.draw(rationals(p) | st.sampled_from([1, -1, 0])) for _ in xs]
        prec = data.draw(st.none() | st.builds(Fraction, st.integers(-N, 3 * N), st.sampled_from([1, N])))
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


def piext(x, ctx):
    """The exact PiExt value of the element or rational x of ctx, read from
    its public terms (a representative of its ball when x is finite)."""
    if not isinstance(x, LocalFieldElement):
        return PiExt.from_rational(x, ctx.N, ctx.p)
    coeffs = [Fraction(0)] * ctx.N
    for e, u in x.terms.items():
        k, i = divmod(int(e * ctx.N), ctx.N)
        coeffs[i] += Fraction(u) * Fraction(ctx.p) ** k
    return PiExt(coeffs, ctx.N, ctx.p)


@st.composite
def one_terms(draw, ctx):
    """u * pi^k with k negative, zero or positive, exact or at a precision
    above its term."""
    k = draw(st.integers(-2 * ctx.N, 2 * ctx.N))
    x = ctx.pi_power(Fraction(k, ctx.N), draw(rationals(ctx.p).filter(bool)))
    if draw(st.booleans()):
        return x
    above = Fraction(draw(st.integers(1, 3 * ctx.N)), draw(st.sampled_from([1, ctx.N, 7])))
    # the p-part of the unit moves the term
    return x.truncate(min(x.terms) + above)


@st.composite
def one_term_factors(draw, ctx):
    """A factor of one term: an int or a Fraction with p in the numerator or
    the denominator, +-1, or u * pi^k, exact or at a precision."""
    kind = draw(st.sampled_from(["rational", "sign", "term"]))
    if kind == "rational":
        return draw(rationals(ctx.p).filter(bool))
    if kind == "sign":
        return draw(st.sampled_from([1, -1]))
    return draw(one_terms(ctx))


class TestShift:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
    def test_a_one_term_factor_is_a_shift(self, p, N, data):
        """A one-pair dot with a one-term factor on either side, exact or at
        a precision, has the `_t`, key order and `_prec` of the same product
        split over two pairs, x * y/2 + x * y/2, whose halves merge in the
        canonicalizer; its value agrees with the product in PiExt to its
        precision."""
        ctx = LocalFieldContext(p, N, M)
        x = data.draw(factors(ctx) | st.builds(ctx.zero, st.none() | st.integers(-2, 3)))
        y = data.draw(one_term_factors(ctx))
        prec = data.draw(
            st.none() | st.builds(Fraction, st.integers(-N, 3 * N), st.sampled_from([1, N, 7]))
        )
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
        for xs, ys in sides:
            got = element_dot(xs, ys, prec)
            assert (got._t, got._prec) == (want._t, want._prec)
            assert list(got._t) == list(want._t)
            assert agrees(piext(got, ctx), piext(x, ctx) * piext(y, ctx), got.prec)


class TestOneTermArithmetic:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from((3, 5, 13)), st.sampled_from((1, 5, 24, 60)), st.data())
    def test_the_power_of_one_term_is_the_square_and_multiply(self, p, N, data):
        """x ** n of a one-term x, exact or at a precision, has the `_t` and
        `_prec` that `valuation.power`'s square-and-multiply gives, also for
        a negative n, which inverts first."""
        ctx = LocalFieldContext(p, N, M)
        x = data.draw(one_terms(ctx))
        n = data.draw(st.integers(-20, 64))
        got, want = x**n, power(x, n, ctx.one())
        assert (got._t, got._prec) == (want._t, want._prec)
        assert_canonical_dict(got._t, p, N, got._prec)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from((3, 5, 13)), st.sampled_from((1, 5, 24, 60)), st.data())
    def test_the_inverse_of_one_term_is_its_inverted_term(self, p, N, data):
        """x.inverse() of u * pi^e is pi^-e / u, cut to q - 2e when x is
        known to q: the relative precision q - e of x."""
        ctx = LocalFieldContext(p, N, M)
        x = data.draw(one_terms(ctx))
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
    @SETTINGS
    @given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
    def test_repr_renders_the_terms_and_precision_as_fractions(self, p, N, data):
        # exponents negative, integral and 1 (rendered *p), precisions
        # integral and fractional, and a zero to precision
        ctx = LocalFieldContext(p, N, M)
        exponent = st.builds(Fraction, st.integers(-2 * N, 2 * N), st.just(N)) | st.sampled_from(
            [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
        )
        terms = data.draw(st.lists(st.tuples(exponent, rationals(p)), max_size=4))
        prec = data.draw(
            st.none() | st.builds(Fraction, st.integers(-N, 4 * N), st.sampled_from([1, N, 3]))
        )
        for x in (LocalFieldElement(ctx, terms, prec), ctx.zero(prec)):
            assert repr(x) == fraction_repr(x)
