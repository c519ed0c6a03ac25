"""Unit tests for SL2 elements, trace-prescribed generators, generation
checks, and Sylow data, cross-checked by brute force over small fields."""
import collections
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import srt

from srt import (
    MatrixElement,
    element_order,
    generation_check,
    identity,
    minus_identity,
    solve_trace_system,
    standard_generators,
    sylow_data,
)
from srt.cli import EXIT_OK, dispatch
from srt.groups import (
    PreconditionViolated,
    ResourceLimit,
    Unsupported,
    _prime_factors,
    order_primes,
)

import helpers


class TestMatrixElement:
    def test_determinant_check(self):
        with pytest.raises(ValueError):
            MatrixElement(1, 0, 0, 2, 7)

    def test_group_axioms_small(self):
        q = 5
        a = MatrixElement(1, 1, 0, 1, q)
        b = MatrixElement(0, 1, -1, 0, q)
        assert (a * b) * b.inverse() == a
        assert a * identity(q) == a
        assert (a * a.inverse()).is_identity()
        assert a ** 3 == a * a * a
        assert a ** -2 == (a * a).inverse()

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            identity(5) * identity(7)


def _brute_order(mat):
    """Order by repeated multiplication, the reference for element_order."""
    return helpers.sl2_order((mat.a, mat.b, mat.c, mat.d), mat.q)


_PRIMES_TO_316 = [d for d in range(2, 317) if all(d % e for e in range(2, d))]


def _trial_division(n):
    """{prime: exponent} of 1 <= n < 317^2, in increasing order."""
    out = {}
    for d in _PRIMES_TO_316:
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestPrimeFactors:
    def test_matches_trial_division_below_10_5(self):
        # the cofactor left by the primes up to 41 goes to Pollard's rho from
        # 43^2 on: squares, cubes and products of two or three primes
        for n in range(1, 10**5):
            assert list(_prime_factors(n).items()) == list(_trial_division(n).items()), n

    def test_rho_splits_large_semiprimes_and_powers(self):
        p1, p2 = 1_000_000_007, 998_244_353
        assert _prime_factors(2 * 3 * p1 * p2) == {2: 1, 3: 1, p2: 1, p1: 1}
        assert _prime_factors(1_000_003**3) == {1_000_003: 3}
        assert _prime_factors(43 * p1 * p1) == {43: 1, p1: 2}

    def test_a_cached_q_is_still_checked(self):
        # 251.0 hashes as 251, so the check comes before the cache is read
        assert order_primes(251) == ((2, 5), (2, 3, 7))
        with pytest.raises(Unsupported, match="q must be prime, got 251.0"):
            order_primes(251.0)

    def test_refuses_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                _prime_factors(n)

    def test_group_request_on_a_57_bit_prime_is_fast(self, capsys):
        # q - 1 = 2 * 5^2 * 2631627900453977 defeated trial division
        q = 131581395022698851
        t0 = time.perf_counter()
        code = dispatch(["group", "--q", str(q), "--p", "5", "--mode", "criterion"])
        assert time.perf_counter() - t0 < 5
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["orders"] == {"alpha": q, "beta": q - 1, "alpha*beta": (q - 1) // 5}
        assert out["generation"]["verdict"] == "Generates"

    @pytest.mark.parametrize(
        "q, argv",
        [
            (251, ["--p", "5", "--mode", "criterion"]),
            (251, ["--p", "5", "--mode", "bfs"]),
            (251, ["--tau", "3", "--rho", "7", "--mode", "bfs"]),
            # q - 1 is 2 times two 40-bit primes: each factoring runs rho
            (
                1228559431195504946317379,
                ["--tau", "3", "--rho", "7", "--mode", "criterion"],
            ),
        ],
    )
    def test_group_request_factors_q_minus_1_and_q_plus_1_once(
        self, q, argv, monkeypatch, capsys
    ):
        # the primitive root, the closure and every element order share the
        # one factorization the request makes, from an emptied cache
        calls = collections.Counter()
        factor = srt.groups._prime_factors

        def counting_factor(n):
            calls[n] += 1
            return factor(n)

        monkeypatch.setattr(srt.groups, "_prime_factors", counting_factor)
        srt.groups._order_primes.cache_clear()
        dispatch(["group", "--q", str(q), *argv])
        assert json.loads(capsys.readouterr().out)["q"] == q
        assert calls == {q - 1: 1, q + 1: 1}


class TestElementOrder:
    def test_against_brute_force(self):
        # every element of SL2(F_q) for the small q, so every trace class
        for q in (2, 3, 5, 7, 11, 13):
            elements = [MatrixElement(*x, q) for x in helpers.sl2_elements(q)]
            assert len(set(elements)) == q * (q * q - 1)
            for mat in elements:
                assert element_order(mat) == _brute_order(mat), mat

    def test_minus_identity(self):
        assert element_order(minus_identity(11)) == 2

    def test_scalars_and_unipotents(self):
        q = 101
        unipotents = [
            MatrixElement(1, 1, 0, 1, q),
            MatrixElement(1, 0, 5, 1, q),
            MatrixElement(3, 1, -4, -1, q),  # trace 2, not triangular
        ]
        cases = [(identity(q), 1), (minus_identity(q), 2)]
        cases += [(u, q) for u in unipotents]
        cases += [(minus_identity(q) * u, 2 * q) for u in unipotents]
        for mat, order in cases:
            assert element_order(mat) == _brute_order(mat) == order, mat

    def test_non_prime_modulus_refused(self):
        # the trace argument needs a field; Z/9 and Z/15 are not fields
        for mat in (MatrixElement(1, 1, 0, 1, 9), MatrixElement(0, 1, -1, 0, 15)):
            with pytest.raises(Unsupported, match="prime"):
                element_order(mat)
            with pytest.raises(Unsupported, match="prime"):
                generation_check([mat], mat.q)


class TestTraceSystem:
    def test_prescribed_traces(self):
        q = 251
        beta = solve_trace_system(q, 17, 101)
        alpha = MatrixElement(1, 1, 0, 1, q)
        assert beta.trace() == 17
        assert (alpha * beta).trace() == 101
        assert beta.c != 0

    def test_degenerate_traces_rejected(self):
        with pytest.raises(Unsupported, match=r"pairwise distinct mod 251, got \[2, 17, 2, 249\]"):
            solve_trace_system(251, 2, 17)
        with pytest.raises(Unsupported, match=r"pairwise distinct mod 251, got \[17, 17, 2, 249\]"):
            solve_trace_system(251, 17, 17)


class TestStandardGenerators:
    def test_small_field(self):
        alpha, beta = standard_generators(13, 3)
        assert element_order(alpha) == 13
        assert element_order(beta) == 12
        assert element_order(alpha * beta) == 4  # (q - 1)/p
        assert beta ** 6 == minus_identity(13)

    def test_degenerate_trace_instance(self):
        # for (q, p) = (11, 5) the prescribed traces collide with +-2 mod q
        with pytest.raises(Unsupported, match="pairwise distinct mod 11"):
            standard_generators(11, 5)

    def test_validation(self):
        with pytest.raises(Unsupported):
            standard_generators(15, 5)
        with pytest.raises(Unsupported, match=r"p = 5 must divide q - 1 = 12"):
            standard_generators(13, 5)


class TestGenerationCheck:
    def test_bfs_matches_criterion(self):
        q = 13
        alpha, beta = standard_generators(q, 3)
        via_bfs = generation_check([alpha, beta], q, mode="bfs")
        via_criterion = generation_check([alpha, beta], q, mode="criterion")
        assert via_bfs.kind == via_criterion.kind == "Generates"
        assert via_bfs.order == via_criterion.order == q * (q * q - 1) == 2184

    def test_proper_subgroup_detected(self):
        q = 7
        alpha = MatrixElement(1, 1, 0, 1, q)
        upper = MatrixElement(2, 1, 0, 4, q)
        out = generation_check([alpha, upper], q, mode="bfs")
        assert out.kind == "ProperSubgroup"
        assert out.order < 336 and 336 % out.order == 0
        crit = generation_check([alpha, upper], q, mode="criterion")
        assert crit.kind == "ProperSubgroup"

    def test_criterion_matches_bfs_on_random_pairs(self):
        # alpha = [[1, 1], [0, 1]] and a random beta with a nonzero lower-left
        # entry generate SL2(F_q) whatever the order of beta: the pairs with a
        # beta of odd order are the ones where -I is no power of beta
        rng = random.Random(31)
        parities = collections.Counter()
        for q in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            alpha = MatrixElement(1, 1, 0, 1, q)
            for _ in range(12):
                c = rng.randrange(1, q)
                a, b = rng.randrange(q), rng.randrange(q)
                if a == 0:
                    beta = MatrixElement(0, -pow(c, -1, q), c, b, q)
                else:
                    beta = MatrixElement(a, b, c, (1 + b * c) * pow(a, -1, q), q)
                crit = generation_check([alpha, beta], q, mode="criterion")
                bfs = generation_check([alpha, beta], q, mode="bfs")
                assert (crit.kind, crit.order) == (bfs.kind, bfs.order), (q, beta)
                order = element_order(beta)
                parities[order % 2] += 1
                if order % 2 == 0:
                    k = int(crit.evidence["minus_identity"].removeprefix("beta^"))
                    assert beta**k == minus_identity(q)
                else:
                    assert "minus_identity" not in crit.evidence
        assert parities[0] > 10 and parities[1] > 10, parities

    def test_single_generator(self):
        out = generation_check([MatrixElement(1, 1, 0, 1, 7)], 7)
        assert out.kind == "ProperSubgroup"
        assert out.order == 7

    @pytest.mark.parametrize("mode", ["criterion", "bfs"])
    def test_generators_over_another_field_are_refused(self, mode):
        alpha, beta = standard_generators(31, 5)
        for gens in ([alpha], [alpha, beta]):
            with pytest.raises(PreconditionViolated, match="generator over F_31, expected F_7"):
                generation_check(gens, 7, mode=mode)

    def test_criterion_refuses_what_it_does_not_model(self):
        q = 13
        alpha, beta = standard_generators(q, 3)
        with pytest.raises(Unsupported, match="exactly two generators"):
            generation_check([alpha, beta, alpha], q)
        with pytest.raises(Unsupported, match="first generator of order q = 13"):
            generation_check([beta, alpha], q)  # beta has order q - 1
        lower = MatrixElement(1, 0, 1, 1, q)  # the unipotent in lower form
        with pytest.raises(Unsupported, match="unipotent in upper form"):
            generation_check([lower, beta], q)

    def test_criterion_refuses_q_below_5(self):
        # check_q admits q = 3; the criterion is modelled for q >= 5 only
        gens = [MatrixElement(1, 1, 0, 1, 3), MatrixElement(1, 0, 1, 1, 3)]
        with pytest.raises(Unsupported, match="criterion mode needs a prime q >= 5, got 3"):
            generation_check(gens, 3)

    def test_mode_validation(self):
        alpha, beta = standard_generators(13, 3)
        with pytest.raises(ValueError):
            generation_check([alpha, beta], 13, mode="magic")
        with pytest.raises(ValueError):
            generation_check([], 7)

    def test_bfs_resource_limit(self):
        # the first prime q = 1 mod 5 past the bound of 100,000
        alpha, beta = standard_generators(100151, 5)
        with pytest.raises(ResourceLimit) as exc:
            generation_check([alpha, beta], 100151, mode="bfs")
        assert "\n" not in str(exc.value)

    def test_bfs_refuses_composite_q(self):
        # the closure indexes SL2 by field arithmetic; Z/15 is not a field
        gens = [MatrixElement(1, 1, 0, 1, 15), MatrixElement(0, 1, -1, 0, 15)]
        with pytest.raises(Unsupported) as exc:
            generation_check(gens, 15, mode="bfs")
        assert "prime" in str(exc.value)
        assert "\n" not in str(exc.value)

    def test_bfs_sl2_251_is_fast(self):
        gens = standard_generators(251, 5)
        t0 = time.perf_counter()
        out = generation_check(gens, 251, mode="bfs")
        assert time.perf_counter() - t0 < 1
        assert out.kind == "Generates"
        assert out.order == 15_813_000


def _closure_order(gens, q):
    """Size of the group generated by gens, by a pure-Python set closure."""
    seen = {identity(q)}
    todo = [identity(q)]
    while todo:
        x = todo.pop()
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen)


def _trace_pair(q):
    # the construction behind standard_generators, with traces (0, 1), since
    # no odd p gives a standard pair for q = 5 or 7
    return [MatrixElement(1, 1, 0, 1, q), solve_trace_system(q, 0, 1)]


def _order_four(q):
    # [[0,1],[-1,0]] has order 4; two of its four powers have a = 0
    return [MatrixElement(0, 1, -1, 0, q)]


def _order_four_and_unipotent(q):
    return _order_four(q) + [MatrixElement(1, 1, 0, 1, q)]


def _borel_pair(q):
    return [MatrixElement(1, 1, 0, 1, q), MatrixElement(3, 0, 0, pow(3, -1, q), q)]


def _random_upper(rng, q):
    lam = rng.randrange(1, q)
    return MatrixElement(lam, rng.randrange(q), 0, pow(lam, -1, q), q)


def _random_borel(q):
    # upper triangular: [e1] is fixed, so the lam image and K n U give |H|
    rng = random.Random(q)
    return [_random_upper(rng, q) for _ in range(2)]


def _random_upper_single(q):
    # one upper-triangular element, with lam != +-1 once q > 3: K is in a torus
    rng = random.Random(q)
    lam = rng.randrange(2, q - 1) if q > 3 else 1
    return [MatrixElement(lam, rng.randrange(1, q), 0, pow(lam, -1, q), q)]


def _random_single(q):
    return [_random_element(random.Random(q), q)]


def _random_with_minus_identity(q):
    # -I fixes every line, so each line of the orbit gives the Schreier
    # element -I, with lam = -1
    return [_random_element(random.Random(q + 1), q), minus_identity(q)]


_FIXED_SETS = [_trace_pair, _order_four, _order_four_and_unipotent, _borel_pair]
_RANDOM_SETS = [
    _random_borel, _random_upper_single, _random_single, _random_with_minus_identity
]


@pytest.mark.parametrize(
    "make_gens, q",
    [(make, q) for make in _FIXED_SETS for q in (5, 7)]
    + [(make, q) for make in _RANDOM_SETS for q in (2, 3, 5, 7, 11, 13)],
)
def test_bfs_matches_brute_force_closure(make_gens, q):
    gens = make_gens(q)
    expected = _closure_order(gens, q)
    out = generation_check(gens, q, mode="bfs")
    assert out.order == expected
    full = q * (q * q - 1)
    assert out.kind == ("Generates" if expected == full else "ProperSubgroup")


def _random_element(rng, q):
    kind = rng.randrange(6)
    if kind == 0:
        return identity(q)
    if kind == 1:
        return minus_identity(q)
    if kind == 2:  # a = 0 forces c = -1/b
        b = rng.randrange(1, q)
        return MatrixElement(0, b, -pow(b, -1, q), rng.randrange(q), q)
    a, b, c = rng.randrange(1, q), rng.randrange(q), rng.randrange(q)
    return MatrixElement(a, b, c, (1 + b * c) * pow(a, -1, q), q)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_bfs_matches_brute_force_on_random_sets(q):
    rng = random.Random(q)
    full = q * (q * q - 1)
    for _ in range(12):
        gens = [_random_element(rng, q) for _ in range(rng.randint(1, 3))]
        expected = _closure_order(gens, q)
        out = generation_check(gens, q, mode="bfs")
        assert out.order == expected, [g.entries() for g in gens]
        assert out.kind == ("Generates" if expected == full else "ProperSubgroup")


@pytest.mark.parametrize(
    "gens, q, order",
    [
        # Q8 in SL2(F_3): the orbit of [e1] is all 4 lines and the
        # stabilizer is {+-I}
        ([MatrixElement(0, 1, 2, 0, 3), MatrixElement(1, 1, 1, 2, 3)], 3, 8),
        # diag(2, 2^-1) fixes [e1], and lam = 2 has order 12 mod 13
        ([MatrixElement(2, 0, 0, 7, 13)], 13, 12),
        # the Borel pair fixes [e1]: lam = 3 has order 3, and K n U = U
        (_borel_pair(13), 13, 13 * 3),
    ],
    ids=["Q8", "diagonal", "borel"],
)
def test_bfs_named_subgroups(gens, q, order):
    assert _closure_order(gens, q) == order
    out = generation_check(gens, q, mode="bfs")
    assert (out.kind, out.order) == ("ProperSubgroup", order)


class TestSylowData:
    def test_values(self):
        data = sylow_data(251, 5)
        assert data.order == 125  # v_5(251^2 - 1) = 3
        assert data.cyclic is True
        assert data.m_G == 2

    def test_matches_brute_force_over_the_group(self):
        # the Sylow order is the p-part of the counted order of SL2(F_q), and
        # the Sylow is cyclic iff some element has that order
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            elements = list(helpers.sl2_elements(q))
            for p in range(3, q + 2, 2):
                if (q * q - 1) % p or not all(p % e for e in range(2, p)):
                    continue  # not an odd prime dividing q^2 - 1
                order = p ** helpers.vp_int(len(elements), p)
                cyclic = any(helpers.sl2_order(x, q, order) == order for x in elements)
                data = sylow_data(q, p)
                assert (data.order, data.cyclic) == (order, cyclic), (q, p)

    def test_validation(self):
        with pytest.raises(Unsupported):
            sylow_data(251, 2)
        with pytest.raises(Unsupported):
            sylow_data(250, 5)
        with pytest.raises(Unsupported):
            sylow_data(13, 5)
        with pytest.raises(Unsupported, match="p = 5 divides q = 5"):
            sylow_data(5, 5)
        with pytest.raises(Unsupported, match="q must be prime, got 15"):
            sylow_data(15, 7)  # F_15 does not exist


def test_import_and_closure_load_only_the_standard_library():
    # srt depends on nothing outside the standard library
    code = (
        "import sys; before = set(sys.modules); import srt; "
        "srt.generation_check(srt.standard_generators(13, 3), 13, mode='bfs'); "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.partition('.')[0] not in sys.stdlib_module_names | {'srt'}))"
    )
    src = Path(srt.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=src, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
