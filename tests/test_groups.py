"""Unit tests for SL2 elements, trace-prescribed generators, generation
checks, and Sylow data, cross-checked by brute force over small fields."""
import random
import time

import pytest

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
from srt.groups import NoSolution, ResourceLimit, Unsupported


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


class TestElementOrder:
    def test_against_brute_force(self):
        q = 7
        for mat in (
            MatrixElement(1, 1, 0, 1, q),
            MatrixElement(0, 1, -1, 0, q),
            MatrixElement(2, 0, 0, 4, q),
            MatrixElement(3, 1, 5, 2, q),
        ):
            brute = 1
            x = mat
            while not x.is_identity():
                x = x * mat
                brute += 1
            assert element_order(mat) == brute

    def test_minus_identity(self):
        assert element_order(minus_identity(11)) == 2


class TestTraceSystem:
    def test_prescribed_traces(self):
        q = 251
        beta = solve_trace_system(q, 17, 101)
        alpha = MatrixElement(1, 1, 0, 1, q)
        assert beta.trace() == 17
        assert (alpha * beta).trace() == 101
        assert beta.c != 0

    def test_degenerate_traces_rejected(self):
        with pytest.raises(NoSolution):
            solve_trace_system(251, 2, 17)
        with pytest.raises(NoSolution):
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
        with pytest.raises(NoSolution):
            standard_generators(11, 5)

    def test_validation(self):
        with pytest.raises(Unsupported):
            standard_generators(15, 5)
        with pytest.raises(NoSolution):
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

    def test_single_generator(self):
        out = generation_check([MatrixElement(1, 1, 0, 1, 7)], 7)
        assert out.kind == "ProperSubgroup"
        assert out.order == 7

    def test_mode_validation(self):
        alpha, beta = standard_generators(13, 3)
        with pytest.raises(ValueError):
            generation_check([alpha, beta], 13, mode="magic")
        with pytest.raises(ValueError):
            generation_check([], 7)

    def test_bfs_resource_limit(self):
        alpha, beta = standard_generators(331, 5)
        with pytest.raises(ResourceLimit):
            generation_check([alpha, beta], 331, mode="bfs")

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


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize(
    "make_gens", [_trace_pair, _order_four, _order_four_and_unipotent, _borel_pair]
)
def test_bfs_matches_brute_force_closure(q, make_gens):
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
        # Q8 in SL2(F_3): the orbit of e1 is all 8 nonzero vectors and the
        # stabilizer is trivial
        ([MatrixElement(0, 1, 2, 0, 3), MatrixElement(1, 1, 1, 2, 3)], 3, 8),
        # diag(2, 2^-1) has order 12 mod 13 and moves e1 along its first axis
        ([MatrixElement(2, 0, 0, 7, 13)], 13, 12),
        # the Borel pair: the stabilizer of e1 is the whole unipotent group
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

    def test_validation(self):
        with pytest.raises(Unsupported):
            sylow_data(251, 2)
        with pytest.raises(Unsupported):
            sylow_data(250, 5)
        with pytest.raises(Unsupported):
            sylow_data(13, 5)
