"""Bounded fuzz of the parameter domains of the srt library.

The paper's setting is an odd prime p, a cyclic p-Sylow of order p^nu with
nu >= 1 an integer, and SL2 over F_q for a prime q. RULES maps every public
function of srt with a parameter named p, q or nu to the rule of each such
parameter, with arguments that the function answers; EXEMPT names the others
with a reason. A public function in neither table fails
test_tables_match_the_signatures.

Each parameter gets every value of DRAWS, then seeded draws of ints, floats,
fractions and bools (tests/draws.py). A value outside its rule's domain must
be refused with an SrtError whose message names the parameter ("p must be",
"q must be", "nu must be"), so the refusal is the rule's and not a later
accident. A value inside the domain must end with an answer or an SrtError.
Every call must return within EXAMPLE_SECONDS, and all calls together within
TOTAL_SECONDS. The CLI's --p type must refuse each p with the library rule's
own text. ELEMENT_TYPES hands the entries that take a field element or a
rational a value of another type, which each must refuse with a
PreconditionViolated that names the type it wants.
"""
import argparse
import inspect
import time
from fractions import Fraction

import pytest

import srt
from srt import Edge, GaussRational, ReductionTree, TruncatedSeries, Vertex, standard_generators
from srt.cli import _odd_prime
from srt.errors import PreconditionViolated, SrtError
from srt.valuation import check_p

from draws import cases

EXAMPLES = 25  # random draws per parameter, beside the edge cases
EXAMPLE_SECONDS = 2.0
TOTAL_SECONDS = 10.0


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# rule -> whether a value lies in its domain; "prime" is the q of SL2(F_q)
# and the p of the valuations, which may be 2
DOMAINS = {
    "odd prime": lambda x: _is_int(x) and x != 2 and _is_prime(x),
    "prime": lambda x: _is_int(x) and _is_prime(x),
    "nu": lambda x: _is_int(x) and x >= 1,
}
DRAWS = [True, 5.0, 2.5, Fraction(5), Fraction(7, 2), 0, 1, -5, 4, 9, 15, 25, 2]


def other_draw(rng):
    """An int in [-30, 200], a float in [-50, 250], a Fraction in [-20, 60]
    over a denominator up to 6, or a bool."""
    d = rng.randint(1, 6)
    return rng.choice([
        rng.randint(-30, 200),
        float(rng.randint(-50, 250)),
        rng.uniform(-50, 250),
        Fraction(rng.randint(-20 * d, 60 * d), d),
        False,
        True,
    ])


TREE = ReductionTree(
    [Vertex("root", inertia=1), Vertex("tail", tail="new-etale", sigma=Fraction(3, 2))],
    [Edge("root", "tail", sigma_eff=Fraction(3, 2))],
)

# public function -> ({parameter: rule}, keyword arguments it answers)
RULES = {
    "CoverParams": ({"p": "odd prime", "nu": "nu"},
                    dict(p=5, nu=2, r=1, s=3, sqrt1ma=Fraction(-3))),
    "LocalFieldContext": ({"p": "odd prime"}, dict(p=5)),
    # the tame shape does not read p
    "conductor_case": ({"p": "odd prime", "nu": "nu"}, dict(p=5, nu=2, shape="kummer-tower")),
    "cyclotomic_filtration": ({"p": "odd prime", "nu": "nu"}, dict(p=5, nu=2)),
    "effective_invariant": ({"p": "odd prime"}, dict(sigmas=[1, 2], p=5)),
    "element_valuation": ({"p": "prime"}, dict(x=Fraction(50), p=5)),
    "enumerate_tail_configs": ({"p": "odd prime"}, dict(tau=1, p=5)),
    "generation_check": ({"q": "prime"}, dict(gens=standard_generators(31, 5), q=31)),
    "insep_center": ({"p": "odd prime", "nu": "nu"}, dict(p=5, nu=3, r=1, s=5, case="a=1")),
    "insep_tail_catalog": ({"p": "odd prime", "nu": "nu"}, dict(p=5, nu=3, case="a=1", extra=1)),
    "invariant_weights": ({"p": "odd prime"}, dict(r=2, p=5)),
    "propagate_differents": ({"p": "odd prime"}, dict(tree=TREE, p=5)),
    "run_wild_monodromy": ({"q": "prime", "p": "odd prime"}, dict(q=251, p=5)),
    "scaled_coefficient_valuations": (
        {"p": "prime"}, dict(series=TruncatedSeries([1, 5, Fraction(1, 25)]), p=5, v_e=0)),
    "solve_trace_system": ({"q": "prime"}, dict(q=31, tau=1, rho=3)),
    "splitting_obstruction": ({"p": "odd prime"}, dict(vals=[Fraction(3)] * 5, p=5, n=1)),
    "standard_generators": ({"q": "prime", "p": "odd prime"}, dict(q=31, p=5)),
    "sylow_data": ({"q": "prime", "p": "odd prime"}, dict(q=251, p=5)),
    "tail_center": ({"p": "odd prime", "nu": "nu"}, dict(p=5, nu=2, r=1, s=4, case="a=0")),
    "tail_radius": ({"p": "odd prime", "nu": "nu"}, dict(p=5, nu=2, case="generic")),
    "taylor_factors": (
        {"p": "odd prime"}, dict(factors=[(Fraction(1), 2)], center=Fraction(0), T=3, p=5)),
    "validate_tree": ({"p": "odd prime"}, dict(tree=TREE, p=5)),
    "vp": ({"p": "prime"}, dict(x=10, p=5)),
}

EXEMPT = {
    "multinomial": "its q is the total of the parts, not a prime",
    "MatrixElement": "a value constructor; the entries that read its q check it",
    "identity": "a value constructor of MatrixElement",
    "minus_identity": "a value constructor of MatrixElement",
    "TruncatedSeries": "a value constructor; taylor_factors checks the p it stores",
}

PARAMETERS = ("p", "q", "nu")


def _public_functions_with_parameters():
    """{name: its parameters named p, q or nu} over srt.__all__."""
    out = {}
    for name in srt.__all__:
        obj = getattr(srt, name)
        if not callable(obj):
            continue
        try:
            signature = inspect.signature(obj)
        except (TypeError, ValueError):
            continue
        params = [x for x in signature.parameters if x in PARAMETERS]
        if params:
            out[name] = params
    return out


def test_tables_match_the_signatures():
    found = _public_functions_with_parameters()
    assert not set(RULES) & set(EXEMPT)
    assert set(found) - set(RULES) - set(EXEMPT) == set(), "in neither RULES nor EXEMPT"
    assert set(RULES) | set(EXEMPT) == set(found)
    for name, (rules, _) in RULES.items():
        assert sorted(rules) == sorted(found[name]), name


@pytest.fixture(scope="module")
def spent():
    """Seconds spent in library calls by every example of this module so far."""
    return [0.0]


def _check(name, param, value, spent):
    rules, kwargs = RULES[name]
    rule = rules[param]
    start = time.perf_counter()
    try:
        getattr(srt, name)(**{**kwargs, param: value})
        refusal = None
    except SrtError as exc:
        refusal = exc
    elapsed = time.perf_counter() - start
    spent[0] += elapsed
    if not DOMAINS[rule](value):
        assert refusal is not None, (name, param, value)
        assert str(refusal).startswith(f"{param} must be"), (name, param, value, refusal)
    assert elapsed < EXAMPLE_SECONDS, (name, param, value, elapsed)
    assert spent[0] < TOTAL_SECONDS, "the fuzz as a whole went over its time budget"


@pytest.mark.parametrize("name", sorted(RULES))
def test_base_arguments_answer(name):
    _, kwargs = RULES[name]
    getattr(srt, name)(**kwargs)


CASES = [(name, param) for name in sorted(RULES) for param in RULES[name][0]]


@cases(EXAMPLES)
def _check_drawn(name, param, spent, rng):
    _check(name, param, other_draw(rng), spent)


@pytest.mark.parametrize("name, param", CASES)
def test_out_of_domain_values_are_refused(name, param, spent):
    for value in DRAWS:
        _check(name, param, value, spent)
    _check_drawn(name, param, spent)


# public entry -> the values of a wrong type it is handed, and the type its
# refusal names; the check sits at the entry, not in the loops behind it
ELEMENT_TYPES = {
    "is_pth_power": (dict(), "x", [1.5, 2, Fraction(1, 2), "x", None, GaussRational(1)],
                     "x must be a LocalFieldElement, got "),
    "nth_root": (dict(n=5), "x", [2, 1.5, Fraction(1, 2), "x", None, GaussRational(1)],
                 "x must be a LocalFieldElement, got "),
    "vp": (dict(p=5), "x", ["a", None, [], GaussRational(0, 1), srt.LocalFieldContext(5).one()],
           "x must be an int, a Fraction or a value Fraction reads, got "),
}


@pytest.mark.parametrize("name", sorted(ELEMENT_TYPES))
def test_wrong_typed_elements_are_refused(name):
    kwargs, param, values, message = ELEMENT_TYPES[name]
    for value in values:
        with pytest.raises(PreconditionViolated) as exc:
            getattr(srt, name)(**{**kwargs, param: value})
        assert str(exc.value) == message + type(value).__name__, value


def _cli_refusal(p):
    try:
        _odd_prime(str(p))
    except argparse.ArgumentTypeError as exc:
        return str(exc)
    return None


def _rule_refusal(p):
    try:
        check_p(p)
    except SrtError as exc:
        return str(exc)
    return None


def test_cli_p_type_refuses_with_the_library_text():
    """Every p from -30 to 199, and large ones: the prime 2^61 - 1, which
    both accept, the prime 2^89 - 1, too large for is_prime to certify,
    whose refusal passes through both, and composites."""
    for p in [*range(-30, 200), 2**61 - 1, 2**89 - 1, 2**89 + 1, 10**30]:
        assert _cli_refusal(p) == _rule_refusal(p), p
        if p < 200:
            assert (_rule_refusal(p) is None) == DOMAINS["odd prime"](p), p
    assert "certified only below" in _rule_refusal(2**89 - 1)
