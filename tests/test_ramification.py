"""Unit tests for upper-numbering ramification filtrations and conductors."""
import json
import random
import time
from fractions import Fraction

import pytest

from srt import (
    Filtration,
    compositum_conductor,
    conductor_case,
    cyclotomic_filtration,
    herbrand,
    upper_from_lower,
)
from srt.cli import EXIT_OK, dispatch
from srt.ramification import PreconditionViolated

import helpers
from test_cli_digest import PRIMES, pinned


class TestFiltration:
    def test_validation(self):
        with pytest.raises(ValueError):
            Filtration([])
        with pytest.raises(ValueError):
            Filtration([(Fraction(1), 4)])  # must start at 0
        with pytest.raises(ValueError):
            Filtration([(0, 4), (2, 2), (1, 2)])  # jumps must increase
        with pytest.raises(ValueError):
            Filtration([(0, 2), (1, 4)])  # orders must decrease
        with pytest.raises(ValueError, match="total order 8"):
            Filtration.from_json(
                {"breaks": [{"jump": "0", "order": 4}, {"jump": "1", "order": 2}], "order": 8}
            )

    def test_conductor(self):
        assert Filtration([(Fraction(0), 1)]).conductor() == 0
        f = Filtration([(0, 20), (1, 5), (Fraction(5, 2), 5)])
        assert f.conductor() == Fraction(5, 2)

    def test_json_roundtrip(self):
        # the file format of `srt herbrand --filtration`
        data = {
            "breaks": [
                {"jump": "0", "order": 100},
                {"jump": "1", "order": 25},
                {"jump": "2", "order": 5},
            ],
            "order": 100,
        }
        assert Filtration.from_json(data) == cyclotomic_filtration(5, 3)


class TestCyclotomic:
    def test_structure(self):
        f = cyclotomic_filtration(5, 3)
        assert f.order == 4 * 25
        assert f.breaks == ((Fraction(0), 100), (Fraction(1), 25), (Fraction(2), 5))
        assert f.conductor() == 2
        assert cyclotomic_filtration(7, 1).breaks == ((Fraction(0), 6),)

    def test_breaks_match_the_formula(self):
        for p in (3, 5, 7):
            for nu in range(1, 12):
                expected = [(0, (p - 1) * p ** (nu - 1))]
                expected += [(i, p ** (nu - i)) for i in range(1, nu)]
                assert cyclotomic_filtration(p, nu).breaks == tuple(expected), (p, nu)

    def test_large_nu_answers_fast(self, capsys):
        # 20,000 breaks: the budget is missed when each order is its own
        # power of p
        argv = ["herbrand", "--p", "5", "--nu", "20000", "--direction", "psi", "--x", "2"]
        t0 = time.perf_counter()
        assert dispatch(argv) == EXIT_OK
        assert time.perf_counter() - t0 < 1.5
        # psi has slopes 4 and 20 on (0, 1] and (1, 2], whatever nu >= 3
        assert json.loads(capsys.readouterr().out) == {
            "direction": "psi", "x": "2", "value": "24", "conductor": "19999",
        }


class TestHerbrand:
    def test_identity_on_trivial(self):
        f = Filtration([(Fraction(0), 1)])
        assert herbrand(f, "psi", Fraction(7, 3)) == Fraction(7, 3)

    def test_known_values(self):
        f = cyclotomic_filtration(5, 2)
        # psi slope is 1 on [0,1] (order 5 over total 20... total/order = 4)
        assert herbrand(f, "psi", 1) == 4
        assert herbrand(f, "phi", 4) == 1
        assert herbrand(f, "psi", 2) == 4 + 20
        assert herbrand(f, "phi", 24) == 2

    def test_direction_validation(self):
        f = Filtration([(Fraction(0), 1)])
        with pytest.raises(ValueError):
            herbrand(f, "up", 1)
        with pytest.raises(ValueError):
            herbrand(f, "psi", -1)

    def test_upper_from_lower_roundtrip(self):
        # lower jumps of the cyclotomic shape: psi maps upper jump i to
        # p^i - 1 over p - 1 scaled... verify via the inverse property instead
        f = cyclotomic_filtration(7, 3)
        lower = [(Fraction(0), f.order)] + [
            (herbrand(f, "psi", u), o) for u, o in f.breaks[1:]
        ]
        assert upper_from_lower(lower) == f

    def test_upper_from_lower_reads_breaks_as_filtration_does(self):
        # an order is an int itself: a float, a bool or a string is refused,
        # not truncated or converted
        for order in (2.5, True, "2"):
            with pytest.raises(PreconditionViolated, match="order must be a JSON integer"):
                upper_from_lower([(0, 4), (1, order)])
        # a float jump is its exact binary value, as Filtration reads it
        assert upper_from_lower([(0, 4), (0.1, 2)]) == Filtration(
            [(0, 4), (Fraction(0.1) / 2, 2)]
        )


class TestConductors:
    def test_compositum(self):
        assert compositum_conductor([Fraction(1), Fraction(5, 2)]) == Fraction(5, 2)
        with pytest.raises(ValueError):
            compositum_conductor([])

    def test_closed_forms(self):
        assert conductor_case(5, 1, "tame-over-cyclotomic") == 0
        assert conductor_case(5, 4, "tame-over-cyclotomic") == 3
        assert conductor_case(5, 2, "kummer-tower") == Fraction(5, 4)
        assert conductor_case(5, 4, "kummer-tower") == 3
        with pytest.raises(PreconditionViolated):
            conductor_case(5, 0, "tame-over-cyclotomic")
        with pytest.raises(PreconditionViolated):
            conductor_case(5, 1, "kummer-tower")
        with pytest.raises(ValueError):
            conductor_case(5, 2, "mystery")


def test_digest_herbrand_draws_match_the_integral(capsys):
    """A seeded sample of the `herbrand` records that tests/test_cli_digest.py
    pins, each printed value against helpers.herbrand, the integral of the
    step function; a value sent back in the other direction returns x."""
    directions = set()
    for argv, code, out in random.Random(6).sample(pinned("herbrand"), 40):
        _, _, p, _, nu, _, direction, flag = argv
        x = Fraction(flag.removeprefix("--x="))
        if x < 0:
            assert code != EXIT_OK and not out
            continue
        assert code == EXIT_OK
        value = Fraction(json.loads(out)["value"])
        assert value == helpers.herbrand(int(p), int(nu), direction, x)
        other = "phi" if direction == "psi" else "psi"
        assert helpers.herbrand(int(p), int(nu), other, value) == x
        assert dispatch(argv[:6] + [other, f"--x={value}"]) == EXIT_OK
        assert Fraction(json.loads(capsys.readouterr().out)["value"]) == x
        directions.add(direction)
    assert directions == {"phi", "psi"}


def test_digest_conductor_draws_match_the_filtrations():
    """The `conductor --shape` records that tests/test_cli_digest.py pins,
    each printed value against the filtrations: tame-over-cyclotomic against
    the conductor of cyclotomic_filtration(p, nu), for each p in the sweep
    when --p is not given, and kummer-tower against the compositum of that
    conductor with the Kummer step's jump p/(p-1). A draw without --nu, a
    kummer-tower draw without --p and a Kummer tower at nu = 1 are refused."""
    answered = set()
    for argv, code, out in pinned("conductor"):
        if argv[1] != "--shape":
            continue
        flags = dict(zip(argv[1::2], argv[2::2]))
        shape = flags["--shape"]
        if "--nu" not in flags or (shape == "kummer-tower" and "--p" not in flags):
            assert code != EXIT_OK and not out
            continue
        nu = int(flags["--nu"])
        if shape == "kummer-tower" and nu == 1:
            assert code != EXIT_OK and not out
            continue
        assert code == EXIT_OK
        value = Fraction(json.loads(out)["conductor"])
        primes = [int(flags["--p"])] if "--p" in flags else PRIMES
        for p in primes:
            want = cyclotomic_filtration(p, nu).conductor()
            if shape == "kummer-tower":
                want = compositum_conductor([want, Fraction(p, p - 1)])
            assert value == want
        answered.add(shape)
    assert answered == {"tame-over-cyclotomic", "kummer-tower"}
