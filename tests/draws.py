"""Seeded draws for the property and fuzz tests, independent of srt.

`@cases(count)` runs a test that takes `rng` on its edge cases, then on
`count` random cases. Each case draws from a `Draw` of its own, seeded by
the test's name and the case's index, so a failing case replays alone: its
failure carries a note that names the call which repeats it. A test that
refuses what it drew draws anew from the same stream.

An edge case draws from the edges of each range instead: `randint(lo, hi)`
from 0 when it lies between, lo and hi, and `choice(seq)` from the members
of seq. The j-th draw at one place in the code of edge case k takes the
(k + j)-th of its edges, counted round. So edge case 0 draws the simplest
values, 0 (or lo) and first members, and edge cases 0, ..., m - 1 give
every draw with m edges each of them; there are as many edge cases as the
most edges a draw met. A draw that only weighs a branch calls random(),
which has no edges. A refused edge case could meet the same edges again,
so they end after EDGE_DRAWS draws and the case goes on at random.
"""
import functools
import inspect
import random
import sys
from fractions import Fraction

EDGE_DRAWS = 1000


class Draw(random.Random):
    """The stream of case `index` of `seed`, an edge case when `edge`."""

    def __init__(self, seed, index, edge=False):
        super().__init__(f"{seed}:{index}")
        self.seed, self.index, self.edge = seed, index, edge
        self.drawn, self.widest, self.places = 0, 1, {}

    def __repr__(self):
        return f"Draw({self.seed!r}, {self.index}, edge={self.edge})"

    def _at_random(self):
        return not self.edge or self.drawn >= EDGE_DRAWS

    def _edge(self, options):
        """The edge this draw takes: the (index + j)-th of options, counted
        round, for the j-th draw at the place that called randint or choice."""
        caller = sys._getframe(2)
        place = (caller.f_code, caller.f_lasti)
        j = self.places[place] = self.places.get(place, -1) + 1
        self.drawn += 1
        self.widest = max(self.widest, len(options))
        return options[(self.index + j) % len(options)]

    def randint(self, lo, hi):
        if self._at_random():
            return super().randint(lo, hi)
        return self._edge(list(dict.fromkeys([min(max(lo, 0), hi), lo, hi])))

    def choice(self, seq):
        return super().choice(seq) if self._at_random() else self._edge(seq)


def cases(count):
    """Run the decorated test, which takes `rng`, on every edge case and then
    on `count` random cases; its `__wrapped__(..., rng=Draw(...))` runs one."""

    def decorate(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            edges, index = 1, 0
            while index < edges:
                edges = max(edges, _run(test, args, kwargs, Draw(test.__qualname__, index, True)))
                index += 1
            for index in range(count):
                _run(test, args, kwargs, Draw(test.__qualname__, index))

        signature = inspect.signature(test)
        parameters = [p for p in signature.parameters.values() if p.name != "rng"]
        run.__signature__ = signature.replace(parameters=parameters)
        return run

    return decorate


def _run(test, args, kwargs, rng):
    """Run one case and return the most edges a draw of it met."""
    try:
        test(*args, rng=rng, **kwargs)
    except BaseException as exc:
        exc.add_note(f"failing case: {test.__qualname__}.__wrapped__(..., rng={rng!r})")
        raise
    return rng.widest


def fraction(rng, lo, hi, den):
    """Fraction(n, d) with n drawn from [lo, hi] and d from [1, den]."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def nonzero(rng, hi):
    """An int in [-hi, hi] other than 0."""
    return rng.choice([-1, 1]) * rng.randint(1, hi)
