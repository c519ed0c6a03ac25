"""
Ramification filtrations in the upper numbering: Herbrand transforms between
upper and lower numbering, conductors of composita, and the closed-form
conductors of the two extension shapes used by the wild monodromy
computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionViolated
from .valuation import check_nu, check_p, read_int, read_rational

@dataclass(frozen=True)
class Filtration:
    """Upper-numbering filtration as a step function.

    breaks[i] = (jump u_i, order o_i) means |G^u| = o_i for u in
    (u_(i-1), u_i], with the first entry at u_0 = 0 carrying |G^0| = order;
    the filtration is trivial beyond the last jump.
    """

    breaks: tuple
    order: int

    def __init__(self, breaks):
        breaks = tuple((read_rational(u), read_int(o, "order")) for u, o in breaks)
        if not breaks:
            raise PreconditionViolated("filtration needs at least the u = 0 entry")
        if breaks[0][0] != 0:
            raise PreconditionViolated(f"first break must be at u = 0, got {breaks[0][0]}")
        jumps = [u for u, _ in breaks]
        if sorted(jumps) != jumps or len(set(jumps)) != len(jumps):
            raise PreconditionViolated(f"jumps must be strictly increasing, got {jumps}")
        orders = [o for _, o in breaks]
        if any(a < b for a, b in zip(orders, orders[1:])):
            raise PreconditionViolated(f"orders must be weakly decreasing, got {orders}")
        if orders[-1] < 1:
            raise PreconditionViolated(f"orders must be positive, got {orders}")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "order", orders[0])

    def conductor(self):
        """Largest jump with a nontrivial group, 0 if none."""
        h = Fraction(0)
        for jump, o in self.breaks:
            if o > 1:
                h = jump
        return h

    @classmethod
    def from_json(cls, data):
        """Read {"breaks": [{"jump", "order"}, ...]}; an optional "order"
        (absent, null or 0 when not given) must equal the order at u = 0."""
        filtration = cls([(b["jump"], b["order"]) for b in data["breaks"]])
        order = data.get("order")
        if order is not None and read_int(order, "order") and order != filtration.order:
            raise PreconditionViolated(
                f"total order {order} must equal the order at u = 0 ({filtration.order})"
            )
        return filtration


def cyclotomic_filtration(p, nu):
    """Filtration of the degree (p-1)p^(nu-1) cyclotomic-type extension:
    jumps at 0, 1, ..., nu - 1 with orders (p-1)p^(nu-1), p^(nu-1), ..., p."""
    check_p(p)
    check_nu(nu)
    # one power of p, then one exact division by p per jump: a fresh power
    # per jump repeats a big-int power nu times
    order = p ** (nu - 1)
    breaks = [(Fraction(0), (p - 1) * order)]
    for i in range(1, nu):
        breaks.append((Fraction(i), order))
        order //= p
    return Filtration(breaks)


def herbrand(filtration, direction, x):
    """Piecewise-linear change of numbering.

    psi maps upper to lower numbering (slope |G^0| / |G^u|); phi is its
    inverse (lower to upper). The stored filtration is upper-numbered.
    """
    x = Fraction(x)
    if x < 0:
        raise PreconditionViolated(f"x must be >= 0, got {x}")
    if direction not in ("phi", "psi"):
        raise PreconditionViolated(f"direction must be phi or psi, got {direction!r}")
    psi = direction == "psi"
    u = t = Fraction(0)  # start of the current segment, upper and lower numbering
    for jump, o in filtration.breaks[1:]:
        slope = Fraction(filtration.order, o)  # of psi on (u, jump]
        t_jump = t + (jump - u) * slope
        if x <= (jump if psi else t_jump):
            break
        u, t = jump, t_jump
    else:
        slope = Fraction(filtration.order)
    return t + (x - u) * slope if psi else u + (x - t) / slope


def upper_from_lower(lower_breaks):
    """Build the upper-numbered filtration from lower-numbered break data
    [(lower jump t_i, order of G_t on (t_(i-1), t_i])] via the running
    Herbrand integral. Each jump and order is read as `Filtration` reads it."""
    lower_breaks = [
        (read_rational(t), read_int(o, "order")) for t, o in lower_breaks
    ]
    total = lower_breaks[0][1]
    out = [(Fraction(0), total)]
    upper = Fraction(0)
    prev = Fraction(0)
    for t, o in lower_breaks[1:]:
        upper += (t - prev) * Fraction(o, total)
        prev = t
        out.append((upper, o))
    return Filtration(out)


def compositum_conductor(conductors):
    """Conductor of a compositum: the maximum of the conductors."""
    conductors = [Fraction(c) for c in conductors]
    if not conductors:
        raise PreconditionViolated("need at least one conductor")
    return max(conductors)


def conductor_case(p, nu, shape):
    """Closed-form conductor over the base for the two extension shapes:
    a tame extension of the cyclotomic tower (nu - 1), or the Kummer tower
    obtained by adjoining a p-th radical (max(nu - 1, p/(p-1)), nu > 1). The
    tame shape does not read p."""
    if shape == "tame-over-cyclotomic":
        check_nu(nu)
        return Fraction(nu - 1)
    if shape == "kummer-tower":
        check_p(p)
        check_nu(nu)
        if nu == 1:
            raise PreconditionViolated(f"kummer-tower shape needs nu > 1, got {nu}")
        return max(Fraction(nu - 1), Fraction(p, p - 1))
    raise PreconditionViolated(f"unknown shape {shape!r}")
