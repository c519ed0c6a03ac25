"""Tail disks of the reduction: centers, radii, and the splitting criterion.

Walks through one generic instance: build the cover series, rescale to the
tail disk, read off the coefficient valuations, and confirm the conductor-3
splitting; then prints the closed-form disk data for all three cases.
"""
from fractions import Fraction

from srt import (
    CoverParams,
    insep_tail_catalog,
    maclaurin_g,
    scaled_coefficient_valuations,
    splitting_obstruction,
    tail_center,
    tail_radius,
)

p, nu, r, s = 7, 2, 3, 5
params = CoverParams(p, nu, r, s, Fraction(-s, r))
print(f"cover parameters: {params}")
print("tail disk center a0 =", tail_center(p, nu, r, s, "generic"))
radius = tail_radius(p, nu, "generic")
print(f"tail disk radius: v(rho) = {radius.v_rho}, upstairs scale v(e) = {radius.v_e}")

series = maclaurin_g(params)  # T = 3p + 2, the default
vals = scaled_coefficient_valuations(series, p, radius.v_e)
theta = Fraction(nu) + Fraction(1, p - 1)
print(f"\nscaled coefficient valuations v(c_i), threshold theta = {theta}:")
for i, v in enumerate(vals[:9], start=1):
    marker = "  <-- exactly theta" if v == theta else ""
    print(f"  i = {i}: {v}{marker}")

verdict = splitting_obstruction(vals, p, nu)
print(f"\nsplitting verdict: {verdict.kind}, conductor = {verdict.conductor}")

print("\nclosed-form radii in the three cases (p = 5, nu = 3):")
for case, extra in (("generic", None), ("a=0", 1), ("a=1", 1)):
    out = tail_radius(5, 3, case, extra)
    print(f"  {case:8} extra={extra}: v(rho) = {out.v_rho}, v(e) = {out.v_e}")

print("\nnew inseparable tails for p = 5, nu = 3, case a=0, v(a) = 1:")
for t in insep_tail_catalog(5, 3, "a=0", extra=1):
    print(f"  level j = {t.j}: center {t.center}, v(radius) = {t.radius_valuation}")
