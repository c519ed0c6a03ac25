"""SL2(F_251) generator data: orders, generation, and Sylow structure.

Builds the standard generating pair with prescribed traces, verifies the
element orders and -I, runs the fast normalizer criterion and the exact
orbit-stabilizer closure, and prints the cyclic 5-Sylow data.
"""
import time

from srt import (
    element_order,
    generation_check,
    minus_identity,
    standard_generators,
    sylow_data,
)

q, p = 251, 5
alpha, beta = standard_generators(q, p)
print(f"alpha = {alpha.entries()}  (order {element_order(alpha)})")
print(f"beta  = {beta.entries()}  (order {element_order(beta)})")
print(f"alpha*beta has order {element_order(alpha * beta)}")
print(f"beta^125 == -I: {beta ** 125 == minus_identity(q)}")

t0 = time.time()
verdict = generation_check([alpha, beta], q, mode="criterion")
print(
    f"\ncriterion check ({time.time() - t0:.3f}s): {verdict.kind}, "
    f"|SL2(F_{q})| = {verdict.order:,}"
)
print("evidence:", verdict.evidence)

t0 = time.time()
closure = generation_check([alpha, beta], q, mode="bfs")
print(
    f"bfs closure ({time.time() - t0:.3f}s): {closure.kind}, "
    f"order {closure.order:,} = orbit of (1, 0) times its stabilizer"
)

data = sylow_data(q, p)
print(f"\n{p}-Sylow: order {data.order}, cyclic = {data.cyclic}, m_G = {data.m_G}")
