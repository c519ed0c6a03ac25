"""Byte-identity of `srt tree-check` and `srt tree-solve` over seeded random
reduction trees.

Each tree is written to a temporary file and run in-process through
srt.cli.dispatch as `tree-check --p 5`, `tree-solve --p 5`,
`tree-solve --p 3 --root-delta 7/2` and `--format text tree-solve --p 5`.
Every (argv, exit code, stdout, stderr) record, with the file path replaced
by the placeholder TREE, is pinned in tests/digests/tree.txt. The trees mix
every outcome: solved, contradicted and open chains, missing and numeric
labels, shuffled vertices and edges, and malformed input (two parents, a
lost edge, an unknown vertex or tail kind, a label that is not a rational),
whose refusal line on stderr is pinned too.

Pins and regeneration: tests/records.py.
"""
import json
import os
import random
import re
import tempfile
from fractions import Fraction

import records
from helpers import tree_law

TREES = 300

LABELS = ["1/2", "1", "5/4", "3/2", "2", "9/4", "0"]
BAD_LABELS = ["x", "1/0", [1], {"a": 1}]


def _label(rng, values, missing=0.4):
    """A random label value, None (left out), or a JSON number."""
    r = rng.random()
    if r < missing:
        return None
    if r < missing + 0.1:
        return rng.choice([1, 2, 0.5, 1.5])
    return rng.choice(values)


def _tree(rng):
    n = rng.randint(1, 7)
    ids = [f"v{i}" for i in range(n)]
    chain = rng.random() < 0.3
    parent = {ids[i]: ids[i - 1] if chain else rng.choice(ids[:i]) for i in range(1, n)}
    sigmas = rng.sample(["1/2", "1", "3/2", "2"], rng.choice([1, 1, 2]))
    inertia = {ids[0]: rng.randint(0, 3)}
    vertices = []
    for v in ids:
        if v != ids[0]:
            top = inertia[parent[v]]
            inertia[v] = rng.randint(0, top + (rng.random() < 0.1))
        vertex = {"id": v, "inertia": inertia[v]}
        has_child = v in parent.values()
        if inertia[v] == 0 and not has_child:
            vertex["tail"] = rng.choice(["new-etale", "new-etale", "primitive", "none"])
        elif rng.random() < 0.1:
            vertex["tail"] = rng.choice(["new-inseparable", "primitive"])
        if rng.random() < 0.15:
            vertex["branch_points"] = [{"id": "x0", "index": rng.choice([1, 2, 5, 10, 25])}]
        sigma = _label(rng, ["1/2", "1", "3/2", "2"], missing=0.2)
        if sigma is not None:
            vertex["sigma"] = sigma
        delta = _label(rng, LABELS, missing=0.8)
        if delta is not None:
            vertex["delta_eff"] = delta
        vertices.append(vertex)
    edges = []
    for child, par in parent.items():
        edge = {"parent": par, "child": child}
        eps = _label(rng, LABELS, missing=0.75)
        if eps is not None:
            edge["epaisseur"] = eps
        sig = _label(rng, sigmas, missing=0.1)
        if sig is not None:
            edge["sigma_eff"] = sig
        edges.append(edge)
    rng.shuffle(vertices)
    if rng.random() < 0.5:
        rng.shuffle(edges)
    _damage(rng, vertices, edges)
    return {"vertices": vertices, "edges": edges}


def _damage(rng, vertices, edges):
    """With probability 1/4, break the tree in one way (once in two faults)."""
    if rng.random() >= 0.25:
        return
    kind = rng.randrange(8)
    if kind == 0 and len(vertices) > 2:
        edges.append({"parent": vertices[0]["id"], "child": vertices[1]["id"]})
    elif kind == 1 and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == 2:
        edges.append({"parent": vertices[0]["id"], "child": "nowhere"})
    elif kind == 3:
        vertex = rng.choice(vertices)
        vertex["tail"] = "old"
        if rng.random() < 0.5:  # which of the two faults is reported first
            vertex["delta_eff"] = "x"
    elif kind == 4:
        rng.choice(vertices)[rng.choice(["sigma", "delta_eff"])] = rng.choice(BAD_LABELS)
    elif kind == 5 and edges:
        rng.choice(edges)[rng.choice(["epaisseur", "sigma_eff"])] = rng.choice(BAD_LABELS)
    elif kind == 6:
        rng.choice(vertices)["branch_points"] = [{"id": "x0", "index": 0}]
    elif kind == 7:
        vertices.append(dict(vertices[0]))


def _requests(path):
    yield ["tree-check", "--p", "5", "--tree", path]
    yield ["tree-solve", "--p", "5", "--tree", path]
    yield ["tree-solve", "--p", "3", "--root-delta", "7/2", "--tree", path]
    yield ["--format", "text", "tree-solve", "--p", "5", "--tree", path]


def trees():
    """The TREES drawn trees, in the order of generate()."""
    rng = random.Random(19)
    return [_tree(rng) for _ in range(TREES)]


def generate():
    """Each request on the n-th tree as (t<n>, argv, [argv, exit code, stdout,
    stderr]), with the tree's path replaced by TREE."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.json")
        for n, tree in enumerate(trees()):
            with open(path, "w") as handle:
                json.dump(tree, handle)
            for argv in _requests(path):
                record = [argv, *records.capture(argv)]
                record = json.loads(json.dumps(record).replace(path, "TREE"))
                yield f"t{n}", record[0], record


def test_tree_requests_are_byte_identical():
    records.check("tree")


# the contradictions that propagate_differents names: one at a vertex, and
# the rest after the edge they are at
VERTEX = re.compile(r"vertex (\S+): delta_eff (\S+) vs derived (\S+)")
EDGE = re.compile(r"edge \('([^']*)', '([^']*)'\): (.*)")
PRODUCT = re.compile(r"delta drop (\S+) != sigma_eff\*epaisseur = (\S+)")
ZERO_SIGMA = re.compile(r"sigma_eff = 0 but delta drop (\S+)")
ZERO_EPS = "epaisseur must be > 0"
NOT_POSITIVE = re.compile(r"epaisseur (\S+) <= 0")
INCREASE = re.compile(r"effective different increases outward \((\S+) < (\S+)\)")


def _holds(message, delta, sigma_eff, epaisseur):
    """Whether the contradiction `message` holds for the values that the
    sets of helpers.tree_law give the labels it cites."""
    if m := VERTEX.fullmatch(message):
        a, b = Fraction(m[2]), Fraction(m[3])
        return a != b and {a, b} <= delta[m[1]]
    m = EDGE.fullmatch(message)
    assert m, message
    key, rest = (m[1], m[2]), m[3]
    drops = {a - b for a in delta[key[0]] for b in delta[key[1]]}
    if m := PRODUCT.fullmatch(rest):
        drop, product = Fraction(m[1]), Fraction(m[2])
        products = {s * e for s in sigma_eff[key] for e in epaisseur[key]}
        return drop != product and drop in drops and product in products
    if m := ZERO_SIGMA.fullmatch(rest):
        return 0 in sigma_eff[key] and Fraction(m[1]) in drops - {0}
    if rest == ZERO_EPS:
        return 0 in epaisseur[key]
    if m := NOT_POSITIVE.fullmatch(rest):
        return epaisseur[key] == {Fraction(m[1])} and Fraction(m[1]) <= 0
    m = INCREASE.fullmatch(rest)
    assert m, message
    a, b = Fraction(m[1]), Fraction(m[2])
    return a < b and delta[key[0]] == {a} and delta[key[1]] == {b}


def _labels(tree):
    """{(kind, id or edge, name): Fraction} of the numeric labels a tree
    in the file format sets."""
    out = {}
    for v in tree["vertices"]:
        for name in ("sigma", "delta_eff"):
            if v.get(name) is not None:
                out["vertex", v["id"], name] = Fraction(str(v[name]))
    for e in tree["edges"]:
        for name in ("sigma_eff", "epaisseur"):
            if e.get(name) is not None:
                out["edge", (e["parent"], e["child"]), name] = Fraction(str(e[name]))
    return out


def test_tree_solve_records_match_the_law():
    # every answered json tree-solve record against helpers.tree_law: a
    # solved tree carries the one value the law forces on each label and
    # keeps each label of its input; an open one leaves unknown exactly what
    # the law leaves free; each contradiction named holds for its labels
    drawn = trees()
    statuses = []
    for label, argv, (_, code, out, _) in records.stream("tree"):
        if argv[0] != "tree-solve" or code == 1:
            continue
        tree = drawn[int(label[1:])]
        p = int(argv[argv.index("--p") + 1])
        root_delta = None
        if "--root-delta" in argv:
            root_delta = Fraction(argv[argv.index("--root-delta") + 1])
        delta, sigma_eff, epaisseur = tree_law(tree, p, root_delta)
        result = json.loads(out)
        status = result["status"]
        statuses.append(status)
        assert code == (2 if status == "Contradiction" else 0), (label, argv)
        if status == "Contradiction":
            assert result["contradictions"], (label, argv)
            for message in result["contradictions"]:
                assert _holds(message, delta, sigma_eff, epaisseur), (label, argv, message)
            continue
        given, printed = _labels(tree), _labels(result["tree"])
        assert given.items() <= printed.items(), (label, argv)
        law = {("vertex", v, "delta_eff"): values for v, values in delta.items()}
        law.update({("edge", e, "sigma_eff"): values for e, values in sigma_eff.items()})
        law.update({("edge", e, "epaisseur"): values for e, values in epaisseur.items()})
        assert all(len(values) <= 1 for values in law.values()), (label, argv)
        forced = {key: value for key, values in law.items() for value in values}
        # a vertex's sigma is no unknown of the law, and passes as given
        assert {k: v for k, v in printed.items() if k[2] != "sigma"} == forced, (label, argv)
        free = [f"{name}{edge}" for kind, edge, name in set(law) - set(forced) if kind == "edge"]
        assert sorted(result.get("unknowns", [])) == sorted(free), (label, argv)
        assert (status == "Solved") == (not free), (label, argv)
        if status == "Solved":  # and in the law's domain
            assert all(e > 0 for (_, _, name), e in forced.items() if name == "epaisseur")
            drop = {e: forced["vertex", e[0], "delta_eff"] - forced["vertex", e[1], "delta_eff"]
                    for e in epaisseur}
            assert all(d >= 0 for d in drop.values()), (label, argv)
    assert {"Solved", "Unsolved", "Contradiction"} <= set(statuses)
