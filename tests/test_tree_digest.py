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
import tempfile

import records

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


def generate():
    """Each request on the n-th tree as (t<n>, argv, [argv, exit code, stdout,
    stderr]), with the tree's path replaced by TREE."""
    rng = random.Random(19)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.json")
        for n in range(TREES):
            with open(path, "w") as handle:
                json.dump(_tree(rng), handle)
            for argv in _requests(path):
                record = [argv, *records.capture(argv)]
                record = json.loads(json.dumps(record).replace(path, "TREE"))
                yield f"t{n}", record[0], record


def test_tree_requests_are_byte_identical():
    records.check("tree")
