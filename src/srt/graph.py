"""
Dual graph of a stable reduction: a rooted tree of components with inertia
exponents, tail labels, branch-point specializations, edge epaisseurs and
effective ramification invariants. Implements the numeric laws relating
effective differents, effective invariants, epaisseurs, and vanishing cycles,
plus a propagation solver and the admissible tail-configuration enumeration
for m_G = 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import MissingLabel, PreconditionViolated
from .valuation import check_p, read_int, read_rational, split_p_part

# --- component-level numerics ---


def effective_invariant(sigmas, p):
    """Weighted average of the per-level invariants, with the weights of
    invariant_weights."""
    check_p(p)
    sigmas = [Fraction(s) for s in sigmas]
    if not sigmas:
        raise PreconditionViolated("need at least one level")
    weights = invariant_weights(len(sigmas), p)
    return sum((w * s for w, s in zip(weights, sigmas)), Fraction(0))


def invariant_weights(r, p):
    """The weights of effective_invariant over r levels: (p-1)/p^i for
    i < r and 1/p^(r-1) for the last level; they sum to 1."""
    check_p(p)
    return [Fraction(p - 1, p**i) for i in range(1, r)] + [Fraction(1, p ** (r - 1))]


# --- the tree ---

TAIL_KINDS = ("none", "primitive", "new-etale", "new-inseparable")


def _label(value):
    """A numeric label read by read_rational; None stays None (not given)."""
    return None if value is None else read_rational(value)


def _json_labels(obj, names):
    """The JSON entries {name: str(value)} of the labels of obj that are set."""
    values = ((name, getattr(obj, name)) for name in names)
    return {name: str(value) for name, value in values if value is not None}


@dataclass
class Vertex:
    id: str
    inertia: int = 0
    tail: str = "none"
    branch_points: list = field(default_factory=list)  # (point id, index)
    sigma: Fraction | None = None
    delta_eff: Fraction | None = None

    def __post_init__(self):
        self.sigma = _label(self.sigma)
        self.delta_eff = _label(self.delta_eff)
        if self.tail not in TAIL_KINDS:
            raise PreconditionViolated(f"unknown tail kind {self.tail!r}")
        if any(index < 1 for _, index in self.branch_points):
            raise PreconditionViolated(
                f"branch point indices must be positive, got {self.branch_points}"
            )


@dataclass
class Edge:
    parent: str
    child: str
    epaisseur: Fraction | None = None
    sigma_eff: Fraction | None = None

    def __post_init__(self):
        self.epaisseur = _label(self.epaisseur)
        self.sigma_eff = _label(self.sigma_eff)

    @property
    def key(self):
        return (self.parent, self.child)


class ReductionTree:
    """A rooted tree of components. Each non-root vertex has exactly one
    entering edge, kept in the index edge_to (vertex id -> Edge); the parent
    of v is edge_to[v].parent, and the root is the one vertex not in it.
    children lists the child ids of each vertex in edge order."""

    def __init__(self, vertices, edges):
        self.vertices = {v.id: v for v in vertices}
        if len(self.vertices) != len(vertices):
            raise PreconditionViolated("duplicate vertex ids")
        self.edges = list(edges)
        self.children = {v: [] for v in self.vertices}
        self.edge_to = {}
        for e in self.edges:
            if e.parent not in self.vertices or e.child not in self.vertices:
                raise PreconditionViolated(f"edge {e.key} references unknown vertex")
            if e.child in self.edge_to:
                raise PreconditionViolated(f"vertex {e.child} has two parents")
            self.edge_to[e.child] = e
            self.children[e.parent].append(e.child)
        roots = [v for v in self.vertices if v not in self.edge_to]
        if len(roots) != 1:
            raise PreconditionViolated(f"expected a unique root, found {roots}")
        self.root = roots[0]
        # connectivity (tree = all vertices reachable from the root)
        seen = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            seen.add(v)
            stack.extend(self.children[v])
        if seen != set(self.vertices):
            raise PreconditionViolated("graph is not a connected tree")

    def path_from_root(self, vertex):
        path = [vertex]
        while path[-1] != self.root:
            path.append(self.edge_to[path[-1]].parent)
        return list(reversed(path))

    # serialization

    @classmethod
    def from_json(cls, data):
        vertices = [
            Vertex(
                id=str(v["id"]),
                inertia=read_int(v.get("inertia", 0), "inertia"),
                tail=v.get("tail", "none"),
                branch_points=[
                    (str(b["id"]), read_int(b["index"], "index"))
                    for b in v.get("branch_points", [])
                ],
                sigma=v.get("sigma"),
                delta_eff=v.get("delta_eff"),
            )
            for v in data["vertices"]
        ]
        edges = [
            Edge(
                parent=str(e["parent"]),
                child=str(e["child"]),
                epaisseur=e.get("epaisseur"),
                sigma_eff=e.get("sigma_eff"),
            )
            for e in data["edges"]
        ]
        return cls(vertices, edges)

    def to_json(self):
        return {
            "vertices": [
                {
                    "id": v.id,
                    "inertia": v.inertia,
                    "tail": v.tail,
                    "branch_points": [
                        {"id": b, "index": i} for b, i in v.branch_points
                    ],
                    **_json_labels(v, ("sigma", "delta_eff")),
                }
                for v in self.vertices.values()
            ],
            "edges": [
                {
                    "parent": e.parent,
                    "child": e.child,
                    **_json_labels(e, ("epaisseur", "sigma_eff")),
                }
                for e in self.edges
            ],
        }

    def copy(self):
        return ReductionTree(
            [
                replace(v, branch_points=list(v.branch_points))
                for v in self.vertices.values()
            ],
            [replace(e) for e in self.edges],
        )


def validate_tree(tree, p):
    """Structural lints: etale non-root components must be tails; a p^i-tail's
    parent must have strictly larger inertia; branch points of index p^a * m
    (p not dividing m) sit on components of inertia a; wild branch points of
    index divisible by p^r must not sit strictly below inertia on the path."""
    check_p(p)
    problems = []
    for v in tree.vertices.values():
        edge = tree.edge_to.get(v.id)
        parent = None if edge is None else tree.vertices[edge.parent]
        if parent is not None and v.inertia == 0 and v.tail == "none":
            problems.append(f"etale component {v.id} is not marked as a tail")
        if v.tail != "none" and parent is not None and not parent.inertia > v.inertia:
            problems.append(
                f"tail {v.id} (inertia {v.inertia}) under parent of inertia "
                f"{parent.inertia}"
            )
        for point, index in v.branch_points:
            a, _ = split_p_part(index, p)
            if v.inertia != a:
                problems.append(
                    f"branch point {point} of index {index} on a component of "
                    f"inertia {v.inertia}, expected {a}"
                )
            if a >= 1 and parent is not None and not parent.inertia > a:
                problems.append(
                    f"wild branch point {point} (index {index}) not under a "
                    f"component of inertia > {a}"
                )
    return problems


# --- solving the delta/sigma/epaisseur laws ---


@dataclass
class SolveResult:
    status: str  # Solved | Contradiction | Unsolved
    tree: ReductionTree | None = None
    contradictions: list = field(default_factory=list)
    # {"edges": [[parent, child], ...], "sum_epaisseur": total} per open chain
    relations: list = field(default_factory=list)
    unknowns: list = field(default_factory=list)


def propagate_differents(tree, p, root_delta=None):
    """Solve for delta_eff / sigma_eff / epaisseur using the local law
    delta_eff(parent) - delta_eff(child) = sigma_eff * epaisseur.

    Known boundary data: the root (delta = root_delta, default nu + 1/(p-1)
    for root inertia nu), etale vertices (delta = 0), and any vertex with an
    explicit delta_eff label. Returns a SolveResult; unresolved chains are
    reported as aggregate relations when their sigma_eff values agree.
    """
    check_p(p)
    work = tree.copy()
    root = work.vertices[work.root]
    if root_delta is None:
        root_delta = Fraction(root.inertia) + Fraction(1, p - 1)
    contradictions = []

    def set_delta(v, value):
        if v.delta_eff is None:
            v.delta_eff = Fraction(value)
            return True
        if v.delta_eff != value:
            contradictions.append(
                f"vertex {v.id}: delta_eff {v.delta_eff} vs derived {value}"
            )
        return False

    set_delta(root, root_delta)
    for v in work.vertices.values():
        if v.inertia == 0:
            set_delta(v, Fraction(0))
    changed = True
    while changed and not contradictions:
        changed = False
        for e in work.edges:
            vp_ = work.vertices[e.parent]
            vc = work.vertices[e.child]
            dp, dc, s, eps = vp_.delta_eff, vc.delta_eff, e.sigma_eff, e.epaisseur
            known = [x is not None for x in (dp, dc, s, eps)].count(True)
            if known < 3:
                continue
            if dp is not None and dc is not None:
                diff = dp - dc
                if s is not None and eps is not None:
                    if diff != s * eps:
                        contradictions.append(
                            f"edge {e.key}: delta drop {diff} != "
                            f"sigma_eff*epaisseur = {s * eps}"
                        )
                elif s is not None:
                    if s == 0:
                        if diff != 0:
                            contradictions.append(
                                f"edge {e.key}: sigma_eff = 0 but delta drop {diff}"
                            )
                    else:
                        e.epaisseur = diff / s
                        changed = True
                elif eps is not None:
                    if eps == 0:
                        contradictions.append(f"edge {e.key}: epaisseur must be > 0")
                    else:
                        e.sigma_eff = diff / eps
                        changed = True
            elif s is not None and eps is not None:
                if dp is not None:
                    changed |= set_delta(vc, dp - s * eps)
                else:
                    changed |= set_delta(vp_, dc + s * eps)
    if contradictions:
        return SolveResult("Contradiction", work, contradictions=contradictions)
    # aggregate relations along unresolved chains with uniform sigma_eff
    relations = []
    unknowns = []
    for e in work.edges:
        if e.epaisseur is None:
            unknowns.append(f"epaisseur{e.key}")
        if e.sigma_eff is None:
            unknowns.append(f"sigma_eff{e.key}")
    for leaf, children in work.children.items():
        if children:
            continue
        path_edges = [work.edge_to[v] for v in work.path_from_root(leaf)[1:]]
        open_run = [e for e in path_edges if e.epaisseur is None]
        if not open_run:
            continue
        # the drop along the path needs sigma_eff on every edge, closed or not
        if any(e.sigma_eff is None for e in path_edges):
            continue
        sigmas = {e.sigma_eff for e in open_run}
        d_top = work.vertices[work.root].delta_eff
        d_bot = work.vertices[leaf].delta_eff
        if d_top is None or d_bot is None or len(sigmas) != 1:
            continue
        sigma = sigmas.pop()
        if sigma == 0:
            continue
        known_drop = sum(
            (e.sigma_eff * e.epaisseur for e in path_edges if e.epaisseur is not None),
            Fraction(0),
        )
        relations.append(
            {
                "edges": [[e.parent, e.child] for e in open_run],
                "sum_epaisseur": (d_top - d_bot - known_drop) / sigma,
            }
        )
    status = "Solved" if not unknowns else "Unsolved"
    if status == "Solved":
        for e in work.edges:
            if not e.epaisseur > 0:
                contradictions.append(f"edge {e.key}: epaisseur {e.epaisseur} <= 0")
        for e in work.edges:
            dp, dc = work.vertices[e.parent].delta_eff, work.vertices[e.child].delta_eff
            if dp is not None and dc is not None and dp < dc:
                contradictions.append(
                    f"edge {e.key}: effective different increases outward "
                    f"({dp} < {dc})"
                )
        if contradictions:
            return SolveResult("Contradiction", work, contradictions=contradictions)
    return SolveResult(status, work, relations=relations, unknowns=unknowns)


# --- vanishing cycles ---


@dataclass
class CycleCheck:
    kind: str = field(metadata={"json": "verdict"})  # Holds | Violated
    lhs: Fraction
    rhs: Fraction


def check_vanishing_cycles(tree):
    """1 = sum over new tails (sigma - 1) + sum over primitive tails sigma."""
    new = [
        v.sigma
        for v in tree.vertices.values()
        if v.tail in ("new-etale", "new-inseparable")
    ]
    prim = [v.sigma for v in tree.vertices.values() if v.tail == "primitive"]
    if any(s is None for s in new + prim):
        raise MissingLabel("all tails need sigma labels")
    lhs = sum((s - 1 for s in new), Fraction(0)) + sum(prim, Fraction(0))
    return CycleCheck("Holds" if lhs == 1 else "Violated", lhs, Fraction(1))


@dataclass
class MonotonicityVerdict:
    kind: str = field(metadata={"json": "verdict"})  # Monotonic | Violation
    path: list = field(default_factory=list)


def check_monotonic(tree):
    """Generic inertia must not increase outward along any root-to-leaf path."""
    for e in tree.edges:
        if tree.vertices[e.child].inertia > tree.vertices[e.parent].inertia:
            return MonotonicityVerdict("Violation", tree.path_from_root(e.child))
    return MonotonicityVerdict("Monotonic")


# --- tail-configuration enumeration ---


@dataclass(frozen=True)
class TailConfig:
    prim: tuple = ()
    new: tuple = ()
    flagged: bool = False  # contains a sigma >= p/2, hence impossible


def enumerate_tail_configs(tau, p):
    """Admissible etale-tail invariant multisets for m_G = 2 with tau
    primitive tails: sigma in (1/2)Z > 0, new-tail sigma > 1, at most two
    etale tails in total, vanishing-cycles identity satisfied. Entries with
    any sigma >= p/2 are flagged as impossible but still listed.

    Every term of the identity is positive, so each primitive sigma is at
    most 1 and each new-tail sigma at most 2: the candidates do not depend
    on p. Each sigma is counted as the int k = 2 sigma in 1..4, so the
    identity reads sum(k_new - 2) + sum(k_prim) = 2 and sigma >= p/2 reads
    k >= p.
    """
    check_p(p)
    if not 0 <= tau <= 3:
        raise PreconditionViolated(f"tau must be 0..3, got {tau}")
    # _multisets yields sorted tuples in lexicographic order, so the loops
    # list each configuration once, ordered by (len(new), prim, new)
    out = []
    for n_new in range(0, max(0, 2 - tau) + 1):
        for prim in _multisets((1, 2, 3, 4), tau):
            for new in _multisets((3, 4), n_new):
                if sum(new) - 2 * n_new + sum(prim) != 2:
                    continue
                flagged = any(k >= p for k in prim + new)
                prim_sigmas = tuple(Fraction(k, 2) for k in prim)
                new_sigmas = tuple(Fraction(k, 2) for k in new)
                out.append(TailConfig(prim_sigmas, new_sigmas, flagged))
    return out


def _multisets(values, k):
    if k == 0:
        yield ()
        return
    for i, v in enumerate(values):
        for rest in _multisets(values[i:], k - 1):
            yield (v,) + rest
