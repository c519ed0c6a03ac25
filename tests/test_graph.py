"""Unit tests for the reduction-tree model: numeric laws, the propagation
solver, structural lints, vanishing cycles, and tail-config enumeration."""
import time
from fractions import Fraction

import pytest

from srt import (
    Edge,
    PreconditionViolated,
    ReductionTree,
    Vertex,
    check_monotonic,
    check_vanishing_cycles,
    effective_invariant,
    enumerate_tail_configs,
    invariant_weights,
    propagate_differents,
    validate_tree,
)

import helpers


class TestProfiles:
    def test_effective_invariant_weighted_average(self):
        sigmas = [Fraction(3, 2), Fraction(2), Fraction(5, 2)]
        w = invariant_weights(3, 5)
        assert effective_invariant(sigmas, 5) == sum(
            a * b for a, b in zip(w, sigmas)
        )
        with pytest.raises(PreconditionViolated, match="need at least one level"):
            effective_invariant([], 5)


class TestTreeStructure:
    def test_duplicate_ids(self):
        with pytest.raises(PreconditionViolated, match="duplicate vertex ids"):
            ReductionTree([Vertex("a"), Vertex("a")], [])

    def test_two_parents(self):
        with pytest.raises(PreconditionViolated, match="vertex c has two parents"):
            ReductionTree(
                [Vertex("a"), Vertex("b"), Vertex("c")],
                [Edge("a", "c"), Edge("b", "c"), Edge("a", "b")],
            )

    def test_must_be_connected_single_root(self):
        with pytest.raises(PreconditionViolated, match=r"unique root, found \['a', 'b'\]"):
            ReductionTree([Vertex("a"), Vertex("b")], [])
        # one root, and a cycle that no path from it reaches
        with pytest.raises(PreconditionViolated, match="not a connected tree"):
            ReductionTree(
                [Vertex("root"), Vertex("a"), Vertex("b")],
                [Edge("a", "b"), Edge("b", "a")],
            )

    def test_json_roundtrip(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=2, branch_points=[("x0", 25)]),
                Vertex("t", inertia=0, tail="new-etale", sigma=Fraction(3, 2)),
            ],
            [Edge("root", "t", epaisseur=Fraction(5, 4), sigma_eff=Fraction(3, 2))],
        )
        again = ReductionTree.from_json(tree.to_json())
        assert again.to_json() == tree.to_json()
        assert again.root == "root"
        assert again.vertices["t"].sigma == Fraction(3, 2)

    def test_labels_are_fractions(self):
        v = Vertex("r", inertia=1, sigma="3/2", delta_eff="5/4")
        assert v.delta_eff == Fraction(5, 4) and type(v.delta_eff) is Fraction
        assert v.sigma == Fraction(3, 2) and type(v.sigma) is Fraction
        e = Edge("r", "t", epaisseur=1, sigma_eff="1/2")
        assert (e.epaisseur, e.sigma_eff) == (Fraction(1), Fraction(1, 2))
        # a string label is not a contradiction with the derived root delta
        tree = ReductionTree([Vertex("r", inertia=1, delta_eff="5/4")], [])
        assert propagate_differents(tree, 5).status == "Solved"

    def test_copy_is_independent(self):
        tree = ReductionTree(
            [Vertex("a", inertia=1, branch_points=[("x", 5)]), Vertex("b", tail="new-etale")],
            [Edge("a", "b", sigma_eff=1)],
        )
        work = tree.copy()
        work.vertices["a"].delta_eff = Fraction(1)
        work.vertices["a"].branch_points.append(("y", 5))
        work.edge_to["b"].epaisseur = Fraction(2)
        assert work.to_json() != tree.to_json()
        assert tree.vertices["a"].delta_eff is None
        assert tree.vertices["a"].branch_points == [("x", 5)]
        assert tree.edge_to["b"].epaisseur is None
        assert tree.copy().to_json() == tree.to_json()

    def test_paths(self):
        tree = ReductionTree(
            [Vertex("a", inertia=2), Vertex("b", inertia=1), Vertex("c", inertia=0, tail="new-etale")],
            [Edge("a", "b"), Edge("b", "c")],
        )
        assert tree.path_from_root("c") == ["a", "b", "c"]


class TestValidateTree:
    def test_clean_tree(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=1, branch_points=[("wild", 5)]),
                Vertex("t", inertia=0, tail="primitive", branch_points=[("tame", 2)]),
            ],
            [Edge("root", "t")],
        )
        assert validate_tree(tree, 5) == []

    def test_lints(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=1),
                Vertex("bad-etale", inertia=0),
                Vertex("bad-index", inertia=0, tail="new-etale",
                       branch_points=[("pt", 5)]),
            ],
            [Edge("root", "bad-etale"), Edge("root", "bad-index")],
        )
        problems = validate_tree(tree, 5)
        assert any("not marked as a tail" in m for m in problems)
        assert any("expected 1" in m for m in problems)


class TestPropagation:
    def test_solves_missing_epaisseur(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=2),
                Vertex("t", inertia=0, tail="new-etale", sigma=Fraction(3, 2)),
            ],
            [Edge("root", "t", sigma_eff=Fraction(3, 2))],
        )
        out = propagate_differents(tree, 5)
        assert out.status == "Solved"
        x = Fraction(2) + Fraction(1, 4)
        assert out.tree.edge_to["t"].epaisseur == x / Fraction(3, 2)

    def test_detects_contradiction(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=2),
                Vertex("t", inertia=0, tail="new-etale", sigma=Fraction(3, 2)),
            ],
            [Edge("root", "t", sigma_eff=Fraction(3, 2), epaisseur=Fraction(1))],
        )
        out = propagate_differents(tree, 5)
        assert out.status == "Contradiction"
        assert any("delta drop" in c for c in out.contradictions)

    def test_rejects_increasing_different(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=1, delta_eff=Fraction(1, 2)),
                Vertex("w", inertia=1, delta_eff=Fraction(3, 2)),
                Vertex("t", inertia=0, tail="new-etale", sigma=Fraction(3, 2)),
            ],
            [
                Edge("root", "w", sigma_eff=Fraction(-1)),
                Edge("w", "t", sigma_eff=Fraction(1)),
            ],
        )
        out = propagate_differents(tree, 5, root_delta=Fraction(1, 2))
        assert out.status == "Contradiction"
        assert any("increases outward" in c for c in out.contradictions)

    def test_open_chain_reports_relation(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=2),
                Vertex("w", inertia=1),
                Vertex("t", inertia=0, tail="new-etale", sigma=Fraction(3, 2)),
            ],
            [
                Edge("root", "w", sigma_eff=Fraction(1)),
                Edge("w", "t", sigma_eff=Fraction(1)),
            ],
        )
        out = propagate_differents(tree, 5)
        assert out.status == "Unsolved"
        assert len(out.relations) == 1
        relation = out.relations[0]
        assert sorted(relation["edges"]) == [["root", "w"], ["w", "t"]]
        assert relation["sum_epaisseur"] == Fraction(2) + Fraction(1, 4)

    def test_long_open_chain_is_linear(self):
        # root inertia 2, 7,998 components of inertia 1, one etale leaf and
        # sigma_eff = 1 on every edge: one relation over all 7,999 edges;
        # finding each path edge by a scan of the edge list took 8.5 s
        n = 8000
        ids = [f"v{i}" for i in range(n)]
        vertices = [Vertex(ids[0], inertia=2)]
        vertices += [Vertex(v, inertia=1) for v in ids[1:-1]]
        vertices.append(Vertex(ids[-1], tail="new-etale", sigma=Fraction(3, 2)))
        edges = [Edge(a, b, sigma_eff=Fraction(1)) for a, b in zip(ids, ids[1:])]
        tree = ReductionTree(vertices, edges)
        start = time.perf_counter()
        out = propagate_differents(tree, 5)
        assert time.perf_counter() - start < 2
        assert out.status == "Unsolved"
        assert len(out.relations) == 1
        relation = out.relations[0]
        assert len(relation["edges"]) == n - 1
        assert relation["sum_epaisseur"] == Fraction(9, 4)

    def test_no_relation_through_an_edge_without_sigma(self):
        # the drop along root -> w -> t needs sigma_eff on the closed edge
        # w -> t too; this used to multiply None by its epaisseur (found by
        # the CLI fuzz through tree-solve)
        tree = ReductionTree(
            [Vertex("root", inertia=1), Vertex("w", inertia=1), Vertex("t", inertia=0)],
            [
                Edge("root", "w", sigma_eff=Fraction(1, 2)),
                Edge("w", "t", epaisseur=Fraction(1, 2)),
            ],
        )
        out = propagate_differents(tree, 3, root_delta=Fraction(0))
        assert out.status == "Unsolved"
        assert out.relations == []
        assert set(out.unknowns) == {"epaisseur('root', 'w')", "sigma_eff('w', 't')"}

    def test_no_relation_on_an_open_run_with_zero_sigma(self):
        # the drop along an open run is its sigma_eff times the sum of its
        # epaisseurs, so a zero sigma_eff leaves that sum unconstrained
        tree = ReductionTree(
            [Vertex("root", inertia=1), Vertex("w", inertia=1), Vertex("t", tail="new-etale")],
            [Edge("root", "w", sigma_eff=Fraction(0)), Edge("w", "t", sigma_eff=Fraction(0))],
        )
        out = propagate_differents(tree, 5)
        assert out.status == "Unsolved"
        assert out.relations == []
        assert set(out.unknowns) == {"epaisseur('root', 'w')", "epaisseur('w', 't')"}


class TestVanishingCycles:
    def test_global_form(self):
        def tree(prim_sigma):
            return ReductionTree(
                [
                    Vertex("root", inertia=1),
                    Vertex("n", inertia=0, tail="new-etale", sigma=Fraction(3, 2)),
                    Vertex("t", inertia=0, tail="primitive", sigma=prim_sigma),
                ],
                [Edge("root", "n"), Edge("root", "t")],
            )

        ok = check_vanishing_cycles(tree(Fraction(1, 2)))
        assert (ok.kind, ok.lhs, ok.rhs) == ("Holds", 1, 1)
        bad = check_vanishing_cycles(tree(Fraction(1)))
        assert (bad.kind, bad.lhs) == ("Violated", Fraction(3, 2))

    def test_tree_input(self):
        tree = ReductionTree(
            [
                Vertex("root", inertia=1),
                Vertex("t1", inertia=0, tail="primitive", sigma=Fraction(1, 2)),
                Vertex("t2", inertia=0, tail="primitive", sigma=Fraction(1, 2)),
            ],
            [Edge("root", "t1"), Edge("root", "t2")],
        )
        assert check_vanishing_cycles(tree).kind == "Holds"

    def test_monotonicity(self):
        good = ReductionTree(
            [Vertex("a", inertia=2), Vertex("b", inertia=1)], [Edge("a", "b")]
        )
        assert check_monotonic(good).kind == "Monotonic"
        bad = ReductionTree(
            [Vertex("a", inertia=1), Vertex("b", inertia=2)], [Edge("a", "b")]
        )
        out = check_monotonic(bad)
        assert out.kind == "Violation"
        assert out.path == ["a", "b"]


class TestTailConfigs:
    def test_tau_beyond_three_is_refused(self):
        with pytest.raises(ValueError):
            enumerate_tail_configs(4, 5)

    def test_zero_primitive(self):
        out = enumerate_tail_configs(0, 7)
        keys = {(c.prim, c.new) for c in out}
        assert ((), (Fraction(2),)) in keys
        assert ((), (Fraction(3, 2), Fraction(3, 2))) in keys

    def test_flagging_large_sigma(self):
        out = enumerate_tail_configs(0, 3)
        by_key = {(c.prim, c.new): c.flagged for c in out}
        assert by_key[((), (Fraction(2),))] is True  # 2 >= 3/2... p/2 = 3/2
        out5 = enumerate_tail_configs(0, 5)
        by_key5 = {(c.prim, c.new): c.flagged for c in out5}
        assert by_key5[((), (Fraction(2),))] is False

    def test_every_config_satisfies_the_identity(self):
        for tau in range(4):
            for c in enumerate_tail_configs(tau, 7):
                lhs = sum((s - 1 for s in c.new), Fraction(0)) + sum(
                    c.prim, Fraction(0)
                )
                assert lhs == 1
                assert len(c.prim) == tau
                assert len(c.prim) + len(c.new) <= 2 or tau == 3

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 1009])
    @pytest.mark.parametrize("tau", range(4))
    def test_matches_brute_force(self, tau, p):
        # the oracle draws sigma up to 3, beyond the bound of 2 the
        # enumeration relies on, sums Fractions where the enumeration counts
        # halves, and sorts its own output; only p = 3 flags an entry
        out = enumerate_tail_configs(tau, p)
        assert [(c.prim, c.new, c.flagged) for c in out] == helpers.tail_configs(tau, p)


class TestTailConfigsLargePrime:
    def test_large_prime_returns_quickly(self):
        # the candidates no longer grow with p: sigma <= 2 always
        start = time.perf_counter()
        assert enumerate_tail_configs(3, 1009) == []
        assert time.perf_counter() - start < 5
        for tau in range(3):
            big = enumerate_tail_configs(tau, 1009)
            small = enumerate_tail_configs(tau, 5)
            assert [(c.prim, c.new) for c in big] == [(c.prim, c.new) for c in small]
            assert not any(c.flagged for c in big)
